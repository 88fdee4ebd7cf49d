package wire_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"disttrack/internal/wire"
)

// FuzzDecode feeds arbitrary bytes to the decoder. Whatever the input, the
// decoder must return cleanly — no panic, no over-allocation — and any
// message it does accept must re-encode to exactly the bytes it consumed
// (the encoding is canonical), up to the reserved tag 6, which decodes as a
// boost.Msg and so re-encodes as tag 16.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, p := range wire.Registered() {
		for i := 0; i < 2; i++ {
			if b, err := wire.Append(nil, gen(r, p)); err == nil {
				f.Add(b)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	// Frames under the reserved tag 6, bare and inside a Logged record.
	legacy := []byte{6, 2, 0, 0, 0, 0, 0, 0, 0, 3, 41, 0, 0, 0, 0, 0, 0, 0}
	f.Add(legacy)
	f.Add(append([]byte{23, 5, 0, 0, 0, 0, 0, 0, 0}, legacy...))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := wire.Decode(b)
		if err != nil {
			return
		}
		consumed := b[:len(b)-len(rest)]
		re, err := wire.Append(nil, m)
		if err != nil {
			t.Fatalf("decoded %#v but cannot re-encode: %v", m, err)
		}
		if !bytes.Equal(re, consumed) && !legacyTagsOnly(re, consumed) {
			t.Fatalf("decode/encode not canonical for %#v:\nconsumed %x\nreencode %x", m, consumed, re)
		}
	})
}

// FuzzRoundTrip drives the random-instance generator from fuzzed seeds and
// checks Encode -> Decode identity plus the Words() size cross-check for
// every registered type.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(424242))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var buf []byte
		for _, p := range wire.Registered() {
			m := gen(r, p)
			var err error
			buf, err = wire.Append(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + 8*m.Words() + overheadBytes(m); len(buf) != want {
				t.Fatalf("%T: encoded to %d bytes, want %d", m, len(buf), want)
			}
			got, rest, err := wire.Decode(buf)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			if len(rest) != 0 || !reflect.DeepEqual(got, m) {
				t.Fatalf("%T: round trip changed the message", m)
			}
		}
	})
}

// legacyTagsOnly reports whether re differs from consumed only where
// consumed holds the reserved tag 6 and re the boost.Msg tag 16.
func legacyTagsOnly(re, consumed []byte) bool {
	if len(re) != len(consumed) {
		return false
	}
	for i := range re {
		if re[i] != consumed[i] && (consumed[i] != 6 || re[i] != 16) {
			return false
		}
	}
	return true
}
