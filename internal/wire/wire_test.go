package wire_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"disttrack/internal/boost"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/robust"
	"disttrack/internal/rounds"
	"disttrack/internal/sample"
	"disttrack/internal/summary/gk"
	"disttrack/internal/summary/merge"
	"disttrack/internal/wire"
)

// genInner builds a random non-wrapper message (boost.Msg wraps exactly
// these in the real protocols).
func genInner(r *rand.Rand) proto.Message {
	switch r.Intn(4) {
	case 0:
		return rounds.UpMsg{N: r.Int63()}
	case 1:
		return rounds.BroadcastMsg{NBar: r.Int63()}
	case 2:
		return count.UpdateMsg{N: r.Int63()}
	default:
		return count.AdjustMsg{NBar: r.Int63()}
	}
}

func genMergeSnapshot(r *rand.Rand) merge.Snapshot {
	sn := merge.Snapshot{N: r.Int63n(1 << 40)}
	nb := r.Intn(4)
	for i := 0; i < nb; i++ {
		vals := make([]float64, r.Intn(5))
		for j := range vals {
			vals[j] = r.NormFloat64()
		}
		sn.Buffers = append(sn.Buffers, merge.WeightedBuffer{
			Weight: 1 << uint(r.Intn(10)),
			Values: vals,
		})
	}
	return sn
}

func genGKSnapshot(r *rand.Rand) gk.Snapshot {
	sn := gk.Snapshot{N: r.Int63n(1 << 40), Eps: r.Float64()}
	nt := r.Intn(6)
	for i := 0; i < nt; i++ {
		sn.Tuples = append(sn.Tuples, gk.SnapshotTuple{
			V: r.NormFloat64(), G: r.Int63n(100), D: r.Int63n(100),
		})
	}
	return sn
}

// gen builds a random instance of the same concrete type as prototype.
func gen(r *rand.Rand, prototype proto.Message) proto.Message {
	switch prototype.(type) {
	case rounds.UpMsg:
		return rounds.UpMsg{N: r.Int63()}
	case rounds.BroadcastMsg:
		return rounds.BroadcastMsg{NBar: r.Int63()}
	case count.UpdateMsg:
		return count.UpdateMsg{N: r.Int63()}
	case count.AdjustMsg:
		return count.AdjustMsg{NBar: r.Int63()}
	case robust.ReportMsg:
		return robust.ReportMsg{N: r.Int63() - r.Int63()} // noised counts go negative
	case robust.AdjustMsg:
		return robust.AdjustMsg{NBar: r.Int63() - r.Int63()}
	case count.DetReportMsg:
		return count.DetReportMsg{N: r.Int63()}
	case freq.CounterMsg:
		return freq.CounterMsg{Item: r.Int63(), Count: r.Int63n(1 << 30)}
	case freq.SampleMsg:
		return freq.SampleMsg{Item: r.Int63()}
	case freq.ResetMsg:
		return freq.ResetMsg{}
	case *freq.DetReportMsg:
		return &freq.DetReportMsg{Slot: r.Intn(1 << 16), Item: r.Int63(), Count: r.Int63n(1 << 30)}
	case rank.SummaryMsg:
		return rank.SummaryMsg{Chunk: r.Int63n(1 << 30), Level: r.Intn(32),
			Pos: r.Intn(1 << 20), Snap: genMergeSnapshot(r)}
	case rank.SampleMsg:
		return rank.SampleMsg{Chunk: r.Int63n(1 << 30), Index: r.Int63n(1 << 40), Value: r.NormFloat64()}
	case *rank.DetSnapshotMsg:
		return &rank.DetSnapshotMsg{Snap: genGKSnapshot(r)}
	case sample.ElementMsg:
		return sample.ElementMsg{Item: r.Int63(), Value: r.NormFloat64(), Level: r.Intn(60)}
	case sample.LevelMsg:
		return sample.LevelMsg{Level: r.Intn(60)}
	case boost.Msg:
		return boost.Msg{Copy: r.Intn(64), Inner: genInner(r)}
	case wire.Hello:
		return wire.Hello{Site: r.Intn(1 << 20), K: r.Intn(1 << 20), Config: r.Uint64()}
	case wire.Done:
		return wire.Done{Arrivals: r.Int63()}
	case wire.Progress:
		return wire.Progress{Arrivals: r.Int63()}
	case wire.Rejoin:
		return wire.Rejoin{Site: r.Intn(1 << 20), K: r.Intn(1 << 20),
			Config: r.Uint64(), Arrivals: r.Int63()}
	case wire.Resync:
		return wire.Resync{Round: r.Int63n(1 << 40), Arrivals: r.Int63()}
	case proto.StateMsg:
		return proto.StateMsg{Key: r.Int63n(64), A: r.Int63(), B: r.Int63(), F: r.NormFloat64()}
	case wire.Logged:
		inner := genInner(r)
		if r.Intn(3) == 0 { // logged frames wrap multiplexer messages too
			inner = boost.Msg{Copy: r.Intn(64), Inner: inner}
		}
		return wire.Logged{From: r.Intn(1<<20) - 1, Msg: inner}
	case wire.SnapMeta:
		m := wire.SnapMeta{Config: r.Uint64(), MessagesUp: r.Int63(), MessagesDown: r.Int63(),
			WordsUp: r.Int63(), WordsDown: r.Int63(), Broadcasts: r.Int63(),
			Snapshots: r.Int63n(1 << 30), Resyncs: r.Int63n(1 << 30)}
		if n := r.Intn(5); n > 0 {
			m.SiteArrivals = make([]int64, n)
			for i := range m.SiteArrivals {
				m.SiteArrivals[i] = r.Int63()
			}
		}
		if n := r.Intn(5); n > 0 {
			m.Finished = make([]bool, n)
			for i := range m.Finished {
				m.Finished[i] = r.Intn(2) == 1
			}
		}
		return m
	default:
		panic("no generator for registered message type " + reflect.TypeOf(prototype).String())
	}
}

// overheadBytes returns how many payload bytes beyond 8*Words() the wire
// form of m carries. Words() is the paper's accounting — it charges
// protocol information only — while the wire form also needs structural
// fields the accounting treats as free: routing tags (copy indices, and a
// nested message's type byte), slice lengths, and the deterministic rank
// snapshot's ε. ResetMsg goes the other way: the accounting charges one
// word for a notification whose wire payload is empty.
func overheadBytes(m proto.Message) int {
	switch msg := m.(type) {
	case freq.ResetMsg:
		return -8
	case boost.Msg:
		return 8 + 1 + overheadBytes(msg.Inner) // copy index + inner tag
	case rank.SummaryMsg:
		return 8 // buffer count
	case *rank.DetSnapshotMsg:
		return 16 // ε + tuple count
	case wire.Logged:
		return 1 + overheadBytes(msg.Msg) // inner tag
	case wire.SnapMeta:
		return 16 // site-arrivals count + finished count
	default:
		return 0
	}
}

// TestRoundTripAllTypes encodes and decodes random instances of every
// registered message type: Decode(Encode(m)) must be identical to m, the
// full input must be consumed, and the encoded size must match the paper's
// word accounting (Words() cross-check).
func TestRoundTripAllTypes(t *testing.T) {
	protos := wire.Registered()
	if len(protos) < 16 {
		t.Fatalf("only %d registered message types; the six protocol packages define 16", len(protos))
	}
	r := rand.New(rand.NewSource(7))
	for _, p := range protos {
		name := reflect.TypeOf(p).String()
		for trial := 0; trial < 200; trial++ {
			m := gen(r, p)
			buf, err := wire.Append(nil, m)
			if err != nil {
				t.Fatalf("%s: Append: %v", name, err)
			}
			if want := 1 + 8*m.Words() + overheadBytes(m); len(buf) != want {
				t.Fatalf("%s: encoded to %d bytes, want %d (Words=%d, overhead=%d): %#v",
					name, len(buf), want, m.Words(), overheadBytes(m), m)
			}
			got, rest, err := wire.Decode(buf)
			if err != nil {
				t.Fatalf("%s: Decode: %v", name, err)
			}
			if len(rest) != 0 {
				t.Fatalf("%s: %d bytes left undecoded", name, len(rest))
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%s: round trip changed the message:\n in: %#v\nout: %#v", name, m, got)
			}
			if got.Words() != m.Words() {
				t.Fatalf("%s: Words changed across the wire: %d -> %d", name, m.Words(), got.Words())
			}
		}
	}
}

// TestDecodeNeverAliases ensures a decoded message survives reuse of the
// input buffer (the frame readers recycle theirs).
func TestDecodeNeverAliases(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := rank.SummaryMsg{Chunk: 1, Level: 2, Pos: 3, Snap: genMergeSnapshot(r)}
	for len(m.Snap.Buffers) == 0 || len(m.Snap.Buffers[0].Values) == 0 {
		m.Snap = genMergeSnapshot(r)
	}
	buf, err := wire.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !reflect.DeepEqual(got, proto.Message(m)) {
		t.Fatal("decoded message aliased the input buffer")
	}
}

// TestDecodeRejectsCorruption spot-checks the error paths decoders must
// take instead of panicking or over-allocating.
func TestDecodeRejectsCorruption(t *testing.T) {
	if _, _, err := wire.Decode(nil); err == nil {
		t.Error("empty input did not error")
	}
	if _, _, err := wire.Decode([]byte{0xee}); err == nil {
		t.Error("unknown tag did not error")
	}
	// A summary message whose buffer count claims more data than present.
	buf, err := wire.Append(nil, rank.SummaryMsg{Chunk: 1, Snap: merge.Snapshot{N: 5}})
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-8] = 0xff // buffer count word -> huge
	if _, _, err := wire.Decode(buf); err == nil {
		t.Error("oversized buffer count did not error")
	}
	// Truncations of every prefix length must error, not panic.
	full, err := wire.Append(nil, &freq.DetReportMsg{Slot: 1, Item: 2, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := wire.Decode(full[:cut]); err == nil {
			t.Errorf("truncation to %d bytes did not error", cut)
		}
	}
	// A wrapper nested inside a wrapper is not a protocol message.
	double, err := wire.Append(nil,
		boost.Msg{Inner: boost.Msg{Inner: count.UpdateMsg{N: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.Decode(double); err == nil {
		t.Error("nested multiplexer message did not error")
	}
	// A persistence record nested inside another is corruption too.
	rec, err := wire.Append(nil,
		wire.Logged{From: 0, Msg: wire.Logged{From: 1, Msg: count.UpdateMsg{N: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.Decode(rec); err == nil {
		t.Error("nested Logged record did not error")
	}
}

// TestLegacyCountCopyFrame pins the reserved tag 6: frames of count's old
// median multiplexer, laid out as the copy index then the inner frame, must
// decode as the boost.Msg that now carries the same copy and inner message,
// bare and inside the Logged records of a Persist store.
func TestLegacyCountCopyFrame(t *testing.T) {
	word := func(b []byte, v int64) []byte {
		return binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	inner := word([]byte{3}, 41) // count.UpdateMsg{N: 41}
	frame := append(word([]byte{6}, 2), inner...)
	want := boost.Msg{Copy: 2, Inner: count.UpdateMsg{N: 41}}
	got, rest, err := wire.Decode(frame)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, proto.Message(want)) {
		t.Fatalf("tag-6 frame decoded to %#v (rest %d, err %v), want %#v", got, len(rest), err, want)
	}
	logged := append(word([]byte{23}, 5), frame...)
	got, rest, err = wire.Decode(logged)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, proto.Message(wire.Logged{From: 5, Msg: want})) {
		t.Fatalf("logged tag-6 frame decoded to %#v (rest %d, err %v)", got, len(rest), err)
	}
	// The alias re-encodes under tag 16 with the same payload.
	re, err := wire.Append(nil, got.(wire.Logged).Msg)
	if err != nil || re[0] != 16 || !bytes.Equal(re[1:], frame[1:]) {
		t.Fatalf("re-encoded %x (err %v), want tag 16 then %x", re, err, frame[1:])
	}
}

// TestAppendZeroAlloc pins the encoder's zero-allocation contract on the
// hot-path message types: with a reused buffer, Append never touches the
// heap.
func TestAppendZeroAlloc(t *testing.T) {
	msgs := []proto.Message{
		rounds.UpMsg{N: 12345},
		count.UpdateMsg{N: 99},
		freq.CounterMsg{Item: 7, Count: 3},
		freq.SampleMsg{Item: 7},
		rank.SampleMsg{Chunk: 1, Index: 2, Value: 3.5},
		sample.ElementMsg{Item: 1, Value: 2, Level: 3},
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, m := range msgs {
			var err error
			buf, err = wire.Append(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocated %.1f times per run; want 0", allocs)
	}
}

// TestDecoderScratchRoundTrip pins the scratch decoder's semantics: hot
// messages decode into per-tag borrowed boxes (the pointee equals what was
// encoded; a later decode of the same tag overwrites the earlier box), and
// types without a scratch hook fall back to a fresh owned decode identical
// to plain Decode.
func TestDecoderScratchRoundTrip(t *testing.T) {
	var dec wire.Decoder

	buf, err := wire.Append(nil, rounds.UpMsg{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := m1.(*rounds.UpMsg)
	if !ok {
		t.Fatalf("scratch decode returned %T; want *rounds.UpMsg", m1)
	}
	if p1.N != 41 {
		t.Fatalf("decoded N = %d, want 41", p1.N)
	}

	// Same tag again: the borrowed box is overwritten in place.
	buf, err = wire.Append(buf[:0], rounds.UpMsg{N: 42})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.(*rounds.UpMsg) != p1 {
		t.Fatal("second decode of the same tag did not reuse the scratch box")
	}
	if p1.N != 42 {
		t.Fatalf("scratch box holds N = %d after overwrite, want 42", p1.N)
	}

	// A type with no scratch hook falls back to the plain owned decode.
	buf, err = wire.Append(buf[:0], wire.Done{Arrivals: 7})
	if err != nil {
		t.Fatal(err)
	}
	m3, _, err := dec.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m3, want) {
		t.Fatalf("fallback decode = %#v, want %#v", m3, want)
	}
}

// TestDecoderZeroAlloc pins the scratch decoder's zero-allocation contract
// on the hot-path message types: after the first pass warms the per-tag
// boxes, a steady encode+decode stream never touches the heap.
func TestDecoderZeroAlloc(t *testing.T) {
	msgs := []proto.Message{
		rounds.UpMsg{N: 12345},
		rounds.BroadcastMsg{NBar: 500},
		count.UpdateMsg{N: 99},
		count.AdjustMsg{NBar: 200},
		freq.CounterMsg{Item: 7, Count: 3},
		freq.SampleMsg{Item: 7},
		rank.SampleMsg{Chunk: 1, Index: 2, Value: 3.5},
		sample.ElementMsg{Item: 1, Value: 2, Level: 3},
		sample.LevelMsg{Level: 4},
	}
	buf := make([]byte, 0, 256)
	var dec wire.Decoder
	for _, m := range msgs { // warm the scratch boxes
		b, err := wire.Append(buf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.Decode(b); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, m := range msgs {
			var err error
			buf, err = wire.Append(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := dec.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Words() != m.Words() {
				t.Fatalf("decoded %T words mismatch", m)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Decoder round trip allocated %.1f times per run; want 0", allocs)
	}
}

// TestFrameRoundTrip pushes every registered type through the framing layer
// (AppendFrame -> ReadFrame) as the socket transports do.
func TestFrameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var stream []byte
	var sent []proto.Message
	for _, p := range wire.Registered() {
		for trial := 0; trial < 20; trial++ {
			m := gen(r, p)
			var err error
			stream, err = wire.AppendFrame(stream, m)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, m)
		}
	}
	rd := bytes.NewReader(stream)
	var buf []byte
	for i, want := range sent {
		m, b, err := wire.ReadFrame(rd, buf)
		buf = b
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("frame %d: got %#v want %#v", i, m, want)
		}
	}
	if _, _, err := wire.ReadFrame(rd, buf); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}
