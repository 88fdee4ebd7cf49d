// Package wire gives every protocol message a binary wire form, so the
// paper's protocols — defined as messages between sites and a coordinator —
// can cross a real network instead of hopping between Go structs in one
// process.
//
// Every concrete proto.Message type is registered once with a stable
// one-byte tag and an encode/decode pair. The encoding is canonical and
// fixed-width: one tag byte followed by the payload, every integer and
// float as 8 little-endian bytes (one machine word — the same unit as the
// paper's word-based accounting, which the codec tests cross-check against
// Words()). Variable-size payloads (rank summaries) carry explicit counts,
// validated against the remaining input before any allocation.
//
// Append is zero-alloc: it appends to a caller-owned buffer. Decode
// allocates only the returned message value (and fresh slices for
// summaries); it never aliases the input, so frame buffers can be reused.
//
// Frames: the socket transports (internal/runtime) ship each encoded
// message as a length-prefixed frame via AppendFrame/ReadFrame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"

	"disttrack/internal/proto"
)

// ErrShort reports a truncated wire form.
var ErrShort = errors.New("wire: truncated message")

// ErrUnknownTag reports a tag with no registered codec.
var ErrUnknownTag = errors.New("wire: unknown message tag")

// ErrUnregistered reports an Append of a message type with no codec.
var ErrUnregistered = errors.New("wire: unregistered message type")

type entry struct {
	tag       byte
	prototype proto.Message
	enc       func(buf []byte, m proto.Message) []byte
	dec       func(b []byte) (proto.Message, []byte, error)
	// reuse, when registered, decodes into prev (a pointer-form message this
	// hook previously returned for the same tag, or nil) instead of boxing a
	// fresh value — the Decoder scratch path.
	reuse func(b []byte, prev proto.Message) (proto.Message, []byte, error)
}

var (
	byTag  [256]*entry
	byType = map[reflect.Type]*entry{}
)

// Register binds a message type (identified by prototype's concrete type)
// to a tag and its codec. Tags are part of the wire format: never reuse or
// renumber one. Register panics on duplicates; it is meant to be called
// from init.
func Register(tag byte, prototype proto.Message,
	enc func(buf []byte, m proto.Message) []byte,
	dec func(b []byte) (proto.Message, []byte, error)) {
	if byTag[tag] != nil {
		panic(fmt.Sprintf("wire: tag %d registered twice", tag))
	}
	t := reflect.TypeOf(prototype)
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	e := &entry{tag: tag, prototype: prototype, enc: enc, dec: dec}
	byTag[tag] = e
	byType[t] = e
}

// Append appends m's wire form (tag byte plus payload) to buf and returns
// the extended buffer. It performs no allocation beyond growing buf.
func Append(buf []byte, m proto.Message) ([]byte, error) {
	e := byType[reflect.TypeOf(m)]
	if e == nil {
		return buf, fmt.Errorf("%w: %T", ErrUnregistered, m)
	}
	buf = append(buf, e.tag)
	return e.enc(buf, m), nil
}

// Decode decodes one message from the front of b, returning the message and
// the unconsumed remainder. The returned message never aliases b.
func Decode(b []byte) (proto.Message, []byte, error) {
	if len(b) == 0 {
		return nil, b, ErrShort
	}
	e := byTag[b[0]]
	if e == nil {
		return nil, b, fmt.Errorf("%w: %d", ErrUnknownTag, b[0])
	}
	return e.dec(b[1:])
}

// RegisterScratch binds an optional scratch decoder to an already
// registered tag: reuse decodes one message, writing into prev — a
// pointer-form message the hook previously returned for this tag, or nil
// on the first call — instead of boxing a fresh value. Called from init,
// after the tag's Register.
func RegisterScratch(tag byte,
	reuse func(b []byte, prev proto.Message) (proto.Message, []byte, error)) {
	e := byTag[tag]
	if e == nil {
		panic(fmt.Sprintf("wire: scratch decoder for unregistered tag %d", tag))
	}
	if e.reuse != nil {
		panic(fmt.Sprintf("wire: scratch decoder for tag %d registered twice", tag))
	}
	e.reuse = reuse
}

// Decoder is Decode with a pooled scratch: for message types with a
// scratch decoder (the fixed-width hot-path messages), it returns a
// pointer-form message decoded into a per-tag reusable box, so a steady
// decode stream performs zero allocations.
//
// The returned message is BORROWED: it is valid only until the next Decode
// of the same tag on this Decoder. Use it on immediate-consumption paths —
// decode, read the fields, move on. Paths that retain decoded messages
// (the transport readers, whose queues hold them until the settling
// goroutine or the server's event loop applies them) must keep using the
// plain Decode.
//
// Message types without a scratch decoder fall back to the plain decode of
// a fresh (owned, value-form) message, so a Decoder is always safe to
// point at a mixed frame stream. A Decoder is not safe for concurrent use.
type Decoder struct {
	scratch [256]proto.Message
}

// Decode decodes one message from the front of b; see Decoder for the
// borrowed-result contract.
func (d *Decoder) Decode(b []byte) (proto.Message, []byte, error) {
	if len(b) == 0 {
		return nil, b, ErrShort
	}
	e := byTag[b[0]]
	if e == nil {
		return nil, b, fmt.Errorf("%w: %d", ErrUnknownTag, b[0])
	}
	if e.reuse == nil {
		return e.dec(b[1:])
	}
	m, rest, err := e.reuse(b[1:], d.scratch[e.tag])
	if err != nil {
		return nil, rest, err
	}
	d.scratch[e.tag] = m
	return m, rest, nil
}

// Registered returns one prototype per registered message type, in tag
// order (a decode-only alias tag is not listed). Tests use it to enumerate
// the full wire vocabulary.
func Registered() []proto.Message {
	var ms []proto.Message
	for tag, e := range byTag {
		if e != nil && int(e.tag) == tag {
			ms = append(ms, e.prototype)
		}
	}
	return ms
}

// --- primitives ---

// AppendInt appends one machine word holding a signed integer.
func AppendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendFloat appends one machine word holding a float64.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// ReadInt consumes one signed-integer word.
func ReadInt(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, b, ErrShort
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// ReadFloat consumes one float64 word.
func ReadFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, b, ErrShort
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// ReadCount consumes one word holding a non-negative element count and
// validates that b still holds at least count*width bytes, so decoders can
// size allocations from untrusted input safely.
func ReadCount(b []byte, width int) (int, []byte, error) {
	n, b, err := ReadInt(b)
	if err != nil {
		return 0, b, err
	}
	if n < 0 || n > int64(len(b)/width) {
		return 0, b, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrShort, n, len(b))
	}
	return int(n), b, nil
}

// --- framing ---

// MaxFrame bounds a frame payload (16 MiB); a longer length prefix is
// treated as corruption.
const MaxFrame = 16 << 20

// AppendFrame appends a length-prefixed frame carrying m's wire form and
// returns the extended buffer. The caller writes the result to the
// connection in one call, so a frame is never interleaved.
func AppendFrame(buf []byte, m proto.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := Append(buf, m)
	if err != nil {
		return buf[:start], err
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// ReadFrame reads one frame from r into buf (grown as needed) and decodes
// its message. It returns the possibly-grown buffer for reuse. A cleanly
// closed connection (stream end on a frame boundary) returns io.EOF; a
// stream ending mid-frame is a torn frame and surfaces as
// io.ErrUnexpectedEOF, which callers must treat as corruption, not
// shutdown.
func ReadFrame(r io.Reader, buf []byte) (proto.Message, []byte, error) {
	// The length prefix is read into buf itself: a local array would
	// escape through the io.Reader call and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 64)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("wire: frame length %d exceeds MaxFrame", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	m, rest, err := Decode(buf)
	if err != nil {
		return nil, buf, err
	}
	if len(rest) != 0 {
		return nil, buf, fmt.Errorf("wire: %d trailing bytes in frame", len(rest))
	}
	return m, buf, nil
}
