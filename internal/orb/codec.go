package orb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"legion/internal/loid"
	"legion/internal/wire"
)

// This file is the ORB's compact binary codec: the negotiated
// alternative to the original per-call gob streams. Frames are
// length-prefixed; headers are varints (request ID, LOID, per-connection
// interned method ID, trace/span IDs, deadline); payloads are
// hand-rolled WireMessage encodings selected by stable registered type
// IDs, with gob retained as an inline fallback for exotic types. One
// version byte at connection open (the preamble) selects binary or gob
// for the whole connection, so mixed-version runtimes interoperate.

// WireCodec selects the connection protocol a client runtime speaks.
type WireCodec byte

// The negotiable codecs. The byte values appear on the wire in the
// connection preamble and must never be renumbered.
const (
	// CodecBinary is the compact binary framing (default).
	CodecBinary WireCodec = 'B'
	// CodecGob is the original gob stream, kept as the negotiated
	// fallback for mixed-version runtimes.
	CodecGob WireCodec = 'G'
)

// String names the codec.
func (c WireCodec) String() string {
	if c == CodecGob {
		return "gob"
	}
	return "binary"
}

// preamble is the 4-byte connection open: magic, protocol version, and
// the codec byte the client selected for this connection.
const (
	preambleMagic0 = 'L'
	preambleMagic1 = 'G'
	preambleVer    = 1
	preambleLen    = 4
)

// maxFrameLen bounds a single binary frame; larger prefixes indicate a
// corrupt stream and drop the connection.
const maxFrameLen = 1 << 26 // 64M

// ErrServerOverload reports that the serving runtime's bounded request
// pool was full and the frame was refused before dispatch. The message
// deliberately carries package proto's ErrOverload prefix ("legion:
// overloaded, request shed") so package resilient classifies transport-
// level sheds as permanent refusals — retrying into an overloaded
// server feeds the overload, and tripping breakers on sheds would
// amplify it into an availability collapse.
var ErrServerOverload = errors.New("legion: overloaded, request shed by orb server")

// --- payload registry ---

// WireMessage is implemented by message types that cross the binary
// codec with hand-rolled encodings. AppendWire appends the value to b
// and returns the extended slice; DecodeWire consumes the same field
// sequence from r, reusing the receiver's slice capacities, and reports
// malformed input through r.Err.
type WireMessage interface {
	AppendWire(b []byte) []byte
	DecodeWire(r *wire.Reader)
}

// Payload tags. Tag values 0 and 1 are structural; registered message
// type IDs start at wireIDFirst and are stable, explicitly assigned
// constants (package proto) that must never be renumbered.
const (
	payloadNil = 0 // nil argument or result
	payloadGob = 1 // inline gob blob: the fallback for unregistered types
	// WireIDFirst is the smallest assignable message type ID.
	WireIDFirst = 16
)

type wireEncodeFunc func(v any, b []byte) []byte

type wireDecodeFunc func(r *wire.Reader) any

var (
	wireRegMu    sync.RWMutex
	wireEncoders = make(map[reflect.Type]wireEncodeFunc)
	wireTypeIDs  = make(map[reflect.Type]uint64)
	wireDecoders = make(map[uint64]wireDecodeFunc)
)

// RegisterWireMessage registers T under the given stable wire type ID
// for the binary codec, alongside the gob registration every wire type
// already has (RegisterWireType). Values of both T and *T encode under
// the ID; decoding always produces a T value, matching gob's semantics
// for interface-carried pointers. Registration happens in init
// functions; re-registering an ID or type panics.
func RegisterWireMessage[T any, PT interface {
	*T
	WireMessage
}](id uint16) {
	if id < WireIDFirst {
		panic(fmt.Sprintf("orb: wire type ID %d is reserved (first assignable is %d)", id, WireIDFirst))
	}
	var zero T
	typ := reflect.TypeOf(zero)
	// A T on the stack escapes through the method call behind PT, so
	// encoding a by-value argument and decoding a payload each work in a
	// pooled scratch T instead: the encode then allocates nothing and
	// the decode only the boxed result. Scratch is zeroed before reuse,
	// so no decoded value shares memory with a later one.
	scratch := sync.Pool{New: func() any { return PT(new(T)) }}
	enc := func(v any, b []byte) []byte {
		if p, ok := v.(PT); ok {
			return p.AppendWire(b)
		}
		p := scratch.Get().(PT)
		*p = v.(T)
		b = p.AppendWire(b)
		*p = zero
		scratch.Put(p)
		return b
	}
	dec := func(r *wire.Reader) any {
		p := scratch.Get().(PT)
		p.DecodeWire(r)
		var v any
		if r.Err == nil {
			v = *p
		}
		*p = zero
		scratch.Put(p)
		return v
	}
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	if _, dup := wireDecoders[uint64(id)]; dup {
		panic(fmt.Sprintf("orb: wire type ID %d registered twice", id))
	}
	if _, dup := wireTypeIDs[typ]; dup {
		panic(fmt.Sprintf("orb: wire type %v registered twice", typ))
	}
	wireEncoders[typ] = enc
	wireEncoders[reflect.PointerTo(typ)] = enc
	wireTypeIDs[typ] = uint64(id)
	wireTypeIDs[reflect.PointerTo(typ)] = uint64(id)
	wireDecoders[uint64(id)] = dec
}

// gobPayload wraps the fallback blob so gob can encode interface values
// of any registered concrete type.
type gobPayload struct{ V any }

// AppendPayload appends v's payload encoding: a uvarint type tag and
// the body. Registered WireMessage types use their hand-rolled
// encodings; everything else falls back to an inline gob blob, so
// exotic `any` arguments (test doubles, raw byte slices, strings) keep
// working over the binary codec.
func AppendPayload(b []byte, v any) ([]byte, error) {
	if v == nil {
		return wire.AppendUvarint(b, payloadNil), nil
	}
	typ := reflect.TypeOf(v)
	wireRegMu.RLock()
	enc := wireEncoders[typ]
	id := wireTypeIDs[typ]
	wireRegMu.RUnlock()
	if enc != nil {
		b = wire.AppendUvarint(b, id)
		return enc(v, b), nil
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(gobPayload{V: v}); err != nil {
		return b, fmt.Errorf("orb: encode payload %T: %w", v, err)
	}
	b = wire.AppendUvarint(b, payloadGob)
	return wire.AppendBytes(b, blob.Bytes()), nil
}

// DecodePayload consumes one payload from r. Decoded values never alias
// r's buffer, so transports may recycle it immediately.
func DecodePayload(r *wire.Reader) (any, error) {
	tag := r.Uvarint()
	if r.Err != nil {
		return nil, r.Err
	}
	switch tag {
	case payloadNil:
		return nil, nil
	case payloadGob:
		n := r.Len()
		if r.Err != nil {
			return nil, r.Err
		}
		var p gobPayload
		if err := gob.NewDecoder(bytes.NewReader(r.B[:n])).Decode(&p); err != nil {
			return nil, fmt.Errorf("orb: decode gob payload: %w", err)
		}
		r.B = r.B[n:]
		return p.V, nil
	default:
		wireRegMu.RLock()
		dec := wireDecoders[tag]
		wireRegMu.RUnlock()
		if dec == nil {
			return nil, fmt.Errorf("orb: unknown wire type ID %d", tag)
		}
		v := dec(r)
		if r.Err != nil {
			return nil, fmt.Errorf("orb: decode wire type %d: %w", tag, r.Err)
		}
		return v, nil
	}
}

// EncodePayloadBytes is AppendPayload into a fresh slice; the
// loopback-codec boundary and the differential fuzzers use it.
func EncodePayloadBytes(v any) ([]byte, error) {
	return AppendPayload(nil, v)
}

// DecodePayloadBytes decodes exactly one payload from b, rejecting
// trailing garbage.
func DecodePayloadBytes(b []byte) (any, error) {
	r := wire.GetReader(b)
	defer wire.PutReader(r)
	v, err := DecodePayload(r)
	if err != nil {
		return nil, err
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("orb: payload has %d trailing bytes", len(r.B))
	}
	return v, nil
}

// GobRoundTrip round-trips v through the gob fallback encoding. The
// differential fuzzer uses it as the reference semantics the binary
// codec must match.
func GobRoundTrip(v any) (any, error) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(gobPayload{V: v}); err != nil {
		return nil, err
	}
	var p gobPayload
	if err := gob.NewDecoder(&blob).Decode(&p); err != nil {
		return nil, err
	}
	return p.V, nil
}

// --- method tables ---

// The binary header carries methods as per-connection interned IDs: the
// first frame naming a method carries (ID, name); later frames carry
// the ID alone. Tables are built independently on each side of every
// connection, so no global registration order has to agree between
// runtimes of different versions.

// methodIntern is the sender side: name -> assigned ID.
type methodIntern struct {
	ids  map[string]uint64
	next uint64
}

// intern returns the method's connection-local ID, assigning the next
// one on first use. The caller must serialize intern calls with frame
// emission (the coalescer lock does this) so the introducing frame
// reaches the peer first.
func (m *methodIntern) intern(name string) (id uint64, first bool) {
	if m.ids == nil {
		m.ids = make(map[string]uint64, 16)
	}
	if id, ok := m.ids[name]; ok {
		return id, false
	}
	m.next++
	m.ids[name] = m.next
	return m.next, true
}

// methodTable is the receiver side: ID -> name.
type methodTable struct {
	names map[uint64]string
}

func (m *methodTable) lookup(id uint64) (string, bool) {
	s, ok := m.names[id]
	return s, ok
}

func (m *methodTable) define(id uint64, name string) {
	if m.names == nil {
		m.names = make(map[uint64]string, 16)
	}
	m.names[id] = name
}

// appendMethod appends the method field: uvarint id<<1|first, then the
// name when first.
func appendMethod(b []byte, mi *methodIntern, name string) []byte {
	id, first := mi.intern(name)
	code := id << 1
	if first {
		code |= 1
	}
	b = wire.AppendUvarint(b, code)
	if first {
		b = wire.AppendString(b, name)
	}
	return b
}

// decodeMethod consumes a method field against the connection's table.
func decodeMethod(r *wire.Reader, mt *methodTable) (string, error) {
	code := r.Uvarint()
	if r.Err != nil {
		return "", r.Err
	}
	id := code >> 1
	if code&1 == 1 {
		name := wire.Intern([]byte(r.Str()))
		if r.Err != nil {
			return "", r.Err
		}
		mt.define(id, name)
		return name, nil
	}
	name, ok := mt.lookup(id)
	if !ok {
		return "", fmt.Errorf("orb: frame references undefined method ID %d", id)
	}
	return name, nil
}

// --- binary frames ---

// appendRequestFrame appends one length-prefixed request frame: header
// (request ID, method, target LOID, trace/span IDs, deadline) + the
// pre-encoded payload bytes. The header is encoded under the caller's
// (coalescer) lock because method interning must be ordered with frame
// emission; the payload was encoded outside any lock.
func appendRequestFrame(b []byte, scratch *[]byte, mi *methodIntern, req *request, payload []byte) []byte {
	h := (*scratch)[:0]
	h = wire.AppendUvarint(h, req.ID)
	h = appendMethod(h, mi, req.Method)
	h = loid.LOID{Domain: req.Target.Domain, Class: req.Target.Class, Instance: req.Target.Instance}.AppendWire(h)
	h = wire.AppendUvarint(h, req.TraceID)
	h = wire.AppendUvarint(h, req.SpanID)
	h = wire.AppendVarint(h, req.Deadline)
	*scratch = h
	b = wire.AppendUvarint(b, uint64(len(h)+len(payload)))
	b = append(b, h...)
	return append(b, payload...)
}

// decodeRequestHeader consumes a request frame header (the length
// prefix already stripped); the payload is decoded separately so a bad
// payload can be answered without abandoning the stream.
func decodeRequestHeader(r *wire.Reader, mt *methodTable) (requestMeta, error) {
	var meta requestMeta
	meta.id = r.Uvarint()
	m, err := decodeMethod(r, mt)
	if err != nil {
		return meta, err
	}
	meta.method = m
	meta.target.DecodeWire(r)
	meta.traceID = r.Uvarint()
	meta.spanID = r.Uvarint()
	meta.deadline = r.Varint()
	return meta, r.Err
}

// appendResponseFrame appends one length-prefixed response frame:
// request ID, error kind, error message, payload bytes (pre-encoded).
func appendResponseFrame(b []byte, scratch *[]byte, id uint64, errKind int, errMsg string, payload []byte) []byte {
	h := (*scratch)[:0]
	h = wire.AppendUvarint(h, id)
	h = wire.AppendUvarint(h, uint64(errKind))
	h = wire.AppendString(h, errMsg)
	*scratch = h
	b = wire.AppendUvarint(b, uint64(len(h)+len(payload)))
	b = append(b, h...)
	return append(b, payload...)
}

// decodeResponseFrame consumes a response frame body through the
// caller's Reader (reused per connection for its warm symbol cache).
func decodeResponseFrame(r *wire.Reader, body []byte) (response, error) {
	r.Reset(body)
	var resp response
	resp.ID = r.Uvarint()
	resp.ErrKind = int(r.Uvarint())
	resp.ErrMsg = r.Str()
	if r.Err != nil {
		return resp, r.Err
	}
	res, err := DecodePayload(r)
	if err != nil {
		return resp, err
	}
	resp.Result = res
	return resp, nil
}
