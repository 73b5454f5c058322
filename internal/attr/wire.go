package attr

import (
	"fmt"

	"legion/internal/wire"
)

// maxWireDepth bounds list nesting on decode, mirroring the recursion
// limit the gob decoder enforces: a hostile frame must not be able to
// exhaust the stack with a deeply nested list.
const maxWireDepth = 32

// AppendWire appends the Value in the ORB's binary wire format: a kind
// byte followed by the kind's payload.
func (v Value) AppendWire(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindString:
		b = wire.AppendString(b, v.s)
	case KindInt:
		b = wire.AppendVarint(b, v.i)
	case KindFloat:
		b = wire.AppendFloat64(b, v.f)
	case KindBool:
		b = wire.AppendBool(b, v.b)
	case KindList:
		b = wire.AppendUvarint(b, uint64(len(v.l)))
		for i := range v.l {
			b = v.l[i].AppendWire(b)
		}
	}
	return b
}

// DecodeWire consumes a Value encoded by AppendWire. String payloads are
// interned — attribute values repeat across a fleet ("linux", "x86_64",
// zone names) almost as much as attribute names do.
func (v *Value) DecodeWire(r *wire.Reader) { v.decodeWire(r, 0, nil) }

// decodeWire decodes one Value; list elements are carved from s when it
// is non-nil and allocated per list otherwise.
func (v *Value) decodeWire(r *wire.Reader, depth int, s *Slab) {
	if r.Err != nil {
		*v = Value{}
		return
	}
	if depth > maxWireDepth {
		r.Err = fmt.Errorf("attr: wire decode: list nesting exceeds %d", maxWireDepth)
		*v = Value{}
		return
	}
	if len(r.B) < 1 {
		r.Err = wire.ErrTruncated
		*v = Value{}
		return
	}
	k := Kind(r.B[0])
	r.B = r.B[1:]
	*v = Value{kind: k}
	switch k {
	case KindInvalid:
	case KindString:
		v.s = r.Sym()
	case KindInt:
		v.i = r.Varint()
	case KindFloat:
		v.f = r.Float64()
	case KindBool:
		v.b = r.Bool()
	case KindList:
		n := r.Len()
		if r.Err != nil || n == 0 {
			return
		}
		if s != nil {
			v.l = s.values(n, len(r.B))
		} else {
			v.l = make([]Value, n)
		}
		for i := range v.l {
			v.l[i].decodeWire(r, depth+1, s)
		}
	default:
		r.Err = fmt.Errorf("attr: wire decode: invalid kind %d", int(k))
		*v = Value{}
	}
}

// AppendWirePairs appends a length-prefixed Pair slice.
func AppendWirePairs(b []byte, ps []Pair) []byte {
	b = wire.AppendUvarint(b, uint64(len(ps)))
	for i := range ps {
		b = wire.AppendString(b, ps[i].Name)
		b = ps[i].Value.AppendWire(b)
	}
	return b
}

// DecodeWirePairs consumes a Pair slice, reusing reuse's capacity. Pair
// names are interned.
func DecodeWirePairs(r *wire.Reader, reuse []Pair) []Pair {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return nil
	}
	var out []Pair
	if cap(reuse) >= n {
		out = reuse[:n]
	} else {
		out = make([]Pair, n)
	}
	for i := range out {
		out[i].Name = r.Sym()
		out[i].Value.DecodeWire(r)
	}
	return out
}

// Slab decodes the Pair lists of one multi-record message (a Collection
// QueryReply, a BatchUpdateArgs) into shared backing arrays: one Pair
// array and one Value array for the list elements, instead of one Pair
// slice per record and one slice per list. Every slice it hands out is
// a capacity-capped window (s[a:b:b]) of those arrays, so an append to
// one record's Attrs, or to one of its list values, reallocates rather
// than overwriting the next record. The windows share the arrays' life:
// the whole message is garbage only when no record is referenced.
//
// The zero Slab is ready to use; it belongs to one decode and is not
// safe for concurrent use.
type Slab struct {
	pairs []Pair
	vals  []Value
	// left is the number of records still to decode, the current one
	// included; it sizes the next backing array on the assumption that
	// the remaining records are shaped like the current one.
	left int
}

// DecodeWirePairs consumes a Pair slice like the package-level
// DecodeWirePairs, carving it and its list values from the slab. left
// counts the records still to decode, this one included.
func (s *Slab) DecodeWirePairs(r *wire.Reader, left int) []Pair {
	n := r.Len()
	if r.Err != nil || n == 0 {
		return nil
	}
	s.left = left
	// Every remaining pair takes at least two bytes (name length, kind).
	out := carve(&s.pairs, n, s.estimate(n, len(r.B)/2))
	for i := range out {
		out[i].Name = r.Sym()
		out[i].Value.decodeWire(r, 0, s)
	}
	return out
}

// values carves a window of n list elements; rest is the number of
// bytes left in the message, an upper bound on the values it can hold.
func (s *Slab) values(n, rest int) []Value {
	return carve(&s.vals, n, s.estimate(n, rest))
}

// estimate sizes a new backing array for a window of n: n per remaining
// record, but never more than bound (what the rest of the message can
// still encode) and never less than n.
func (s *Slab) estimate(n, bound int) int {
	est := n * max(s.left, 1)
	if est > bound {
		est = bound
	}
	return max(est, n)
}

// carve returns the next n elements of *slab as a capacity-capped
// window, starting a new backing array of size grow when the current
// one is full. Earlier windows keep the old array alive.
func carve[T any](slab *[]T, n, grow int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, grow)
	}
	a := len(*slab)
	*slab = (*slab)[:a+n]
	return (*slab)[a : a+n : a+n]
}
