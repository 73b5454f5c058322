// Package reservation implements Legion reservations (paper §3.1).
//
// "To support scheduling, Hosts grant reservations for future service.
// The exact form of the reservation depends upon the Host Object
// implementation, but they must be non-forgeable tokens; the Host Object
// must recognize these tokens when they are passed in with service
// requests. It is not necessary for any other object in the system to be
// able to decode the reservation token."
//
// Tokens here are HMAC-SHA256-signed by the issuing Host's secret key:
// any object can carry and present a token, only the issuing Host can
// mint or validate one, and tampering with any field invalidates the MAC.
// Our tokens encode both the Host and the Vault used for execution, as
// the paper's implementation does.
//
// Reservations have a start time, a duration, and an optional timeout
// period (how long the recipient has to confirm an instantaneous
// reservation), plus two type bits — share and reuse — yielding the four
// reservation classes of Table 2:
//
//	one-shot space sharing   (share=0, reuse=0)
//	reusable space sharing   (share=0, reuse=1)   "machine is mine"
//	one-shot timesharing     (share=1, reuse=0)   typical batch job
//	reusable timesharing     (share=1, reuse=1)
package reservation

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"time"

	"legion/internal/loid"
)

// Type is the two type bits of a Legion reservation (Table 2).
type Type struct {
	// Share: if false the reservation allocates the entire resource
	// (space sharing); if true the resource may be multiplexed among
	// concurrent reservations (timesharing).
	Share bool
	// Reuse: if true the token may be presented with multiple
	// StartObject calls; if false it is consumed by the first.
	Reuse bool
}

// The four reservation types of Table 2.
var (
	OneShotSpaceSharing  = Type{Share: false, Reuse: false}
	ReusableSpaceSharing = Type{Share: false, Reuse: true}
	OneShotTimesharing   = Type{Share: true, Reuse: false}
	ReusableTimesharing  = Type{Share: true, Reuse: true}
)

// String names the type as in Table 2.
func (t Type) String() string {
	switch t {
	case OneShotSpaceSharing:
		return "one-shot space sharing"
	case ReusableSpaceSharing:
		return "reusable space sharing"
	case OneShotTimesharing:
		return "one-shot timesharing"
	default:
		return "reusable timesharing"
	}
}

// Token is a non-forgeable reservation token.
type Token struct {
	// ID is unique per issuing host.
	ID uint64
	// Host is the issuing Host object; Vault is the storage partner the
	// reservation was validated against.
	Host  loid.LOID
	Vault loid.LOID
	// Type is the reservation's share/reuse classification.
	Type Type
	// Start and Duration delimit the reserved service interval.
	Start    time.Time
	Duration time.Duration
	// Timeout is how long the recipient has to confirm an instantaneous
	// reservation (zero = no confirmation deadline). Confirmation is
	// implicit when the token is presented with StartObject.
	Timeout time.Duration
	// MAC authenticates all the above fields under the issuing host's
	// secret key.
	MAC []byte
}

// End returns the end of the reserved interval.
func (t *Token) End() time.Time { return t.Start.Add(t.Duration) }

// Overlaps reports whether the token's interval intersects [start, end).
func (t *Token) Overlaps(start, end time.Time) bool {
	return t.Start.Before(end) && start.Before(t.End())
}

// Signer mints and validates tokens for one Host. The key never leaves
// the host; other objects treat tokens as opaque.
type Signer struct {
	key  []byte
	pool sync.Pool // of *macState keyed with key
}

// macState is one reusable HMAC computation: the keyed hash plus scratch
// space for the authenticated byte stream and the sum, so a MAC costs no
// allocation beyond the slice Sign stores.
type macState struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

// NewSigner creates a Signer with a fresh random 32-byte key.
func NewSigner() *Signer {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		panic("reservation: cannot read entropy: " + err.Error())
	}
	return &Signer{key: key}
}

// NewSignerWithKey creates a Signer with a caller-provided key, for tests
// that need determinism or key-compromise scenarios.
func NewSignerWithKey(key []byte) *Signer {
	k := append([]byte(nil), key...)
	return &Signer{key: k}
}

// state takes a pooled HMAC state, keying a fresh one when the pool is
// empty. Callers return it with s.pool.Put.
func (s *Signer) state() *macState {
	if st, ok := s.pool.Get().(*macState); ok {
		return st
	}
	return &macState{h: hmac.New(sha256.New, s.key)}
}

// mac computes the HMAC over every authenticated token field into st.sum.
// The byte stream is fixed: ID, host LOID string, NUL, vault LOID string,
// NUL, type bits, start (Unix ns), duration, timeout — integers as 8-byte
// big-endian.
func (s *Signer) mac(st *macState, t *Token) []byte {
	var bits uint64
	if t.Type.Share {
		bits |= 1
	}
	if t.Type.Reuse {
		bits |= 2
	}
	b := binary.BigEndian.AppendUint64(st.buf[:0], t.ID)
	b = append(t.Host.AppendTo(b), 0)
	b = append(t.Vault.AppendTo(b), 0)
	b = binary.BigEndian.AppendUint64(b, bits)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Start.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Duration))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Timeout))
	st.buf = b
	st.h.Reset()
	st.h.Write(b)
	return st.h.Sum(st.sum[:0])
}

// Sign sets the token's MAC.
func (s *Signer) Sign(t *Token) {
	st := s.state()
	t.MAC = append([]byte(nil), s.mac(st, t)...)
	s.pool.Put(st)
}

// Valid reports whether the token's MAC is genuine under this signer's
// key. Any field mutation or forgery attempt fails.
func (s *Signer) Valid(t *Token) bool {
	st := s.state()
	ok := hmac.Equal(t.MAC, s.mac(st, t))
	s.pool.Put(st)
	return ok
}
