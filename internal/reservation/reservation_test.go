package reservation

import (
	"encoding/hex"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"legion/internal/loid"
)

var (
	hostL  = loid.LOID{Domain: "uva", Class: "Host", Instance: 1}
	vaultL = loid.LOID{Domain: "uva", Class: "Vault", Instance: 1}
)

// fakeClock is a settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(1999, 4, 12, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestTable(maxShared int) (*Table, *fakeClock) {
	tb := NewTable(hostL, maxShared, time.Minute)
	clk := newFakeClock()
	tb.SetClock(clk.Now)
	return tb, clk
}

func TestTypeNames(t *testing.T) {
	names := map[Type]string{
		OneShotSpaceSharing:  "one-shot space sharing",
		ReusableSpaceSharing: "reusable space sharing",
		OneShotTimesharing:   "one-shot timesharing",
		ReusableTimesharing:  "reusable timesharing",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("%+v.String() = %q want %q", ty, got, want)
		}
	}
}

func TestTokenForgeryResistance(t *testing.T) {
	s := NewSigner()
	tok := Token{ID: 1, Host: hostL, Vault: vaultL, Type: ReusableSpaceSharing,
		Start: time.Now(), Duration: time.Hour, Timeout: time.Minute}
	s.Sign(&tok)
	if !s.Valid(&tok) {
		t.Fatal("fresh token invalid")
	}
	mutations := []func(*Token){
		func(t *Token) { t.ID++ },
		func(t *Token) { t.Host.Instance++ },
		func(t *Token) { t.Vault.Instance++ },
		func(t *Token) { t.Type.Share = !t.Type.Share },
		func(t *Token) { t.Type.Reuse = !t.Type.Reuse },
		func(t *Token) { t.Start = t.Start.Add(time.Nanosecond) },
		func(t *Token) { t.Duration++ },
		func(t *Token) { t.Timeout++ },
		func(t *Token) { t.MAC[0] ^= 1 },
	}
	for i, mut := range mutations {
		c := tok
		c.MAC = append([]byte(nil), tok.MAC...)
		mut(&c)
		if s.Valid(&c) {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Another host's signer never validates this host's tokens.
	if NewSigner().Valid(&tok) {
		t.Error("foreign signer validated token")
	}
}

func TestSignerDeterministicWithKey(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	a, b := NewSignerWithKey(key), NewSignerWithKey(key)
	tok := Token{ID: 7, Host: hostL, Vault: vaultL, Duration: time.Hour}
	a.Sign(&tok)
	if !b.Valid(&tok) {
		t.Error("same-key signers disagree")
	}
}

// TestForgeryProperty: random field perturbations never validate.
func TestForgeryProperty(t *testing.T) {
	s := NewSigner()
	f := func(id uint64, durNs int64, share, reuse bool, flipBit uint16) bool {
		tok := Token{ID: id, Host: hostL, Vault: vaultL,
			Type: Type{Share: share, Reuse: reuse}, Duration: time.Duration(durNs)}
		s.Sign(&tok)
		if !s.Valid(&tok) {
			return false
		}
		forged := tok
		forged.MAC = append([]byte(nil), tok.MAC...)
		forged.MAC[int(flipBit)%len(forged.MAC)] ^= 1 << (flipBit % 8)
		return !s.Valid(&forged)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeAndCheck(t *testing.T) {
	tb, _ := newTestTable(0)
	tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if tok.Host != hostL || tok.Vault != vaultL {
		t.Errorf("token identity: %+v", tok)
	}
	if err := tb.Check(tok); err != nil {
		t.Errorf("Check: %v", err)
	}
	if tb.Active() != 1 {
		t.Errorf("Active = %d", tb.Active())
	}
}

func TestBadRequests(t *testing.T) {
	tb, clk := newTestTable(0)
	if _, err := tb.Make(Request{Vault: vaultL, Duration: 0}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero duration: %v", err)
	}
	if _, err := tb.Make(Request{Vault: vaultL, Duration: -time.Hour}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative duration: %v", err)
	}
	past := clk.Now().Add(-2 * time.Hour)
	if _, err := tb.Make(Request{Vault: vaultL, Start: past, Duration: time.Hour}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("past interval: %v", err)
	}
}

// TestTable2Semantics exercises the four reservation classes (Table 2).
func TestTable2Semantics(t *testing.T) {
	t.Run("space sharing excludes everything", func(t *testing.T) {
		tb, _ := newTestTable(0)
		if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); err != nil {
			t.Fatal(err)
		}
		// Neither another space-sharing nor a timesharing reservation may overlap.
		if _, err := tb.Make(Request{Vault: vaultL, Type: OneShotSpaceSharing, Duration: time.Hour}); !errors.Is(err, ErrConflict) {
			t.Errorf("second space-sharing: %v", err)
		}
		if _, err := tb.Make(Request{Vault: vaultL, Type: OneShotTimesharing, Duration: time.Hour}); !errors.Is(err, ErrConflict) {
			t.Errorf("timesharing over space-sharing: %v", err)
		}
	})

	t.Run("timesharing multiplexes", func(t *testing.T) {
		tb, _ := newTestTable(0)
		for i := 0; i < 10; i++ {
			if _, err := tb.Make(Request{Vault: vaultL, Type: OneShotTimesharing, Duration: time.Hour}); err != nil {
				t.Fatalf("shared reservation %d: %v", i, err)
			}
		}
		// But space sharing cannot move in on top.
		if _, err := tb.Make(Request{Vault: vaultL, Type: OneShotSpaceSharing, Duration: time.Hour}); !errors.Is(err, ErrConflict) {
			t.Errorf("space sharing over timesharing: %v", err)
		}
	})

	t.Run("timesharing respects multiplex limit", func(t *testing.T) {
		tb, _ := newTestTable(3)
		for i := 0; i < 3; i++ {
			if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour}); err != nil {
				t.Fatalf("reservation %d: %v", i, err)
			}
		}
		if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour}); !errors.Is(err, ErrConflict) {
			t.Errorf("over limit: %v", err)
		}
	})

	t.Run("one-shot consumed by redeem", func(t *testing.T) {
		tb, _ := newTestTable(0)
		tok, err := tb.Make(Request{Vault: vaultL, Type: OneShotTimesharing, Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Redeem(tok); err != nil {
			t.Fatalf("first redeem: %v", err)
		}
		if err := tb.Redeem(tok); !errors.Is(err, ErrInvalidToken) {
			t.Errorf("second redeem of one-shot: %v", err)
		}
	})

	t.Run("reusable redeemable many times", func(t *testing.T) {
		tb, _ := newTestTable(0)
		tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := tb.Redeem(tok); err != nil {
				t.Fatalf("redeem %d: %v", i, err)
			}
		}
	})
}

func TestFutureReservationNotYetValid(t *testing.T) {
	tb, clk := newTestTable(0)
	start := clk.Now().Add(time.Hour)
	tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Start: start, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Redeem(tok); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("early redeem: %v", err)
	}
	clk.Advance(90 * time.Minute)
	if err := tb.Redeem(tok); err != nil {
		t.Errorf("redeem inside window: %v", err)
	}
	clk.Advance(time.Hour)
	if err := tb.Redeem(tok); !errors.Is(err, ErrExpired) {
		t.Errorf("redeem after end: %v", err)
	}
}

func TestConfirmationTimeout(t *testing.T) {
	tb, clk := newTestTable(0)
	// Instantaneous reservation with a 1-minute default confirmation
	// timeout (set in newTestTable).
	tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if err := tb.Redeem(tok); !errors.Is(err, ErrExpired) {
		t.Errorf("redeem after confirmation timeout: %v", err)
	}

	// A confirmed (redeemed-in-time) reservation survives past the
	// timeout: confirmation is implicit in StartObject (paper §3.1).
	tok2, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Redeem(tok2); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Minute)
	if err := tb.Redeem(tok2); err != nil {
		t.Errorf("confirmed token after timeout window: %v", err)
	}
}

func TestExplicitTimeoutOverridesDefault(t *testing.T) {
	tb, clk := newTestTable(0)
	tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing,
		Duration: time.Hour, Timeout: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	if err := tb.Check(tok); err != nil {
		t.Errorf("within explicit timeout: %v", err)
	}
	clk.Advance(6 * time.Minute)
	if err := tb.Check(tok); !errors.Is(err, ErrExpired) {
		t.Errorf("past explicit timeout: %v", err)
	}
}

func TestCancelFreesInterval(t *testing.T) {
	tb, _ := newTestTable(0)
	tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Cancel(tok); err != nil {
		t.Fatal(err)
	}
	if err := tb.Check(tok); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("cancelled token still checks: %v", err)
	}
	if err := tb.Cancel(tok); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("double cancel: %v", err)
	}
	// Interval is free again.
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); err != nil {
		t.Errorf("re-reserve after cancel: %v", err)
	}
}

func TestExpiredReservationFreesInterval(t *testing.T) {
	tb, clk := newTestTable(0)
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); !errors.Is(err, ErrConflict) {
		t.Fatal("expected conflict while active")
	}
	clk.Advance(2 * time.Hour)
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); err != nil {
		t.Errorf("reserve after expiry: %v", err)
	}
	if tb.Active() != 1 {
		t.Errorf("Active = %d, want 1 (expired entries collected)", tb.Active())
	}
}

func TestNonOverlappingIntervalsCoexist(t *testing.T) {
	tb, clk := newTestTable(0)
	t0 := clk.Now().Add(time.Hour)
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Start: t0, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// Adjacent (end == start) does not overlap.
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Start: t0.Add(time.Hour), Duration: time.Hour}); err != nil {
		t.Errorf("adjacent interval rejected: %v", err)
	}
	// Before it, also fine.
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Start: t0.Add(-30 * time.Minute), Duration: 30 * time.Minute}); err != nil {
		t.Errorf("preceding interval rejected: %v", err)
	}
	// Straddling its middle conflicts.
	if _, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Start: t0.Add(30 * time.Minute), Duration: time.Hour}); !errors.Is(err, ErrConflict) {
		t.Errorf("straddling interval: %v", err)
	}
}

func TestForeignTokenRejected(t *testing.T) {
	tb1, _ := newTestTable(0)
	tb2, _ := newTestTable(0)
	tok, err := tb1.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb2.Check(tok); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("foreign table accepted token: %v", err)
	}
	if err := tb2.Redeem(tok); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("foreign table redeemed token: %v", err)
	}
	if err := tb2.Cancel(tok); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("foreign table cancelled token: %v", err)
	}
	if err := tb1.Check(nil); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("nil token: %v", err)
	}
}

// TestTableInvariantProperty: under random interleavings of make/cancel/
// redeem, the table never admits a space-sharing reservation overlapping
// any other live reservation.
func TestTableInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tb, clk := newTestTable(4)
		var live []*Token
		for _, op := range ops {
			switch op % 4 {
			case 0: // make shared
				if tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableTimesharing, Duration: time.Hour}); err == nil {
					live = append(live, tok)
				}
			case 1: // make exclusive
				tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour})
				if err == nil {
					if len(live) != 0 {
						return false // invariant violation: exclusive admitted alongside others
					}
					live = append(live, tok)
				}
			case 2: // cancel one
				if len(live) > 0 {
					tb.Cancel(live[len(live)-1])
					live = live[:len(live)-1]
				}
			case 3: // redeem (confirm) one
				if len(live) > 0 {
					tb.Redeem(live[0])
				}
			}
			clk.Advance(time.Second)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMakeRespectsExclusivity(t *testing.T) {
	for round := 0; round < 20; round++ {
		tb, _ := newTestTable(0)
		var wg sync.WaitGroup
		granted := make(chan *Token, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tok, err := tb.Make(Request{Vault: vaultL, Type: ReusableSpaceSharing, Duration: time.Hour}); err == nil {
					granted <- tok
				}
			}()
		}
		wg.Wait()
		close(granted)
		n := 0
		for range granted {
			n++
		}
		if n != 1 {
			t.Fatalf("round %d: %d exclusive reservations granted, want 1", round, n)
		}
	}
}

func TestOverlapsHelper(t *testing.T) {
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	tok := Token{Start: base, Duration: time.Hour}
	cases := []struct {
		s, e time.Duration
		want bool
	}{
		{-time.Hour, 0, false}, // ends exactly at start
		{-time.Hour, time.Minute, true},
		{0, time.Hour, true},
		{30 * time.Minute, 2 * time.Hour, true},
		{time.Hour, 2 * time.Hour, false}, // begins exactly at end
	}
	for _, c := range cases {
		if got := tok.Overlaps(base.Add(c.s), base.Add(c.e)); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v want %v", c.s, c.e, got, c.want)
		}
	}
}

// TestSignerGoldenMAC pins the MAC byte stream: these values were computed
// by the original hmac.New + fmt-rendered-LOID implementation, so any
// change to how fields are serialized into the HMAC shows up here.
func TestSignerGoldenMAC(t *testing.T) {
	s := NewSignerWithKey([]byte("0123456789abcdef0123456789abcdef"))
	cases := []struct {
		tok  Token
		want string
	}{
		{Token{ID: 42, Host: loid.LOID{Domain: "uva", Class: "Host", Instance: 7},
			Vault: loid.LOID{Domain: "sdsc", Class: "Vault", Instance: 1 << 40},
			Type:  ReusableTimesharing, Start: time.Date(1999, 4, 12, 12, 0, 0, 123, time.UTC),
			Duration: time.Hour, Timeout: 30 * time.Second},
			"420c81a85e3865a35c7d91804586de0914bc5c06dee84a9c9e5d9cd150a08af7"},
		// Nil vault renders as "legion:nil"; zero Start is pre-epoch.
		{Token{ID: 1, Host: loid.LOID{Domain: "uva", Class: "Host", Instance: 1}, Type: OneShotSpaceSharing},
			"6552a3f3f7fdeacce94605738224c897a28b010acb571c0e8630bb45c2cd1127"},
	}
	for i, c := range cases {
		tok := c.tok
		// Sign twice so the second MAC comes from a reused HMAC state.
		for round := 0; round < 2; round++ {
			s.Sign(&tok)
			if got := hex.EncodeToString(tok.MAC); got != c.want {
				t.Errorf("case %d round %d: MAC %s, want %s", i, round, got, c.want)
			}
			if !s.Valid(&tok) {
				t.Errorf("case %d round %d: own token invalid", i, round)
			}
		}
	}
}

// TestSignerAllocBudget: Valid allocates nothing and Sign only the MAC
// slice it stores, so per-reservation signing stays off the GC.
func TestSignerAllocBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation allocate")
	}
	s := NewSignerWithKey([]byte("0123456789abcdef0123456789abcdef"))
	tok := Token{ID: 9, Host: hostL, Vault: vaultL, Type: OneShotTimesharing,
		Start: time.Unix(1000, 0), Duration: time.Minute}
	s.Sign(&tok)
	if n := testing.AllocsPerRun(200, func() { s.Sign(&tok) }); n > 1 {
		t.Errorf("Sign: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !s.Valid(&tok) {
			t.Fatal("token invalid")
		}
	}); n != 0 {
		t.Errorf("Valid: %v allocs/op, want 0", n)
	}
}
