package loid

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestStringParseRoundTrip(t *testing.T) {
	cases := []LOID{
		{Domain: "uva", Class: "Host", Instance: 1},
		{Domain: "sdsc", Class: "Vault", Instance: 42},
		{Domain: "a.b.c", Class: "BasicClass", Instance: 1 << 60},
	}
	for _, want := range cases {
		got, err := Parse(want.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip: got %v want %v", got, want)
		}
	}
}

func TestParseNil(t *testing.T) {
	got, err := Parse("legion:nil")
	if err != nil || !got.IsNil() {
		t.Errorf("Parse(legion:nil) = %v, %v; want nil LOID", got, err)
	}
	if Nil.String() != "legion:nil" {
		t.Errorf("Nil.String() = %q", Nil.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"host/1",
		"legion:",
		"legion:uva/Host",
		"legion:uva/Host/1/2",
		"legion:/Host/1",
		"legion:uva//1",
		"legion:uva/Host/notanumber",
		"legion:uva/Host/-1",
		"legion:a/b/1/2",
		"legion:a/b/",
		"legion:/b/1",
		"legion:a//1",
		"legion:a/b/1/",
		"legion:a/b/1/x",
		"legion:a",
		"legion:/",
		"legion://",
		"legion:nil/",
		"legion:a/b/18446744073709551616",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error, got nil", s)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(dom, class string, inst uint64) bool {
		// Constrain to the character set LOIDs are minted with.
		if dom == "" || class == "" || inst == 0 {
			return true
		}
		for _, r := range dom + class {
			if r == '/' || r == '\n' || r < ' ' {
				return true
			}
		}
		l := LOID{Domain: dom, Class: class, Instance: inst}
		got, err := Parse(l.String())
		return err == nil && got == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	ls := []LOID{
		{Domain: "a", Class: "A", Instance: 1},
		{Domain: "a", Class: "A", Instance: 2},
		{Domain: "a", Class: "B", Instance: 1},
		{Domain: "b", Class: "A", Instance: 1},
	}
	for i := range ls {
		if ls[i].Less(ls[i]) {
			t.Errorf("%v.Less(self) = true", ls[i])
		}
		for j := range ls {
			if i == j {
				continue
			}
			if ls[i].Less(ls[j]) == ls[j].Less(ls[i]) {
				t.Errorf("Less not antisymmetric for %v, %v", ls[i], ls[j])
			}
		}
	}
	for i := 0; i < len(ls)-1; i++ {
		if !ls[i].Less(ls[i+1]) {
			t.Errorf("want %v < %v", ls[i], ls[i+1])
		}
	}
}

func TestMinterUnique(t *testing.T) {
	m := NewMinter("uva")
	if m.Domain() != "uva" {
		t.Fatalf("Domain() = %q", m.Domain())
	}
	const n = 1000
	var mu sync.Mutex
	seen := make(map[LOID]bool, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				l := m.Mint("Host")
				mu.Lock()
				if seen[l] {
					t.Errorf("duplicate LOID %v", l)
				}
				seen[l] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("minted %d unique, want %d", len(seen), n)
	}
	for l := range seen {
		if l.IsNil() || l.Instance == 0 {
			t.Errorf("minted invalid LOID %v", l)
		}
	}
}

func TestMinterPanics(t *testing.T) {
	assertPanics(t, func() { NewMinter("") })
	assertPanics(t, func() { NewMinter("d").Mint("") })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	f()
}

func TestShortAndMustParse(t *testing.T) {
	l := LOID{Domain: "uva", Class: "Host", Instance: 7}
	if l.Short() != "Host/7" {
		t.Errorf("Short = %q", l.Short())
	}
	if Nil.Short() != "nil" {
		t.Errorf("Nil.Short = %q", Nil.Short())
	}
	if MustParse(l.String()) != l {
		t.Error("MustParse round trip")
	}
	assertPanics(t, func() { MustParse("garbage") })
}

// splitParse is the strings.Split-based Parse the allocation-free one
// replaced, kept as the oracle FuzzParse holds it to.
func splitParse(s string) (LOID, error) {
	const prefix = "legion:"
	if !strings.HasPrefix(s, prefix) {
		return Nil, fmt.Errorf("loid: %q lacks %q prefix", s, prefix)
	}
	rest := s[len(prefix):]
	if rest == "nil" {
		return Nil, nil
	}
	parts := strings.Split(rest, "/")
	if len(parts) != 3 {
		return Nil, fmt.Errorf("loid: %q: want domain/class/instance", s)
	}
	if parts[0] == "" || parts[1] == "" {
		return Nil, fmt.Errorf("loid: %q: empty domain or class", s)
	}
	n, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return Nil, fmt.Errorf("loid: %q: bad instance: %v", s, err)
	}
	l := LOID{Domain: parts[0], Class: parts[1], Instance: n}
	if l.IsNil() {
		return Nil, fmt.Errorf("loid: %q parses to the nil LOID", s)
	}
	return l, nil
}

func checkParseOracle(t *testing.T, s string) {
	t.Helper()
	got, err := Parse(s)
	want, werr := splitParse(s)
	if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Parse(%q) = %v, %v; oracle %v, %v", s, got, err, want, werr)
	}
	if err == nil {
		again, err := Parse(got.String())
		if err != nil || again != got {
			t.Fatalf("Parse(%q.String()) = %v, %v; want %v", s, again, err, got)
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"legion:nil", "legion:uva/Host/1", "legion:a/b/1/2", "legion:a/b/",
		"legion:/b/1", "legion:a//1", "legion:a/b/1/", "legion:", "",
		"legion:a/b/18446744073709551615", "legion:a/b/18446744073709551616",
		"legion:a/b/+1", "legion:a/b/0", "legion:a/b/007", "x",
	} {
		f.Add(s)
	}
	f.Fuzz(checkParseOracle)
}

func TestStringMatchesSprintf(t *testing.T) {
	for _, l := range []LOID{
		{Domain: "uva", Class: "Host", Instance: 1},
		{Domain: "a.b", Class: "Vault", Instance: 1<<64 - 1},
		{Domain: "x", Class: "", Instance: 0},
	} {
		if got, want := l.String(), fmt.Sprintf("legion:%s/%s/%d", l.Domain, l.Class, l.Instance); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestParseAllocFree(t *testing.T) {
	s := LOID{Domain: "uva", Class: "Vault", Instance: 12345}.String()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Parse(s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Parse(%q): %v allocs/op, want 0", s, n)
	}
}
