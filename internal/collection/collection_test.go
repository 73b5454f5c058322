package collection

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/telemetry"
)

func member(i uint64) loid.LOID {
	return loid.LOID{Domain: "uva", Class: "Host", Instance: i}
}

func hostAttrs(os string, ver string, load float64) []attr.Pair {
	return []attr.Pair{
		{Name: "host_os_name", Value: attr.String(os)},
		{Name: "host_os_version", Value: attr.String(ver)},
		{Name: "host_load", Value: attr.Float(load)},
	}
}

func TestJoinQueryLeave(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	if err := c.Join(member(1), hostAttrs("IRIX", "5.3", 0.2), ""); err != nil {
		t.Fatal(err)
	}
	c.Join(member(2), hostAttrs("IRIX", "6.5", 0.9), "")
	c.Join(member(3), hostAttrs("Linux", "2.2", 0.1), "")
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}

	// The paper's IRIX 5.x query.
	recs, err := c.Query(`match("IRIX", $host_os_name) and match("5\..*", $host_os_version)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Member != member(1) {
		t.Fatalf("query result: %+v", recs)
	}

	if err := c.Leave(member(1), ""); err != nil {
		t.Fatal(err)
	}
	recs, _ = c.Query(`match("IRIX", $host_os_name)`)
	if len(recs) != 1 || recs[0].Member != member(2) {
		t.Fatalf("after leave: %+v", recs)
	}
	if err := c.Leave(member(1), ""); !errors.Is(err, ErrNotMember) {
		t.Errorf("double leave: %v", err)
	}
}

func TestJoinMergesAndNilMember(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.Join(member(1), hostAttrs("IRIX", "5.3", 0.2), "")
	// Re-join merges new attributes without dropping old ones.
	c.Join(member(1), []attr.Pair{{Name: "host_arch", Value: attr.String("mips")}}, "")
	recs, _ := c.Query(`$host_arch == "mips" and match("IRIX", $host_os_name)`)
	if len(recs) != 1 {
		t.Errorf("merged record should match: %+v", recs)
	}
	if err := c.Join(loid.Nil, nil, ""); err == nil {
		t.Error("nil member joined")
	}
}

func TestUpdate(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.Join(member(1), hostAttrs("IRIX", "5.3", 0.9), "")
	if err := c.Update(member(1), []attr.Pair{{Name: "host_load", Value: attr.Float(0.1)}}, ""); err != nil {
		t.Fatal(err)
	}
	recs, _ := c.Query(`$host_load < 0.5`)
	if len(recs) != 1 {
		t.Fatalf("after update: %+v", recs)
	}
	if err := c.Update(member(9), nil, ""); !errors.Is(err, ErrNotMember) {
		t.Errorf("update non-member: %v", err)
	}
	_, updates := c.Stats()
	if updates != 1 {
		t.Errorf("updates = %d", updates)
	}
}

func TestAuthorization(t *testing.T) {
	auth := func(op Op, member loid.LOID, credential string) error {
		if credential != "s3cret" {
			return fmt.Errorf("bad credential for %v on %v", op, member)
		}
		return nil
	}
	c := New(orb.NewRuntime("uva"), auth)
	if err := c.Join(member(1), nil, "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("join with bad cred: %v", err)
	}
	if err := c.Join(member(1), nil, "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(member(1), nil, "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("update with bad cred: %v", err)
	}
	if err := c.Leave(member(1), "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("leave with bad cred: %v", err)
	}
	if err := c.Leave(member(1), "s3cret"); err != nil {
		t.Fatal(err)
	}
	// Queries are never authenticated (read path).
	if _, err := c.Query("true"); err != nil {
		t.Errorf("query: %v", err)
	}
}

func TestQueryErrors(t *testing.T) {
	rt := orb.NewRuntime("uva")
	reg := telemetry.NewRegistry()
	rt.SetMetrics(reg)
	c := New(rt, nil)
	c.Join(member(1), hostAttrs("IRIX", "5.3", 0.2), "")
	c.Join(member(2), hostAttrs("Linux", "2.2", 0.1), "")
	// Make member 2's host_load a string so numeric comparisons on it
	// error during evaluation.
	c.Update(member(2), []attr.Pair{{Name: "host_load", Value: attr.String("busted")}}, "")
	if _, err := c.Query("((("); err == nil {
		t.Error("bad syntax accepted")
	}
	// A type error on one record skips that record — counted — and
	// returns the rest, rather than hiding every resource behind one bad
	// value.
	recs, err := c.Query(`$host_load < 5`)
	if err != nil {
		t.Fatalf("query with one bad record: %v", err)
	}
	if len(recs) != 1 || recs[0].Member != member(1) {
		t.Errorf("bad record not skipped: %+v", recs)
	}
	if got := reg.CounterValue("legion_collection_query_eval_skips"); got != 1 {
		t.Errorf("eval skips = %d, want 1", got)
	}
	// Missing attributes are not errors: record simply does not match.
	recs, err = c.Query(`$no_such_attr == 1`)
	if err != nil || len(recs) != 0 {
		t.Errorf("missing attr: %v %v", recs, err)
	}
	if got := reg.CounterValue("legion_collection_query_eval_skips"); got != 1 {
		t.Errorf("eval skips after missing-attr query = %d, want 1", got)
	}
}

// TestQueryDoesNotHoldLockDuringEval is the regression test for the
// pre-COW behaviour where Query held the Collection RLock across
// evaluation and injected functions, so one slow NWS-style func stalled
// every Join/Update until the whole scan finished.
func TestQueryDoesNotHoldLockDuringEval(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	for i := uint64(1); i <= 4; i++ {
		c.Join(member(i), hostAttrs("Linux", "2.2", 0.5), "")
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.InjectFunc("slow_forecast", func(query.Record, []attr.Value) (attr.Value, error) {
		once.Do(func() { close(entered) })
		<-release
		return attr.Float(0.1), nil
	})

	queryDone := make(chan error, 1)
	go func() {
		_, err := c.Query(`slow_forecast() < 0.5`)
		queryDone <- err
	}()
	<-entered // the query is now mid-evaluation

	// Join and Update must complete while the query is still blocked
	// inside the injected function.
	writeDone := make(chan struct{})
	go func() {
		c.Join(member(99), hostAttrs("IRIX", "5.3", 0.2), "")
		c.Update(member(1), []attr.Pair{{Name: "host_load", Value: attr.Float(0.9)}}, "")
		close(writeDone)
	}()
	select {
	case <-writeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Join/Update blocked behind an in-flight query evaluation")
	}

	close(release)
	if err := <-queryDone; err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestQuerySnapshotIsolation: a query captures a consistent snapshot; a
// concurrent Update neither corrupts its results nor leaks into the
// already-captured records.
func TestQuerySnapshotIsolation(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.Join(member(1), hostAttrs("IRIX", "5.3", 0.2), "")
	recs, err := c.Query(`$host_load < 0.5`)
	if err != nil || len(recs) != 1 {
		t.Fatalf("query: %v %v", recs, err)
	}
	// Mutating the member after the query must not change the returned
	// snapshot (results share the record's immutable pairs).
	c.Update(member(1), []attr.Pair{{Name: "host_load", Value: attr.Float(0.99)}}, "")
	for _, p := range recs[0].Attrs {
		if p.Name == "host_load" {
			if f, _ := p.Value.AsFloat(); f != 0.2 {
				t.Errorf("snapshot mutated: host_load = %v", p.Value)
			}
		}
	}
}

func TestQueryDeterministicOrder(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	for i := uint64(1); i <= 10; i++ {
		c.Join(member(i), hostAttrs("Linux", "2.2", 0.1), "")
	}
	recs, _ := c.Query("true")
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].Member.Less(recs[i].Member) {
			t.Fatalf("results not sorted: %v before %v", recs[i-1].Member, recs[i].Member)
		}
	}
}

func TestFunctionInjection(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	c.Join(member(1), []attr.Pair{
		{Name: "host_load_history", Value: attr.List(attr.Float(0.9), attr.Float(0.8), attr.Float(0.7))},
	}, "")
	c.Join(member(2), []attr.Pair{
		{Name: "host_load_history", Value: attr.List(attr.Float(0.1), attr.Float(0.2), attr.Float(0.3))},
	}, "")
	// Inject a trend-aware forecaster (NWS-style): mean of history.
	c.InjectFunc("forecast_load", func(rec query.Record, _ []attr.Value) (attr.Value, error) {
		h, ok := rec.Lookup("host_load_history")
		if !ok || h.Len() == 0 {
			return attr.Value{}, errors.New("no history")
		}
		var sum float64
		for i := 0; i < h.Len(); i++ {
			f, _ := h.At(i).AsFloat()
			sum += f
		}
		return attr.Float(sum / float64(h.Len())), nil
	})
	recs, err := c.Query(`forecast_load() < 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Member != member(2) {
		t.Errorf("forecast query: %+v", recs)
	}
}

func TestPrune(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	now := base
	var mu sync.Mutex
	c.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	c.Join(member(1), nil, "")
	mu.Lock()
	now = base.Add(time.Hour)
	mu.Unlock()
	c.Join(member(2), nil, "")
	if n := c.Prune(base.Add(30 * time.Minute)); n != 1 {
		t.Errorf("Prune = %d", n)
	}
	if c.Size() != 1 {
		t.Errorf("Size after prune = %d", c.Size())
	}
}

func TestOrbProtocol(t *testing.T) {
	rt := orb.NewRuntime("uva")
	c := New(rt, nil)
	ctx := context.Background()

	if _, err := rt.Call(ctx, c.LOID(), proto.MethodJoinCollection, proto.JoinArgs{
		Joiner: member(1), Attrs: hostAttrs("IRIX", "5.3", 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, c.LOID(), proto.MethodUpdateCollectionEntry, proto.UpdateArgs{
		Member: member(1), Attrs: []attr.Pair{{Name: "host_load", Value: attr.Float(0.7)}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Call(ctx, c.LOID(), proto.MethodQueryCollection, proto.QueryArgs{
		Query: `$host_load > 0.5`,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.(proto.QueryReply).Records
	if len(recs) != 1 || recs[0].Member != member(1) {
		t.Fatalf("query over orb: %+v", recs)
	}
	if _, err := rt.Call(ctx, c.LOID(), proto.MethodLeaveCollection, proto.LeaveArgs{
		Leaver: member(1),
	}); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 0 {
		t.Errorf("Size = %d", c.Size())
	}
	// Bad arg types.
	for _, m := range []string{proto.MethodJoinCollection, proto.MethodLeaveCollection,
		proto.MethodUpdateCollectionEntry, proto.MethodQueryCollection} {
		if _, err := rt.Call(ctx, c.LOID(), m, 42); err == nil {
			t.Errorf("%s accepted bad arg", m)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(orb.NewRuntime("uva"), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := member(uint64(g + 1))
			c.Join(m, hostAttrs("Linux", "2.2", 0.5), "")
			for i := 0; i < 100; i++ {
				c.Update(m, []attr.Pair{{Name: "host_load", Value: attr.Float(float64(i) / 100)}}, "")
				if _, err := c.Query(`$host_load >= 0`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	q, u := c.Stats()
	if q != 800 || u != 800 {
		t.Errorf("stats = %d queries %d updates", q, u)
	}
}

// TestQueryAllocsIndependentOfSize: a query allocates O(1) per call, not
// per record — one Env serves the whole scan and results share each
// record's pairs — so 2000 records cost at most a small constant more
// allocations than 200 (the result slice's growth steps).
func TestQueryAllocsIndependentOfSize(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const slack = 32
	measure := func(n int, src string) float64 {
		c := New(orb.NewRuntime("uva"), nil)
		for i := 1; i <= n; i++ {
			c.Join(member(uint64(i)), hostAttrs("Linux", "2.2", float64(i%10)/10), "")
		}
		var err error
		got := testing.AllocsPerRun(20, func() {
			var recs []Record
			if recs, err = c.Query(src); err == nil && len(recs) != n {
				err = fmt.Errorf("%d records, want %d", len(recs), n)
			}
		})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return got
	}
	for _, src := range []string{
		`defined($host_os_name)`,
		`$host_load >= 0 and $host_os_version == "2.2"`,
	} {
		small, large := measure(200, src), measure(2000, src)
		if large-small > slack {
			t.Errorf("%q: %v allocs at 2000 records, %v at 200; budget +%d", src, large, small, slack)
		}
	}
}
