package scheduler

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/classobj"
	"legion/internal/collection"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/vault"
)

// scanFleet is an in-process directory of n hosts: one real Host's
// attributes joined under n member LOIDs, each with two vaults, plus an
// unconstrained class — the shape of a full-directory IRS scan.
type scanFleet struct {
	class loid.LOID
	env   *Env
}

func newScanFleet(t testing.TB, n int) *scanFleet {
	t.Helper()
	rt := orb.NewRuntime("uva")
	coll := collection.New(rt, nil)
	v1 := vault.New(rt, vault.Config{Zone: "z1"})
	v2 := vault.New(rt, vault.Config{Zone: "z1"})
	h := host.New(rt, host.Config{Arch: "x86", OS: "Linux", CPUs: 4, MemoryMB: 1024,
		Zone: "z1", Vaults: []loid.LOID{v1.LOID(), v2.LOID()}})
	template := h.Attributes()
	for i := 0; i < n; i++ {
		if err := coll.Join(rt.Mint("Host"), template, ""); err != nil {
			t.Fatal(err)
		}
	}
	class := classobj.New(rt, classobj.Config{Name: "Worker"})
	return &scanFleet{class: class.LOID(),
		env: &Env{RT: rt, Collection: coll.LOID(), Rand: rand.New(rand.NewSource(1))}}
}

func (f *scanFleet) req() Request {
	return Request{Classes: []ClassRequest{{Class: f.class, Count: 4}}}
}

// allocs is testing.AllocsPerRun after one warm-up call.
func allocs(t *testing.T, fn func() error) float64 {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(20, func() {
		if e := fn(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScanPathAllocBudget: a directory scan allocates O(1) per query,
// not O(records). QueryHosts and an uncached IRS.Generate over 2000
// hosts may allocate only a small constant more than over 200 hosts, and
// a warm HostCache serves the shared usable view without allocating.
func TestScanPathAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const slack = 32
	ctx := context.Background()
	type costs struct{ query, irs, warm, warmIRSBytes float64 }
	measure := func(n int) costs {
		f := newScanFleet(t, n)
		var c costs
		c.query = allocs(t, func() error {
			hosts, err := QueryHosts(ctx, f.env, `defined($host_arch)`)
			if err == nil && len(hosts) != n {
				t.Fatalf("QueryHosts: %d hosts, want %d", len(hosts), n)
			}
			return err
		})
		c.irs = allocs(t, func() error {
			_, err := IRS{NSched: 4}.Generate(ctx, f.env, f.req())
			return err
		})
		f.env.Cache = NewHostCache(nil, time.Hour)
		c.warm = allocs(t, func() error {
			hosts, err := matchingUsableHosts(ctx, f.env, f.class)
			if err == nil && len(hosts) != n {
				t.Fatalf("matchingUsableHosts: %d hosts, want %d", len(hosts), n)
			}
			return err
		})
		c.warmIRSBytes = bytesPerRun(20, func() {
			if _, err := (IRS{NSched: 4}).Generate(ctx, f.env, f.req()); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	small, large := measure(200), measure(2000)
	t.Logf("allocs/op at 200 and 2000 hosts: %+v %+v", small, large)
	if d := large.query - small.query; d > slack {
		t.Errorf("QueryHosts: %v more allocs at 2000 hosts than at 200, budget %d", d, slack)
	}
	if d := large.irs - small.irs; d > slack {
		t.Errorf("IRS.Generate: %v more allocs at 2000 hosts than at 200, budget %d", d, slack)
	}
	// A cache hit costs only the class-implementations call, whatever
	// the fleet size: nothing per host.
	if large.warm != small.warm {
		t.Errorf("warm matchingUsableHosts: %v allocs at 2000 hosts, %v at 200; want equal",
			large.warm, small.warm)
	}

	// IRS on a warm cache indexes into the shared view instead of
	// copying the fleet, so its bytes do not grow with the fleet either
	// (copying 1800 more hosts would cost hundreds of KB).
	if d := large.warmIRSBytes - small.warmIRSBytes; d > 16<<10 {
		t.Errorf("warm IRS.Generate: %.0f more bytes/op at 2000 hosts than at 200, budget 16 KB", d)
	}

	c := NewHostCache(nil, time.Hour)
	c.put("q", newScanHosts(100), 0)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.getUsable("q"); !ok {
			t.Fatal("cache miss")
		}
	}); n != 0 {
		t.Errorf("warm getUsable: %v allocs/op, want 0", n)
	}
}

// bytesPerRun is the heap bytes one call of fn allocates, averaged over
// runs calls after a warm-up.
func bytesPerRun(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func newScanHosts(n int) []HostInfo {
	hosts := make([]HostInfo, n)
	for i := range hosts {
		hosts[i] = HostInfo{LOID: loid.LOID{Domain: "d", Class: "Host", Instance: uint64(i + 1)},
			Vaults: []loid.LOID{{Domain: "d", Class: "Vault", Instance: 1}}}
	}
	return hosts
}

// oracleParseHostInfo is the map-based parser parseHostInfo replaced,
// kept as the differential oracle.
func oracleParseHostInfo(rec proto.CollectionRecord) HostInfo {
	m := attr.FromPairs(rec.Attrs)
	h := HostInfo{LOID: rec.Member}
	if v, ok := m["host_arch"]; ok {
		h.Arch = v.Str()
	}
	if v, ok := m["host_os_name"]; ok {
		h.OS = v.Str()
	}
	if v, ok := m["host_load"]; ok {
		h.Load, _ = v.AsFloat()
	}
	if v, ok := m["host_cpus"]; ok {
		if f, fok := v.AsFloat(); fok {
			h.CPUs = int(f)
		}
	}
	if v, ok := m["host_zone"]; ok {
		h.Zone = v.Str()
	}
	if v, ok := m["host_cost_per_cpu"]; ok {
		h.Cost, _ = v.AsFloat()
	}
	if v, ok := m["host_price"]; ok {
		h.Price, _ = v.AsFloat()
	}
	if v, ok := m["host_class"]; ok {
		h.Spot = v.Str() == "spot"
	}
	if v, ok := m["host_speed"]; ok {
		h.Speed, _ = v.AsFloat()
	}
	if v, ok := m["host_is_batch"]; ok {
		h.Batch = v.BoolVal()
	}
	if v, ok := m["host_alive"]; ok {
		h.Down = !v.BoolVal()
	}
	if v, ok := m["host_load_history"]; ok && v.Kind() == attr.KindList {
		for i := 0; i < v.Len(); i++ {
			if f, fok := v.At(i).AsFloat(); fok {
				h.LoadHistory = append(h.LoadHistory, f)
			}
		}
	}
	if v, ok := m["host_vaults"]; ok && v.Kind() == attr.KindList {
		for i := 0; i < v.Len(); i++ {
			if l, err := loid.Parse(v.At(i).Str()); err == nil {
				h.Vaults = append(h.Vaults, l)
			}
		}
	}
	return h
}

// recordGen turns a byte stream into host records: any attribute name
// may repeat, any attribute may carry a value of the wrong kind, and
// vault strings mix valid, nil and malformed LOIDs.
type recordGen struct {
	b []byte
	i int
}

func (g *recordGen) next() byte {
	if g.i >= len(g.b) {
		return 0
	}
	g.i++
	return g.b[g.i-1]
}

var genNames = []string{
	"host_arch", "host_os_name", "host_load", "host_cpus", "host_zone",
	"host_cost_per_cpu", "host_price", "host_class", "host_speed",
	"host_is_batch", "host_alive", "host_load_history", "host_vaults",
	"host_other",
}

var genStrings = []string{
	"x86", "spot", "", "legion:uva/Vault/1", "legion:sdsc/Vault/22",
	"legion:nil", "legion:uva/Vault/x", "legion:a/b/1/2", "legion:/b/1",
}

func (g *recordGen) value(depth int) attr.Value {
	switch g.next() % 6 {
	case 0:
		return attr.String(genStrings[int(g.next())%len(genStrings)])
	case 1:
		return attr.Int(int64(int8(g.next())))
	case 2:
		return attr.Float(float64(g.next()) / 7)
	case 3:
		return attr.Bool(g.next()&1 == 1)
	case 4:
		if depth > 0 {
			elems := make([]attr.Value, g.next()%5)
			for i := range elems {
				elems[i] = g.value(depth - 1)
			}
			return attr.List(elems...)
		}
	}
	return attr.Value{}
}

func (g *recordGen) record() proto.CollectionRecord {
	rec := proto.CollectionRecord{Member: loid.LOID{Domain: "d", Class: "Host", Instance: uint64(g.next()) + 1}}
	for n := g.next() % 16; n > 0; n-- {
		rec.Attrs = append(rec.Attrs, attr.Pair{
			Name: genNames[int(g.next())%len(genNames)], Value: g.value(1)})
	}
	return rec
}

// checkParseDifferential parses records from data through one shared
// vault slab and holds each result to the oracle, nil and empty slices
// distinct; appending to one host's Vaults must not disturb the next's.
func checkParseDifferential(t *testing.T, data []byte) {
	t.Helper()
	g := &recordGen{b: data}
	var recs []proto.CollectionRecord
	for g.i < len(g.b) {
		recs = append(recs, g.record())
	}
	var slab []loid.LOID
	hosts := make([]HostInfo, len(recs))
	for i, rec := range recs {
		hosts[i], slab = parseHostInfo(rec, slab)
	}
	for i, rec := range recs {
		if want := oracleParseHostInfo(rec); !reflect.DeepEqual(hosts[i], want) {
			t.Fatalf("record %+v:\n got  %+v\n want %+v", rec, hosts[i], want)
		}
	}
	for i := 0; i+1 < len(hosts); i++ {
		next := append([]loid.LOID(nil), hosts[i+1].Vaults...)
		hosts[i].Vaults = append(hosts[i].Vaults, loid.LOID{Domain: "x", Class: "Vault", Instance: 99})
		if !reflect.DeepEqual(hosts[i+1].Vaults, next) {
			t.Fatalf("append to host %d's Vaults changed host %d's: %v, want %v",
				i, i+1, hosts[i+1].Vaults, next)
		}
	}
}

func TestParseHostInfoMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		data := make([]byte, r.Intn(400))
		r.Read(data)
		checkParseDifferential(t, data)
	}
	// Hand-picked shapes: last duplicate wins, including a non-list or
	// unparseable final host_vaults / host_load_history wiping earlier ones.
	vaults := attr.Strings("legion:uva/Vault/1", "legion:uva/Vault/2")
	for _, attrs := range [][]attr.Pair{
		nil,
		{{Name: "host_vaults", Value: vaults}, {Name: "host_vaults", Value: attr.String("legion:uva/Vault/1")}},
		{{Name: "host_vaults", Value: vaults}, {Name: "host_vaults", Value: attr.Strings("bad")}},
		{{Name: "host_vaults", Value: attr.Strings()}},
		{{Name: "host_load_history", Value: attr.List(attr.Float(0.5))}, {Name: "host_load_history", Value: attr.Float(1)}},
		{{Name: "host_cpus", Value: attr.Int(8)}, {Name: "host_cpus", Value: attr.String("eight")}},
		{{Name: "host_alive", Value: attr.Bool(false)}, {Name: "host_alive", Value: attr.Bool(true)}},
	} {
		rec := proto.CollectionRecord{Member: loid.LOID{Domain: "d", Class: "Host", Instance: 1}, Attrs: attrs}
		got, _ := parseHostInfo(rec, nil)
		if want := oracleParseHostInfo(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("attrs %v:\n got  %+v\n want %+v", attrs, got, want)
		}
	}
}

func FuzzParseHostInfo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 12, 4, 2, 0, 3, 12, 0, 4, 12, 4, 3, 0, 4, 0, 7})
	f.Add([]byte{9, 15, 11, 4, 3, 2, 9, 2, 8, 11, 2, 1, 12, 0, 6, 3, 1})
	f.Fuzz(checkParseDifferential)
}

// TestQueryHostsVaultsDoNotAlias: hosts parsed from one reply share a
// vault slab, but each host's Vaults is capacity-capped, so an append by
// a consumer reallocates instead of overwriting a neighbour.
func TestQueryHostsVaultsDoNotAlias(t *testing.T) {
	f := newScanFleet(t, 3)
	hosts, err := QueryHosts(context.Background(), f.env, `defined($host_arch)`)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]loid.LOID(nil), hosts[1].Vaults...)
	hosts[0].Vaults = append(hosts[0].Vaults, loid.LOID{Domain: "x", Class: "Vault", Instance: 9})
	if !reflect.DeepEqual(hosts[1].Vaults, want) || len(want) != 2 {
		t.Errorf("hosts[1].Vaults = %v after append to hosts[0], want %v", hosts[1].Vaults, want)
	}
}

// TestIRSReadsSharedViewReadOnly: IRS over a warm HostCache leaves the
// cached entry exactly as it found it, and sees the same hosts in the
// same order as the copying matchingHosts + usable path, with or without
// a cache — so seeded IRS mappings do not depend on which path ran.
func TestIRSReadsSharedViewReadOnly(t *testing.T) {
	ctx := context.Background()
	f := newScanFleet(t, 50)
	want, err := matchingHosts(ctx, f.env, f.class)
	if err != nil {
		t.Fatal(err)
	}
	want = usable(want)
	uncached, err := matchingUsableHosts(ctx, f.env, f.class)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, want) {
		t.Fatal("uncached usable view differs from usable(matchingHosts)")
	}

	f.env.Cache = NewHostCache(nil, time.Hour)
	cached, err := matchingUsableHosts(ctx, f.env, f.class) // miss: fills
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Fatal("cache-fill usable view differs from usable(matchingHosts)")
	}
	query := implQuery(nil)
	entry := func() hostCacheEntry {
		f.env.Cache.mu.Lock()
		defer f.env.Cache.mu.Unlock()
		return f.env.Cache.entries[query]
	}
	before := entry()
	hostsBefore, usableBefore := cloneHosts(before.hosts), cloneHosts(before.usable)
	seeded := func(env *Env) any {
		env.Rand = rand.New(rand.NewSource(11))
		rl, err := IRS{NSched: 4}.Generate(ctx, env, f.req())
		if err != nil {
			t.Fatal(err)
		}
		return rl
	}
	withCache := seeded(f.env)
	after := entry()
	if &after.usable[0] != &before.usable[0] || !reflect.DeepEqual(after.hosts, hostsBefore) ||
		!reflect.DeepEqual(after.usable, usableBefore) {
		t.Error("IRS modified the cached entry")
	}
	noCache := *f.env
	noCache.Cache = nil
	if !reflect.DeepEqual(seeded(&noCache), withCache) {
		t.Error("seeded IRS mappings differ between cached and uncached paths")
	}
}

func cloneHosts(hosts []HostInfo) []HostInfo {
	out := make([]HostInfo, len(hosts))
	for i, h := range hosts {
		h.Vaults = append([]loid.LOID(nil), h.Vaults...)
		h.LoadHistory = append([]float64(nil), h.LoadHistory...)
		out[i] = h
	}
	return out
}
