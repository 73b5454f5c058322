// Package scheduler implements Legion Schedulers (paper §3.3, §4).
//
// "The Scheduler computes the mapping of objects to resources. At a
// minimum, the Scheduler knows how many instances of each class must be
// started. ... The Scheduler obtains resource description information by
// querying the Collection, and then computes a mapping of object
// instances to resources. This mapping is passed on to the Enactor for
// implementation."
//
// The paper is explicit that Legion provides enabling technology, not
// scheduling research: "Legion provides simple, generic default
// Schedulers that offer the classic '90%' solution". This package
// provides:
//
//   - Random — the Figure 7 random placement generator;
//   - IRS — Improved Random Scheduling (Figures 8 and 9), which computes
//     n mappings per object instance with fewer Collection lookups and
//     emits master + variant schedules;
//   - RoundRobin — a simple deterministic spreader;
//   - LoadAware — least-loaded placement using $host_load;
//   - Stencil — a specialized policy for 2-D nearest-neighbour grids
//     (§4.3's MPI ocean-simulation scenario), minimizing cross-host
//     communication edges;
//
// plus the Wrapper retry protocol of Figure 9 that drives any generator
// through the Enactor.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/resilient"
	"legion/internal/sched"
)

// Errors returned by schedulers.
var (
	// ErrNoResources reports that the Collection offered no viable hosts.
	ErrNoResources = errors.New("scheduler: no matching resources in Collection")
	// ErrExhausted reports that the Wrapper ran out of retry budget.
	ErrExhausted = errors.New("scheduler: try limits exhausted")
)

// ClassRequest asks for Count instances of Class.
type ClassRequest struct {
	Class loid.LOID
	Count int
}

// Request is a placement problem: how many instances of which classes,
// under what reservation terms.
type Request struct {
	Classes []ClassRequest
	Res     sched.ReservationSpec
}

// TotalInstances returns the number of mappings a schedule for the
// request will contain.
func (r Request) TotalInstances() int {
	n := 0
	for _, c := range r.Classes {
		n += c.Count
	}
	return n
}

// Generator computes schedules: the Scheduler role of Figure 3, step 4.
// Generators are driven by the Wrapper (or called directly) and must be
// safe for concurrent use.
type Generator interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Generate computes a RequestList (without an ID; the Wrapper
	// assigns one per negotiation attempt).
	Generate(ctx context.Context, env *Env, req Request) (sched.RequestList, error)
}

// Env gives schedulers access to the infrastructure: the runtime for
// method calls, and the Collection to query. This mirrors layering (d) of
// Figure 2 — the Scheduler is its own module talking to RM services.
type Env struct {
	RT         *orb.Runtime
	Collection loid.LOID
	// Rand drives randomized policies; a nil Rand panics in those
	// policies (determinism must be an explicit choice).
	Rand *rand.Rand
	// QueryTimeout bounds Collection and class queries; zero means 30s.
	QueryTimeout time.Duration
	// Retry shapes transport-fault retries for scheduler-side calls
	// (Collection queries, class queries, Enactor negotiation); the zero
	// value uses resilient defaults.
	Retry resilient.Policy
	// Breakers, when non-nil, pools per-endpoint circuit state — core
	// shares one set across the Wrapper, queries, and episodes so a dead
	// Collection or Enactor fails fast. Nil disables breakers.
	Breakers *resilient.BreakerSet
	// Cache, when non-nil, memoizes Collection query results (see
	// HostCache). Scale drivers set it; interactive paths usually leave
	// it nil and pay the full query for freshness.
	Cache *HostCache
}

func (e *Env) timeout() time.Duration {
	if e.QueryTimeout > 0 {
		return e.QueryTimeout
	}
	return 30 * time.Second
}

// call makes one scheduler-side metasystem call through the Env's retry
// policy and shared breakers.
func (e *Env) call(ctx context.Context, target loid.LOID, method string, arg any) (any, error) {
	return resilient.NewCallerWith(e.RT, e.Retry, e.Breakers).Call(ctx, target, method, arg)
}

// HostInfo is a scheduler's parsed view of one Collection host record.
type HostInfo struct {
	LOID loid.LOID
	Arch string
	OS   string
	Load float64
	CPUs int
	Zone string
	Cost float64
	// Price is the economy layer's advertised charge per instance-hour
	// ($host_price); Spot marks preemptible spot capacity ($host_class
	// == "spot"). The DeadlineBudget generator trades Price against
	// estimated completion time.
	Price float64
	Spot  bool
	// Speed is the host's relative benchmark speed ($host_speed,
	// 1.0 = baseline); deadline-aware schedulers scale completion
	// estimates by it.
	Speed  float64
	Batch  bool
	Vaults []loid.LOID
	// Down is true when the record is flagged unreachable
	// (host_alive == false, set by the Collection daemon's failure
	// detector); schedulers skip such hosts.
	Down bool
	// LoadHistory is the rolling window of recent host_load samples the
	// Collection daemon publishes as $host_load_history (oldest first);
	// empty when the record carries none. Forecast-driven policies feed
	// it to an nws.Predictor instead of trusting the instantaneous Load.
	LoadHistory []float64
}

// queryClassImpls fetches a class's available implementations (Fig 7:
// "query the class for available implementations").
func queryClassImpls(ctx context.Context, env *Env, class loid.LOID) ([]proto.Implementation, error) {
	cctx, cancel := env.RT.Clock().WithTimeout(ctx, env.timeout())
	defer cancel()
	res, err := env.call(cctx, class, proto.MethodGetImplementations, nil)
	if err != nil {
		return nil, fmt.Errorf("scheduler: get_implementations on %v: %w", class, err)
	}
	reply, ok := res.(proto.ImplementationsReply)
	if !ok {
		return nil, fmt.Errorf("scheduler: unexpected reply %T", res)
	}
	return reply.Impls, nil
}

// implQuery builds the Collection query matching hosts able to run any of
// the implementations (Fig 7: "query Collection for Hosts matching
// available implementations"). A class with no implementations matches
// any host that reports an architecture.
func implQuery(impls []proto.Implementation) string {
	if len(impls) == 0 {
		return `defined($host_arch)`
	}
	terms := make([]string, len(impls))
	for i, im := range impls {
		var sub []string
		if im.Arch != "" {
			sub = append(sub, fmt.Sprintf(`$host_arch == %q`, im.Arch))
		}
		if im.OS != "" {
			sub = append(sub, fmt.Sprintf(`$host_os_name == %q`, im.OS))
		}
		if im.MemoryMB > 0 {
			sub = append(sub, fmt.Sprintf(`$host_mem_available_mb >= %d`, im.MemoryMB))
		}
		if len(sub) == 0 {
			sub = []string{`defined($host_arch)`}
		}
		terms[i] = "(" + strings.Join(sub, " and ") + ")"
	}
	return strings.Join(terms, " or ")
}

// matchingHosts runs one Collection query for a class and parses the
// results. This is the single lookup per class that IRS amortizes.
func matchingHosts(ctx context.Context, env *Env, class loid.LOID) ([]HostInfo, error) {
	impls, err := queryClassImpls(ctx, env, class)
	if err != nil {
		return nil, err
	}
	return QueryHosts(ctx, env, implQuery(impls))
}

// QueryHosts runs an arbitrary query against the Collection and parses
// host records from the result. When the Collection is a federation
// Router, the result may silently be partial; schedulers that should
// react to degraded directories use QueryHostsPartial instead.
func QueryHosts(ctx context.Context, env *Env, querySrc string) ([]HostInfo, error) {
	hosts, _, err := QueryHostsPartial(ctx, env, querySrc)
	return hosts, err
}

// matchingUsableHosts is matchingHosts pre-filtered through usable().
// The returned slice may be the cache's shared filtered view: callers
// MUST NOT reorder it or write to it, a host's Vaults and LoadHistory
// included. Generators that sort or shuffle in place use matchingHosts +
// usable() (which copies) instead.
func matchingUsableHosts(ctx context.Context, env *Env, class loid.LOID) ([]HostInfo, error) {
	impls, err := queryClassImpls(ctx, env, class)
	if err != nil {
		return nil, err
	}
	querySrc := implQuery(impls)
	if env.Cache != nil {
		if hosts, _, ok := env.Cache.getUsable(querySrc); ok {
			return hosts, nil
		}
	}
	hosts, view, _, err := fetchHosts(ctx, env, querySrc)
	if err != nil || env.Cache != nil {
		return view, err
	}
	// Nothing else holds the fresh slice: filter it in place.
	return filterUsable(hosts, hosts[:0]), nil
}

// QueryHostsPartial is QueryHosts surfacing the federation layer's
// partial-result marker: skipped is how many Collection shards
// contributed nothing (timed out, unreachable, breaker-open) — always
// zero when env.Collection is a plain single Collection. A scheduler
// seeing skipped > 0 knows the host list under-represents the
// metasystem and can widen its schedule or retry later.
func QueryHostsPartial(ctx context.Context, env *Env, querySrc string) (hosts []HostInfo, skipped int, err error) {
	if env.Cache != nil {
		if hosts, skipped, ok := env.Cache.get(querySrc); ok {
			return hosts, skipped, nil
		}
	}
	hosts, _, skipped, err = fetchHosts(ctx, env, querySrc)
	return hosts, skipped, err
}

// fetchHosts runs the Collection query behind QueryHostsPartial. With a
// cache it stores the result and also returns the usable() view put
// computed, which shares the cache's read-only contract; without one,
// view is nil.
func fetchHosts(ctx context.Context, env *Env, querySrc string) (hosts, view []HostInfo, skipped int, err error) {
	cctx, cancel := env.RT.Clock().WithTimeout(ctx, env.timeout())
	defer cancel()
	res, err := env.call(cctx, env.Collection, proto.MethodQueryCollection,
		proto.QueryArgs{Query: querySrc})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("scheduler: collection query: %w", err)
	}
	reply, ok := res.(proto.QueryReply)
	if !ok {
		return nil, nil, 0, fmt.Errorf("scheduler: unexpected reply %T", res)
	}
	hosts = make([]HostInfo, len(reply.Records))
	vaults := make([]loid.LOID, 0, vaultCount(reply.Records))
	for i, rec := range reply.Records {
		hosts[i], vaults = parseHostInfo(rec, vaults)
	}
	// Deterministic base order; randomized policies shuffle explicitly.
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].LOID.Less(hosts[j].LOID) })
	if env.Cache != nil {
		view = env.Cache.put(querySrc, hosts, reply.SkippedShards)
	}
	return hosts, view, reply.SkippedShards, nil
}

// vaultCount bounds the vault LOIDs parseHostInfo can produce for recs,
// so one slab holds every host's Vaults.
func vaultCount(recs []proto.CollectionRecord) int {
	n := 0
	for _, rec := range recs {
		for _, p := range rec.Attrs {
			if p.Name == "host_vaults" {
				n += p.Value.Len()
			}
		}
	}
	return n
}

// parseHostInfo converts a Collection record into a HostInfo in a single
// walk over its attributes. A repeated name overrides earlier ones, as in
// the record's map form, so each case assigns its fields outright. Vault
// LOIDs are appended to the caller's slab, which is returned; h.Vaults is
// a capacity-capped window of it, so an append to one host's Vaults
// reallocates rather than overwriting the next host's entries.
func parseHostInfo(rec proto.CollectionRecord, slab []loid.LOID) (HostInfo, []loid.LOID) {
	h := HostInfo{LOID: rec.Member}
	start := len(slab)
	for _, p := range rec.Attrs {
		v := p.Value
		switch p.Name {
		case "host_arch":
			h.Arch = v.Str()
		case "host_os_name":
			h.OS = v.Str()
		case "host_load":
			h.Load, _ = v.AsFloat()
		case "host_cpus":
			f, _ := v.AsFloat()
			h.CPUs = int(f)
		case "host_zone":
			h.Zone = v.Str()
		case "host_cost_per_cpu":
			h.Cost, _ = v.AsFloat()
		case "host_price":
			h.Price, _ = v.AsFloat()
		case "host_class":
			h.Spot = v.Str() == "spot"
		case "host_speed":
			h.Speed, _ = v.AsFloat()
		case "host_is_batch":
			h.Batch = v.BoolVal()
		case "host_alive":
			h.Down = !v.BoolVal()
		case "host_load_history":
			h.LoadHistory = nil
			if v.Kind() == attr.KindList {
				for i := 0; i < v.Len(); i++ {
					if f, fok := v.At(i).AsFloat(); fok {
						h.LoadHistory = append(h.LoadHistory, f)
					}
				}
			}
		case "host_vaults":
			slab = slab[:start]
			if v.Kind() == attr.KindList {
				for i := 0; i < v.Len(); i++ {
					if l, err := loid.Parse(v.At(i).Str()); err == nil {
						slab = append(slab, l)
					}
				}
			}
		}
	}
	if end := len(slab); end > start {
		h.Vaults = slab[start:end:end]
	}
	return h, slab
}

// usable filters hosts that have at least one compatible vault — a host
// with no vault cannot run anything (objects need OPR storage) — and are
// not flagged down by the failure detector.
func usable(hosts []HostInfo) []HostInfo {
	return filterUsable(hosts, hosts[:0:0])
}

// filterUsable appends the usable hosts to out. Passing hosts[:0] filters
// in place.
func filterUsable(hosts, out []HostInfo) []HostInfo {
	for _, h := range hosts {
		if len(h.Vaults) > 0 && !h.Down {
			out = append(out, h)
		}
	}
	return out
}
