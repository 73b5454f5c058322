// Package collection implements the Legion Collection (paper §3.2).
//
// "The Collection acts as a repository for information describing the
// state of the resources comprising the system. Each record is stored as
// a set of Legion object attributes. Collections provide methods to join
// (with an optional installment of initial descriptive information) and
// update records, thus facilitating a push model for data. ... Users, or
// their agents, obtain information about resources by issuing queries to
// a Collection."
//
// The Figure 4 interface — JoinCollection, LeaveCollection,
// QueryCollection, UpdateCollectionEntry — is exposed both as a Go API
// and as orb methods. Queries are expressions in the package query
// language. The §3.2 security note ("The security facilities of Legion
// authenticate the caller to be sure that it is allowed to update the
// data") is modelled with a pluggable authorizer over per-caller
// credentials.
//
// Function injection — "the ability for users to install code to
// dynamically compute new description information and integrate it with
// the already existing description information for a resource", which the
// paper plans for Network Weather Service predictions — is implemented:
// functions registered with InjectFunc become callable from queries, and
// they receive the record under evaluation (see internal/nws).
package collection

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/query"
	"legion/internal/telemetry"
)

// Op identifies a Collection mutation for authorization decisions.
type Op int

// Collection mutation operations.
const (
	OpJoin Op = iota
	OpLeave
	OpUpdate
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	default:
		return "update"
	}
}

// Authorizer decides whether a caller may mutate a member's record.
type Authorizer func(op Op, member loid.LOID, credential string) error

// Errors returned by Collection operations.
var (
	// ErrUnauthorized reports an authorization failure.
	ErrUnauthorized = errors.New("collection: unauthorized")
	// ErrNotMember reports an operation on an unknown member.
	ErrNotMember = errors.New("collection: not a member")
)

// record is one member's stored description. Records are immutable
// copy-on-write snapshots: mutators build a replacement record and swap
// the pointer under the write lock, so queries capture a consistent
// snapshot with a brief read lock and evaluate entirely outside it, and
// query results share the pre-sorted pairs slice instead of deep-copying
// and re-sorting the attributes per match.
type record struct {
	attrs     map[string]attr.Value
	pairs     []attr.Pair // sorted by name; shared with query results
	updatedAt time.Time
}

// newRecord builds the successor of old (nil for a fresh member) with
// attrs merged in. Neither old nor the result is ever mutated afterwards.
func newRecord(old *record, attrs []attr.Pair, at time.Time) *record {
	n := len(attrs)
	if old != nil {
		n += len(old.attrs)
	}
	m := make(map[string]attr.Value, n)
	if old != nil {
		for k, v := range old.attrs {
			m[k] = v
		}
	}
	for _, p := range attrs {
		m[p.Name] = p.Value
	}
	pairs := make([]attr.Pair, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, attr.Pair{Name: k, Value: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return &record{attrs: m, pairs: pairs, updatedAt: at}
}

// Collection is a Legion Collection object. Safe for concurrent use.
type Collection struct {
	*orb.ServiceObject

	cache *query.ParseCache // parsed-query LRU; safe for concurrent use

	mu      sync.RWMutex
	records map[loid.LOID]*record
	idx     *attrIndex
	funcs   map[string]query.Func
	auth    Authorizer
	now     func() time.Time

	queries atomic.Int64
	updates atomic.Int64

	met collectionMetrics
}

// collectionMetrics holds the Collection's telemetry handles, cached at
// New.
type collectionMetrics struct {
	spans     *telemetry.SpanLog
	domain    string
	queryTime *telemetry.Histogram
	querySize *telemetry.Histogram
	queryErrs *telemetry.Counter
	evalSkips *telemetry.Counter
	cacheHits *telemetry.Counter
	indexed   *telemetry.Counter
	scans     *telemetry.Counter
}

func newCollectionMetrics(rt *orb.Runtime) collectionMetrics {
	reg := rt.Metrics()
	return collectionMetrics{
		spans:     reg.Spans(),
		domain:    rt.Domain(),
		queryTime: reg.Histogram("legion_collection_query_seconds", telemetry.LatencyBuckets),
		querySize: reg.Histogram("legion_collection_query_results", telemetry.SizeBuckets),
		queryErrs: reg.Counter("legion_collection_query_errors_total"),
		evalSkips: reg.Counter("legion_collection_query_eval_skips"),
		cacheHits: reg.Counter("legion_collection_query_cache_hits_total"),
		indexed:   reg.Counter("legion_collection_query_indexed_total"),
		scans:     reg.Counter("legion_collection_query_scans_total"),
	}
}

// New creates a Collection, registers its orb methods and itself with rt.
// auth may be nil, allowing all mutations.
func New(rt *orb.Runtime, auth Authorizer) *Collection {
	c := &Collection{
		ServiceObject: orb.NewServiceObject(rt.Mint("Collection")),
		cache:         query.NewParseCache(0),
		records:       make(map[loid.LOID]*record),
		idx:           newAttrIndex(DefaultIndexedKeys),
		funcs:         make(map[string]query.Func),
		auth:          auth,
		now:           rt.Clock().Now,
		met:           newCollectionMetrics(rt),
	}
	c.installMethods()
	rt.Register(c)
	return c
}

// SetIndexedKeys replaces the set of indexed attribute keys and rebuilds
// the inverted index over the current records. Passing no keys disables
// the index entirely (every query scans) — the scan-vs-index experiments
// use this as their baseline.
func (c *Collection) SetIndexedKeys(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx = newAttrIndex(keys)
	for member, r := range c.records {
		c.idx.insert(member, r)
	}
}

// SetClock overrides the record-freshness clock.
func (c *Collection) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// InjectFunc installs a user function callable from queries (§3.2
// function injection). Injected functions shadow built-ins. The function
// table is copy-on-write: queries snapshot the current table and keep
// using it outside the lock, so injected functions must be safe for
// concurrent calls.
func (c *Collection) InjectFunc(name string, f query.Func) {
	c.mu.Lock()
	defer c.mu.Unlock()
	funcs := make(map[string]query.Func, len(c.funcs)+1)
	for k, v := range c.funcs {
		funcs[k] = v
	}
	funcs[name] = f
	c.funcs = funcs
}

func (c *Collection) authorize(op Op, member loid.LOID, credential string) error {
	if c.auth == nil {
		return nil
	}
	if err := c.auth(op, member, credential); err != nil {
		return fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	return nil
}

// Join registers a member, optionally with initial descriptive
// information.
func (c *Collection) Join(member loid.LOID, attrs []attr.Pair, credential string) error {
	if member.IsNil() {
		return errors.New("collection: nil member LOID")
	}
	if err := c.authorize(OpJoin, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.records[member]
	r := newRecord(old, attrs, c.now())
	c.records[member] = r
	c.idx.replace(member, old, r)
	return nil
}

// Leave removes a member's record.
func (c *Collection) Leave(member loid.LOID, credential string) error {
	if err := c.authorize(OpLeave, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.records[member]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMember, member)
	}
	delete(c.records, member)
	c.idx.remove(member, r)
	return nil
}

// Update merges new descriptive information into a member's record — the
// push-model data path.
func (c *Collection) Update(member loid.LOID, attrs []attr.Pair, credential string) error {
	if err := c.authorize(OpUpdate, member, credential); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.records[member]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMember, member)
	}
	r := newRecord(old, attrs, c.now())
	c.records[member] = r
	c.idx.replace(member, old, r)
	c.updates.Add(1)
	return nil
}

// ApplyBatch applies a coalesced update batch in entry order under a
// single lock acquisition — the server half of the Data Collection
// Daemon's batched push path. Each entry upserts: an absent member is
// joined (authorized as OpJoin), a present one updated (OpUpdate).
// UpdateOnly entries for absent members are dropped rather than joined,
// so a buffered down-flag cannot resurrect a pruned record. Entries the
// authorizer refuses are dropped too; the batch never fails wholesale.
func (c *Collection) ApplyBatch(entries []proto.BatchEntry, credential string) (applied, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, e := range entries {
		if e.Member.IsNil() {
			dropped++
			continue
		}
		old, present := c.records[e.Member]
		op := OpUpdate
		if !present {
			if e.UpdateOnly {
				dropped++
				continue
			}
			op = OpJoin
		}
		if c.auth != nil && c.auth(op, e.Member, credential) != nil {
			dropped++
			continue
		}
		r := newRecord(old, e.Attrs, now)
		c.records[e.Member] = r
		c.idx.replace(e.Member, old, r)
		if present {
			c.updates.Add(1)
		}
		applied++
	}
	return applied, dropped
}

// Record is one query result: a member and its description snapshot.
type Record = proto.CollectionRecord

// Query evaluates a query-language expression against every record and
// returns the matches sorted by member LOID (deterministic order).
// Records with attributes missing from the query simply do not match. A
// record whose evaluation errors (e.g. a bad injected-func value on a
// single host) is skipped — counted in the
// legion_collection_query_eval_skips counter — rather than failing the
// whole query; only a parse error fails the call.
func (c *Collection) Query(src string) ([]Record, error) {
	return c.QueryCtx(context.Background(), src)
}

// QueryCtx is Query with a caller context, so the query span parents
// under any span the context carries (e.g. the ORB server span of a
// remote QueryCollection call).
func (c *Collection) QueryCtx(ctx context.Context, src string) (_ []Record, err error) {
	start := time.Now()
	_, span := c.met.spans.StartIn(ctx, "collection/query", c.met.domain)
	defer func() {
		span.Finish(err)
		c.met.queryTime.ObserveSince(start)
		if err != nil {
			c.met.queryErrs.Inc()
		}
	}()
	e, hit, err := c.cache.Parse(src)
	if err != nil {
		return nil, err
	}
	if hit {
		c.met.cacheHits.Inc()
	}
	terms := query.ConjunctiveTerms(e)

	// Snapshot under a brief read lock: records are immutable
	// copy-on-write values and the function table is swapped wholesale on
	// InjectFunc, so both stay valid after the lock is released and the
	// (possibly slow) evaluation below never stalls Join/Update. When a
	// top-level conjunct hits an indexed key, only the index's candidate
	// set is snapshotted instead of every record.
	type candidate struct {
		member loid.LOID
		rec    *record
	}
	c.mu.RLock()
	c.queries.Add(1)
	funcs := c.funcs
	var snap []candidate
	cands, usedIndex := c.idx.candidates(terms)
	if usedIndex {
		snap = make([]candidate, 0, len(cands))
		for member := range cands {
			if r, ok := c.records[member]; ok {
				snap = append(snap, candidate{member: member, rec: r})
			}
		}
	} else {
		snap = make([]candidate, 0, len(c.records))
		for member, r := range c.records {
			snap = append(snap, candidate{member: member, rec: r})
		}
	}
	c.mu.RUnlock()
	if usedIndex {
		c.met.indexed.Inc()
	} else {
		c.met.scans.Inc()
	}

	var out []Record
	skips := 0
	env := &query.Env{Funcs: funcs} // one per query; Rec is set per record
	for _, cand := range snap {
		env.Rec = query.MapRecord(cand.rec.attrs)
		ok, err := query.EvalEnv(e, env)
		if err != nil {
			// One record's bad value must not hide every other resource
			// from the scheduler: skip it and report the rest.
			skips++
			continue
		}
		if !ok {
			continue
		}
		out = append(out, Record{Member: cand.member, Attrs: cand.rec.pairs, UpdatedAt: cand.rec.updatedAt})
	}
	if skips > 0 {
		c.met.evalSkips.Add(int64(skips))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member.Less(out[j].Member) })
	c.met.querySize.Observe(float64(len(out)))
	return out, nil
}

// Size returns the number of member records.
func (c *Collection) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.records)
}

// Stats returns lifetime query and update counts (schedulers use query
// counts; the IRS experiment reproduces the paper's "fewer lookups in the
// Collection" claim with them).
func (c *Collection) Stats() (queries, updates int64) {
	return c.queries.Load(), c.updates.Load()
}

// Prune drops records not updated since the deadline, bounding staleness
// under the push model when a Host dies silently.
func (c *Collection) Prune(olderThan time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for member, r := range c.records {
		if r.updatedAt.Before(olderThan) {
			delete(c.records, member)
			c.idx.remove(member, r)
			n++
		}
	}
	return n
}

func (c *Collection) installMethods() {
	c.Handle(proto.MethodJoinCollection, func(_ context.Context, arg any) (any, error) {
		a, ok := arg.(proto.JoinArgs)
		if !ok {
			return nil, fmt.Errorf("collection: want JoinArgs, got %T", arg)
		}
		if err := c.Join(a.Joiner, a.Attrs, a.Credential); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	})
	c.Handle(proto.MethodLeaveCollection, func(_ context.Context, arg any) (any, error) {
		a, ok := arg.(proto.LeaveArgs)
		if !ok {
			return nil, fmt.Errorf("collection: want LeaveArgs, got %T", arg)
		}
		if err := c.Leave(a.Leaver, a.Credential); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	})
	c.Handle(proto.MethodUpdateCollectionEntry, func(_ context.Context, arg any) (any, error) {
		a, ok := arg.(proto.UpdateArgs)
		if !ok {
			return nil, fmt.Errorf("collection: want UpdateArgs, got %T", arg)
		}
		if err := c.Update(a.Member, a.Attrs, a.Credential); err != nil {
			return nil, err
		}
		return proto.Ack{}, nil
	})
	c.Handle(proto.MethodUpdateCollectionBatch, func(_ context.Context, arg any) (any, error) {
		a, ok := arg.(proto.BatchUpdateArgs)
		if !ok {
			return nil, fmt.Errorf("collection: want BatchUpdateArgs, got %T", arg)
		}
		applied, dropped := c.ApplyBatch(a.Entries, a.Credential)
		return proto.BatchUpdateReply{Applied: applied, Dropped: dropped}, nil
	})
	c.Handle(proto.MethodQueryCollection, func(ctx context.Context, arg any) (any, error) {
		a, ok := arg.(proto.QueryArgs)
		if !ok {
			return nil, fmt.Errorf("collection: want QueryArgs, got %T", arg)
		}
		recs, err := c.QueryCtx(ctx, a.Query)
		if err != nil {
			return nil, err
		}
		// Record aliases proto.CollectionRecord, so the reply reuses the
		// query result without a per-record conversion copy.
		return proto.QueryReply{Records: recs}, nil
	})
}
