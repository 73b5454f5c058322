package proto

import (
	"testing"

	"legion/internal/attr"
	"legion/internal/wire"
)

var slabSink []CollectionRecord

// TestQueryReplyDecodeAllocsIndependentOfSize: a decoded reply's
// records share per-reply slabs, so a 2000-record reply costs the same
// handful of allocations as a 100-record one.
func TestQueryReplyDecodeAllocsIndependentOfSize(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	decodeAllocs := func(n int) float64 {
		rep := fixtureQueryReply(n)
		for i := range rep.Records { // one list value per record
			rep.Records[i].Attrs = append(rep.Records[i].Attrs,
				attr.Pair{Name: "vaults", Value: attr.Strings("v1", "v2")})
		}
		b := rep.AppendWire(nil)
		var r wire.Reader
		return testing.AllocsPerRun(20, func() {
			var got QueryReply
			r.Reset(b)
			got.DecodeWire(&r)
			if r.Err != nil || len(got.Records) != n {
				t.Fatalf("decode: %v, %d records", r.Err, len(got.Records))
			}
			slabSink = got.Records
		})
	}
	small, large := decodeAllocs(100), decodeAllocs(2000)
	if large > small+2 {
		t.Errorf("decode allocs: %.0f at 2000 records vs %.0f at 100, want within 2", large, small)
	}
	t.Logf("decode allocs: %.0f at 100 records, %.0f at 2000", small, large)
}

// TestQueryReplyDecodeWindowsDoNotAlias: records decoded from one slab
// are capacity-capped windows, so appending to one record's Attrs
// cannot write into the next record. (List values are windows too;
// attr's TestSlabWindowsDoNotAlias appends to them directly, which only
// package attr can do.)
func TestQueryReplyDecodeWindowsDoNotAlias(t *testing.T) {
	rep := fixtureQueryReply(3)
	for i := range rep.Records {
		rep.Records[i].Attrs = append(rep.Records[i].Attrs,
			attr.Pair{Name: "nested", Value: attr.List(attr.Int(int64(i)), attr.List(attr.Bool(true)))})
	}
	enc := rep.AppendWire(nil)
	var got QueryReply
	r := wire.NewReader(enc)
	got.DecodeWire(&r)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !wireEqual(got, rep) {
		t.Fatalf("round trip diverges:\n got %#v\nwant %#v", got, rep)
	}
	for i, rec := range got.Records {
		if c := cap(rec.Attrs); c != len(rec.Attrs) {
			t.Errorf("record %d Attrs: cap %d, len %d: window not capped", i, c, len(rec.Attrs))
		}
	}
	_ = append(got.Records[0].Attrs, attr.Pair{Name: "clobber", Value: attr.Int(99)})
	_ = append(got.Records[1].Attrs, attr.Pair{Name: "clobber", Value: attr.Int(99)})
	if !wireEqual(got, rep) {
		t.Fatalf("appends to one record changed another:\n got %#v\nwant %#v", got, rep)
	}
}
