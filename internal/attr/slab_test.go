package attr

import (
	"reflect"
	"testing"

	"legion/internal/wire"
)

// TestSlabWindowsDoNotAlias decodes several records through one Slab
// and appends to every window it handed out — record Attrs and list
// values at each depth — checking that no other record changes.
func TestSlabWindowsDoNotAlias(t *testing.T) {
	recs := [][]Pair{
		{{Name: "vaults", Value: Strings("a", "b")}, {Name: "n", Value: List(Int(1), List(Bool(true), Int(2)))}},
		{},
		{{Name: "vaults", Value: Strings("c")}, {Name: "load", Value: Float(0.5)}, {Name: "n", Value: List(List(String("x")))}},
		{{Name: "vaults", Value: Strings("d", "e", "f")}},
	}
	var enc []byte
	for _, ps := range recs {
		enc = AppendWirePairs(enc, ps)
	}
	r := wire.NewReader(enc)
	var s Slab
	got := make([][]Pair, len(recs))
	for i := range recs {
		got[i] = s.DecodeWirePairs(&r, len(recs)-i)
	}
	if r.Err != nil || len(r.B) != 0 {
		t.Fatalf("decode: err %v, %d trailing bytes", r.Err, len(r.B))
	}
	want := func() [][]Pair {
		out := make([][]Pair, len(recs))
		for i, ps := range recs {
			if len(ps) > 0 {
				out[i] = ps
			}
		}
		return out
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}

	var appendAll func(v Value)
	appendAll = func(v Value) {
		if v.kind != KindList {
			return
		}
		if cap(v.l) != len(v.l) {
			t.Errorf("list %v: cap %d, len %d: window not capped", v, cap(v.l), len(v.l))
		}
		_ = append(v.l, String("clobber"))
		for _, e := range v.l {
			appendAll(e)
		}
	}
	for i, ps := range got {
		if cap(ps) != len(ps) {
			t.Errorf("record %d: cap %d, len %d: window not capped", i, cap(ps), len(ps))
		}
		_ = append(ps, Pair{Name: "clobber", Value: Int(9)})
		for _, p := range ps {
			appendAll(p.Value)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appends to windows changed other records:\n got %v\nwant %v", got, want)
	}
}
