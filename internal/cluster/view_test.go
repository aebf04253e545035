package cluster

import (
	"reflect"
	"testing"
)

// TestCandidates pins the routing rule the coordinator and the chaos
// runner share: active holders only, avoid honoured, least-loaded first,
// placement rank breaking ties.
func TestCandidates(t *testing.T) {
	v := &View{Members: []Member{
		{ID: "a", State: StateActive, Sessions: 2},
		{ID: "b", State: StateActive, Sessions: 1},
		{ID: "c", State: StateActive, Sessions: 1},
		{ID: "d", State: StateDraining},
		{ID: "e", State: StateDead},
	}}
	ids := func(ms []Member) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.ID)
		}
		return out
	}
	for _, tc := range []struct {
		holders, avoid, want []string
	}{
		{[]string{"a", "c", "b"}, nil, []string{"c", "b", "a"}},
		{[]string{"a", "b", "c"}, nil, []string{"b", "c", "a"}},
		{[]string{"a", "b", "c"}, []string{"b"}, []string{"c", "a"}},
		{[]string{"d", "e", "a", "zz"}, nil, []string{"a"}},
		{[]string{"d", "e"}, nil, nil},
	} {
		if got := ids(v.Candidates(tc.holders, tc.avoid)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Candidates(%v, avoid %v) = %v, want %v", tc.holders, tc.avoid, got, tc.want)
		}
	}
}
