package layout

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ftmm/internal/units"
)

// Property: across any sequence of adds and removes, no two live groups
// ever share a (disk, track) location, every group's drives are
// distinct, data stays inside the group's cluster, and parity sits in
// the placement's parity-home cluster.
func TestLayoutInvariantsUnderChurn(t *testing.T) {
	for _, placement := range []Placement{DedicatedParity, IntermixedParity} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			l, err := New(15, 5, 40, placement)
			if err != nil {
				return false
			}
			live := map[string]bool{}
			next := 0
			for op := 0; op < 60; op++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					// Remove a random live object.
					for id := range live {
						if err := l.RemoveObject(id); err != nil {
							return false
						}
						delete(live, id)
						break
					}
					continue
				}
				id := string(rune('a'+next%26)) + string(rune('0'+next/26))
				next++
				tracks := 1 + rng.Intn(20)
				start := rng.Intn(l.Clusters())
				if _, err := l.AddObject(id, tracks, start, units.MPEG1); err != nil {
					// Full is fine; anything else means a bug, but we
					// cannot distinguish here — check invariants below
					// regardless.
					continue
				}
				live[id] = true
			}
			return checkInvariants(t, l)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%v: %v", placement, err)
		}
	}
}

func checkInvariants(t *testing.T, l *Layout) bool {
	t.Helper()
	used := map[Location]string{}
	for _, obj := range l.AllObjects() {
		for gi := range obj.Groups {
			g := &obj.Groups[gi]
			drives := map[int]bool{}
			for _, loc := range g.Data {
				if owner, dup := used[loc]; dup {
					t.Logf("location %v shared by %s and %s", loc, owner, obj.ID)
					return false
				}
				used[loc] = obj.ID
				if drives[loc.Disk] {
					t.Logf("group %s/%d uses drive %d twice", obj.ID, gi, loc.Disk)
					return false
				}
				drives[loc.Disk] = true
				if loc.Disk/l.ClusterSize() != g.Cluster {
					t.Logf("group %s/%d data outside its cluster", obj.ID, gi)
					return false
				}
			}
			if owner, dup := used[g.Parity]; dup {
				t.Logf("parity %v shared by %s and %s", g.Parity, owner, obj.ID)
				return false
			}
			used[g.Parity] = obj.ID
			if drives[g.Parity.Disk] {
				t.Logf("group %s/%d parity on a data drive of the group", obj.ID, gi)
				return false
			}
			home := g.Cluster
			if l.Placement() == IntermixedParity {
				home = (g.Cluster + 1) % l.Clusters()
			}
			if g.Parity.Disk/l.ClusterSize() != home {
				t.Logf("group %s/%d parity outside its home cluster", obj.ID, gi)
				return false
			}
			// Round-robin group placement.
			want := (obj.StartCluster + gi) % l.Clusters()
			if g.Cluster != want {
				t.Logf("group %s/%d on cluster %d, want %d", obj.ID, gi, g.Cluster, want)
				return false
			}
		}
	}
	return true
}

// Property: FreeTracks is conserved: adds consume exactly
// groups*(width+1) tracks and removes return them.
func TestFreeTracksConservation(t *testing.T) {
	f := func(tracksRaw uint8) bool {
		l, err := New(10, 5, 100, DedicatedParity)
		if err != nil {
			return false
		}
		before := l.FreeTracks()
		tracks := int(tracksRaw%50) + 1
		obj, err := l.AddObject("x", tracks, 0, units.MPEG1)
		if err != nil {
			return true // full; nothing to check
		}
		groups := len(obj.Groups)
		if l.FreeTracks() != before-groups*5 {
			return false
		}
		if err := l.RemoveObject("x"); err != nil {
			return false
		}
		return l.FreeTracks() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTopologyMatchesPlacedGroups checks SharesGroup and Role against a
// brute force over placed objects: one object from every start cluster,
// each long enough to cycle through every rotation of its placement.
func TestTopologyMatchesPlacedGroups(t *testing.T) {
	type geom struct {
		name string
		make func() (*Layout, error)
	}
	const tracks = 1 << 20
	var geoms []geom
	for _, p := range []Placement{DedicatedParity, IntermixedParity} {
		for c := 2; c <= 6; c++ {
			for nc := 1; nc <= 5; nc++ {
				if p == IntermixedParity && nc < 2 {
					continue
				}
				p, c, nc := p, c, nc
				geoms = append(geoms, geom{fmt.Sprintf("%v/C=%d/clusters=%d", p, c, nc),
					func() (*Layout, error) { return New(nc*c, c, tracks, p) }})
			}
		}
	}
	// The four tabled designs, and (8,4), which falls back to the
	// complete design.
	for _, gc := range [][2]int{{7, 3}, {9, 3}, {13, 4}, {21, 5}, {8, 4}} {
		for groups := 1; groups <= 2; groups++ {
			g, c, groups := gc[0], gc[1], groups
			geoms = append(geoms, geom{fmt.Sprintf("declustered/G=%d/C=%d/groups=%d", g, c, groups),
				func() (*Layout, error) { return NewDeclustered(groups*g, g, c, tracks) }})
		}
	}
	for _, gm := range geoms {
		t.Run(gm.name, func(t *testing.T) {
			l, err := gm.make()
			if err != nil {
				t.Fatal(err)
			}
			d := l.Clusters() * l.ClusterSize()
			rounds := l.ClusterSize() * l.Clusters()
			if ds := l.Design(); ds != nil {
				rounds *= len(ds.Blocks)
			}
			shares := make([][]bool, d)
			for i := range shares {
				shares[i] = make([]bool, d)
			}
			roles := make([]Role, d)
			for start := 0; start < l.Clusters(); start++ {
				obj, err := l.AddObject(fmt.Sprintf("o%d", start), rounds*l.GroupWidth(), start, units.MPEG1)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range obj.Groups {
					members := []int{g.Parity.Disk}
					roles[g.Parity.Disk] |= RoleParity
					for _, loc := range g.Data {
						members = append(members, loc.Disk)
						roles[loc.Disk] |= RoleData
					}
					for _, a := range members {
						for _, b := range members {
							shares[a][b] = shares[a][b] || a != b
						}
					}
				}
			}
			for a := 0; a < d; a++ {
				if got := l.Role(a); got != roles[a] {
					t.Errorf("Role(%d) = %v, placed groups give %v", a, got, roles[a])
				}
				degree := 0
				for b := 0; b < d; b++ {
					if got := l.SharesGroup(a, b); got != shares[a][b] {
						t.Errorf("SharesGroup(%d, %d) = %v, placed groups give %v", a, b, got, shares[a][b])
					}
					if shares[a][b] {
						degree++
					}
				}
				if want := wantDegree(l); want >= 0 && degree != want {
					t.Errorf("drive %d shares a group with %d drives, want %d", a, degree, want)
				}
			}
			if l.SharesGroup(-1, 0) || l.SharesGroup(0, d) || l.Role(d) != 0 {
				t.Error("a drive outside the farm has a relation")
			}
		})
	}
}

// wantDegree is how many drives each drive shares a group with, or -1
// where no closed form is checked. Dedicated parity: the C-1 cluster
// mates. Declustered: the G-1 others of the declustering group (every
// pair of a block design meets in λ >= 1 blocks). Intermixed, C >= 3:
// the C-1 cluster mates plus, on each adjacent cluster, the C-1 drives
// at another offset — parity rotation keeps same-offset drives of
// adjacent clusters in different groups — so 3(C-1), or 2(C-1) when
// the two adjacent clusters are one.
func wantDegree(l *Layout) int {
	c := l.ClusterSize()
	switch {
	case l.Placement() == DedicatedParity:
		return c - 1
	case l.Placement() == DeclusteredParity:
		return c - 1
	case c < 3:
		return -1
	case l.Clusters() == 2:
		return 2 * (c - 1)
	default:
		return 3 * (c - 1)
	}
}
