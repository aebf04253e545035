package layout

import "sync"

// Role says which kinds of track a drive stores: data, parity (a
// dedicated parity disk), or both (intermixed parity, and declustered
// parity's rotating parity member).
type Role uint8

// The roles; RoleBoth is their union.
const (
	RoleData Role = 1 << iota
	RoleParity
	RoleBoth = RoleData | RoleParity
)

// topology is the drive relation the placement induces, computed once
// on first use: building a layout costs nothing for it, and concurrent
// readers share it safely.
type topology struct {
	once   sync.Once
	shares []bool // shares[a*d+b]: drives a and b hold tracks of one group
	roles  []Role
}

// SharesGroup reports whether distinct drives a and b hold tracks of one
// parity group in some placement the layout makes: two failures on such
// a pair lose data (the catastrophe of the paper's equations (4)-(5)).
func (l *Layout) SharesGroup(a, b int) bool {
	if a == b || uint(a) >= uint(l.d) || uint(b) >= uint(l.d) {
		return false
	}
	return l.topo().shares[a*l.d+b]
}

// Role reports what the drive stores across every placement the layout
// makes; zero for a drive outside the farm.
func (l *Layout) Role(drive int) Role {
	if uint(drive) >= uint(l.d) {
		return 0
	}
	return l.topo().roles[drive]
}

// topo computes the relation from groupDrives over every (cluster,
// group index) pair, since an object may start on any cluster; the index
// repeats with a period dividing C times the design's block count.
func (l *Layout) topo() *topology {
	t := &l.topology
	t.once.Do(func() {
		t.shares = make([]bool, l.d*l.d)
		t.roles = make([]Role, l.d)
		period := l.groupC
		if l.design != nil {
			period *= len(l.design.Blocks)
		}
		for cl := 0; cl < l.Clusters(); cl++ {
			for g := 0; g < period; g++ {
				data, par := l.groupDrives(cl, g)
				for _, d := range data {
					t.roles[d] |= RoleData
				}
				t.roles[par] |= RoleParity
				members := append(data, par)
				for _, a := range members {
					for _, b := range members {
						t.shares[a*l.d+b] = t.shares[a*l.d+b] || a != b
					}
				}
			}
		}
	})
	return t
}
