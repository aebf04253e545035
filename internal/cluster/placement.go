package cluster

import (
	"hash/fnv"
	"sort"
)

// PlacementConfig tunes how titles map onto nodes.
type PlacementConfig struct {
	// Seed perturbs the rendezvous hash so different clusters with the
	// same catalog and node names don't correlate.
	Seed int64
	// Replicas is how many nodes hold a cold title (>= 1).
	Replicas int
	// HotReplicas is how many nodes hold a hot title (>= Replicas).
	// Extra copies of the Zipf head give the access skew somewhere to
	// spill, and give hot sessions a failover target when their node
	// dies.
	HotReplicas int
	// HotTitles is the size of the Zipf head: the first HotTitles
	// entries of the (popularity-ranked) catalog get HotReplicas
	// copies. The paper's workloads rank titles movie0, movie1, ... by
	// decreasing popularity, so catalog order is popularity order.
	HotTitles int
}

func (c PlacementConfig) withDefaults() PlacementConfig {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.HotReplicas < c.Replicas {
		c.HotReplicas = c.Replicas
	}
	return c
}

// Placement maps every title to the ordered list of nodes that hold
// it. The first node is the title's home; the rest are replicas in
// failover preference order.
type Placement struct {
	cfg    PlacementConfig
	titles map[string][]string
}

// Assign computes the placement of titles (in popularity-rank order)
// across nodes using highest-random-weight (rendezvous) hashing: each
// (title, node) pair gets a deterministic score and a title lives on
// the top-k scoring nodes. Two properties fall out by construction:
//
//   - Determinism: the same seed, catalog, and node set produce the
//     same placement regardless of where or on how many workers the
//     computation runs — scores depend only on the pair.
//   - Minimal rebalance: adding a node steals only the titles it now
//     out-scores someone for; removing a node moves only the titles it
//     held. No other title's node list changes.
func Assign(titles []string, nodes []string, cfg PlacementConfig) *Placement {
	cfg = cfg.withDefaults()
	p := &Placement{cfg: cfg, titles: make(map[string][]string, len(titles))}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for rank, title := range titles {
		want := cfg.Replicas
		if rank < cfg.HotTitles {
			want = cfg.HotReplicas
		}
		if want > len(sorted) {
			want = len(sorted)
		}
		p.titles[title] = topK(title, sorted, want, cfg.Seed)
	}
	return p
}

// topK returns the want highest-scoring nodes for title, best first.
func topK(title string, nodes []string, want int, seed int64) []string {
	type scored struct {
		node  string
		score uint64
	}
	all := make([]scored, len(nodes))
	for i, n := range nodes {
		all[i] = scored{n, rendezvousScore(seed, title, n)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].node < all[j].node // total order even on hash ties
	})
	out := make([]string, want)
	for i := range out {
		out[i] = all[i].node
	}
	return out
}

// rendezvousScore hashes the (seed, title, node) triple. FNV-1a is
// cheap, stdlib, and plenty uniform for placement.
func rendezvousScore(seed int64, title, node string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(title))
	h.Write([]byte{0}) // keep ("ab","c") distinct from ("a","bc")
	h.Write([]byte(node))
	return h.Sum64()
}

// Holders returns the ordered node list for a title (home first), or
// nil if the title is unknown.
func (p *Placement) Holders(title string) []string {
	return p.titles[title]
}

// Titles returns the sorted titles placed on the given node (home or
// replica).
func (p *Placement) Titles(node string) []string {
	var out []string
	for title, holders := range p.titles {
		for _, h := range holders {
			if h == node {
				out = append(out, title)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Counts returns titles-held per node — the /statusz and VIEW placement
// summary.
func (p *Placement) Counts() map[string]int {
	out := make(map[string]int)
	for _, holders := range p.titles {
		for _, h := range holders {
			out[h]++
		}
	}
	return out
}
