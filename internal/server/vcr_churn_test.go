package server

import (
	"fmt"
	"math/rand"
	"testing"

	"ftmm/internal/analytic"
)

// churnGeometry builds the farm options for the churn test under one
// scheme.
func churnGeometry(t *testing.T, name string) Options {
	t.Helper()
	scheme, policy, err := ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(scheme)
	opts.NCPolicy = policy
	if name == "dc" {
		opts.Disks, opts.ClusterSize, opts.DeclusterGroup = 13, 4, 13
	}
	return opts
}

// TestVcrChurnHoldsWeightedBound hammers the rate-capable engines (sr,
// dc) with a seeded mix of admissions, cancels, pauses (cancel with a
// held position), resumes (RequestAt the held floor), and
// fast-forwards, asserting after every operation and every cycle that
// the k′-weighted active count never exceeds the analytic N_p — a
// fast-forwarding stream draws rate tracks per cycle and must be
// charged like rate viewers. After the churn drains the arena and pool
// must be empty — a pause that strands a buffer would surface here.
func TestVcrChurnHoldsWeightedBound(t *testing.T) {
	const seed = 42
	for _, scheme := range []string{"sr", "dc"} {
		t.Run(scheme, func(t *testing.T) {
			opts := churnGeometry(t, scheme)
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := analytic.Config{
				Disk: s.Farm().Params(), ObjectRate: s.Rate(),
				D: opts.Disks, C: opts.ClusterSize, G: opts.DeclusterGroup, K: opts.K,
			}
			bound, err := cfg.MaxStreamsInt(mustScheme(t, scheme))
			if err != nil {
				t.Fatal(err)
			}
			const groups = 4
			width := s.GroupWidth()
			loadTitles(t, s, 3, groups*width)

			check := func(when string) {
				t.Helper()
				if w := s.WeightedActive(); w > bound {
					t.Fatalf("%s: weighted active %d exceeds analytic N_p=%d", when, w, bound)
				}
			}
			type parked struct {
				title string
				next  int
			}
			var playing []int
			titleOf := map[int]string{}
			var shelf []parked
			rng := rand.New(rand.NewSource(seed))

			prune := func() {
				kept := playing[:0]
				for _, id := range playing {
					if _, _, ok := s.StreamProgress(id); ok {
						kept = append(kept, id)
					}
				}
				playing = kept
			}
			for i := 0; i < 400; i++ {
				prune()
				switch op := rng.Intn(10); {
				case op < 3: // admit
					title := fmt.Sprintf("movie%d", rng.Intn(3))
					if id, _, err := s.Request(title); err == nil {
						playing = append(playing, id)
						titleOf[id] = title
					}
				case op < 4 && len(playing) > 0: // hang up
					id := playing[rng.Intn(len(playing))]
					_ = s.Cancel(id)
				case op < 6 && len(playing) > 0: // pause
					k := rng.Intn(len(playing))
					id := playing[k]
					next, _, ok := s.StreamProgress(id)
					if !ok {
						break
					}
					if err := s.Cancel(id); err != nil {
						break
					}
					playing = append(playing[:k], playing[k+1:]...)
					shelf = append(shelf, parked{title: titleOf[id], next: next})
				case op < 8 && len(shelf) > 0: // resume
					k := rng.Intn(len(shelf))
					p := shelf[k]
					if id, _, err := s.RequestAt(p.title, p.next/width); err == nil {
						playing = append(playing, id)
						titleOf[id] = p.title
						shelf = append(shelf[:k], shelf[k+1:]...)
					} // else it stays parked: a held Retry-After
				case op < 9 && len(playing) > 0: // fast-forward
					id := playing[rng.Intn(len(playing))]
					_ = s.SetStreamRate(id, 2+rng.Intn(2)) // refused when over capacity
				default:
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("op %d", i))
			}

			// Drain: hang up everything still playing (parked sessions
			// hold no engine state) and run the farm empty; nothing may
			// remain checked out.
			prune()
			for _, id := range playing {
				_ = s.Cancel(id)
			}
			for i := 0; i < 50 && s.Engine().Active() > 0; i++ {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
				check("drain")
			}
			if n := s.Engine().Active(); n != 0 {
				t.Fatalf("%d streams still active after drain", n)
			}
			// One more step: the engine holds its last report's
			// buffers until the next Step.
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if n := s.Engine().Arena().Outstanding(); n != 0 {
				t.Errorf("%d arena buffers leaked through pause/ff churn", n)
			}
			if n := s.Engine().BufferInUse(); n != 0 {
				t.Errorf("%d pool tracks leaked through pause/ff churn", n)
			}
		})
	}
}

func mustScheme(t *testing.T, name string) analytic.Scheme {
	t.Helper()
	scheme, _, err := ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}
