// Package workload generates the synthetic demand the experiments run
// against: Poisson stream arrivals over a Zipf-skewed object popularity
// distribution (a standard video-on-demand model: a few hot movies take
// most requests), plus deterministic synthetic object content so tests
// can verify delivered bytes exactly.
//
// All randomness is seeded math/rand; the same Config always produces the
// same request sequence.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Request is one client request: start delivering an object at a time
// offset from the experiment start.
type Request struct {
	At       time.Duration
	ObjectID string
}

// Config parameterizes a Generator.
type Config struct {
	// Seed makes the sequence reproducible.
	Seed int64
	// Objects are the requestable object IDs, most popular first.
	Objects []string
	// ZipfS is the Zipf skew exponent: object i (0-based) has weight
	// 1/(i+1)^ZipfS. Zero means uniform popularity.
	ZipfS float64
	// ArrivalsPerSecond is the Poisson arrival rate.
	ArrivalsPerSecond float64

	// Flash crowds: when BurstSize > 1 and BurstEvery > 0, every
	// BurstEvery of generated time the Poisson process is interrupted by
	// BurstSize simultaneous requests for one title drawn uniformly from
	// the Zipf head (the first BurstHead objects; 0 means 1) — a
	// premiere or a live-event start, the arrival pattern batched
	// admission exists for.
	BurstSize  int
	BurstEvery time.Duration
	BurstHead  int
}

// Generator produces a reproducible request stream.
type Generator struct {
	rng  *rand.Rand
	cfg  Config
	cdf  []float64
	last time.Duration

	// Flash-crowd state: the next burst instant, and the remainder of a
	// burst in progress (all at g.last, all for burstTitle).
	nextBurst  time.Duration
	burstLeft  int
	burstTitle string
}

// New creates a Generator.
func New(cfg Config) (*Generator, error) {
	if len(cfg.Objects) == 0 {
		return nil, errors.New("workload: no objects")
	}
	if cfg.ZipfS < 0 {
		return nil, fmt.Errorf("workload: negative Zipf skew %v", cfg.ZipfS)
	}
	if cfg.ArrivalsPerSecond <= 0 {
		return nil, fmt.Errorf("workload: arrival rate %v must be positive", cfg.ArrivalsPerSecond)
	}
	if cfg.BurstSize > 1 && cfg.BurstEvery <= 0 {
		return nil, fmt.Errorf("workload: burst size %d needs a positive burst interval", cfg.BurstSize)
	}
	g := &Generator{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg, nextBurst: cfg.BurstEvery}
	g.cdf = make([]float64, len(cfg.Objects))
	total := 0.0
	for i := range cfg.Objects {
		total += 1 / math.Pow(float64(i+1), cfg.ZipfS)
		g.cdf[i] = total
	}
	for i := range g.cdf {
		g.cdf[i] /= total
	}
	return g, nil
}

// Pick draws one object ID from the popularity distribution.
func (g *Generator) Pick() string {
	u := g.rng.Float64()
	i := sort.SearchFloat64s(g.cdf, u)
	if i >= len(g.cfg.Objects) {
		i = len(g.cfg.Objects) - 1
	}
	return g.cfg.Objects[i]
}

// pickHead draws one object uniformly from the Zipf head (the first
// BurstHead objects).
func (g *Generator) pickHead() string {
	head := g.cfg.BurstHead
	if head < 1 {
		head = 1
	}
	if head > len(g.cfg.Objects) {
		head = len(g.cfg.Objects)
	}
	return g.cfg.Objects[g.rng.Intn(head)]
}

// Next returns the next request; inter-arrival times are exponential
// with the configured rate, except when a flash-crowd burst fires: its
// BurstSize requests all carry the burst instant and the same title.
func (g *Generator) Next() Request {
	if g.burstLeft > 0 {
		g.burstLeft--
		return Request{At: g.last, ObjectID: g.burstTitle}
	}
	gap := g.rng.ExpFloat64() / g.cfg.ArrivalsPerSecond
	at := g.last + time.Duration(gap*float64(time.Second))
	if g.cfg.BurstSize > 1 && at >= g.nextBurst {
		g.last = g.nextBurst
		g.nextBurst += g.cfg.BurstEvery
		g.burstTitle = g.pickHead()
		g.burstLeft = g.cfg.BurstSize - 1
		return Request{At: g.last, ObjectID: g.burstTitle}
	}
	g.last = at
	return Request{At: g.last, ObjectID: g.Pick()}
}

// Generate returns the next n requests.
func (g *Generator) Generate(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// ObjectNames returns n IDs of the form prefix0..prefixN-1.
func ObjectNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}
