// Package analytic implements the paper's closed-form comparison model
// (§5, equations (1)-(15)): storage overhead, bandwidth overhead, mean
// time to catastrophic failure (MTTF), mean time to degradation of
// service (MTTDS), maximum simultaneously supported streams N_p, and
// buffer-space requirement BF_p for each of the four schemes
// p ∈ {SR, SG, NC, IB}.
//
// A catastrophic failure is two disks failing in the same parity group
// (data must be rebuilt from tertiary storage); degradation of service is
// running out of the resource a scheme holds in reserve (buffer servers
// for Non-clustered, spare disk bandwidth for Improved-bandwidth), which
// forces active streams to be terminated.
//
// Rounding convention: the paper floors N before deriving the buffer
// counts and reports buffer totals rounded up; Metrics follows the same
// convention so that Tables 2 and 3 are reproduced digit-for-digit, while
// the real-valued functions remain available for the cost model.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"ftmm/internal/diskmodel"
	"ftmm/internal/units"
)

// Scheme identifies one of the four fault-tolerance schemes the paper
// compares.
type Scheme int

const (
	// StreamingRAID (SR, §2): fixed clusters of C disks, one dedicated
	// parity disk; every cycle reads a whole parity group per stream and
	// delivers it in the next cycle (k = k' = C-1).
	StreamingRAID Scheme = iota
	// StaggeredGroup (SG, §2): same layout as SR, but the parity group
	// read in one (short) cycle is delivered over the following C-1
	// cycles (k = C-1, k' = 1), halving memory.
	StaggeredGroup
	// NonClustered (NC, §3): same layout; normal mode reads only the
	// tracks delivered next cycle (k = k' = 1) and switches a cluster to
	// degraded (group-at-a-time) mode only after a failure, accepting a
	// brief transition with hiccups; degraded clusters borrow memory from
	// a shared pool of K buffer servers.
	NonClustered
	// ImprovedBandwidth (IB, §4): parity of cluster i is intermixed with
	// the data disks of cluster i+1, so no bandwidth idles in normal
	// mode; failures are masked by a chained "shift to the right" into K
	// reserved disks' worth of bandwidth (k = k' = C-1).
	ImprovedBandwidth
	// DeclusteredParity (DC): parity groups keep size C but are mapped
	// onto block-design subsets of a larger G-drive declustering group,
	// so rebuilding a failed drive reads every survivor at rate
	// (C-1)/(G-1) instead of saturating C-1 cluster mates. Normal-mode
	// behaviour matches SR (k = k' = C-1); the win is the rebuild
	// window and degraded-mode load spreading.
	DeclusteredParity
)

// Schemes lists the paper's four schemes in its presentation order.
// The golden tables and the paper-reproduction experiments iterate this
// set; declustered parity, the extension beyond the paper, is not in it.
func Schemes() []Scheme {
	return []Scheme{StreamingRAID, StaggeredGroup, NonClustered, ImprovedBandwidth}
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case StreamingRAID:
		return "Streaming RAID"
	case StaggeredGroup:
		return "Staggered-group"
	case NonClustered:
		return "Non-clustered"
	case ImprovedBandwidth:
		return "Improved-bandwidth"
	case DeclusteredParity:
		return "Declustered-parity"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Abbrev returns the two-letter tag used in the paper (§5).
func (s Scheme) Abbrev() string {
	switch s {
	case StreamingRAID:
		return "SR"
	case StaggeredGroup:
		return "SG"
	case NonClustered:
		return "NC"
	case ImprovedBandwidth:
		return "IB"
	case DeclusteredParity:
		return "DC"
	default:
		return "??"
	}
}

// Config is one system design point: a disk farm of D drives organized
// into parity groups of size C, serving objects of bandwidth ObjectRate.
type Config struct {
	// Disk holds the drive parameters (Table 1 by default).
	Disk diskmodel.Params
	// ObjectRate is b0, the constant delivery bandwidth of one object.
	ObjectRate units.Rate
	// D is the total number of disks in the system.
	D int
	// C is the parity-group (cluster) size, parity disk included.
	C int
	// K is the reserve depth: the number of buffer servers for the
	// Non-clustered scheme and the disks' worth of reserved bandwidth,
	// K_IB, for the Improved-bandwidth scheme. The paper's Tables 2-3 use
	// K = 3 and its Figure 9 / §5 sizing example use K = 5.
	K int
	// G is the declustering group size for the DeclusteredParity scheme
	// (the number of drives each size-C parity group is declustered
	// over). Zero defaults to 2C-1, the smallest group that halves the
	// rebuild window. Ignored by the four clustered schemes.
	G int
}

// DeclusterGroup returns the effective G: the configured value, or the
// 2C-1 default.
func (c Config) DeclusterGroup() int {
	if c.G > 0 {
		return c.G
	}
	return 2*c.C - 1
}

// Table1Config returns the paper's Table 1 design point for a given
// cluster size and reserve depth: b0 = 1.5 Mb/s, B = 50 KB,
// Tseek = 25 ms, Ttrk = 20 ms, D = 100 disks.
func Table1Config(c, k int) Config {
	return Config{
		Disk:       diskmodel.Table1(),
		ObjectRate: units.MPEG1,
		D:          100,
		C:          c,
		K:          k,
	}
}

// Validate reports whether the design point is well-formed.
func (c Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	switch {
	case c.ObjectRate <= 0:
		return errors.New("analytic: object rate must be positive")
	case c.C < 2:
		return fmt.Errorf("analytic: parity group size C=%d must be >= 2", c.C)
	case c.D < c.C:
		return fmt.Errorf("analytic: D=%d must be at least C=%d", c.D, c.C)
	case c.K < 0:
		return fmt.Errorf("analytic: reserve depth K=%d must be >= 0", c.K)
	case c.K > c.D:
		return fmt.Errorf("analytic: reserve depth K=%d exceeds D=%d", c.K, c.D)
	case c.G != 0 && c.G < c.C:
		return fmt.Errorf("analytic: declustering group G=%d must be >= C=%d", c.G, c.C)
	case c.G != 0 && c.G > c.D:
		return fmt.Errorf("analytic: declustering group G=%d exceeds D=%d", c.G, c.D)
	}
	return nil
}

// ReadGroup returns (k, k') for the scheme: the tracks read per stream
// per read cycle and transmitted per stream per cycle.
func (c Config) ReadGroup(s Scheme) (k, kPrime int) {
	switch s {
	case StreamingRAID, ImprovedBandwidth, DeclusteredParity:
		return c.C - 1, c.C - 1
	case StaggeredGroup:
		return c.C - 1, 1
	case NonClustered:
		return 1, 1
	default:
		return 0, 0
	}
}

// DataDisks returns D', the number of disks data is read from in normal
// operation: (C-1)/C·D for the dedicated-parity schemes and D - K_IB for
// Improved-bandwidth (whose parity is intermixed but which holds K disks'
// worth of bandwidth in reserve).
func (c Config) DataDisks(s Scheme) float64 {
	if s == ImprovedBandwidth {
		return float64(c.D - c.K)
	}
	return float64(c.C-1) / float64(c.C) * float64(c.D)
}

// StorageOverheadFrac returns the fraction of raw disk storage dedicated
// to parity: 1/C for every scheme (equation (1): S_p = s_d·D/C).
func (c Config) StorageOverheadFrac(Scheme) float64 {
	return 1 / float64(c.C)
}

// StorageOverhead returns S_p, the absolute parity storage (equation (1)).
func (c Config) StorageOverhead(s Scheme) units.ByteSize {
	frac := c.StorageOverheadFrac(s)
	return units.ByteSize(frac * float64(c.D) * float64(c.Disk.Capacity))
}

// BandwidthOverheadFrac returns the fraction of aggregate disk bandwidth
// unavailable for delivering data in normal operation: 1/C for the
// dedicated-parity schemes (equation (2)); K_IB/D for Improved-bandwidth
// (equation (3)), which otherwise uses all disks.
func (c Config) BandwidthOverheadFrac(s Scheme) float64 {
	if s == ImprovedBandwidth {
		return float64(c.K) / float64(c.D)
	}
	return 1 / float64(c.C)
}

// BandwidthOverhead returns BW_p in absolute terms.
func (c Config) BandwidthOverhead(s Scheme) units.Rate {
	d := c.Disk.EffectiveBandwidth()
	return units.Rate(c.BandwidthOverheadFrac(s) * float64(c.D) * float64(d))
}

// MTTFCatastrophic returns the mean time until two disks fail in the same
// parity group (equations (4)-(5)):
//
//	SR/SG/NC: MTTF(disk)² / (D·(C-1)·MTTR)
//	IB:       MTTF(disk)² / (D·(2C-1)·MTTR)
//
// The IB exposure is larger because each disk belongs to two parity
// groups (data for its own cluster, parity for the one to its left).
// The intermixed placement itself pairs a disk with 3(C-1) others
// (layout.Layout.SharesGroup; EXP-MC measures the difference).
func (c Config) MTTFCatastrophic(s Scheme) units.Years {
	mttf, mttr := c.Disk.MTTFHours, c.Disk.MTTRHours
	if mttf <= 0 || mttr <= 0 {
		return units.Years(math.Inf(1))
	}
	exposure := float64(c.C - 1)
	switch s {
	case ImprovedBandwidth:
		exposure = float64(2*c.C - 1)
	case DeclusteredParity:
		// Declustering widens the exposure: a second failure anywhere in
		// the G-drive declustering group is catastrophic (λ ≥ 1 — every
		// drive pair shares at least one block). But the repair window
		// shrinks by the same factor the exposure grew: the rebuild reads
		// every survivor at (C-1)/(G-1) of the clustered rate, so
		// (G-1) · MTTR·(C-1)/(G-1) = (C-1)·MTTR and the catastrophic
		// MTTF lands exactly on Streaming RAID's.
		g := float64(c.DeclusterGroup())
		exposure = (g - 1) * (float64(c.C-1) / (g - 1))
	}
	hours := mttf * mttf / (float64(c.D) * exposure * mttr)
	return units.YearsFromHours(hours)
}

// RebuildWindowFrac returns the rebuild window of the scheme relative
// to Streaming RAID's at equal farm size: the bottleneck survivor's
// read load per lost track. The clustered schemes concentrate the whole
// rebuild on C-1 drives (ratio 1); declustered parity spreads it over
// G-1 survivors at rate (C-1)/(G-1).
func (c Config) RebuildWindowFrac(s Scheme) float64 {
	if s != DeclusteredParity {
		return 1
	}
	return float64(c.C-1) / float64(c.DeclusterGroup()-1)
}

// MTTDS returns the mean time to degradation of service. For SR and SG it
// equals the catastrophic MTTF (losing data is the only way those schemes
// degrade). For NC and IB it is the mean time until K overlapping disk
// failures exhaust the reserve of K buffer servers (NC) or K disks' worth
// of spare bandwidth (IB), per equation (6):
//
//	MTTF(disk)^K / (D·(D-1)·…·(D-K+1)·MTTR^(K-1))
func (c Config) MTTDS(s Scheme) units.Years {
	if s == StreamingRAID || s == StaggeredGroup || s == DeclusteredParity {
		// Like SR/SG, declustered parity holds no reserve: losing data
		// is the only way it degrades.
		return c.MTTFCatastrophic(s)
	}
	mttf, mttr := c.Disk.MTTFHours, c.Disk.MTTRHours
	if mttf <= 0 || mttr <= 0 {
		return units.Years(math.Inf(1))
	}
	if c.K == 0 {
		// No reserve at all: the first failure in the farm degrades
		// service, so MTTDS is the time to first failure, MTTF/D.
		return units.YearsFromHours(mttf / float64(c.D))
	}
	// The paper's equation (6) writes the product over K terms,
	// D·(D-1)·…·(D-K+1), with exponents K and K-1; its Table 2/3 values
	// (3 176 862.3 years at D=100, K=3) match that literal form, which
	// models "the K-th overlapping failure finds the reserve empty".
	hours := math.Pow(mttf, float64(c.K))
	for i := 0; i < c.K; i++ {
		hours /= float64(c.D - i)
	}
	hours /= math.Pow(mttr, float64(c.K-1))
	return units.YearsFromHours(hours)
}

// MaxStreams returns the real-valued N_p of equations (8)-(11): the
// per-disk bound of the disk model times D'.
func (c Config) MaxStreams(s Scheme) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	k, kPrime := c.ReadGroup(s)
	perDisk, err := c.Disk.StreamsPerDisk(k, kPrime, c.ObjectRate)
	if err != nil {
		return 0, err
	}
	return perDisk * c.DataDisks(s), nil
}

// MaxStreamsInt returns ⌊N_p⌋ as the paper's tables report it.
func (c Config) MaxStreamsInt(s Scheme) (int, error) {
	n, err := c.MaxStreams(s)
	if err != nil {
		return 0, err
	}
	return int(math.Floor(n + 1e-9)), nil
}

// bufferTracksFromN returns BF_p in tracks for a given stream count
// (equations (12)-(15)). n may be real-valued (cost model) or the floored
// table value.
func (c Config) bufferTracksFromN(s Scheme, n float64) float64 {
	C := float64(c.C)
	switch s {
	case StreamingRAID, DeclusteredParity:
		// A parity group (C tracks) is read while the previous one (C
		// more) drains: 2C buffers per stream. Declustering changes
		// which drives hold the group, not how much of it is staged.
		return 2 * C * n
	case StaggeredGroup:
		// Per group of C-1 staggered streams the peak occupancies are
		// (C+1)+(C-1)+(C-2)+…+3+2 = C(C+1)/2 (the Figure 4 sawtooth:
		// streams at different phases are at different ebbs).
		return n / (C - 1) * C * (C + 1) / 2
	case NonClustered:
		// 2 buffers per stream in normal mode, plus K clusters' worth of
		// staggered-group buffering held by the shared buffer servers for
		// degraded-mode operation. Clusters: D'/C.
		normal := 2 * n
		perClusterDegraded := c.bufferTracksFromN(StaggeredGroup, n) / (c.DataDisks(StaggeredGroup) / C)
		return normal + perClusterDegraded*float64(c.K)
	case ImprovedBandwidth:
		// As SR but no parity buffering: 2(C-1) per stream.
		return 2 * (C - 1) * n
	default:
		return 0
	}
}

// BufferTracks returns the real-valued BF_p in tracks for the scheme's
// maximum stream load.
func (c Config) BufferTracks(s Scheme) (float64, error) {
	n, err := c.MaxStreams(s)
	if err != nil {
		return 0, err
	}
	return c.bufferTracksFromN(s, n), nil
}

// BufferTracksInt returns BF_p the way the paper's tables do: computed
// from the floored stream count and rounded up to whole tracks.
func (c Config) BufferTracksInt(s Scheme) (int, error) {
	n, err := c.MaxStreamsInt(s)
	if err != nil {
		return 0, err
	}
	return int(math.Ceil(c.bufferTracksFromN(s, float64(n)) - 1e-9)), nil
}

// BufferBytes converts BufferTracks into bytes of main memory.
func (c Config) BufferBytes(s Scheme) (units.ByteSize, error) {
	tr, err := c.BufferTracks(s)
	if err != nil {
		return 0, err
	}
	return units.ByteSize(tr * float64(c.Disk.TrackSize)), nil
}

// BufferTracksForStreams returns BF_p in tracks when only n streams are
// active (used by the cost model, which sizes memory for the required
// load rather than the maximum).
func (c Config) BufferTracksForStreams(s Scheme, n float64) float64 {
	return c.bufferTracksFromN(s, n)
}

// Metrics is one column of the paper's Tables 2 and 3.
type Metrics struct {
	Scheme                Scheme
	StorageOverheadFrac   float64     // of raw storage, e.g. 0.20
	BandwidthOverheadFrac float64     // of aggregate bandwidth
	MTTF                  units.Years // catastrophic
	MTTDS                 units.Years // degradation of service
	Streams               int         // ⌊N_p⌋
	BufferTracks          int         // ⌈BF_p⌉, in tracks
	RebuildWindow         float64     // rebuild window relative to SR's
}

// Metrics evaluates every Table 2/3 row for one scheme.
func (c Config) Metrics(s Scheme) (Metrics, error) {
	streams, err := c.MaxStreamsInt(s)
	if err != nil {
		return Metrics{}, err
	}
	buffers, err := c.BufferTracksInt(s)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Scheme:                s,
		StorageOverheadFrac:   c.StorageOverheadFrac(s),
		BandwidthOverheadFrac: c.BandwidthOverheadFrac(s),
		MTTF:                  c.MTTFCatastrophic(s),
		MTTDS:                 c.MTTDS(s),
		Streams:               streams,
		BufferTracks:          buffers,
		RebuildWindow:         c.RebuildWindowFrac(s),
	}, nil
}

// AllMetrics evaluates Metrics for all four schemes in order.
func (c Config) AllMetrics() ([]Metrics, error) {
	out := make([]Metrics, 0, 4)
	for _, s := range Schemes() {
		m, err := c.Metrics(s)
		if err != nil {
			return nil, fmt.Errorf("analytic: %s: %w", s, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// ClusterMTTFYears returns the §2 example quantity: the MTTF of *some*
// disk in a D-disk system, MTTF(disk)/D, in years. With 1000 drives of
// 300,000 h this is the "300 hours (approximately 12 days)" figure,
// returned in years for consistency.
func (c Config) ClusterMTTFYears() units.Years {
	if c.D <= 0 {
		return units.Years(math.Inf(1))
	}
	return units.YearsFromHours(c.Disk.MTTFHours / float64(c.D))
}
