// Package server assembles the full multimedia on-demand server of the
// paper's Figure 1: a tertiary tape library holding the permanent
// database, a disk farm staging the working set, a fault-tolerance scheme
// engine scheduling cycle-based delivery, and admission control. It is
// the top-level public surface the examples and benchmarks drive.
//
// A Request stages the title from tape if needed (evicting cold titles),
// pins it, and admits a stream under the active scheme's bandwidth
// budget. Step advances one scheduling cycle. Failures are injected with
// FailDisk and repaired three ways — RepairDisk (instantly, from parity),
// StartOnlineRebuild (from parity, a few tracks per cycle) and
// RebuildFromTertiary (from tape) — which all end by telling the engine
// the drive is whole again.
package server

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"ftmm/internal/analytic"
	"ftmm/internal/catalog"
	"ftmm/internal/disk"
	"ftmm/internal/diskmodel"
	"ftmm/internal/layout"
	"ftmm/internal/metrics"
	"ftmm/internal/rebuild"
	"ftmm/internal/sched"
	"ftmm/internal/schemes"
	"ftmm/internal/tertiary"
	"ftmm/internal/units"
)

// Options configures a Server.
type Options struct {
	// Disks and ClusterSize shape the farm (Disks must be a whole number
	// of clusters).
	Disks, ClusterSize int
	// DiskParams are the drive characteristics (Table 1 if zero).
	DiskParams diskmodel.Params
	// Scheme selects the fault-tolerance scheme.
	Scheme analytic.Scheme
	// Rate is the uniform object bandwidth b0 (MPEG-1 if zero).
	Rate units.Rate
	// K is the reserve depth: buffer servers for Non-clustered, disks'
	// worth of reserved bandwidth for Improved-bandwidth.
	K int
	// DeclusterGroup is G, the declustering group size, for the
	// Declustered-parity scheme: parity groups of ClusterSize drives are
	// mapped onto block-design subsets of G-drive groups. 0 defaults to
	// 2·ClusterSize-1 (halving the rebuild window); ignored by the other
	// schemes. Disks must be a whole number of declustering groups.
	DeclusterGroup int
	// NCPolicy selects the Non-clustered transition policy.
	NCPolicy schemes.TransitionPolicy
	// Tertiary configures the tape library (DefaultConfig if zero).
	Tertiary tertiary.Config
	// SlotsPerDisk optionally overrides the per-disk per-cycle budget.
	SlotsPerDisk int
	// Metrics receives the engine's instruments; nil installs a fresh
	// registry (exposed via Metrics/MetricsSnapshot).
	Metrics *metrics.Registry
}

func (o *Options) fillDefaults() {
	if o.DiskParams == (diskmodel.Params{}) {
		o.DiskParams = diskmodel.Table1()
	}
	if o.Rate == 0 {
		o.Rate = units.MPEG1
	}
	if o.Tertiary == (tertiary.Config{}) {
		o.Tertiary = tertiary.DefaultConfig()
	}
	if o.Metrics == nil {
		o.Metrics = metrics.New()
	}
}

var (
	// ErrRejected marks admission failures: the active scheme's bandwidth
	// budget cannot fit another stream right now. Retrying after streams
	// finish can succeed; front-ends translate this into Retry-After.
	ErrRejected = errors.New("server: admission rejected")
	// ErrDraining marks admissions refused because the server is shutting
	// down gracefully (BeginDrain): existing streams play out, new ones
	// are turned away.
	ErrDraining = errors.New("server: draining, not admitting")
)

// Stats aggregates a server's lifetime activity.
type Stats struct {
	Cycles          int
	QueuedAdmitted  int
	Delivered       int
	Hiccups         int
	Reconstructions int
	Finished        int
	Terminated      int
	DataReads       int
	ParityReads     int
	BufferPeak      int // tracks
	Stagings        int
	Evictions       int
}

// Server is one multimedia on-demand server.
type Server struct {
	opts   Options
	farm   *disk.Farm
	lib    *tertiary.Library
	cat    *catalog.Catalog
	engine schemes.Simulator

	// object IDs by engine stream ID, for unpinning.
	objOf map[int]string
	stats Stats
	// staging accumulates simulated tertiary time spent.
	staging time.Duration
	// rebuilder, when non-nil, is an online rebuild in progress.
	rebuilder     *rebuild.Rebuilder
	rebuildDrive  int
	rebuildBudget int
	// rebuildAbort says why the last online rebuild was abandoned, until
	// TakeRebuildAbort hands it to whoever logs it.
	rebuildAbort error
	// pending holds queued admission requests (title IDs), FIFO.
	pending []string
	// draining, once set, refuses all new admissions (graceful shutdown).
	draining bool
}

// rebuiltNotifier is implemented by engines that track per-cluster
// degraded state (Non-clustered, which must also release its buffer
// server) and must learn when a drive's contents are whole again.
type rebuiltNotifier interface {
	OnDriveRebuilt(int) error
}

// New builds a server. The tape library starts empty; use AddTitle.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	lib, err := tertiary.NewLibrary(opts.Tertiary)
	if err != nil {
		return nil, err
	}
	// Under declustered parity the farm's clusters are the G-drive
	// declustering groups; ClusterSize stays the parity group size C.
	farmCluster := opts.ClusterSize
	if opts.Scheme == analytic.DeclusteredParity {
		if opts.DeclusterGroup == 0 {
			opts.DeclusterGroup = 2*opts.ClusterSize - 1
		}
		farmCluster = opts.DeclusterGroup
	}
	farm, err := disk.NewFarm(opts.Disks, farmCluster, opts.DiskParams)
	if err != nil {
		return nil, err
	}
	var cat *catalog.Catalog
	if opts.Scheme == analytic.DeclusteredParity {
		cat, err = catalog.NewDeclustered(lib, farm, opts.ClusterSize)
	} else {
		placement := layout.DedicatedParity
		if opts.Scheme == analytic.ImprovedBandwidth {
			placement = layout.IntermixedParity
		}
		cat, err = catalog.New(lib, farm, placement)
	}
	if err != nil {
		return nil, err
	}
	cfg := schemes.Config{
		Farm: farm, Layout: cat.Layout(), Rate: opts.Rate,
		SlotsPerDisk: opts.SlotsPerDisk,
		Metrics:      opts.Metrics,
	}
	var engine schemes.Simulator
	switch opts.Scheme {
	case analytic.StreamingRAID:
		engine, err = schemes.NewStreamingRAID(cfg)
	case analytic.StaggeredGroup:
		engine, err = schemes.NewStaggeredGroup(cfg)
	case analytic.NonClustered:
		engine, err = schemes.NewNonClustered(cfg, opts.NCPolicy, opts.K)
	case analytic.ImprovedBandwidth:
		engine, err = schemes.NewImprovedBandwidth(cfg, ibReserveSlots(opts))
	case analytic.DeclusteredParity:
		engine, err = schemes.NewDeclustered(cfg)
	default:
		return nil, fmt.Errorf("server: unknown scheme %v", opts.Scheme)
	}
	if err != nil {
		return nil, err
	}
	return &Server{
		opts: opts, farm: farm, lib: lib, cat: cat, engine: engine,
		objOf: make(map[int]string),
	}, nil
}

// ibReserveSlots converts the paper's "K disks' worth of bandwidth" into
// a per-drive slot reserve: ceil(slots·K/D), at least 1 when K > 0.
func ibReserveSlots(opts Options) int {
	if opts.K <= 0 {
		return 0
	}
	slots := opts.SlotsPerDisk
	if slots == 0 {
		window := opts.DiskParams.CycleTime(opts.ClusterSize-1, opts.Rate)
		slots = opts.DiskParams.TrackBudget(window)
	}
	r := (slots*opts.K + opts.Disks - 1) / opts.Disks
	if r < 1 {
		r = 1
	}
	if r >= slots {
		r = slots - 1
	}
	return r
}

// Library exposes the tape library (e.g. for pre-loading a catalog).
func (s *Server) Library() *tertiary.Library { return s.lib }

// Farm exposes the disk subsystem.
func (s *Server) Farm() *disk.Farm { return s.farm }

// Engine exposes the scheme engine.
func (s *Server) Engine() schemes.Simulator { return s.engine }

// Catalog exposes residency state.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// AddTitle archives a title with deterministic synthetic content of the
// given size onto the given tape.
func (s *Server) AddTitle(id string, size units.ByteSize, tape int, content []byte) error {
	if content == nil {
		return errors.New("server: nil content; generate it with workload.SyntheticContent")
	}
	if units.ByteSize(len(content)) != size {
		return fmt.Errorf("server: content is %d bytes, size says %d", len(content), int64(size))
	}
	return s.lib.Store(id, tape, content)
}

// Request admits a new stream for the title, staging it from tertiary
// storage if it is not disk-resident. It returns the stream ID and the
// simulated staging latency (zero for resident titles).
func (s *Server) Request(id string) (int, time.Duration, error) {
	return s.RequestAt(id, 0)
}

// RequestAt admits a new stream whose delivery begins at the given
// parity group (group 0 is a plain Request). The cluster layer's session
// failover rides on it: a client that lost its node resumes on a replica
// from the group boundary at or before its next owed track. Staging and
// pinning match Request; a start group outside the title's extent is an
// error, not a rejection.
func (s *Server) RequestAt(id string, startGroup int) (int, time.Duration, error) {
	if s.draining {
		return 0, 0, ErrDraining
	}
	obj, cost, err := s.cat.Ensure(id, s.opts.Rate)
	if err != nil {
		return 0, 0, err
	}
	if startGroup < 0 || startGroup >= len(obj.Groups) {
		return 0, cost, fmt.Errorf("server: start group %d outside [0,%d) of %s", startGroup, len(obj.Groups), id)
	}
	streamID, err := s.engine.AddStreamAt(obj, startGroup)
	if err != nil {
		return 0, cost, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if err := s.cat.Pin(id); err != nil {
		return 0, cost, err
	}
	s.objOf[streamID] = id
	s.staging += cost
	if cost > 0 {
		s.stats.Stagings++
	}
	return streamID, cost, nil
}

// Step advances one scheduling cycle and folds the report into the
// server's stats. Finished and terminated streams unpin their titles.
// An online rebuild that cannot continue does not fail the cycle: see
// stepRebuild.
func (s *Server) Step() (*sched.CycleReport, error) {
	s.drainQueue()
	rep, err := s.engine.Step()
	if err != nil {
		return nil, err
	}
	s.stats.Cycles++
	s.stats.Delivered += len(rep.Delivered)
	s.stats.Hiccups += len(rep.Hiccups)
	s.stats.Reconstructions += rep.Reconstructions
	s.stats.DataReads += rep.DataReads
	s.stats.ParityReads += rep.ParityReads
	s.stats.Finished += len(rep.Finished)
	s.stats.Terminated += len(rep.Terminated)
	if p := s.engine.BufferPeak(); p > s.stats.BufferPeak {
		s.stats.BufferPeak = p
	}
	for _, id := range rep.Finished {
		s.release(id)
	}
	for _, id := range rep.Terminated {
		s.release(id)
	}
	if err := s.stepRebuild(rep.Cycle); err != nil {
		return nil, err
	}
	return rep, nil
}

func (s *Server) release(streamID int) {
	if objID, ok := s.objOf[streamID]; ok {
		_ = s.cat.Unpin(objID)
		delete(s.objOf, streamID)
	}
}

// RunFor advances n cycles.
func (s *Server) RunFor(n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilIdle advances until no stream is active (bounded by maxCycles).
func (s *Server) RunUntilIdle(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if s.engine.Active() == 0 {
			return nil
		}
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	if s.engine.Active() != 0 {
		return fmt.Errorf("server: %d streams still active after %d cycles", s.engine.Active(), maxCycles)
	}
	return nil
}

// FailDisk injects a drive failure at the next cycle boundary.
func (s *Server) FailDisk(id int) error { return s.engine.FailDisk(id) }

// RepairDisk replaces a failed drive and rebuilds its contents from the
// surviving parity groups at once: an online rebuild with an unbounded
// budget.
func (s *Server) RepairDisk(id int) error {
	drv, err := s.farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Replace(); err != nil {
		return err
	}
	r, err := rebuild.New(s.farm, s.cat.Layout(), id)
	if err != nil {
		return err
	}
	if _, err := r.Step(math.MaxInt); err != nil {
		return err
	}
	return s.driveRestored(id)
}

// driveRestored is the one tail of every restore path — instant repair,
// online-rebuild completion, tertiary reload: the drive's contents are
// whole again, and an engine that tracks degraded state is told so.
func (s *Server) driveRestored(id int) error {
	if n, ok := s.engine.(rebuiltNotifier); ok {
		return n.OnDriveRebuilt(id)
	}
	return nil
}

// StartOnlineRebuild replaces a failed drive and begins restoring its
// contents incrementally — the paper's rebuild mode — spending at most
// readBudget spare track reads per cycle. Until the rebuild completes
// the scheme keeps operating degraded; Step advances the rebuild
// alongside normal service and notifies the engine on completion.
func (s *Server) StartOnlineRebuild(id, readBudget int) error {
	if s.rebuilder != nil && !s.rebuilder.Done() {
		return fmt.Errorf("server: a rebuild of drive %d is already running", s.rebuildDrive)
	}
	drv, err := s.farm.Drive(id)
	if err != nil {
		return err
	}
	if drv.State() == disk.Failed {
		if err := drv.Replace(); err != nil {
			return err
		}
	}
	r, err := rebuild.New(s.farm, s.cat.Layout(), id)
	if err != nil {
		return err
	}
	if r.CyclesNeeded(readBudget) < 0 {
		return fmt.Errorf("server: rebuild budget %d below the %d reads one track needs", readBudget, r.ReadsPerTrack())
	}
	s.rebuilder, s.rebuildDrive, s.rebuildBudget = r, id, readBudget
	return nil
}

// RebuildRemaining returns the tracks left in the online rebuild, or 0.
func (s *Server) RebuildRemaining() int {
	if s.rebuilder == nil {
		return 0
	}
	return s.rebuilder.Remaining()
}

// TakeRebuildAbort returns why the last online rebuild was abandoned, or
// nil, and forgets it: each abort is reported once.
func (s *Server) TakeRebuildAbort() error {
	err := s.rebuildAbort
	s.rebuildAbort = nil
	return err
}

// stepRebuild advances an in-progress online rebuild by one cycle.
//
// A rebuild step fails when a drive it reads from has failed too — a
// second failure in the parity groups being restored. Such a rebuild is
// abandoned, not retried: every later step would fail the same way. The
// replacement drive's unwritten tracks read as disk.ErrEmptyTrack, so the
// engine reconstructs or hiccups around them exactly as at any two-failure
// boundary, and a later StartOnlineRebuild or RebuildFromTertiary can
// still restore the drive. The abort counts in rebuild_aborted.
func (s *Server) stepRebuild(cycle int) error {
	if s.rebuilder == nil || s.rebuilder.Done() {
		return nil
	}
	if _, err := s.rebuilder.Step(s.rebuildBudget); err != nil {
		s.rebuilder = nil
		s.opts.Metrics.Counter("rebuild_aborted").Inc()
		s.rebuildAbort = fmt.Errorf("server: online rebuild of drive %d abandoned at cycle %d: %w", s.rebuildDrive, cycle, err)
		return nil
	}
	if s.rebuilder.Done() {
		s.rebuilder = nil
		return s.driveRestored(s.rebuildDrive)
	}
	return nil
}

// RebuildFromTertiary restores a replaced drive by re-staging the
// affected objects from tape instead of from parity — what a catastrophic
// failure forces — and returns the simulated tertiary time it cost. The
// whole objects touching the drive are re-fetched ("portions of many
// objects to be loaded ... many tapes may need to be referenced").
func (s *Server) RebuildFromTertiary(id int) (time.Duration, error) {
	drv, err := s.farm.Drive(id)
	if err != nil {
		return 0, err
	}
	if drv.State() == disk.Failed {
		if err := drv.Replace(); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	for _, obj := range s.cat.Layout().AllObjects() {
		if !slices.ContainsFunc(obj.Groups, func(g layout.Group) bool { return g.Touches(id) }) {
			continue
		}
		content, cost, err := s.lib.Fetch(obj.ID)
		if err != nil {
			return total, err
		}
		total += cost
		// Only this drive's tracks are written (parity re-encoded from the
		// tape view): healthy platters are left alone, and in a
		// multi-drive catastrophe the other failed drives' tracks stay
		// missing until their own rebuilds run.
		if _, err := layout.WriteObjectTolerant(s.farm, obj, content, id); err != nil {
			return total, err
		}
	}
	return total, s.driveRestored(id)
}

// Stats returns the lifetime aggregate counters, merging in catalog
// activity.
func (s *Server) Stats() Stats {
	st := s.stats
	stagings, evictions := s.cat.Stats()
	st.Stagings = stagings
	st.Evictions = evictions
	return st
}

// StagingTime returns the cumulative simulated tertiary latency.
func (s *Server) StagingTime() time.Duration { return s.staging }

// Metrics returns the engine's instrument registry.
func (s *Server) Metrics() *metrics.Registry { return s.opts.Metrics }

// MetricsSnapshot returns a point-in-time copy of every instrument.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.opts.Metrics.Snapshot() }

// BufferPeakBytes converts the engine's peak buffer occupancy to bytes.
func (s *Server) BufferPeakBytes() units.ByteSize {
	return units.ByteSize(s.engine.BufferPeak()) * s.opts.DiskParams.TrackSize
}

// CycleTime returns the engine's cycle duration.
func (s *Server) CycleTime() time.Duration { return s.engine.CycleTime() }

// GroupWidth returns C-1, the data tracks per parity group — the
// granularity RequestAt admits at and session resume rounds down to.
// Taken from the layout, not the farm: under declustered parity the
// farm's clusters are G-drive declustering groups while parity groups
// stay C wide.
func (s *Server) GroupWidth() int { return s.cat.Layout().GroupWidth() }

// Rate returns the uniform object bandwidth b0 streams play at.
func (s *Server) Rate() units.Rate { return s.opts.Rate }

// ParseScheme maps a command-line scheme name to its scheme and
// Non-clustered transition policy. Accepted: "sr"/"raid"/
// "streaming-raid", "sg"/"staggered", "nc"/"nc-alternate", "nc-simple",
// "ib"/"improved", "dc"/"declustered".
func ParseScheme(name string) (analytic.Scheme, schemes.TransitionPolicy, error) {
	switch strings.ToLower(name) {
	case "sr", "raid", "streaming-raid":
		return analytic.StreamingRAID, 0, nil
	case "sg", "staggered":
		return analytic.StaggeredGroup, 0, nil
	case "nc", "nc-alternate":
		return analytic.NonClustered, schemes.AlternateSwitchover, nil
	case "nc-simple":
		return analytic.NonClustered, schemes.SimpleSwitchover, nil
	case "ib", "improved":
		return analytic.ImprovedBandwidth, 0, nil
	case "dc", "declustered":
		return analytic.DeclusteredParity, 0, nil
	default:
		return 0, 0, fmt.Errorf("server: unknown scheme %q", name)
	}
}

// Cancel stops a stream (client hang-up) and unpins its title.
func (s *Server) Cancel(streamID int) error {
	if err := s.engine.CancelStream(streamID); err != nil {
		return err
	}
	s.release(streamID)
	return nil
}

// rateSetter is implemented by engines that support fast-forward: the
// whole-group engines (Streaming RAID, declustered parity) can change a
// stream's per-cycle group draw after admission.
type rateSetter interface {
	SetStreamRate(id, rate int) error
}

// SetStreamRate changes a live stream's playback multiplier (1 =
// normal, r > 1 = fast-forward at r× the per-cycle draw). A refusal
// because the farm cannot absorb the extra draw comes back wrapping
// ErrRejected — transient, worth a retry once capacity frees up; other
// errors (unknown stream, unsupported engine, bad rate) are permanent.
func (s *Server) SetStreamRate(streamID, rate int) error {
	rs, ok := s.engine.(rateSetter)
	if !ok {
		return errors.New("server: engine cannot change stream rates")
	}
	if err := rs.SetStreamRate(streamID, rate); err != nil {
		if errors.Is(err, schemes.ErrCapacity) {
			return fmt.Errorf("%w: %v", ErrRejected, err)
		}
		return err
	}
	return nil
}

// weightedActiver is implemented by engines whose streams can draw more
// than one k′ unit per cycle.
type weightedActiver interface {
	WeightedActive() int
}

// WeightedActive returns the farm's true per-cycle k′ draw: active
// streams weighted by their playback multiplier. For engines without
// fast-forward it equals Active.
func (s *Server) WeightedActive() int {
	if wa, ok := s.engine.(weightedActiver); ok {
		return wa.WeightedActive()
	}
	return s.engine.Active()
}

// QueueRequest admits the title's stream now if capacity allows, or
// parks the request to be retried each cycle — the paper's "terminated
// and rescheduled at a later time" discipline for requests that cannot
// be served immediately. Queued requests are retried in FIFO order at
// the start of every Step; QueuedRequests reports the backlog.
func (s *Server) QueueRequest(id string) (streamID int, queued bool, err error) {
	streamID, _, err = s.Request(id)
	if err == nil {
		return streamID, false, nil
	}
	// Only admission rejections queue; unknown titles, staging failures,
	// and drain refusals surface immediately.
	if errors.Is(err, ErrDraining) || !s.cat.Resident(id) {
		return 0, false, err
	}
	s.pending = append(s.pending, id)
	return 0, true, nil
}

// QueuedRequests returns the admission backlog length.
func (s *Server) QueuedRequests() int { return len(s.pending) }

// BeginDrain stops admitting new streams (Request and QueueRequest
// return ErrDraining, and parked queue entries stop retrying); existing
// streams keep playing to completion. The network layer uses this for
// graceful shutdown: pace out what was promised, promise nothing new.
func (s *Server) BeginDrain() { s.draining = true }

// Draining reports whether the server is refusing new admissions.
func (s *Server) Draining() bool { return s.draining }

// StreamTitle returns the title a live stream is delivering; ok is
// false once the stream has finished, terminated, or been cancelled.
func (s *Server) StreamTitle(streamID int) (string, bool) {
	id, ok := s.objOf[streamID]
	return id, ok
}

// ActiveStreamIDs returns the live stream IDs in ascending order.
func (s *Server) ActiveStreamIDs() []int {
	ids := make([]int, 0, len(s.objOf))
	for id := range s.objOf {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// StreamProgress reports how far a stream has played: the next track
// owed to the client and the object's total tracks. ok is false for
// streams the engine no longer knows.
func (s *Server) StreamProgress(streamID int) (next, total int, ok bool) {
	return s.engine.StreamProgress(streamID)
}

// drainQueue retries parked requests in order, stopping at the first
// that still does not fit (FIFO fairness).
func (s *Server) drainQueue() {
	for len(s.pending) > 0 {
		id := s.pending[0]
		if _, _, err := s.Request(id); err != nil {
			return
		}
		s.pending = s.pending[1:]
		s.stats.QueuedAdmitted++
	}
}
