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
// the drive is whole again. Apply takes the same faults by name, with
// the best-effort rules a fault schedule needs, and DriveLog records
// each cycle's faults, restores and abandoned rebuilds.
//
// A Server is not safe for concurrent use; the server's owner serializes
// calls (netserve under its mutex, a chaos run on its run goroutine).
// The owner owns everything the Server built with it: the disk farm, the
// engine's buffer pool and buffer servers take no lock. Only bytes cross
// goroutines, each over a happens-before edge the owner makes: platter
// views and made tracks reach fold workers and socket writers through
// channels, and the writers give arena buffers back under the arena's
// own lock.
package server

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	// SlotsPerDisk optionally overrides the per-disk per-cycle budget.
	SlotsPerDisk int
}

func (o *Options) fillDefaults() {
	if o.DiskParams == (diskmodel.Params{}) {
		o.DiskParams = diskmodel.Table1()
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
	// metrics is the registry the engine's instruments live in.
	metrics *metrics.Registry

	// object IDs by engine stream ID, for unpinning.
	objOf map[int]string
	stats Stats
	// staging accumulates simulated tertiary time spent.
	staging time.Duration
	// rebuilder, when non-nil, is an online rebuild in progress.
	rebuilder     *rebuild.Rebuilder
	rebuildDrive  int
	rebuildBudget int
	// driveLog is the drive log of the last Step's cycle; nextLog
	// gathers the entries of the cycle to come. Step swaps the two, so
	// the log reuses their arrays.
	driveLog, nextLog []DriveEvent
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
	lib, err := tertiary.NewLibrary(tertiary.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if opts.Scheme == analytic.DeclusteredParity {
		opts.DeclusterGroup = analytic.Config{C: opts.ClusterSize, G: opts.DeclusterGroup}.DeclusterGroup()
	}
	lay, err := NewLayout(opts.Scheme, opts.Disks, opts.ClusterSize, opts.DeclusterGroup, opts.DiskParams.TracksPerDisk())
	if err != nil {
		return nil, err
	}
	// Under declustered parity the farm's clusters are the G-drive groups.
	farm, err := disk.NewFarm(opts.Disks, lay.ClusterSize(), opts.DiskParams)
	if err != nil {
		return nil, err
	}
	cat, err := catalog.New(lib, farm, lay)
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	cfg := schemes.Config{
		Farm: farm, Layout: cat.Layout(), Rate: units.MPEG1,
		SlotsPerDisk: opts.SlotsPerDisk,
		Metrics:      reg,
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
		metrics: reg, objOf: make(map[int]string),
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
		window := opts.DiskParams.CycleTime(opts.ClusterSize-1, units.MPEG1)
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
	obj, cost, err := s.cat.Ensure(id, units.MPEG1)
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
// stepRebuild. Once Step returns, DriveLog holds the cycle's drive log.
func (s *Server) Step() (*sched.CycleReport, error) {
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
	if err := s.stepRebuild(); err != nil {
		return nil, err
	}
	for i := range s.nextLog {
		s.nextLog[i].Cycle = rep.Cycle
	}
	s.driveLog, s.nextLog = s.nextLog, s.driveLog[:0]
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

// FaultKind names a drive fault — a failure, or one of the three ways
// back — or one of the drive log's two outcomes. The scenario files
// spell the fault kinds the same way (chaos.EventKind).
type FaultKind string

const (
	FaultFail         FaultKind = "fail"           // at the next cycle boundary (FailDisk)
	FaultFailMidCycle FaultKind = "fail-mid-cycle" // halfway through the next cycle's reads (Improved-bandwidth only)
	FaultRepair       FaultKind = "repair"         // replace, and rebuild at once from parity (RepairDisk)
	FaultRebuild      FaultKind = "rebuild"        // replace, and rebuild online at Fault.Budget reads a cycle (StartOnlineRebuild)
	FaultTertiary     FaultKind = "tertiary"       // replace, and reload from tape (RebuildFromTertiary)

	// The drive log's two outcomes, which Apply does not take.
	RestoreEnded     FaultKind = "restored"          // a restore ended: the drive is Operational again
	RebuildAbandoned FaultKind = "rebuild-abandoned" // an online rebuild given up; the entry's Err says why
)

// Fault is one drive fault for Apply.
type Fault struct {
	Kind  FaultKind
	Drive int
	// Budget is a rebuild's spare track reads per cycle.
	Budget int
}

// DriveEvent is one entry of the drive log, stamped with the cycle it
// belongs to: a fault that took effect before that cycle's Step, a
// restore that ended (RestoreEnded), or an online rebuild abandoned in
// the Step (RebuildAbandoned, with Err).
type DriveEvent struct {
	Cycle int
	Kind  FaultKind
	Drive int
	Err   error
}

func (e DriveEvent) String() string {
	if e.Kind == RebuildAbandoned {
		return fmt.Sprintf("online rebuild of drive %d abandoned: %v", e.Drive, e.Err)
	}
	return fmt.Sprintf("drive %d: %s", e.Drive, e.Kind)
}

// DriveLog returns the drive log of the cycle the last Step ran, in
// order: every fault that took effect in it (applied since the Step
// before), every restore that ended in it, and every online rebuild
// abandoned in it. The slice is the server's and valid until the next
// Step.
func (s *Server) DriveLog() []DriveEvent { return s.driveLog }

// logDrive appends an entry to the log of the cycle to come, which
// Step stamps with that cycle.
func (s *Server) logDrive(kind FaultKind, id int, err error) {
	s.nextLog = append(s.nextLog, DriveEvent{Kind: kind, Drive: id, Err: err})
}

// midCycleFailer is implemented by engines that model a drive failing
// partway through a cycle's reads (Improved-bandwidth).
type midCycleFailer interface {
	FailDiskMidCycle(int) error
}

// Apply performs one drive fault best-effort, so that any subset of a
// fault schedule stays runnable, and reports whether it took effect.
// Failing a failed drive is not applied, and neither is restoring an
// operational one (the failure it answers is gone). A drive still
// Restoring, its online rebuild running or abandoned, takes a restore
// as a failed one does. The rest, errors included, is the named
// method's.
func (s *Server) Apply(f Fault) (bool, error) {
	failing := f.Kind == FaultFail || f.Kind == FaultFailMidCycle
	if !failing && f.Kind != FaultRepair && f.Kind != FaultRebuild && f.Kind != FaultTertiary {
		return false, fmt.Errorf("server: unknown drive fault %q", f.Kind)
	}
	drv, err := s.farm.Drive(f.Drive)
	if err != nil {
		return false, err
	}
	if state := drv.State(); failing && state == disk.Failed || !failing && state == disk.Operational {
		return false, nil
	}
	switch f.Kind {
	case FaultFail:
		err = s.FailDisk(f.Drive)
	case FaultFailMidCycle:
		m, ok := s.engine.(midCycleFailer)
		if !ok {
			return false, fmt.Errorf("server: %s cannot fail a drive mid-cycle", s.engine.Name())
		}
		if err = m.FailDiskMidCycle(f.Drive); err == nil {
			s.logDrive(f.Kind, f.Drive, nil)
		}
	case FaultRepair:
		err = s.RepairDisk(f.Drive)
	case FaultRebuild:
		err = s.StartOnlineRebuild(f.Drive, f.Budget)
	case FaultTertiary:
		_, err = s.RebuildFromTertiary(f.Drive)
	}
	return err == nil, err
}

// FailDisk injects a drive failure at the next cycle boundary.
func (s *Server) FailDisk(id int) error {
	if err := s.engine.FailDisk(id); err != nil {
		return err
	}
	s.logDrive(FaultFail, id, nil)
	return nil
}

// RepairDisk replaces a failed drive and rebuilds its contents from the
// surviving parity groups at once: an online rebuild with an unbounded
// budget. A drive already replaced (one whose online rebuild was
// abandoned) is rebuilt as it stands. If parity cannot restore every
// track, the drive is left Restoring.
func (s *Server) RepairDisk(id int) error {
	if err := s.replaceIfFailed(id); err != nil {
		return err
	}
	r, err := rebuild.New(s.farm, s.cat.Layout(), id)
	if err != nil {
		return err
	}
	if _, err := r.Step(math.MaxInt); err != nil {
		return err
	}
	s.logDrive(FaultRepair, id, nil)
	return s.driveRestored(id)
}

// replaceIfFailed swaps a blank Restoring drive in for a failed one; a
// drive already Restoring or Operational is restored as it stands.
func (s *Server) replaceIfFailed(id int) error {
	drv, err := s.farm.Drive(id)
	if err != nil {
		return err
	}
	if drv.State() != disk.Failed {
		return nil
	}
	return drv.Replace()
}

// driveRestored is the one tail of every restore path — instant repair,
// online-rebuild completion, tertiary reload, and the one place a
// restore ends: the drive's contents are whole again, so it leaves
// Restoring for Operational, the cycle's drive log says so, and an
// engine that tracks degraded state is told so.
func (s *Server) driveRestored(id int) error {
	drv, err := s.farm.Drive(id)
	if err != nil {
		return err
	}
	if err := drv.Restored(); err != nil {
		return err
	}
	s.logDrive(RestoreEnded, id, nil)
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
	if s.rebuilder != nil {
		return fmt.Errorf("server: a rebuild of drive %d is already running", s.rebuildDrive)
	}
	if err := s.replaceIfFailed(id); err != nil {
		return err
	}
	r, err := rebuild.New(s.farm, s.cat.Layout(), id)
	if err != nil {
		return err
	}
	if r.CyclesNeeded(readBudget) < 0 {
		return fmt.Errorf("server: rebuild budget %d below the %d reads one track needs", readBudget, r.ReadsPerTrack())
	}
	s.rebuilder, s.rebuildDrive, s.rebuildBudget = r, id, readBudget
	s.logDrive(FaultRebuild, id, nil)
	return nil
}

// RebuildRemaining returns the tracks left in the online rebuild, or 0.
func (s *Server) RebuildRemaining() int {
	if s.rebuilder == nil {
		return 0
	}
	return s.rebuilder.Remaining()
}

// stepRebuild advances an in-progress online rebuild by one cycle, and
// ends it once nothing is left to restore (at once, for a drive that
// held no tracks).
//
// A rebuild step fails when a drive it reads from has failed too — a
// second failure in the parity groups being restored. Such a rebuild is
// abandoned, not retried: every later step would fail the same way. The
// replacement drive stays Restoring, its unwritten tracks read as
// disk.ErrEmptyTrack, so the engine reconstructs or hiccups around them
// exactly as at any two-failure boundary, and a later RepairDisk,
// StartOnlineRebuild or RebuildFromTertiary can still restore the drive.
// The abort counts in rebuild_aborted, and its drive log entry carries
// the error.
func (s *Server) stepRebuild() error {
	if s.rebuilder == nil {
		return nil
	}
	if _, err := s.rebuilder.Step(s.rebuildBudget); err != nil {
		s.rebuilder = nil
		s.metrics.Counter("rebuild_aborted").Inc()
		s.logDrive(RebuildAbandoned, s.rebuildDrive, err)
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
	if err := s.replaceIfFailed(id); err != nil {
		return 0, err
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
	s.logDrive(FaultTertiary, id, nil)
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

// Metrics returns the server's instrument registry, the engine's
// instruments included.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// MetricsSnapshot returns a point-in-time copy of every instrument.
func (s *Server) MetricsSnapshot() metrics.Snapshot { return s.metrics.Snapshot() }

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

// Rate returns the uniform object bandwidth b0 streams play at: MPEG-1.
func (s *Server) Rate() units.Rate { return units.MPEG1 }

// NewLayout returns the layout the scheme places objects with: parity
// groups of clusterSize, dedicated (SR, SG, NC), intermixed (IB), or
// declustered over groups of declusterGroup drives (DC).
func NewLayout(scheme analytic.Scheme, disks, clusterSize, declusterGroup, tracksPerDisk int) (*layout.Layout, error) {
	switch scheme {
	case analytic.DeclusteredParity:
		return layout.NewDeclustered(disks, declusterGroup, clusterSize, tracksPerDisk)
	case analytic.ImprovedBandwidth:
		return layout.New(disks, clusterSize, tracksPerDisk, layout.IntermixedParity)
	}
	return layout.New(disks, clusterSize, tracksPerDisk, layout.DedicatedParity)
}

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

// BeginDrain stops admitting new streams (Request and RequestAt return
// ErrDraining); existing streams keep playing to completion. The
// network layer uses this for graceful shutdown: pace out what was
// promised, promise nothing new.
func (s *Server) BeginDrain() { s.draining = true }

// StreamProgress reports how far a stream has played: the next track
// owed to the client and the object's total tracks. ok is false for
// streams the engine no longer knows.
func (s *Server) StreamProgress(streamID int) (next, total int, ok bool) {
	return s.engine.StreamProgress(streamID)
}
