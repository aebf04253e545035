package disk

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"ftmm/internal/diskmodel"
	"ftmm/internal/units"
)

func testParams() diskmodel.Params {
	p := diskmodel.Table1()
	p.Capacity = 10 * 50 * units.KB // 10 tracks, keeps tests small
	return p
}

func track(b byte) []byte {
	t := make([]byte, 50*units.KB)
	for i := range t {
		t[i] = b
	}
	return t
}

func TestDriveReadWrite(t *testing.T) {
	d := NewDrive(0, testParams())
	want := track(0xAB)
	if err := d.WriteTrack(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.View(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read differs from write")
	}
	reads, writes := d.Counters()
	if reads != 1 || writes != 1 {
		t.Fatalf("counters = (%d,%d), want (1,1)", reads, writes)
	}
}

func TestDriveReadTrackInto(t *testing.T) {
	d := NewDrive(0, testParams())
	want := track(0xCD)
	if err := d.WriteTrack(2, want); err != nil {
		t.Fatal(err)
	}
	dst := track(0)
	if err := d.ReadTrackInto(dst, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("ReadTrackInto differs from written data")
	}
	// Mis-sized destination is rejected.
	if err := d.ReadTrackInto(make([]byte, 10), 2); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short dst: got %v, want ErrBadSize", err)
	}
	// Errors leave dst untouched.
	marker := track(0x5A)
	if err := d.ReadTrackInto(marker, 9); !errors.Is(err, ErrEmptyTrack) {
		t.Fatalf("empty track: got %v, want ErrEmptyTrack", err)
	}
	if marker[0] != 0x5A {
		t.Fatal("failed ReadTrackInto modified dst")
	}
	if err := d.ReadTrackInto(marker, -1); !errors.Is(err, ErrBadTrack) {
		t.Fatalf("bad track: got %v, want ErrBadTrack", err)
	}
	// Zero-allocation steady state.
	if n := testing.AllocsPerRun(50, func() {
		if err := d.ReadTrackInto(dst, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadTrackInto allocates %.1f per run, want 0", n)
	}
}

func TestDriveCopySemantics(t *testing.T) {
	d := NewDrive(0, testParams())
	buf := track(1)
	if err := d.WriteTrack(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller mutates its buffer after write
	got, _ := d.View(0)
	if got[0] != 1 {
		t.Fatal("WriteTrack did not copy")
	}
}

func TestDriveErrors(t *testing.T) {
	d := NewDrive(0, testParams())
	if err := d.WriteTrack(-1, track(0)); !errors.Is(err, ErrBadTrack) {
		t.Errorf("negative track: %v", err)
	}
	if err := d.WriteTrack(10, track(0)); !errors.Is(err, ErrBadTrack) {
		t.Errorf("track beyond capacity: %v", err)
	}
	if err := d.WriteTrack(0, []byte{1, 2}); !errors.Is(err, ErrBadSize) {
		t.Errorf("short write: %v", err)
	}
	if _, err := d.View(0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("empty track read: %v", err)
	}
	if _, err := d.View(12); !errors.Is(err, ErrBadTrack) {
		t.Errorf("bad track read: %v", err)
	}
}

func TestDriveFailureLifecycle(t *testing.T) {
	d := NewDrive(7, testParams())
	if err := d.WriteTrack(0, track(5)); err != nil {
		t.Fatal(err)
	}
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Failed {
		t.Fatal("state not Failed")
	}
	if _, err := d.View(0); !errors.Is(err, ErrFailed) {
		t.Errorf("read from failed drive: %v", err)
	}
	if err := d.WriteTrack(0, track(5)); !errors.Is(err, ErrFailed) {
		t.Errorf("write to failed drive: %v", err)
	}
	if err := d.Fail(); !errors.Is(err, ErrDoubleFault) {
		t.Errorf("double fail: %v", err)
	}
	if err := d.Restored(); !errors.Is(err, ErrFailed) {
		t.Errorf("restored before replace: %v", err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Restoring {
		t.Fatal("state not Restoring after replace")
	}
	// Replacement is blank: the old content is gone.
	if _, err := d.View(0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("replaced drive should be empty: %v", err)
	}
	if err := d.Replace(); !errors.Is(err, ErrNotFailed) {
		t.Errorf("replace of restoring drive: %v", err)
	}
	// A restoring drive takes the restore's writes and serves them.
	if err := d.WriteTrack(0, track(5)); err != nil {
		t.Fatal(err)
	}
	if got, err := d.View(0); err != nil || !bytes.Equal(got, track(5)) {
		t.Errorf("read of restored track: %v", err)
	}
	// It can fail again, losing what the restore wrote.
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.View(0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("re-replaced drive should be empty: %v", err)
	}
	if err := d.Restored(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Operational {
		t.Fatal("state not Operational after restore")
	}
	if err := d.Restored(); err != nil {
		t.Errorf("restore of operational drive: %v", err)
	}
	if err := d.Replace(); !errors.Is(err, ErrNotFailed) {
		t.Errorf("replace of healthy drive: %v", err)
	}
}

func TestDriveConcurrentAccess(t *testing.T) {
	d := NewDrive(0, testParams())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := (g*50 + i) % 10
				_ = d.WriteTrack(tr, track(byte(g)))
				_, _ = d.View(tr)
			}
		}(g)
	}
	wg.Wait()
	reads, writes := d.Counters()
	if writes != 400 {
		t.Fatalf("writes = %d, want 400", writes)
	}
	if reads != 400 {
		t.Fatalf("reads = %d, want 400", reads)
	}
}

func TestNewFarmValidation(t *testing.T) {
	p := testParams()
	if _, err := NewFarm(10, 5, p); err != nil {
		t.Fatalf("valid farm rejected: %v", err)
	}
	if _, err := NewFarm(11, 5, p); err == nil {
		t.Error("non-whole clusters accepted")
	}
	if _, err := NewFarm(3, 5, p); err == nil {
		t.Error("fewer drives than one cluster accepted")
	}
	if _, err := NewFarm(10, 1, p); err == nil {
		t.Error("cluster size 1 accepted")
	}
	bad := p
	bad.TrackSize = 0
	if _, err := NewFarm(10, 5, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestFarmTopology(t *testing.T) {
	f, err := NewFarm(20, 5, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 20 || f.ClusterSize() != 5 || f.Clusters() != 4 {
		t.Fatalf("topology = (%d,%d,%d)", f.Size(), f.ClusterSize(), f.Clusters())
	}
	cl, err := f.Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 5 || cl[0].ID() != 10 || cl[4].ID() != 14 {
		t.Fatalf("cluster 2 IDs = %d..%d", cl[0].ID(), cl[4].ID())
	}
	if c, _ := f.ClusterOf(14); c != 2 {
		t.Fatalf("ClusterOf(14) = %d, want 2", c)
	}
	if _, err := f.Cluster(4); err == nil {
		t.Error("out-of-range cluster accepted")
	}
	if _, err := f.ClusterOf(20); err == nil {
		t.Error("out-of-range drive accepted")
	}
	if _, err := f.Drive(20); err == nil {
		t.Error("out-of-range drive accepted")
	}
	d, err := f.Drive(7)
	if err != nil || d.ID() != 7 {
		t.Fatalf("Drive(7) = %v, %v", d, err)
	}
}

// Each drive of a farm keeps its own state through the lifecycle; the
// farm's clusters are views of the same drives.
func TestFarmFailureAccounting(t *testing.T) {
	f, _ := NewFarm(20, 5, testParams())
	states := func() map[State][]int {
		out := make(map[State][]int)
		for i := 0; i < f.Size(); i++ {
			d, _ := f.Drive(i)
			out[d.State()] = append(out[d.State()], i)
		}
		return out
	}
	if got := states(); len(got[Operational]) != 20 {
		t.Fatalf("fresh farm states = %v", got)
	}
	for _, id := range []int{1, 3, 11} {
		d, _ := f.Drive(id)
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := f.Drive(3)
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	got := states()
	if !slices.Equal(got[Failed], []int{1, 11}) || !slices.Equal(got[Restoring], []int{3}) || len(got[Operational]) != 17 {
		t.Fatalf("states = %v, want failed [1 11], restoring [3], 17 operational", got)
	}
	cl, _ := f.Cluster(0)
	if cl[1].State() != Failed || cl[3].State() != Restoring || cl[0].State() != Operational {
		t.Fatalf("cluster 0 states %v %v %v", cl[0].State(), cl[1].State(), cl[3].State())
	}
	if err := d.Restored(); err != nil {
		t.Fatal(err)
	}
	if got := states(); len(got[Restoring]) != 0 || len(got[Operational]) != 18 {
		t.Fatalf("states after restore = %v", got)
	}
}

func TestStateString(t *testing.T) {
	if Operational.String() != "operational" || Failed.String() != "failed" || Restoring.String() != "restoring" {
		t.Error("state names")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state name")
	}
}

// The replace-never-mutate invariant behind View: a view taken before the
// track is rewritten, or the drive failed or replaced, still reads the
// bytes the track held then. A View counts as a read.
func TestViewOutlivesWriteFailReplace(t *testing.T) {
	d := NewDrive(0, testParams())
	view := func(want []byte) []byte {
		t.Helper()
		if err := d.WriteTrack(0, want); err != nil {
			t.Fatal(err)
		}
		reads, _ := d.Counters()
		v, err := d.View(0)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := d.Counters(); after != reads+1 {
			t.Fatalf("View moved the read counter %d -> %d, want +1", reads, after)
		}
		if !bytes.Equal(v, want) {
			t.Fatal("view differs from write")
		}
		return v
	}
	old := track(0x11)

	v := view(old)
	if err := d.WriteTrack(0, track(0x22)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, old) {
		t.Fatal("WriteTrack wrote into a lent track")
	}

	v = view(old)
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.View(0); !errors.Is(err, ErrFailed) {
		t.Fatalf("View of a failed drive: %v", err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.View(0); !errors.Is(err, ErrEmptyTrack) {
		t.Fatalf("View of a blank replacement: %v", err)
	}
	if err := d.WriteTrack(0, track(0x33)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, old) {
		t.Fatal("a lent track changed across Fail, Replace and a rewrite")
	}
}

// The cycle's record of erasures: BeginCycle clears it; a lookup on a
// failed drive notes ErrFailed and one of a blank track on a restoring
// drive notes ErrEmptyTrack; a lookup that finds its track notes
// nothing; and a note outlives a restore that writes the track, or ends,
// later in the same cycle.
func TestFarmMissedRecord(t *testing.T) {
	f, err := NewFarm(2, 2, testParams())
	if err != nil {
		t.Fatal(err)
	}
	failed, _ := f.Drive(0)
	restoring, _ := f.Drive(1)
	for _, d := range []*Drive{failed, restoring} {
		if err := d.WriteTrack(0, track(1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
	}
	if err := restoring.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := restoring.WriteTrack(1, track(2)); err != nil {
		t.Fatal(err)
	}

	_, _ = failed.View(0)
	_, _ = restoring.View(0)
	if _, err := restoring.View(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Missed(0, 0); !errors.Is(err, ErrFailed) {
		t.Errorf("failed drive's record = %v, want ErrFailed", err)
	}
	if err := f.Missed(1, 0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("blank track's record = %v, want ErrEmptyTrack", err)
	}
	if err := f.Missed(1, 1); err != nil {
		t.Errorf("a read that found its track recorded %v", err)
	}
	if err := f.Missed(0, 1); err != nil {
		t.Errorf("a track nobody read recorded %v", err)
	}

	if err := restoring.WriteTrack(0, track(1)); err != nil {
		t.Fatal(err)
	}
	if err := restoring.Restored(); err != nil {
		t.Fatal(err)
	}
	if err := f.Missed(1, 0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("record after the restore wrote the track = %v, want ErrEmptyTrack", err)
	}

	f.BeginCycle()
	if f.Missed(0, 0) != nil || f.Missed(1, 0) != nil {
		t.Error("BeginCycle left the last cycle's record")
	}
	_, _ = failed.View(0)
	if err := f.Missed(0, 0); !errors.Is(err, ErrFailed) {
		t.Errorf("record in the new cycle = %v, want ErrFailed", err)
	}
}
