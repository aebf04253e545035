package disk

import (
	"bytes"
	"errors"
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
	got, err := d.ReadTrack(3)
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
	got, _ := d.ReadTrack(0)
	if got[0] != 1 {
		t.Fatal("WriteTrack did not copy")
	}
	got[1] = 77 // caller mutates the returned buffer
	again, _ := d.ReadTrack(0)
	if again[1] != 1 {
		t.Fatal("ReadTrack did not copy")
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
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("empty track read: %v", err)
	}
	if _, err := d.ReadTrack(12); !errors.Is(err, ErrBadTrack) {
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
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrFailed) {
		t.Errorf("read from failed drive: %v", err)
	}
	if err := d.WriteTrack(0, track(5)); !errors.Is(err, ErrFailed) {
		t.Errorf("write to failed drive: %v", err)
	}
	if err := d.Fail(); !errors.Is(err, ErrDoubleFault) {
		t.Errorf("double fail: %v", err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	if d.State() != Operational {
		t.Fatal("state not Operational after replace")
	}
	// Replacement is blank: the old content is gone.
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrEmptyTrack) {
		t.Errorf("replaced drive should be empty: %v", err)
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
				_, _ = d.ReadTrack(tr)
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

func TestFarmFailureAccounting(t *testing.T) {
	f, _ := NewFarm(20, 5, testParams())
	if got := f.OperationalCount(); got != 20 {
		t.Fatalf("OperationalCount = %d", got)
	}
	if f.Catastrophic() {
		t.Fatal("fresh farm catastrophic")
	}
	for _, id := range []int{3, 11} {
		d, _ := f.Drive(id)
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.FailedDrives(); len(got) != 2 || got[0] != 3 || got[1] != 11 {
		t.Fatalf("FailedDrives = %v", got)
	}
	if f.Catastrophic() {
		t.Fatal("one failure per cluster flagged catastrophic")
	}
	cf := f.ClusterFailures()
	if cf[0] != 1 || cf[2] != 1 || cf[1] != 0 || cf[3] != 0 {
		t.Fatalf("ClusterFailures = %v", cf)
	}
	// Second failure in cluster 0 => catastrophe.
	d, _ := f.Drive(1)
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	if !f.Catastrophic() {
		t.Fatal("two failures in one cluster not catastrophic")
	}
	if got := f.OperationalCount(); got != 17 {
		t.Fatalf("OperationalCount = %d, want 17", got)
	}
}

func TestStateString(t *testing.T) {
	if Operational.String() != "operational" || Failed.String() != "failed" {
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
