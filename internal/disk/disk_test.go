package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
	if err := d.WriteTrack(3, bytes.Clone(want)); err != nil {
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

// WriteTrack keeps the slice it is handed, not a copy, with its capacity
// clipped so an append to a view cannot reach past the track; a second
// write replaces the slice and leaves an earlier view reading the old
// bytes.
func TestWriteTrackKeepsSlice(t *testing.T) {
	d := NewDrive(0, testParams())
	size := len(track(0))
	// Two tracks in one array, as a title's tape view hands them over.
	title := append(track(1), track(2)...)
	first := title[:size] // cap reaches into the second track
	if err := d.WriteTrack(0, first); err != nil {
		t.Fatal(err)
	}
	view, err := d.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &first[0] {
		t.Fatal("view does not share the written slice's array")
	}
	if len(view) != size || cap(view) != len(view) {
		t.Fatalf("view len %d cap %d, want both %d", len(view), cap(view), size)
	}
	_ = append(view, 0xFF)
	if title[size] != 2 {
		t.Fatal("an append to a view reached the next track")
	}

	if err := d.WriteTrack(0, track(3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, track(1)) {
		t.Fatal("a second WriteTrack changed an earlier view")
	}
	now, err := d.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, track(3)) {
		t.Fatal("a second WriteTrack did not replace the track")
	}
}

// Out-of-range tracks and mis-sized writes are rejected. The track table
// grows on write, only as far as the highest track written: an in-range
// track past its end reads as the bare ErrEmptyTrack and is noted in the
// farm's record, and a write past its end grows it and leaves earlier
// tracks, and views of them, as they were.
func TestDriveErrors(t *testing.T) {
	f, err := NewFarm(2, 2, testParams())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.Drive(1)
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
	if _, err := d.View(-1); !errors.Is(err, ErrBadTrack) {
		t.Errorf("negative track read: %v", err)
	}

	if err := d.WriteTrack(2, track(2)); err != nil {
		t.Fatal(err)
	}
	v2, err := d.View(2)
	if err != nil {
		t.Fatal(err)
	}
	f.BeginCycle()
	for _, tr := range []int{0, 3, 9} {
		if _, err := d.View(tr); err != ErrEmptyTrack {
			t.Errorf("View(%d) of an unwritten track = %v, want the bare ErrEmptyTrack", tr, err)
		}
		if err := f.Missed(1, tr); err != ErrEmptyTrack {
			t.Errorf("record of track %d = %v, want ErrEmptyTrack", tr, err)
		}
	}
	if err := f.Missed(1, 2); err != nil {
		t.Errorf("a read that found its track recorded %v", err)
	}
	if err := d.WriteTrack(9, track(9)); err != nil {
		t.Fatal(err)
	}
	if got, err := d.View(9); err != nil || !bytes.Equal(got, track(9)) {
		t.Errorf("View(9) after a write past the table's end: %v", err)
	}
	if got, err := d.View(2); err != nil || !bytes.Equal(got, track(2)) {
		t.Errorf("View(2) after the table grew: %v", err)
	}
	if !bytes.Equal(v2, track(2)) {
		t.Error("growing the table changed a view taken before")
	}
	for _, tr := range []int{0, 1, 3, 8} {
		if _, err := d.View(tr); err != ErrEmptyTrack {
			t.Errorf("View(%d) inside the grown table = %v, want ErrEmptyTrack", tr, err)
		}
	}
}

// View is the engines' one per-read lookup: it allocates nothing on a
// hit, nor on either erasure it notes in the farm's record.
func TestDriveViewAllocs(t *testing.T) {
	f, err := NewFarm(2, 2, testParams())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.Drive(0)
	failed, _ := f.Drive(1)
	if err := d.WriteTrack(4, track(4)); err != nil {
		t.Fatal(err)
	}
	if err := failed.Fail(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		drive *Drive
		track int
		want  error
	}{
		{"hit", d, 4, nil},
		{"empty below the table's end", d, 1, ErrEmptyTrack},
		{"empty past the table's end", d, 7, ErrEmptyTrack},
		{"failed", failed, 4, ErrFailed},
	} {
		if n := testing.AllocsPerRun(100, func() {
			f.BeginCycle()
			if _, err := c.drive.View(c.track); err != c.want {
				t.Fatalf("%s: View = %v, want %v", c.name, err, c.want)
			}
		}); n != 0 {
			t.Errorf("%s: View allocates %.1f per run, want 0", c.name, n)
		}
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

// TestViewHandOffRace is the drive's concurrency contract, run under
// -race: one owner calls every Drive method, and the views it takes
// cross to reader goroutines over a channel, whose send orders the view
// before the read. The readers read while the owner rewrites every
// track, fails the drive and replaces it, and once more after; neither
// read may see a byte move.
func TestViewHandOffRace(t *testing.T) {
	d := NewDrive(0, testParams())
	const rounds = 20
	// lent is a view, the byte its track held when the view was taken,
	// and the channel the owner closes once it has rewritten, failed and
	// replaced the drive.
	type lent struct {
		view  []byte
		want  byte
		after chan struct{}
	}
	holds := func(l lent) bool { return bytes.Count(l.view, []byte{l.want}) == len(l.view) }
	views := make(chan lent)
	var moved atomic.Int64
	var wg sync.WaitGroup
	// One reader per track: each takes one view a round and holds it
	// until the round's after is closed.
	for range d.Tracks() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range views {
				during := holds(l)
				<-l.after
				if !during || !holds(l) {
					moved.Add(1)
				}
			}
		}()
	}
	for r := range rounds {
		for i := range d.Tracks() {
			if err := d.WriteTrack(i, track(byte(16*r+i))); err != nil {
				t.Fatal(err)
			}
		}
		after := make(chan struct{})
		for i := range d.Tracks() {
			v, err := d.View(i)
			if err != nil {
				t.Fatal(err)
			}
			views <- lent{v, byte(16*r + i), after}
		}
		for i := range d.Tracks() {
			if err := d.WriteTrack(i, track(0xff)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Fail(); err != nil {
			t.Fatal(err)
		}
		if err := d.Replace(); err != nil {
			t.Fatal(err)
		}
		close(after)
	}
	close(views)
	wg.Wait()
	if n := moved.Load(); n != 0 {
		t.Errorf("%d lent views changed under their readers", n)
	}
	if reads, writes := d.Counters(); reads != rounds*int64(d.Tracks()) || writes != 2*rounds*int64(d.Tracks()) {
		t.Errorf("counters = %d reads, %d writes, want %d and %d", reads, writes, rounds*d.Tracks(), 2*rounds*d.Tracks())
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
// bytes the track held then. A View counts as a read. The drive keeps
// what it is handed, so it is handed clones: each check compares a view
// with an array the drive never saw.
func TestViewOutlivesWriteFailReplace(t *testing.T) {
	d := NewDrive(0, testParams())
	view := func(want []byte) []byte {
		t.Helper()
		if err := d.WriteTrack(0, bytes.Clone(want)); err != nil {
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

	// Fail and Replace drop the whole table, however far it had grown:
	// every track reads as erased, and views of them keep their bytes.
	far := track(0x44)
	if err := d.WriteTrack(9, bytes.Clone(far)); err != nil {
		t.Fatal(err)
	}
	vfar, err := d.View(9)
	if err != nil {
		t.Fatal(err)
	}
	v = view(old)
	if err := d.Fail(); err != nil {
		t.Fatal(err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []int{0, 9} {
		if _, err := d.View(tr); err != ErrEmptyTrack {
			t.Fatalf("View(%d) after Replace = %v, want the bare ErrEmptyTrack", tr, err)
		}
	}
	if !bytes.Equal(v, old) || !bytes.Equal(vfar, far) {
		t.Fatal("a lent track changed when Fail and Replace dropped the table")
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

// BenchmarkFarmView measures one View on a farm of the cycle benchmark's
// engine shape: 20 drives in clusters of 5, 470 tracks each, every track
// read once per pass in shuffled order. The hit leg finds every track;
// in the erased leg half the drives are failed and half are blank
// replacements, so every lookup is an erasure noted in the farm's
// record, which a pass clears the way a cycle does. Tracks are shrunk
// to 1 KB: a lookup's cost does not depend on their size, and 9400
// Table-1 tracks would be 470 MB.
func BenchmarkFarmView(b *testing.B) {
	const drives, perDrive = 20, 470
	p := diskmodel.Table1()
	p.TrackSize = units.KB
	p.Capacity = perDrive * p.TrackSize
	type loc struct {
		d     *Drive
		track int
	}
	build := func(b *testing.B) (*Farm, []loc) {
		f, err := NewFarm(drives, 5, p)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, p.TrackSize)
		var order []loc
		for i := range drives {
			d, _ := f.Drive(i)
			for tr := range perDrive {
				if err := d.WriteTrack(tr, data); err != nil {
					b.Fatal(err)
				}
				order = append(order, loc{d, tr})
			}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		return f, order
	}
	// run reads order round and round, b.N lookups after one untimed
	// pass that grows the farm's record to a pass's erasures.
	run := func(b *testing.B, f *Farm, order []loc, want func(*Drive) error) {
		b.ReportAllocs()
		for i := range b.N + len(order) {
			k := i % len(order)
			if k == 0 {
				f.BeginCycle()
			}
			if i == len(order) {
				b.ResetTimer()
			}
			l := order[k]
			if _, err := l.d.View(l.track); err != want(l.d) {
				b.Fatalf("drive %d track %d: %v", l.d.ID(), l.track, err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		f, order := build(b)
		run(b, f, order, func(*Drive) error { return nil })
	})
	b.Run("erased", func(b *testing.B) {
		f, order := build(b)
		for i := range drives {
			d, _ := f.Drive(i)
			if err := d.Fail(); err != nil {
				b.Fatal(err)
			}
			if i%2 == 1 {
				if err := d.Replace(); err != nil {
					b.Fatal(err)
				}
			}
		}
		run(b, f, order, func(d *Drive) error {
			if d.ID()%2 == 1 {
				return ErrEmptyTrack
			}
			return ErrFailed
		})
	})
}
