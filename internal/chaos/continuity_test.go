package chaos

import (
	"strings"
	"testing"

	"ftmm/internal/sched"
)

// The cross-node continuity checker is the repo's one delivery
// verifier. These tests feed it synthetic reports for one session
// (ordinal 0, title "a", served by node 0's engine stream 7) and check
// that each way a delivery can go wrong is caught.

const unitTrack = 4 // track size of the synthetic title

func unitContinuity(t *testing.T) (*CrossNodeContinuityChecker, *ClusterRunContext) {
	t.Helper()
	content := make([]byte, 3*unitTrack)
	for i := range content {
		content[i] = byte(i*7 + 1)
	}
	ses := &Session{Title: "a", SID: 7, Chain: []int{0}}
	crc := &ClusterRunContext{
		Sessions: []*Session{ses}, Content: map[string][]byte{"a": content},
		TrackSize: unitTrack, Width: 1, Total: 3,
		byStream: map[[2]int]*Session{{0, 7}: ses},
	}
	c := NewCrossNodeContinuityChecker()
	if err := c.Begin(crc); err != nil {
		t.Fatal(err)
	}
	return c, crc
}

// track is a correct delivery of track i of the session's title.
func track(crc *ClusterRunContext, i int) sched.Delivery {
	data := append([]byte(nil), crc.Content["a"][i*unitTrack:(i+1)*unitTrack]...)
	return sched.Delivery{StreamID: 7, ObjectID: "a", Track: i, Data: data}
}

// feed runs one report per cycle through the checker, then End,
// returning the first error.
func feed(c *CrossNodeContinuityChecker, crc *ClusterRunContext, reps ...*sched.CycleReport) error {
	for cycle, rep := range reps {
		crc.Cycle = cycle
		if err := c.AfterStep(crc, []*sched.CycleReport{rep}); err != nil {
			return err
		}
	}
	return c.End(crc)
}

func delivered(ds ...sched.Delivery) *sched.CycleReport {
	return &sched.CycleReport{Delivered: ds}
}

// TestCrossNodeContinuityAccepts is the happy path: every track arrives
// once, in order, bit-exact, and a hiccup counts as the track accounted
// for, so the finished session is complete.
func TestCrossNodeContinuityAccepts(t *testing.T) {
	c, crc := unitContinuity(t)
	err := feed(c, crc,
		delivered(track(crc, 0)),
		&sched.CycleReport{Hiccups: []sched.Hiccup{{StreamID: 7, ObjectID: "a", Track: 1, Reason: "transition"}}},
		delivered(track(crc, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	crc.Sessions[0].Finished, crc.Drained = true, true
	if err := c.End(crc); err != nil {
		t.Fatal(err)
	}
}

// seekThenFailover applies a live forward seek of the session to track 2
// and then the death of its serving node, before any track past the
// seek is delivered: the runner re-admits the session at the seek, and
// the failover re-admits it once more.
func seekThenFailover(t *testing.T, c *CrossNodeContinuityChecker, crc *ClusterRunContext) {
	t.Helper()
	ses := crc.Sessions[0]
	if err := c.AfterStep(crc, []*sched.CycleReport{delivered(track(crc, 0))}); err != nil {
		t.Fatal(err)
	}
	ses.Resumes++
	if err := c.OnEvent(crc, Event{Kind: EventRewind, Stream: 0, Track: 2}); err != nil {
		t.Fatal(err)
	}
	ses.Resumes++
}

// TestCrossNodeContinuityFailoverAfterSeek: a failover after a forward
// seek resumes at the seek's floor, which the checker's high-water mark
// must follow (the shape of scenarios/cluster-seek-then-kill-*.json).
func TestCrossNodeContinuityFailoverAfterSeek(t *testing.T) {
	c, crc := unitContinuity(t)
	seekThenFailover(t, c, crc)
	if err := feed(c, crc, delivered(track(crc, 2))); err != nil {
		t.Fatal(err)
	}
}

func TestCrossNodeContinuityCatches(t *testing.T) {
	cases := []struct {
		name string
		// run feeds the checker a faulty delivery history.
		run  func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error
		want string
	}{
		{"gap", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			return feed(c, crc, delivered(track(crc, 0)), delivered(track(crc, 2)))
		}, "received track 2, expected 1"},
		{"duplicate", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			return feed(c, crc, delivered(track(crc, 0)), delivered(track(crc, 0)))
		}, "received track 0, expected 1"},
		{"out-of-order", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			return feed(c, crc, delivered(track(crc, 1)), delivered(track(crc, 0)))
		}, "received track 1, expected 0"},
		{"corrupted-byte", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			d := track(crc, 1)
			d.Data[2] ^= 0x10
			return feed(c, crc, delivered(track(crc, 0)), delivered(d))
		}, "content differs"},
		{"unowned-stream", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			d := track(crc, 0)
			d.StreamID = 9
			return feed(c, crc, delivered(d))
		}, "no session owns"},
		{"unowned-hiccup", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			return feed(c, crc, &sched.CycleReport{Hiccups: []sched.Hiccup{{StreamID: 9, ObjectID: "a"}}})
		}, "no session owns"},
		{"short-finish", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			crc.Sessions[0].Finished = true
			return feed(c, crc, delivered(track(crc, 0)), delivered(track(crc, 1)))
		}, "finished after 2 of 3 tracks"},
		{"failover-from-pre-seek-watermark", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			// A runner that forgets the seek resumes from the watermark
			// before it.
			seekThenFailover(t, c, crc)
			return feed(c, crc, delivered(track(crc, 1)))
		}, "received track 1, expected 2"},
		{"stranded", func(c *CrossNodeContinuityChecker, crc *ClusterRunContext) error {
			crc.Drained = true
			return feed(c, crc, delivered(track(crc, 0)))
		}, "stranded at track 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, crc := unitContinuity(t)
			err := tc.run(c, crc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
