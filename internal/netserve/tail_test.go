package netserve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFinishedSessionKeepsTail pins a finished session's hang-up: after
// its final burst the server half-closes and reads on until the client
// hangs up, so a frame the client sends after its stream's last burst
// was staged is read, never answered with a reset that would cost the
// client the tracks and the BYE it has not yet read. 24 sessions play
// their whole title on a manual clock before any client reads a track;
// then each client reads its first track, sends PAUSE (to a session
// that has already left the table) and must still read every track of
// its title and the BYE.
func TestFinishedSessionKeepsTail(t *testing.T) {
	const sessions, groups = 24, 8
	r := newLoopRig(t, "sr", rigConfig{
		disks: 8, cluster: 4, k: 2, titles: 4, groups: groups,
		slotsPerDisk: 2 * sessions,
		ns:           Options{SendQueue: groups + 8},
	})
	clients := make([]*Client, sessions)
	queues := make([]chan *burst, sessions)
	for i := range clients {
		c, ok := r.connect(t, r.titles[i%len(r.titles)])
		defer c.Close()
		clients[i] = c
		queues[i] = r.ns.session(ok.StreamID).sendq
	}
	r.stepUntilIdle(t, 100)
	// Every stream has been staged to its BYE and has left the table.
	// Wait for the writers to hand the last bursts to the kernel: no
	// queue holds a burst and the flush count has stopped moving.
	flushed := int64(-1)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("writers still busy after 30 s")
		}
		queued := 0
		for _, q := range queues {
			queued += len(q)
		}
		n := r.ns.phaseFlush.Count()
		if queued == 0 && n == flushed {
			break
		}
		flushed = n
	}

	results := make([]*clientResult, sessions)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = consumePausingLate(c)
		}()
	}
	wg.Wait()
	for i, res := range results {
		title := r.titles[i%len(r.titles)]
		verifyBitExact(t, r, title, res)
		if res.bye != "finished" {
			t.Errorf("client %d (%s): bye %q, want finished", i, title, res.bye)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	r.stepUntilBuffersHome(t)
}

// consumePausingLate reads a session to its BYE, sending PAUSE when the
// first track arrives.
func consumePausingLate(c *Client) *clientResult {
	res := &clientResult{tracks: map[int][]byte{}}
	for {
		ev, err := c.Next()
		if err != nil {
			res.err = fmt.Errorf("after %d tracks: %w", len(res.tracks), err)
			return res
		}
		switch {
		case ev.Bye != nil:
			res.bye = ev.Bye.Reason
			return res
		case ev.Hiccup != nil:
			res.hiccups = append(res.hiccups, *ev.Hiccup)
		case ev.Vcr != nil || ev.VcrReject != nil:
			res.err = fmt.Errorf("a finished session answered a VCR verb: %+v %+v", ev.Vcr, ev.VcrReject)
			return res
		default:
			if len(res.tracks) == 0 {
				if err := c.Pause(); err != nil {
					res.err = fmt.Errorf("pause: %w", err)
					return res
				}
			}
			res.tracks[ev.Track] = ev.Data
		}
	}
}
