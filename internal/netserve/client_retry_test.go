package netserve

import (
	"errors"
	"testing"
	"time"
)

// TestAdmitRetryBackoff pins the rejection a client's retry loop backs
// off on: a full farm rejects with a Retry-After hint of one cycle, and
// once capacity frees a re-admit on a fresh connection succeeds and
// plays bit-exact. Rescheduling is the client's: the server parks
// nothing.
func TestAdmitRetryBackoff(t *testing.T) {
	cfg := defaultRig()
	cfg.titles = 1
	cfg.slotsPerDisk = 1 // one stream per cluster position: capacity 1 for the title's start cluster
	r := newLoopRig(t, "sr", cfg)
	title := r.titles[0]

	// Occupy the title's start cluster.
	blocker, _ := r.connect(t, title)
	defer blocker.Close()

	// Pin the rejection shape first: transient, with the cycle-scale
	// retry hint. The server hangs up after a REJECT, so this probe
	// needs its own connection.
	wantHint := r.ns.CycleTime().Milliseconds()
	if wantHint < 1 {
		wantHint = 1
	}
	probe, err := Dial(r.ns.Addr().String(), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, err = probe.Admit(title)
	probe.Close()
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("admit on a full farm returned %v, want *RejectedError", err)
	}
	if rej.Reject.RetryAfterMillis != wantHint {
		t.Fatalf("retry hint = %d ms, want %d", rej.Reject.RetryAfterMillis, wantHint)
	}

	// A client that honours the hint and retries once capacity frees is
	// admitted on a fresh connection.
	blocker.Close()
	// Teardown is asynchronous (the server's reader notices the hang-up);
	// wait for the slot to actually free.
	for i := 0; i < 5000 && r.ns.Sessions() > 0; i++ {
		time.Sleep(time.Millisecond)
	}
	c2, err := Dial(r.ns.Addr().String(), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ok, err := c2.Admit(title)
	if err != nil {
		t.Fatalf("re-admit after the blocker left: %v", err)
	}
	if ok.Title != title {
		t.Fatalf("admitted %q, want %q", ok.Title, title)
	}

	// The admitted session must actually play: drive cycles to the end.
	done := make(chan *clientResult, 1)
	go func() { done <- consume(c2) }()
	r.stepUntilIdle(t, 4000)
	res := <-done
	verifyBitExact(t, r, title, res)
	if res.bye != "finished" {
		t.Fatalf("bye = %q, want finished", res.bye)
	}
}
