package netserve

import (
	"net"
	"sync"
	"testing"
	"time"

	"ftmm/internal/cluster"
)

// fakeMember is a listener standing in for a node on the heartbeat
// channel: a silent one accepts connections and never writes, an
// answering one completes HELLO and acks every VIEW. kill closes the
// listener and every accepted connection.
type fakeMember struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFakeMember(t *testing.T, answer bool) *fakeMember {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeMember{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			if answer {
				f.wg.Add(1)
				go func() {
					defer f.wg.Done()
					f.answer(conn)
				}()
			}
		}
	}()
	t.Cleanup(f.kill)
	return f
}

// answer plays a node's side of the heartbeat channel until it closes.
func (f *fakeMember) answer(conn net.Conn) {
	for {
		typ, _, err := readFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case frameHello:
			err = writeFrame(conn, frameHello, []byte(protocolMagic))
		case frameView:
			err = writeJSONFrame(conn, frameView, ViewAck{})
		}
		if err != nil {
			return
		}
	}
}

func (f *fakeMember) kill() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// TestTickHeartbeatsMembersAtOnce holds the failure detector to one
// HeartbeatTimeout a round: with two members that accept and never
// answer, a Tick still returns well inside 1.5 timeouts (one silent
// member after another would take two), and a member killed afterwards
// is declared dead after exactly MissThreshold more Ticks.
func TestTickHeartbeatsMembersAtOnce(t *testing.T) {
	const timeout = 300 * time.Millisecond
	const threshold = 3
	live := newFakeMember(t, true)
	nodes := []cluster.Member{
		{ID: "silent1", Addr: newFakeMember(t, false).ln.Addr().String()},
		{ID: "silent2", Addr: newFakeMember(t, false).ln.Addr().String()},
		{ID: "live", Addr: live.ln.Addr().String()},
	}
	c, err := NewCoordinator(CoordinatorOptions{
		Nodes: nodes, Titles: []string{"t0"},
		HeartbeatTimeout: timeout, MissThreshold: threshold, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	c.Tick()
	if took := time.Since(start); took >= timeout*3/2 {
		t.Fatalf("Tick took %v with two silent members, want under %v", took, timeout*3/2)
	}
	state := func(id string) cluster.MemberState {
		m, ok := c.View().Member(id)
		if !ok {
			t.Fatalf("%s left the view", id)
		}
		return m.State
	}
	if st := state("live"); st != cluster.StateActive {
		t.Fatalf("answering member is %v after one Tick", st)
	}

	live.kill()
	for i := 1; i <= threshold; i++ {
		c.Tick()
		if dead := state("live") == cluster.StateDead; dead != (i == threshold) {
			t.Fatalf("killed member dead=%v after %d Ticks, want dead after %d", dead, i, threshold)
		}
	}
	for _, id := range []string{"silent1", "silent2"} {
		if st := state(id); st != cluster.StateDead {
			t.Errorf("%s is %v after %d silent Ticks", id, st, threshold+1)
		}
	}
}
