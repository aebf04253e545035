package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Parent is the ID of the
// span that caused it (0 for a root); spans of one cycle (engine-*,
// wire-*) or one session (cluster-paced) share TraceID.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	TraceID int64  `json:"trace_id"`
}

// maxSpans bounds the in-memory trace (about 100 MB); spans past it are
// counted as dropped, never written.
const maxSpans = 2_000_000

// tracer hands out span IDs and collects finished spans. Every
// goroutine records into its own spanBuf, so the hot path takes no
// lock; bufs are merged once at the end.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	count   atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's private span list.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buf registers a new private buffer. A nil tracer yields a nil buffer,
// on which every method is a no-op — the untraced path.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID reserves a span ID before the span ends, so children can name
// their parent while it is still open.
func (b *spanBuf) newID() int64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

// add records a finished span under a reserved ID.
func (b *spanBuf) add(id int64, name string, start, end time.Time, parent, traceID int64) {
	if b == nil {
		return
	}
	if b.t.count.Add(1) > maxSpans {
		b.t.dropped.Add(1)
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Name: name, Parent: parent, TraceID: traceID,
		StartNs: start.Sub(b.t.epoch).Nanoseconds(), EndNs: end.Sub(b.t.epoch).Nanoseconds(),
	})
}

// record is add with a fresh ID, for leaf spans.
func (b *spanBuf) record(name string, start, end time.Time, parent, traceID int64) {
	b.add(b.newID(), name, start, end, parent, traceID)
}

// all merges every buffer, ordered by start time. Call after the
// recording goroutines have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children
// may overlap one another (64 clients verify at once), so the covered
// part is the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// budgetRow is one span name's aggregate in a per-layer budget.
type budgetRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// budget aggregates spans by name: how often each layer boundary was
// crossed, the time inside it, and its self time. A child is counted
// only for the part of it that lies inside its parent: a client blocked
// in Next since the previous cycle belongs to this cycle only from the
// moment this cycle's wait began.
func budget(spans []span) []budgetRow {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	clipped := make([]span, len(spans))
	for i, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			s.StartNs, s.EndNs = max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			s.EndNs = max(s.EndNs, s.StartNs)
		}
		clipped[i] = s
	}
	spans = clipped
	self := selfTimes(spans)
	byName := make(map[string]*budgetRow)
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &budgetRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		r.SelfMs += float64(self[s.ID]) / 1e6
	}
	rows := make([]budgetRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
