package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its op id; parent is the id of the span that was open when this one
// began (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Parenthood follows a
// single stack of open spans, which is exact because every traced phase
// is closed-loop with one client: at most one op is in flight, and the
// goroutines serving it (the handler, the engine's workers at
// GOMAXPROCS=1) nest inside the span that caused them. A nil tracer
// records nothing, so untraced phases pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// inOp reports whether an op is being timed.
func (t *tracer) inOp() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op >= 0
}

// setOp tags the spans that follow with op id; -1 ends the op.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id. A span usually ends innermost-first, but a
// handler span may outlive the client span that caused it by the time
// the response takes to flush, so end removes id wherever it sits.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// layerTimes aggregates a tracer's spans over a set of ops.
type layerTimes struct {
	total map[string]time.Duration // summed span durations per name
	self  map[string]time.Duration // summed self time per name
	count map[string]int           // spans per name
	// kids sums, per parent span name, the durations of its direct
	// children by child name.
	kids map[string]map[string]time.Duration
}

// aggregate sums duration and self time per span name over the spans
// whose op is in ops. Self time is a span's duration minus the union of
// its children's intervals.
func (t *tracer) aggregate(ops map[int]bool) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{},
		kids: map[string]map[string]time.Duration{}}
	for _, s := range t.spans {
		if !ops[s.Op] || s.End == 0 {
			continue
		}
		if s.Parent >= 0 {
			pn := t.spans[s.Parent].Name
			if lt.kids[pn] == nil {
				lt.kids[pn] = map[string]time.Duration{}
			}
			lt.kids[pn][s.Name] += s.dur()
		}
		lt.total[s.Name] += s.dur()
		lt.self[s.Name] += s.dur() - covered(s, children[s.ID])
		lt.count[s.Name]++
	}
	return lt
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
