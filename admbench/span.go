package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the traced run.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`    // request identifier shared by one request's spans
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced replay pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64 // next request identifier
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// open reserves a root span whose end is set later by close; it returns
// the span's index, -1 on a nil tracer.
func (t *tracer) open(name string, req int64, start int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: -1, Start: start})
	return int32(len(t.spans) - 1)
}

// close sets the end of a span reserved by open.
func (t *tracer) close(idx int32, end int64) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// record appends a finished span.
func (t *tracer) record(name string, req int64, parent int32, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n     int
	total time.Duration
}

func (s spanStat) mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.total / time.Duration(s.n)
}

// stats sums span durations by name.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanStat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.n++
		st.total += time.Duration(s.End - s.Start)
		out[s.Name] = st
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err == nil {
			err = enc.Encode(&t.spans[i])
		}
	}
	t.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
