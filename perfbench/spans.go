package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program,
// or one HTTP phase of a service job. Spans of one operation share Op;
// Parent is the ID of the enclosing span (0 at the top).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory; write dumps them as JSON lines
// when the benchmark ends, so recording costs no I/O while it measures.
// A nil *spanLog records nothing: the untraced runs pass nil.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// openSpan is a span that has started; end closes it. On a nil
// *spanLog it only times, and its ID is 0.
type openSpan struct {
	span
	log   *spanLog
	start time.Time
}

func (l *spanLog) begin(op, name string, parent int64) *openSpan {
	o := &openSpan{start: time.Now()}
	if l == nil {
		return o
	}
	l.mu.Lock()
	l.next++
	o.span = span{ID: l.next, Parent: parent, Op: op, Name: name}
	l.mu.Unlock()
	o.log = l
	return o
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	now := time.Now()
	o.log.record(o.span, o.start, now)
	return now.Sub(o.start)
}

// record stores a span whose bounds were measured elsewhere, such as a
// daemon event timestamp.
func (l *spanLog) record(s span, start, end time.Time) {
	if l == nil {
		return
	}
	s.Start = start.Sub(l.base).Nanoseconds()
	s.End = end.Sub(l.base).Nanoseconds()
	l.mu.Lock()
	if s.ID == 0 {
		l.next++
		s.ID = l.next
	}
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
