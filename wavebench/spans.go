package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRecord is one benchmark-side span: name, start and end relative to
// the recorder's epoch, and the parent's ID (0 = root). These spans live
// in the harness only; the program under test records its own per-job
// trace separately.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans keeps spans in memory until the run ends. A nil *spans records
// nothing, so untraced runs pay one nil check per call site.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []spanRecord
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span under parent and returns its ID.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRecord{ID: len(s.recs) + 1, Parent: parent, Name: name, StartNS: now, EndNS: -1})
	return len(s.recs)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.recs[id-1].EndNS = now
	s.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (s *spans) timed(name string, parent int, fn func()) time.Duration {
	id := s.start(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end(id)
	return d
}

func (s *spans) count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	s.mu.Lock()
	for i := range s.recs {
		if err := enc.Encode(&s.recs[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
