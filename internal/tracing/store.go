package tracing

import (
	"sync"
	"time"
)

// DefaultCapacity is the trace count a Store keeps when the caller
// passes no explicit capacity.
const DefaultCapacity = 256

// DefaultMaxSpansPerTrace bounds the spans kept per trace; past it,
// new spans are counted as dropped instead of stored, so one
// 100k-round advance cannot flood the buffer.
const DefaultMaxSpansPerTrace = 512

// Store is a bounded in-memory buffer of finished spans grouped by
// trace: when a span arrives for an unseen trace and the buffer is at
// capacity, the oldest trace (by first-seen order — a FIFO ring) is
// evicted whole. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	maxSpans int
	order    []string // trace ids, oldest first
	traces   map[string]*traceEntry

	evicted      uint64 // traces evicted by the ring
	droppedSpans uint64 // spans dropped by the per-trace cap
}

type traceEntry struct {
	first   time.Time
	spans   []SpanData
	dropped int
}

// NewStore returns a store keeping the last capacity traces
// (capacity <= 0 means DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		maxSpans: DefaultMaxSpansPerTrace,
		traces:   make(map[string]*traceEntry, capacity),
	}
}

// SetMaxSpansPerTrace overrides the per-trace span cap (n <= 0 resets
// the default). Call before recording; it does not re-trim.
func (s *Store) SetMaxSpansPerTrace(n int) {
	if n <= 0 {
		n = DefaultMaxSpansPerTrace
	}
	s.mu.Lock()
	s.maxSpans = n
	s.mu.Unlock()
}

// add records one finished span, evicting the oldest trace if the
// ring is full.
func (s *Store) add(data SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[data.TraceID]
	if !ok {
		if len(s.order) >= s.capacity {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.traces, oldest)
			s.evicted++
		}
		e = &traceEntry{first: data.Start}
		s.traces[data.TraceID] = e
		s.order = append(s.order, data.TraceID)
	}
	if len(e.spans) >= s.maxSpans {
		e.dropped++
		s.droppedSpans++
		return
	}
	if data.Start.Before(e.first) {
		e.first = data.Start
	}
	e.spans = append(e.spans, data)
}

// Len returns the number of traces currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Evicted returns how many traces the ring has evicted so far.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// DroppedSpans returns how many spans the per-trace cap has dropped.
func (s *Store) DroppedSpans() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.droppedSpans
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Name is the root span's name (the span without a parent; the
	// first recorded span when the root was evicted or still open).
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_s"`
	Spans    int       `json:"spans"`
	Dropped  int       `json:"dropped_spans,omitempty"`
}

// Traces lists the stored traces, newest first.
func (s *Store) Traces() []TraceSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		e := s.traces[id]
		sum := TraceSummary{
			TraceID: id,
			Start:   e.first,
			Spans:   len(e.spans),
			Dropped: e.dropped,
		}
		if len(e.spans) > 0 {
			root := e.spans[0]
			for _, sp := range e.spans {
				if sp.ParentID == "" {
					root = sp
					break
				}
			}
			sum.Name = root.Name
			sum.Duration = root.Duration
		}
		out = append(out, sum)
	}
	return out
}

// TraceDetail is the full span list of one trace, in recorded
// (finish) order — children end before their parent, so the root is
// typically last.
type TraceDetail struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
	Dropped int        `json:"dropped_spans,omitempty"`
}

// Trace returns the spans of one trace by hex id.
func (s *Store) Trace(id string) (TraceDetail, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[id]
	if !ok {
		return TraceDetail{}, false
	}
	return TraceDetail{
		TraceID: id,
		Spans:   append([]SpanData(nil), e.spans...),
		Dropped: e.dropped,
	}, true
}
