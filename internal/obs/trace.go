package obs

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Trace is one request's span accounting: an ID minted at admission
// plus a per-stage nanosecond accumulator. It rides the request
// context into the handler, is handed to each minute burst the request
// links, and collects the WAL-append span on the commit path. Each
// span is one atomic add, so a trace may be shared by goroutines.
//
// A request links and commits its own bursts; the one shared stage is
// the group-commit fsync, which sits in full inside the WAL-append
// span of every request it made durable, so spans can overlap across
// requests; see docs/observability.md.
//
// A nil *Trace is a valid no-op receiver.
type Trace struct {
	id    uint64
	start time.Time
	spans [NumStages]atomic.Int64
}

var traceCounter atomic.Uint64

// StartTrace mints a trace with a process-unique ID, stamped now.
func StartTrace() *Trace {
	return &Trace{id: traceCounter.Add(1), start: time.Now()}
}

// ID returns the trace identifier (unique within the process).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Start returns the admission timestamp.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Observe adds a span's duration to one stage's accumulator.
func (t *Trace) Observe(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= NumStages {
		return
	}
	t.spans[s].Add(int64(d))
}

// Spans renders the non-zero stage accumulators as space-separated
// key=value pairs in pipeline order — the payload of the slow-request
// log line.
func (t *Trace) Spans() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		ns := t.spans[s].Load()
		if ns == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", s, time.Duration(ns))
	}
	return b.String()
}

type traceKey struct{}

// WithTrace attaches a trace to a request context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when none was minted
// (disabled metrics, internal callers).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
