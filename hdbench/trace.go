package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark times from outside.
const (
	spCorpusBuild uint16 = iota
	spCorpusTrace
	spNewSession
	spPerform
	spActionStart
	spEventStart
	spEventEnd
	spActionEnd
	spIdle
	spDetach
	spUpload
	spEncode
	spPost
	spUploadHandler
	spPoll
	spDeltaHandler
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"corpus.build", "corpus.trace", "app.new_session", "app.perform",
	"core.action_start", "core.event_start", "core.event_end", "core.action_end",
	"app.idle", "core.detach",
	"bench.upload", "core.encode", "net.post", "fleet.upload_handler",
	"fleet.regional_poll", "fleet.delta_handler",
}

// spanLane groups spans into Chrome trace "threads" by the side that
// records them, so the viewer shows client, server and poller apart.
func spanLane(name uint16) int {
	switch name {
	case spUpload, spEncode, spPost:
		return 2
	case spUploadHandler, spDeltaHandler:
		return 3
	case spPoll:
		return 4
	}
	return 1
}

// spanRec is one recorded span. Times are nanoseconds since the tracer's
// epoch; end < 0 marks a span that never finished.
type spanRec struct {
	start, end int64
	req        uint64
	parent     int32
	name       uint16
}

// Tracer records spans into a buffer allocated up front. Slots are claimed
// with one atomic add, so concurrent recorders never contend on a lock; once
// the buffer is full further spans are counted as dropped. A nil *Tracer is
// valid and records nothing (the untraced run).
type Tracer struct {
	epoch   time.Time
	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]spanRec, capacity)}
}

// Begin opens a span and returns its id (-1 when not recorded).
func (t *Tracer) Begin(name uint16, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = spanRec{start: int64(time.Since(t.epoch)), end: -1, req: req, parent: parent, name: name}
	return int32(i)
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// Full reports whether the buffer has no room left.
func (t *Tracer) Full() bool { return t != nil && t.next.Load() >= int64(len(t.spans)) }

// Used is the number of claimed slots.
func (t *Tracer) Used() int {
	if t == nil {
		return 0
	}
	return int(min(t.next.Load(), int64(len(t.spans))))
}

// recorded returns the finished spans (call after every recorder stopped).
func (t *Tracer) recorded() []spanRec { return t.spans[:t.Used()] }

// layerStats is the self-time distribution of one span name, with the
// spans' whole durations beside it.
type layerStats struct {
	self  []float64 // nanoseconds, one per span
	dur   []float64 // nanoseconds, one per span
	total float64   // sum of self
}

func (l *layerStats) count() int { return len(l.self) }

func (l *layerStats) meanUs() float64 { return safeDiv(l.total, float64(len(l.self))) / 1e3 }

func (l *layerStats) quantileUs(q float64) float64 { return quantile(l.self, q) / 1e3 }

func (l *layerStats) durQuantileUs(q float64) float64 { return quantile(l.dur, q) / 1e3 }

// selfTimes computes, per span name, each span's duration minus the time
// its recorded children cover. Children of one span run one after another
// in this benchmark, so their durations simply add.
func (t *Tracer) selfTimes() [numSpanNames]*layerStats {
	spans := t.recorded()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.end >= 0 && s.parent >= 0 && int(s.parent) < len(spans) {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanNames]*layerStats
	for i := range out {
		out[i] = &layerStats{}
	}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		self := float64(max(s.end-s.start-child[i], 0))
		l := out[s.name]
		l.self = append(l.self, self)
		l.dur = append(l.dur, float64(s.end-s.start))
		l.total += self
	}
	return out
}

// selfTable renders the per-layer self-time table.
func selfTable(st [numSpanNames]*layerStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time (traced phase)\n  %-22s %9s %12s %10s %10s %10s\n",
		"layer", "spans", "total_ms", "mean_us", "p50_us", "p99_us")
	names := make([]int, 0, len(st))
	for i := range st {
		if st[i].count() > 0 {
			names = append(names, i)
		}
	}
	sort.Slice(names, func(a, c int) bool { return st[names[a]].total > st[names[c]].total })
	for _, i := range names {
		l := st[i]
		fmt.Fprintf(&b, "  %-22s %9d %12.2f %10.2f %10.2f %10.2f\n", spanNames[i], l.count(),
			l.total/1e6, l.meanUs(), l.quantileUs(0.5), l.quantileUs(0.99))
	}
	return strings.TrimRight(b.String(), "\n")
}

// writeChrome writes the recorded spans as Chrome trace-event JSON
// ("X" complete events, microsecond timestamps) and returns the path.
func (t *Tracer) writeChrome(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for i, s := range t.recorded() {
		if s.end < 0 {
			continue
		}
		w.WriteString(sep)
		sep = ","
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}",
			spanNames[s.name], spanLane(s.name), float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the span file and appends the self-time table and the
// file location to the result's notes.
func finishTrace(o options, t *Tracer, r *result) [numSpanNames]*layerStats {
	st := t.selfTimes()
	r.notes = append(r.notes, selfTable(st))
	path, err := t.writeChrome(o.out, o.workload, o.seed)
	if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("span file not written: %v", err))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("spans: %d recorded, %d dropped, written to %s", t.Used(), t.dropped.Load(), path))
	}
	return st
}
