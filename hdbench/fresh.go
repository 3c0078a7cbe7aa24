package main

// fleet-fresh: open loop, reads beside writes. Two durable nodes (default
// batch group-commit fsync) hold resident state built at set-up, then
// reopened (WAL replay) and cold-polled. One generator goroutine sends
// uploads on a seeded Poisson schedule well below saturation, routed to the
// nodes by fleet.NewRing, while a fleet.Regional poller runs PollDelta on a
// fixed cadence. Every upload is timed from its due time; it becomes visible
// at the end of the first poll whose delta shows its device's probe count
// reach it.
//
// The poller keeps a fixed cadence rather than polling back to back: on a
// shared 2-vCPU host, back-to-back polls keep the CPU busy, and the
// visibility percentiles then follow the host's CPU availability (run-to-run
// IQR 15-25% of the median) instead of the tier's own costs.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
)

const (
	freshResident = 1500 // resident devices written at set-up
	freshEntries  = 8
	freshResHot   = hotKeys // every resident device joins every hot entry
	freshDevices  = 256     // timed devices, each with freshVariants bodies
	freshVariants = 4
	freshRate     = 200 // offered uploads per second
	// freshPollEvery is the poller's cadence: a round starts every period,
	// or at once when the previous round overran it.
	freshPollEvery  = 100 * time.Millisecond
	freshSetupReps  = 3
	freshSpanCap    = 1 << 18
	freshDrainLimit = 10 * time.Second
	// A generator whose own lateness averages over half the mean interval, or that
	// ends the phase over freshBacklogLimit behind schedule, fell behind: the
	// run's latencies are invalid.
	freshBacklogLimit = time.Second
)

var freshNodes = []string{"n0", "n1"}

type freshEnv struct {
	dir    string
	aggs   []*fleet.Aggregator
	srv    *httpServer
	ring   *fleet.Ring
	reg    *fleet.Regional
	devs   []*fleetDevice
	byName map[string]int
	seed   uint64
	tracer atomic.Pointer[Tracer]
	// pollSpan is the open poll span, as "<span>:<req>", or "" between polls.
	pollSpan atomic.Value
	stashMu  sync.Mutex
	stash    []*lockedBuf
	stats    uploadStats
	inflight sync.WaitGroup // server-side requests (see timingHandler)
	phases   int            // timed phases run so far (each draws its own arrivals)

	replayMs, coldPollMs float64
}

// spanTransport stamps the poller's requests with the open poll span.
type spanTransport struct {
	base http.RoundTripper
	cur  *atomic.Value
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, _ := t.cur.Load().(string); v != "" {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, v)
	}
	return t.base.RoundTrip(r)
}

func (e *freshEnv) newStash() *lockedBuf {
	b := &lockedBuf{}
	e.stashMu.Lock()
	e.stash = append(e.stash, b)
	e.stashMu.Unlock()
	return b
}

// takeStash returns the snapshot bodies served since the last call.
func (e *freshEnv) takeStash() [][]byte {
	e.stashMu.Lock()
	bufs := e.stash
	e.stash = nil
	e.stashMu.Unlock()
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		b.mu.Lock()
		out[i] = b.buf.Bytes()
		b.mu.Unlock()
	}
	return out
}

func (e *freshEnv) residentSeed(i int) uint64 { return derive(e.seed, streamResident, uint64(i)) }

func (e *freshEnv) nodeOf(device string) int {
	if e.ring.Node(device) == freshNodes[0] {
		return 0
	}
	return 1
}

// openFresh is one set-up: resident state written through both nodes, a
// clean close, a reopen with batch fsync (WAL replay), the HTTP front and
// the regional poller's first full poll.
func openFresh(seed uint64) (*freshEnv, error) {
	dir, err := mkWorkDir("fresh-")
	if err != nil {
		return nil, err
	}
	e := &freshEnv{dir: dir, seed: seed, ring: fleet.NewRing(freshNodes, 0)}
	e.pollSpan.Store("")
	fail := func(err error) (*freshEnv, error) {
		e.close()
		return nil, err
	}
	if err := e.populate(); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	for _, n := range freshNodes {
		agg, err := durable(filepath.Join(dir, n), fleet.SyncBatch)
		if err != nil {
			return fail(err)
		}
		e.aggs = append(e.aggs, agg)
	}
	e.replayMs = float64(time.Since(t0).Microseconds()) / 1e3

	mux := http.NewServeMux()
	for i, n := range freshNodes {
		h := &timingHandler{inner: fleet.NewServer(e.aggs[i]).Handler(), agg: e.aggs[i], tracer: &e.tracer, onSnapshot: e.newStash, inflight: &e.inflight}
		mux.Handle("/"+n+"/", http.StripPrefix("/"+n, h))
	}
	if e.srv, err = serve(mux); err != nil {
		return fail(err)
	}
	client := oneConnClient(func(rt http.RoundTripper) http.RoundTripper {
		return &spanTransport{base: rt, cur: &e.pollSpan}
	})
	var urls []string
	for _, n := range freshNodes {
		urls = append(urls, e.srv.base+"/"+n)
	}
	e.reg = fleet.NewRegional(urls, client)
	t0 = time.Now()
	res := e.reg.PollDelta(context.Background())
	e.coldPollMs = float64(time.Since(t0).Microseconds()) / 1e3
	e.takeStash()
	if res.Failed > 0 {
		return fail(fmt.Errorf("cold poll: %d nodes failed: %v", res.Failed, res.Errs))
	}
	// Timed uploads carry resident devices' root causes, so the entry count
	// stays put while they run: every poll folds the same state size.
	e.devs = makeDevices("dev", freshDevices, freshVariants, freshEntries, 1,
		func(i, v int) uint64 { return e.residentSeed(i*freshVariants + v) })
	e.byName = map[string]int{}
	for i, d := range e.devs {
		e.byName[d.name] = i
	}
	return e, nil
}

// populate writes the resident state through in-process durable submits
// (no fsync), then closes both nodes, which compacts each shard's log
// into a snapshot.
func (e *freshEnv) populate() error {
	var aggs []*fleet.Aggregator
	for _, n := range freshNodes {
		agg, err := durable(filepath.Join(e.dir, n), fleet.SyncOff)
		if err != nil {
			for _, a := range aggs {
				a.Close()
			}
			return err
		}
		aggs = append(aggs, agg)
	}
	res := makeDevices("res", freshResident, 1, freshEntries, freshResHot, func(i, _ int) uint64 { return e.residentSeed(i) })
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(res); i += len(errs) {
				rep := res[i].bases[0]
				id, err := fleet.ReportUploadID(rep)
				if err == nil {
					err = submitRetry(aggs[e.nodeOf(res[i].name)], rep, id)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, a := range aggs {
		a.Close()
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("populating resident state: %w", err)
		}
	}
	return nil
}

func submitRetry(agg *fleet.Aggregator, rep *core.Report, id fleet.UploadID) error {
	for {
		err := agg.SubmitDurable(rep, id)
		if err != fleet.ErrQueueFull {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (e *freshEnv) close() {
	if e.srv != nil {
		e.srv.close()
	}
	for _, a := range e.aggs {
		a.Close()
	}
	os.RemoveAll(e.dir)
}

// freshPhase is one timed phase's raw observations.
type freshPhase struct {
	start   time.Time
	genWall time.Duration
	cpu     time.Duration // process CPU while the generator ran
	// late is the generator's own lateness per upload, ms: how long after
	// both its due time and the previous upload's completion it started.
	// Waiting for a slow previous upload is the system's delay, which the
	// due-time latencies already carry.
	late    []float64
	backlog time.Duration // how far behind schedule the last upload started
	// per device, per acked upload in order: due, ack and visible times
	due, ack, vis [][]time.Time
	acked         int64
	polls         []float64 // poll wall time, ms
	changed       []float64 // entries per delta poll
	fullResyncs   int
	lastReport    *core.Report
	drained       bool
}

// run drives one phase: the generator for secs seconds, then polling until
// every acked upload is visible (or freshDrainLimit passes).
func (e *freshEnv) run(secs float64) *freshPhase {
	ph := &freshPhase{
		due: make([][]time.Time, len(e.devs)),
		ack: make([][]time.Time, len(e.devs)),
		vis: make([][]time.Time, len(e.devs)),
	}
	// base: each device's uploads acked (and, the previous phase having
	// drained, visible) before this phase.
	base := make([]int, len(e.devs))
	for i, d := range e.devs {
		base[i] = d.acked
	}
	target := make(chan []int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.poll(ph, base, target)
	}()

	u := newUploader(&e.tracer)
	cpu0 := processCPU()
	start := time.Now()
	ph.start = start
	end := start.Add(time.Duration(secs * float64(time.Second)))
	prevDone := start
	// Poisson arrivals at freshRate, drawn from the seed: a fixed schedule
	// that never phase-locks with the poller's cycle.
	var offset time.Duration
	for i := 0; ; i++ {
		uni := (float64(derive(e.seed, streamArrival, uint64(e.phases), uint64(i))>>11) + 0.5) / (1 << 53)
		offset += time.Duration(-math.Log(uni) / freshRate * float64(time.Second))
		due := start.Add(offset)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if prevDone.After(due) {
			ready = prevDone
		}
		ph.late = append(ph.late, float64(time.Since(ready).Microseconds())/1e3)
		ph.backlog = time.Since(due)
		d := e.devs[i%len(e.devs)]
		seq, rep := d.next()
		url := e.srv.base + "/" + freshNodes[e.nodeOf(d.name)] + "/v1/upload"
		if u.upload(url, d, rep, pickKind(e.seed, d.idx, seq), uint64(d.idx)<<32|uint64(seq)) {
			ph.due[d.idx] = append(ph.due[d.idx], due)
			ph.ack[d.idx] = append(ph.ack[d.idx], time.Now())
			ph.acked++
		}
		prevDone = time.Now()
	}
	ph.genWall = time.Since(start)
	ph.cpu = processCPU() - cpu0
	e.phases++
	e.stats.add(u.stats)
	u.close()
	want := make([]int, len(e.devs))
	for i, d := range e.devs {
		want[i] = d.acked - base[i]
	}
	target <- want
	wg.Wait()
	return ph
}

// poll runs PollDelta every freshPollEvery, turning each round's probe
// counts into visibility times, until every upload acked in the phase
// (target, sent once the generator stops) is visible.
func (e *freshEnv) poll(ph *freshPhase, base []int, target <-chan []int) {
	seen := append([]int(nil), base...) // probe count visible so far, per device
	var want []int
	var drainEnd time.Time
	next := time.Now()
	for round := uint64(0); ; round++ {
		tr := e.tracer.Load()
		sp := tr.Begin(spPoll, -1, round)
		if sp >= 0 {
			e.pollSpan.Store(spanHeaderValue(sp, round))
		}
		t0 := time.Now()
		res := e.reg.PollDelta(context.Background())
		t1 := time.Now()
		e.pollSpan.Store("")
		tr.End(sp)
		ph.polls = append(ph.polls, float64(t1.Sub(t0).Microseconds())/1e3)
		ph.fullResyncs += len(freshNodes) - res.Failed - res.Deltas
		ph.lastReport = res.Report
		changed := 0
		for _, body := range e.takeStash() {
			wr, err := core.NewBinaryDecoder().Decode(body)
			if err != nil {
				continue // a failed fetch; the node keeps its mirror
			}
			changed += len(wr.Entries)
			for _, we := range wr.Entries {
				if we.App != probeApp {
					continue
				}
				i, ok := e.byName[strings.TrimPrefix(we.ActionUID, "probe/")]
				if !ok {
					continue
				}
				for ; seen[i] < we.Hangs; seen[i]++ {
					ph.vis[i] = append(ph.vis[i], t1)
				}
			}
		}
		ph.changed = append(ph.changed, float64(changed))
		if want == nil {
			select {
			case want = <-target:
				drainEnd = time.Now().Add(freshDrainLimit)
			default:
			}
		}
		if want != nil {
			done := true
			for i := range want {
				if len(ph.vis[i]) < want[i] {
					done = false
					break
				}
			}
			if done || time.Now().After(drainEnd) {
				ph.drained = done
				return
			}
		}
		next = next.Add(freshPollEvery)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else {
			next = time.Now()
		}
	}
}

func runFleetFresh(o options) (*result, error) {
	r := newResult()
	var env *freshEnv
	var setups, replays, colds []float64
	for rep := 0; rep < freshSetupReps; rep++ {
		t0 := time.Now()
		e, err := openFresh(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		replays = append(replays, e.replayMs)
		colds = append(colds, e.coldPollMs)
		if rep < freshSetupReps-1 {
			e.close()
			continue
		}
		env = e
	}
	defer env.close()
	r.e2e["setup_s"] = median(setups)
	r.layer["fleet.replay_ms"] = median(replays)
	r.layer["fleet.cold_poll_ms"] = median(colds)
	runtime.GC()

	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	ph := env.run(secs)
	vis, ackLat, _ := ph.latencies()
	r.e2e["cpu_us_per_op"] = safeDiv(float64(ph.cpu.Microseconds()), float64(ph.acked))
	r.e2e["throughput_per_s"] = safeDiv(float64(ph.acked), ph.genWall.Seconds())
	r.e2e["latency_p50_us"] = quantile(vis, 0.50)
	r.e2e["latency_p99_us"] = quantile(vis, 0.99)
	env.check(r, ph, "untraced")
	r.notes = append(r.notes, fmt.Sprintf(
		"untraced: %d acked uploads offered at %d/s over %.3f s; %d visible; ack p50 %.0f us p99 %.0f us; %d polls, p50 %.2f ms; generator own lateness p99 %.3f ms, final backlog %v",
		ph.acked, freshRate, ph.genWall.Seconds(), len(vis), quantile(ackLat, 0.5), quantile(ackLat, 0.99), len(ph.polls), quantile(ph.polls, 0.5),
		quantile(ph.late, 0.99), ph.backlog.Round(time.Microsecond)))

	last := ph.lastReport
	if o.trace {
		tr := newTracer(freshSpanCap)
		env.tracer.Store(tr)
		before := readAggCounters(env.aggs...)
		tph := startPhase()
		tp := env.run(secs)
		tph.stop()
		env.tracer.Store(nil)
		env.inflight.Wait()
		env.check(r, tp, "traced")
		last = tp.lastReport
		fillAggLayers(r, before, readAggCounters(env.aggs...), float64(tp.acked))
		tph.perOp(r, float64(tp.acked))
		tvis, tack, tackVis := tp.latencies()
		st := finishTrace(o, tr, r)
		r.layer["core.encode_us"] = st[spEncode].quantileUs(0.5)
		r.layer["net.rtt_overhead_us"] = st[spPost].quantileUs(0.5)
		r.layer["fleet.upload_handler_us_p50"] = st[spUploadHandler].quantileUs(0.5)
		r.layer["fleet.upload_handler_us_p99"] = st[spUploadHandler].quantileUs(0.99)
		r.layer["fleet.delta_handler_us"] = st[spDeltaHandler].quantileUs(0.5)
		r.layer["fleet.ack_latency_p50_us"] = quantile(tack, 0.5)
		r.layer["fleet.ack_latency_p99_us"] = quantile(tack, 0.99)
		r.layer["fleet.ack_to_visible_ms"] = quantile(tackVis, 0.5) / 1e3
		r.layer["fleet.regional_poll_ms_p50"] = quantile(tp.polls, 0.5)
		r.layer["fleet.regional_poll_ms_p99"] = quantile(tp.polls, 0.99)
		r.layer["fleet.poll_changed_entries"] = mean(tp.changed)
		r.ratio("fleet.full_resyncs_per_poll", float64(tp.fullResyncs), float64(len(tp.polls)))
		r.layer["bench.generator_late_ms_p99"] = quantile(tp.late, 0.99)
		parts := r.layer["core.encode_us"] + r.layer["net.rtt_overhead_us"] + r.layer["fleet.upload_handler_us_p50"]
		up50 := st[spUpload].durQuantileUs(0.5)
		r.ratio("bench.accounted_ratio", parts, up50)
		untracedCPU := r.e2e["cpu_us_per_op"]
		r.ratio("bench.trace_overhead_pct", 100*(r.layer["process.cpu_us_per_op"]-untracedCPU), untracedCPU)
		r.notes = append(r.notes, fmt.Sprintf(
			"tracing overhead: latency_p50_us (visible) untraced %.0f traced %.0f; cpu_us_per_op untraced %.1f traced %.1f (%+.2f%%)",
			r.e2e["latency_p50_us"], quantile(tvis, 0.5), untracedCPU, r.layer["process.cpu_us_per_op"], r.layer["bench.trace_overhead_pct"]),
			fmt.Sprintf("p50 accounting: encode %.1f + network %.1f + handler %.1f = %.1f us of %.1f us per upload round trip",
				r.layer["core.encode_us"], r.layer["net.rtt_overhead_us"], r.layer["fleet.upload_handler_us_p50"], parts, up50))
	}

	// The incremental poller must agree with a from-scratch regional fold.
	fold, err := env.reg.Fold(context.Background())
	if err != nil {
		r.failf("final regional fold: %v", err)
	} else if !bytes.Equal(core.AppendReportBinary(nil, last), core.AppendReportBinary(nil, fold)) {
		r.failf("last PollDelta report (%d entries) differs from a from-scratch Regional.Fold (%d entries)", last.Len(), fold.Len())
	}
	checkProbes(r, "last PollDelta report", probeCounts(last), env.devs)
	s := env.stats
	r.attempted, r.failed = s.attempts, s.exhausted
	r.ratio("bench.fail_ratio", float64(s.exhausted), float64(s.attempts))
	r.ratio("fleet.accepted_ratio", float64(s.accepted), float64(s.posts))
	r.notes = append(r.notes, s.String(), fmt.Sprintf("regional fold: %d entries, %d hangs", fold.Len(), fold.TotalHangs()))
	return r, nil
}

// latencies returns, in µs, due->visible and due->202 per acked upload,
// and 202->visible.
func (ph *freshPhase) latencies() (vis, ack, ackVis []float64) {
	for i := range ph.due {
		for j, due := range ph.due[i] {
			a := ph.ack[i][j]
			ack = append(ack, float64(a.Sub(due).Nanoseconds())/1e3)
			if j < len(ph.vis[i]) {
				v := ph.vis[i][j]
				vis = append(vis, float64(v.Sub(due).Nanoseconds())/1e3)
				ackVis = append(ackVis, float64(v.Sub(a).Nanoseconds())/1e3)
			}
		}
	}
	return vis, ack, ackVis
}

// check validates one phase: every acked upload became visible, and the
// generator kept its schedule.
func (e *freshEnv) check(r *result, ph *freshPhase, what string) {
	if !ph.drained {
		r.failf("%s: acked uploads not visible within %v of the end of the phase", what, freshDrainLimit)
	}
	limit := float64((time.Second / freshRate / 2).Microseconds()) / 1e3
	if late := mean(ph.late); late > limit {
		r.failf("%s: generator's own lateness averages %.3f ms, over %.3f ms: latencies invalid", what, late, limit)
	}
	if ph.backlog > freshBacklogLimit {
		r.failf("%s: generator ended %v behind schedule: the offered rate saturates the system", what, ph.backlog)
	}
}
