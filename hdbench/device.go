package main

// device-corpus: every corpus app on its own simulated LGV10 with a Hang
// Doctor attached, driven closed-loop by one goroutine. No fleet layer runs.
//
// A run cycles over devicePasses distinct passes (each with its own seeds
// derived from --seed) until the timed phase ends, resetting the shared
// known-blocking database at every pass start so a repeated pass is the same
// input. Every repetition must reproduce its pass's detection fingerprint and
// modeled overhead exactly; that is the determinism check, and it also
// compares the traced pass against the untraced one.
//
// Costs are CPU time, not wall time: on a shared 2-vCPU host the device
// plane's wall time follows the neighbours' memory traffic (see
// README.md), while CPU time of the driving thread does not include
// time the thread spent descheduled.

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/simclock"
)

const (
	deviceActionsPerApp = 90
	devicePasses        = 2
	deviceSetupReps     = 5
	deviceThink         = simclock.Second
	deviceSpanCap       = 1 << 18
)

func passSeed(seed uint64, pass, appIdx int) uint64 {
	return derive(seed, streamPass, uint64(pass), uint64(appIdx))
}

type deviceBench struct {
	c    *corpus.Corpus
	apps []*app.App
	seed uint64
	// lat collects the driving thread's CPU time per action, in µs.
	lat []float64
}

// passOut is one pass's outcome.
type passOut struct {
	actions, failed int64
	threadCPU       time.Duration
	// costNs and appCPUNs are the modeled overhead's numerator and base:
	// Doctor-accounted monitor cost and main+render task clock, simulated ns.
	costNs, appCPUNs int64
	fingerprint      uint64
	problems         []string
	// misattributed lists detections in bug apps whose root cause is
	// neither one of the app's seeded bugs nor an await frame; misHangs is
	// their hang total, bugAppHangs every soft hang of the bug apps (counted
	// on reference passes only).
	misattributed         []string
	misHangs, bugAppHangs int
	counts                map[string]float64
}

// tracedListener delegates the four app.Listener hooks to the Doctor and
// times each one as a child span of the action being performed.
type tracedListener struct {
	d      *core.Doctor
	tr     *Tracer
	parent int32
	req    uint64
}

func (l *tracedListener) ActionStart(e *app.ActionExec) {
	sp := l.tr.Begin(spActionStart, l.parent, l.req)
	l.d.ActionStart(e)
	l.tr.End(sp)
}

func (l *tracedListener) EventStart(e *app.ActionExec, ev *app.EventExec) {
	sp := l.tr.Begin(spEventStart, l.parent, l.req)
	l.d.EventStart(e, ev)
	l.tr.End(sp)
}

func (l *tracedListener) EventEnd(e *app.ActionExec, ev *app.EventExec) {
	sp := l.tr.Begin(spEventEnd, l.parent, l.req)
	l.d.EventEnd(e, ev)
	l.tr.End(sp)
}

func (l *tracedListener) ActionEnd(e *app.ActionExec) {
	sp := l.tr.Begin(spActionEnd, l.parent, l.req)
	l.d.ActionEnd(e)
	l.tr.End(sp)
}

// setup builds the corpus and the traces of every pass, then runs one
// untimed warm-up pass so lazily built state is in place before timing. It
// does this deviceSetupReps times, keeping the last corpus, and returns the
// median driving-thread CPU time of one set-up in seconds: set-up is the
// same memory-bound work as a pass, so its wall time is as noisy.
func (b *deviceBench) setup(tr *Tracer, r *result) float64 {
	var total, build, gen []float64
	for rep := 0; rep < deviceSetupReps; rep++ {
		cpu0, t0 := threadCPU(), time.Now()
		sp := tr.Begin(spCorpusBuild, -1, 0)
		c := corpus.Build()
		tr.End(sp)
		t1 := time.Now()
		apps := append(append([]*app.App(nil), c.Apps...), c.Async...)
		sp = tr.Begin(spCorpusTrace, -1, 0)
		for p := 0; p < devicePasses; p++ {
			for i, a := range apps {
				corpus.Trace(a, passSeed(b.seed, p, i), deviceActionsPerApp)
			}
		}
		tr.End(sp)
		t2 := time.Now()
		b.c, b.apps = c, apps
		b.runPass(0, nil, false)
		total = append(total, (threadCPU() - cpu0).Seconds())
		build = append(build, float64(t1.Sub(t0).Microseconds())/1e3)
		gen = append(gen, float64(t2.Sub(t1).Microseconds())/1e3)
	}
	r.layer["corpus.build_ms"] = median(build)
	r.layer["corpus.trace_ms"] = median(gen)
	b.lat = nil
	return median(total)
}

// runPass runs every app once with the pass's seeds. tr nil is untraced.
func (b *deviceBench) runPass(pass int, tr *Tracer, wantCounts bool) passOut {
	b.c.Registry.SnapshotYear(api.ShippedYear)
	out := passOut{}
	if wantCounts {
		out.counts = map[string]float64{}
	}
	h := fnv.New64a()
	for i, a := range b.apps {
		b.runApp(a, passSeed(b.seed, pass%devicePasses, i), tr, &out, h)
	}
	fmt.Fprintf(h, "cost=%d app=%d", out.costNs, out.appCPUNs)
	out.fingerprint = h.Sum64()
	return out
}

func (b *deviceBench) runApp(a *app.App, seed uint64, tr *Tracer, out *passOut, h io.Writer) {
	trace := corpus.Trace(a, seed, deviceActionsPerApp)
	req := seed
	sp := tr.Begin(spNewSession, -1, req)
	sess, err := app.NewSession(a, app.LGV10(), seed)
	if err != nil {
		tr.End(sp)
		out.problems = append(out.problems, fmt.Sprintf("%s: new session: %v", a.Name, err))
		out.failed += int64(len(trace))
		out.actions += int64(len(trace))
		return
	}
	doc := core.New(core.Config{})
	doc.Attach(sess)
	var tl *tracedListener
	if tr != nil {
		tl = &tracedListener{d: doc, tr: tr}
		sess.AddListener(tl)
	} else {
		sess.AddListener(doc)
	}
	tr.End(sp)
	appCPU0 := sess.MainThread().Counters().TaskClock + sess.RenderThread().Counters().TaskClock

	// The thread-CPU reading is a syscall, and the kernel tends to deschedule
	// a thread on its way back from one, so traced passes, which do not use
	// it, skip it rather than leave that time between spans.
	var prev time.Duration
	if tr == nil {
		prev = threadCPU()
	}
	for k, act := range trace {
		out.actions++
		psp := tr.Begin(spPerform, -1, req+uint64(k))
		if tl != nil {
			tl.parent, tl.req = psp, req+uint64(k)
		}
		ok := performSafely(sess, act)
		tr.End(psp)
		if !ok {
			out.failed++
			break
		}
		isp := tr.Begin(spIdle, -1, req+uint64(k))
		sess.Idle(deviceThink)
		tr.End(isp)
		if tr == nil {
			now := threadCPU()
			out.threadCPU += now - prev
			b.lat = append(b.lat, float64(now-prev)/1e3)
			prev = now
		}
	}
	sp = tr.Begin(spDetach, -1, req)
	doc.Detach()
	tr.End(sp)

	out.costNs += doc.Log().CostNs
	out.appCPUNs += sess.MainThread().Counters().TaskClock + sess.RenderThread().Counters().TaskClock - appCPU0
	dets := doc.Detections()
	fmt.Fprintf(h, "%s|%d|%d|", a.Name, doc.Log().CostNs, len(dets))
	bugRoots := map[string]bool{}
	for _, bug := range a.Bugs {
		bugRoots[bug.RootCauseKey()] = true
	}
	// A bug app's detections name its seeded bugs, with two documented
	// exceptions: an await-frame verdict the causal analyzer fell back to
	// when no worker sample survived (DESIGN.md §16), which the Doctor must
	// have counted as a causal fallback, and a rare misattribution
	// (EXPERIMENTS.md Fig 2b), which must rank below the app's top seeded
	// bug in the occurrence-ranked report.
	var best, worstMis, awaitHangs int
	for _, d := range dets {
		fmt.Fprintf(h, "%s>%s#%d;", d.ActionUID, d.RootCause, d.Count)
		switch {
		case len(a.Bugs) == 0:
			out.problems = append(out.problems, fmt.Sprintf("%s (bug-free) reported %s at %s", a.Name, d.RootCause, d.ActionUID))
		case bugRoots[d.RootCause]:
			best = max(best, d.Count)
		case isAwaitFrame(d.RootCause):
			awaitHangs += d.Count
		default:
			worstMis = max(worstMis, d.Count)
			out.misHangs += d.Count
			out.misattributed = append(out.misattributed, fmt.Sprintf("%s: %s at %s, %d hangs", a.Name, d.RootCause, d.ActionUID, d.Count))
		}
	}
	if worstMis > 0 && worstMis >= best {
		out.problems = append(out.problems, fmt.Sprintf("%s: a misattributed root cause (%d hangs) ranks with or above the top seeded bug (%d hangs)", a.Name, worstMis, best))
	}
	if fb := doc.Health().CausalFallbacks; awaitHangs > fb {
		out.problems = append(out.problems, fmt.Sprintf("%s: %d hangs blamed on an await frame but %d causal fallbacks counted", a.Name, awaitHangs, fb))
	}
	if out.counts != nil {
		collectDoctorCounts(doc, out.counts)
		if len(a.Bugs) > 0 {
			out.bugAppHangs += int(doc.Metrics().Value("hangdoctor_hangs_total"))
		}
	}
}

// isAwaitFrame reports whether a root cause is an await method such as
// FutureTask.get, the verdict the causal analyzer keeps when it falls back.
func isAwaitFrame(rootCause string) bool {
	i := strings.LastIndexByte(rootCause, '.')
	return i > 0 && api.IsAwaitMethod(rootCause[:i], rootCause[i+1:])
}

// performSafely runs one action, reporting a stall or panic as a failure.
func performSafely(s *app.Session, act *app.Action) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	s.Perform(act)
	return true
}

// collectDoctorCounts adds the Doctor's own counts, read through
// Metrics(), Detections() and Transitions().
func collectDoctorCounts(d *core.Doctor, c map[string]float64) {
	m := d.Metrics()
	c["app.soft_hangs"] += float64(m.Value("hangdoctor_hangs_total"))
	c["core.scheck_runs"] += float64(m.Histogram("hangdoctor_scheck_latency_ns").Count)
	c["core.stack_collections"] += float64(m.Histogram("hangdoctor_stack_collection_ms").Count)
	c["core.detections"] += float64(len(d.Detections()))
	for _, t := range d.Transitions() {
		if t.To == core.Suspicious {
			c["core.suspicious"]++
		}
	}
	for _, f := range m.Families {
		if name, ok := strings.CutPrefix(f.Name, "hangdoctor_health_"); ok && len(f.Series) > 0 {
			c["core.health."+strings.TrimSuffix(name, "_total")] += float64(f.Series[0].Value)
		}
	}
}

func runDeviceCorpus(o options) (*result, error) {
	r := newResult()
	b := &deviceBench{seed: o.seed}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var tr *Tracer
	if o.trace {
		tr = newTracer(deviceSpanCap)
	}
	r.e2e["setup_s"] = b.setup(tr, r)
	runtime.GC()

	// Reference passes: the first cycle fixes each pass's fingerprint and
	// the modeled overhead; later repetitions must reproduce them.
	ref := make([]passOut, 0, devicePasses)
	var perPassCPU, perPassRate []float64
	var all []passOut
	untracedSecs := o.seconds
	if o.trace {
		untracedSecs = o.seconds / 2
	}
	ph := startPhase()
	end := deadline(untracedSecs)
	for p := 0; p < devicePasses || time.Now().Before(end); p++ {
		cpu0 := processCPU()
		po := b.runPass(p, nil, p < devicePasses)
		cpu := processCPU() - cpu0
		if p < devicePasses {
			ref = append(ref, po)
		}
		perPassCPU = append(perPassCPU, safeDiv(float64(cpu.Microseconds()), float64(po.actions)))
		perPassRate = append(perPassRate, safeDiv(float64(po.actions), po.threadCPU.Seconds()))
		all = append(all, po)
	}
	ph.stop()
	untracedLat := b.lat
	b.lat = nil

	var actions int64
	for i, po := range all {
		actions += po.actions
		r.attempted += po.actions
		r.failed += po.failed
		r.problems = append(r.problems, po.problems...)
		if want := ref[i%devicePasses].fingerprint; po.fingerprint != want {
			r.failf("pass %d fingerprint %x differs from reference %x", i, po.fingerprint, want)
		}
	}
	r.e2e["cpu_us_per_op"] = median(perPassCPU)
	r.e2e["throughput_per_s"] = median(perPassRate)
	r.e2e["latency_p50_us"] = quantile(untracedLat, 0.50)
	r.e2e["latency_p99_us"] = quantile(untracedLat, 0.99)

	var cost, base int64
	for _, po := range ref {
		cost += po.costNs
		base += po.appCPUNs
		for k, v := range po.counts {
			r.layer[k] += v
		}
	}
	// Misattributions must stay rare: under 0.5% of the bug apps' hangs, the
	// share EXPERIMENTS.md (Fig 2b) documents. One app's pass has too few
	// hangs for a share that small, so it is taken over the whole cycle.
	var misHangs, bugAppHangs int
	for _, po := range ref {
		for _, m := range po.misattributed {
			r.notes = append(r.notes, "misattributed detection: "+m)
		}
		r.layer["core.misattributions"] += float64(len(po.misattributed))
		misHangs += po.misHangs
		bugAppHangs += po.bugAppHangs
	}
	if share := safeDiv(float64(misHangs), float64(bugAppHangs)); share >= 0.005 {
		r.failf("misattributed detections hold %d of the bug apps' %d hangs (%.2f%%, documented under 0.5%%)", misHangs, bugAppHangs, 100*share)
	}
	r.notes = append(r.notes, fmt.Sprintf("misattributed hangs: %d of the bug apps' %d", misHangs, bugAppHangs))
	r.ratio("core.modeled_overhead_pct", 100*float64(cost), float64(base))
	r.ratio("core.suspicious_per_hang", r.layer["core.suspicious"], r.layer["app.soft_hangs"])
	r.ratio("core.detections_per_collection", r.layer["core.detections"], r.layer["core.stack_collections"])
	delete(r.layer, "core.suspicious")
	r.ratio("bench.fail_ratio", float64(r.failed), float64(r.attempted))
	r.notes = append(r.notes, fmt.Sprintf("untraced: %d passes, %d actions, %d apps, modeled overhead %.4f%% (Fig 8c, simulated time)",
		len(all), actions, len(b.apps), r.layer["core.modeled_overhead_pct"]))

	if !o.trace {
		return r, nil
	}

	// Traced phase: the same passes again, every layer boundary a span.
	untracedCPU := safeDiv(float64(ph.cpu.Microseconds()), float64(actions))
	tph := startPhase()
	end = deadline(o.seconds / 2)
	var tActions int64
	perPass := 0
	for p := 0; p < devicePasses || (time.Now().Before(end) && tr.Used()+perPass < deviceSpanCap); p++ {
		used := tr.Used()
		po := b.runPass(p, tr, false)
		perPass = tr.Used() - used
		tActions += po.actions
		r.attempted += po.actions
		r.failed += po.failed
		r.problems = append(r.problems, po.problems...)
		if want := ref[p%devicePasses].fingerprint; po.fingerprint != want {
			r.failf("traced pass %d fingerprint %x differs from untraced %x", p, po.fingerprint, want)
		}
	}
	tph.stop()
	tph.perOp(r, float64(tActions))
	r.ratio("bench.fail_ratio", float64(r.failed), float64(r.attempted))

	st := finishTrace(o, tr, r)
	r.layer["app.new_session_us"] = st[spNewSession].meanUs()
	r.layer["app.perform_self_us"] = st[spPerform].meanUs()
	r.layer["app.idle_us"] = st[spIdle].meanUs()
	r.layer["core.action_start_us"] = st[spActionStart].meanUs()
	r.layer["core.event_start_us"] = st[spEventStart].meanUs()
	r.layer["core.event_end_us"] = st[spEventEnd].meanUs()
	r.layer["core.action_end_us"] = st[spActionEnd].meanUs()
	r.layer["core.detach_us"] = st[spDetach].meanUs()
	var selfNs float64
	for _, n := range []uint16{spNewSession, spPerform, spIdle, spActionStart, spEventStart, spEventEnd, spActionEnd, spDetach} {
		selfNs += st[n].total
	}
	r.ratio("bench.accounted_ratio", selfNs/1e3, float64(tph.wall.Microseconds()))
	tracedCPU := r.layer["process.cpu_us_per_op"]
	r.ratio("bench.trace_overhead_pct", 100*(tracedCPU-untracedCPU), untracedCPU)
	r.notes = append(r.notes, fmt.Sprintf(
		"tracing overhead: cpu_us_per_op untraced %.3f traced %.3f (%+.2f%%); accounted self time %.1f%% of traced wall (%.3f s over %d actions)",
		untracedCPU, tracedCPU, r.layer["bench.trace_overhead_pct"], 100*r.layer["bench.accounted_ratio"], tph.wall.Seconds(), tActions))
	return r, nil
}
