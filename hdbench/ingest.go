package main

// fleet-ingest: closed loop, writes only. Two client goroutines, each with
// one keep-alive connection, POST reports over loopback to one durable
// aggregator whose WAL never fsyncs (sync policy off: every record is still
// framed, written and compacted). No reader runs.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/fleet"
)

const (
	ingestDevices   = 1024 // fits the server's dictionary cache (65536)
	ingestVariants  = 4
	ingestEntries   = 8
	ingestClients   = 2
	ingestSetupReps = 5
	ingestSpanCap   = 1 << 18
)

type ingestEnv struct {
	dir    string
	agg    *fleet.Aggregator
	srv    *httpServer
	url    string
	devs   []*fleetDevice
	seed   uint64
	tracer atomic.Pointer[Tracer]
	depths sampleBuf
	stats  uploadStats
	// inflight tracks server-side requests (see timingHandler).
	inflight sync.WaitGroup
}

// openIngest is one set-up: aggregator, server, devices, and a warm-up
// round in which every device sends its first (full-dictionary) upload.
func openIngest(seed uint64) (*ingestEnv, error) {
	dir, err := mkWorkDir("ingest-")
	if err != nil {
		return nil, err
	}
	agg, err := durable(dir, fleet.SyncOff)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &ingestEnv{dir: dir, agg: agg, seed: seed}
	h := &timingHandler{inner: fleet.NewServer(agg).Handler(), agg: agg, tracer: &e.tracer, depths: &e.depths, inflight: &e.inflight}
	if e.srv, err = serve(h); err != nil {
		agg.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.url = e.srv.base + "/v1/upload"
	e.devs = makeDevices("dev", ingestDevices, ingestVariants, ingestEntries, 0,
		func(i, v int) uint64 { return variantSeed(seed, i, v) })
	e.drive(func(k, own int) bool { return k < own })
	return e, nil
}

func (e *ingestEnv) close() {
	e.srv.close()
	e.agg.Close()
	os.RemoveAll(e.dir)
}

// drive runs the client goroutines while more(k, ownedDevices) holds for
// a client's k-th upload, cycling over the devices it owns. It returns the
// latencies of acknowledged uploads (µs, from the device starting the
// upload to the 202) and how many were acknowledged.
func (e *ingestEnv) drive(more func(k, own int) bool) ([]float64, int64) {
	var wg sync.WaitGroup
	lats := make([][]float64, ingestClients)
	ups := make([]*uploader, ingestClients)
	for g := range ups {
		ups[g] = newUploader(&e.tracer)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := ups[g]
			var own []*fleetDevice
			for _, d := range e.devs {
				if d.idx%ingestClients == g {
					own = append(own, d)
				}
			}
			for k := 0; more(k, len(own)); k++ {
				d := own[k%len(own)]
				seq, rep := d.next()
				t0 := time.Now()
				if u.upload(e.url, d, rep, pickKind(e.seed, d.idx, seq), uint64(d.idx)<<32|uint64(seq)) {
					lats[g] = append(lats[g], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		}(g)
	}
	wg.Wait()
	var all []float64
	for g, u := range ups {
		e.stats.add(u.stats)
		u.close()
		all = append(all, lats[g]...)
	}
	return all, int64(len(all))
}

func runFleetIngest(o options) (*result, error) {
	r := newResult()
	var env *ingestEnv
	var setups []float64
	for rep := 0; rep < ingestSetupReps; rep++ {
		t0 := time.Now()
		e, err := openIngest(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < ingestSetupReps-1 {
			e.close()
			continue
		}
		env = e
	}
	defer env.close()
	r.e2e["setup_s"] = median(setups)
	runtime.GC()

	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	end := deadline(secs)
	ph := startPhase()
	lat, acked := env.drive(func(int, int) bool { return time.Now().Before(end) })
	ph.stop()
	r.e2e["cpu_us_per_op"] = safeDiv(float64(ph.cpu.Microseconds()), float64(acked))
	r.e2e["throughput_per_s"] = safeDiv(float64(acked), ph.wall.Seconds())
	r.e2e["latency_p50_us"] = quantile(lat, 0.50)
	r.e2e["latency_p99_us"] = quantile(lat, 0.99)
	r.notes = append(r.notes, fmt.Sprintf("untraced: %d acked uploads in %.3f s, %d latency samples, %d devices",
		acked, ph.wall.Seconds(), len(lat), len(env.devs)))

	if o.trace {
		tr := newTracer(ingestSpanCap)
		env.tracer.Store(tr)
		before := readAggCounters(env.agg)
		end = deadline(secs)
		tph := startPhase()
		tlat, tacked := env.drive(func(int, int) bool { return time.Now().Before(end) && !tr.Full() })
		tph.stop()
		env.tracer.Store(nil)
		env.inflight.Wait()
		fillAggLayers(r, before, readAggCounters(env.agg), float64(tacked))
		tph.perOp(r, float64(tacked))

		st := finishTrace(o, tr, r)
		r.layer["core.encode_us"] = st[spEncode].quantileUs(0.5)
		r.layer["net.rtt_overhead_us"] = st[spPost].quantileUs(0.5)
		r.layer["fleet.upload_handler_us_p50"] = st[spUploadHandler].quantileUs(0.5)
		r.layer["fleet.upload_handler_us_p99"] = st[spUploadHandler].quantileUs(0.99)
		r.layer["fleet.queue_depth_p99"] = quantile(env.depths.take(), 0.99)
		parts := r.layer["core.encode_us"] + r.layer["net.rtt_overhead_us"] + r.layer["fleet.upload_handler_us_p50"]
		tp50 := quantile(tlat, 0.5)
		r.ratio("bench.accounted_ratio", parts, tp50)
		untracedCPU := r.e2e["cpu_us_per_op"]
		r.ratio("bench.trace_overhead_pct", 100*(r.layer["process.cpu_us_per_op"]-untracedCPU), untracedCPU)
		r.notes = append(r.notes, fmt.Sprintf(
			"tracing overhead: latency_p50_us untraced %.1f traced %.1f; throughput_per_s untraced %.0f traced %.0f; cpu_us_per_op untraced %.2f traced %.2f (%+.2f%%)",
			r.e2e["latency_p50_us"], tp50, r.e2e["throughput_per_s"], safeDiv(float64(tacked), tph.wall.Seconds()),
			untracedCPU, r.layer["process.cpu_us_per_op"], r.layer["bench.trace_overhead_pct"]),
			fmt.Sprintf("p50 accounting: encode %.1f + network %.1f + handler %.1f = %.1f us of %.1f us upload latency",
				r.layer["core.encode_us"], r.layer["net.rtt_overhead_us"], r.layer["fleet.upload_handler_us_p50"], parts, tp50))
	}

	// Output checks: no loss and no double count.
	fold := env.agg.Fold()
	checkProbes(r, "final fold", probeCounts(fold), env.devs)
	var hangs int64
	for _, d := range env.devs {
		hangs += d.hangs
	}
	if int64(fold.TotalHangs()) != hangs {
		r.failf("final fold holds %d hangs, acked uploads carried %d", fold.TotalHangs(), hangs)
	}
	s := env.stats
	r.attempted, r.failed = s.attempts, s.exhausted
	r.ratio("bench.fail_ratio", float64(s.exhausted), float64(s.attempts))
	r.ratio("fleet.accepted_ratio", float64(s.accepted), float64(s.posts))
	r.notes = append(r.notes, s.String(), fmt.Sprintf("final fold: %d entries, %d hangs", fold.Len(), fold.TotalHangs()))
	return r, nil
}
