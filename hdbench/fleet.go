package main

// Shared fleet-plane machinery: generated devices and their uploads, the
// device-side upload protocol over HTTP, and the timing http.Handler that
// wraps fleet.NewServer(..).Handler().

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hangdoctor/internal/core"
	"hangdoctor/internal/fleet"
	"hangdoctor/internal/obs"
	"hangdoctor/internal/simclock"
)

const (
	// probeApp/probeRoot name the one probe entry every upload carries:
	// action "probe/<device>", exactly one hang. A device's uploads are
	// sequential, so a probe count of n means its uploads 1..n are merged.
	probeApp  = "probe"
	probeRoot = "bench.Probe.upload"
	// spanHeader carries "<span id>:<request id>" from the client's span to
	// the server-side handler span.
	spanHeader = "X-Bench-Span"
	// maxAttempts bounds the round trips of one upload (429 and 409 included).
	maxAttempts = 8
	// workDir holds everything a run writes (WAL directories, span files).
	workDir = ".bench_build"
)

var probeDiag = core.Diagnosis{RootCause: probeRoot, File: "Probe.java", Line: 1, Occurrence: 1}

// uploadKind is how a device sends one upload.
type uploadKind int

const (
	kindDelta   uploadKind = iota // binary, dictionary delta
	kindRestart                   // binary after an encoder reset: full dictionary
	kindJSON                      // JSON document (the CLI/legacy path)
)

// restartEvery is the repository's fleet load model's restart rate (the
// internal/sim RestartEvery default, fleetload -sim-restart-every): 1 upload
// in 512 follows a device restart and carries the full dictionary.
const restartEvery = 512

// pickKind draws the upload mix: 1 in restartEvery uploads follows a device
// restart, another 1 in restartEvery is JSON, the rest are dictionary-delta
// binary uploads. The load model has no JSON share to take; JSON runs at the
// restart rate so the legacy path is driven and checked on every run while
// weighing as little as the costliest binary path.
func pickKind(seed uint64, dev, seq int) uploadKind {
	switch derive(seed, streamKind, uint64(dev), uint64(seq)) % restartEvery {
	case 0:
		return kindRestart
	case 1:
		return kindJSON
	}
	return kindDelta
}

// fleetDevice is one generated device. Only its owning goroutine touches it
// while uploads run.
type fleetDevice struct {
	idx   int
	name  string
	enc   *core.BinaryEncoder
	bases []*core.Report
	sent  int // uploads begun; the next upload's sequence number
	acked int
	hangs int64 // hangs carried by acked uploads
}

// variantSeed is the seed of report body v of device i.
func variantSeed(seed uint64, i, v int) uint64 {
	return derive(seed, streamVariant, uint64(i), uint64(v))
}

// makeDevices generates n devices, each with `variants` report bodies of
// the fleet.SyntheticUpload shape drawn from seedOf(device, variant), plus
// `hot` entries from a small shared key pool.
func makeDevices(prefix string, n, variants, entries, hot int, seedOf func(i, v int) uint64) []*fleetDevice {
	devs := make([]*fleetDevice, n)
	for i := range devs {
		name := fmt.Sprintf("%s-%05d", prefix, i)
		d := &fleetDevice{idx: i, name: name, enc: core.NewBinaryEncoder(name)}
		for v := 0; v < variants; v++ {
			s := seedOf(i, v)
			rep := fleet.SyntheticUpload(int64(s>>1), name, entries)
			addHot(rep, name, s, hot)
			d.bases = append(d.bases, rep)
		}
		devs[i] = d
	}
	return devs
}

// hotKeys is the size of the shared pool addHot takes from; every device
// that reports a hot key joins its device set, so these entries carry
// device sets in the thousands.
const hotKeys = 8

// addHot adds n distinct hot entries, starting at a seeded position.
func addHot(rep *core.Report, device string, seed uint64, n int) {
	for k := 0; k < n; k++ {
		h := int((splitmix64(seed) + uint64(k)) % hotKeys)
		diag := core.Diagnosis{
			RootCause: fmt.Sprintf("com.example.hot.Op%02d.run", h),
			File:      fmt.Sprintf("Hot%02d.java", h), Line: 10 + h, Occurrence: 0.9,
		}
		rep.Add("app-hot", device, fmt.Sprintf("app-hot/Action-%02d", h), diag, simclock.Duration(150+h)*simclock.Millisecond)
	}
}

// next builds the device's next upload: a base body plus the probe entry.
// The probe's response time encodes the sequence number, so every upload
// has distinct content (durable ingest deduplicates identical content).
func (d *fleetDevice) next() (seq int, rep *core.Report) {
	seq = d.sent
	d.sent++
	rep = d.bases[seq%len(d.bases)].Clone()
	rep.Add(probeApp, d.name, "probe/"+d.name, probeDiag, simclock.Duration(seq+1)*simclock.Millisecond)
	return seq, rep
}

// uploadStats counts one client's round trips. attempts counts uploads,
// posts counts HTTP round trips.
type uploadStats struct {
	attempts, posts, accepted           int64
	conflicts, throttled, transportErrs int64
	otherStatus, exhausted              int64
}

func (s *uploadStats) add(o uploadStats) {
	s.attempts += o.attempts
	s.posts += o.posts
	s.accepted += o.accepted
	s.conflicts += o.conflicts
	s.throttled += o.throttled
	s.transportErrs += o.transportErrs
	s.otherStatus += o.otherStatus
	s.exhausted += o.exhausted
}

func (s *uploadStats) String() string {
	return fmt.Sprintf("uploads %d, round trips %d: 202 %d, 409 %d, 429 %d, transport errors %d, other status %d, retries exhausted %d",
		s.attempts, s.posts, s.accepted, s.conflicts, s.throttled, s.transportErrs, s.otherStatus, s.exhausted)
}

// uploader is one device-side sender holding one keep-alive connection.
type uploader struct {
	client *http.Client
	tracer *atomic.Pointer[Tracer]
	stats  uploadStats
	json   bytes.Buffer
}

func newUploader(tracer *atomic.Pointer[Tracer]) *uploader {
	return &uploader{client: oneConnClient(nil), tracer: tracer}
}

// oneConnClient is an HTTP client limited to one connection per host.
func oneConnClient(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

func (u *uploader) close() { u.client.CloseIdleConnections() }

// upload sends rep for device d to url, following the device protocol:
// 409 resets the encoder and resends a full dictionary, 429 backs off,
// transport errors and other statuses retry; durable ingest deduplicates
// resent content. It reports whether the upload was acknowledged.
func (u *uploader) upload(url string, d *fleetDevice, rep *core.Report, kind uploadKind, req uint64) bool {
	tr := u.tracer.Load()
	u.stats.attempts++
	root := tr.Begin(spUpload, -1, req)
	defer tr.End(root)
	if kind == kindRestart {
		d.enc.Reset()
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sp := tr.Begin(spEncode, root, req)
		body, ctype := u.encode(d, rep, kind)
		tr.End(sp)
		sp = tr.Begin(spPost, root, req)
		status, err := u.post(url, ctype, body, sp, req)
		tr.End(sp)
		u.stats.posts++
		switch {
		case err != nil:
			u.stats.transportErrs++
			time.Sleep(time.Millisecond)
		case status == http.StatusAccepted:
			u.stats.accepted++
			d.acked++
			d.hangs += int64(rep.TotalHangs())
			return true
		case status == http.StatusConflict:
			u.stats.conflicts++
			d.enc.Reset()
		case status == http.StatusTooManyRequests:
			u.stats.throttled++
			time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
		default:
			u.stats.otherStatus++
			time.Sleep(time.Millisecond)
		}
	}
	u.stats.exhausted++
	return false
}

func (u *uploader) encode(d *fleetDevice, rep *core.Report, kind uploadKind) ([]byte, string) {
	if kind == kindJSON {
		u.json.Reset()
		if err := rep.Export(&u.json); err != nil {
			panic(fmt.Sprintf("hdbench: exporting a generated report: %v", err))
		}
		return u.json.Bytes(), "application/json"
	}
	return d.enc.Encode(rep), core.BinaryContentType
}

func (u *uploader) post(url, ctype string, body []byte, span int32, req uint64) (int, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", ctype)
	if span >= 0 {
		hr.Header.Set(spanHeader, spanHeaderValue(span, req))
	}
	resp, err := u.client.Do(hr)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func spanHeaderValue(span int32, req uint64) string {
	return strconv.Itoa(int(span)) + ":" + strconv.FormatUint(req, 10)
}

func parseSpanHeader(v string) (int32, uint64) {
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		return -1, 0
	}
	span, err1 := strconv.Atoi(a)
	req, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return -1, 0
	}
	return int32(span), req
}

// timingHandler wraps one node's fleet.NewServer(..).Handler(). With a
// tracer installed it records a span per upload and per snapshot request,
// parented to the client's span, and samples the intake queue depth at
// each upload. onSnapshot, when set, receives a buffer that will hold the
// /v1/snapshot response body; it is registered before the body is written,
// so the body is complete by the time the client has read it.
type timingHandler struct {
	inner      http.Handler
	agg        *fleet.Aggregator
	tracer     *atomic.Pointer[Tracer]
	depths     *sampleBuf
	onSnapshot func() *lockedBuf
	// inflight counts running requests: a span's end is recorded after the
	// client may already have its response, so readers of the spans wait.
	inflight *sync.WaitGroup
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inflight.Add(1)
	defer h.inflight.Done()
	tr := h.tracer.Load()
	name := spUploadHandler
	if r.URL.Path == "/v1/snapshot" {
		name = spDeltaHandler
		if h.onSnapshot != nil {
			w = teeWriter{ResponseWriter: w, buf: h.onSnapshot()}
		}
	} else if tr != nil {
		h.depths.add(float64(h.agg.QueueDepth()))
	}
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, req := parseSpanHeader(r.Header.Get(spanHeader))
	sp := tr.Begin(name, parent, req)
	h.inner.ServeHTTP(w, r)
	tr.End(sp)
}

// lockedBuf is a byte buffer written by a server goroutine and read by
// the poller once the response has been received.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

type teeWriter struct {
	http.ResponseWriter
	buf *lockedBuf
}

func (t teeWriter) Write(p []byte) (int, error) {
	t.buf.mu.Lock()
	t.buf.buf.Write(p)
	t.buf.mu.Unlock()
	return t.ResponseWriter.Write(p)
}

// sampleBuf collects float samples from concurrent goroutines.
type sampleBuf struct {
	mu sync.Mutex
	xs []float64
}

func (s *sampleBuf) add(x float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *sampleBuf) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.xs
	s.xs = nil
	return out
}

// httpServer serves a handler on a loopback port until close.
type httpServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// durable opens a WAL-backed aggregator in dir.
func durable(dir string, sync fleet.SyncPolicy) (*fleet.Aggregator, error) {
	return fleet.Open(fleet.Config{WAL: &fleet.WALConfig{Dir: dir, Sync: sync}})
}

func mkWorkDir(prefix string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, prefix)
}

// aggCounters is the subset of an aggregator's registry the benchmark reads.
type aggCounters struct {
	merges, fragments, walBytes, compactions, fsyncs, mismatches float64
	merge                                                        obs.HistogramSnapshot
}

func readAggCounters(aggs ...*fleet.Aggregator) aggCounters {
	var c aggCounters
	for _, a := range aggs {
		s := a.Metrics().Registry().Snapshot()
		c.merges += float64(s.Value("hangdoctor_fleet_merges_total"))
		c.fragments += float64(s.Value("hangdoctor_fleet_merged_fragments_total"))
		c.walBytes += float64(s.Value("hangdoctor_fleet_wal_bytes_written_total"))
		c.compactions += float64(s.Value("hangdoctor_fleet_wal_compactions_total"))
		c.fsyncs += float64(s.Value("hangdoctor_fleet_wal_fsyncs_total"))
		c.mismatches += float64(s.Value("hangdoctor_fleet_dict_mismatches_total"))
		c.merge = addHist(c.merge, s.Histogram("hangdoctor_fleet_merge_latency_ns"), 1)
	}
	return c
}

// addHist returns a + sign*b bucket by bucket (sign -1 takes a difference).
func addHist(a, b obs.HistogramSnapshot, sign int64) obs.HistogramSnapshot {
	if len(a.Counts) == 0 {
		a = obs.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]uint64, len(b.Counts))}
	}
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	for i := range out.Counts {
		v := int64(a.Counts[i])
		if i < len(b.Counts) {
			v += sign * int64(b.Counts[i])
		}
		out.Counts[i] = uint64(v)
		out.Count += uint64(v)
	}
	return out
}

// fillAggLayers reports the aggregator-side per-layer metrics for the
// interval between two counter readings.
func fillAggLayers(r *result, before, after aggCounters, acked float64) {
	merges := after.merges - before.merges
	r.layer["fleet.merge_us_p50"] = addHist(after.merge, before.merge, -1).Quantile(0.5) / 1e3
	r.ratio("fleet.fragments_per_merge", after.fragments-before.fragments, merges)
	r.ratio("wal.bytes_per_upload", after.walBytes-before.walBytes, acked)
	r.layer["wal.compactions"] = after.compactions - before.compactions
	r.ratio("wal.fsyncs_per_upload", after.fsyncs-before.fsyncs, acked)
	r.layer["fleet.dict_mismatches"] = after.mismatches - before.mismatches
}

// probeCounts maps device -> probe count over a folded report.
func probeCounts(rep *core.Report) map[string]int {
	out := map[string]int{}
	for _, e := range rep.Entries() {
		if e.App == probeApp {
			out[strings.TrimPrefix(e.ActionUID, "probe/")] = e.Hangs
		}
	}
	return out
}

// checkProbes compares a fold's probe counts with each device's acked uploads.
func checkProbes(r *result, what string, got map[string]int, devs []*fleetDevice) {
	bad := 0
	for _, d := range devs {
		if got[d.name] != d.acked {
			if bad < 5 {
				r.failf("%s: device %s probe count %d, acked uploads %d", what, d.name, got[d.name], d.acked)
			}
			bad++
		}
	}
	if bad > 5 {
		r.failf("%s: %d devices in all disagree", what, bad)
	}
	if len(got) > len(devs) {
		r.failf("%s: %d probe entries for %d devices", what, len(got), len(devs))
	}
}
