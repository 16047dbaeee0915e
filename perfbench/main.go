// Command perfbench is the repository's end-to-end benchmark. It drives
// the real QTP stack — encrypted qtpnet endpoints on the rung the
// bind-time probe picks — in one process over loopback UDP, runs one
// seeded workload (upload, msg, bulk or churn), verifies every delivered byte
// and prints the end-to-end metrics. With -trace 1 it instead prints
// per-layer metrics: spans around every public qtpnet call, counter
// deltas, replays of the workload's traffic shape through the lower
// layers, and a reconciliation of layer costs against the end-to-end
// CPU. The last line of standard output is one JSON object.
//
//	go run . -workload upload -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/qtpnet"
)

// processStart is taken as the package initialises, as close to process
// start as Go code runs.
var processStart = time.Now()

// setupReps is how many times a run brings its endpoints up; setup_s is
// the median.
const setupReps = 15

func main() {
	workload := flag.String("workload", "", "upload, msg, bulk or churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	out := flag.String("trace-out", ".bench_build/perfbench-trace", "directory for span dumps of traced runs")
	flag.Parse()
	switch *workload {
	case "upload", "msg", "bulk", "churn":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want upload, msg, bulk or churn)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupServer brings the workload's server endpoint up setupReps times
// and keeps the last. Each sample runs from the start of the attempt —
// process start for the first — until the endpoint is bound, probed and
// ready to accept.
func setupServer(workload string) (*qtpnet.Listener, float64, error) {
	var samples []float64
	var srv *qtpnet.Listener
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if srv, err = listen(workload); err != nil {
			return nil, 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return srv, median(samples), nil
}

// mark is a snapshot of a pass's progress at a slice boundary.
type mark struct {
	wall       time.Duration
	cpu        time.Duration
	bytes      int64
	msgs       int64
	lifecycles int64
	steal      uint64 // host CPU ticks stolen by the hypervisor
	ticks      uint64 // host CPU ticks in all
}

func (a mark) sub(b mark) mark {
	return mark{a.wall - b.wall, a.cpu - b.cpu, a.bytes - b.bytes, a.msgs - b.msgs,
		a.lifecycles - b.lifecycles, a.steal - b.steal, a.ticks - b.ticks}
}

// stealShare is the share of the machine's CPU time stolen in m.
func stealShare(m mark) float64 { return float64(m.steal) / float64(max(m.ticks, 1)) }

// window is what one timed window of a pass measured: progress marks at
// the edges of windowSlices equal slices, the server endpoint's counter
// deltas, and the latency distributions.
type window struct {
	marks    []mark
	counters epCounters
	msgLat   dist
	dialLat  dist
	late     dist
}

// total is the whole window's progress.
func (w window) total() mark { return w.marks[len(w.marks)-1].sub(w.marks[0]) }

// slice returns the progress made in slice k.
func (w window) slice(k int) mark { return w.marks[k+1].sub(w.marks[k]) }

// calm marks the half of the window's slices in which the hypervisor
// stole the least CPU time (ties to the earlier slice).
func (w window) calm() []bool {
	n := len(w.marks) - 1
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return w.slice(order[i]).steal < w.slice(order[j]).steal })
	keep := make([]bool, n)
	for _, k := range order[:(n+1)/2] {
		keep[k] = true
	}
	return keep
}

// sliced returns the median of f over the calm slices.
func (w window) sliced(f func(mark) float64) float64 {
	var v []float64
	for k, ok := range w.calm() {
		if ok {
			v = append(v, f(w.slice(k)))
		}
	}
	return median(v)
}

// Per-mark rates and costs; a zero count divides as one.
func goodputMBps(m mark) float64   { return float64(m.bytes) / m.wall.Seconds() / 1e6 }
func nsPerByte(m mark) float64     { return float64(m.cpu) / float64(max(m.bytes, 1)) }
func usPerMsg(m mark) float64      { return float64(m.cpu) / 1e3 / float64(max(m.msgs, 1)) }
func lifecycleRate(m mark) float64 { return float64(m.lifecycles) / m.wall.Seconds() }
func usPerLifecycle(m mark) float64 {
	return float64(m.cpu) / 1e3 / float64(max(m.lifecycles, 1))
}

// primaryCPU is the workload's headline CPU cost over the whole window:
// ns per byte for bulk and upload, µs per message for msg, µs per lifecycle for
// churn.
func primaryCPU(workload string, m mark) float64 {
	switch workload {
	case "bulk", "upload":
		return nsPerByte(m)
	case "msg":
		return usPerMsg(m)
	}
	return usPerLifecycle(m)
}

// pass runs the workload once: warm-up, timed window, drain.
func pass(workload string, seed uint64, srv *qtpnet.Listener, tr *tracer, length time.Duration) (*harness, window) {
	h := newHarness(workload, seed, processStart, tr, srv)
	h.start()
	time.Sleep(max(time.Second, length/10))

	snap := func(t0 time.Time) mark {
		steal, ticks := hostTicks()
		return mark{time.Since(t0), cpuTime(), h.verifiedBytes.Load(), h.delivered.Load(), h.lifecycles.Load(), steal, ticks}
	}
	c0, t0 := counters(srv), time.Now()
	w := window{marks: []mark{snap(t0)}}
	h.winStart.Store(h.now())
	for k := 1; k <= windowSlices; k++ {
		time.Sleep(time.Until(t0.Add(length * time.Duration(k) / windowSlices)))
		w.marks = append(w.marks, snap(t0))
	}
	h.winEnd.Store(h.now())
	w.counters = counters(srv).minus(c0)
	h.finish()
	ws, we, keep := h.winStart.Load(), h.winEnd.Load(), w.calm()
	h.mu.Lock()
	w.msgLat = summarizeSliced(h.msgLat, ws, we, 0.99, keep)
	w.dialLat = summarizeSliced(h.dialLat, ws, we, 0.99, keep)
	w.late = summarizeSliced(h.late, ws, we, 0.99, keep)
	h.mu.Unlock()
	return h, w
}

func run(workload string, seed uint64, length time.Duration, traced bool, traceDir string) (*result, error) {
	srv, setupS, err := setupServer(workload)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	env := hostEnvironment()
	e0 := srv.Endpoint()
	env.UringEnabled, env.UringDeferred, env.GSOEnabled = e0.UringEnabled(), e0.UringDeferred(), e0.GSOEnabled()
	env.Encryption = true
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	if !traced {
		h, w := pass(workload, seed, srv, nil, length)
		report(workload, h, w)
		res := endToEnd(h, w, setupS)
		return res, nil
	}

	// Traced run: an untraced pass and a traced pass of half the window
	// each, so tracing overhead is measured, then the layer replays.
	half := max(length/2, time.Second)
	hu, wu := pass(workload, seed, srv, nil, half)
	report(workload, hu, wu)
	srv2, err := listen(workload)
	if err != nil {
		return nil, fmt.Errorf("setup traced pass: %w", err)
	}
	tr := newTracer(processStart)
	ht, wt := pass(workload, seed, srv2, tr, half)
	report(workload+" traced", ht, wt)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := tr.writeFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans written to %s\n", path)
	}
	return perLayer(workload, seed, hu, wu, wt, tr)
}

// bounded names the end-to-end metrics BENCHMARK.json bounds, the ones
// that repeat across runs on a shared virtual machine. The latency
// percentiles and error_rate are printed by every run but left unbounded:
// host CPU steal moves msg latency several-fold between runs, and
// error_rate is 0 on healthy workloads.
var bounded = []string{"setup_s", "goodput_MBps", "cpu_ns_per_byte", "cpu_us_per_msg",
	"handshakes_per_s", "cpu_us_per_handshake", "max_rss_MB"}

// endToEnd prints every end-to-end metric of the pass and returns the
// bounded ones as the run's result.
func endToEnd(h *harness, w window, setupS float64) *result {
	att, fail := h.attempted.Load(), h.failed.Load()
	all := []struct {
		name string
		metric
	}{
		{"setup_s", metric{setupS, "s"}},
		{"goodput_MBps", metric{w.sliced(goodputMBps), "MB/s"}},
		{"cpu_ns_per_byte", metric{w.sliced(nsPerByte), "ns/B"}},
		{"msg_p50_ms", metric{w.msgLat.P50, "ms"}},
		{"msg_p99_ms", metric{w.msgLat.Tail, "ms"}},
		{"cpu_us_per_msg", metric{w.sliced(usPerMsg), "us"}},
		{"handshakes_per_s", metric{w.sliced(lifecycleRate), "1/s"}},
		{"dial_p50_ms", metric{w.dialLat.P50, "ms"}},
		{"dial_p99_ms", metric{w.dialLat.Tail, "ms"}},
		{"cpu_us_per_handshake", metric{w.sliced(usPerLifecycle), "us"}},
		{"error_rate", metric{float64(fail) / float64(max(att, 1)), "ratio"}},
		{"max_rss_MB", metric{maxRSSMB(), "MB"}},
	}
	m := map[string]metric{}
	for _, e := range all {
		fmt.Printf("metric %-22s %14.6g %s\n", e.name, e.Value, e.Unit)
		if slices.Contains(bounded, e.name) {
			m[e.name] = e.metric
		}
	}
	fmt.Printf("  (msg_p99_ms is p%.4g of n=%d, dial_p99_ms p%.4g of n=%d)\n",
		100*w.msgLat.TailQ, w.msgLat.N, 100*w.dialLat.TailQ, w.dialLat.N)
	return resultOf(h, m)
}

func resultOf(h *harness, m map[string]metric) *result {
	return &result{Correct: h.corrupt.Load() == 0, Attempted: h.attempted.Load(), Failed: h.failed.Load(), Metrics: m}
}

// report prints the human-readable summary of one pass.
func report(label string, h *harness, w window) {
	att, fail := h.attempted.Load(), h.failed.Load()
	t := w.total()
	fmt.Printf("%s: window %.2fs cpu %.2fs bytes %d msgs %d lifecycles %d\n",
		label, t.wall.Seconds(), t.cpu.Seconds(), t.bytes, t.msgs, t.lifecycles)
	fmt.Printf("  host steal %.1f%%, by slice (* = calm, used for the metrics):", 100*stealShare(t))
	for k, ok := range w.calm() {
		fmt.Printf(" %.0f", 100*stealShare(w.slice(k)))
		if ok {
			fmt.Print("*")
		}
	}
	fmt.Println()
	fmt.Printf("  msg latency  %v\n  dial latency %v\n", w.msgLat, w.dialLat)
	if w.late.N > 0 {
		fmt.Printf("  generator lateness %v\n", w.late)
	}
	c := w.counters
	fmt.Printf("  dgrams in %d out %d  rx calls %d tx calls %d wakeups %d  recv_drops %d send_drops %d open_fail %d\n",
		c.DgramsIn, c.DgramsOut, c.RxCalls, c.TxCalls, c.Wakeups, c.RecvDrops, c.SendDrops, c.OpenFail)
	fmt.Printf("  error_rate %.6f (%d failed of %d attempted)", float64(fail)/float64(max(att, 1)), fail, att)
	if rs := h.sortedReasons(); len(rs) > 0 {
		fmt.Printf(": %s", strings.Join(rs, "; "))
	}
	fmt.Println()
}
