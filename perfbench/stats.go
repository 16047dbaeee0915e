package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to mean anything: a p99 needs 1000 samples, a p90 100.
const minTail = 10

// dist summarises one latency sample set by the percentile rule: the
// median, plus the requested tail percentile or, when too few samples
// lie beyond it, the highest percentile that has minTail beyond it (never
// below the median). N and TailQ are printed beside the values.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

// tailQuantile returns the highest quantile up to q that leaves at least
// minTail of n samples beyond it, floored at the median.
func tailQuantile(n int, q float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if supported := 1 - float64(minTail)/float64(n); supported < q {
		q = supported
	}
	return math.Max(q, 0.5)
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// String prints the median, the tail percentile actually reported and
// the sample count, in milliseconds.
func (d dist) String() string {
	return fmt.Sprintf("p50 %.3f ms  p%.4g %.3f ms  (n=%d)", d.P50, 100*d.TailQ, d.Tail, d.N)
}

func summarize(samples []float64, q float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), TailQ: tailQuantile(len(s), q)}
	d.P50 = quantile(s, 0.5)
	d.Tail = quantile(s, d.TailQ)
	return d
}

// windowSlices is how many equal slices the timed window is cut into.
// Rates, costs and latency percentiles are taken per slice, and each
// metric is the median over the calmer half of the slices: those in
// which the hypervisor stole the least CPU time from this machine (see
// window.calm), so a burst of host contention moves the slices it hits,
// not the result.
const windowSlices = 10

// stamped is one latency sample and the run-clock time its operation
// started (was due, began its Write, or called Dial).
type stamped struct {
	at int64
	ms float64
}

// summarizeSliced summarises samples taken in the window [start, end)
// over the slices keep marks: the median of all their samples, and the
// median of each kept slice's tail percentile by the rule of summarize.
// TailQ is the lowest percentile any kept slice could support.
func summarizeSliced(samples []stamped, start, end int64, q float64, keep []bool) dist {
	var all []float64
	parts := make([][]float64, len(keep))
	for _, s := range samples {
		k := min(max(int((s.at-start)*int64(len(keep))/max(end-start, 1)), 0), len(keep)-1)
		if keep[k] {
			all = append(all, s.ms)
			parts[k] = append(parts[k], s.ms)
		}
	}
	d := summarize(all, q)
	var tails []float64
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		pd := summarize(p, q)
		tails = append(tails, pd.Tail)
		d.TailQ = math.Min(d.TailQ, pd.TailQ)
	}
	d.Tail = median(tails)
	return d
}

// median of a small sample set (setup repetitions, per-run medians).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// hostTicks reads the machine's steal and total CPU ticks from
// /proc/stat: time the hypervisor ran something else while this
// machine's CPUs wanted to run is the one noise source no process-level
// measure sees. Zero where unavailable.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// environment is recorded with every run, so a number is never read
// without the box and data-path rung that produced it.
type environment struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Kernel        string `json:"kernel"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	UringEnabled  bool   `json:"uring_enabled"`
	UringDeferred bool   `json:"uring_deferred"`
	GSOEnabled    bool   `json:"gso_enabled"`
	Encryption    bool   `json:"encryption"`
	Loopback      string `json:"path"`
}

func hostEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		CPUModel:   "unknown",
		Loopback:   "loopback UDP 127.0.0.1, one process",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
