package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100_000, 0.99, 0.99}, // plenty beyond p99
		{1000, 0.99, 0.99},    // exactly ten beyond p99
		{999, 0.99, 1 - 10.0/999},
		{100, 0.99, 0.9}, // ten beyond p90 is the most 100 samples support
		{30, 0.99, 1 - 10.0/30},
		{15, 0.99, 0.5}, // never below the median
		{0, 0.99, 0.5},
	} {
		if got := tailQuantile(c.n, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummarizeKeepsTenSamplesBeyondTail(t *testing.T) {
	for _, n := range []int{40, 100, 1000, 5000} {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // unsorted input
		}
		d := summarize(s, 0.99)
		if d.N != n {
			t.Fatalf("n=%d: N = %d", n, d.N)
		}
		beyond := 0
		for _, v := range s {
			if v > d.Tail {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: %d samples beyond the p%.4g value %v, want at least %d", n, beyond, 100*d.TailQ, d.Tail, minTail)
		}
		if d.P50 != float64((n+1)/2) {
			t.Errorf("n=%d: P50 = %v", n, d.P50)
		}
	}
	if d := summarize(nil, 0.99); d.N != 0 || d.P50 != 0 || d.Tail != 0 {
		t.Errorf("empty: %+v", d)
	}
}

func TestDistStringPrintsSampleCount(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	got := summarize(s, 0.99).String()
	for _, want := range []string{"p50 ", "p90 ", "(n=100)"} {
		if !strings.Contains(got, want) {
			t.Errorf("%q lacks %q", got, want)
		}
	}
}

func TestSummarizeSlicedUsesKeptSlices(t *testing.T) {
	// Slices of 1000 samples each, values 1..1000; the third slice also
	// suffers a burst that pushes its tail to 1e6.
	var s []stamped
	for k := int64(0); k < windowSlices; k++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if k == 2 && i > 950 {
				v = 1e6
			}
			s = append(s, stamped{at: k*1000 + int64(i-1), ms: v})
		}
	}
	all := make([]bool, windowSlices)
	for k := range all {
		all[k] = true
	}
	d := summarizeSliced(s, 0, windowSlices*1000, 0.99, all)
	if d.N != windowSlices*1000 || d.TailQ != 0.99 {
		t.Fatalf("N %d TailQ %v", d.N, d.TailQ)
	}
	if d.Tail != 990 {
		t.Errorf("tail %v, want the median slice p99 990", d.Tail)
	}
	if d.P50 != 500 {
		t.Errorf("p50 %v, want 500 over all samples", d.P50)
	}
	// Dropping the noisy slice leaves its samples out of the median too.
	some := append([]bool(nil), all...)
	some[2] = false
	if d := summarizeSliced(s, 0, windowSlices*1000, 0.99, some); d.N != (windowSlices-1)*1000 || d.Tail != 990 {
		t.Errorf("without the noisy slice: N %d tail %v", d.N, d.Tail)
	}
	// Too few samples per slice for p99: the tail falls back.
	d = summarizeSliced(s[:windowSlices*100], 0, windowSlices*100, 0.99, all)
	if d.TailQ != 0.9 {
		t.Errorf("100 samples per slice: TailQ %v, want 0.9", d.TailQ)
	}
}

func TestCalmKeepsLeastStolenHalf(t *testing.T) {
	steal := []uint64{5, 0, 9, 1, 7, 0, 3, 8, 2, 6}
	w := window{marks: []mark{{}}}
	var acc mark
	for _, st := range steal {
		acc.steal += st
		acc.ticks += 100
		w.marks = append(w.marks, acc)
	}
	want := []bool{false, true, false, true, false, true, true, false, true, false}
	for k, ok := range w.calm() {
		if ok != want[k] {
			t.Fatalf("calm() = %v, want %v", w.calm(), want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}
