package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer the tail figure is one or two outliers, not a percentile.
const minBeyond = 10

// supportedTail returns the highest percentile not above want that still has
// minBeyond samples beyond it, and that percentile's value. With fewer than
// 2*minBeyond samples nothing above the median is supported and the median is
// returned.
func supportedTail(xs []float64, want float64) (value, used float64) {
	s := sortedCopy(xs)
	used = want
	if n := len(s); float64(n)*(1-want) < minBeyond {
		used = 1 - minBeyond/float64(n)
		if n < 2*minBeyond {
			used = 0.5
		}
	}
	return quantile(s, used), used
}

// window is one stretch of back-to-back operations that lasted at least the
// windower's length, with the process CPU time it used.
type window struct {
	dur time.Duration
	ops int
	cpu float64 // user+sys seconds
}

// windower cuts a run of operations into windows. A window closes at the
// first operation that completes length or more after the window opened, so
// every window holds whole operations and its rate needs no pro-rating; the
// stretch after the last close is dropped. Reporting the median over windows
// keeps a burst of neighbour noise from moving the whole run's figure.
type windower struct {
	length time.Duration
	cpuNow func() float64 // process user+sys seconds so far

	start  time.Duration
	cpu0   float64
	ops    int
	closed []window
}

func newWindower(length time.Duration) *windower {
	return &windower{length: length, cpuNow: func() float64 { u, s := cpuSeconds(); return u + s }}
}

// begin opens the first window at offset now.
func (w *windower) begin(now time.Duration) {
	w.start, w.cpu0, w.ops = now, w.cpuNow(), 0
}

// op records one operation completed at offset now.
func (w *windower) op(now time.Duration) {
	w.ops++
	if now-w.start < w.length {
		return
	}
	cpu := w.cpuNow()
	w.closed = append(w.closed, window{dur: now - w.start, ops: w.ops, cpu: cpu - w.cpu0})
	w.start, w.cpu0, w.ops = now, cpu, 0
}

// windowLength is 1 s for a run of the length the driver asks for and a
// share of shorter ones, so that quick passes still close a few windows.
func windowLength(seconds float64) time.Duration {
	if seconds >= 8 {
		return time.Second
	}
	return time.Duration(seconds / 8 * float64(time.Second))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
