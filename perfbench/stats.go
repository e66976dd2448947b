package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// digestWriter is an in-memory output sink that keeps only a running
// SHA-256 and a byte count of what is written to it, so a run's outputs
// cost no memory that grows with their size.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *digestWriter) digest() string { return hex.EncodeToString(w.h.Sum(nil)) }

// fitter decides whether another repetition of a measuring loop fits in
// the measuring time: the first always runs, and each later one only if
// the slowest repetition so far would still end in time. Stopping before
// the time is up, rather than after, keeps a run's length near its
// measuring time however fast the host is.
type fitter struct {
	start, last time.Time
	d, longest  time.Duration
}

func newFitter(d time.Duration) *fitter { return &fitter{d: d} }

func (f *fitter) another() bool {
	now := time.Now()
	if f.start.IsZero() {
		f.start, f.last = now, now
		return true
	}
	f.longest = max(f.longest, now.Sub(f.last))
	f.last = now
	return now.Sub(f.start)+f.longest <= f.d
}
