package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a
// quarter or more over minutes as other tenants load the machine, far
// more than a run can average away. hostClock tracks that drift with a
// fixed kernel built only from the standard library (sorting, map
// updates, hashing), so no change to the repository can change its
// work. Every timed step runs between two kernel samples, and its host
// time is scaled by refKernel over their mean: each time metric reads as
// host time on a host where the kernel takes refKernel. The unscaled
// medians are printed in the report line beside the metrics.

// refKernel is the kernel's time on the reference host.
const refKernel = 10 * time.Millisecond

var (
	kernelInts = make([]int, 1<<16)
	kernelMap  = make(map[int]int, 1<<12)
	kernelBuf  = make([]byte, 1<<19)
)

// kernel does the fixed calibration work and returns its host time.
func kernel() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range kernelInts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		kernelInts[i] = int(x >> 1)
	}
	sort.Ints(kernelInts)
	clear(kernelMap)
	for i := 0; i < 30_000; i++ {
		kernelMap[kernelInts[(i*7919)&(len(kernelInts)-1)]&0xffff] += i
	}
	sha256.Sum256(kernelBuf)
	return time.Since(start)
}

// hostClock scales step times to the reference host speed.
type hostClock struct {
	last    time.Duration // the latest kernel sample; 0 before the first
	samples []float64     // every kernel sample, in ms
}

func (h *hostClock) sample() time.Duration {
	d := kernel()
	h.last = d
	h.samples = append(h.samples, float64(d.Nanoseconds())/1e6)
	return d
}

// span runs f between two kernel samples (reusing the previous step's
// closing sample as this one's opening one) and returns the factor that
// scales f's host time to the reference speed.
func (h *hostClock) span(f func() error) (factor float64, err error) {
	before := h.last
	if before == 0 {
		before = h.sample()
	}
	settle()
	err = f()
	after := h.sample()
	return float64(refKernel) / (float64(before+after) / 2), err
}

// timings pools a run's samples per metric: as measured, and scaled to
// the reference host speed.
type timings struct {
	raw, scaled map[string][]float64
}

func newTimings() *timings {
	return &timings{raw: map[string][]float64{}, scaled: map[string][]float64{}}
}

func (t *timings) add(name string, raw, scaled float64) {
	t.raw[name] = append(t.raw[name], raw)
	t.scaled[name] = append(t.scaled[name], scaled)
}
