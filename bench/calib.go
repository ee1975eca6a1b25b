package main

// The calibration kernel that precedes every round, and the order statistics
// every reported number goes through.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// calibration is a fixed pure-CPU kernel: a breadth-first walk over a
// generated CSR graph followed by unions of bitsets over its nodes. It uses
// nothing of the repository and no input seed, so its time says how fast the
// machine is right now and nothing else.
type calibration struct {
	offsets []int32
	targets []int32
	sets    [][]uint64
	sink    [calibCores]uint64
}

const (
	calibNodes    = 1 << 16
	calibDegree   = 8
	calibSets     = 64
	calibPasses   = 2
	calibCores    = 2  // the kernel runs on this many threads at once, as the workload does
	calibReadings = 12 // per thread; the reading is the fastest

	// calibReference is the reading every timing is scaled to: about what the
	// kernel takes on the machine the benchmark was written on when nothing
	// else runs. Only ratios of readings matter; the constant fixes the unit.
	calibReference = 7 * time.Millisecond
)

func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{offsets: make([]int32, calibNodes+1)}
	for u := 0; u < calibNodes; u++ {
		c.offsets[u] = int32(len(c.targets))
		for k := 0; k < calibDegree; k++ {
			c.targets = append(c.targets, int32(rng.Intn(calibNodes)))
		}
	}
	c.offsets[calibNodes] = int32(len(c.targets))
	for s := 0; s < calibSets; s++ {
		set := make([]uint64, calibNodes/64)
		for i := range set {
			set[i] = rng.Uint64()
		}
		c.sets = append(c.sets, set)
	}
	return c
}

// run executes the kernel calibReadings times on each of calibCores threads
// at once and returns the mean over the threads of each thread's fastest
// execution. Interference on this machine only ever slows an execution down,
// and in bursts much shorter than a reading: the fastest of a dozen is the
// speed the machine would have if left alone, which is what drifts from
// minute to minute and what the timings are scaled by.
func (c *calibration) run() time.Duration {
	var best [calibCores]time.Duration
	var wg sync.WaitGroup
	for g := range best {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visited := make([]uint64, calibNodes/64)
			queue := make([]int32, 0, calibNodes)
			for i := 0; i < calibReadings; i++ {
				if d := c.once(g, visited, queue); i == 0 || d < best[g] {
					best[g] = d
				}
			}
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum / calibCores
}

func (c *calibration) once(g int, visited []uint64, queue []int32) time.Duration {
	start := time.Now()
	for pass := 0; pass < calibPasses; pass++ {
		for i := range visited {
			visited[i] = 0
		}
		root := int32(pass)
		visited[root/64] |= 1 << (root % 64)
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
				if visited[v/64]&(1<<(v%64)) == 0 {
					visited[v/64] |= 1 << (v % 64)
					queue = append(queue, v)
				}
			}
		}
		for _, set := range c.sets {
			for i, w := range set {
				visited[i] |= w
			}
		}
		c.sink[g] += visited[pass]
	}
	return time.Since(start)
}

// calibTolerance is how far a round's calibration may sit from the run's
// median calibration before the round is measured again.
const calibTolerance = 0.25

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median of values; 0 for none.
func median(values []float64) float64 {
	s := sorted(values)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the three cut points Python's statistics.quantiles(values,
// n=4) returns (the exclusive method): the acceptance rule is stated in them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	m := len(s)
	if m < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of durations.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration is the median of durations.
func medianDuration(d []time.Duration) time.Duration {
	f := make([]float64, len(d))
	for i, v := range d {
		f[i] = float64(v)
	}
	return time.Duration(median(f))
}
