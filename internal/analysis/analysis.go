// Package analysis implements the paper's three data-analysis applications
// as streaming block reducers: the n-th moment turbulence statistics coupled
// with the CFD simulation, mean squared displacement (MSD) coupled with the
// LAMMPS simulation, and the standard-variance reduction coupled with the
// synthetic kernels (Table 3). Each reducer consumes data blocks in any
// arrival order — the property Zipper's out-of-order delivery relies on —
// and produces the final statistic on demand.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// NthMoment accumulates E(u^k) for k = 1..N over streamed velocity samples,
// the turbulence statistics of §6.3.1. When all moments are available, the
// velocity PDF of the turbulent flow can be characterized.
type NthMoment struct {
	n     int
	sums  []float64
	count int64
}

// NewNthMoment returns an accumulator for moments 1..n.
func NewNthMoment(n int) *NthMoment {
	if n < 1 {
		panic("analysis: moment order must be ≥ 1")
	}
	return &NthMoment{n: n, sums: make([]float64, n)}
}

// momentLanes is how many samples NthMoment.Analyze folds per pass over the
// orders. Six u^k chains fit the 16 SSE registers beside the loop state;
// at eight they spill and the kernel is slower than at four.
const momentLanes = 6

// Analyze folds one block of velocity samples into the accumulator.
//
// The sums are bit-identical to folding the samples one at a time, for any
// split of the stream into blocks. Samples are interleaved six at a time so
// their independent u^k multiply chains hide each other's latency; each
// sums[k] still adds the same rounded powers in sample order.
func (m *NthMoment) Analyze(samples []float64) {
	sums := m.sums
	i := 0
	for ; i+momentLanes <= len(samples); i += momentLanes {
		g := samples[i : i+momentLanes : i+momentLanes]
		u0, u1, u2, u3, u4, u5 := g[0], g[1], g[2], g[3], g[4], g[5]
		p0, p1, p2, p3, p4, p5 := 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
		for k := range sums {
			p0 *= u0
			p1 *= u1
			p2 *= u2
			p3 *= u3
			p4 *= u4
			p5 *= u5
			sums[k] = sums[k] + p0 + p1 + p2 + p3 + p4 + p5
		}
	}
	for _, u := range samples[i:] {
		p := 1.0
		for k := range sums {
			p *= u
			sums[k] += p
		}
	}
	m.count += int64(len(samples))
}

// Count reports how many samples have been folded in.
func (m *NthMoment) Count() int64 { return m.count }

// Moment returns E(u^k) for 1 ≤ k ≤ n; it panics for other k.
func (m *NthMoment) Moment(k int) float64 {
	if k < 1 || k > m.n {
		panic(fmt.Sprintf("analysis: moment %d out of range 1..%d", k, m.n))
	}
	if m.count == 0 {
		return 0
	}
	return m.sums[k-1] / float64(m.count)
}

// Variance is the streaming standard-variance reduction used with the
// synthetic applications: each data block is reduced to one double-precision
// value (§6.1). It uses Welford's algorithm for numerical stability.
type Variance struct {
	n    int64
	mean float64
	m2   float64
}

// NewVariance returns an empty accumulator.
func NewVariance() *Variance { return &Variance{} }

// Analyze folds one block of samples into the accumulator.
func (v *Variance) Analyze(samples []float64) {
	for _, x := range samples {
		v.n++
		d := x - v.mean
		v.mean += d / float64(v.n)
		v.m2 += d * (x - v.mean)
	}
}

// Count reports the number of samples seen.
func (v *Variance) Count() int64 { return v.n }

// Mean returns the running mean.
func (v *Variance) Mean() float64 { return v.mean }

// Value returns the population variance.
func (v *Variance) Value() float64 {
	if v.n == 0 {
		return 0
	}
	return v.m2 / float64(v.n)
}

// StdDev returns the population standard deviation.
func (v *Variance) StdDev() float64 { return math.Sqrt(v.Value()) }

// MSD accumulates the mean squared displacement of particles relative to
// their reference (step-0) positions, per time step — the deviation
// statistic coupled with the LAMMPS melt (§6.3.2). Blocks may arrive out of
// order across steps and ranks — the delivery order Zipper produces — so
// blocks that precede their rank's reference frame are buffered and folded
// in once it arrives.
type MSD struct {
	refs    map[int][]float64    // rank -> reference positions (3N)
	sums    map[int]float64      // step -> Σ |r-r0|²
	count   map[int]int64        // step -> atom count
	pending map[int][]msdPending // rank -> blocks awaiting a reference
}

type msdPending struct {
	step int
	pos  []float64
}

// NewMSD returns an empty accumulator.
func NewMSD() *MSD {
	return &MSD{
		refs:    map[int][]float64{},
		sums:    map[int]float64{},
		count:   map[int]int64{},
		pending: map[int][]msdPending{},
	}
}

// SetReference registers rank's reference positions (3N packed xyz) and
// folds in any blocks that arrived early. Analyze auto-registers the first
// step-0 block a rank delivers; use SetReference when step 0 is not
// transported.
func (m *MSD) SetReference(rank int, pos []float64) {
	ref := make([]float64, len(pos))
	copy(ref, pos)
	m.refs[rank] = ref
	queued := m.pending[rank]
	delete(m.pending, rank)
	for _, q := range queued {
		m.fold(rank, q.step, q.pos)
	}
}

// Pending reports how many blocks are still waiting for their rank's
// reference frame; nonzero after the stream ends indicates a producer never
// sent step 0.
func (m *MSD) Pending() int {
	n := 0
	for _, q := range m.pending {
		n += len(q)
	}
	return n
}

// Analyze folds one block: positions (3N packed) of rank's atoms at a step.
// Blocks arriving before their rank's step-0 reference are buffered. It
// panics if the position count changes mid-stream — a workflow wiring bug.
func (m *MSD) Analyze(rank, step int, pos []float64) {
	if len(pos)%3 != 0 {
		panic("analysis: MSD positions not a multiple of 3")
	}
	if _, ok := m.refs[rank]; !ok {
		if step != 0 {
			cp := make([]float64, len(pos))
			copy(cp, pos)
			m.pending[rank] = append(m.pending[rank], msdPending{step: step, pos: cp})
			return
		}
		m.SetReference(rank, pos)
		// The reference frame itself has zero displacement; fall through so
		// step 0 contributes to the series.
	}
	m.fold(rank, step, pos)
}

func (m *MSD) fold(rank, step int, pos []float64) {
	ref := m.refs[rank]
	if len(ref) != len(pos) {
		panic(fmt.Sprintf("analysis: MSD rank %d position count changed %d -> %d", rank, len(ref), len(pos)))
	}
	var s float64
	for i := range pos {
		d := pos[i] - ref[i]
		s += d * d
	}
	m.sums[step] += s
	m.count[step] += int64(len(pos) / 3)
}

// At returns the MSD at a step; ok reports whether any data arrived for it.
func (m *MSD) At(step int) (msd float64, ok bool) {
	c := m.count[step]
	if c == 0 {
		return 0, false
	}
	return m.sums[step] / float64(c), true
}

// Steps returns the steps with data, ascending.
func (m *MSD) Steps() []int {
	out := make([]int, 0, len(m.sums))
	for s := range m.sums {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Series returns the MSD for every step with data, ascending by step.
func (m *MSD) Series() []float64 {
	steps := m.Steps()
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i], _ = m.At(s)
	}
	return out
}
