package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNthMomentUniform(t *testing.T) {
	// E(u^k) for u ~ U(0,1) is 1/(k+1).
	rng := rand.New(rand.NewSource(1))
	m := NewNthMoment(4)
	block := make([]float64, 10000)
	for b := 0; b < 20; b++ {
		for i := range block {
			block[i] = rng.Float64()
		}
		m.Analyze(block)
	}
	for k := 1; k <= 4; k++ {
		want := 1 / float64(k+1)
		if got := m.Moment(k); math.Abs(got-want) > 0.01 {
			t.Fatalf("moment %d = %v, want ≈%v", k, got, want)
		}
	}
	if m.Count() != 200000 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestNthMomentOrderIndependent(t *testing.T) {
	blocks := [][]float64{{1, 2}, {3, 4, 5}, {6}}
	a, b := NewNthMoment(3), NewNthMoment(3)
	for _, blk := range blocks {
		a.Analyze(blk)
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		b.Analyze(blocks[i])
	}
	for k := 1; k <= 3; k++ {
		if math.Abs(a.Moment(k)-b.Moment(k)) > 1e-12 {
			t.Fatalf("moment %d depends on block order", k)
		}
	}
}

// momentRef is the one-sample-at-a-time recurrence NthMoment.Analyze must
// match bit for bit.
func momentRef(sums, samples []float64) {
	for _, u := range samples {
		p := 1.0
		for k := range sums {
			p *= u
			sums[k] += p
		}
	}
}

// momentInputs returns n samples of one input family: "mixed" draws finite
// values of both signs whose high powers overflow or pass through the
// subnormals; "tiny" draws only ±0 and subnormal or near-subnormal values;
// "special" mixes those with ±Inf, NaN and huge values.
func momentInputs(family string, n int, rng *rand.Rand) []float64 {
	tiny := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1e-310, -2.5e-308, 3e-160, -0.5}
	special := append([]float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200, -1e-200, -3, 0.999}, tiny...)
	out := make([]float64, n)
	for i := range out {
		switch family {
		case "mixed":
			out[i] = 2.4*rng.Float64() - 1.2
		case "tiny":
			out[i] = tiny[rng.Intn(len(tiny))]
		default:
			out[i] = special[rng.Intn(len(special))]
		}
	}
	return out
}

// sameBits fails t unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: sums[%d] = %v (%#x), want %v (%#x)", what, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

func TestNthMomentBitIdentical(t *testing.T) {
	var lengths []int
	for n := 0; n <= 2*momentLanes+1; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 8192)
	rng := rand.New(rand.NewSource(3))
	for _, family := range []string{"mixed", "tiny", "special"} {
		for _, order := range []int{1, 2, 3, 4, 5, 7, 288} {
			for _, n := range lengths {
				// A short first block leaves nonzero sums for the
				// second to fold into.
				first := momentInputs(family, 5, rng)
				second := momentInputs(family, n, rng)
				m := NewNthMoment(order)
				want := make([]float64, order)
				m.Analyze(first)
				momentRef(want, first)
				m.Analyze(second)
				momentRef(want, second)
				sameBits(t, fmt.Sprintf("%s order %d len %d", family, order, n), m.sums, want)
				if m.Count() != int64(5+n) {
					t.Fatalf("count = %d, want %d", m.Count(), 5+n)
				}
			}
		}
	}
}

func TestNthMomentSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, family := range []string{"mixed", "tiny", "special"} {
		for _, order := range []int{1, 4, 7, 288} {
			block := momentInputs(family, 4*momentLanes+5, rng)
			whole := NewNthMoment(order)
			whole.Analyze(block)
			for cut := 0; cut <= len(block); cut++ {
				split := NewNthMoment(order)
				split.Analyze(block[:cut])
				split.Analyze(block[cut:])
				sameBits(t, fmt.Sprintf("%s order %d cut %d", family, order, cut), split.sums, whole.sums)
				if split.Count() != whole.Count() {
					t.Fatalf("count %d after split, %d whole", split.Count(), whole.Count())
				}
			}
		}
	}
}

func TestNthMomentPanicsOutOfRange(t *testing.T) {
	m := NewNthMoment(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range moment did not panic")
		}
	}()
	m.Moment(3)
}

func TestVarianceMatchesDirect(t *testing.T) {
	prop := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		w := NewVariance()
		w.Analyze(vals)
		if len(vals) == 0 {
			return w.Value() == 0
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var direct float64
		for _, v := range vals {
			direct += (v - mean) * (v - mean)
		}
		direct /= float64(len(vals))
		scale := math.Max(1, direct)
		return math.Abs(w.Value()-direct) <= 1e-9*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceStreamingEqualsBatch(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	batch := NewVariance()
	batch.Analyze(vals)
	stream := NewVariance()
	for _, v := range vals {
		stream.Analyze([]float64{v})
	}
	if math.Abs(batch.Value()-stream.Value()) > 1e-12 {
		t.Fatalf("streaming %v != batch %v", stream.Value(), batch.Value())
	}
	if math.Abs(batch.StdDev()-math.Sqrt(batch.Value())) > 1e-15 {
		t.Fatal("StdDev inconsistent with Value")
	}
}

func TestMSDZeroWhenStationary(t *testing.T) {
	m := NewMSD()
	pos := []float64{1, 2, 3, 4, 5, 6}
	m.Analyze(0, 0, pos)
	m.Analyze(0, 1, pos)
	if v, ok := m.At(1); !ok || v != 0 {
		t.Fatalf("MSD stationary = %v,%v want 0,true", v, ok)
	}
}

func TestMSDKnownDisplacement(t *testing.T) {
	m := NewMSD()
	m.Analyze(0, 0, []float64{0, 0, 0, 0, 0, 0}) // 2 atoms at origin
	m.Analyze(0, 5, []float64{1, 0, 0, 0, 2, 0}) // displacements 1 and 2
	if v, _ := m.At(5); v != 2.5 {
		t.Fatalf("MSD = %v, want (1+4)/2 = 2.5", v)
	}
}

func TestMSDMultiRankOutOfOrder(t *testing.T) {
	m := NewMSD()
	// rank 1's step-0 block arrives before rank 0's.
	m.Analyze(1, 0, []float64{0, 0, 0})
	m.Analyze(0, 0, []float64{10, 0, 0})
	m.Analyze(0, 2, []float64{13, 4, 0}) // |d|² = 9+16 = 25
	m.Analyze(1, 2, []float64{0, 0, 5})  // |d|² = 25
	if v, _ := m.At(2); v != 25 {
		t.Fatalf("MSD = %v, want 25", v)
	}
	steps := m.Steps()
	if len(steps) != 2 || steps[0] != 0 || steps[1] != 2 {
		t.Fatalf("steps = %v", steps)
	}
	if s := m.Series(); len(s) != 2 || s[0] != 0 || s[1] != 25 {
		t.Fatalf("series = %v", s)
	}
}

func TestMSDGrowsDuringDiffusion(t *testing.T) {
	m := NewMSD()
	rng := rand.New(rand.NewSource(2))
	const atoms = 50
	pos := make([]float64, 3*atoms)
	m.Analyze(0, 0, pos)
	for step := 1; step <= 10; step++ {
		for i := range pos {
			pos[i] += rng.NormFloat64() * 0.1
		}
		m.Analyze(0, step, pos)
	}
	s := m.Series()
	if s[len(s)-1] <= s[1] {
		t.Fatalf("MSD did not grow: %v", s)
	}
}

func TestMSDBuffersBlocksBeforeReference(t *testing.T) {
	m := NewMSD()
	// Step 7 arrives before the rank's reference frame (out-of-order
	// delivery via the file-system path).
	m.Analyze(3, 7, []float64{1, 0, 0})
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", m.Pending())
	}
	if _, ok := m.At(7); ok {
		t.Fatal("step 7 visible before reference")
	}
	m.Analyze(3, 0, []float64{0, 0, 0})
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after reference, want 0", m.Pending())
	}
	if v, ok := m.At(7); !ok || v != 1 {
		t.Fatalf("MSD(7) = %v,%v want 1,true", v, ok)
	}
}

func TestMSDPanicsOnSizeChange(t *testing.T) {
	m := NewMSD()
	m.Analyze(0, 0, []float64{0, 0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for size change")
		}
	}()
	m.Analyze(0, 1, []float64{0, 0, 0, 1, 1, 1})
}

func TestMSDMissingStep(t *testing.T) {
	m := NewMSD()
	if _, ok := m.At(9); ok {
		t.Fatal("At on empty accumulator reported ok")
	}
}

// BenchmarkNthMoment times one Analyze call on the block shapes of the
// insitu-steal (order 288, 64 KiB blocks of samples near 1) and
// staged-durable (order 4, 16 KiB blocks of 16 levels) workloads.
func BenchmarkNthMoment(b *testing.B) {
	for _, bc := range []struct {
		name                   string
		order, samples, levels int
	}{
		{"order288x8192", 288, 8192, 0},
		{"order4x2048", 4, 2048, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			block := make([]float64, bc.samples)
			for i := range block {
				if bc.levels > 0 {
					block[i] = 1 + float64(rng.Intn(bc.levels))/1024
				} else {
					block[i] = 0.99 + 0.02*rng.Float64()
				}
			}
			m := NewNthMoment(bc.order)
			b.SetBytes(int64(8 * len(block)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Analyze(block)
			}
		})
	}
}
