package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// field generates the float64 payloads of one run from the seed alone: the
// block at index i always holds the same values, so a block's checksum is a
// function of (seed, i) and the ledger can prove what the consumer saw.
type field struct {
	seed uint64
	// levels > 0 quantizes every sample to one of levels exactly
	// representable values: 1 + k/1024 for k in [0, levels). That bounds
	// the field's entropy at log2(levels) bits per 64-bit word, which is
	// what makes it compressible. levels == 0 draws full-mantissa samples
	// uniform in [0.99, 1.01) — incompressible.
	levels uint64
}

// splitmix64 is the PRNG step: a 64-bit bijective mixer over a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sample returns word w of block i.
func (f field) sample(i, w int) float64 {
	r := splitmix64(f.seed ^ splitmix64(uint64(i)<<20|uint64(w)))
	if f.levels > 0 {
		return 1 + float64(r%f.levels)/1024
	}
	return 0.99 + 0.02*float64(r>>11)/(1<<53)
}

// fill writes block i's samples into dst (len a multiple of 8) and returns
// the block checksum.
func (f field) fill(dst []byte, i int) uint64 {
	for w := 0; w < len(dst)/8; w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], math.Float64bits(f.sample(i, w)))
	}
	return checksum(dst)
}

// checksum is a 64-bit multiply-xor hash over the payload's words.
func checksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
		h ^= h >> 29
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// ledger is the correctness record of one realenv run: the checksum each
// written block carried, and how often, and with what checksum, each was
// analysed. A block fails unless it was analysed exactly once with a
// matching checksum.
//
// The producer calls expect before Write and the consumer calls analysed
// after Read; the runtime's own hand-off orders the two, so the slices need
// no further synchronization.
type ledger struct {
	want []uint64
	seen []uint32
	bad  []bool
	// unknown counts delivered blocks whose (step, offset) maps to no
	// written block.
	unknown int
}

func newLedger(n int) *ledger {
	return &ledger{want: make([]uint64, n), seen: make([]uint32, n), bad: make([]bool, n)}
}

func (l *ledger) expect(i int, sum uint64) { l.want[i] = sum }

// analysed records one delivery of block i with payload checksum sum.
func (l *ledger) analysed(i int, sum uint64) {
	if i < 0 || i >= len(l.want) {
		l.unknown++
		return
	}
	l.seen[i]++
	if sum != l.want[i] {
		l.bad[i] = true
	}
}

// verdict counts failed blocks: dropped, duplicated, or corrupted (a block
// that is all three counts once), plus deliveries of unknown blocks.
func (l *ledger) verdict() (failed int, detail string) {
	var dropped, dup, corrupt int
	for i := range l.want {
		switch {
		case l.seen[i] == 0:
			dropped++
		case l.seen[i] > 1:
			dup++
		case l.bad[i]:
			corrupt++
		default:
			continue
		}
		failed++
	}
	failed += l.unknown
	if failed > 0 {
		detail = fmt.Sprintf("dropped=%d duplicated=%d corrupted=%d unknown=%d", dropped, dup, corrupt, l.unknown)
	}
	return failed, detail
}

// momentsAgree reports whether two moment vectors match within a relative
// tolerance: the streamed accumulator sums in arrival order, the serial
// reference in index order, so they differ by rounding only.
func momentsAgree(got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if math.Abs(got[k]-want[k]) > tol*math.Abs(want[k]) {
			return false
		}
	}
	return true
}
