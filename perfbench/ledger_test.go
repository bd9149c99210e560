package main

import (
	"strings"
	"testing"
)

// ledgerRun writes n blocks into a ledger and delivers each once, letting
// mutate drop, duplicate or corrupt deliveries first.
func ledgerRun(t *testing.T, n int, mutate func(deliveries [][]byte) [][]byte) (int, string) {
	t.Helper()
	f := field{seed: 7}
	l := newLedger(n)
	var deliveries [][]byte
	for i := 0; i < n; i++ {
		b := make([]byte, 64)
		l.expect(i, f.fill(b, i))
		deliveries = append(deliveries, b)
	}
	if mutate != nil {
		deliveries = mutate(deliveries)
	}
	for _, b := range deliveries {
		i := indexOf(f, b, n)
		l.analysed(i, checksum(b))
	}
	return l.verdict()
}

// indexOf finds which block b was generated as, by its first sample.
func indexOf(f field, b []byte, n int) int {
	for i := 0; i < n; i++ {
		want := make([]byte, 8)
		f.fill(want, i)
		if string(want) == string(b[:8]) {
			return i
		}
	}
	return -1
}

func TestLedgerCleanRun(t *testing.T) {
	if failed, detail := ledgerRun(t, 16, nil); failed != 0 {
		t.Fatalf("clean run: %d failed (%s)", failed, detail)
	}
}

func TestLedgerFlagsDroppedBlock(t *testing.T) {
	failed, detail := ledgerRun(t, 16, func(d [][]byte) [][]byte { return append(d[:3], d[4:]...) })
	if failed != 1 || !strings.Contains(detail, "dropped=1") {
		t.Fatalf("dropped block: %d failed (%s), want 1 dropped", failed, detail)
	}
}

func TestLedgerFlagsDuplicatedBlock(t *testing.T) {
	failed, detail := ledgerRun(t, 16, func(d [][]byte) [][]byte { return append(d, d[5]) })
	if failed != 1 || !strings.Contains(detail, "duplicated=1") {
		t.Fatalf("duplicated block: %d failed (%s), want 1 duplicated", failed, detail)
	}
}

func TestLedgerFlagsCorruptedBlock(t *testing.T) {
	failed, detail := ledgerRun(t, 16, func(d [][]byte) [][]byte {
		d[9][40] ^= 1 // past the first sample, so the block is still identified
		return d
	})
	if failed != 1 || !strings.Contains(detail, "corrupted=1") {
		t.Fatalf("corrupted block: %d failed (%s), want 1 corrupted", failed, detail)
	}
}

func TestFieldIsSeedDeterministic(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 4096)
	if (field{seed: 3}).fill(a, 5) != (field{seed: 3}).fill(b, 5) || string(a) != string(b) {
		t.Fatal("same seed and index produced different blocks")
	}
	if (field{seed: 3}).fill(a, 5) == (field{seed: 4}).fill(b, 5) {
		t.Fatal("different seeds produced the same block")
	}
}

func TestMomentsAgree(t *testing.T) {
	want := []float64{1, 1.0001, 1.0003, 1.0006}
	if !momentsAgree([]float64{1, 1.0001, 1.0003, 1.0006 * (1 + 1e-12)}, want, momentTol) {
		t.Fatal("rounding-level difference rejected")
	}
	if momentsAgree([]float64{1, 1.0001, 1.0003, 1.0007}, want, momentTol) {
		t.Fatal("a changed moment was accepted")
	}
}
