package reduce

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"zipper/internal/block"
)

// smoothField builds a compressible float64 payload: a piecewise-constant
// wave (64-sample plateaus) plus a small step-dependent drift — the shape
// of a well-resolved simulation field, where neighboring cells repeat
// values and adjacent steps barely differ.
func smoothField(step, n int) []byte {
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i/64)) + 0.001*float64(step)
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func mkBlock(rank, step, seq int, data []byte) *block.Block {
	return block.New(block.ID{Rank: rank, Step: step, Seq: seq}, 0, data)
}

func TestCompressRoundTrip(t *testing.T) {
	raw := smoothField(0, 4096)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Compress})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != uint8(Compress) {
		t.Fatalf("block not encoded (enc=%d)", b.Enc)
	}
	if b.EncBytes >= b.Bytes {
		t.Fatalf("compress grew the payload: %d ≥ %d", b.EncBytes, b.Bytes)
	}
	if b.Bytes != int64(len(raw)) {
		t.Fatalf("raw size clobbered: %d", b.Bytes)
	}
	d := NewDecoder()
	if err := d.DecodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != 0 || b.EncBytes != 0 {
		t.Fatalf("stamp not cleared: enc=%d encBytes=%d", b.Enc, b.EncBytes)
	}
	if !bytes.Equal(b.Data, raw) {
		t.Fatal("compress round-trip corrupted payload")
	}
}

func TestCompressSkipsIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 4096)
	rng.Read(raw)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Compress})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != 0 {
		t.Fatalf("random payload encoded anyway (encBytes=%d raw=%d)", b.EncBytes, b.Bytes)
	}
	if !bytes.Equal(b.Data, raw) {
		t.Fatal("skipped encode still touched the payload")
	}
}

func TestDeltaRoundTripAcrossSteps(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	d := NewDecoder()
	var fullSize, deltaSize int64
	for step := 0; step < 5; step++ {
		raw := smoothField(step, 4096)
		b := mkBlock(2, step, 7, append([]byte(nil), raw...))
		if err := e.EncodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != uint8(Delta) {
			t.Fatalf("step %d not encoded", step)
		}
		if step == 0 {
			fullSize = b.EncBytes
		} else if step == 1 {
			deltaSize = b.EncBytes
		}
		if err := d.DecodeBlock(b); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !bytes.Equal(b.Data, raw) {
			t.Fatalf("step %d: delta round-trip corrupted payload", step)
		}
	}
	if deltaSize >= fullSize {
		t.Fatalf("delta step (%d B) not smaller than full step (%d B)", deltaSize, fullSize)
	}
}

func TestDeltaStreamsAreIndependent(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	d := NewDecoder()
	// Interleave two (rank, seq) streams: each must delta against its own
	// previous step, not whatever encoded last.
	for step := 0; step < 3; step++ {
		for _, seq := range []int{0, 1} {
			raw := smoothField(step+seq*100, 1024)
			b := mkBlock(0, step, seq, append([]byte(nil), raw...))
			if err := e.EncodeBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := d.DecodeBlock(b); err != nil {
				t.Fatalf("step %d seq %d: %v", step, seq, err)
			}
			if !bytes.Equal(b.Data, raw) {
				t.Fatalf("step %d seq %d corrupted", step, seq)
			}
		}
	}
}

func TestDeltaBaseMismatchErrors(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	b0 := mkBlock(0, 0, 0, smoothField(0, 512))
	b1 := mkBlock(0, 1, 0, smoothField(1, 512))
	if err := e.EncodeBlock(b0); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Decode the delta frame without its base: must error, never emit a
	// silently corrupt field.
	d := NewDecoder()
	if err := d.DecodeBlock(b1); err == nil {
		t.Fatal("decoding a delta with no base succeeded")
	}
}

func TestStrideRoundTripIsExpansion(t *testing.T) {
	const n = 1024
	raw := smoothField(0, n)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Stride, Stride: 4})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != uint8(Stride) {
		t.Fatal("stride did not encode")
	}
	if b.EncBytes >= b.Bytes/3 {
		t.Fatalf("stride 4 left %d of %d bytes", b.EncBytes, b.Bytes)
	}
	d := NewDecoder()
	if err := d.DecodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if int64(len(b.Data)) != b.Bytes {
		t.Fatalf("expanded to %d bytes, want %d", len(b.Data), b.Bytes)
	}
	// Every kept sample must survive exactly; dropped samples are filled
	// from the nearest kept value on the left.
	for i := 0; i < n; i++ {
		got := b.Data[i*8 : i*8+8]
		want := raw[(i/4)*4*8 : (i/4)*4*8+8]
		if !bytes.Equal(got, want) {
			t.Fatalf("sample %d: stride expansion wrong", i)
		}
	}
}

func TestSimModeModelsReduction(t *testing.T) {
	for _, cfg := range []Config{
		{Operator: Compress},
		{Operator: Delta},
		{Operator: Stride, Stride: 8},
		{Operator: Compress, ModelRatio: 0.5},
	} {
		b := block.NewSized(block.ID{Rank: 1, Step: 2, Seq: 3}, 0, 1<<20)
		e := NewEncoder(cfg)
		if err := e.EncodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != uint8(cfg.Operator) {
			t.Fatalf("%v: sim block not stamped", cfg.Operator)
		}
		want := int64(float64(b.Bytes) * cfg.modelRatio())
		if b.EncBytes != want {
			t.Fatalf("%v: modeled %d bytes, want %d", cfg.Operator, b.EncBytes, want)
		}
		if b.Data != nil {
			t.Fatal("sim encode materialized a payload")
		}
		if err := NewDecoder().DecodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != 0 || b.EncBytes != 0 {
			t.Fatal("sim decode left the stamp")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Operator: Compress},
		{Operator: Compress, Level: 9},
		{Operator: Delta, OnPressure: true},
		{Operator: Stride, Stride: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{Operator: Kind(9)},
		{Operator: Stride},
		{Operator: Stride, Stride: 1},
		{Operator: Compress, Stride: 2},
		{Operator: Compress, Level: 42},
		{Operator: Compress, ModelRatio: 1.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: validated", c)
		}
	}
}

func TestCorruptEncodedPayloadErrors(t *testing.T) {
	// Flate garbage, truncated delta headers, and wrong stride sizes must
	// all surface as errors, not panics or silent corruption.
	cases := []*block.Block{
		{ID: block.ID{}, Bytes: 64, Data: []byte{1, 2, 3}, Enc: uint8(Compress), EncBytes: 3},
		{ID: block.ID{}, Bytes: 64, Data: []byte{}, Enc: uint8(Delta), EncBytes: 0},
		{ID: block.ID{}, Bytes: 64, Data: []byte{deltaXOR, 1, 2}, Enc: uint8(Delta), EncBytes: 3},
		{ID: block.ID{}, Bytes: 64, Data: []byte{7}, Enc: uint8(Delta), EncBytes: 1},
		{ID: block.ID{}, Bytes: 64, Data: []byte{0}, Enc: uint8(Stride), EncBytes: 1},
		{ID: block.ID{}, Bytes: 64, Data: []byte{4, 9}, Enc: uint8(Stride), EncBytes: 2},
		{ID: block.ID{}, Bytes: 64, Data: []byte{1, 2, 3}, Enc: 200, EncBytes: 3},
	}
	for i, b := range cases {
		if err := NewDecoder().DecodeBlock(b); err == nil {
			t.Errorf("case %d: corrupt payload decoded", i)
		}
	}
}

// compressible builds a payload with plateau structure (realistic smooth
// field) seeded per block so different blocks differ.
func compressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	level := byte(rng.Intn(256))
	for i := range data {
		if i%64 == 0 {
			level = byte(rng.Intn(256))
		}
		data[i] = level
	}
	return data
}

// TestDeltaOrderingProperty pins Delta's single in-order path: with the
// encoder feeding a decoder that replays steps in order — while unrelated
// Compress encoders churn the shared flate pools on other goroutines —
// every stream round-trips exactly. Run under -race this also proves the
// pooled flate writers are safe across concurrent encoders.
func TestDeltaOrderingProperty(t *testing.T) {
	const (
		streams = 6
		steps   = 40
		size    = 4096
	)
	payload := func(rank, seq, step int) []byte {
		base := compressible(size, int64(rank*100+seq))
		// Smooth per-step drift, the regime Delta is built for.
		for i := 0; i < len(base); i += 128 {
			base[i] = byte(int(base[i]) + step)
		}
		return base
	}

	// Background churn: two Compress encoders hammering the shared pools.
	var churn sync.WaitGroup
	for w := 0; w < 2; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			enc := NewEncoder(Config{Operator: Compress})
			for round := 0; round < 30; round++ {
				for i := 0; i < 4; i++ {
					b := mkBlock(90+4*w+i, round, 0, compressible(1024, int64(round*10+4*w+i)))
					if err := enc.EncodeBlock(b); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}

	wire := make(chan *block.Block, 16)
	go func() {
		enc := NewEncoder(Config{Operator: Delta})
		for step := 0; step < steps; step++ {
			for s := 0; s < streams; s++ {
				rank, seq := s/2, s%2
				b := mkBlock(rank, step, seq, payload(rank, seq, step))
				if err := enc.EncodeBlock(b); err != nil {
					panic(err)
				}
				wire <- b
			}
		}
		close(wire)
	}()
	dec := NewDecoder()
	got := 0
	for b := range wire {
		if err := dec.DecodeBlock(b); err != nil {
			t.Fatalf("decode %v: %v", b.ID, err)
		}
		want := payload(b.ID.Rank, b.ID.Seq, b.ID.Step)
		if !bytes.Equal(b.Data, want) {
			t.Fatalf("stream (%d,%d) step %d did not round-trip", b.ID.Rank, b.ID.Seq, b.ID.Step)
		}
		got++
	}
	if got != streams*steps {
		t.Fatalf("decoded %d blocks, want %d", got, streams*steps)
	}
	churn.Wait()
}
