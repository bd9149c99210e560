// Package reduce implements in-transit payload reduction for the wire path.
// The paper's premise is that the producer→consumer transfer is the resource
// worth protecting; Catalyst-ADIOS2-style operator placement says the
// in-transit tier is where bandwidth-limiting operators belong. This package
// supplies the pluggable operators — per-block compression of the float
// payloads, delta-vs-last-step encoding, stride subsampling — and the
// encode/decode state machines the runtime modules drive.
//
// A reduced block keeps its identity and raw size (Block.Bytes) untouched;
// only the payload representation changes: Block.Data holds the encoded
// bytes, Block.Enc names the operator, and Block.EncBytes is the encoded
// size that the wire, the spill store, and the simulated fabric charge.
// Decoding restores the exact raw payload (Compress, Delta) or a stride-
// expanded approximation (Stride — the one deliberately lossy operator).
//
// In simulation mode blocks carry no payload bytes, so EncodeBlock instead
// models the reduction: it stamps Enc and a deterministic EncBytes derived
// from ModelRatio, and DecodeBlock strips the stamp. Virtual-time wire and
// spill costs then reflect the reduced sizes exactly as real mode does.
package reduce

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"zipper/internal/block"
)

// Kind selects a reduction operator. The zero value means no reduction.
type Kind uint8

const (
	// None leaves payloads untouched.
	None Kind = 0
	// Compress deflates each payload independently (lossless). The cheapest
	// to reason about: stateless, any delivery order, safe to apply at any
	// hop including the spill path.
	Compress Kind = 1
	// Delta XORs each payload against the previous step's payload of the
	// same (rank, seq) stream position, then deflates the sparse difference
	// (lossless). Smooth fields change little between adjacent steps, so the
	// XOR is mostly zero bytes and deflates far below plain Compress. The
	// price is per-stream state on both ends: encoder and decoder must see
	// the stream in step order over a single path.
	Delta Kind = 2
	// Stride keeps every k-th float64 of the payload and drops the rest
	// (lossy). Decode expands each kept value over its window, so the
	// consumer sees a coarsened field of the original size. For analyses
	// that tolerate subsampled input it beats any lossless operator by
	// construction: the wire size is ~1/k regardless of entropy.
	Stride Kind = 3
)

// String names the operator for diagnostics and config errors.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Compress:
		return "compress"
	case Delta:
		return "delta"
	case Stride:
		return "stride"
	default:
		return fmt.Sprintf("reduce.Kind(%d)", uint8(k))
	}
}

// Stateless reports whether the operator can encode any block in isolation.
// Stateless operators may run at any hop — including the stager's spill
// path, where blocks leave the stream order. Delta is the one stateful
// operator: it must run on exactly one in-order path per stream.
func (k Kind) Stateless() bool { return k != Delta }

// Config selects and parameterizes the reduction applied to relayed
// payloads.
type Config struct {
	// Operator picks the reduction; None disables the package entirely.
	Operator Kind
	// Stride is the subsampling factor for the Stride operator: keep every
	// Stride-th float64. Must be ≥ 2 when Operator == Stride.
	Stride int
	// Level is the flate compression level for Compress and Delta
	// (flate.BestSpeed .. flate.BestCompression). 0 means flate.BestSpeed:
	// the wire path trades ratio for CPU by default.
	Level int
	// OnPressure defers reduction to the staging tier's pressure valve:
	// instead of encoding every relayed block at the producer, blocks are
	// encoded by the stager only while its occupancy is above the spill
	// high-water mark — the "compress instead of spill" rung. Off means
	// reduce everything at the producer relay path.
	OnPressure bool
	// ModelRatio overrides the simulated encoded-size ratio
	// (EncBytes = ceil(ModelRatio × Bytes)). 0 means the per-operator
	// default: 0.35 for Compress, 0.22 for Delta, 1/Stride for Stride.
	ModelRatio float64
}

// Enabled reports whether the config names an operator.
func (c Config) Enabled() bool { return c.Operator != None }

// Validate rejects malformed operator parameters.
func (c Config) Validate() error {
	switch c.Operator {
	case None, Compress, Delta, Stride:
	default:
		return fmt.Errorf("reduce: unknown operator %d", uint8(c.Operator))
	}
	if c.Operator == Stride && c.Stride < 2 {
		return fmt.Errorf("reduce: stride operator needs Stride ≥ 2, got %d", c.Stride)
	}
	if c.Operator != Stride && c.Stride != 0 {
		return fmt.Errorf("reduce: Stride is only meaningful for the stride operator")
	}
	if c.Level != 0 && (c.Level < flate.HuffmanOnly || c.Level > flate.BestCompression) {
		return fmt.Errorf("reduce: flate level %d out of range", c.Level)
	}
	if c.ModelRatio < 0 || c.ModelRatio > 1 {
		return fmt.Errorf("reduce: ModelRatio %v out of [0,1]", c.ModelRatio)
	}
	return nil
}

func (c Config) level() int {
	if c.Level == 0 {
		return flate.BestSpeed
	}
	return c.Level
}

func (c Config) modelRatio() float64 {
	if c.ModelRatio > 0 {
		return c.ModelRatio
	}
	switch c.Operator {
	case Compress:
		return 0.35
	case Delta:
		return 0.22
	case Stride:
		return 1 / float64(c.Stride)
	default:
		return 1
	}
}

// streamKey identifies one block stream position across steps: the delta
// base for (rank, seq) is the previous step's block at the same position.
type streamKey struct{ rank, seq int }

// base is the retained raw payload a delta stream encodes (or decodes)
// against, tagged with the step it came from so a reordered or dropped
// block is detected instead of silently corrupting the field.
type base struct {
	step int
	data []byte // privately owned copy, never aliases a pooled payload
}

// Delta wire layout (inside Block.Data when Enc == Delta):
//
//	u8 marker (deltaFull | deltaXOR) | [i64 baseStep, only for deltaXOR] |
//	flate stream of the raw payload (full) or the XOR difference (delta)
const (
	deltaFull = 0 // no usable base: payload is the flated raw bytes
	deltaXOR  = 1 // payload is the flated XOR against base step baseStep
)

// Encoder applies one operator to blocks in place. Not safe for concurrent
// use: each sending thread (a producer's sender, a stager's forwarder)
// owns its encoder, which is also what gives Delta its per-path stream
// state.
type Encoder struct {
	cfg  Config
	buf  bytes.Buffer
	xor  []byte
	last map[streamKey]base
}

// NewEncoder returns an encoder for cfg. cfg must validate.
func NewEncoder(cfg Config) *Encoder {
	e := &Encoder{cfg: cfg}
	if cfg.Operator == Delta {
		e.last = make(map[streamKey]base)
	}
	return e
}

// Kind reports the configured operator.
func (e *Encoder) Kind() Kind { return e.cfg.Operator }

// EncodeBlock reduces b's payload in place. Blocks already carrying an
// encoding, and blocks the operator cannot shrink, are left untouched (the
// stateful Delta operator always encodes — see below). In simulation mode
// (b.Data == nil) the reduction is modeled: Enc and EncBytes are stamped
// without touching payload bytes. The replaced raw payload is returned to
// the block pool; for Delta a private copy is retained as the next step's
// base.
func (e *Encoder) EncodeBlock(b *block.Block) error {
	if e.cfg.Operator == None || b.Enc != 0 || b.Bytes <= 0 {
		return nil
	}
	if b.Data == nil {
		// Simulation mode: model the encoded size deterministically.
		enc := int64(float64(b.Bytes) * e.cfg.modelRatio())
		if enc < 1 {
			enc = 1
		}
		if e.cfg.Operator != Delta && enc >= b.Bytes {
			return nil // doesn't pay; leave raw like the real path would
		}
		b.Enc = uint8(e.cfg.Operator)
		b.EncBytes = enc
		return nil
	}
	switch e.cfg.Operator {
	case Compress:
		return e.encodeCompress(b)
	case Delta:
		return e.encodeDelta(b)
	case Stride:
		return e.encodeStride(b)
	}
	return nil
}

// flatePools shares flate.Writers across every Encoder in the process, one
// pool per compression level (index level − HuffmanOnly). A flate.Writer
// carries ~700 KiB of compressor state; before pooling, every encoder
// allocated its own, so encoder churn — every producer's sender, the
// stager's forwarder and spiller pair, short-lived spill encoders — paid
// that allocation again and again. Writers park here between encodes and
// are Reset onto the borrowing encoder's buffer.
var flatePools [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// flateInto deflates src into e.buf (reset first) through a pooled writer.
func (e *Encoder) flateInto(src []byte) error {
	e.buf.Reset()
	lvl := e.cfg.level()
	pool := &flatePools[lvl-flate.HuffmanOnly]
	fw, _ := pool.Get().(*flate.Writer)
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&e.buf, lvl); err != nil {
			return fmt.Errorf("reduce: flate init: %w", err)
		}
	} else {
		fw.Reset(&e.buf)
	}
	if _, err := fw.Write(src); err != nil {
		return fmt.Errorf("reduce: flate: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("reduce: flate close: %w", err)
	}
	pool.Put(fw)
	return nil
}

// swapPayload installs the encoded payload held in enc, stamps the
// encoding, and recycles the raw payload.
func swapPayload(b *block.Block, kind Kind, enc []byte) {
	raw := block.Block{Data: b.Data}
	b.Data = enc
	b.Enc = uint8(kind)
	b.EncBytes = int64(len(enc))
	raw.Release()
}

func (e *Encoder) encodeCompress(b *block.Block) error {
	if err := e.flateInto(b.Data); err != nil {
		return err
	}
	if int64(e.buf.Len()) >= b.Bytes {
		return nil // incompressible: send raw
	}
	enc := block.GetPayload(e.buf.Len())
	copy(enc, e.buf.Bytes())
	swapPayload(b, Compress, enc)
	return nil
}

// encodeDelta XORs against the retained previous-step payload of the same
// (rank, seq) stream position and deflates the (mostly zero) difference.
// Unlike the stateless operators it never skips: the decoder's base state
// must advance in lockstep with the encoder's, so even a poorly-compressing
// block goes out encoded (as deltaFull when no base fits).
func (e *Encoder) encodeDelta(b *block.Block) error {
	key := streamKey{b.ID.Rank, b.ID.Seq}
	prev, ok := e.last[key]
	marker := byte(deltaFull)
	baseStep := int64(0)
	if ok && int64(len(prev.data)) == b.Bytes {
		marker = deltaXOR
		baseStep = int64(prev.step)
		if cap(e.xor) < len(b.Data) {
			e.xor = make([]byte, len(b.Data))
		}
		e.xor = e.xor[:len(b.Data)]
		for i, v := range b.Data {
			e.xor[i] = v ^ prev.data[i]
		}
		if err := e.flateInto(e.xor); err != nil {
			return err
		}
	} else {
		if err := e.flateInto(b.Data); err != nil {
			return err
		}
	}
	hdrLen := 1
	if marker == deltaXOR {
		hdrLen += 8
	}
	enc := block.GetPayload(hdrLen + e.buf.Len())
	enc[0] = marker
	if marker == deltaXOR {
		binary.LittleEndian.PutUint64(enc[1:9], uint64(baseStep))
	}
	copy(enc[hdrLen:], e.buf.Bytes())
	// Retain a private copy of the raw payload as the next step's base,
	// reusing the outgoing base's buffer when it fits.
	next := prev.data
	if cap(next) < len(b.Data) {
		next = make([]byte, len(b.Data))
	}
	next = next[:len(b.Data)]
	copy(next, b.Data)
	e.last[key] = base{step: b.ID.Step, data: next}
	swapPayload(b, Delta, enc)
	return nil
}

// Stride wire layout (inside Block.Data when Enc == Stride):
//
//	u8 stride | kept float64 words (indices 0, k, 2k, …) | raw tail bytes
//	(len % 8 bytes carried verbatim)
func (e *Encoder) encodeStride(b *block.Block) error {
	k := e.cfg.Stride
	n := len(b.Data) / 8
	if n < 2 || k > 255 {
		return nil // too small to subsample, or stride unencodable in a byte
	}
	kept := (n + k - 1) / k
	tail := len(b.Data) % 8
	encLen := 1 + kept*8 + tail
	if int64(encLen) >= b.Bytes {
		return nil
	}
	enc := block.GetPayload(encLen)
	enc[0] = byte(k)
	o := 1
	for i := 0; i < n; i += k {
		copy(enc[o:o+8], b.Data[i*8:i*8+8])
		o += 8
	}
	copy(enc[o:], b.Data[n*8:])
	swapPayload(b, Stride, enc)
	return nil
}

// Decoder restores reduced payloads in place. Not safe for concurrent use:
// each consumer's receiver thread owns one, which carries the Delta base
// state for every stream the consumer is assigned.
type Decoder struct {
	buf  bytes.Buffer
	fr   io.ReadCloser
	last map[streamKey]base
}

// NewDecoder returns a decoder ready for any operator: the block's Enc tag
// selects the decode path, so the consumer needs no reduction config.
func NewDecoder() *Decoder { return &Decoder{} }

// DecodeBlock restores b's raw payload in place and clears the encoding
// stamp. Unencoded blocks pass through; simulation-mode blocks just drop
// the stamp. The encoded payload is recycled into the block pool.
func (d *Decoder) DecodeBlock(b *block.Block) error {
	if b == nil || b.Enc == 0 {
		return nil
	}
	if b.Data == nil {
		// Simulation mode: strip the modeled reduction.
		b.Enc = 0
		b.EncBytes = 0
		return nil
	}
	var err error
	switch Kind(b.Enc) {
	case Compress:
		err = d.decodeCompress(b)
	case Delta:
		err = d.decodeDelta(b)
	case Stride:
		err = d.decodeStride(b)
	default:
		err = fmt.Errorf("reduce: unknown encoding %d on block %v", b.Enc, b.ID)
	}
	return err
}

// inflateInto inflates src into d.buf (reset first) and checks the decoded
// length against want.
func (d *Decoder) inflateInto(src []byte, want int64) error {
	d.buf.Reset()
	r := bytes.NewReader(src)
	if d.fr == nil {
		d.fr = flate.NewReader(r)
	} else if err := d.fr.(flate.Resetter).Reset(r, nil); err != nil {
		return fmt.Errorf("reduce: flate reset: %w", err)
	}
	// want bounds the copy so a corrupt stream cannot balloon the buffer.
	n, err := io.Copy(&d.buf, io.LimitReader(d.fr, want+1))
	if err != nil {
		return fmt.Errorf("reduce: inflate: %w", err)
	}
	if n != want {
		return fmt.Errorf("reduce: inflated %d bytes, want %d", n, want)
	}
	return nil
}

// swapDecoded installs the raw payload and recycles the encoded one.
func swapDecoded(b *block.Block, raw []byte) {
	enc := block.Block{Data: b.Data}
	b.Data = raw
	b.Enc = 0
	b.EncBytes = 0
	enc.Release()
}

func (d *Decoder) decodeCompress(b *block.Block) error {
	if err := d.inflateInto(b.Data, b.Bytes); err != nil {
		return err
	}
	raw := block.GetPayload(int(b.Bytes))
	copy(raw, d.buf.Bytes())
	swapDecoded(b, raw)
	return nil
}

func (d *Decoder) decodeDelta(b *block.Block) error {
	if len(b.Data) < 1 {
		return fmt.Errorf("reduce: empty delta payload on block %v", b.ID)
	}
	marker := b.Data[0]
	body := b.Data[1:]
	key := streamKey{b.ID.Rank, b.ID.Seq}
	var prev base
	switch marker {
	case deltaFull:
	case deltaXOR:
		if len(body) < 8 {
			return fmt.Errorf("reduce: truncated delta header on block %v", b.ID)
		}
		baseStep := int64(binary.LittleEndian.Uint64(body[:8]))
		body = body[8:]
		var ok bool
		prev, ok = d.last[key]
		if !ok || int64(prev.step) != baseStep || int64(len(prev.data)) != b.Bytes {
			return fmt.Errorf("reduce: delta base mismatch on block %v: have step %d, frame names %d",
				b.ID, prev.step, baseStep)
		}
	default:
		return fmt.Errorf("reduce: bad delta marker %d on block %v", marker, b.ID)
	}
	if err := d.inflateInto(body, b.Bytes); err != nil {
		return err
	}
	raw := block.GetPayload(int(b.Bytes))
	copy(raw, d.buf.Bytes())
	if marker == deltaXOR {
		for i := range raw {
			raw[i] ^= prev.data[i]
		}
	}
	// Retain a private copy as the next step's base, reusing the outgoing
	// base's buffer when it fits.
	if d.last == nil {
		d.last = make(map[streamKey]base)
	}
	next := prev.data
	if cap(next) < len(raw) {
		next = make([]byte, len(raw))
	}
	next = next[:len(raw)]
	copy(next, raw)
	d.last[key] = base{step: b.ID.Step, data: next}
	swapDecoded(b, raw)
	return nil
}

func (d *Decoder) decodeStride(b *block.Block) error {
	if len(b.Data) < 1 {
		return fmt.Errorf("reduce: empty stride payload on block %v", b.ID)
	}
	k := int(b.Data[0])
	if k < 2 {
		return fmt.Errorf("reduce: bad stride %d on block %v", k, b.ID)
	}
	n := int(b.Bytes) / 8
	tail := int(b.Bytes) % 8
	kept := (n + k - 1) / k
	if len(b.Data) != 1+kept*8+tail {
		return fmt.Errorf("reduce: stride payload %d bytes, want %d for %d raw",
			len(b.Data), 1+kept*8+tail, b.Bytes)
	}
	raw := block.GetPayload(int(b.Bytes))
	o := 1
	for i := 0; i < n; i += k {
		word := b.Data[o : o+8]
		o += 8
		for j := i; j < i+k && j < n; j++ {
			copy(raw[j*8:j*8+8], word)
		}
	}
	copy(raw[n*8:], b.Data[o:])
	swapDecoded(b, raw)
	return nil
}
