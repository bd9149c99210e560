// Package realenv implements the rt platform on the real machine: goroutines
// as runtime threads, sync primitives, buffered Go channels as the
// low-latency network path, and a spool directory as the parallel file
// system path. The examples couple genuine simulation and analysis code
// through the Zipper runtime on this platform.
package realenv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// Env is the real-machine platform.
type Env struct {
	epoch time.Time
	wg    sync.WaitGroup
}

// New returns a platform whose clock starts now.
func New() *Env {
	return &Env{epoch: time.Now()}
}

type ctx struct{ e *Env }

func (c ctx) Now() time.Duration    { return time.Since(c.e.epoch) }
func (c ctx) Sleep(d time.Duration) { time.Sleep(d) }

// Ctx returns a context for a caller-owned goroutine (for example, the
// application thread that calls Producer.Write).
func (e *Env) Ctx() rt.Ctx { return ctx{e} }

// Go starts a runtime thread. Use Wait to join all threads.
func (e *Env) Go(name string, fn func(rt.Ctx)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn(ctx{e})
	}()
}

// Wait blocks until every thread started with Go has returned.
func (e *Env) Wait() { e.wg.Wait() }

// CopyDelay is a no-op: on the real platform the copy itself costs the time.
func (e *Env) CopyDelay(rt.Ctx, int64) {}

// NewLock creates a sync.Mutex-backed lock.
func (e *Env) NewLock(name string) rt.Lock { return &lock{} }

type lock struct{ mu sync.Mutex }

func (l *lock) Lock(rt.Ctx)   { l.mu.Lock() }
func (l *lock) Unlock(rt.Ctx) { l.mu.Unlock() }
func (l *lock) NewCond(name string) rt.Cond {
	return &cond{c: sync.NewCond(&l.mu)}
}

type cond struct{ c *sync.Cond }

func (c *cond) Wait(rt.Ctx) { c.c.Wait() }
func (c *cond) Signal()     { c.c.Signal() }
func (c *cond) Broadcast()  { c.c.Broadcast() }

// Network is the in-process message path: `endpoints` receive endpoints
// (consumers first, then any in-transit stagers), each one buffered channel
// whose capacity is the receive window. Senders block while the destination
// window is full, providing the backpressure the runtime's stealing and
// routing logic react to. Channel sends are safe from any thread, so every
// sender shares the one Network.
type Network struct {
	inboxes []chan rt.Message
}

// NewNetwork creates `endpoints` receive endpoints with the given
// receive-window depth (messages).
func NewNetwork(endpoints, window int) *Network {
	if window < 1 {
		window = 1
	}
	n := &Network{}
	for i := 0; i < endpoints; i++ {
		n.inboxes = append(n.inboxes, make(chan rt.Message, window))
	}
	return n
}

// Send delivers m to endpoint `to`, blocking while its window is full.
func (n *Network) Send(c rt.Ctx, to int, m rt.Message) { n.inboxes[to] <- m }

// Credits reports how many more messages endpoint `to` can accept right now
// — the hybrid routing policy's direct-path backpressure signal.
func (n *Network) Credits(to int) int {
	return cap(n.inboxes[to]) - len(n.inboxes[to])
}

// Inbox returns endpoint i's receive side.
func (n *Network) Inbox(i int) rt.Inbox { return inbox(n.inboxes[i]) }

type inbox chan rt.Message

func (b inbox) Recv(c rt.Ctx) (rt.Message, bool) {
	m, ok := <-b
	return m, ok
}

// FileStore spills and preserves blocks as files in a directory, standing in
// for the parallel file system. File layout: 29-byte header (offset, payload
// length, CRC-32C of the payload, raw block size, reduction encoding)
// followed by the payload; the checksum catches torn or corrupted spill
// files before they reach the analysis, and the raw-size/encoding pair lets
// a reduced payload spill and reload without losing its stamp (the payload
// on disk is the encoded bytes — spilling never re-inflates).
type FileStore struct {
	dir string
}

// NewFileStore creates (if needed) and uses dir as the spool directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("realenv: creating spool dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the spool directory.
func (s *FileStore) Dir() string { return s.dir }

// Partition returns a store rooted in a subdirectory of this one — each
// in-transit stager spills into its own partition so its private overflow
// never collides with producer spills or preserved blocks.
func (s *FileStore) Partition(name string) (*FileStore, error) {
	return NewFileStore(filepath.Join(s.dir, name))
}

func (s *FileStore) path(id block.ID) string {
	return filepath.Join(s.dir, id.String())
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// storeHeaderLen is the spill-file header size (see FileStore doc).
const storeHeaderLen = 29

// WriteBlock persists b and marks it OnDisk.
func (s *FileStore) WriteBlock(c rt.Ctx, b *block.Block) error {
	buf := make([]byte, storeHeaderLen+len(b.Data))
	binary.LittleEndian.PutUint64(buf, uint64(b.Offset))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(b.Data)))
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(b.Data, crcTable))
	binary.LittleEndian.PutUint64(buf[20:], uint64(b.Bytes))
	buf[28] = b.Enc
	copy(buf[storeHeaderLen:], b.Data)
	if err := os.WriteFile(s.path(b.ID), buf, 0o644); err != nil {
		return fmt.Errorf("realenv: spilling %v: %w", b.ID, err)
	}
	b.OnDisk = true
	return nil
}

// ReadBlock loads a spilled block, verifying its length and checksum.
func (s *FileStore) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	buf, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("realenv: reading %v: %w", id, err)
	}
	if len(buf) < storeHeaderLen {
		return nil, fmt.Errorf("realenv: block file %v truncated (%d bytes)", id, len(buf))
	}
	offset := int64(binary.LittleEndian.Uint64(buf))
	n := int64(binary.LittleEndian.Uint64(buf[8:]))
	sum := binary.LittleEndian.Uint32(buf[16:])
	rawBytes := int64(binary.LittleEndian.Uint64(buf[20:]))
	enc := buf[28]
	if int64(len(buf)-storeHeaderLen) != n {
		return nil, fmt.Errorf("realenv: block file %v corrupt: header says %d bytes, file has %d", id, n, len(buf)-storeHeaderLen)
	}
	if got := crc32.Checksum(buf[storeHeaderLen:], crcTable); got != sum {
		return nil, fmt.Errorf("realenv: block file %v checksum mismatch: %#x != %#x", id, got, sum)
	}
	b := block.New(id, offset, buf[storeHeaderLen:])
	b.OnDisk = true
	if enc != 0 {
		// The file holds a reduced payload: restore the stamp and the raw
		// size so the decoder downstream knows what to rebuild.
		b.Enc = enc
		b.EncBytes = n
		b.Bytes = rawBytes
	}
	return b, nil
}

// RemoveBlock deletes a spilled block file.
func (s *FileStore) RemoveBlock(c rt.Ctx, id block.ID) error {
	if err := os.Remove(s.path(id)); err != nil {
		return fmt.Errorf("realenv: removing %v: %w", id, err)
	}
	return nil
}

var (
	_ rt.Env             = (*Env)(nil)
	_ rt.CreditTransport = (*Network)(nil)
	_ rt.BlockStore      = (*FileStore)(nil)
)
