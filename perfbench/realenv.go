package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"zipper"
	"zipper/internal/analysis"
	"zipper/internal/floatbuf"
	"zipper/internal/model"
	"zipper/internal/trace"
)

// shape is one realenv workload: an off-CPU step schedule that writes
// perStep blocks every stepEvery, one producer and one consumer, and the
// job's shape and deployment fields.
type shape struct {
	blocks     int
	perStep    int
	blockBytes int
	stepEvery  time.Duration
	// moments is the NthMoment order of the analysis; 0 means the analysis
	// only checks the block.
	moments int
	levels  uint64 // field quantization (see field)
	config  zipper.Config
}

func (s shape) steps() int { return s.blocks / s.perStep }

// deadline bounds one repetition or empty job: ten times the step schedule
// plus ten seconds. A repetition that overruns it has hung.
func (s shape) deadline() time.Duration {
	return 10*time.Duration(s.steps())*s.stepEvery + 10*time.Second
}

// index maps a delivered block back to its position in the write order.
func (s shape) index(step int, offset int64) int {
	return step*s.perStep + int(offset)/s.blockBytes
}

// checkedMoments is how many low-order moments the correctness check
// compares against the serial reference; the analysis may compute more.
const checkedMoments = 4

// momentTol is the relative tolerance of that comparison. The streamed
// and serial sums differ only in summation order.
const momentTol = 1e-9

// rep is the outcome of one run of a realenv workload.
type rep struct {
	setup, t2s, cpu  float64 // seconds
	stallFrac        float64 // producer wall share spent inside Write
	peakHeapMB       float64
	lagMax           float64   // ms the producer ran behind its schedule
	lat              []float64 // per-block scheduled-write-to-Read, ms
	written, failed  int
	failDetail       string
	stats            zipper.JobStats
	prodWall         float64 // seconds from the first Write until Close returned
	writeBusy        float64 // seconds inside Write
	writeUS          []float64
	readWait         float64 // seconds inside Read
	analyzeBusy      float64 // seconds inside the analysis
	allocB           uint64
	gcCycles         uint32
	gcPauseMS        float64
	spanLanes        []*lane
	recorder         *trace.Recorder
	newJobStartShift time.Duration
}

// reference computes the serial NthMoment reference of the input.
func (s shape) reference(f field) []float64 {
	m := analysis.NewNthMoment(checkedMoments)
	buf := make([]byte, s.blockBytes)
	for i := 0; i < s.blocks; i++ {
		f.fill(buf, i)
		m.Analyze(floatbuf.Decode(buf))
	}
	return momentsOf(m, checkedMoments)
}

func momentsOf(m *analysis.NthMoment, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = m.Moment(i + 1)
	}
	return out
}

// newJob creates a fresh spool directory and starts a job on it, timing
// both: the benchmark's set-up cost.
func (s shape) newJob(dir string, rec *trace.Recorder) (*zipper.Job, string, float64, error) {
	t0 := time.Now()
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, "", 0, err
	}
	cfg := s.config
	cfg.SpoolDir = spool
	cfg.Recorder = rec
	job, err := zipper.NewJob(cfg)
	setup := time.Since(t0).Seconds()
	if err != nil {
		os.RemoveAll(spool)
		return nil, "", 0, fmt.Errorf("NewJob: %w", err)
	}
	return job, spool, setup, nil
}

// setupOnly measures one job set-up, then shuts the empty job down.
func (s shape) setupOnly(dir string) (float64, error) {
	job, spool, setup, err := s.newJob(dir, nil)
	if err != nil {
		return 0, err
	}
	for i := 0; i < s.config.Producers; i++ {
		job.Producer(i).Close()
	}
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := job.Consumer(0).Read(); !ok {
				break
			}
		}
		close(done)
	}()
	job.Wait()
	<-done
	return setup, os.RemoveAll(spool)
}

// run executes the workload once. With traced set, the runtime records its
// thread spans and the benchmark records its own around every call.
func (s shape) run(dir string, f field, ref []float64, traced bool) (*rep, error) {
	runtime.GC()
	r := &rep{written: s.blocks}
	var prodLane, consLane, mainLane *lane
	epoch := time.Now()
	if traced {
		r.recorder = trace.NewRecorder()
		mainLane = &lane{name: "bench.main", epoch: epoch}
		prodLane = &lane{name: "bench.producer", epoch: epoch}
		consLane = &lane{name: "bench.consumer", epoch: epoch}
		r.spanLanes = []*lane{mainLane, prodLane, consLane}
		r.writeUS = make([]float64, 0, s.blocks)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	cpu0 := cpuSeconds()

	repSpan := mainLane.begin("bench.rep", -1, -1)
	sp := mainLane.begin("zipper.NewJob", -1, repSpan)
	if traced {
		r.newJobStartShift = mainLane.spans[sp].start
	}
	job, spool, setup, err := s.newJob(dir, r.recorder)
	mainLane.end(sp)
	if err != nil {
		heap.finish()
		return nil, err
	}
	defer os.RemoveAll(spool)
	r.setup = setup

	led := newLedger(s.blocks)
	lat := make([]float64, s.blocks)
	var moments []float64
	var start time.Time
	started := make(chan struct{})
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		c := job.Consumer(0)
		var m *analysis.NthMoment
		if s.moments > 0 {
			m = analysis.NewNthMoment(s.moments)
		}
		<-started
		root := consLane.begin("bench.consume", -1, -1)
		for {
			t0 := time.Now()
			sp := consLane.begin("zipper.Read", -1, root)
			blk, ok := c.Read()
			t1 := time.Now()
			consLane.end(sp)
			r.readWait += t1.Sub(t0).Seconds()
			if !ok {
				break
			}
			i := s.index(blk.ID.Step, blk.Offset)
			if consLane != nil {
				consLane.spans[sp].block = i
			}
			lat[min(max(i, 0), s.blocks-1)] = t1.Sub(start.Add(time.Duration(blk.ID.Step)*s.stepEvery)).Seconds() * 1e3
			sp = consLane.begin("analysis.Analyze", i, root)
			led.analysed(i, checksum(blk.Data))
			if m != nil {
				m.Analyze(floatbuf.Decode(blk.Data))
			}
			consLane.end(sp)
			r.analyzeBusy += time.Since(t1).Seconds()
			sp = consLane.begin("zipper.Release", i, root)
			blk.Release()
			consLane.end(sp)
		}
		consLane.end(root)
		if m != nil {
			moments = momentsOf(m, checkedMoments)
		}
	}()

	p := job.Producer(0)
	start = time.Now()
	close(started)
	root := prodLane.begin("bench.produce", -1, -1)
	for step := 0; step < s.steps(); step++ {
		due := start.Add(time.Duration(step) * s.stepEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due).Seconds() * 1e3; lag > r.lagMax {
			r.lagMax = lag
		}
		for b := 0; b < s.perStep; b++ {
			i := step*s.perStep + b
			sp := prodLane.begin("bench.generate", i, root)
			data := zipper.NewPayload(s.blockBytes)
			led.expect(i, f.fill(data, i))
			prodLane.end(sp)
			sp = prodLane.begin("zipper.Write", i, root)
			t0 := time.Now()
			p.Write(step, int64(b*s.blockBytes), data)
			d := time.Since(t0)
			prodLane.end(sp)
			r.writeBusy += d.Seconds()
			if traced {
				r.writeUS = append(r.writeUS, float64(d)/1e3)
			}
		}
	}
	sp = prodLane.begin("zipper.Close", -1, root)
	p.Close()
	prodLane.end(sp)
	prodLane.end(root)
	r.prodWall = time.Since(start).Seconds()

	sp = mainLane.begin("zipper.Wait", -1, repSpan)
	job.Wait()
	mainLane.end(sp)
	<-consumed
	r.t2s = time.Since(start).Seconds()
	mainLane.end(repSpan)

	r.cpu = cpuSeconds() - cpu0
	r.peakHeapMB = heap.finish()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.stallFrac = r.writeBusy / r.prodWall
	r.lat = lat
	r.stats = job.Stats()

	r.failed, r.failDetail = led.verdict()
	if err := job.Consumer(0).Err(); err != nil {
		r.failed, r.failDetail = s.blocks, "consumer error: "+err.Error()
	}
	if lost := r.stats.BlocksLost; lost > 0 {
		r.failed += int(lost)
		r.failDetail += fmt.Sprintf(" lost=%d", lost)
	}
	if s.moments > 0 && r.failed == 0 && !momentsAgree(moments, ref, momentTol) {
		r.failed, r.failDetail = s.blocks, fmt.Sprintf("moments %v differ from serial reference %v", moments, ref)
	}
	return r, nil
}

// serial is the non-integrated reference (Fig. 11, upper half): one thread
// spends each step's compute time, then generates and analyses the step's
// blocks, so no stage overlaps another.
func (s shape) serial(f field) float64 {
	var m *analysis.NthMoment
	if s.moments > 0 {
		m = analysis.NewNthMoment(s.moments)
	}
	buf := make([]byte, s.blockBytes)
	var sink uint64
	start := time.Now()
	for step := 0; step < s.steps(); step++ {
		time.Sleep(s.stepEvery)
		for b := 0; b < s.perStep; b++ {
			f.fill(buf, step*s.perStep+b)
			sink ^= checksum(buf)
			if m != nil {
				m.Analyze(floatbuf.Decode(buf))
			}
		}
	}
	_ = sink
	return time.Since(start).Seconds()
}

// spoolRoot makes the directory a run places its spool directories in.
// Each run gets a fresh one: a directory that earlier runs filled and
// emptied keeps its grown size, which would slow every later set-up.
func spoolRoot(dir string) (string, error) {
	return os.MkdirTemp(dir, "spools-")
}

// paperModel is the §4.4 model of one producer and one consumer from the
// measured total seconds of each stage.
func paperModel(blocks int64, comp, transfer, analysis float64) model.Model {
	per := func(total float64) time.Duration { return time.Duration(total / float64(blocks) * 1e9) }
	return model.Model{P: 1, Q: 1, NB: blocks, Tc: per(comp), Tm: per(transfer), Ta: per(analysis)}
}
