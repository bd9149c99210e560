// Command perfbench is the repository's benchmark. It drives the public
// zipper API (NewJob, Producer.Write/Close, Consumer.Read, Block.Release,
// Job.Wait/Stats) and the workflow package's simulated runs, times those
// calls from outside the runtime, checks every delivered block against a
// seed-derived ledger, and prints one report per run.
//
//	perfbench --workload insitu-steal --seed 1 --seconds 20 --trace 0 --dir .bench_build/run
//
// With --trace 0 it repeats the workload for --seconds and reports the
// end-to-end metrics as medians over the repetitions. With --trace 1 it
// alternates untraced and traced repetitions (runtime Recorder plus the
// benchmark's own spans around every call), runs the serial reference, and
// reports the per-layer metrics. The last line of standard output is the
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"zipper"
	"zipper/internal/model"
	"zipper/internal/workflow"
)

// workloads are the realenv shapes; sim-paper is handled separately. Each
// repetition lasts one to a few seconds: a timed run reports medians over many
// short repetitions, which a brief stall of the host moves less than it
// moves a few long ones.
var workloads = map[string]shape{
	// The paper's two-channel coupling under an analysis slower than the
	// simulation: 512 × 64 KiB blocks written 16 per 10 ms step (0.32 s of
	// simulation) into an order-288 NthMoment analysis (~2 s). The producer
	// buffer fills and the writer thread steals most blocks through the
	// spool directory. The analysis dominates the process's CPU time, so
	// t2s_s follows the analysis rather than how much CPU the host leaves
	// to the runtime's threads: with the analysis at order 96, one busy
	// process beside the benchmark stretched t2s_s by a third.
	"insitu-steal": {
		blocks: 512, perStep: 16, blockBytes: 64 << 10, stepEvery: 10 * time.Millisecond,
		moments: 288,
		config:  zipper.Config{Producers: 1, Consumers: 1},
	},
	// Every block relayed through one stager with compression and the fault
	// plane at library defaults: 4000 × 16 KiB blocks at 4k blocks/s into
	// an order-4 NthMoment analysis. The field takes 16 exactly
	// representable levels (4 bits of entropy per 64-bit word), which
	// DEFLATE shrinks to about a seventh. The producer buffer holds a whole
	// step, so the spool sees the stagers' journal rather than stealing.
	"staged-durable": {
		blocks: 4000, perStep: 16, blockBytes: 16 << 10, stepEvery: 4 * time.Millisecond,
		moments: 4, levels: 16,
		config: zipper.Config{
			Producers: 1, Consumers: 1, BufferBlocks: 64, MaxBatchBlocks: 4,
			Staging: zipper.StagingConfig{
				Stagers:     1,
				RoutePolicy: zipper.RouteStaging,
				Reduce:      zipper.ReduceConfig{Operator: zipper.ReduceCompress},
			},
			Fault: zipper.FaultConfig{Enabled: true},
		},
	},
}

const simPaper = "sim-paper"

// traceReps is how many untraced and how many traced repetitions a
// traced realenv run alternates.
const traceReps = 3

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	failDetail        string
	metrics           []metric
	// extras are printed with the metrics but left out of the JSON line. In
	// a timed run they are figures whose run-to-run spread on a small shared
	// host is wider than any bound the benchmark may set; in a traced run,
	// figures that only one environment measures, because the JSON line
	// carries only what every workload measures.
	extras []metric
	notes  []string // extra report lines
}

func (r *result) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) extra(name string, value float64, unit string) {
	r.extras = append(r.extras, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "insitu-steal, staged-durable or sim-paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "how long a timed run repeats the workload")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build/run", "work directory for spools and trace files")
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	switch s, ok := workloads[*workload]; {
	case ok && *traced == 1:
		res, err = traceRealenv(*workload, s, *seed, *dir)
	case ok:
		res, err = timeRealenv(s, *seed, budget, *dir)
	case *workload == simPaper && *traced == 1:
		res, err = traceSim(*seed)
	case *workload == simPaper:
		res, err = timeSim(*seed, budget)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fail(err)
	}
	report(*workload, *seed, *dir, res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func inputField(s shape, seed int64) field {
	return field{seed: splitmix64(uint64(seed)), levels: s.levels}
}

// series collects per-repetition figures of a realenv workload.
type series struct {
	t2s, cpu, stall, heap, p50, p99 []float64
	attempted, failed               int
	failDetail                      string
}

func (a *series) add(r *rep) {
	a.t2s = append(a.t2s, r.t2s)
	a.cpu = append(a.cpu, r.cpu)
	a.stall = append(a.stall, r.stallFrac)
	a.heap = append(a.heap, r.peakHeapMB)
	a.p50 = append(a.p50, quantile(r.lat, 0.50))
	a.p99 = append(a.p99, quantile(r.lat, 0.99))
	a.attempted += r.written
	a.failed += r.failed
	if r.failDetail != "" {
		a.failDetail = r.failDetail
	}
}

// timeout records a repetition that overran its deadline: every block it
// was to write counts as failed.
func (a *series) timeout(s shape, what string) {
	a.attempted += s.blocks
	a.failed += s.blocks
	a.failDetail = fmt.Sprintf("%s exceeded its %v deadline", what, s.deadline())
}

// bounded runs fn and waits at most d for it. When d expires first it
// reports timedOut and leaves fn's goroutine behind; the caller stops
// repeating and reports, and the process exit ends that goroutine.
func bounded[T any](d time.Duration, fn func() (T, error)) (v T, timedOut bool, err error) {
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := fn()
		done <- outcome{v, err}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case o := <-done:
		return o.v, false, o.err
	case <-t.C:
		return v, true, nil
	}
}

// setupsPerRep is how many empty jobs a timed run sets up before each
// repetition; setup_s is their median. Spreading the samples over the run
// keeps one slow moment of the file system from setting the figure.
const setupsPerRep = 4

// timeRealenv repeats a realenv workload for the budget and reports the
// end-to-end metrics as medians over the repetitions.
func timeRealenv(s shape, seed int64, budget time.Duration, dir string) (*result, error) {
	root, err := spoolRoot(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	f := inputField(s, seed)
	var ref []float64
	if s.moments > 0 {
		ref = s.reference(f)
	}
	var setups []float64
	var a series
	res := &result{}
	// Start another repetition only while at least half of one still fits
	// in the budget, so a run overshoots it by half a repetition at most.
reps:
	for t0, last := time.Now(), time.Duration(0); len(a.t2s) == 0 || time.Since(t0)+last/2 < budget; {
		r0 := time.Now()
		// Flush the previous repetition's spool writes and removals first:
		// a set-up is a handful of directory creations, and those otherwise
		// queue behind that writeback for a varying time.
		syscall.Sync()
		for i := 0; i < setupsPerRep; i++ {
			d, timedOut, err := bounded(s.deadline(), func() (float64, error) { return s.setupOnly(root) })
			if err != nil {
				return nil, err
			}
			if timedOut {
				a.timeout(s, "an empty job")
				break reps
			}
			setups = append(setups, d)
		}
		r, timedOut, err := bounded(s.deadline(), func() (*rep, error) { return s.run(root, f, ref, false) })
		if err != nil {
			return nil, err
		}
		if timedOut {
			a.timeout(s, fmt.Sprintf("repetition %d", len(a.t2s)+1))
			break
		}
		last = time.Since(r0)
		a.add(r)
		res.note("rep %d: t2s=%.3fs cpu=%.3fs p50=%.3fms p99=%.3fms stall=%.4f heap=%.1fMB lag_max=%.2fms stolen=%d relayed=%d evictions=%d",
			len(a.t2s), r.t2s, r.cpu, a.p50[len(a.p50)-1], a.p99[len(a.p99)-1],
			r.stallFrac, r.peakHeapMB, r.lagMax, r.stats.BlocksStolen, r.stats.BlocksRelayed, r.stats.Evictions)
	}
	res.attempted, res.failed, res.failDetail = a.attempted, a.failed, a.failDetail
	if len(a.t2s) == 0 {
		return res, nil
	}
	res.add("t2s_s", median(a.t2s), "s")
	res.add("cpu_s", median(a.cpu), "s")
	res.add("peak_heap_MB", median(a.heap), "MB")
	res.add("setup_s", median(setups), "s")
	res.extra("latency_p50_ms", median(a.p50), "ms")
	res.extra("latency_p99_ms", median(a.p99), "ms")
	res.extra("sim_stall_frac", median(a.stall), "ratio")
	res.note("samples: %d reps of %d block latencies, %d set-ups", len(a.t2s), s.blocks, len(setups))
	return res, nil
}

// simDeadline bounds one sim-paper operation, which takes well under a
// second; one that overruns it has hung.
const simDeadline = 60 * time.Second

// specBuilds is how many spec builds one sim-paper set-up sample times:
// a build takes well under a microsecond, so a sample reports the mean of
// a batch.
const specBuilds = 256

// timeSpecBuilds times a batch of spec builds and returns the last spec
// with the mean seconds per build.
func timeSpecBuilds(seed int64) (workflow.Spec, float64) {
	var spec workflow.Spec
	t0 := time.Now()
	for j := 0; j < specBuilds; j++ {
		spec = paperSpec(seed)
	}
	return spec, time.Since(t0).Seconds() / specBuilds
}

// boundedSimOp runs one sim-paper operation under simDeadline.
func boundedSimOp(spec workflow.Spec) (simOp, bool) {
	op, timedOut, _ := bounded(simDeadline, func() (simOp, error) { return runSimOp(spec), nil })
	return op, timedOut
}

// timeSim repeats the sim-paper operation for the budget. A set-up sample
// precedes each operation, so set-up and operations see the same host.
func timeSim(seed int64, budget time.Duration) (*result, error) {
	spec, _ := timeSpecBuilds(seed)
	ref, timedOut := boundedSimOp(spec)
	if timedOut {
		return &result{attempted: 1, failed: 1, failDetail: fmt.Sprintf("reference run exceeded its %v deadline", simDeadline)}, nil
	}
	if err := ref.check(spec, ref); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	res := &result{}
	var wall, cpu, stall, setups []float64
	for t0 := time.Now(); len(wall) == 0 || time.Since(t0)+time.Duration(median(wall)*5e8) < budget; {
		spec, d := timeSpecBuilds(seed)
		setups = append(setups, d)
		op, timedOut := boundedSimOp(spec)
		res.attempted++
		if timedOut {
			res.failed++
			res.failDetail = fmt.Sprintf("operation %d exceeded its %v deadline", res.attempted, simDeadline)
			break
		}
		wall = append(wall, op.wall())
		cpu = append(cpu, op.cpu)
		stall = append(stall, op.stallFrac())
		if err := op.check(spec, ref); err != nil {
			res.failed++
			res.failDetail = err.Error()
		}
	}
	if len(wall) == 0 {
		return res, nil
	}
	res.add("t2s_s", median(wall), "s")
	res.add("cpu_s", median(cpu), "s")
	res.add("peak_heap_MB", peakHeapOf(func() { runSimOp(spec) }), "MB")
	res.add("setup_s", median(setups), "s")
	res.extra("sim_stall_frac", median(stall), "ratio")
	res.note("samples: %d simulated runs, %d set-ups of %d builds; virtual t2s %.6fs, baseline %.6fs",
		len(wall), len(setups), specBuilds, ref.zipper.E2E.Seconds(), ref.baseline.E2E.Seconds())
	return res, nil
}

func peakHeapOf(fn func()) float64 {
	runtime.GC()
	h := startHeapSampler()
	fn()
	return h.finish()
}

// recorderBusy sums the runtime Recorder's span time per layer name.
func recorderBusy(lanes []*lane) map[string]float64 {
	out := map[string]float64{}
	for _, l := range lanes {
		for _, s := range l.spans {
			out[s.layer] += (s.end - s.start).Seconds()
		}
	}
	return out
}

func sumPrefix(m map[string]float64, prefix string) float64 {
	var t float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addLayerCounts reports the counters both environments share.
func addLayerCounts(res *result, written, sent, relayed, stolen, messages, maxQueued, evictions, replayed int64, reduceRatio float64) {
	res.add("core.steal_share", ratio(float64(stolen), float64(written)), "ratio")
	res.add("core.blocks_per_msg", ratio(float64(sent+relayed), float64(messages)), "count")
	res.add("staging.relay_share", ratio(float64(relayed), float64(written)), "ratio")
	res.add("staging.max_queued", float64(maxQueued), "count")
	res.add("reduce.ratio", reduceRatio, "ratio")
	res.add("fault.evictions", float64(evictions), "count")
	res.add("fault.replayed_blocks", float64(replayed), "count")
}

// addRecorderBusy reports the runtime threads' busy times.
func addRecorderBusy(res *result, busy map[string]float64) {
	res.add("core.sender_busy_s", sumPrefix(busy, "core.prod.sender."), "s")
	res.add("core.recv_busy_s", sumPrefix(busy, "core.cons.receiver."), "s")
	res.add("core.writer_busy_s", sumPrefix(busy, "core.prod.writer."), "s")
	res.add("core.reader_busy_s", sumPrefix(busy, "core.cons.reader."), "s")
	res.add("staging.recv_busy_s", sumPrefix(busy, "staging.receiver."), "s")
	res.add("staging.forward_busy_s", sumPrefix(busy, "staging.forwarder."), "s")
	res.add("staging.spill_busy_s", sumPrefix(busy, "staging.spiller."), "s")
}

// traceRealenv alternates untraced and traced repetitions of a realenv
// workload, runs the serial reference, and reports the per-layer metrics.
func traceRealenv(name string, s shape, seed int64, dir string) (*result, error) {
	root, err := spoolRoot(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	f := inputField(s, seed)
	var ref []float64
	if s.moments > 0 {
		ref = s.reference(f)
	}
	// Alternating lets both kinds see the same host; the layer figures come
	// from the last traced repetition.
	var u, tr series
	var t *rep
	for i := 0; i < 2*traceReps; i++ {
		traced, into := i%2 == 1, &u
		if traced {
			into = &tr
		}
		r, timedOut, err := bounded(s.deadline(), func() (*rep, error) { return s.run(root, f, ref, traced) })
		if err != nil {
			return nil, err
		}
		if timedOut {
			into.timeout(s, fmt.Sprintf("repetition %d", i+1))
			return &result{attempted: u.attempted + tr.attempted, failed: u.failed + tr.failed,
				failDetail: into.failDetail}, nil
		}
		into.add(r)
		t = r
	}
	serial := s.serial(f)

	res := &result{attempted: u.attempted + tr.attempted, failed: u.failed + tr.failed, failDetail: u.failDetail + tr.failDetail}
	st := t.stats
	rt := runtimeLanes(t.recorder, t.newJobStartShift)
	busy := recorderBusy(rt)
	var fwdMsgs, maxQueued, journaled, stagerWire, stagerReduced int64
	for _, g := range st.Stagers {
		fwdMsgs += g.MessagesOut
		maxQueued = max(maxQueued, g.MaxQueued)
		journaled += g.BlocksIn
		stagerWire += g.BytesOnWire
		stagerReduced += g.BytesReduced
	}
	// The relay traffic's wire bytes over its raw bytes; with nothing
	// relayed nothing was reduced either.
	reduceRatio := 1.0
	if stagerWire+stagerReduced > 0 {
		reduceRatio = float64(stagerWire) / float64(stagerWire+stagerReduced)
	}
	if !s.config.Fault.Enabled {
		journaled = 0
	}
	n := float64(s.blocks)

	addLayerCounts(res, st.BlocksWritten, st.BlocksSent, st.BlocksRelayed, st.BlocksStolen, st.Messages,
		maxQueued, st.Evictions, st.ReplayedBlocks, reduceRatio)
	addRecorderBusy(res, busy)
	res.add("block.alloc_B_per_block", float64(t.allocB)/n, "B")
	res.add("go.gc_cycles", float64(t.gcCycles), "count")
	res.add("go.gc_pause_ms", t.gcPauseMS, "ms")
	res.add("analysis.busy_s", t.analyzeBusy, "s")

	// The §4.4 model from the traced run's measured per-block stage times:
	// compute is the producer's wall outside Write, transfer the busiest
	// runtime transfer thread, analysis the timed Analyze calls.
	transfer := max(sumPrefix(busy, "core.prod.sender."),
		sumPrefix(busy, "core.prod.writer."), sumPrefix(busy, "staging.forwarder."))
	m := paperModel(int64(s.blocks), t.prodWall-t.writeBusy, transfer, t.analyzeBusy)
	res.add("model.t2s_pred_s", m.TT2S().Seconds(), "s")
	res.add("model.efficiency", ratio(m.TT2S().Seconds(), median(u.t2s)), "ratio")
	res.add("model.serial_t2s_s", serial, "s")
	res.add("trace.overhead_frac", median(tr.t2s)/median(u.t2s)-1, "ratio")
	res.add("trace.cpu_overhead_frac", median(tr.cpu)/median(u.cpu)-1, "ratio")
	res.add("sim_stall_frac", median(u.stall), "ratio")
	res.extra("core.write_p99_us", quantile(t.writeUS, 0.99), "us")
	res.extra("core.read_wait_s", t.readWait, "s")
	res.extra("realenv.messages", float64(st.Messages+fwdMsgs), "count")
	res.extra("realenv.spool_files", float64(st.BlocksStolen+st.BlocksSpilled+journaled), "count")
	res.extra("gen.lag_max_ms", t.lagMax, "ms")
	res.extra("latency_p50_ms", median(u.p50), "ms")
	res.extra("latency_p99_ms", median(u.p99), "ms")

	res.note("model: bottleneck=%s t_c=%.1fus t_m=%.1fus t_a=%.1fus pred=%.3fs measured=%.3fs serial=%.3fs",
		m.Bottleneck(), us(m.Tc), us(m.Tm), us(m.Ta), m.TT2S().Seconds(), median(u.t2s), serial)
	res.note("medians of %d reps: untraced t2s=%.3fs cpu=%.3fs; traced t2s=%.3fs cpu=%.3fs",
		traceReps, median(u.t2s), median(u.cpu), median(tr.t2s), median(tr.cpu))
	lanes := append(append([]*lane(nil), t.spanLanes...), rt...)
	res.note("self time by layer (traced run):")
	for _, row := range selfTimes(lanes) {
		res.note("  %-34s n=%-8d total=%9.4fs self=%9.4fs", row.layer, row.count, row.total.Seconds(), row.self.Seconds())
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := writeChromeTrace(path, lanes); err != nil {
		return nil, err
	}
	res.note("trace: %d spans written to %s", countSpans(lanes), path)
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func countSpans(lanes []*lane) int {
	n := 0
	for _, l := range lanes {
		n += len(l.spans)
	}
	return n
}

// traceSim runs the sim-paper operation untraced and traced, and reports the
// per-layer metrics. Span-derived times and the model are in the
// simulator's virtual seconds.
func traceSim(seed int64) (*result, error) {
	spec := paperSpec(seed)
	u, timedOut := boundedSimOp(spec)
	if timedOut {
		return &result{attempted: 1, failed: 1, failDetail: fmt.Sprintf("untraced run exceeded its %v deadline", simDeadline)}, nil
	}
	if err := u.check(spec, u); err != nil {
		return nil, err
	}
	spec.Trace = true
	t, timedOut := boundedSimOp(spec)
	res := &result{attempted: 2}
	if timedOut {
		res.failed, res.failDetail = 1, fmt.Sprintf("traced run exceeded its %v deadline", simDeadline)
		return res, nil
	}
	if err := t.check(spec, u); err != nil {
		res.failed, res.failDetail = 1, err.Error()
	}
	z := t.zipper
	busy := recorderBusy(runtimeLanes(z.Rec, 0))
	written := paperBlocks(spec)
	addLayerCounts(res, written, z.BlocksSent, z.BlocksRelayed, z.BlocksStolen, z.Messages,
		z.StagerMaxQueued, z.Evictions, z.ReplayedBlocks, ratio(float64(z.BytesOnWire), float64(z.BytesOnWire+z.BytesReduced)))
	addRecorderBusy(res, busy)
	// The simulator's own allocations and collections over the untraced
	// operation, per block of the workflow.
	res.add("block.alloc_B_per_block", float64(u.allocB)/float64(written), "B")
	res.add("go.gc_cycles", float64(u.gcCycles), "count")
	res.add("go.gc_pause_ms", u.gcPauseMS, "ms")
	res.add("analysis.busy_s", z.Stages.Analysis.Seconds(), "s")
	// The simulator reports each stage's busiest rank, so the model takes
	// them as whole-stage times.
	st := z.Stages
	m := model.Model{P: 1, Q: 1, NB: 1, Tc: st.Simulation, Tm: st.Transfer, Ta: st.Analysis}
	res.add("model.t2s_pred_s", m.TT2S().Seconds(), "s")
	res.add("model.efficiency", ratio(m.TT2S().Seconds(), z.E2E.Seconds()), "ratio")
	res.add("model.serial_t2s_s", m.NonIntegrated().Seconds(), "s")
	res.add("trace.overhead_frac", t.wall()/u.wall()-1, "ratio")
	res.add("trace.cpu_overhead_frac", t.cpu/u.cpu-1, "ratio")
	res.add("sim_stall_frac", u.stallFrac(), "ratio")
	res.extra("workflow.zipper_wall_s", u.zipperWall, "s")
	res.extra("workflow.baseline_wall_s", u.baselineWall, "s")
	res.extra("sim.virtual_t2s_s", u.zipper.E2E.Seconds(), "virtual_s")
	res.extra("sim.messages", float64(u.zipper.Messages), "count")
	res.extra("sim.blocks_stolen", float64(u.zipper.BlocksStolen), "count")
	res.note("model (virtual): bottleneck=%s sim=%.3fs transfer=%.3fs analysis=%.3fs e2e=%.3fs baseline e2e=%.3fs",
		m.Bottleneck(), st.Simulation.Seconds(), st.Transfer.Seconds(), st.Analysis.Seconds(), z.E2E.Seconds(), t.baseline.E2E.Seconds())
	return res, nil
}

// hostFacts describes the machine a result was measured on.
func hostFacts(dir string) string {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		kernel = cstr(u.Release[:])
	}
	fs := "unknown"
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		fs = fsName(st.Type)
	}
	return fmt.Sprintf("host: NumCPU=%d GOMAXPROCS=%d go=%s kernel=%s spool_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, fs)
}

// cstr converts a NUL-terminated utsname field, whose element type
// differs between architectures.
func cstr[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func fsName(magic int64) string {
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}

// report prints the human-readable lines, then the JSON result line.
func report(workload string, seed int64, dir string, res *result) {
	fmt.Printf("perfbench workload=%s seed=%d\n%s\n", workload, seed, hostFacts(dir))
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.extras {
		fmt.Printf("%-28s %14.6g %s (report only)\n", m.name, m.value, m.unit)
	}
	fmt.Printf("%-28s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if res.failDetail != "" {
		fmt.Println("failure:", res.failDetail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}
