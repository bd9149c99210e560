// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (one bench per experiment), plus ablation benches for the
// design choices DESIGN.md calls out. Run specific figures with e.g.
//
//	go test -bench BenchmarkFig16 -benchmem
//
// Paper-scale runs are available through cmd/zipperbench with -full/-scale 1.
package zipper_test

import (
	"testing"
	"time"

	"zipper"
	"zipper/internal/apps/synthetic"
	"zipper/internal/benchharness"
	"zipper/internal/core"
	"zipper/internal/exp"
	"zipper/internal/model"
	"zipper/internal/transport"
	"zipper/internal/workflow"
)

// --- Tables (configuration rendering) ---

func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if exp.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Table2()
	}
}

func BenchmarkTable3Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Table3()
	}
}

// --- Figure 2: the seven transports + Zipper on the CFD workflow ---

func benchFig2Method(b *testing.B, mk func() transport.Method) {
	spec := exp.Scale(exp.CFDBridges(6), 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := workflow.RunBaseline(spec, mk())
		if !res.OK {
			b.Fatal(res.Fail)
		}
	}
}

func BenchmarkFig2_MPIIO(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewMPIIO() })
}

func BenchmarkFig2_DataSpaces(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewDataSpaces(false) })
}

func BenchmarkFig2_ADIOSDataSpaces(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewDataSpaces(true) })
}

func BenchmarkFig2_DIMES(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewDIMES(false) })
}

func BenchmarkFig2_ADIOSDIMES(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewDIMES(true) })
}

func BenchmarkFig2_Flexpath(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewFlexpath() })
}

func BenchmarkFig2_Decaf(b *testing.B) {
	benchFig2Method(b, func() transport.Method { return transport.NewDecaf() })
}

func BenchmarkFig2_Zipper(b *testing.B) {
	spec := exp.Scale(exp.CFDBridges(6), 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := workflow.RunZipper(spec); !res.OK {
			b.Fatal(res.Fail)
		}
	}
}

// --- Figures 3/11: overlap model ---

func BenchmarkFig11PipelineModel(b *testing.B) {
	m := model.Model{P: 1568, Q: 784, NB: 3_211_264, Tc: time.Millisecond, Tm: 2 * time.Millisecond, Ta: time.Millisecond}
	for i := 0; i < b.N; i++ {
		if m.TT2S() <= 0 {
			b.Fatal("bad model")
		}
	}
}

// --- Figures 4-6: trace captures ---

func BenchmarkFig4TraceDIMES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.RunFig4(); f.Gantt == "" {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig5TraceFlexpath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.RunFig5(); f.Gantt == "" {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig6TraceDecaf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.RunFig6(); f.Gantt == "" {
			b.Fatal("empty trace")
		}
	}
}

// --- Figures 12/13: stage breakdowns ---

func BenchmarkFig12BreakdownNoPreserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.RunBreakdown(core.NoPreserve, 14); len(rows) != 6 {
			b.Fatal("incomplete breakdown")
		}
	}
}

func BenchmarkFig13BreakdownPreserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.RunBreakdown(core.Preserve, 14); len(rows) != 6 {
			b.Fatal("incomplete breakdown")
		}
	}
}

// --- Figures 14/15: concurrent transfer optimization sweep ---

func BenchmarkFig14ConcurrentSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunConcurrentSweep(synthetic.Linear, []int{84}, 6)
		if rows[0].Concurrent.Stolen == 0 {
			b.Fatal("sweep produced no stealing")
		}
	}
}

func BenchmarkFig15XmitWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunConcurrentSweep(synthetic.Linear, []int{84}, 6)
		if rows[0].MP.XmitWait == 0 {
			b.Fatal("no congestion recorded")
		}
	}
}

// --- Figures 16/18: weak scaling ---

func BenchmarkFig16CFDScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunScaling("cfd", []int{204, 408}, 6)
		if !rows[0].Methods["Zipper"].OK {
			b.Fatal("Zipper run failed")
		}
	}
}

func BenchmarkFig18LAMMPSScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunScaling("lammps", []int{204, 408}, 6)
		if !rows[0].Methods["Zipper"].OK {
			b.Fatal("Zipper run failed")
		}
	}
}

// --- Figures 17/19: step-rate trace comparisons ---

func BenchmarkFig17CFDStepComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp := exp.RunStepComparison("cfd", 204, 8, 1300*time.Millisecond)
		if cmp.ZipperSteps <= cmp.DecafSteps {
			b.Fatal("Zipper not ahead")
		}
	}
}

func BenchmarkFig19LAMMPSStepComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp := exp.RunStepComparison("lammps", 204, 6, 9100*time.Millisecond)
		if cmp.ZipperSteps <= cmp.DecafSteps {
			b.Fatal("Zipper not ahead")
		}
	}
}

// --- §6.1 model validation ---

func BenchmarkModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.RunModelValidation(14); len(rows) != 3 {
			b.Fatal("incomplete validation")
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationBlockSize compares fine-grain blocks against
// one-big-block-per-step (what the baseline systems do).
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int64{512 << 10, 2 << 20, 16 << 20} {
		bs := bs
		b.Run(byteSize(bs), func(b *testing.B) {
			spec := exp.Scale(exp.CFDBridges(6), 32)
			spec.Workload.BlockBytes = bs
			for i := 0; i < b.N; i++ {
				res := workflow.RunZipper(spec)
				if !res.OK {
					b.Fatal(res.Fail)
				}
				b.ReportMetric(res.E2E.Seconds(), "virt-s/run")
			}
		})
	}
}

// BenchmarkAblationSteal toggles the concurrent dual-channel optimization
// under a slow consumer.
func BenchmarkAblationSteal(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "concurrent"
		if disable {
			name = "message-passing-only"
		}
		b.Run(name, func(b *testing.B) {
			spec := exp.Synthetic(synthetic.Linear, 1<<20, 28)
			spec.Workload.Steps = 6
			spec.Workload.AnalyzePerByte = time.Nanosecond
			spec.Zipper.DisableSteal = disable
			for i := 0; i < b.N; i++ {
				res := workflow.RunZipper(spec)
				if !res.OK {
					b.Fatal(res.Fail)
				}
				b.ReportMetric(res.ProducerWallClock.Seconds(), "virt-s/wall")
			}
		})
	}
}

// BenchmarkAblationThreshold sweeps the high-water mark.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, hw := range []int{2, 6, 12} {
		hw := hw
		b.Run(byteCount(hw), func(b *testing.B) {
			spec := exp.Synthetic(synthetic.Linear, 1<<20, 28)
			spec.Workload.Steps = 6
			spec.Workload.AnalyzePerByte = time.Nanosecond
			spec.Zipper.BufferBlocks = 16
			spec.Zipper.HighWater = hw
			for i := 0; i < b.N; i++ {
				res := workflow.RunZipper(spec)
				if !res.OK {
					b.Fatal(res.Fail)
				}
				b.ReportMetric(float64(res.BlocksStolen), "stolen")
			}
		})
	}
}

// BenchmarkAblationSlots sweeps the producer buffer depth (num_slots).
func BenchmarkAblationSlots(b *testing.B) {
	for _, slots := range []int{2, 8, 32} {
		slots := slots
		b.Run(byteCount(slots), func(b *testing.B) {
			spec := exp.Scale(exp.CFDBridges(6), 32)
			spec.Zipper.BufferBlocks = slots
			for i := 0; i < b.N; i++ {
				res := workflow.RunZipper(spec)
				if !res.OK {
					b.Fatal(res.Fail)
				}
				b.ReportMetric(res.E2E.Seconds(), "virt-s/run")
			}
		})
	}
}

// BenchmarkAblationPreserve compares Preserve against NoPreserve.
func BenchmarkAblationPreserve(b *testing.B) {
	for _, mode := range []core.Mode{core.NoPreserve, core.Preserve} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			spec := exp.Scale(exp.CFDBridges(6), 32)
			spec.Zipper.Mode = mode
			for i := 0; i < b.N; i++ {
				res := workflow.RunZipper(spec)
				if !res.OK {
					b.Fatal(res.Fail)
				}
				b.ReportMetric(res.E2E.Seconds(), "virt-s/run")
			}
		})
	}
}

// BenchmarkAblationBarrier compares Zipper's dataflow hand-off against the
// Decaf-style interlocked hand-off on the identical workload.
func BenchmarkAblationBarrier(b *testing.B) {
	spec := exp.Scale(exp.CFDBridges(6), 32)
	b.Run("dataflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := workflow.RunZipper(spec)
			if !res.OK {
				b.Fatal(res.Fail)
			}
			b.ReportMetric(res.E2E.Seconds(), "virt-s/run")
		}
	})
	b.Run("interlocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := workflow.RunBaseline(spec, transport.NewDecaf())
			if !res.OK {
				b.Fatal(res.Fail)
			}
			b.ReportMetric(res.E2E.Seconds(), "virt-s/run")
		}
	})
}

// --- Baseline workloads (internal/benchharness) ---

// runVariant runs one baseline variant on a fresh spool directory with the
// timer on only around the job.
func runVariant(b *testing.B, v benchharness.Variant) zipper.JobStats {
	b.Helper()
	j := v.Job
	j.Config.SpoolDir = b.TempDir()
	b.ResetTimer()
	st, err := benchharness.RunJob(j)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkBatching pushes blocks through a one-deep receive window (the
// regime where the producer runs ahead of the network) under the canonical
// protocol variants: the seed's one-block-per-message protocol with a fresh
// allocation per payload ("seed"), the pooled unbatched protocol, and pooled
// batched sends. The msgs/block metric shows batching amortizing the
// per-message overhead; B/op shows the payload pool closing the allocation
// loop (~32 KiB/block for the seed vs a few hundred bytes pooled). The
// variants are the batching scenario's, so the committed
// BENCH_batching.json baseline measures the same thing.
func BenchmarkBatching(b *testing.B) {
	const blockBytes = 32 << 10
	for i, v := range benchharness.BatchingVariants(1) {
		b.Run(v.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(blockBytes)
			st := runVariant(b, benchharness.BatchingVariants(b.N)[i])
			if st.BlocksSent > 0 {
				b.ReportMetric(float64(st.Messages)/float64(st.BlocksSent), "msgs/block")
			}
		})
	}
}

// BenchmarkStaging runs the consumer-bound staging workload under the three
// routing modes on the real platform, with a lighter consumer than the
// committed baseline's. The stall/op metric is the producer liberation the
// in-transit tier buys; viaDisk/op the file-system traffic it avoids.
func BenchmarkStaging(b *testing.B) {
	const analyze = 50 * time.Microsecond
	for i, v := range benchharness.StagingVariants(1, analyze) {
		b.Run(v.Name, func(b *testing.B) {
			b.SetBytes(2 * int64(v.Job.BlockBytes)) // two producers
			st := runVariant(b, benchharness.StagingVariants(b.N, analyze)[i])
			b.ReportMetric(st.WriteStall/float64(b.N), "stall-s/op")
			b.ReportMetric(float64(st.BlocksStolen)/float64(b.N), "viaDisk/op")
			b.ReportMetric(float64(st.BlocksRelayed)/float64(b.N), "relayed/op")
		})
	}
}

// BenchmarkAdaptive runs the adaptive scenario's bursty workload under the
// reactive hybrid policy and the closed-loop adaptive controller, with the
// burst count scaled to b.N (250 blocks per producer per burst). The
// slow-consumer gate workload runs at its committed size in the baseline
// only.
func BenchmarkAdaptive(b *testing.B) {
	bursts := func(n int) int { return (n + 249) / 250 }
	for i, v := range benchharness.BurstyFlowVariants(1) {
		b.Run(v.Name, func(b *testing.B) {
			v := benchharness.BurstyFlowVariants(bursts(b.N))[i]
			total := float64(v.Job.Total())
			b.SetBytes(int64(v.Job.Total()) * int64(v.Job.BlockBytes) / int64(b.N))
			st := runVariant(b, v)
			b.ReportMetric(st.WriteStall/total, "stall-s/op")
			b.ReportMetric(float64(st.BlocksStolen)/total, "viaDisk/op")
			b.ReportMetric(float64(st.BlocksRelayed)/total, "relayed/op")
		})
	}
}

// BenchmarkElastic runs the elastic scenario's bursty workload under the
// three pool-sizing variants, shortened to two bursts 50 ms apart with the
// burst length scaled to b.N. The stall/op metric is the producer
// liberation the pool buys; node-s/op the stager provisioning it costs —
// elastic should land between the fixed pools on neither axis's bad side.
func BenchmarkElastic(b *testing.B) {
	const bursts, pause = 2, 50 * time.Millisecond
	for i, v := range benchharness.ElasticVariants(bursts, 1, pause) {
		b.Run(v.Name, func(b *testing.B) {
			v := benchharness.ElasticVariants(bursts, (b.N+bursts-1)/bursts, pause)[i]
			total := float64(v.Job.Total())
			b.SetBytes(int64(v.Job.Config.Producers) * int64(v.Job.BlockBytes))
			st := runVariant(b, v)
			b.ReportMetric(st.WriteStall/total, "stall-s/op")
			b.ReportMetric(st.StagerNodeSeconds/total, "node-s/op")
			b.ReportMetric(float64(st.BlocksRelayed)/total, "relayed/op")
		})
	}
}

// BenchmarkPlacement compares the placement policies on the placement
// scenario's skewed-rate workload, shortened to two bursts 30 ms apart with
// the fast producer's burst scaled to b.N: imbalance is the per-stager
// relayed max/mean ratio the load-aware policy exists to shrink, stall-s/op
// the producer liberation it buys. The ≥2x-imbalance gate runs at the
// committed size in the baseline only.
func BenchmarkPlacement(b *testing.B) {
	const bursts, pause = 2, 30 * time.Millisecond
	// At least 10 keeps the 10:1 skew shape at benchtime 1x.
	fast := func(n int) int { return max(10, (n+bursts-1)/bursts) }
	for i, v := range benchharness.PlacementVariants(bursts, fast(1), pause) {
		b.Run(v.Name, func(b *testing.B) {
			v := benchharness.PlacementVariants(bursts, fast(b.N), pause)[i]
			total := v.Job.Total()
			b.SetBytes(total * int64(v.Job.BlockBytes) / int64(b.N))
			st := runVariant(b, v)
			b.ReportMetric(st.RelayImbalance, "imbalance")
			b.ReportMetric(st.WriteStall/float64(total), "stall-s/op")
		})
	}
}

// --- Real-platform throughput of the public API ---

func BenchmarkRealJobThroughput(b *testing.B) {
	dir := b.TempDir()
	job, err := zipper.NewJob(zipper.Config{Producers: 1, Consumers: 1, SpoolDir: dir, BufferBlocks: 16})
	if err != nil {
		b.Fatal(err)
	}
	const blockBytes = 64 << 10
	payload := make([]byte, blockBytes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := job.Consumer(0).Read(); !ok {
				return
			}
		}
	}()
	b.SetBytes(blockBytes)
	b.ResetTimer()
	p := job.Producer(0)
	for i := 0; i < b.N; i++ {
		p.Write(i, 0, payload)
	}
	p.Close()
	<-done
	job.Wait()
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return itoa(int(n>>20)) + "MiB"
	default:
		return itoa(int(n>>10)) + "KiB"
	}
}

func byteCount(n int) string { return itoa(n) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
