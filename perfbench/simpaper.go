package main

import (
	"fmt"
	"runtime"
	"time"

	"zipper/internal/core"
	"zipper/internal/exp"
	"zipper/internal/fault"
	"zipper/internal/transport"
	"zipper/internal/workflow"
)

// paperSpec is the paper's CFD + n-th moment workflow on the simulated
// Bridges machine (exp.CFDBridges), shortened to two steps and scaled from
// 256 + 128 to 32 + 16 ranks, with a four-stager relay tier, the fault plane
// at library defaults, and the deterministic kill injector armed at the
// first membership epoch. The seed drives the simulated file system's
// background-load jitter. At the full scale the simulator's working set
// outgrows the caches it shares with other tenants of a small host, and its
// wall time swung by a quarter between runs.
func paperSpec(seed int64) workflow.Spec {
	spec := exp.CFDBridges(2)
	spec.P, spec.Q = 32, 16
	spec.Stagers = 4
	spec.StagerBufferBlocks = 16
	spec.Zipper = core.Config{RoutePolicy: core.RouteStaging, MaxBatchBlocks: 4}
	spec.Fault = fault.Config{Enabled: true}
	spec.FaultKillEpoch = 1
	spec.Seed = seed
	return spec
}

// paperBlocks is the workflow's total block count.
func paperBlocks(spec workflow.Spec) int64 {
	w := spec.Workload
	return int64(spec.P) * int64(w.Steps) * (w.BytesPerStep / w.BlockBytes)
}

// simOp is one operation of the sim-paper workload: a simulated Zipper run
// and one simulated baseline transport (MPI-IO through the simulated
// parallel file system) of the same workflow.
type simOp struct {
	zipper, baseline         workflow.Result
	zipperWall, baselineWall float64 // wall seconds
	cpu                      float64
	// The simulator's heap allocations and collections during the runs.
	allocB    uint64
	gcCycles  uint32
	gcPauseMS float64
}

func runSimOp(spec workflow.Spec) simOp {
	var op simOp
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	op.zipper = workflow.RunZipper(spec)
	t1 := time.Now()
	op.baseline = workflow.RunBaseline(spec, transport.NewMPIIO())
	op.baselineWall = time.Since(t1).Seconds()
	op.zipperWall = t1.Sub(t0).Seconds()
	op.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	op.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	op.gcCycles = ms1.NumGC - ms0.NumGC
	op.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return op
}

func (op simOp) wall() float64 { return op.zipperWall + op.baselineWall }

// stallFrac is the simulated producers' stall share across both runs: time
// blocked handing data to the transport over the runs' virtual length.
func (op simOp) stallFrac() float64 {
	return (op.zipper.ProducerStall + op.baseline.ProducerStall).Seconds() /
		(op.zipper.E2E + op.baseline.E2E).Seconds()
}

// check validates an operation against the seed's reference: both runs
// finished, every block was analysed and none lost, and the virtual-time
// result repeats exactly.
func (op simOp) check(spec workflow.Spec, ref simOp) error {
	z, b := op.zipper, op.baseline
	switch {
	case !z.OK:
		return fmt.Errorf("zipper run failed: %s", z.Fail)
	case !b.OK:
		return fmt.Errorf("baseline run failed: %s", b.Fail)
	case z.BlocksAnalyzed != paperBlocks(spec):
		return fmt.Errorf("analysed %d of %d blocks", z.BlocksAnalyzed, paperBlocks(spec))
	case z.BlocksLost != 0:
		return fmt.Errorf("%d blocks lost", z.BlocksLost)
	case z.E2E != ref.zipper.E2E || z.Messages != ref.zipper.Messages ||
		z.BlocksStolen != ref.zipper.BlocksStolen || z.Evictions != ref.zipper.Evictions ||
		b.E2E != ref.baseline.E2E:
		return fmt.Errorf("virtual result e2e=%v msgs=%d stolen=%d evictions=%d baseline=%v differs from the seed's reference e2e=%v msgs=%d stolen=%d evictions=%d baseline=%v",
			z.E2E, z.Messages, z.BlocksStolen, z.Evictions, b.E2E,
			ref.zipper.E2E, ref.zipper.Messages, ref.zipper.BlocksStolen, ref.zipper.Evictions, ref.baseline.E2E)
	}
	return nil
}
