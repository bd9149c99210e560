package benchharness

import (
	"fmt"
	"slices"
	"time"

	"zipper"
	"zipper/internal/exp"
	"zipper/internal/rt/realenv"
	"zipper/internal/workflow"
)

// Scenarios is the baseline registry in run order. Batching runs first: its
// allocation gate reads TotalAlloc deltas, and a payload pool warmed by the
// other scenarios would change that reading.
var Scenarios = []Scenario{
	batching(), staging(), adaptive(), elastic(), placement(), failover(), wire(), control(),
}

// jobScenario is a scenario whose rows are its variants' measurements.
func jobScenario(name string, minProcs int, vs []Variant, gates ...Gate) Scenario {
	return Scenario{
		Name: name, MinProcs: minProcs,
		Params: map[string]any{"variants": variantParams(vs)},
		Run:    func() (Rows, error) { return runVariants(vs) },
		Gates:  gates,
	}
}

// Committed workload sizes.
const (
	batchingBlocks = 100_000
	stagingBlocks  = 2000
	controlSteps   = 6

	frameCount      = 2000
	frameBlocks     = 16
	frameBlockBytes = 256 << 10
)

// BatchingVariants pushes blocks through a one-producer job with a one-deep
// receive window and stealing off — the backpressured regime where batches
// form — under the seed's one-block-per-message protocol with a fresh
// allocation per block, then pooled payloads at rising batch caps.
func BatchingVariants(blocks int) []Variant {
	v := func(name string, batch int, unpooled bool) Variant {
		return Variant{Name: name, Job: Job{
			Config: zipper.Config{
				Producers: 1, Consumers: 1, BufferBlocks: 64, Window: 1,
				DisableSteal: true, MaxBatchBlocks: batch,
			},
			Bursts: 1, Burst: []int{blocks}, BlockBytes: 32 << 10, Unpooled: unpooled,
		}}
	}
	return []Variant{
		v("seed-1x-unpooled", 1, true), v("pooled-batch=1", 1, false),
		v("pooled-batch=4", 4, false), v("pooled-batch=16", 16, false),
	}
}

func batching() Scenario {
	vs := BatchingVariants(batchingBlocks)
	// Batching ≥ 4 at least halves messages per block, and pooling cuts
	// per-block allocation versus the seed protocol.
	return jobScenario("batching", 0, vs,
		Gate{Name: "batched-msgs-per-block", Op: "<=", Eval: func(r Rows) (float64, float64) {
			return r.Val("pooled-batch=4", "msgs_per_block"), r.Val("seed-1x-unpooled", "msgs_per_block") / 2
		}},
		Gate{Name: "pooled-alloc-per-block", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("pooled-batch=4", "alloc_bytes_per_block"), r.Val("seed-1x-unpooled", "alloc_bytes_per_block")
		}},
	)
}

// StagingVariants couples two fast producers to a consumer that
// busy-analyzes each block for analyze, under the paper's two-channel
// in-situ protocol, everything through the in-transit relay, and per-batch
// hybrid routing. Generation outruns analysis, so the direct window is
// exhausted most of the run and the policy decides where the overflow goes:
// Write stall, the file-system steal path, or the staging tier. The stager
// buffer holds the whole stream — dedicated staging ranks trade RAM for
// producer liberation, the tier's entire bargain.
func StagingVariants(blocks int, analyze time.Duration) []Variant {
	v := func(stagers int, policy zipper.RoutePolicy) Variant {
		return Variant{Name: policy.String(), Job: Job{
			Config: zipper.Config{
				Producers: 2, Consumers: 1, BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
				Staging: zipper.StagingConfig{Stagers: stagers, BufferBlocks: 2 * blocks, RoutePolicy: policy},
			},
			Bursts: 1, Burst: even(2, blocks), BlockBytes: 32 << 10, Analyze: analyze,
		}}
	}
	return []Variant{
		v(0, zipper.RouteDirect), v(1, zipper.RouteStaging), v(1, zipper.RouteHybrid),
	}
}

func staging() Scenario {
	vs := StagingVariants(stagingBlocks, 250*time.Microsecond)
	// With a consumer that cannot keep up, hybrid routing stalls the
	// producers less than pure in-situ coupling and moves fewer blocks
	// over the file system than the steal-heavy in-situ run.
	return jobScenario("staging", 0, vs,
		Gate{Name: "hybrid-write-stall", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("hybrid", "write_stall_s"), r.Val("in-situ", "write_stall_s")
		}},
		Gate{Name: "hybrid-via-disk", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("hybrid", "blocks_via_disk"), r.Val("in-situ", "blocks_via_disk")
		}},
	)
}

// flowVariants runs one flow workload under the reactive hybrid policy and
// the adaptive flow controller, as "<workload>/hybrid" and
// "<workload>/adaptive".
func flowVariants(workload string, j Job) []Variant {
	var vs []Variant
	for _, p := range []zipper.RoutePolicy{zipper.RouteHybrid, zipper.RouteAdaptive} {
		pj := j
		pj.Config.Staging.RoutePolicy = p
		vs = append(vs, Variant{Name: workload + "/" + p.String(), Job: pj})
	}
	return vs
}

func flowJob(stagerBuf int, steal bool, analyze time.Duration) Job {
	return Job{
		Config: zipper.Config{
			Producers: 2, Consumers: 1, BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
			DisableSteal: !steal,
			Staging:      zipper.StagingConfig{Stagers: 1, BufferBlocks: stagerBuf},
		},
		BlockBytes: 32 << 10, Analyze: analyze,
	}
}

// BurstyFlowVariants is the adaptive scenario's bursty workload: the
// work-stealing writer stays on (so the via-disk comparison is live) and
// each producer slams a moderately provisioned stager with bursts of 250
// blocks 25 ms apart, so both channels saturate transiently and the
// controller must rebalance each burst and relax between bursts.
func BurstyFlowVariants(bursts int) []Variant {
	j := flowJob(128, true, 150*time.Microsecond)
	j.Bursts, j.Burst, j.Pause = bursts, even(2, 250), 25*time.Millisecond
	return flowVariants("bursty", j)
}

// slowConsumerVariants is the regime the closed loop exists for: the
// consumer lags steadily, the staging tier has the RAM to absorb the whole
// stream, and stealing is off so routing is the only relief valve. The
// reactive hybrid policy polls window credit, which looks healthy at every
// decision instant even though the pipeline is backlogged, so it keeps
// sending direct and the producers eat the backlog as Write stall; the
// adaptive controller's stall EWMA sees the backlog and sheds the stream
// into the tier.
func slowConsumerVariants() []Variant {
	j := flowJob(3000, false, 250*time.Microsecond)
	j.Bursts, j.Burst = 1, even(2, 1500)
	return flowVariants("slow-consumer", j)
}

func adaptive() Scenario {
	vs := append(slowConsumerVariants(), BurstyFlowVariants(6)...)
	return jobScenario("adaptive", 0, vs,
		// With a lagging consumer and a provisioned tier the controller
		// stalls the producers less than the reactive policy, and it
		// does so by engaging the tier.
		Gate{Name: "slow-consumer-write-stall", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("slow-consumer/adaptive", "write_stall_s"), r.Val("slow-consumer/hybrid", "write_stall_s")
		}},
		Gate{Name: "slow-consumer-relayed", Op: ">", Eval: func(r Rows) (float64, float64) {
			return r.Val("slow-consumer/adaptive", "blocks_relayed"), 0
		}},
		// Bursty is noisier (the steal path competes on shared disk):
		// non-regression with headroom rather than a strict win.
		Gate{Name: "bursty-write-stall", Op: "<=", Eval: func(r Rows) (float64, float64) {
			return r.Val("bursty/adaptive", "write_stall_s"), r.Val("bursty/hybrid", "write_stall_s") * 1.5
		}},
	)
}

// ElasticVariants is the elastic-staging comparison on a bursty workload:
// four producers each emit bursts of burstBlocks at memory speed, idling
// pause between them, against a steady consumer. The bursts need the whole
// stager ceiling and the pauses almost none of it, so a fixed pool must
// choose between stalling producers (fixed-small, sized for the average)
// and idling nodes (fixed-large, sized for the peak); the elastic pool
// grows into the ceiling during bursts and drains between them. Stealing
// is off so the tier is the producers' only relief, and routing is the
// adaptive controller, which sheds each burst into the tier (a
// credit-polling policy would barely touch it and hide the pool size).
func ElasticVariants(bursts, burstBlocks int, pause time.Duration) []Variant {
	v := func(name string, stagers int, el zipper.ElasticConfig) Variant {
		return Variant{Name: name, Job: Job{
			Config: zipper.Config{
				Producers: 4, Consumers: 1, BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
				DisableSteal: true,
				Staging: zipper.StagingConfig{
					Stagers: stagers, BufferBlocks: 256, RoutePolicy: zipper.RouteAdaptive, Elastic: el,
				},
			},
			Bursts: bursts, Burst: even(4, burstBlocks), Pause: pause,
			BlockBytes: 32 << 10, Analyze: 100 * time.Microsecond,
		}}
	}
	return []Variant{
		v("fixed-small", 1, zipper.ElasticConfig{}),
		v("fixed-large", 4, zipper.ElasticConfig{}),
		v("elastic", 4, zipper.ElasticConfig{
			Enabled: true, MinStagers: 1, MaxStagers: 4,
			Interval: time.Millisecond, Cooldown: 4 * time.Millisecond,
		}),
	}
}

func elastic() Scenario {
	vs := ElasticVariants(4, 300, 400*time.Millisecond)
	// The elastic bargain on both axes: it liberates producers better
	// than the average-sized pool while billing fewer stager
	// node-seconds than the peak-sized one, and it actually cycles.
	return jobScenario("elastic", 0, vs,
		Gate{Name: "elastic-write-stall", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("elastic", "write_stall_s"), r.Val("fixed-small", "write_stall_s")
		}},
		Gate{Name: "elastic-node-seconds", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("elastic", "stager_node_seconds"), r.Val("fixed-large", "stager_node_seconds")
		}},
		Gate{Name: "elastic-scaler-cycled", Op: ">", Eval: func(r Rows) (float64, float64) {
			return min(r.Val("elastic", "scale_grows"), r.Val("elastic", "scale_drains")), 0
		}},
	)
}

// PlacementVariants is the skewed-rate placement comparison: per burst
// producer 0 emits fast blocks flat out and its three peers fast/10, idling
// pause between bursts while the single consumer catches up. The fast
// producer's burst overflows any one stager's buffer but fits the tier's
// aggregate buffering, so under rank-affine placement it funnels through
// one stager (overflow spills, the producer stalls) while three sit empty,
// and a load-aware policy spreads it. Everything relays and stealing is
// off, so endpoint assignment is the only variable. (A globally
// oversubscribed workload would show nothing: every buffer pegs full and
// placement cannot matter.)
func PlacementVariants(bursts, fast int, pause time.Duration) []Variant {
	v := func(p zipper.Placement) Variant {
		return Variant{Name: p.String(), Job: Job{
			Config: zipper.Config{
				Producers: 4, Consumers: 1, BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
				DisableSteal: true,
				Staging: zipper.StagingConfig{
					Stagers: 4, BufferBlocks: 512, RoutePolicy: zipper.RouteStaging, Placement: p,
				},
			},
			Bursts: bursts, Burst: []int{fast, fast / 10, fast / 10, fast / 10}, Pause: pause,
			BlockBytes: 32 << 10, Analyze: 100 * time.Microsecond,
		}}
	}
	return []Variant{v(zipper.RankAffine), v(zipper.LeastOccupancy), v(zipper.HashRing)}
}

func placement() Scenario {
	vs := PlacementVariants(6, 1000, 150*time.Millisecond)
	// The load-aware policy at least halves the per-stager relay
	// imbalance versus the fixed mod-map and stalls producers less.
	return jobScenario("placement", 8, vs,
		Gate{Name: "least-occupancy-imbalance", Op: "<=", Eval: func(r Rows) (float64, float64) {
			return r.Val("least-occupancy", "relay_imbalance_max_over_mean"),
				r.Val("rank-affine", "relay_imbalance_max_over_mean") / 2
		}},
		Gate{Name: "least-occupancy-write-stall", Op: "<", Eval: func(r Rows) (float64, float64) {
			return r.Val("least-occupancy", "write_stall_s"), r.Val("rank-affine", "write_stall_s")
		}},
	)
}

// maxMeanRecovery gates the detector's promptness: mean evict→respawn time
// per eviction. The floor is LeaseTTL (a kill must lapse before it is
// seen); the ceiling leaves room for the fence/drain/replay sequence under
// CI scheduling jitter.
const maxMeanRecovery = 2 * time.Second

// failoverVariants runs bursty producers over a relaying tier with the
// fault plane off, on but quiet, and on with one or two stagers hard-killed
// mid-run. The bursts leave admitted-but-undelivered blocks in the victims'
// buffers, so the recovery reader has real work. Detector timings are
// generous: the measurement is recovery latency, not detector sensitivity,
// and a TTL well above scheduler jitter keeps healthy members out of the
// sweep.
func failoverVariants() []Variant {
	v := func(name string, faultOn bool, kills int) Variant {
		j := Job{
			Config: zipper.Config{
				Producers: 4, Consumers: 2, BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
				DisableSteal: true,
				Staging:      zipper.StagingConfig{Stagers: 3, BufferBlocks: 64, RoutePolicy: zipper.RouteStaging},
			},
			Bursts: 3, Burst: even(4, 200), Pause: 60 * time.Millisecond,
			BlockBytes: 16 << 10, Analyze: 50 * time.Microsecond, Kills: kills,
		}
		if faultOn {
			j.Config.Fault = zipper.FaultConfig{Enabled: true,
				Heartbeat: 2 * time.Millisecond, LeaseTTL: 25 * time.Millisecond}
		}
		return Variant{Name: name, Job: j}
	}
	return []Variant{
		v("fault-off", false, 0), v("fault-on-quiet", true, 0),
		v("fault-on-1-kill", true, 1), v("fault-on-2-kills", true, 2),
	}
}

func failover() Scenario {
	vs := failoverVariants()
	killed := func(v Variant) bool { return v.Job.Kills > 0 }
	// Killed runs lose nothing and recover promptly, every kill is
	// detected, and a quiet fault-on run evicts no one — a healthy
	// member lapsing its lease means the heartbeat path is broken,
	// which fencing would mask as "recovery".
	return jobScenario("failover", 8, vs,
		Gate{Name: "blocks-lost", Op: "==", Eval: func(r Rows) (float64, float64) {
			var lost float64
			for _, v := range vs {
				lost += r.Val(v.Name, "blocks_lost")
			}
			return lost, 0
		}},
		Gate{Name: "evictions-cover-kills", Op: ">=", Eval: func(r Rows) (float64, float64) {
			var surplus []float64
			for _, v := range vs {
				if killed(v) {
					surplus = append(surplus, r.Val(v.Name, "evictions")-float64(v.Job.Kills))
				}
			}
			return slices.Min(surplus), 0
		}},
		Gate{Name: "mean-recovery-ms", Op: "<=", Eval: func(r Rows) (float64, float64) {
			worst := 0.0
			for _, v := range vs {
				if killed(v) {
					worst = max(worst, r.Val(v.Name, "mean_recovery_ms"))
				}
			}
			return worst, float64(maxMeanRecovery) / 1e6
		}},
		Gate{Name: "quiet-evictions", Op: "==", Eval: func(r Rows) (float64, float64) {
			var ev float64
			for _, v := range vs {
				if !killed(v) {
					ev += r.Val(v.Name, "evictions")
				}
			}
			return ev, 0
		}},
	)
}

// wireVariants pushes a smooth plateau field — the shape simulation output
// takes and the reason in-transit compression pays — from two producers
// through a real-TCP staged job, raw and compressed at the producer. Every
// block crosses two wire legs: producer→stager over a socket and
// stager→consumer over the listener loopback.
func wireVariants() []Variant {
	v := func(name string, op zipper.ReduceOperator) Variant {
		return Variant{Name: name, Job: Job{
			Config: zipper.Config{
				Producers: 2, Consumers: 1, TCPAddr: "127.0.0.1:0",
				BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8, DisableSteal: true,
				Staging: zipper.StagingConfig{
					Stagers: 1, BufferBlocks: 400, RoutePolicy: zipper.RouteStaging,
					Reduce: zipper.ReduceConfig{Operator: op},
				},
			},
			Bursts: 1, Burst: even(2, 200), BlockBytes: 64 << 10,
			// Plateaus 64 bytes wide, drifting with the step: locally
			// constant like a physical field, distinct across blocks.
			Fill: func(data []byte, p, i int) {
				for j := range data {
					data[j] = byte((j / 64) + i + p)
				}
			},
		}}
	}
	return []Variant{v("raw", zipper.ReduceNone), v("compress", zipper.ReduceCompress)}
}

// frameRow measures the frame-v5 send path into a discard sink; a negative
// vectoredMin forces the pre-v5 buffered-copy path.
func frameRow(name string, vectoredMin int) Row {
	r := realenv.BenchWriteFrame(frameCount, frameBlocks, frameBlockBytes, vectoredMin)
	return Row{Variant: name, Values: map[string]float64{
		"ns_per_frame": r.NsPerFrame, "ns_per_block": r.NsPerBlock,
		"allocs_per_frame": r.AllocsPerFrame, "bytes_per_frame": float64(r.BytesPerFrame),
	}}
}

func wire() Scenario {
	vs := wireVariants()
	return Scenario{
		Name:     "wire",
		MinProcs: 8,
		Params: map[string]any{
			"frame_count": frameCount, "frame_blocks": frameBlocks, "frame_block_bytes": frameBlockBytes,
			"variants": variantParams(vs),
		},
		Run: func() (Rows, error) {
			rows := Rows{frameRow("frame:copy", -1), frameRow("frame:vectored", 0)}
			jobs, err := runVariants(vs)
			for i, r := range jobs {
				j := vs[i].Job
				raw := 2 * j.Total() * int64(j.BlockBytes)
				onWire, reduced := int64(r.Values["bytes_on_wire"]), int64(r.Values["bytes_reduced"])
				if onWire+reduced != raw {
					return append(rows, jobs[:i+1]...), fmt.Errorf("%s: accounting leak: %d on wire + %d reduced != %d raw",
						r.Variant, onWire, reduced, raw)
				}
				r.Values["bytes_raw_two_legs"] = float64(raw)
				r.Values["reduction_factor"] = 0
				if onWire > 0 {
					r.Values["reduction_factor"] = float64(raw) / float64(onWire)
				}
			}
			return append(rows, jobs...), err
		},
		Gates: []Gate{
			// Skipping the bufio copy for large payloads cuts per-block send
			// cost by at least 20%, and the vector assembly stays at ≤1
			// steady-state allocation per frame (headroom for background
			// runtime noise in the counter).
			{Name: "vectored-ns-per-block", Op: "<=", Eval: func(r Rows) (float64, float64) {
				return r.Val("frame:vectored", "ns_per_block"), 0.8 * r.Val("frame:copy", "ns_per_block")
			}},
			{Name: "vectored-allocs-per-frame", Op: "<=", Eval: func(r Rows) (float64, float64) {
				return r.Val("frame:vectored", "allocs_per_frame"), 1.5
			}},
			// On the plateau payload compression at least halves the bytes
			// crossing the wire.
			{Name: "compress-bytes-on-wire", Op: "<=", Eval: func(r Rows) (float64, float64) {
				return r.Val("compress", "bytes_on_wire"), r.Val("raw", "bytes_on_wire") / 2
			}},
		},
	}
}

// control is the multi-job control-plane comparison on the simulated
// platform, in virtual time, so every number is bit-for-bit reproducible:
// the heterogeneous fleet of exp.FleetScenario on one shared tier, versus
// each job alone on its own identically provisioned private tier (the
// capacity it would hold without a control plane to multiplex it), plus
// the high-priority job alone on its fair share of the shared tier — the
// yardstick its shared-run stall is judged against, since the shared run
// adds only interference, not capacity.
func control() Scenario {
	spec := exp.FleetScenario(controlSteps)
	prio := map[string]any{}
	var high string
	for _, j := range spec.Jobs {
		prio[j.Name] = j.Quota.Priority.String()
		if j.Quota.Priority.String() == "high" {
			high = j.Name
		}
	}
	return Scenario{
		Name: "control",
		Params: map[string]any{
			"steps": controlSteps, "stagers": spec.Stagers,
			"stager_buffer_blocks": spec.StagerBufferBlocks, "priorities": prio,
		},
		Run: func() (Rows, error) { return runControl(high) },
		Gates: []Gate{
			// Sharing one fleet bills ≥25% fewer stager node-seconds than
			// the sum of private tiers.
			{Name: "consolidation-saving", Op: ">=", Eval: func(r Rows) (float64, float64) {
				return 1 - r.Val("shared", "stager_node_seconds")/r.Val("private-total", "stager_node_seconds"), 0.25
			}},
			// The high-priority tenant's worst write stall — the p99 proxy
			// at this producer count — stays within 1.5x its yardstick's.
			{Name: "high-priority-stall", Op: "<=", Eval: func(r Rows) (float64, float64) {
				return r.Val("shared/"+high, "write_stall_s"), r.Val("yardstick:"+high+"/"+high, "write_stall_s") * 1.5
			}},
			// The low-priority flood is contained by preemption, not luck.
			{Name: "preemptions", Op: ">", Eval: func(r Rows) (float64, float64) {
				return r.Val("shared", "preemptions"), 0
			}},
		},
	}
}

func runControl(high string) (Rows, error) {
	spec := exp.FleetScenario(controlSteps)
	rows, err := runFleet("shared", spec)
	if err != nil {
		return rows, err
	}
	var private float64
	for _, job := range spec.Jobs {
		pspec := exp.FleetScenario(controlSteps)
		job.StartAfter = 0
		pspec.Jobs = []workflow.FleetJob{job}
		pr, err := runFleet("private:"+job.Name, pspec)
		rows = append(rows, pr...)
		if err != nil {
			return rows, err
		}
		private += pr[0].Values["stager_node_seconds"]
	}
	rows = append(rows, Row{Variant: "private-total", Values: map[string]float64{"stager_node_seconds": private}})
	for _, job := range spec.Jobs {
		if job.Name != high {
			continue
		}
		yspec := exp.FleetScenario(controlSteps)
		job.StartAfter = 0
		yspec.Jobs = []workflow.FleetJob{job}
		yspec.Stagers = (spec.Stagers + len(spec.Jobs) - 1) / len(spec.Jobs)
		yr, err := runFleet("yardstick:"+job.Name, yspec)
		rows = append(rows, yr...)
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// runFleet runs one fleet and returns its row followed by one
// "<variant>/<job>" row per tenant, checking that no tenant lost or left
// unanalyzed a block.
func runFleet(variant string, spec workflow.FleetSpec) (Rows, error) {
	spec.Sample = 0 // outcomes, not the timeline
	res := workflow.RunFleet(spec)
	if !res.OK {
		return nil, fmt.Errorf("%s: %s", variant, res.Fail)
	}
	rows := Rows{{Variant: variant, Values: map[string]float64{
		"stagers": float64(spec.Stagers), "e2e_s": res.E2E.Seconds(),
		"stager_node_seconds": res.StagerNodeSeconds,
		"preemptions":         float64(res.Preemptions), "stager_spills": float64(res.StagerSpills),
	}}}
	for _, j := range res.Jobs {
		if j.BlocksLost != 0 {
			return rows, fmt.Errorf("%s: job %s lost %d blocks", variant, j.Name, j.BlocksLost)
		}
		if j.BlocksAnalyzed != j.BlocksWritten || j.BlocksWritten == 0 {
			return rows, fmt.Errorf("%s: job %s analyzed %d of %d blocks",
				variant, j.Name, j.BlocksAnalyzed, j.BlocksWritten)
		}
		rows = append(rows, Row{Variant: variant + "/" + j.Name, Values: map[string]float64{
			"blocks_written": float64(j.BlocksWritten), "blocks_spilled": float64(j.BlocksSpilled),
			"blocks_lost": float64(j.BlocksLost), "write_stall_s": j.WriteStall.Seconds(),
			"preempted": float64(j.Preempted),
		}})
	}
	return rows, nil
}
