package workflow

// Multi-job fleet runs on the simulated platform: many producer/consumer
// jobs share one in-transit stager tier under the control plane, clocked
// entirely by virtual time so admission, fair-share reconciles, and
// preemptions land at bit-for-bit reproducible instants. This is the
// harness the multi-tenant acceptance tests and the control baseline
// scenario drive.

import (
	"fmt"
	"time"

	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/fabric"
	"zipper/internal/flow"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/staging"
)

// FleetJob is one tenant workload in a FleetSpec.
type FleetJob struct {
	Name     string
	Workload Workload
	// P and Q are this job's producer and consumer rank counts.
	P, Q int
	// Quota is the tenant's resource envelope on the shared fleet.
	Quota control.Quota
	// StartAfter delays the job's admission: the tenant joins the running
	// fleet at this virtual instant, and the fair share reconverges.
	StartAfter time.Duration
	// RoutePolicy is the producer's channel policy (default RouteStaging —
	// everything relays through the shared tier).
	RoutePolicy core.RoutePolicy
	// BufferBlocks is each producer's buffer capacity (default 8), and
	// MaxBatchBlocks the drain-batch cap.
	BufferBlocks   int
	MaxBatchBlocks int
	// DisableSteal turns the file-system relief path off for this job.
	DisableSteal bool
}

// FleetSpec is a complete multi-job fleet experiment.
type FleetSpec struct {
	Machine Machine
	Jobs    []FleetJob
	// Stagers is the shared tier's size and StagerBufferBlocks each
	// endpoint's in-memory buffer capacity.
	Stagers            int
	StagerBufferBlocks int
	// StagingNodes is the node count the shared tier is placed on.
	StagingNodes int
	// Reconcile is the control plane's period (0 selects 2ms virtual) and
	// PreemptOccupancy its pressure threshold (0 selects 0.75).
	Reconcile        time.Duration
	PreemptOccupancy float64
	// Window is each endpoint's receive window in messages (default 4).
	Window int
	// Sample, when > 0, records the per-tenant share/occupancy timeline at
	// this virtual period — the zippertrace fleet view's input.
	Sample time.Duration
	// Seed drives PFS background-load jitter.
	Seed int64
}

// TenantSample is one tenant's state at a sample instant.
type TenantSample struct {
	Stagers     int  // assigned slice size
	QuotaBlocks int  // total admission cap across the slice
	Resident    int  // blocks resident in shared-stager memory, fleet-wide
	Active      bool // admitted and not yet finished
}

// FleetSample is one instant of the per-tenant timeline.
type FleetSample struct {
	At      time.Duration
	Tenants []TenantSample // indexed by tenant id (admission order)
}

// FleetJobResult is one job's outcome.
type FleetJobResult struct {
	Name   string
	Tenant int           // control-plane tenant id (admission order)
	Start  time.Duration // admission instant
	End    time.Duration // all of the job's streams complete
	// Producer/consumer totals.
	BlocksWritten  int64
	BlocksAnalyzed int64
	BlocksLost     int64
	BlocksSent     int64
	BlocksRelayed  int64
	BlocksStolen   int64
	BlocksSpilled  int64 // the tenant's spills inside the shared tier
	// WriteStall is the job's worst producer stall — the latency number the
	// isolation guarantee is judged on.
	WriteStall time.Duration
	// Preempted counts how often this tenant was the preemption victim.
	Preempted int
}

// FleetResult is one multi-job fleet execution's outcome.
type FleetResult struct {
	OK   bool
	Fail string
	E2E  time.Duration
	Jobs []FleetJobResult
	// Events is the control plane's admit/finish/assign/preempt timeline,
	// and Preemptions its lifetime count.
	Events      []control.Event
	Preemptions int
	// StagerNodeSeconds is the shared tier's provisioned cost (each stager
	// billed to its finish time) — the axis shared fleets are compared to
	// private tiers on. StagerRelayed is each stager's received-block total
	// and StagerSpills the tier-wide overflow count.
	StagerNodeSeconds float64
	StagerRelayed     []int64
	StagerSpills      int64
	// Samples is the per-tenant timeline (empty unless Spec.Sample > 0).
	Samples []FleetSample
}

// simControlHost adapts the simulated shared tier to control.Host. All
// stagers exist before the plane starts, so the slice is immutable.
type simControlHost struct {
	stagers []*staging.Stager
	base    int // transport address of stager 0
}

func (h *simControlHost) TenantLevel(addr, tenant int) *flow.Level {
	return h.stagers[addr-h.base].TenantLevel(tenant)
}

func (h *simControlHost) TenantSpilled(addr, tenant int) int64 {
	return h.stagers[addr-h.base].TenantSpilled(tenant)
}

func (h *simControlHost) SetTenantQuota(c rt.Ctx, addr, tenant, blocks int) {
	h.stagers[addr-h.base].SetTenantQuota(c, tenant, blocks)
}

// RunFleet executes every job in the spec over one shared stager tier on
// the simulated platform. Each job's coordinator sleeps to its StartAfter,
// admits the tenant (the control plane reconciles synchronously, so the
// job's directory is populated before its first block), spawns the job's
// endpoints, and releases its capacity when the streams complete. A janitor
// stops the plane and retires the shared tier once the last job is done.
func RunFleet(spec FleetSpec) FleetResult {
	if len(spec.Jobs) == 0 || spec.Stagers < 1 {
		return FleetResult{Fail: "fleet: need ≥ 1 job and ≥ 1 stager"}
	}
	totP, totQ := 0, 0
	for _, j := range spec.Jobs {
		totP += j.P
		totQ += j.Q
	}
	r := build(Spec{Machine: spec.Machine, P: totP, Q: totQ,
		StagingNodes: spec.StagingNodes, Seed: spec.Seed})
	window := spec.Window
	if window <= 0 {
		window = 4
	}
	endpointNodes := append([]fabric.NodeID{}, r.consNodes...)
	for s := 0; s < spec.Stagers; s++ {
		endpointNodes = append(endpointNodes, r.stageNode[s%len(r.stageNode)])
	}
	net := simenv.NewNetwork(r.eng, r.fab, endpointNodes, window)
	store := simenv.NewStore(r.fs, "zipper")

	// Global rank and consumer-address layout: jobs are packed in spec
	// order, so the tenant of any producer rank is a static table lookup —
	// the stagers' receiver threads resolve it without reaching into the
	// registry.
	rankTenant := make([]int, totP)
	prodBase := make([]int, len(spec.Jobs))
	consBase := make([]int, len(spec.Jobs))
	{
		p, q := 0, 0
		for i, j := range spec.Jobs {
			prodBase[i], consBase[i] = p, q
			for k := 0; k < j.P; k++ {
				rankTenant[p+k] = i
			}
			p += j.P
			q += j.Q
		}
	}

	stagers := make([]*staging.Stager, spec.Stagers)
	mem := spec.Machine.MemBandwidth
	for s := 0; s < spec.Stagers; s++ {
		env := simenv.NewEnv(r.eng, r.stageNode[s%len(r.stageNode)], mem)
		spill := simenv.NewStore(r.fs, fmt.Sprintf("zipper-stage%d", s))
		stagers[s] = staging.NewStager(env, staging.Config{
			BufferBlocks: spec.StagerBufferBlocks,
			Managed:      true,
			Tenants:      len(spec.Jobs),
			Tenant:       func(from int) int { return rankTenant[from%totP] },
		}, s, net.Inbox(totQ+s), net, spill)
	}
	addrs := make([]int, spec.Stagers)
	for s := range addrs {
		addrs[s] = totQ + s
	}
	host := &simControlHost{stagers: stagers, base: totQ}
	plane := control.NewPlane(control.Config{
		Interval:         spec.Reconcile,
		PreemptOccupancy: spec.PreemptOccupancy,
		MaxTenants:       len(spec.Jobs),
	}, addrs, spec.StagerBufferBlocks, host)
	planeEnv := simenv.NewEnv(r.eng, r.stageNode[0], mem)
	plane.Start(planeEnv)

	// Shared run state: written only under the engine's one-process-at-a-
	// time scheduling, so no locking is needed.
	results := make([]FleetJobResult, len(spec.Jobs))
	jobsDone := 0
	tenants := make([]*control.Tenant, len(spec.Jobs))
	producers := make([][]*core.Producer, len(spec.Jobs))
	consumers := make([][]*core.Consumer, len(spec.Jobs))

	for i, job := range spec.Jobs {
		i, job := i, job
		w := job.Workload
		blockBytes := w.BlockBytes
		if blockBytes <= 0 {
			blockBytes = 1 << 20
		}
		nBlocks := int(w.BytesPerStep / blockBytes)
		if nBlocks < 1 {
			nBlocks = 1
		}
		coord := simenv.NewEnv(r.eng, r.prodNodes[prodBase[i]], mem)
		coord.Go(fmt.Sprintf("fleet.job%d", i), func(c rt.Ctx) {
			if job.StartAfter > 0 {
				c.Sleep(job.StartAfter)
			}
			tenant, err := plane.Admit(c, control.JobSpec{Name: job.Name, Quota: job.Quota})
			if err != nil {
				results[i] = FleetJobResult{Name: job.Name, Start: c.Now()}
				jobsDone++
				return
			}
			tenants[i] = tenant
			results[i].Name = job.Name
			results[i].Tenant = tenant.ID()
			results[i].Start = c.Now()
			zcfg := core.Config{
				BufferBlocks:   job.BufferBlocks,
				MaxBatchBlocks: job.MaxBatchBlocks,
				RoutePolicy:    job.RoutePolicy,
				DisableSteal:   job.DisableSteal,
			}
			if zcfg.RoutePolicy == core.RouteDirect {
				zcfg.RoutePolicy = core.RouteStaging
			}
			// The tenant's slice of the fleet, with tenant-scoped occupancy
			// as the routing signal: another tenant's backlog never distorts
			// this job's gauges.
			zcfg.Directory = tenant.Directory()
			zcfg.StagerLevel = func(addr int) *flow.Level {
				return host.TenantLevel(addr, tenant.ID())
			}
			cons := make([]*core.Consumer, job.Q)
			for q := 0; q < job.Q; q++ {
				n := 0
				for p := 0; p < job.P; p++ {
					if p*job.Q/job.P == q {
						n++
					}
				}
				env := simenv.NewEnv(r.eng, r.consNodes[consBase[i]+q], mem)
				cons[q] = core.NewConsumer(env, zcfg, consBase[i]+q, n, net.Inbox(consBase[i]+q), store)
			}
			consumers[i] = cons
			prods := make([]*core.Producer, job.P)
			for p := 0; p < job.P; p++ {
				env := simenv.NewEnv(r.eng, r.prodNodes[prodBase[i]+p], mem)
				dest := consBase[i] + p*job.Q/job.P
				prods[p] = core.NewStagedProducer(env, zcfg, prodBase[i]+p, dest, core.NoStager, net, store)
			}
			producers[i] = prods
			// Producer ranks: the fine-grain write loop of RunZipper, one
			// engine process per rank.
			for p := 0; p < job.P; p++ {
				p := p
				penv := simenv.NewEnv(r.eng, r.prodNodes[prodBase[i]+p], mem)
				penv.Go(fmt.Sprintf("fleet.job%d.prod%d", i, p), func(c rt.Ctx) {
					prod := prods[p]
					rankBlocks := int(float64(nBlocks) * w.skew(p))
					if rankBlocks < 1 {
						rankBlocks = 1
					}
					perBlock := w.StepTime / time.Duration(rankBlocks)
					for s := 0; s < w.Steps; s++ {
						for b := 0; b < rankBlocks; b++ {
							c.Sleep(perBlock)
							prod.Write(c, s, int64(b)*blockBytes, nil, blockBytes)
						}
					}
					prod.Close(c)
				})
			}
			// Consumer ranks: analyze at AnalyzePerByte.
			for q := 0; q < job.Q; q++ {
				q := q
				cenv := simenv.NewEnv(r.eng, r.consNodes[consBase[i]+q], mem)
				cenv.Go(fmt.Sprintf("fleet.job%d.cons%d", i, q), func(c rt.Ctx) {
					for {
						blk, ok := cons[q].Read(c)
						if !ok {
							break
						}
						c.Sleep(time.Duration(blk.Bytes) * w.AnalyzePerByte)
					}
				})
			}
			// The coordinator doubles as the job's janitor: once every
			// stream completes, release the tenant's capacity so the plane
			// redistributes the slice to the jobs still running.
			for _, prod := range prods {
				prod.Wait(c)
			}
			for _, cn := range cons {
				cn.Wait(c)
			}
			plane.Finish(c, tenant)
			results[i].End = c.Now()
			jobsDone++
		})
	}

	// The sampler records the per-tenant timeline until the last job is
	// done — the zippertrace fleet view's input.
	var samples []FleetSample
	if spec.Sample > 0 {
		senv := simenv.NewEnv(r.eng, r.stageNode[0], mem)
		senv.Go("fleet.sampler", func(c rt.Ctx) {
			for jobsDone < len(spec.Jobs) {
				c.Sleep(spec.Sample)
				snap := plane.Snapshot()
				sm := FleetSample{At: c.Now(), Tenants: make([]TenantSample, len(spec.Jobs))}
				for _, sn := range snap {
					ts := TenantSample{Stagers: len(sn.Stagers), QuotaBlocks: sn.QuotaBlocks, Active: sn.Active}
					for _, st := range stagers {
						if lv := st.TenantLevel(sn.ID); lv != nil {
							q, _ := lv.Get()
							ts.Resident += q
						}
					}
					sm.Tenants[sn.ID] = ts
				}
				samples = append(samples, sm)
			}
		})
	}

	// The fleet janitor: once every job released its tenant, stop the plane
	// and retire the shared tier (the directories are already empty, so the
	// Retire message is provably last).
	jenv := simenv.NewEnv(r.eng, r.stageNode[0], mem)
	jenv.Go("fleet.janitor", func(c rt.Ctx) {
		interval := spec.Reconcile
		if interval <= 0 {
			interval = 2 * time.Millisecond
		}
		for jobsDone < len(spec.Jobs) {
			c.Sleep(interval)
		}
		plane.Stop(c)
		for s, st := range stagers {
			net.Send(c, totQ+s, rt.Message{Retire: true})
			st.Wait(c)
		}
	})

	if err := r.eng.Run(); err != nil {
		return FleetResult{Fail: err.Error()}
	}

	res := FleetResult{OK: true, E2E: r.eng.Now(),
		Events: plane.Events(), Preemptions: plane.Preemptions(), Samples: samples}
	snap := plane.Snapshot()
	for i := range spec.Jobs {
		jr := &results[i]
		for _, p := range producers[i] {
			st := p.FinalStats()
			jr.BlocksWritten += st.BlocksWritten
			jr.BlocksSent += st.BlocksSent
			jr.BlocksRelayed += st.BlocksRelayed
			jr.BlocksStolen += st.BlocksStolen
			if st.WriteStall > jr.WriteStall {
				jr.WriteStall = st.WriteStall
			}
		}
		for _, cn := range consumers[i] {
			st := cn.FinalStats()
			jr.BlocksAnalyzed += st.BlocksAnalyzed
			jr.BlocksLost += st.BlocksLost
		}
		if tenants[i] != nil {
			for _, st := range stagers {
				jr.BlocksSpilled += st.TenantSpilled(tenants[i].ID())
			}
			for _, sn := range snap {
				if sn.ID == tenants[i].ID() {
					jr.Preempted = sn.Preempted
				}
			}
		}
		res.Jobs = append(res.Jobs, *jr)
	}
	for _, st := range stagers {
		fs := st.FinalStats()
		res.StagerRelayed = append(res.StagerRelayed, fs.BlocksIn)
		res.StagerSpills += fs.BlocksSpilled
		res.StagerNodeSeconds += fs.Finished.Seconds()
	}
	return res
}
