// Package benchharness is the single source of truth for the committed
// baselines: a registry of scenarios (Scenarios), each a set of variants run
// on the real platform through one job runner (RunJob) or on the simulated
// platform, with the gates that judge the variants against each other.
// `zipperbench baseline` executes the registry and writes one
// BENCH_<scenario>.json per scenario in one schema; the in-repo benchmarks
// (bench_test.go) build their jobs from the same variant constructors, so
// the committed baselines and the benchmarks measure the same workloads.
package benchharness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"zipper"
)

// Row is one variant's measurement: named numbers.
type Row struct {
	Variant string             `json:"variant"`
	Values  map[string]float64 `json:"values"`
}

// Rows is a scenario's measurements in run order.
type Rows []Row

// Val returns the named value of the named variant's row. A miss panics:
// only a gate that names a variant or metric its own scenario never
// produces can cause one.
func (rs Rows) Val(variant, key string) float64 {
	for _, r := range rs {
		if r.Variant == variant {
			v, ok := r.Values[key]
			if !ok {
				panic(fmt.Sprintf("benchharness: row %q has no %q", variant, key))
			}
			return v
		}
	}
	panic(fmt.Sprintf("benchharness: no row %q", variant))
}

// Gate is one pass/fail claim on a scenario's rows: Eval derives the
// measured value and the bound it must meet, Op compares them.
type Gate struct {
	Name string
	Op   string // "<", "<=", ">", ">=" or "=="
	Eval func(Rows) (value, bound float64)
}

// Verdict is one gate's outcome.
type Verdict struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
}

// Check evaluates g on rs.
func (g Gate) Check(rs Rows) Verdict {
	v, b := g.Eval(rs)
	var pass bool
	switch g.Op {
	case "<":
		pass = v < b
	case "<=":
		pass = v <= b
	case ">":
		pass = v > b
	case ">=":
		pass = v >= b
	case "==":
		pass = v == b
	default:
		panic(fmt.Sprintf("benchharness: gate %q has unknown op %q", g.Name, g.Op))
	}
	return Verdict{Name: g.Name, Value: v, Op: g.Op, Bound: b, Pass: pass}
}

// Scenario is one committed baseline.
type Scenario struct {
	Name string
	// MinProcs floors GOMAXPROCS while the scenario runs (0: no floor). The
	// floored scenarios run ~14–18 runtime threads whose interleaving is the
	// phenomenon being measured: on a few-core host the default GOMAXPROCS
	// serializes the pipeline into lockstep, no queue ever forms, and a
	// crash never interrupts in-flight work. Raising GOMAXPROCS, even above
	// the physical core count, restores concurrent producer/stager/consumer
	// progress.
	MinProcs int
	// Params describes the workload and its variants, reported verbatim.
	Params map[string]any
	Run    func() (Rows, error)
	Gates  []Gate
}

// Host is where a report was measured.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Report is the file layout of every BENCH_<scenario>.json.
type Report struct {
	Scenario string         `json:"scenario"`
	Host     Host           `json:"host"`
	Params   map[string]any `json:"params"`
	Rows     Rows           `json:"rows"`
	Gates    []Verdict      `json:"gates"`
	// Error is the correctness check or setup failure that stopped the
	// run; the gates are not judged on a partial row set.
	Error string `json:"error,omitempty"`
	Pass  bool   `json:"pass"`
}

// Failed names the failed gates, or "run" when the run itself failed.
func (r Report) Failed() []string {
	if r.Error != "" {
		return []string{"run"}
	}
	var names []string
	for _, v := range r.Gates {
		if !v.Pass {
			names = append(names, v.Name)
		}
	}
	return names
}

// Write stores r as indented JSON at path.
func (r Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s report: %w", r.Scenario, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Execute runs sc under its GOMAXPROCS floor, restoring the previous value
// afterwards, and judges its gates. The floor's warning goes to w.
func (sc Scenario) Execute(w io.Writer) Report {
	if procs := runtime.GOMAXPROCS(0); procs < sc.MinProcs {
		fmt.Fprintf(w, "%s: raising GOMAXPROCS %d -> %d for this scenario; on few-core hosts its timing numbers describe the scheduler, not the code\n",
			sc.Name, procs, sc.MinProcs)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.MinProcs))
	}
	rep := Report{
		Scenario: sc.Name,
		Host: Host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(),
		},
		Params: sc.Params,
	}
	rows, err := sc.Run()
	rep.Rows = rows
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	rep.Pass = true
	for _, g := range sc.Gates {
		v := g.Check(rows)
		rep.Gates = append(rep.Gates, v)
		rep.Pass = rep.Pass && v.Pass
	}
	return rep
}

// Variant is one named job of a realenv scenario.
type Variant struct {
	Name string
	Job  Job
}

// runVariants measures each variant in order; on a failure it returns the
// rows measured so far with the error.
func runVariants(vs []Variant) (Rows, error) {
	var rows Rows
	for _, v := range vs {
		r, err := measure(v)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// measure runs one variant on a fresh spool directory, checks that every
// block written was analyzed, and reports the job's stats with the wall
// time and heap allocation around the run.
func measure(v Variant) (Row, error) {
	dir, err := os.MkdirTemp("", "zipperbench")
	if err != nil {
		return Row{}, err
	}
	defer os.RemoveAll(dir)
	j := v.Job
	j.Config.SpoolDir = dir

	// No collection is forced first: TotalAlloc is cumulative, and a forced
	// GC shrinks the pacer's heap target so the run itself collects more
	// often — extra CPU work that competes with the fault plane's 25 ms
	// lease renewals on a small host.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	st, err := RunJob(j)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", v.Name, err)
	}
	total := j.Total()
	if st.BlocksAnalyzed != total {
		return Row{}, fmt.Errorf("%s: analyzed %d of %d blocks", v.Name, st.BlocksAnalyzed, total)
	}

	vals := map[string]float64{
		"blocks":                        float64(st.BlocksWritten),
		"blocks_analyzed":               float64(st.BlocksAnalyzed),
		"blocks_direct":                 float64(st.BlocksSent),
		"blocks_relayed":                float64(st.BlocksRelayed),
		"blocks_via_disk":               float64(st.BlocksStolen),
		"stager_spills":                 float64(st.BlocksSpilled),
		"messages":                      float64(st.Messages),
		"write_stall_s":                 st.WriteStall,
		"ns_per_block":                  float64(elapsed.Nanoseconds()) / float64(total),
		"alloc_bytes_per_block":         float64(m1.TotalAlloc-m0.TotalAlloc) / float64(total),
		"bytes_on_wire":                 float64(st.BytesOnWire),
		"bytes_reduced":                 float64(st.BytesReduced),
		"stager_node_seconds":           st.StagerNodeSeconds,
		"relay_imbalance_max_over_mean": st.RelayImbalance,
		"evictions":                     float64(st.Evictions),
		"blocks_replayed":               float64(st.ReplayedBlocks),
		"blocks_lost":                   float64(st.BlocksLost),
		"mean_recovery_ms":              float64(meanRecovery(st.FailoverEvents)) / 1e6,
	}
	vals["msgs_per_block"], vals["throughput_mb_per_s"] = 0, 0
	if st.BlocksSent > 0 {
		vals["msgs_per_block"] = float64(st.Messages) / float64(st.BlocksSent)
	}
	if ns := elapsed.Nanoseconds(); ns > 0 {
		vals["throughput_mb_per_s"] = float64(total*int64(j.BlockBytes)) / (float64(ns) / 1e9) / 1e6
	}
	for i, s := range st.Stagers {
		vals[fmt.Sprintf("relayed_stager_%d", i)] = float64(s.BlocksIn)
	}
	pool := j.Config.Staging.Stagers
	if j.Config.Staging.Elastic.Enabled {
		pool = j.Config.Staging.Elastic.MinStagers
	}
	var grows, drains int
	for _, ev := range st.ScaleEvents {
		switch ev.Action {
		case "grow":
			grows++
		case "drain":
			drains++
		}
		pool = max(pool, ev.PoolSize)
	}
	vals["scale_grows"], vals["scale_drains"], vals["pool_peak"] = float64(grows), float64(drains), float64(pool)
	return Row{Variant: v.Name, Values: vals}, nil
}

// meanRecovery averages the evict→respawn latency over the eviction
// timeline; evictions that were never respawned (the run ended first) are
// excluded.
func meanRecovery(events []zipper.FailoverEvent) time.Duration {
	evictAt := map[int]time.Duration{}
	var sum time.Duration
	var n int
	for _, ev := range events {
		switch ev.Kind {
		case "evict":
			evictAt[ev.Addr] = ev.At
		case "respawn":
			if at, ok := evictAt[ev.Addr]; ok {
				sum += ev.At - at
				n++
				delete(evictAt, ev.Addr)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// jobParams describes a variant's job for the report.
func jobParams(j Job) map[string]any {
	c := j.Config
	return map[string]any{
		"producers":                 c.Producers,
		"consumers":                 c.Consumers,
		"buffer_blocks":             c.BufferBlocks,
		"window":                    c.Window,
		"max_batch_blocks":          c.MaxBatchBlocks,
		"disable_steal":             c.DisableSteal,
		"tcp":                       c.TCPAddr != "",
		"stagers":                   c.Staging.Stagers,
		"stager_buffer_blocks":      c.Staging.BufferBlocks,
		"route_policy":              c.Staging.RoutePolicy.String(),
		"placement":                 c.Staging.Placement.String(),
		"reduce":                    c.Staging.Reduce.Operator.String(),
		"elastic":                   c.Staging.Elastic.Enabled,
		"fault":                     c.Fault.Enabled,
		"heartbeat_ms":              float64(c.Fault.Heartbeat) / 1e6,
		"lease_ttl_ms":              float64(c.Fault.LeaseTTL) / 1e6,
		"bursts":                    j.Bursts,
		"burst_blocks_per_producer": j.Burst,
		"burst_pause_s":             j.Pause.Seconds(),
		"block_bytes":               j.BlockBytes,
		"analyze_us_per_block":      float64(j.Analyze) / 1e3,
		"pooled":                    !j.Unpooled,
		"kills":                     j.Kills,
	}
}

// variantParams maps each variant's name to its job description.
func variantParams(vs []Variant) map[string]any {
	m := map[string]any{}
	for _, v := range vs {
		m[v.Name] = jobParams(v.Job)
	}
	return m
}
