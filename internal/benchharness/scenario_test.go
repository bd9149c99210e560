package benchharness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// row builds a hand-made row from alternating key, value pairs.
func row(variant string, kv ...any) Row {
	r := Row{Variant: variant, Values: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		r.Values[kv[i].(string)] = kv[i+1].(float64)
	}
	return r
}

// failoverRows is a passing failover row set with one value replaced.
func failoverRows(variant, key string, val float64) Rows {
	rs := Rows{
		row("fault-off", "blocks_lost", 0.0, "evictions", 0.0, "mean_recovery_ms", 0.0),
		row("fault-on-quiet", "blocks_lost", 0.0, "evictions", 0.0, "mean_recovery_ms", 0.0),
		row("fault-on-1-kill", "blocks_lost", 0.0, "evictions", 1.0, "mean_recovery_ms", 40.0),
		row("fault-on-2-kills", "blocks_lost", 0.0, "evictions", 2.0, "mean_recovery_ms", 2000.0),
	}
	for _, r := range rs {
		if r.Variant == variant {
			r.Values[key] = val
		}
	}
	return rs
}

// gateCases holds, per "scenario/gate", one row set that passes the gate and
// one that violates it. Where the bound is exact in floating point the
// cases sit on it, pinning the comparison's strictness.
var gateCases = map[string]struct{ pass, fail Rows }{
	"batching/batched-msgs-per-block": {
		pass: Rows{row("seed-1x-unpooled", "msgs_per_block", 1.0), row("pooled-batch=4", "msgs_per_block", 0.5)},
		fail: Rows{row("seed-1x-unpooled", "msgs_per_block", 1.0), row("pooled-batch=4", "msgs_per_block", 0.5001)},
	},
	"batching/pooled-alloc-per-block": {
		pass: Rows{row("seed-1x-unpooled", "alloc_bytes_per_block", 32768.0), row("pooled-batch=4", "alloc_bytes_per_block", 150.0)},
		fail: Rows{row("seed-1x-unpooled", "alloc_bytes_per_block", 150.0), row("pooled-batch=4", "alloc_bytes_per_block", 150.0)},
	},
	"staging/hybrid-write-stall": {
		pass: Rows{row("in-situ", "write_stall_s", 1.0), row("hybrid", "write_stall_s", 0.1)},
		fail: Rows{row("in-situ", "write_stall_s", 1.0), row("hybrid", "write_stall_s", 1.0)},
	},
	"staging/hybrid-via-disk": {
		pass: Rows{row("in-situ", "blocks_via_disk", 3000.0), row("hybrid", "blocks_via_disk", 30.0)},
		fail: Rows{row("in-situ", "blocks_via_disk", 0.0), row("hybrid", "blocks_via_disk", 0.0)},
	},
	"adaptive/slow-consumer-write-stall": {
		pass: Rows{row("slow-consumer/hybrid", "write_stall_s", 1.5), row("slow-consumer/adaptive", "write_stall_s", 0.8)},
		fail: Rows{row("slow-consumer/hybrid", "write_stall_s", 0.009), row("slow-consumer/adaptive", "write_stall_s", 0.116)},
	},
	"adaptive/slow-consumer-relayed": {
		pass: Rows{row("slow-consumer/adaptive", "blocks_relayed", 1.0)},
		fail: Rows{row("slow-consumer/adaptive", "blocks_relayed", 0.0)},
	},
	"adaptive/bursty-write-stall": {
		pass: Rows{row("bursty/hybrid", "write_stall_s", 2.0), row("bursty/adaptive", "write_stall_s", 3.0)},
		fail: Rows{row("bursty/hybrid", "write_stall_s", 2.0), row("bursty/adaptive", "write_stall_s", 3.01)},
	},
	"elastic/elastic-write-stall": {
		pass: Rows{row("fixed-small", "write_stall_s", 0.9), row("elastic", "write_stall_s", 0.4)},
		fail: Rows{row("fixed-small", "write_stall_s", 0.4), row("elastic", "write_stall_s", 0.4)},
	},
	"elastic/elastic-node-seconds": {
		pass: Rows{row("fixed-large", "stager_node_seconds", 5.0), row("elastic", "stager_node_seconds", 2.5)},
		fail: Rows{row("fixed-large", "stager_node_seconds", 5.0), row("elastic", "stager_node_seconds", 5.0)},
	},
	"elastic/elastic-scaler-cycled": {
		pass: Rows{row("elastic", "scale_grows", 1.0, "scale_drains", 1.0)},
		fail: Rows{row("elastic", "scale_grows", 5.0, "scale_drains", 0.0)},
	},
	"placement/least-occupancy-imbalance": {
		pass: Rows{row("rank-affine", "relay_imbalance_max_over_mean", 3.0), row("least-occupancy", "relay_imbalance_max_over_mean", 1.5)},
		fail: Rows{row("rank-affine", "relay_imbalance_max_over_mean", 3.0), row("least-occupancy", "relay_imbalance_max_over_mean", 1.51)},
	},
	"placement/least-occupancy-write-stall": {
		pass: Rows{row("rank-affine", "write_stall_s", 0.3), row("least-occupancy", "write_stall_s", 0.02)},
		fail: Rows{row("rank-affine", "write_stall_s", 0.3), row("least-occupancy", "write_stall_s", 0.3)},
	},
	"failover/blocks-lost": {
		pass: failoverRows("", "", 0),
		fail: failoverRows("fault-on-2-kills", "blocks_lost", 1),
	},
	"failover/evictions-cover-kills": {
		pass: failoverRows("fault-on-2-kills", "evictions", 3),
		fail: failoverRows("fault-on-2-kills", "evictions", 1),
	},
	"failover/mean-recovery-ms": {
		pass: failoverRows("", "", 0),
		fail: failoverRows("fault-on-1-kill", "mean_recovery_ms", 2000.5),
	},
	"failover/quiet-evictions": {
		pass: failoverRows("", "", 0),
		fail: failoverRows("fault-on-quiet", "evictions", 1),
	},
	"wire/vectored-ns-per-block": {
		pass: Rows{row("frame:copy", "ns_per_block", 100.0), row("frame:vectored", "ns_per_block", 80.0)},
		fail: Rows{row("frame:copy", "ns_per_block", 100.0), row("frame:vectored", "ns_per_block", 81.0)},
	},
	"wire/vectored-allocs-per-frame": {
		pass: Rows{row("frame:vectored", "allocs_per_frame", 1.5)},
		fail: Rows{row("frame:vectored", "allocs_per_frame", 1.51)},
	},
	"wire/compress-bytes-on-wire": {
		pass: Rows{row("raw", "bytes_on_wire", 1000.0), row("compress", "bytes_on_wire", 500.0)},
		fail: Rows{row("raw", "bytes_on_wire", 1000.0), row("compress", "bytes_on_wire", 501.0)},
	},
	"control/consolidation-saving": {
		pass: Rows{row("shared", "stager_node_seconds", 0.75), row("private-total", "stager_node_seconds", 1.0)},
		fail: Rows{row("shared", "stager_node_seconds", 0.76), row("private-total", "stager_node_seconds", 1.0)},
	},
	"control/high-priority-stall": {
		pass: Rows{row("shared/quiet", "write_stall_s", 3.0), row("yardstick:quiet/quiet", "write_stall_s", 2.0)},
		fail: Rows{row("shared/quiet", "write_stall_s", 3.5), row("yardstick:quiet/quiet", "write_stall_s", 2.0)},
	},
	"control/preemptions": {
		pass: Rows{row("shared", "preemptions", 1.0)},
		fail: Rows{row("shared", "preemptions", 0.0)},
	},
}

func TestGateTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios {
		for _, g := range sc.Gates {
			id := sc.Name + "/" + g.Name
			seen[id] = true
			c, ok := gateCases[id]
			if !ok {
				t.Errorf("%s: no gate case", id)
				continue
			}
			if v := g.Check(c.pass); !v.Pass {
				t.Errorf("%s: passing rows fail: %+v", id, v)
			}
			if v := g.Check(c.fail); v.Pass {
				t.Errorf("%s: violating rows pass: %+v", id, v)
			}
		}
	}
	for id := range gateCases {
		if !seen[id] {
			t.Errorf("gate case %s names no registered gate", id)
		}
	}
	if len(seen) != 22 {
		t.Errorf("%d gates registered, want 22", len(seen))
	}
}

// TestCommittedReports ties the registry to the committed baselines: the
// scenario names are unique and each one's BENCH_<name>.json is a report of
// that scenario judged on the registered gates.
func TestCommittedReports(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range Scenarios {
		if names[sc.Name] {
			t.Fatalf("scenario %q registered twice", sc.Name)
		}
		names[sc.Name] = true
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+sc.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("BENCH_%s.json: %v", sc.Name, err)
		}
		if rep.Scenario != sc.Name {
			t.Errorf("BENCH_%s.json reports scenario %q", sc.Name, rep.Scenario)
		}
		var want, got []string
		for _, g := range sc.Gates {
			want = append(want, g.Name)
		}
		for _, v := range rep.Gates {
			got = append(got, v.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("BENCH_%s.json judges gates %v, registry has %v", sc.Name, got, want)
		}
	}
}

// TestControlDeterministic runs the simulated control scenario twice: in
// virtual time its report must reproduce byte for byte.
func TestControlDeterministic(t *testing.T) {
	var sc Scenario
	for _, s := range Scenarios {
		if s.Name == "control" {
			sc = s
		}
	}
	var reps [2][]byte
	for i := range reps {
		rep := sc.Execute(os.Stderr)
		if !rep.Pass {
			t.Fatalf("control failed: %s %v", rep.Error, rep.Failed())
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = b
	}
	if !bytes.Equal(reps[0], reps[1]) {
		t.Fatalf("control reports differ:\n%s\n%s", reps[0], reps[1])
	}
}

// TestExecuteFloorAndFailure checks that a scenario's GOMAXPROCS floor
// holds during its run only, with one warning line, and that a failed run
// or gate still yields a report naming what failed.
func TestExecuteFloorAndFailure(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	var during int
	var warn bytes.Buffer
	sc := Scenario{
		Name: "probe", MinProcs: prev + 1,
		Run: func() (Rows, error) {
			during = runtime.GOMAXPROCS(0)
			return Rows{row("a", "x", 1.0)}, nil
		},
		Gates: []Gate{
			{Name: "x-small", Op: "<", Eval: func(r Rows) (float64, float64) { return r.Val("a", "x"), 1 }},
			{Name: "x-one", Op: "==", Eval: func(r Rows) (float64, float64) { return r.Val("a", "x"), 1 }},
		},
	}
	rep := sc.Execute(&warn)
	if during != prev+1 || runtime.GOMAXPROCS(0) != prev || rep.Host.GOMAXPROCS != prev+1 {
		t.Errorf("GOMAXPROCS %d during run (report %d), %d after; want %d then %d",
			during, rep.Host.GOMAXPROCS, runtime.GOMAXPROCS(0), prev+1, prev)
	}
	if n := strings.Count(warn.String(), "\n"); n != 1 {
		t.Errorf("floor printed %d lines, want 1: %q", n, warn.String())
	}
	if rep.Pass || strings.Join(rep.Failed(), ",") != "x-small" || len(rep.Rows) != 1 {
		t.Errorf("report %+v, want one row and only x-small failed", rep)
	}

	sc.MinProcs = 0
	sc.Run = func() (Rows, error) { return Rows{row("a", "x", 1.0)}, errors.New("analyzed 1 of 2 blocks") }
	warn.Reset()
	rep = sc.Execute(&warn)
	if rep.Pass || rep.Error == "" || strings.Join(rep.Failed(), ",") != "run" || len(rep.Gates) != 0 || warn.Len() != 0 {
		t.Errorf("failed run: report %+v, warning %q", rep, warn.String())
	}
}

func TestRunJobRejectsBadSchedule(t *testing.T) {
	j := BatchingVariants(10)[0].Job
	j.Config.SpoolDir = t.TempDir()
	j.Burst = []int{10, 10}
	if _, err := RunJob(j); err == nil {
		t.Error("a two-producer schedule on a one-producer config ran")
	}
	j.Burst, j.Kills = []int{10}, 1
	if _, err := RunJob(j); err == nil {
		t.Error("a kill schedule with no stagers ran")
	}
}
