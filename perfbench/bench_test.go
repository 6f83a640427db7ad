package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"dpc/internal/obs"
)

// tiny is a workload small enough for unit tests: every check the real
// workloads run, over 128 blocks.
var tiny = spec{
	name: "tiny", threads: 4, files: 4, fileSize: 256 << 10, direct: true, readPct: 70,
	warmup: 500 * time.Microsecond, measure: 2 * time.Millisecond,
}

func TestCheckPassesAndIsDeterministic(t *testing.T) {
	a, err := runEpisode(&tiny, 7, episodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEpisode(&tiny, 7, episodeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || a.attempted == 0 {
		t.Fatalf("failed %d of %d ops", a.failed, a.attempted)
	}
	if a.m.count[opRead] == 0 || a.m.count[opWrite] == 0 {
		t.Fatalf("window saw no reads or writes: %+v", a.m)
	}
	if a.m != b.m {
		t.Fatalf("one seed gave two results:\n%+v\n%+v", a.m, b.m)
	}
	if a.leftover != 0 || b.leftover != 0 {
		t.Fatalf("goroutines left after teardown: %d, %d", a.leftover, b.leftover)
	}
}

// TestCanaryCorruptReadFails flips one byte of one read and expects the
// check to count exactly that read as failed.
func TestCanaryCorruptReadFails(t *testing.T) {
	ep, err := runEpisode(&tiny, 7, episodeOpts{corruptRead: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != 1 {
		t.Fatalf("corrupted read: %d failures, want 1", ep.failed)
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	var cpu bytes.Buffer
	plain, err := runEpisode(&tiny, 3, episodeOpts{cpuProfile: &cpu})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runEpisode(&tiny, 3, episodeOpts{o: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.m != traced.m {
		t.Fatalf("tracing changed modeled results:\n%+v\n%+v", plain.m, traced.m)
	}
	if len(traced.spans) == 0 || traced.layers.droppedSpans != 0 {
		t.Fatalf("%d spans, %d dropped", len(traced.spans), traced.layers.droppedSpans)
	}
	vals := map[string]float64{}
	spanMetrics(vals, traced.spans, traced.winStart, traced.winEnd, traced.layers.ops)
	if vals["nvmefs.self_us_per_op"] <= 0 || vals["kvfs.self_us_per_op"] <= 0 {
		t.Fatalf("no self time from spans: %v", vals)
	}
	var share float64
	for _, c := range []string{"cpu", "dma", "mmio", "ssd", "wait", "other"} {
		share += vals["prof."+c+"_share"]
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("critical-path shares sum to %v", share)
	}
}

func TestHostSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := runEpisode(&tiny, 1, episodeOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range hostModules {
		sum += shares[m]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("host shares sum to %v: %v", sum, shares)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dpc/internal/cache.(*Host).HasDirty":     "cache",
		"dpc/internal/gf256.Mul":                  "ec",
		"dpc/internal/nvme.(*SQE).Marshal":        "nvmefs",
		"dpc/internal/sim.(*Mailbox[...]).Recv":   "sim",
		"dpc/internal/model.(*Machine).AllocHost": "other",
		"dpc.(*File).Read":                        "client",
		"main.(*runner).read":                     "bench",
		"runtime.chansend":                        "",
		"dpc/internal/kvfs.(*FS).Read.func1":      "kvfs",
		"dpc/internal/kv.(*Cluster).Get":          "kv",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, js []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			if js[i].Name != d.name || js[i].Unit != d.unit || js[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, js[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
}
