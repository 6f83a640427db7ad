// Command perfbench is the repository benchmark. One run drives one
// workload against the public dpc API in this process and prints, as its
// last line, one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). See README.md for every metric and workload.
//
//	go build -o perfbench . && ./perfbench -workload kvfs-direct -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "kvfs-direct", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the accesses the threads issue")
	seconds := flag.Int("seconds", 10, "host seconds of timed windows to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	procs := flag.Int("gomaxprocs", 1, "GOMAXPROCS for the run (capped at the CPU count)")
	flag.Parse()

	sp := lookup(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *procs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, gomaxprocs %d)\n",
			*workload, *seconds, *trace, *procs)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(*procs, runtime.NumCPU()))

	var res *result
	var err error
	if *trace == 0 {
		res, err = runPlain(sp, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runTraced(sp, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// subSeeds is the number of distinct worlds one untraced run pools its
// modeled results over. World i of a run at seed s uses workload seed
// s*subSeeds+i, so a run gathers subSeeds times the samples of one world.
const subSeeds = 8

func worldSeed(seed int64, i int) int64 { return seed*subSeeds + int64(i%subSeeds) }

// runPlain builds the subSeeds worlds of the run, then builds them again in
// turn until the timed windows add up to the budget, at least one repeat.
// Modeled metrics pool the first subSeeds worlds; a repeat must reproduce
// its first build exactly. Host metrics cover every world.
func runPlain(sp *spec, seed int64, budget time.Duration) (*result, error) {
	var eps []*episode
	var timed time.Duration
	for len(eps) <= subSeeds || timed < budget {
		ep, err := runEpisode(sp, worldSeed(seed, len(eps)), episodeOpts{})
		if err != nil {
			return nil, err
		}
		logEpisode(sp, len(eps), ep)
		eps = append(eps, ep)
		timed += ep.hostWindow
		// Every world faults its memory in afresh rather than sometimes
		// reusing pages the world before left resident.
		debug.FreeOSMemory()
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups, rates []float64
	for i, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		if first := eps[i%subSeeds]; ep.m != first.m {
			fmt.Fprintf(os.Stderr, "perfbench: world seed %d gave two results:\n%+v\n%+v\n",
				worldSeed(seed, i), first.m, ep.m)
			res.Correct = false
		}
		if ep.leftover != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d goroutines left after teardown\n", ep.leftover)
			res.Correct = false
		}
		setups = append(setups, ep.setup.Seconds())
		rates = append(rates, float64(ep.hostOps)/ep.hostCPU.Seconds())
	}
	res.Correct = res.Correct && res.Failed == 0
	var ws []window
	for _, ep := range eps[:subSeeds] {
		ws = append(ws, ep.w)
	}
	m := summarize(ws...)
	vals := map[string]float64{
		"setup_s":        median(setups),
		"host_ops_per_s": median(rates),
		"peak_rss_mb":    peakRSSMiB(),
		"iops":           m.iops,
		"read_mean_us":   m.mean[opRead],
		"read_p99_us":    m.p99[opRead],
		"write_mean_us":  m.mean[opWrite],
		"write_p99_us":   m.p99[opWrite],
		"host_cores":     m.hostCores,
		"dpu_cores":      m.dpuCores,
	}
	return res, fillMetrics(res, vals, endToEndMetrics)
}

// runTraced runs the run's first world twice: untraced under a Go CPU
// profile, then with obs spans and profiling on. The two must agree on
// every modeled result; the counters and spans of the traced world and the
// CPU profile of the untraced one give the per-layer metrics.
func runTraced(sp *spec, seed int64) (*result, error) {
	switchNs := simSwitchNs()

	var cpu bytes.Buffer
	plain, err := runEpisode(sp, worldSeed(seed, 0), episodeOpts{cpuProfile: &cpu})
	if err != nil {
		return nil, err
	}
	logEpisode(sp, 0, plain)
	runtime.GC()
	o := obs.New()
	traced, err := runEpisode(sp, worldSeed(seed, 0), episodeOpts{o: o})
	if err != nil {
		return nil, err
	}
	logEpisode(sp, 1, traced)

	res := &result{Correct: true, Metrics: map[string]metric{},
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed}
	if plain.m != traced.m {
		fmt.Fprintf(os.Stderr, "perfbench: the untraced and traced builds of one world disagree:\nuntraced %+v\ntraced   %+v\n", plain.m, traced.m)
		res.Correct = false
	}
	if n := traced.layers.droppedSpans; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: tracer dropped %d spans\n", n)
		res.Correct = false
	}
	left := max(plain.leftover, traced.leftover)
	if left != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d goroutines left after teardown\n", left)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	vals := map[string]float64{}
	m := traced.m
	vals["client.reads"] = float64(m.count[opRead])
	vals["client.writes"] = float64(m.count[opWrite])
	vals["client.fsyncs"] = float64(m.count[opFsync])
	vals["client.read_p50_us"] = m.p50[opRead]
	vals["client.write_p50_us"] = m.p50[opWrite]
	vals["client.fsync_p50_us"] = m.p50[opFsync]
	vals["client.fsync_p99_us"] = m.p99[opFsync]
	vals["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	vals["sim.switch_ns"] = switchNs
	vals["sim.goroutines_left"] = float64(left)
	windowSec := time.Duration(traced.winEnd - traced.winStart).Seconds()
	traced.layers.perLayer(vals, m, windowSec)
	spanMetrics(vals, traced.spans, traced.winStart, traced.winEnd, traced.layers.ops)
	shares, err := hostShares(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	for mod, v := range shares {
		vals["host."+mod+".self_pct"] = v
	}
	vals["trace.host_overhead_ratio"] = traced.hostCPU.Seconds() / plain.hostCPU.Seconds()
	vals["trace.dropped_spans"] = float64(traced.layers.droppedSpans)

	return res, fillMetrics(res, vals, perLayerMetrics)
}

// fillMetrics copies the listed metrics from vals into res, with units.
func fillMetrics(res *result, vals map[string]float64, defs []metricDef) error {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s not computed", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return nil
}

// simSwitchNs times the host cost of one Proc.Sleep round trip through the
// public sim API: the median of five fixed loops.
func simSwitchNs() float64 {
	const sleeps = 100_000
	var per []float64
	for i := 0; i < 5; i++ {
		eng := sim.NewEngine(1)
		eng.Go("switch", func(p *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Nanosecond)
			}
		})
		t := time.Now()
		eng.Run()
		per = append(per, float64(time.Since(t).Nanoseconds())/sleeps)
		eng.Shutdown()
	}
	return median(per)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func logEpisode(sp *spec, i int, ep *episode) {
	fmt.Fprintf(os.Stderr, "%s world %d: setup %.3fs window %.3fs ops %d (%.0f/cpu-s) iops %.0f read mean %.1fus p99 %.1fus write mean %.1fus p99 %.1fus fsync p50 %.1fus failed %d/%d\n",
		sp.name, i, ep.setup.Seconds(), ep.hostWindow.Seconds(), ep.hostOps,
		float64(ep.hostOps)/ep.hostCPU.Seconds(), ep.m.iops,
		ep.m.mean[opRead], ep.m.p99[opRead], ep.m.mean[opWrite], ep.m.p99[opWrite], ep.m.p50[opFsync],
		ep.failed, ep.attempted)
}
