package main

import (
	"sort"
	"strings"

	"dpc"
	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// snapshotLayers reads every layer counter the benchmark uses from outside
// the program, at one instant. Counters the program exports only through
// obs read 0 when the world runs without it.
func snapshotLayers(sys *dpc.System, cl *dpc.Client, o *obs.Obs) map[string]int64 {
	m := sys.M
	s := map[string]int64{
		"nvme.cmds":     sys.Driver.Completed,
		"nvme.retries":  sys.Driver.Retries,
		"nvme.timeouts": sys.Driver.Timeouts,
		"pcie.dmas":     m.PCIe.DMAs.Total(),
		"pcie.bytes":    m.PCIe.DMABytesH2D.Total() + m.PCIe.DMABytesD2H.Total(),
		"pcie.mmios":    m.PCIe.MMIOs.Total(),
		"pcie.atomics":  m.PCIe.Atomics.Total(),
		"pcie.pios":     m.PCIe.PIOs.Total(),
		"dispatch.reqs": sys.Dispatcher.Requests.Total(),
		"net.msgs":      m.Net.Messages.Total(),
		"net.bytes":     m.Net.BytesSent.Total(),
	}
	if o != nil {
		s["nvme.doorbells"] = o.Counter("nvmefs.driver.doorbells").Value()
		s["wal.commits"] = o.Counter("wal.commits").Value()
		s["wal.bytes"] = o.Counter("wal.bytes").Value()
	}
	s["cache.hits"], s["cache.misses"] = cl.CacheStats()
	svc := sys.KVFSService()
	if sys.DFSCore != nil {
		svc = sys.DFSService()
		s["dfs.mds"] = sys.DFSBackend.MDSOps.Total()
		s["dfs.ds"] = sys.DFSBackend.DSOps.Total()
		s["dfs.ec"] = sys.DFSCore.ECBlocks.Total()
	}
	if ctl := svc.Ctl; ctl != nil {
		s["cache.fills"] = ctl.Fills.Total()
		s["cache.flushes"] = ctl.Flushes.Total()
		s["cache.evictions"] = ctl.Evictions.Total()
		s["cache.prefetches"] = ctl.Prefetches.Total()
		s["cache.errs"] = ctl.FlushErrs.Total() + ctl.FillErrs.Total()
	}
	if sys.KVCluster != nil {
		s["kv.ops"] = sys.KVCluster.Ops.Total()
	}
	if d := sys.WALDev; d != nil {
		s["ssd.reads"] = d.Reads.Total()
		s["ssd.writes"] = d.Writes.Total()
		s["ssd.barriers"] = d.Barriers.Total()
		s["ssd.bytes"] = d.BytesWrite.Total()
	}
	return s
}

// layerWindow is what one episode's measured window did in each layer.
type layerWindow struct {
	before, after map[string]int64
	ops           int64 // client ops completed in the window
	userBytes     int64 // bytes the workload wrote in the window
	fsyncs        int64
	inflightPeak  float64
	droppedSpans  int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer renders the counter-based per-layer metrics.
func (w *layerWindow) perLayer(out map[string]float64, m modeled, windowSec float64) {
	d := func(k string) float64 { return float64(w.after[k] - w.before[k]) }
	ops := float64(w.ops)
	for name, k := range map[string]string{
		"nvmefs.cmds_per_op":       "nvme.cmds",
		"pcie.dmas_per_op":         "pcie.dmas",
		"pcie.dma_bytes_per_op":    "pcie.bytes",
		"pcie.mmios_per_op":        "pcie.mmios",
		"pcie.atomics_per_op":      "pcie.atomics",
		"pcie.pios_per_op":         "pcie.pios",
		"dispatch.requests_per_op": "dispatch.reqs",
		"cache.fills_per_op":       "cache.fills",
		"cache.flushes_per_op":     "cache.flushes",
		"cache.evictions_per_op":   "cache.evictions",
		"cache.prefetches_per_op":  "cache.prefetches",
		"kv.ops_per_op":            "kv.ops",
		"fabric.msgs_per_op":       "net.msgs",
		"fabric.bytes_per_op":      "net.bytes",
		"dfs.mds_ops_per_op":       "dfs.mds",
		"dfs.ds_ops_per_op":        "dfs.ds",
		"dfs.ec_blocks_per_op":     "dfs.ec",
	} {
		out[name] = ratio(d(k), ops)
	}
	out["nvmefs.cmds_per_doorbell"] = ratio(d("nvme.cmds"), d("nvme.doorbells"))
	out["nvmefs.retries"] = d("nvme.retries")
	out["nvmefs.timeouts"] = d("nvme.timeouts")
	out["nvmefs.inflight_peak"] = w.inflightPeak
	out["cache.hit_ratio"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.misses"))
	out["cache.errs"] = d("cache.errs")
	out["wal.commits"] = d("wal.commits")
	out["wal.fsyncs_per_barrier"] = ratio(float64(w.fsyncs), d("ssd.barriers"))
	out["wal.bytes_per_fsync"] = ratio(d("wal.bytes"), float64(w.fsyncs))
	out["ssd.reads"] = d("ssd.reads")
	out["ssd.writes"] = d("ssd.writes")
	out["ssd.barriers"] = d("ssd.barriers")
	out["ssd.bytes_per_user_byte"] = ratio(d("ssd.bytes"), float64(w.userBytes))
	out["cpu.host_busy_us_per_op"] = ratio(m.hostCores*windowSec*1e6, ops)
	out["cpu.dpu_busy_us_per_op"] = ratio(m.dpuCores*windowSec*1e6, ops)
}

// spanPrefixes are the layers whose self time the trace gives, keyed by
// metric prefix and span-name prefix.
var spanPrefixes = []struct{ metric, span string }{
	{"nvmefs", "nvmefs."},
	{"dispatch", "dispatch."},
	{"cache", "cache."},
	{"kvfs", "kvfs."},
	{"dfs", "dfs."},
	{"ssd", "ssd."},
}

// spanMetrics renders the trace-based per-layer metrics: each layer's self
// time per client op, and the critical-path component shares of client
// root spans. Only spans that start inside the measured window count.
func spanMetrics(out map[string]float64, spans []obs.SpanData, from, to sim.Time, ops int64) {
	pr := prof.Analyze(spans)
	self := map[string]int64{}
	for _, s := range pr.Spans {
		if s.Data.Start < from || s.Data.Start >= to {
			continue
		}
		for _, p := range spanPrefixes {
			if strings.HasPrefix(s.Data.Name, p.span) {
				self[p.metric] += selfTime(s)
			}
		}
	}
	for _, p := range spanPrefixes {
		out[p.metric+".self_us_per_op"] = ratio(float64(self[p.metric])/1e3, float64(ops))
	}

	var attr prof.Attr
	for _, root := range pr.Roots {
		d := root.Data
		if d.Start < from || d.Start >= to || !strings.HasPrefix(d.Name, "client.") {
			continue
		}
		attr.AddAttr(prof.CPAttr(pr.CriticalPath(root)))
	}
	total := float64(attr.Sum())
	for c := obs.Component(0); c < obs.NumComponents; c++ {
		out["prof."+c.String()+"_share"] = ratio(float64(attr[c]), total)
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *prof.Span) int64 {
	var ivs [][2]sim.Time
	for _, kids := range [][]*prof.Span{s.Children, s.XChildren} {
		for _, c := range kids {
			lo, hi := max(c.Data.Start, s.Data.Start), min(c.Data.End, s.Data.End)
			if lo < hi {
				ivs = append(ivs, [2]sim.Time{lo, hi})
			}
		}
	}
	return s.Dur() - int64(unionLen(ivs))
}

// unionLen returns the total length covered by the intervals.
func unionLen(ivs [][2]sim.Time) sim.Time {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end sim.Time
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
