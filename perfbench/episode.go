package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"dpc"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// step is the virtual-time slice the benchmark advances the engine by while
// it waits for its own procs to finish. Event order does not depend on it.
const step = sim.Time(time.Millisecond)

// episodeOpts are the per-episode switches of one run.
type episodeOpts struct {
	// o, when set, is attached to the world with span profiling on.
	o *obs.Obs
	// cpuProfile, when set, receives a Go CPU profile of the timed window.
	cpuProfile *bytes.Buffer
	// corruptRead, when positive, flips one byte of the n-th workload read
	// before it is checked. The canary test uses it.
	corruptRead int64
}

// modeled holds an episode's virtual-time results. A given workload and
// seed must reproduce every field bit for bit.
type modeled struct {
	ops                 int64 // client ops completed in the measured window
	iops                float64
	count               [numOpKinds]int64
	mean, p50, p99      [numOpKinds]float64 // µs
	hostCores, dpuCores float64
}

// episode is one world built, driven, checked and torn down.
type episode struct {
	setup      time.Duration // CPU time of dpc.New through prefill completion
	hostWindow time.Duration // wall time of warm-up, measure and drain
	hostCPU    time.Duration // CPU time of the same
	hostOps    int64         // client ops completed in hostWindow
	w          window
	m          modeled // of w alone
	attempted  int64
	failed     int64
	leftover   int // goroutines still alive after teardown
	layers     *layerWindow
	spans      []obs.SpanData
	winStart   sim.Time
	winEnd     sim.Time
}

// blockState tracks the writes of one block. Only its owner writes it, one
// write at a time.
type blockState struct {
	acked  uint32 // seq of the last acknowledged write (0: prefill)
	issued uint32 // seq of the last issued write
}

type runner struct {
	sp    *spec
	l     *layout
	sys   *dpc.System
	cl    *dpc.Client
	files []*dpc.File
	state []blockState
	opts  episodeOpts

	winStart, winEnd sim.Time
	lat              [numOpKinds][]int64 // ns, ops completed in the window
	attempted        int64
	failed           int64
	completed        int64
	windowOps        int64
	userBytes        int64 // bytes written by workload ops in the window
	reads            int64
	live             int
}

func newSystem(sp *spec, o *obs.Obs) *dpc.System {
	opts := dpc.DefaultOptions()
	opts.Model.HostMemMB = 256
	opts.Model.DPUMemMB = 8
	opts.Model.Obs = o
	if sp.dfs {
		opts.EnableKVFS = false
		opts.EnableDFS = true
		opts.Model.HostMemMB = 320
		opts.NvmeFS.Queues = 16
		opts.NvmeFS.SlotsPerQ = 16
		opts.NvmeFS.MaxIO = 256 * 1024
	}
	opts.WAL.Enabled = sp.wal
	return dpc.New(opts)
}

// runUntilDone steps the engine until done reports true.
func runUntilDone(sys *dpc.System, done func() bool) {
	for !done() {
		sys.RunUntil(sys.Now() + step)
	}
}

// runEpisode builds a world for sp, prefills it, drives the closed loop,
// checks every read and then every acknowledged write, and tears it down.
func runEpisode(sp *spec, seed int64, opts episodeOpts) (*episode, error) {
	baseGoroutines := runtime.NumGoroutine()
	t0 := cpuTime()
	if opts.o != nil {
		opts.o.EnableProfiling()
	}
	r := &runner{sp: sp, l: newLayout(sp), sys: newSystem(sp, opts.o), opts: opts}
	r.state = make([]blockState, sp.blocks())
	if sp.dfs {
		r.cl = r.sys.DFSClient()
	} else {
		r.cl = r.sys.KVFSClient()
	}
	if err := r.prefill(); err != nil {
		r.teardown()
		return nil, err
	}
	ep := &episode{setup: cpuTime() - t0}

	start := r.sys.Now()
	r.winStart = start + sim.Time(sp.warmup)
	r.winEnd = r.winStart + sim.Time(sp.measure)
	if opts.cpuProfile != nil {
		if err := pprof.StartCPUProfile(opts.cpuProfile); err != nil {
			r.teardown()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	// Every timed window starts from a fresh collection, so its share of GC
	// work does not depend on where the previous world left the heap.
	runtime.GC()
	t1, c1 := time.Now(), cpuTime()
	r.live = sp.threads
	for tid := 0; tid < sp.threads; tid++ {
		tid := tid
		r.sys.Go(func(p *sim.Proc) { r.thread(p, tid, seed) })
	}
	r.sys.RunUntil(r.winStart)
	r.sys.M.HostCPU.Mark()
	r.sys.M.DPUCPU.Mark()
	before := snapshotLayers(r.sys, r.cl, opts.o)
	inflight := opts.o.Gauge("nvmefs.driver.inflight")
	inflight.DrainPeak()
	r.sys.RunUntil(r.winEnd)
	after := snapshotLayers(r.sys, r.cl, opts.o)
	inflightPeak := inflight.Peak()
	hostCores, dpuCores := r.sys.M.HostCPU.CoresUsed(), r.sys.M.DPUCPU.CoresUsed()
	runUntilDone(r.sys, func() bool { return r.live == 0 })
	ep.hostWindow, ep.hostCPU = time.Since(t1), cpuTime()-c1
	if opts.cpuProfile != nil {
		pprof.StopCPUProfile()
	}
	ep.hostOps = r.completed
	ep.w = window{lat: r.lat, ops: r.windowOps, seconds: time.Duration(r.winEnd - r.winStart).Seconds(),
		hostCores: hostCores, dpuCores: dpuCores}
	ep.m = summarize(ep.w)
	ep.layers = &layerWindow{before: before, after: after, ops: r.windowOps, userBytes: r.userBytes,
		fsyncs: ep.m.count[opFsync], inflightPeak: inflightPeak}
	if opts.o != nil {
		tr := opts.o.Tracer()
		ep.spans = tr.Export(r.sys.Now())
		ep.layers.droppedSpans = tr.Dropped()
	}
	ep.winStart, ep.winEnd = r.winStart, r.winEnd

	r.readBack()
	ep.attempted, ep.failed = r.attempted, r.failed
	r.teardown()
	ep.leftover = goroutinesLeft(baseGoroutines)
	return ep, nil
}

// prefill creates the files and writes every block with its prefill stamp,
// one proc per file, stepping the engine only until they finish.
func (r *runner) prefill() error {
	var err error
	r.files = make([]*dpc.File, r.sp.files)
	pending := r.sp.files
	for i := 0; i < r.sp.files; i++ {
		i := i
		r.sys.Go(func(p *sim.Proc) {
			defer func() { pending-- }()
			f, e := r.cl.Create(p, i, fmt.Sprintf("/f%03d", i))
			if e != nil {
				err = fmt.Errorf("create file %d: %w", i, e)
				return
			}
			r.files[i] = f
			chunk := make([]byte, 1<<20)
			for off := uint64(0); off < r.sp.fileSize; off += uint64(len(chunk)) {
				n := min(uint64(len(chunk)), r.sp.fileSize-off)
				for b := uint64(0); b < n; b += blockSize {
					fill(chunk[b:b+blockSize], stamp{file: uint32(i), off: off + b, writer: prefillWriter})
				}
				if e := f.Write(p, i, off, chunk[:n], true); e != nil {
					err = fmt.Errorf("prefill file %d at %d: %w", i, off, e)
					return
				}
			}
		})
	}
	runUntilDone(r.sys, func() bool { return pending == 0 })
	return err
}

// thread is one closed-loop simulated thread: it issues its next op only
// when the previous one completes, until the measured window ends.
func (r *runner) thread(p *sim.Proc, tid int, seed int64) {
	defer func() { r.live-- }()
	g := newGen(r.l, seed, tid)
	scratch := make([]byte, blockSize)
	for p.Now() < r.winEnd {
		if r.sp.fsync {
			// A durable write: its latency runs from the write call to
			// the end of the fsync that covers it.
			start := p.Now()
			if r.write(p, tid, g.ownBlock()) && r.fsync(p, tid) {
				r.sample(opWrite, start, p.Now())
			}
			r.read(p, tid, g.ownBlock(), scratch)
			continue
		}
		kind, b := g.next()
		start := p.Now()
		if kind == opRead {
			r.read(p, tid, b, scratch)
		} else if r.write(p, tid, b) {
			r.sample(opWrite, start, p.Now())
		}
	}
}

func (r *runner) inWindow(t sim.Time) bool { return t > r.winStart && t <= r.winEnd }

// done accounts one client call that has just returned.
func (r *runner) done(p *sim.Proc, ok bool) {
	r.attempted++
	r.completed++
	if !ok {
		r.failed++
	}
	if r.inWindow(p.Now()) {
		r.windowOps++
	}
}

// sample records a latency sample of an op that ended in the window.
func (r *runner) sample(kind opKind, start, end sim.Time) {
	if r.inWindow(end) {
		r.lat[kind] = append(r.lat[kind], int64(end-start))
	}
}

// write stamps and writes block b and reports whether it was acknowledged.
func (r *runner) write(p *sim.Proc, tid int, b uint32) bool {
	fi, off := r.l.fileOff(b)
	st := &r.state[b]
	st.issued++
	buf := make([]byte, blockSize)
	fill(buf, stamp{file: uint32(fi), off: off, writer: uint16(tid), seq: st.issued})
	err := r.files[fi].Write(p, tid, off, buf, r.sp.direct)
	if err == nil {
		st.acked = st.issued
		if r.inWindow(p.Now()) {
			r.userBytes += blockSize
		}
	}
	r.done(p, err == nil)
	return err == nil
}

// fsync syncs thread tid's own file.
func (r *runner) fsync(p *sim.Proc, tid int) bool {
	start := p.Now()
	err := r.files[tid].Sync(p, tid)
	r.done(p, err == nil)
	if err == nil {
		r.sample(opFsync, start, p.Now())
	}
	return err == nil
}

// read reads block b and checks it against the writes it may see: at least
// the last write acknowledged before the read was issued, at most the last
// write issued before it completed.
func (r *runner) read(p *sim.Proc, tid int, b uint32, scratch []byte) {
	fi, off := r.l.fileOff(b)
	lo := r.state[b].acked
	start := p.Now()
	data, err := r.files[fi].Read(p, tid, off, blockSize, r.sp.direct)
	r.reads++
	if err == nil && r.opts.corruptRead == r.reads {
		data[stampLen] ^= 0xFF
	}
	ok := err == nil && r.valid(data, scratch, b, lo, r.state[b].issued)
	r.done(p, ok)
	if ok {
		r.sample(opRead, start, p.Now())
	}
}

func (r *runner) valid(data, scratch []byte, b, lo, hi uint32) bool {
	fi, off := r.l.fileOff(b)
	st, ok := check(data, scratch, uint32(fi), off)
	if !ok || st.seq < lo || st.seq > hi {
		return false
	}
	if st.seq == 0 {
		return st.writer == prefillWriter
	}
	return st.writer == r.l.owner[b]
}

// readBack reads every block the workload wrote, after all threads have
// finished, and expects exactly the last acknowledged write. Reads use the
// workload's own mode, one verifier proc per 1/16 of the written blocks.
func (r *runner) readBack() {
	var written []uint32
	for b := range r.state {
		if r.state[b].acked > 0 {
			written = append(written, uint32(b))
		}
	}
	const procs = 16
	live := procs
	for w := 0; w < procs; w++ {
		w := w
		r.sys.Go(func(p *sim.Proc) {
			defer func() { live-- }()
			scratch := make([]byte, blockSize)
			for i := w; i < len(written); i += procs {
				b := written[i]
				fi, off := r.l.fileOff(b)
				data, err := r.files[fi].Read(p, w, off, blockSize, r.sp.direct)
				acked := r.state[b].acked
				r.attempted++
				if err != nil || !r.valid(data, scratch, b, acked, acked) {
					r.failed++
				}
			}
		})
	}
	runUntilDone(r.sys, func() bool { return live == 0 })
}

// teardown stops the world: the benchmark, not the program, owns it.
func (r *runner) teardown() {
	r.sys.StopDaemons()
	r.sys.Shutdown()
}

// cpuTime is the CPU time, user plus system, the process has used. Host
// metrics use it rather than wall time, so that other load on a shared
// machine moves them less.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goroutinesLeft waits briefly for killed procs' goroutines to exit and
// returns how many goroutines remain beyond base.
func goroutinesLeft(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// window is the raw virtual-time record of one measured window.
type window struct {
	lat                 [numOpKinds][]int64 // ns
	ops                 int64
	seconds             float64
	hostCores, dpuCores float64
}

// summarize pools windows of equal length into modeled results.
func summarize(ws ...window) modeled {
	var m modeled
	var lat [numOpKinds][]int64
	var secs float64
	for _, w := range ws {
		for k := range lat {
			lat[k] = append(lat[k], w.lat[k]...)
		}
		m.ops += w.ops
		secs += w.seconds
		m.hostCores += w.hostCores / float64(len(ws))
		m.dpuCores += w.dpuCores / float64(len(ws))
	}
	m.iops = float64(m.ops) / secs
	for k := opKind(0); k < numOpKinds; k++ {
		m.count[k] = int64(len(lat[k]))
		m.mean[k] = meanUs(lat[k])
		m.p50[k] = percentileUs(lat[k], 0.50)
		m.p99[k] = percentileUs(lat[k], 0.99)
	}
	return m
}

// percentileUs returns the nearest-rank q-quantile of ns samples in µs.
func percentileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(0, int(math.Ceil(q*float64(len(s))))-1)
	return float64(s[i]) / 1e3
}

func meanUs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(len(ns)) / 1e3
}
