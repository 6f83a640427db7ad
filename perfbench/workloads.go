package main

import (
	"math/rand"
	"time"
)

// blockSize is the I/O size of every workload op and the unit of ownership
// and stamping.
const blockSize = 8192

// spec is one benchmark workload: the world it builds and the closed-loop
// access pattern its simulated threads issue.
type spec struct {
	name     string
	why      string
	dfs      bool // offloaded DFS client instead of KVFS
	wal      bool // KVFS write-ahead log on
	threads  int
	files    int
	fileSize uint64
	direct   bool
	readPct  int
	zipfS    float64 // Zipf exponent over the data set; 0 means uniform
	// fsync makes every thread cycle write, fsync, read on its own file.
	fsync   bool
	warmup  time.Duration
	measure time.Duration
}

// blocks is the number of blockSize blocks in the data set.
func (sp *spec) blocks() int { return sp.files * int(sp.fileSize/blockSize) }

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []spec{
	{
		name:    "kvfs-direct",
		why:     "64 threads of 8K uniform direct I/O, 70% read, over KVFS: the Fig 7 transport path with the cache data path bypassed",
		threads: 64, files: 4, fileSize: 32 << 20, direct: true, readPct: 70,
		warmup: 5 * time.Millisecond, measure: 40 * time.Millisecond,
	},
	{
		name:    "kvfs-fsync",
		why:     "16 writers doing 8K buffered write, fsync and read-back on their own 1 MiB file with the WAL on: group commit and SSD barriers",
		threads: 16, files: 16, fileSize: 1 << 20, wal: true, fsync: true,
		warmup: 2 * time.Millisecond, measure: 120 * time.Millisecond,
	},
}

// heldOut are workloads on which the program fails the benchmark's checks
// (see "Known program defects" in README.md). They run with --workload so
// the defects can be reproduced, but BENCHMARK.json does not list them
// until the program passes on them.
var heldOut = []spec{
	{
		name:    "kvfs-cached",
		why:     "32 threads of buffered 8K Zipf(1.1) I/O, 70% read, working set 8x the 16 MiB hybrid cache: Fig 8 hits, fills and flushes",
		threads: 32, files: 4, fileSize: 32 << 20, readPct: 70, zipfS: 1.1,
		warmup: 60 * time.Millisecond, measure: 150 * time.Millisecond,
	},
	{
		name: "dfs-offload",
		why:  "64 threads of 8K uniform direct I/O, 70% read, through the DPU-offloaded DFS client: Fig 9 EC and fabric to MDS and data servers",
		dfs:  true, threads: 64, files: 4, fileSize: 16 << 20, direct: true, readPct: 70,
		warmup: 5 * time.Millisecond, measure: 25 * time.Millisecond,
	},
}

func lookup(name string) *spec {
	for _, ws := range [][]spec{workloads, heldOut} {
		for i := range ws {
			if ws[i].name == name {
				return &ws[i]
			}
		}
	}
	return nil
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFsync
	numOpKinds
)

// layout maps access ranks to blocks and blocks to their owner thread.
// Every block has exactly one owner, the only thread that ever writes it,
// so a read can legally return only the last write acknowledged before it
// was issued or a write its owner issued while it was in flight.
type layout struct {
	sp       *spec
	rankBlk  []uint32 // rank -> block
	owner    []uint16 // block -> owner thread
	ownCount int      // blocks per thread
}

func newLayout(sp *spec) *layout {
	n := sp.blocks()
	l := &layout{sp: sp, rankBlk: make([]uint32, n), owner: make([]uint16, n), ownCount: n / sp.threads}
	perFile := n / sp.files
	// Shared data sets scatter ranks over the blocks with a fixed odd
	// multiplier (a bijection, since n is a power of two), so Zipf-hot ranks
	// land in every file and the hot set is the same at every seed: the
	// seed draws the accesses, not the layout. Per-thread files keep ranks
	// in place.
	mult := uint64(1)
	if !sp.fsync {
		mult = 0x9E3779B97F4A7C15
	}
	for rank := 0; rank < n; rank++ {
		b := uint64(rank) * mult % uint64(n)
		l.rankBlk[rank] = uint32(b)
		if sp.fsync {
			l.owner[b] = uint16(rank / perFile)
		} else {
			l.owner[b] = uint16(rank % sp.threads)
		}
	}
	return l
}

// ownRank returns thread tid's i-th owned rank.
func (l *layout) ownRank(tid, i int) int {
	if l.sp.fsync {
		return tid*l.ownCount + i
	}
	return i*l.sp.threads + tid
}

// fileOff splits a block into its file index and byte offset.
func (l *layout) fileOff(b uint32) (int, uint64) {
	perFile := uint32(l.sp.fileSize / blockSize)
	return int(b / perFile), uint64(b%perFile) * blockSize
}

// gen is one simulated thread's access generator. Its draws depend only on
// the seed and the thread, never on timing, so one seed gives one input.
type gen struct {
	l       *layout
	tid     int
	rng     *rand.Rand
	zipfAll *rand.Zipf // over every rank (reads)
	zipfOwn *rand.Zipf // over the thread's own ranks (writes)
}

func newGen(l *layout, seed int64, tid int) *gen {
	g := &gen{l: l, tid: tid, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(tid) + 1))}
	if s := l.sp.zipfS; s > 0 {
		g.zipfAll = rand.NewZipf(g.rng, s, 1, uint64(len(l.rankBlk)-1))
		g.zipfOwn = rand.NewZipf(g.rng, s, 1, uint64(l.ownCount-1))
	}
	return g
}

// ownBlock draws one of the thread's own blocks.
func (g *gen) ownBlock() uint32 {
	var i int
	if g.zipfOwn != nil {
		i = int(g.zipfOwn.Uint64())
	} else {
		i = g.rng.Intn(g.l.ownCount)
	}
	return g.l.rankBlk[g.l.ownRank(g.tid, i)]
}

// anyBlock draws a block from the whole data set.
func (g *gen) anyBlock() uint32 {
	if g.zipfAll != nil {
		return g.l.rankBlk[g.zipfAll.Uint64()]
	}
	return g.l.rankBlk[g.rng.Intn(len(g.l.rankBlk))]
}

// next draws the next read-or-write access of a mixed workload.
func (g *gen) next() (opKind, uint32) {
	if g.rng.Intn(100) < g.l.sp.readPct {
		return opRead, g.anyBlock()
	}
	return opWrite, g.ownBlock()
}
