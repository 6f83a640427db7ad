package cache

import (
	"math/rand"
	"slices"
	"testing"

	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/wal"
)

// TestDirtyScanMatchesEntryScan checks the shared status/ino scan, host and
// DPU side, against a full ReadEntry decode of random meta tables with mixed
// statuses, inos and held locks.
func TestDirtyScanMatchesEntryScan(t *testing.T) {
	m, l, h, c, _ := newTestCache(t, 320, 8, CtlConfig{})
	rng := rand.New(rand.NewSource(1))
	m.Eng.Go("scan", func(p *sim.Proc) {
		for round := 0; round < 50; round++ {
			for i := 0; i < l.Total; i++ {
				WriteEntryMeta(m.HostMem, l, i, Entry{Lock: uint32(rng.Intn(4)), Status: uint32(rng.Intn(4)),
					LPN: rng.Uint64(), Ino: uint64(rng.Intn(4)), Ref: uint8(rng.Intn(2))})
			}
			ino, limit := uint64(rng.Intn(5)), 1+rng.Intn(l.Total/4)
			var all, mine []int
			for i := 0; i < l.Total; i++ {
				if e := ReadEntry(m.HostMem, l, i); e.Status == StatusDirty {
					all = append(all, i)
					if e.Ino == ino {
						mine = append(mine, i)
					}
				}
			}
			if got := h.HasDirty(p, ino); got != (len(mine) > 0) || h.DirtyCount() != len(all) {
				t.Fatalf("round %d: HasDirty(%d) = %v, DirtyCount = %d; want %v, %d", round, ino, got, h.DirtyCount(), len(mine) > 0, len(all))
			}
			if got := c.scanDirty(p, 0, true, l.Total); !slices.Equal(got, all) {
				t.Fatalf("round %d: any-inode scan = %v, want %v", round, got, all)
			}
			if got := c.scanDirty(p, ino, false, l.Total); !slices.Equal(got, mine) {
				t.Fatalf("round %d: ino %d scan = %v, want %v", round, ino, got, mine)
			}
			if got := c.scanDirty(p, 0, true, limit); !slices.Equal(got, all[:min(limit, len(all))]) {
				t.Fatalf("round %d: scan capped at %d = %v, want %v", round, limit, got, all[:min(limit, len(all))])
			}
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// TestMetaScanDMACharge pins the modeled cost of a whole-table scan: a
// FlushPass, FlushIno and journaled SyncIno each issue ⌈Total/128⌉
// "cache-scan" DMAs totalling Total×32 bytes.
func TestMetaScanDMACharge(t *testing.T) {
	m, l, h, c, _ := newTestCache(t, 320, 8, CtlConfig{})
	c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.DefaultConfig()))
	var dmas, bytes int
	m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Op == pcie.OpDMA && ev.Label == "cache-scan" {
			dmas++
			bytes += ev.Bytes
		}
	})
	for name, scan := range map[string]func(p *sim.Proc){
		"FlushPass": func(p *sim.Proc) { c.FlushPass(p, l.Total) },
		"FlushIno":  func(p *sim.Proc) { c.FlushIno(p, 7) },
		"SyncIno":   func(p *sim.Proc) { c.SyncIno(p, 7) },
	} {
		m.Eng.Go(name, func(p *sim.Proc) {
			h.WritePage(p, 7, 0, page(1))
			h.WritePage(p, 8, 1, page(2))
			dmas, bytes = 0, 0
			scan(p)
		})
		m.Eng.Run()
		if dmas != (l.Total+127)/128 || bytes != l.Total*EntrySize {
			t.Errorf("%s: %d scan DMAs of %d bytes, want %d of %d", name, dmas, bytes, (l.Total+127)/128, l.Total*EntrySize)
		}
	}
	m.Eng.Shutdown()
}

// TestHasDirtyZeroAllocs pins the host dirty check, which every direct read
// and write runs, at zero heap allocations.
func TestHasDirtyZeroAllocs(t *testing.T) {
	m, _, h, _, _ := newTestCache(t, 2048, 256, CtlConfig{})
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 3, 0, page(1))
		if allocs := testing.AllocsPerRun(50, func() { h.HasDirty(p, 3); h.HasDirty(p, 4) }); allocs != 0 {
			t.Errorf("HasDirty allocs/op = %v, want 0", allocs)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}
