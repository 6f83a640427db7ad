package exp

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has dropped to want,
// or the last count seen after about a second: a killed proc signals the
// engine just before its goroutine returns, so the count can lag briefly.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestMeasureRawShutsDownWorld pins that one Fig 6 point tears its world
// down: no client proc stays parked in the transport afterwards.
func TestMeasureRawShutsDownWorld(t *testing.T) {
	start := runtime.NumGoroutine()
	warm, meas := Quick.windows()
	if pt := measureRaw(newNvmeStack(2, 256, 128, 16*1024), 32, 4096, true, warm, meas); pt.IOPS <= 0 {
		t.Fatalf("no IOPS measured: %+v", pt)
	}
	if n := settledGoroutines(start); n != start {
		t.Fatalf("goroutines after one measureRaw point = %d, want %d", n, start)
	}
}

// TestBW1DataShutsDownWorlds pins the same for the §4.1 bandwidth worlds.
func TestBW1DataShutsDownWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	start := runtime.NumGoroutine()
	BW1Data(Quick)
	if n := settledGoroutines(start); n != start {
		t.Fatalf("goroutines after BW1Data(Quick) = %d, want %d", n, start)
	}
}
