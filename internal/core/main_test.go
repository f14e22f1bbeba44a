package core

import (
	"flag"
	"os"
	"runtime/debug"
	"testing"
)

// TestMain holds the package's heap near its live set in -short runs.
// TestRectMatMul's 16x4 · 4x2 signed case pads to an N=16 square
// product; under the race detector, with the default GC pacing, the
// binary passes 4.4 GB RSS on that test alone, enough to exhaust an 8 GB
// host running `go test -race -short ./internal/core`. A 2 GiB soft limit
// holds the whole package near 3.1 GB for some extra GC. Long runs are
// left alone: TestTrace64's live set outgrows any limit that fits such a
// host, and a limit would only make it thrash the GC before it is killed.
// An explicit GOMEMLIMIT takes precedence.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() && os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(2 << 30)
	}
	os.Exit(m.Run())
}
