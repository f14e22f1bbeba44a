package conv

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain holds the package's heap near its live set. The network tests
// build 15–21M-gate matmul circuits (the 1x32 · 32x3 dense head pads to a
// 32x32 square product), whose live set peaks near 2.8 GB; under the
// default GC pacing the heap grows to twice that, and the binary peaks at
// ~7 GB RSS, enough to exhaust an 8 GB host while `go test ./...` runs
// other packages alongside. A 2 GiB soft limit keeps the peak near 3 GB for
// a few seconds of extra GC. An explicit GOMEMLIMIT takes precedence.
func TestMain(m *testing.M) {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(2 << 30)
	}
	os.Exit(m.Run())
}
