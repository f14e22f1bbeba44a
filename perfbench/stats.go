package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tally counts attempted operations and the three ways one can fail:
// a transport or server error, a refusal (429 or 503), or a reply that
// disagrees with the oracle.
type tally struct {
	mu                                sync.Mutex
	attempted, errors, refused, wrong int64
	examples                          []string
	cpuFrac                           float64
}

// tallyView is a consistent copy of a tally.
type tallyView struct {
	attempted, errors, refused, wrong int64
	examples                          []string
	cpuFrac                           float64
}

func (v tallyView) failed() int64 { return v.errors + v.refused + v.wrong }

func (v tallyView) failFrac() float64 {
	if v.attempted == 0 {
		return 0
	}
	return float64(v.failed()) / float64(v.attempted)
}

// record counts one attempt and its outcome. It returns err so call
// sites can record and branch in one step.
func (t *tally) record(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return nil
	}
	var se *statusError
	switch {
	case errors.Is(err, errWrong):
		t.wrong++
	case errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable):
		t.refused++
	default:
		t.errors++
	}
	if len(t.examples) < 5 {
		t.examples = append(t.examples, err.Error())
	}
	return err
}

func (t *tally) setCPU(frac float64) {
	t.mu.Lock()
	t.cpuFrac = frac
	t.mu.Unlock()
}

func (t *tally) snapshot() tallyView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tallyView{
		attempted: t.attempted, errors: t.errors, refused: t.refused, wrong: t.wrong,
		examples: append([]string(nil), t.examples...), cpuFrac: t.cpuFrac,
	}
}

// statusError is a non-200 HTTP reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}

// quantile returns the exact q-quantile of raw samples by nearest rank
// (the smallest sample with at least q of the samples at or below it).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuMeter measures this process's CPU time against wall time; the
// share is of all cores, so 1.0 means every core was busy.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startCPU() cpuMeter { return cpuMeter{wall: time.Now(), cpu: processCPU()} }

func (m cpuMeter) share() float64 {
	wall := time.Since(m.wall)
	return float64(processCPU()-m.cpu) / float64(wall) / float64(runtime.NumCPU())
}

// sourceRevision names the source under test: the git commit when the
// tree is a repository, otherwise a SHA-256 over the Go sources.
func sourceRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return "git:" + strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))
}
