package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/verify"
)

// shapeFromFlags assembles the cache key the store addresses circuits
// by. Kind strings match core.Op values; an unknown kind surfaces as a
// build error from core.BuildShape.
func shapeFromFlags(kind string, n int, alg string, d, bits int, signed bool, tau int64, shared bool) core.Shape {
	s := core.Shape{
		Op:        core.Op(kind),
		N:         n,
		Alg:       alg,
		Depth:     d,
		EntryBits: bits,
		Signed:    signed,
		SharedMSB: shared,
	}
	if s.Op == core.OpTrace {
		s.Tau = tau
	}
	return s
}

// saveToStore builds the shaped circuit and persists it into the
// content-addressed cache (parallel build; the artifact is identical
// to a sequential one).
func saveToStore(dir string, shape core.Shape) error {
	cache, err := store.Open(dir)
	if err != nil {
		return err
	}
	bt, err := core.BuildShape(shape, -1)
	if err != nil {
		return err
	}
	path, err := cache.Save(bt)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	c := bt.Circuit()
	fmt.Printf("saved %s: %d gates, depth %d, %d bytes -> %s\n",
		shape.Key(), c.Size(), c.Depth(), fi.Size(), path)
	return nil
}

// cmdLoad reloads a circuit from the content-addressed store and
// reports its anatomy; -certify additionally runs the full
// certification suite on the reloaded artifact.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	kind := fs.String("kind", "matmul", "matmul|trace|count")
	n := fs.Int("n", 8, "matrix dimension")
	algName := fs.String("alg", "strassen", "algorithm")
	d := fs.Int("d", 2, "depth parameter")
	bits := fs.Int("bits", 1, "entry bit width")
	signed := fs.Bool("signed", false, "allow negative entries")
	tau := fs.Int64("tau", 6, "trace threshold (trace kind only)")
	shared := fs.Bool("shared", false, "enable the MSB-sharing optimization")
	cacheDir := fs.String("cache-dir", "", "content-addressed store directory (required)")
	certify := fs.Bool("certify", false, "run the certification suite on the reloaded circuit")
	fs.Parse(args)

	if *cacheDir == "" {
		return fmt.Errorf("-cache-dir is required")
	}
	cache, err := store.Open(*cacheDir)
	if err != nil {
		return err
	}
	shape := shapeFromFlags(*kind, *n, *algName, *d, *bits, *signed, *tau, *shared)
	bt, err := cache.Load(shape)
	if err != nil {
		return fmt.Errorf("%w (save it first: tcmm save -cache-dir %s ...)", err, *cacheDir)
	}
	c := bt.Circuit()
	st := c.Stats()
	fmt.Printf("loaded %s from %s\n", shape.Key(), cache.Path(shape))
	fmt.Printf("  gates=%d depth=%d edges=%d maxfanin=%d inputs=%d outputs=%d\n",
		st.Size, st.Depth, st.Edges, st.MaxFanIn, st.Inputs, len(c.Outputs()))
	if *certify {
		cert, err := verify.CertifyBuilt(bt)
		if err != nil {
			return err
		}
		if !cert.OK {
			return fmt.Errorf("reloaded circuit fails certification: %v", cert.Err())
		}
		fmt.Printf("  certification: OK (%d checks)\n", len(cert.Checks))
	}
	return nil
}

// cmdStat summarizes one or more on-disk artifacts from their headers
// alone — shape, dimensions, format version and root digest — without
// loading, verifying or expanding the circuit.
func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tcmm stat <artifact.tcs> [more...]")
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no artifacts given")
	}
	for _, path := range fs.Args() {
		info, err := store.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: TCS%d, %d bytes\n", info.Path, info.Format, info.FileSize)
		fmt.Printf("  shape   %s\n", info.ShapeKey)
		fmt.Printf("  gates=%d groups=%d inputs=%d outputs=%d edges(stored)=%d depth=%d\n",
			info.Gates, info.Groups, info.Inputs, info.Outputs, info.StoredEdges, info.Depth)
		fmt.Printf("  root    sha256:%s (%d integrity segments)\n", info.RootDigest, info.Segments)
	}
	return nil
}
