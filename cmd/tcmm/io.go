package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	tcmm "repro"
)

// cmdSave builds a circuit and writes it in the binary codec, so
// expensive constructions are paid once. With -cache-dir it instead
// saves into the content-addressed store (the TCS2 envelope, which
// also carries the decode maps, reloadable by `tcmm load` and tcserve).
func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	kind := fs.String("kind", "matmul", "matmul|trace|count")
	n := fs.Int("n", 8, "matrix dimension")
	algName := fs.String("alg", "strassen", "algorithm")
	d := fs.Int("d", 2, "depth parameter")
	bits := fs.Int("bits", 1, "entry bit width")
	signed := fs.Bool("signed", false, "allow negative entries")
	tau := fs.Int64("tau", 6, "trace threshold (trace kind only)")
	shared := fs.Bool("shared", false, "enable the MSB-sharing optimization")
	out := fs.String("out", "circuit.tcm", "output path (raw codec; ignored with -cache-dir)")
	cacheDir := fs.String("cache-dir", "", "save into this content-addressed store instead of -out")
	fs.Parse(args)

	if *cacheDir != "" {
		return saveToStore(*cacheDir, shapeFromFlags(*kind, *n, *algName, *d, *bits, *signed, *tau, *shared))
	}

	alg, err := tcmm.LookupAlgorithm(*algName)
	if err != nil {
		return err
	}
	opts := tcmm.Options{Alg: alg, Depth: *d, EntryBits: *bits, Signed: *signed, SharedMSB: *shared}
	var c *tcmm.Circuit
	switch *kind {
	case "matmul":
		mc, err := tcmm.NewMatMul(*n, opts)
		if err != nil {
			return err
		}
		c = mc.Circuit
	case "trace":
		tc, err := tcmm.NewTrace(*n, *tau, opts)
		if err != nil {
			return err
		}
		c = tc.Circuit
	case "count":
		cc, err := tcmm.NewCount(*n, opts)
		if err != nil {
			return err
		}
		c = cc.Circuit
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	written, err := c.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("saved %s circuit: %d gates, depth %d, %d bytes -> %s\n",
		*kind, c.Size(), c.Depth(), written, *out)
	return nil
}

// cmdSim loads a saved circuit and profiles one inference on a device
// under a random input assignment of the given density.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	in := fs.String("in", "circuit.tcm", "saved circuit path")
	device := fs.String("device", "loihi", "truenorth|loihi|unlimited")
	placement := fs.String("placement", "locality", "locality|levelorder")
	density := fs.Float64("density", 0.5, "input one-probability")
	bandwidth := fs.Int64("bandwidth", 0, "per-core off-chip spikes per step (0 = unlimited)")
	seed := fs.Int64("seed", 1, "random seed")
	vcd := fs.String("vcd", "", "also write the run as a VCD waveform to this path")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := tcmm.ReadCircuit(f)
	if err != nil {
		return err
	}
	var dev tcmm.Device
	switch *device {
	case "truenorth":
		dev = tcmm.TrueNorthDevice()
	case "loihi":
		dev = tcmm.LoihiDevice()
	case "unlimited":
		dev = tcmm.UnlimitedDevice()
	default:
		return fmt.Errorf("unknown device %q", *device)
	}
	dev.LinkBandwidth = *bandwidth

	var p *tcmm.Placement
	switch *placement {
	case "locality":
		p, err = tcmm.PlaceLocality(c, dev)
	case "levelorder":
		p, err = tcmm.PlaceLevelOrder(c, dev)
	default:
		return fmt.Errorf("unknown placement %q", *placement)
	}
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	inputs := make([]bool, c.NumInputs())
	for i := range inputs {
		inputs[i] = rng.Float64() < *density
	}
	_, stats, err := tcmm.RunOnDevice(c, dev, p, inputs)
	if err != nil {
		return err
	}
	fmt.Printf("circuit: %d gates, depth %d, %d inputs\n", c.Size(), c.Depth(), c.NumInputs())
	fmt.Printf("device %s, placement %s:\n", dev.Name, *placement)
	fmt.Printf("  cores=%d depth-steps=%d wall-steps=%d\n", stats.Cores, stats.Timesteps, stats.WallTimesteps)
	fmt.Printf("  spikes=%d on-core=%d off-core=%d energy=%.1f\n",
		stats.Spikes, stats.OnCoreEvents, stats.OffCoreEvents, stats.Energy)
	if *vcd != "" {
		if c.Size() > 200000 {
			return fmt.Errorf("circuit too large for VCD export (%d gates)", c.Size())
		}
		vf, err := os.Create(*vcd)
		if err != nil {
			return err
		}
		defer vf.Close()
		if err := c.WriteVCD(vf, "tcmm", inputs); err != nil {
			return err
		}
		fmt.Printf("  waveform written to %s\n", *vcd)
	}
	return nil
}
