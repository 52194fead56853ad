// Command gtopk-train trains one of the reproduction's models with a
// selectable distributed S-SGD algorithm on a simulated worker cluster,
// printing the per-epoch training loss and the modelled communication
// time on the paper's 1 Gbps Ethernet. The algorithm flags (-algo,
// -density, -hier-group, -wire, -quorum, -leader-quorum, -round-timeout)
// are internal/algo's, so gtopk-worker accepts and refuses the same
// settings.
//
// Example:
//
//	gtopk-train -model resnet20sim -algo gtopk -workers 4 -epochs 10 \
//	            -density 0.001 -warmup
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gtopkssgd/internal/algo"
	"gtopkssgd/internal/bench"
)

func main() {
	spec := bench.TrainSpec{Spec: algo.Spec{Algo: "gtopk", Density: 0.001}}
	spec.RegisterFlags(flag.CommandLine)
	flag.StringVar(&spec.Model, "model", "resnet20sim", "model: vgg16sim|resnet20sim|alexnetsim|resnet50sim|lstm|mlp")
	flag.IntVar(&spec.Workers, "workers", 4, "number of simulated workers (power of two for the AllGather-based algorithms)")
	flag.IntVar(&spec.Batch, "batch", 16, "mini-batch size per worker")
	flag.IntVar(&spec.Epochs, "epochs", 8, "number of epochs")
	flag.IntVar(&spec.ItersPerEpoch, "iters", 20, "iterations per epoch")
	flag.Uint64Var(&spec.Seed, "seed", 42, "random seed")
	flag.IntVar(&spec.EvalBatches, "eval", 0, "held-out eval batches after training (0 disables)")
	var (
		warmup   = flag.Bool("warmup", false, "use the paper's warmup density schedule (every sparse algorithm follows it)")
		lr       = flag.Float64("lr", 0.05, "learning rate")
		momentum = flag.Float64("momentum", 0.9, "momentum coefficient (every sparse algorithm corrects it locally)")
		clip     = flag.Float64("clip", 0, "per-element gradient clip (0 disables)")
	)
	flag.Parse()

	if err := validate(spec, *lr); err != nil {
		fmt.Fprintf(os.Stderr, "gtopk-train: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	spec.LR, spec.Momentum, spec.GradClip = float32(*lr), float32(*momentum), float32(*clip)
	if *warmup {
		spec.WarmupDensities = bench.PaperWarmup()
	}
	if err := run(spec); err != nil {
		fmt.Fprintln(os.Stderr, "gtopk-train:", err)
		os.Exit(1)
	}
}

// validate rejects invocation errors up front (exit 2 with usage)
// instead of surfacing them as a late runtime failure. The algorithm
// settings are algo.Spec's to check, the quorum sizes against the
// -workers world.
func validate(spec bench.TrainSpec, lr float64) error {
	if !slices.Contains(bench.Models(), spec.Model) {
		return fmt.Errorf("unknown -model %q (want %s)", spec.Model, strings.Join(bench.Models(), ", "))
	}
	if spec.Workers < 1 {
		return fmt.Errorf("-workers %d out of range: need >= 1", spec.Workers)
	}
	if spec.Batch < 1 {
		return fmt.Errorf("-batch %d out of range: need >= 1", spec.Batch)
	}
	if spec.Epochs < 1 || spec.ItersPerEpoch < 1 {
		return fmt.Errorf("-epochs/-iters must be >= 1 (got %d/%d)", spec.Epochs, spec.ItersPerEpoch)
	}
	if lr <= 0 {
		return fmt.Errorf("-lr %v out of range: need > 0", lr)
	}
	if spec.EvalBatches < 0 {
		return fmt.Errorf("-eval %d out of range: need >= 0", spec.EvalBatches)
	}
	if err := spec.Spec.Validate(); err != nil {
		return err
	}
	return spec.CheckQuorum(spec.Workers)
}

func run(spec bench.TrainSpec) error {
	curve, err := bench.RunTraining(context.Background(), spec)
	if err != nil {
		return err
	}
	fmt.Printf("model=%s algo=%s workers=%d batch=%d density=%g\n\n",
		spec.Model, spec.Algo, spec.Workers, spec.Batch, spec.Density)
	for e, loss := range curve.EpochLoss {
		fmt.Printf("epoch %3d  loss %.4f\n", e+1, loss)
	}
	fmt.Printf("\nsimulated 1GbE communication time (rank 0): %v\n", curve.SimTime)
	if len(curve.EpochAcc) > 0 {
		fmt.Printf("held-out accuracy: %.3f\n", curve.EpochAcc[len(curve.EpochAcc)-1])
	}
	return nil
}
