// Command gtopk-train trains one of the reproduction's models with a
// selectable distributed S-SGD algorithm on a simulated worker cluster,
// printing the per-epoch training loss and the modelled communication
// time on the paper's 1 Gbps Ethernet.
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
	"time"

	"gtopkssgd/internal/bench"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/sparse"
)

func main() {
	var (
		model     = flag.String("model", "resnet20sim", "model: vgg16sim|resnet20sim|alexnetsim|resnet50sim|lstm|mlp")
		algo      = flag.String("algo", "gtopk", "algorithm: dense|topk|gtopk|gtopk-hier|gtopk-naive|gtopk-ps|gtopk-layerwise|gtopk-bucketed|signsgd|terngrad|gtopk-quant8")
		workers   = flag.Int("workers", 4, "number of simulated workers (power of two for gtopk)")
		batch     = flag.Int("batch", 16, "mini-batch size per worker")
		epochs    = flag.Int("epochs", 8, "number of epochs")
		iters     = flag.Int("iters", 20, "iterations per epoch")
		density   = flag.Float64("density", 0.001, "gradient density rho")
		warmup    = flag.Bool("warmup", false, "use the paper's warmup density schedule")
		lr        = flag.Float64("lr", 0.05, "learning rate")
		momentum  = flag.Float64("momentum", 0.9, "momentum coefficient")
		clip      = flag.Float64("clip", 0, "per-element gradient clip (0 disables)")
		seed      = flag.Uint64("seed", 42, "random seed")
		evalN     = flag.Int("eval", 0, "held-out eval batches after training (0 disables)")
		hierGroup = flag.Int("hier-group", 0, "gtopk-hier group size G (0 picks the default of 4)")
		wire      = flag.String("wire", "", "sparse wire codec for the simulated fabric: v1, v3 or v3-<value> for value codec fp16|qsgd8|qsgd4|qsgd2|ternary|sign (empty keeps v1)")
		quorum    = flag.Int("quorum", 0, "straggler-tolerant quorum size q: rounds close after q contributions under the -round-timeout deadline (0 disables; requires -algo gtopk or gtopk-hier and a strict majority; under gtopk-hier, q is the intra-group quorum q_g)")
		leaderQ   = flag.Int("leader-quorum", 0, "hierarchical quorum's leader-level quorum q_l over the group aggregates (0 = every group; requires -quorum and -algo gtopk-hier)")
		roundTO   = flag.Duration("round-timeout", 0, "per-round gather deadline for -quorum (must be > 0 when -quorum is set; under gtopk-hier the budget splits 1/4:1/2:1/4 across the intra, leader and broadcast levels)")
		kernels   = flag.String("kernels", sparse.DefaultKernels(), "sparse kernel implementation: fast (vectorized, where the build supports it) or pure; results are bit-identical")
	)
	flag.Parse()

	wireCodec, err := validate(*model, *algo, *workers, *batch, *epochs, *iters, *density, *lr, *evalN, *hierGroup, *wire, *quorum, *leaderQ, *roundTO)
	if err == nil {
		if kerr := sparse.SetKernels(*kernels); kerr != nil {
			err = fmt.Errorf("-kernels: %w", kerr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gtopk-train: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	spec := bench.TrainSpec{
		Model:         *model,
		Algo:          *algo,
		Workers:       *workers,
		Batch:         *batch,
		Epochs:        *epochs,
		ItersPerEpoch: *iters,
		Density:       *density,
		LR:            float32(*lr),
		Momentum:      float32(*momentum),
		GradClip:      float32(*clip),
		Seed:          *seed,
		EvalBatches:   *evalN,
		HierGroup:     *hierGroup,
		Wire:          wireCodec,
		Quorum:        *quorum,
		LeaderQuorum:  *leaderQ,
		RoundTimeout:  *roundTO,
	}
	if *warmup {
		spec.WarmupDensities = bench.PaperWarmup()
	}
	if err := run(spec); err != nil {
		fmt.Fprintln(os.Stderr, "gtopk-train:", err)
		os.Exit(1)
	}
}

// validate rejects invocation errors up front (exit 2 with usage)
// instead of surfacing them as a late runtime failure, and resolves the
// -wire flag into the TrainSpec codec (0 = v1 default).
func validate(model, algo string, workers, batch, epochs, iters int, density, lr float64, evalN, hierGroup int, wire string, quorum, leaderQuorum int, roundTimeout time.Duration) (sparse.Codec, error) {
	if !slices.Contains(bench.Models(), model) {
		return 0, fmt.Errorf("unknown -model %q (want %s)", model, strings.Join(bench.Models(), ", "))
	}
	if !slices.Contains(bench.Algos(), algo) {
		return 0, fmt.Errorf("unknown -algo %q (want %s)", algo, strings.Join(bench.Algos(), ", "))
	}
	if workers < 1 {
		return 0, fmt.Errorf("-workers %d out of range: need >= 1", workers)
	}
	if batch < 1 {
		return 0, fmt.Errorf("-batch %d out of range: need >= 1", batch)
	}
	if epochs < 1 || iters < 1 {
		return 0, fmt.Errorf("-epochs/-iters must be >= 1 (got %d/%d)", epochs, iters)
	}
	if algo != "dense" && (density <= 0 || density > 1) {
		return 0, fmt.Errorf("-density %v out of range: need 0 < rho <= 1", density)
	}
	if lr <= 0 {
		return 0, fmt.Errorf("-lr %v out of range: need > 0", lr)
	}
	if evalN < 0 {
		return 0, fmt.Errorf("-eval %d out of range: need >= 0", evalN)
	}
	if hierGroup < 0 {
		return 0, fmt.Errorf("-hier-group %d out of range: need >= 0", hierGroup)
	}
	if hierGroup > 0 && algo != "gtopk-hier" {
		return 0, fmt.Errorf("-hier-group requires -algo gtopk-hier")
	}
	if quorum < 0 {
		return 0, fmt.Errorf("-quorum %d out of range: need >= 0", quorum)
	}
	if leaderQuorum < 0 {
		return 0, fmt.Errorf("-leader-quorum %d out of range: need >= 0", leaderQuorum)
	}
	if leaderQuorum > 0 && (quorum == 0 || algo != "gtopk-hier") {
		return 0, fmt.Errorf("-leader-quorum requires -quorum and -algo gtopk-hier (the leader level only exists in the hierarchical quorum collective)")
	}
	if quorum > 0 {
		switch algo {
		case "gtopk":
			if lo := core.QuorumMin(workers); quorum < lo || quorum > workers {
				return 0, fmt.Errorf("-quorum %d out of range [%d,%d] for -workers %d (a quorum must be a strict majority)",
					quorum, lo, workers, workers)
			}
		case "gtopk-hier":
			group := hierGroup
			if group == 0 {
				group = 4 // RunTraining's gtopk-hier default
			}
			if group > 1 && group < workers {
				if lo := core.QuorumMin(group); quorum < lo || quorum > group {
					return 0, fmt.Errorf("-quorum %d out of range [%d,%d] for groups of %d (the intra-group quorum must be a strict majority of one group)",
						quorum, lo, group, group)
				}
				if leaderQuorum > 0 {
					numGroups := (workers + group - 1) / group
					if lo := core.QuorumMin(numGroups); leaderQuorum < lo || leaderQuorum > numGroups {
						return 0, fmt.Errorf("-leader-quorum %d out of range [%d,%d] for %d groups", leaderQuorum, lo, numGroups, numGroups)
					}
				}
			} else {
				if leaderQuorum > 0 {
					return 0, fmt.Errorf("group size %d does not split -workers %d into groups (it degenerates to the flat tree), so -leader-quorum does not apply", group, workers)
				}
				if lo := core.QuorumMin(workers); quorum < lo || quorum > workers {
					return 0, fmt.Errorf("-quorum %d out of range [%d,%d] for -workers %d (a quorum must be a strict majority)",
						quorum, lo, workers, workers)
				}
			}
		default:
			return 0, fmt.Errorf("-quorum requires -algo gtopk or gtopk-hier (got %q): quorum rounds are a gTop-k collective mode", algo)
		}
		if roundTimeout <= 0 {
			return 0, fmt.Errorf("-quorum requires -round-timeout > 0 (got %v)", roundTimeout)
		}
	} else if roundTimeout != 0 {
		return 0, fmt.Errorf("-round-timeout requires -quorum (a deadline only bounds quorum rounds)")
	}
	if wire == "" {
		return 0, nil
	}
	codec, err := sparse.ParseCodec(wire)
	if err != nil {
		return 0, fmt.Errorf("-wire: %w", err)
	}
	return codec, nil
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
