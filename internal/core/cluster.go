package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/transport"
)

// WorkerResult collects one rank's training telemetry.
type WorkerResult struct {
	Rank          int
	Losses        []float64 // local mini-batch loss per step
	FinalWeights  []float32
	CommStats     collective.Stats
	SimulatedTime time.Duration // 0 when the cluster ran untimed
}

// WorkerSetup builds rank's trainer given its communicator. The setup
// function runs inside the worker goroutine; per-rank state (datasets,
// models) should be created here.
type WorkerSetup func(rank int, comm *collective.Comm) (*Trainer, error)

// ClusterConfig describes a simulated training cluster.
type ClusterConfig struct {
	Workers int
	Steps   int
	// Model, when non-nil, attaches per-worker simulated clocks priced by
	// this α-β model so WorkerResult.SimulatedTime reports modelled
	// communication time on the target network.
	Model *netsim.Model
	// Fabric overrides the default in-process fabric (e.g. a TCP fabric).
	Fabric transport.Fabric
}

// RunCluster spawns cfg.Workers goroutine workers, runs cfg.Steps
// synchronous S-SGD steps on each, and returns per-rank results ordered
// by rank. The first worker error cancels all others and is the one
// returned, with its rank: the peers it cancels fail after it.
func RunCluster(ctx context.Context, cfg ClusterConfig, setup WorkerSetup) ([]*WorkerResult, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: cluster needs >= 1 worker, got %d", cfg.Workers)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("core: negative step count %d", cfg.Steps)
	}
	fabric := cfg.Fabric
	if fabric == nil {
		f, err := transport.NewInProc(cfg.Workers)
		if err != nil {
			return nil, err
		}
		defer f.Close() //nolint:errcheck // in-process close never fails
		fabric = f
	} else if fabric.Size() != cfg.Workers {
		return nil, fmt.Errorf("core: fabric size %d != workers %d", fabric.Size(), cfg.Workers)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*WorkerResult, cfg.Workers)
	var (
		first error
		once  sync.Once
		wg    sync.WaitGroup
	)
	for r := 0; r < cfg.Workers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			res, err := runWorker(ctx, rank, cfg, fabric, setup)
			if err != nil {
				once.Do(func() { first = fmt.Errorf("core: worker %d: %w", rank, err) })
				cancel() // unblock peers waiting in collectives
				return
			}
			results[rank] = res
		}(r)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return results, nil
}

func runWorker(ctx context.Context, rank int, cfg ClusterConfig, fabric transport.Fabric, setup WorkerSetup) (*WorkerResult, error) {
	comm := collective.New(fabric.Conn(rank))
	var clock netsim.Clock
	if cfg.Model != nil {
		comm.WithClock(&clock, *cfg.Model)
	}
	trainer, err := setup(rank, comm)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &WorkerResult{Rank: rank, Losses: make([]float64, 0, cfg.Steps)}
	for s := 0; s < cfg.Steps; s++ {
		loss, err := trainer.Step(ctx)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", s, err)
		}
		res.Losses = append(res.Losses, loss)
	}
	res.FinalWeights = append([]float32(nil), trainer.Weights()...)
	res.CommStats = comm.Stats()
	res.SimulatedTime = clock.Now()
	return res, nil
}
