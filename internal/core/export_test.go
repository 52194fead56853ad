package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// BaselineInto runs one collective of the named baseline aggregator's
// plan — "topk", "gtopk-naive" or "gtopk-ps" — on comm and writes its
// result into out: the tests' way onto the baseline plans, which no
// exported entry point but Top-k's runs.
func BaselineInto(ctx context.Context, comm *collective.Comm, name string, local *sparse.Vector, k int, out *sparse.Vector) error {
	build, ok := map[string]func(*collective.Comm, int, int) (*GTopKAggregator, error){
		"topk": NewTopKAggregator, "gtopk-naive": NewNaiveGTopKAggregator, "gtopk-ps": NewPSGTopKAggregator,
	}[name]
	if !ok {
		return fmt.Errorf("core: no baseline %q", name)
	}
	a, err := build(comm, local.Dim, k)
	if err != nil {
		return err
	}
	return runLevels(ctx, comm, &a.plan, local, k, out)
}
