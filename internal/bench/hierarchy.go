package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/metrics"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/transport"
)

// This file is the hierarchy experiment: it runs the REAL flat and
// two-level hierarchical gTop-k collectives on an in-process fabric
// across P ∈ {16..256} × G ∈ {4,8,16} × ρ ∈ {0.001, 0.01}, charges both
// with the paper's 1 GbE α-β constants plus a shared synchronization-
// skew factor (netsim.Model.SyncGamma — world-sized rounds pay for
// world-sized straggler ensembles), verifies replica agreement on every
// configuration, and records the flat-vs-hierarchical crossover into
// the `hierarchy` section of BENCH_gtopk.json.

// hierarchyDim is the dense dimension of the hierarchy sweep: ρ=0.001
// gives the paper-scale k≈1049 payloads at 2^20 parameters.
const hierarchyDim = 1 << 20

// hierarchyQuickDim shrinks the smoke-test profile.
const hierarchyQuickDim = 1 << 16

// HierarchyResult is one (P, G, ρ) cell of the sweep. Times are
// simulated microseconds — the maximum over ranks of the α-β clock, the
// job's critical path.
type HierarchyResult struct {
	P   int     `json:"p"`
	G   int     `json:"g"`
	Rho float64 `json:"rho"`
	K   int     `json:"k"`
	// FlatUS/HierUS are the α-β clock charged by the real collectives
	// (in-process fabric); ModelFlatUS/ModelHierUS are the closed-form
	// netsim predictions for the same configuration. All four are
	// modelled, none is a wall-clock measurement.
	FlatUS      int64   `json:"flat_us"`
	HierUS      int64   `json:"hier_us"`
	ModelFlatUS int64   `json:"model_flat_us"`
	ModelHierUS int64   `json:"model_hier_us"`
	Speedup     float64 `json:"speedup"` // flat / hierarchical (>1: hierarchy wins)
}

// HierarchyCrossover records, per (G, ρ), the smallest swept P at which
// the hierarchical collective beats the flat tree (0 when it never
// does within the sweep).
type HierarchyCrossover struct {
	G      int     `json:"g"`
	Rho    float64 `json:"rho"`
	CrossP int     `json:"cross_p"`
}

// HierarchySection is the hierarchy section of BENCH_gtopk.json.
type HierarchySection struct {
	Dim        int                  `json:"dim"`
	AlphaUS    float64              `json:"alpha_us"`
	BetaNS     float64              `json:"beta_ns"`
	SyncGamma  float64              `json:"sync_gamma"`
	Kinds      map[string]string    `json:"kinds"` // tags every result field of Sweep and Crossovers
	Sweep      []HierarchyResult    `json:"sweep"`
	Crossovers []HierarchyCrossover `json:"crossovers"`
}

// hierarchyModel is the sweep's cost model: the paper's 1 GbE α-β
// constants plus the shared synchronization-skew factor.
func hierarchyModel() netsim.Model {
	return netsim.Paper1GbE().WithSyncSkew(netsim.DefaultSyncGamma)
}

// gaussianTopKs builds the deterministic per-rank inputs of the
// hierarchy and quorum experiments: rank r's top-k of one seeded
// Gaussian gradient, for every k in ks (vecs[i][r] is rank r at ks[i]),
// without ever holding more than one dense gradient.
func gaussianTopKs(seed uint64, p, dim int, ks []int) [][]*sparse.Vector {
	vecs := make([][]*sparse.Vector, len(ks))
	for i := range vecs {
		vecs[i] = make([]*sparse.Vector, p)
	}
	g := make([]float32, dim)
	for r := 0; r < p; r++ {
		src := prng.New(seed + uint64(r)*1000)
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
		for i, k := range ks {
			vecs[i][r] = sparse.TopK(g, k)
		}
	}
	return vecs
}

// runHierarchyConfig executes one configuration (flat when g <= 1) on a
// fresh in-process fabric, checks replica agreement, and returns the
// maximum simulated time across ranks.
func runHierarchyConfig(model netsim.Model, vecs []*sparse.Vector, k, g int) (time.Duration, error) {
	p := len(vecs)
	fab, err := transport.NewInProc(p)
	if err != nil {
		return 0, err
	}
	defer fab.Close()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		slowest time.Duration
		results = make([]*sparse.Vector, p)
		errs    = make([]error, p)
	)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var clock netsim.Clock
			comm := collective.New(fab.Conn(rank)).WithClock(&clock, model)
			res := &sparse.Vector{}
			gc, err := core.ForkHier(comm, g) // nil: the flat tree
			if err == nil {
				err = core.HierarchicalGTopKAllReduceInto(context.Background(), comm, gc, vecs[rank].Clone(), k, core.ChunksFor(k), res)
			}
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank] = res
			mu.Lock()
			if clock.Now() > slowest {
				slowest = clock.Now()
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	for r := 1; r < p; r++ {
		if !vectorsEqualBits(results[0], results[r]) {
			return 0, fmt.Errorf("replicas diverged: rank %d != rank 0 (P=%d, G=%d)", r, p, g)
		}
	}
	return slowest, nil
}

// vectorsEqualBits compares two sparse vectors bit for bit.
func vectorsEqualBits(a, b *sparse.Vector) bool {
	if a.Dim != b.Dim || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] || math.Float32bits(a.Values[i]) != math.Float32bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// hierarchySweep runs every (P, ρ, G) cell with G < P on the real
// collectives and returns the rows in sweep order. A row depends only
// on its own (seed, dim, P, G, ρ), so a sub-sweep reproduces the
// matching rows of a larger one.
func hierarchySweep(seed uint64, dim int, workers, groups []int, densities []float64) ([]HierarchyResult, error) {
	model := hierarchyModel()
	ks := make([]int, len(densities))
	for i, rho := range densities {
		ks[i] = core.DensityToK(dim, rho)
	}
	var sweep []HierarchyResult
	for _, p := range workers {
		vecs := gaussianTopKs(seed, p, dim, ks)
		for di, rho := range densities {
			k := ks[di]
			flat, err := runHierarchyConfig(model, vecs[di], k, 1)
			if err != nil {
				return nil, fmt.Errorf("flat P=%d rho=%g: %w", p, rho, err)
			}
			for _, g := range groups {
				if g >= p {
					continue
				}
				hier, err := runHierarchyConfig(model, vecs[di], k, g)
				if err != nil {
					return nil, fmt.Errorf("hier P=%d G=%d rho=%g: %w", p, g, rho, err)
				}
				sweep = append(sweep, HierarchyResult{
					P: p, G: g, Rho: rho, K: k,
					FlatUS:      flat.Microseconds(),
					HierUS:      hier.Microseconds(),
					ModelFlatUS: model.GTopKTree(p, k).Microseconds(),
					ModelHierUS: model.HierGTopK(p, g, k).Microseconds(),
					Speedup:     float64(flat) / float64(hier),
				})
			}
		}
	}
	return sweep, nil
}

// Hierarchy runs the sweep and returns the rendered table plus the
// section. Quick mode shrinks to two worker counts, one group size and
// one density.
func Hierarchy(_ context.Context, opt Options) (string, *HierarchySection, error) {
	dim := hierarchyDim
	workers := []int{16, 32, 64, 128, 256}
	groups := []int{4, 8, 16}
	densities := []float64{0.001, 0.01}
	if opt.Quick {
		dim = hierarchyQuickDim
		workers = []int{16, 64}
		groups = []int{4}
		densities = []float64{0.001}
	}
	if opt.HierGroup > 1 {
		groups = []int{opt.HierGroup}
	}
	model := hierarchyModel()

	section := &HierarchySection{
		Dim:       dim,
		AlphaUS:   float64(model.Alpha) / float64(time.Microsecond),
		BetaNS:    float64(model.Beta) / float64(time.Nanosecond),
		SyncGamma: model.SyncGamma,
		Kinds: map[string]string{
			"k":       kindCount,
			"flat_us": kindModelled, "hier_us": kindModelled,
			"model_flat_us": kindModelled, "model_hier_us": kindModelled,
			"speedup": kindModelled, "cross_p": kindModelled,
		},
	}
	var err error
	if section.Sweep, err = hierarchySweep(opt.seed(), dim, workers, groups, densities); err != nil {
		return "", nil, err
	}

	// Crossovers: smallest swept P where the hierarchy wins, per (G, ρ).
	for _, g := range groups {
		for _, rho := range densities {
			cross := 0
			for _, r := range section.Sweep {
				if r.G == g && r.Rho == rho && r.HierUS < r.FlatUS {
					cross = r.P
					break
				}
			}
			section.Crossovers = append(section.Crossovers, HierarchyCrossover{G: g, Rho: rho, CrossP: cross})
		}
	}

	var sb strings.Builder
	sb.WriteString("Hierarchy: two-level gTop-k vs flat tree (real collectives, simulated 1GbE)\n")
	fmt.Fprintf(&sb, "dim=%d, alpha=%.0fus, beta=%.1fns/elem, sync skew gamma=%.2f; times are the\nslowest rank's simulated clock (replica agreement verified per cell)\n\n",
		section.Dim, section.AlphaUS, section.BetaNS, section.SyncGamma)
	tb := metrics.NewTable("P", "G", "rho", "k", "flat", "hier", "speedup", "model flat", "model hier")
	for _, r := range section.Sweep {
		tb.AddRow(fmt.Sprint(r.P), fmt.Sprint(r.G), fmt.Sprintf("%g", r.Rho), fmt.Sprint(r.K),
			fmt.Sprintf("%.2fms", float64(r.FlatUS)/1000), fmt.Sprintf("%.2fms", float64(r.HierUS)/1000),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2fms", float64(r.ModelFlatUS)/1000), fmt.Sprintf("%.2fms", float64(r.ModelHierUS)/1000))
	}
	sb.WriteString(tb.String())
	sb.WriteString("\nCrossover (smallest P where the hierarchy wins):\n")
	for _, c := range section.Crossovers {
		if c.CrossP == 0 {
			fmt.Fprintf(&sb, "  G=%-3d rho=%-6g none (flat wins across the sweep)\n", c.G, c.Rho)
		} else {
			fmt.Fprintf(&sb, "  G=%-3d rho=%-6g P>=%d\n", c.G, c.Rho, c.CrossP)
		}
	}
	sb.WriteString("\nThe hierarchy runs 2(log2 G - 1) rounds fewer than the flat tree (a one-round\ngroup gather, the leaders' swapped tree, a one-round fan-out) in group-sized\nsynchronization domains, but its leader moves G-1 frames per group leg: it\nwins while a frame's 2k*beta is small next to alpha (low rho), and loses once\nG-1 large frames cost more than the rounds saved (rho=0.01 at G >= 8).\n")
	return sb.String(), section, nil
}
