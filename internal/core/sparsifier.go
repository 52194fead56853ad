// Package core implements the paper's contribution: the gTop-k
// sparsification mechanism, the gTopKAllReduce collective (Algorithm 3),
// the TopK-AllReduce baseline (Algorithm 1 lines 12-21), and the
// distributed S-SGD variants built on them (dense S-SGD, Top-k S-SGD,
// naive gTop-k S-SGD of Algorithm 2, gTop-k S-SGD of Algorithm 4 and its
// parameter-server form). Every sparse collective is a plan — levels and
// a fold rule — for one executor (runLevels).
package core

import (
	"fmt"

	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/tensor"
)

// Sparsifier owns one worker's gradient residual (error-feedback) buffer
// and performs the local selection steps of Algorithms 1/2/4:
//
//	G^g_i   = G^g_{i-1} + ∇L(W_i, D^g_i)   (accumulate into residual)
//	thr     = k-th largest |G^g_i|
//	G̃^g_i  = G^g_i ⊙ Mask                  (selected top-k)
//	G^g_i   = G^g_i ⊙ ¬Mask                 (keep the rest as residual)
type Sparsifier struct {
	residual []float32
	selected sparse.Vector     // the last selection, reused by the next one
	hint     sparse.SelectHint // the last selection's threshold and candidate buffer
}

// NewSparsifier creates a sparsifier for a dim-parameter model with a
// zeroed residual (Algorithm 1 line 1: G^g_0 = 0).
func NewSparsifier(dim int) *Sparsifier {
	return &Sparsifier{residual: make([]float32, dim)}
}

// Dim returns the dense gradient dimension.
func (s *Sparsifier) Dim() int { return len(s.residual) }

// Residual exposes the residual buffer (read-only by convention; tests
// use it to verify mass conservation).
func (s *Sparsifier) Residual() []float32 { return s.residual }

// ResidualNorm returns the L2 norm of the residual, a convergence
// diagnostic ("how much gradient signal is still waiting locally").
func (s *Sparsifier) ResidualNorm() float64 { return tensor.L2Norm(s.residual) }

// SelectMomentum accumulates grad into the residual, extracts the k
// largest-magnitude entries as a sparse vector, and leaves everything
// else in the residual. DGC momentum correction rides in the same
// accumulate pass: velocity ← mu·velocity + grad and residual +=
// velocity in one read-modify-write of the three arrays, which also
// collects the selection's candidates at the threshold the previous
// selection left (sparse.TopKAccumulateInto). With mu <= 0 it
// accumulates grad itself and velocity is not touched. The returned
// vector is owned by the sparsifier and valid until its next selection;
// Clone it to keep it longer. Callers may rewrite its Values in place
// (wire transforms do).
func (s *Sparsifier) SelectMomentum(mu float32, velocity, grad []float32, k int) (*sparse.Vector, error) {
	if len(grad) != s.Dim() || (mu > 0 && len(velocity) != len(grad)) {
		return nil, fmt.Errorf("core: gradient dim %d, velocity dim %d, sparsifier dim %d", len(grad), len(velocity), s.Dim())
	}
	if k < 0 || k > len(grad) {
		return nil, fmt.Errorf("core: k=%d out of range [0,%d]", k, len(grad))
	}
	selected := &s.selected
	sparse.TopKAccumulateInto(selected, s.residual, velocity, mu, grad, k, &s.hint)
	for _, idx := range selected.Indices {
		s.residual[idx] = 0
	}
	return selected, nil
}

// Settle returns the round's unsent mass to the residual in one pass
// over the local selection, one residual write per entry. global is the
// ascending support that survived the round. Each selected index's
// entry — zero since the selection — first gains orig−sent, the
// rounding a lossy wire transform left behind (sent is local.Values,
// which the transform pinned to its lattice in place; a lossless round
// passes a nil orig and folds nothing), then gains sent where global
// dropped the index (Algorithm 4 line 10: G^g_i += G̃^g_i ⊙ ¬gMask ⊙
// Mask). So a dropped index gets its full original mass back and a
// survivor keeps exactly the error: the error-feedback identity of DGC
// and QSGD, extended to the transform stage.
func (s *Sparsifier) Settle(local *sparse.Vector, orig []float32, global []int32) {
	j := 0
	for i, idx := range local.Indices {
		r, sent := s.residual[idx], local.Values[i]
		if orig != nil {
			r += orig[i] - sent
		}
		for j < len(global) && global[j] < idx {
			j++
		}
		if j == len(global) || global[j] != idx {
			r += sent
		}
		s.residual[idx] = r
	}
}

// Refund re-deposits whole selected values into the residual — the
// straggler half of the quorum-round conservation argument: a rank
// whose frame missed the round's deadline contributed nothing to the
// aggregate, so its entire selected mass (the pre-transform values)
// returns to the residual and rides into a later round. Call it INSTEAD
// of Settle for a missed round; the applied update is built
// purely from the other ranks' contributions.
func (s *Sparsifier) Refund(indices []int32, values []float32) {
	for i, idx := range indices {
		s.residual[idx] += values[i]
	}
}

// RestoreResidual overwrites the residual from a checkpoint.
func (s *Sparsifier) RestoreResidual(residual []float32) error {
	if len(residual) != s.Dim() {
		return fmt.Errorf("core: restore residual dim %d, want %d", len(residual), s.Dim())
	}
	copy(s.residual, residual)
	return nil
}

// DensityToK converts a density ρ into the per-worker selection count
// k = ρ·m, clamped to [1, m] (the paper always selects at least one
// gradient; ρ=0.001 on small test models must not round down to zero).
func DensityToK(dim int, density float64) int {
	return min(max(int(density*float64(dim)), 1), dim)
}
