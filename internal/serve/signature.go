package serve

import (
	"repro/internal/grid"
	"repro/internal/rosenbrock"
)

// signature identifies a subsolve shape for batching and caching: the
// grid (root and refinement levels fix the dimensions and with them the
// Jacobian's sparsity pattern) and the inner linear solver (which fixes
// the workspace layout — Krylov basis vs. BiCGStab vectors vs. ILU
// factors). Tolerance is deliberately excluded: every integration factors
// its BiCGStab preconditioner, line or ILU(0), afresh at its own first step
// under a key no earlier integration used (and writes its whole stage matrix
// afresh), so entries are shareable across tolerances without affecting
// results.
type signature struct {
	g   grid.Grid
	lin rosenbrock.LinearSolver
}

// String renders the signature as the Actor field of serve.batch.* and
// serve.cache.* events, e.g. "grid(1,2;root=2)/bicgstab".
func (s signature) String() string { return s.g.String() + "/" + s.lin.String() }
