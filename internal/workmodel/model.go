// Package workmodel is the calibrated cost model that lets the cluster
// simulator replay paper-scale runs (levels up to 15, thousands of 2004
// seconds) in milliseconds.
//
// # Shape
//
// The per-grid work of subsolve(i, j) is modelled as
//
//	work(i, j, tol) = W0 * tolFactor(tol) * 2^(i+j) * (2^(Beta*i) + GammaY*2^(Beta*j))
//
// megacycles, which encodes three facts observed both in the paper's Table
// 1 and in the instrumented real solver of this repository
// (internal/solver with linalg.Ops counting):
//
//  1. cells double per unit of i+j, so per-step cost doubles;
//  2. work is U-shaped across one grid level: the anisotropic end grids
//     (lm,0) and (0,lm) cost a multiple of the balanced middle grid — the
//     real solver probe at lm=6 measured max/min ~ 3.1 with the (i,0) end
//     heavier (advection a1 > a2), reproduced here by GammaY < 1;
//  3. tightening the tolerance from 1.0e-3 to 1.0e-4 roughly doubles the
//     work (the paper's st ratio is 1.9-2.15; tolFactor = (TolRef/tol)^TolExp).
//
// # Calibration
//
// Beta is set so the modelled sequential time grows by the paper's
// observed factor ~2.42 per level (2 * 2^Beta = 2.42), and W0 anchors the
// absolute scale to the paper's st(level=15, tol=1.0e-3) = 2019.02 s on a
// 1200 MHz machine. The low-level behaviour is anchored by InitMc
// (sequential start-up work, visible in the paper's st(0) ~ 0.02 s).
//
// The real solver's flop counts feeding this calibration charge the
// Rosenbrock stage matrix at its true steady-state cost: an in-place
// rewrite of its n diagonal entries per step-size change (nothing when the
// controller holds the step), not the full re-assembly the seed performed
// — see the "Hot-loop cost model" section of EXPERIMENTS.md.
package workmodel

import (
	"math"

	"repro/internal/grid"
)

// Model holds the calibrated constants. The zero value is useless; start
// from Paper().
type Model struct {
	W0      float64 // base megacycles per grid-work unit at TolRef
	Beta    float64 // anisotropy exponent (imbalance across one level)
	BetaTol float64 // extra anisotropy per decade of tolerance tightening
	Delta   float64 // uniform per-level exponent (step-count growth)
	GammaY  float64 // relative weight of y-anisotropy (a2 < a1 => < 1)
	TolRef  float64 // reference tolerance of W0
	TolExp  float64 // work ~ (TolRef/tol)^TolExp

	InitMc        float64 // sequential initialization work, megacycles
	ProlongMcCell float64 // prolongation megacycles per source cell
	RootRef       int     // root level the calibration assumed (2)
}

// Paper returns the model calibrated against the paper's Table 1.
func Paper() Model {
	return Model{
		W0:      0.32232,
		Beta:    0.275,
		BetaTol: 0.045,
		Delta:   0,
		GammaY:  0.70,
		TolRef:  1e-3,
		TolExp:  0.1607,
		InitMc:  25,
		// Prolongation visits every family grid's cells once with a
		// handful of flops per point; a small per-cell constant.
		ProlongMcCell: 2e-5,
		RootRef:       2,
	}
}

// TolFactor returns the work multiplier for an integrator tolerance.
func (m Model) TolFactor(tol float64) float64 {
	return math.Pow(m.TolRef/tol, m.TolExp)
}

// Cells returns the cell count of a grid.
func Cells(g grid.Grid) float64 {
	return float64(g.NX()) * float64(g.NY())
}

// BetaFor returns the anisotropy exponent at a tolerance: tighter
// tolerances hit the stiff anisotropic end grids harder (more rejected
// steps, worse conditioning), so the imbalance steepens slightly.
func (m Model) BetaFor(tol float64) float64 {
	return m.Beta + m.BetaTol*math.Log10(m.TolRef/tol)
}

// GridWork returns the subsolve work on g in megacycles at the given
// tolerance. Roots other than RootRef scale with the cell count.
func (m Model) GridWork(g grid.Grid, tol float64) float64 {
	i, j := float64(g.L1), float64(g.L2)
	beta := m.BetaFor(tol)
	shape := math.Pow(2, beta*i) + m.GammaY*math.Pow(2, beta*j)
	rootScale := math.Pow(4, float64(g.Root-m.RootRef))
	return m.W0 * m.TolFactor(tol) * rootScale * math.Pow(2, (1+m.Delta)*(i+j)) * shape
}

// JobBytes returns the size of the unit the master ships to the worker of
// grid g: the grid's share of the global data structure (initial data and
// solver workspace headers).
func JobBytes(g grid.Grid) float64 { return 32*Cells(g) + 2048 }

// ResultBytes returns the size of the worker's computed result (the
// solution field written back into the global data structure).
func ResultBytes(g grid.Grid) float64 { return 16*Cells(g) + 2048 }

// ProlongWork returns the master's final sequential prolongation work for
// a family, in megacycles.
func (m Model) ProlongWork(root, level int) float64 {
	total := 0.0
	for _, g := range grid.Family(root, level) {
		total += Cells(g)
	}
	return m.InitMc/10 + m.ProlongMcCell*total
}

// SequentialMc returns the total work of the unrestructured program:
// init, every subsolve in the nested loop, and the prolongation.
func (m Model) SequentialMc(root, level int, tol float64) float64 {
	total := m.InitMc + m.ProlongWork(root, level)
	for _, g := range grid.Family(root, level) {
		total += m.GridWork(g, tol)
	}
	return total
}

// SequentialSeconds is SequentialMc on a machine of the given clock rate —
// the paper's "st" column when run at 1200 MHz.
func (m Model) SequentialSeconds(root, level int, tol, mhz float64) float64 {
	return m.SequentialMc(root, level, tol) / mhz
}
