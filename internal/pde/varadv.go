package pde

import (
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// VarProblem is an advection-diffusion problem with space-dependent
// velocity a(x, y) — still linear in u with a time-independent operator,
// so the Rosenbrock integrator's constant-Jacobian assumption holds.
//
//	u_t + a1(x,y) u_x + a2(x,y) u_y = d (u_xx + u_yy) + s(x,y,t)
type VarProblem struct {
	A1, A2 func(x, y float64) float64
	D      float64

	Source   func(x, y, t float64) float64
	Boundary func(x, y, t float64) float64
	Initial  func(x, y float64) float64
}

// RotatingProblem returns the classic solid-body-rotation transport test
// (the Molenkamp problem): a Gaussian pulse carried around the centre of
// the unit square by the velocity field omega*(-(y-1/2), x-1/2), with weak
// diffusion. One full revolution takes 2*pi/omega time units.
func RotatingProblem(omega, d float64) *VarProblem {
	return &VarProblem{
		A1: func(x, y float64) float64 { return -omega * (y - 0.5) },
		A2: func(x, y float64) float64 { return omega * (x - 0.5) },
		D:  d,
		Initial: func(x, y float64) float64 {
			dx, dy := x-0.5, y-0.25
			return math.Exp(-120 * (dx*dx + dy*dy))
		},
	}
}

// NewVarDisc assembles the first-order upwind / central discretization of
// a variable-coefficient problem on g. The upwind direction is chosen per
// point from the local velocity sign. The returned Disc supports the same
// operations as the constant-coefficient one (it satisfies
// rosenbrock.System through the embedded operator).
func NewVarDisc(g grid.Grid, p *VarProblem) *Disc {
	nx, ny := g.NX(), g.NY()
	mx, my := nx-1, ny-1
	if mx < 1 || my < 1 {
		panic("pde: grid has no interior points")
	}
	hx, hy := g.Hx(), g.Hy()
	// Wrap into the constant-coefficient Problem container so the Disc
	// helpers (RHS, FieldFromInterior, ...) work unchanged; A1/A2 of the
	// container are unused during assembly here.
	cont := &Problem{
		D:        p.D,
		Source:   p.Source,
		Boundary: p.Boundary,
		Initial:  p.Initial,
	}
	d := &Disc{G: g, P: cont}
	b := linalg.NewBuilder(mx*my, mx*my)
	dw := p.D / (hx * hx)
	dn := p.D / (hy * hy)

	idx := func(ix, iy int) int { return (iy-1)*mx + (ix - 1) }
	for iy := 1; iy <= my; iy++ {
		for ix := 1; ix <= mx; ix++ {
			row := idx(ix, iy)
			x, y := g.X(ix), g.Y(iy)
			a1 := p.A1(x, y)
			a2 := p.A2(x, y)
			diag := -2*dw - 2*dn
			var aw, ae, as, an float64
			if a1 >= 0 {
				aw = a1 / hx
				diag -= a1 / hx
			} else {
				ae = -a1 / hx
				diag += a1 / hx
			}
			if a2 >= 0 {
				as = a2 / hy
				diag -= a2 / hy
			} else {
				an = -a2 / hy
				diag += a2 / hy
			}
			b.Add(row, row, diag)
			d.sources = append(d.sources, sourcePoint{row: row, x: x, y: y})
			stencil := []struct {
				jx, jy int
				coef   float64
			}{
				{ix - 1, iy, dw + aw},
				{ix + 1, iy, dw + ae},
				{ix, iy - 1, dn + as},
				{ix, iy + 1, dn + an},
			}
			for _, st := range stencil {
				if st.coef == 0 {
					continue
				}
				if st.jx >= 1 && st.jx <= mx && st.jy >= 1 && st.jy <= my {
					b.Add(row, idx(st.jx, st.jy), st.coef)
				} else {
					d.links = append(d.links, boundaryLink{row, g.X(st.jx), g.Y(st.jy), st.coef})
				}
			}
		}
	}
	d.A = b.Build()
	if p.Source != nil {
		d.rhs = linalg.NewVector(mx * my)
	}
	return d
}
