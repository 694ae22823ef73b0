// Package pde discretizes the paper's transport problem — a time-dependent
// advection-diffusion equation on the unit square — on a rectangular grid:
//
//	u_t + a1*u_x + a2*u_y = d*(u_xx + u_yy) + s(x, y, t)
//
// with Dirichlet boundary values. Space is discretized with first-order
// upwind advection and second-order central diffusion, yielding the
// semi-discrete system du/dt = A*u + b(t) on the interior points, which the
// Rosenbrock integrator (internal/rosenbrock) marches in time.
package pde

import (
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// Problem defines the continuous advection-diffusion problem.
type Problem struct {
	A1, A2 float64 // advection velocity components
	D      float64 // diffusion coefficient (>= 0)

	// Source is the source term s(x, y, t); nil means zero.
	Source func(x, y, t float64) float64
	// Boundary gives the Dirichlet value at boundary point (x, y) at time
	// t; nil means homogeneous.
	Boundary func(x, y, t float64) float64
	// Initial gives u(x, y, 0); nil means zero.
	Initial func(x, y float64) float64
	// Exact, when non-nil, is the known exact solution (for manufactured-
	// solution convergence tests).
	Exact func(x, y, t float64) float64
}

func (p *Problem) source(x, y, t float64) float64 {
	if p.Source == nil {
		return 0
	}
	return p.Source(x, y, t)
}

func (p *Problem) boundary(x, y, t float64) float64 {
	if p.Boundary == nil {
		return 0
	}
	return p.Boundary(x, y, t)
}

func (p *Problem) initial(x, y float64) float64 {
	if p.Initial == nil {
		return 0
	}
	return p.Initial(x, y)
}

// PaperProblem returns the transport problem used throughout the
// reproduction as the stand-in for the CWI application: a Gaussian pulse
// advected diagonally across the unit square with weak diffusion,
// homogeneous Dirichlet boundaries and no source.
func PaperProblem() *Problem {
	return &Problem{
		A1: 1.0,
		A2: 0.5,
		D:  0.01,
		Initial: func(x, y float64) float64 {
			dx, dy := x-0.3, y-0.3
			return math.Exp(-50 * (dx*dx + dy*dy))
		},
	}
}

// ManufacturedProblem returns a problem with the known solution
// u(x,y,t) = exp(-t)*sin(pi x)*sin(pi y), for convergence tests.
func ManufacturedProblem(a1, a2, d float64) *Problem {
	exact := func(x, y, t float64) float64 {
		return math.Exp(-t) * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
	}
	pi := math.Pi
	return &Problem{
		A1: a1, A2: a2, D: d,
		Exact:    exact,
		Initial:  func(x, y float64) float64 { return exact(x, y, 0) },
		Boundary: func(x, y, t float64) float64 { return 0 },
		Source: func(x, y, t float64) float64 {
			e := math.Exp(-t)
			sx, cx := math.Sincos(pi * x)
			sy, cy := math.Sincos(pi * y)
			ut := -e * sx * sy
			ux := e * pi * cx * sy
			uy := e * pi * sx * cy
			lap := -2 * pi * pi * e * sx * sy
			return ut + a1*ux + a2*uy - d*lap
		},
	}
}

// LinearProblem returns a problem whose exact solution u = x + y + t is
// bilinear in space and linear in time, so both the upwind spatial
// discretization and the order-2 time integrator reproduce it to rounding
// error. Ideal for end-to-end exactness tests.
func LinearProblem(a1, a2, d float64) *Problem {
	exact := func(x, y, t float64) float64 { return x + y + t }
	return &Problem{
		A1: a1, A2: a2, D: d,
		Exact:    exact,
		Initial:  func(x, y float64) float64 { return exact(x, y, 0) },
		Boundary: exact,
		Source: func(x, y, t float64) float64 {
			return 1 + a1 + a2 // u_t + a1*u_x + a2*u_y, laplacian = 0
		},
	}
}

// boundaryLink couples interior row to a boundary point with a stencil
// coefficient: b[row] += coef * boundary(x, y, t).
type boundaryLink struct {
	row  int
	x, y float64
	coef float64
}

// Disc is the semi-discrete operator du/dt = A u + b(t) on the interior
// points of one grid.
type Disc struct {
	G grid.Grid
	P *Problem
	A *linalg.CSR

	links   []boundaryLink
	sources []sourcePoint

	// rhs is the scratch vector F uses for b(t) when the problem has a
	// source, allocated once so the integrator's hot loop stays
	// allocation-free. It makes F non-reentrant: a Disc must not be shared
	// by concurrent integrations (each sparse-grid worker builds its own).
	rhs linalg.Vector
}

type sourcePoint struct {
	row  int
	x, y float64
}

// NewDisc assembles the discretization of p on g. The grid must have at
// least one interior point in each direction.
func NewDisc(g grid.Grid, p *Problem) *Disc {
	nx, ny := g.NX(), g.NY()
	mx, my := nx-1, ny-1 // interior counts
	if mx < 1 || my < 1 {
		panic("pde: grid has no interior points")
	}
	hx, hy := g.Hx(), g.Hy()
	d := &Disc{G: g, P: p, links: make([]boundaryLink, 0, 2*(mx+my)), sources: make([]sourcePoint, 0, mx*my)}
	// The stencil's pattern is known, so A's arrays are filled at their
	// exact size, row by row, with no entry buffer between.
	n, nnz := mx*my, 5*mx*my-2*mx-2*my
	rowPtr, colIdx, val := make([]int, n+1), make([]int, 0, nnz), make([]float64, 0, nnz)
	add := func(c int, v float64) {
		colIdx = append(colIdx, c)
		val = append(val, v)
	}

	// Stencil coefficients. Upwind advection: for a1 > 0 the x-derivative
	// uses (u_i - u_{i-1})/hx, contributing -a1/hx to the diagonal and
	// +a1/hx to the west neighbour, and symmetrically for a1 < 0 / a2.
	dw := p.D / (hx * hx) // west/east diffusion weight
	dn := p.D / (hy * hy) // north/south diffusion weight
	var aw, ae, as, an float64
	diag := -2*dw - 2*dn
	if p.A1 >= 0 {
		aw = p.A1 / hx
		diag -= p.A1 / hx
	} else {
		ae = -p.A1 / hx
		diag += p.A1 / hx
	}
	if p.A2 >= 0 {
		as = p.A2 / hy
		diag -= p.A2 / hy
	} else {
		an = -p.A2 / hy
		diag += p.A2 / hy
	}

	wc, ec := dw+aw, dw+ae // west / east neighbour
	sc, nc := dn+as, dn+an // south / north neighbour
	for iy := 1; iy <= my; iy++ {
		for ix := 1; ix <= mx; ix++ {
			row := (iy-1)*mx + (ix - 1) // interior index
			d.sources = append(d.sources, sourcePoint{row: row, x: g.X(ix), y: g.Y(iy)})
			// The row's entries in ascending column order: south, west,
			// diagonal, east, north.
			if iy > 1 {
				add(row-mx, sc)
			}
			if ix > 1 {
				add(row-1, wc)
			}
			add(row, diag)
			if ix < mx {
				add(row+1, ec)
			}
			if iy < my {
				add(row+mx, nc)
			}
			rowPtr[row+1] = len(val)
			// Neighbours on the boundary, in the order RHS sums them.
			if ix == 1 && wc != 0 {
				d.links = append(d.links, boundaryLink{row, g.X(ix - 1), g.Y(iy), wc})
			}
			if ix == mx && ec != 0 {
				d.links = append(d.links, boundaryLink{row, g.X(ix + 1), g.Y(iy), ec})
			}
			if iy == 1 && sc != 0 {
				d.links = append(d.links, boundaryLink{row, g.X(ix), g.Y(iy - 1), sc})
			}
			if iy == my && nc != 0 {
				d.links = append(d.links, boundaryLink{row, g.X(ix), g.Y(iy + 1), nc})
			}
		}
	}
	a, err := linalg.NewCSR(n, n, rowPtr, colIdx, val)
	if err != nil {
		panic(err)
	}
	d.A = a
	if p.Source != nil {
		d.rhs = linalg.NewVector(n)
	}
	return d
}

// N returns the number of interior unknowns.
func (d *Disc) N() int { return d.A.Rows }

// Jacobian returns dF/du = A (the problem is linear), satisfying
// rosenbrock.System.
func (d *Disc) Jacobian() *linalg.CSR { return d.A }

// RHS fills b(t): the boundary couplings plus the source term.
func (d *Disc) RHS(t float64, b linalg.Vector, ops *linalg.Ops) {
	b.Fill(0)
	for _, l := range d.links {
		b[l.row] += l.coef * d.P.boundary(l.x, l.y, t)
	}
	if d.P.Source != nil {
		for _, s := range d.sources {
			b[s.row] += d.P.Source(s.x, s.y, t)
		}
	}
	ops.Add(int64(2*len(d.links)) + int64(8*len(d.sources)))
}

// F evaluates the semi-discrete right-hand side out = A*u + b(t). With a
// source, b(t) is assembled into a scratch vector by RHS and added. Without
// one, b(t) is zero but on the rows linked to the boundary, and F adds it
// there alone: each such row (its links are adjacent, as both assemblies
// append them) gets 1*(its links summed from +0 in RHS order), the bits
// RHS and the AXPY would give it. Every other row keeps the product, which
// is what out + 1*0 would give unless out were -0, and no row of the
// product is: each starts from +0, and under round to nearest a sum is -0
// only if both addends are. The flop charge is the full-length path's.
func (d *Disc) F(t float64, u, out linalg.Vector, ops *linalg.Ops) {
	if d.P.Source != nil {
		if d.rhs == nil {
			d.rhs = linalg.NewVector(len(out))
		}
		d.RHS(t, d.rhs, ops)
		d.A.MulVec(out, u, ops)
		out.AXPY(1, d.rhs, ops)
		return
	}
	d.A.MulVec(out, u, ops)
	links := d.links
	for i := 0; i < len(links); {
		row, b := links[i].row, 0.0
		for ; i < len(links) && links[i].row == row; i++ {
			b += links[i].coef * d.P.boundary(links[i].x, links[i].y, t)
		}
		out[row] += 1 * b
	}
	ops.Add(int64(2*len(links)) + int64(8*len(d.sources)) + 2*int64(len(out)))
}

// InitialInterior samples the initial condition at the interior points.
func (d *Disc) InitialInterior() linalg.Vector {
	u := linalg.NewVector(d.N())
	for _, s := range d.sources {
		u[s.row] = d.P.initial(s.x, s.y)
	}
	return u
}

// FieldFromInterior embeds an interior vector into a full grid field,
// evaluating the boundary condition at time t on the edge points.
func (d *Disc) FieldFromInterior(u linalg.Vector, t float64) *grid.Field {
	return FieldFromInterior(d.G, d.P, u, t)
}

// FieldFromInterior embeds u, the interior unknowns of p on g in Disc's
// ordering, into a full grid field, evaluating p's boundary condition at
// time t on the edge points. It needs no assembled Disc.
func FieldFromInterior(g grid.Grid, p *Problem, u linalg.Vector, t float64) *grid.Field {
	f := grid.NewField(g)
	nx, ny := g.NX(), g.NY()
	for iy := 0; iy <= ny; iy++ {
		for ix := 0; ix <= nx; ix++ {
			if ix == 0 || ix == nx || iy == 0 || iy == ny {
				f.Set(ix, iy, p.boundary(g.X(ix), g.Y(iy), t))
			} else {
				f.Set(ix, iy, u[(iy-1)*(nx-1)+(ix-1)])
			}
		}
	}
	return f
}

// ExactInterior samples the problem's exact solution at time t on the
// interior points (panics if Exact is nil).
func (d *Disc) ExactInterior(t float64) linalg.Vector {
	u := linalg.NewVector(d.N())
	for _, s := range d.sources {
		u[s.row] = d.P.Exact(s.x, s.y, t)
	}
	return u
}
