// Package grid provides the dyadic tensor grids of the sparse-grid method:
// rectangular grids (l1, l2) on the unit square, fields living on them,
// bilinear interpolation/prolongation between grids, and the sparse-grid
// combination formula that assembles the final solution from the coarse
// anisotropic solves (the paper's "prolongation work" after the nested
// loop).
package grid

import (
	"fmt"

	"repro/internal/linalg"
)

// Grid identifies a rectangular grid on the unit square. The paper's
// subsolve(l, m) works on grid (l, m) with a global root refinement: the
// grid has 2^(root+l1) cells in x and 2^(root+l2) cells in y.
type Grid struct {
	Root   int // refinement level of the coarsest grid (paper argv[1])
	L1, L2 int // additional refinement in x and y
}

// NX returns the number of cells in x.
func (g Grid) NX() int { return 1 << uint(g.Root+g.L1) }

// NY returns the number of cells in y.
func (g Grid) NY() int { return 1 << uint(g.Root+g.L2) }

// Hx returns the mesh width in x.
func (g Grid) Hx() float64 { return 1.0 / float64(g.NX()) }

// Hy returns the mesh width in y.
func (g Grid) Hy() float64 { return 1.0 / float64(g.NY()) }

// Points returns the number of grid points including the boundary.
func (g Grid) Points() int { return (g.NX() + 1) * (g.NY() + 1) }

// Interior returns the number of interior (unknown) points.
func (g Grid) Interior() int { return (g.NX() - 1) * (g.NY() - 1) }

// Level returns l1 + l2, the grid's place in the combination hierarchy.
func (g Grid) Level() int { return g.L1 + g.L2 }

// X returns the x coordinate of column ix.
func (g Grid) X(ix int) float64 { return float64(ix) * g.Hx() }

// Y returns the y coordinate of row iy.
func (g Grid) Y(iy int) float64 { return float64(iy) * g.Hy() }

func (g Grid) String() string { return fmt.Sprintf("grid(%d,%d;root=%d)", g.L1, g.L2, g.Root) }

// Field is a scalar field sampled at the points of a grid (boundary
// included), stored row-major: index = iy*(NX+1) + ix.
type Field struct {
	G Grid
	V linalg.Vector
}

// NewField allocates a zero field on g.
func NewField(g Grid) *Field {
	return &Field{G: g, V: linalg.NewVector(g.Points())}
}

// idx returns the storage index of point (ix, iy).
func (f *Field) idx(ix, iy int) int { return iy*(f.G.NX()+1) + ix }

// At returns the value at point (ix, iy).
func (f *Field) At(ix, iy int) float64 { return f.V[f.idx(ix, iy)] }

// Set stores v at point (ix, iy).
func (f *Field) Set(ix, iy int, v float64) { f.V[f.idx(ix, iy)] = v }

// Clone returns a deep copy.
func (f *Field) Clone() *Field {
	return &Field{G: f.G, V: f.V.Clone()}
}

// Fill evaluates fn at every grid point.
func (f *Field) Fill(fn func(x, y float64) float64) {
	nx, ny := f.G.NX(), f.G.NY()
	for iy := 0; iy <= ny; iy++ {
		y := f.G.Y(iy)
		for ix := 0; ix <= nx; ix++ {
			f.V[iy*(nx+1)+ix] = fn(f.G.X(ix), y)
		}
	}
}

// Eval bilinearly interpolates the field at (x, y) in [0,1]^2.
func (f *Field) Eval(x, y float64) float64 {
	nx, ny := f.G.NX(), f.G.NY()
	fx := x * float64(nx)
	fy := y * float64(ny)
	ix, iy := int(fx), int(fy)
	if ix >= nx {
		ix = nx - 1
	}
	if iy >= ny {
		iy = ny - 1
	}
	tx, ty := fx-float64(ix), fy-float64(iy)
	v00 := f.At(ix, iy)
	v10 := f.At(ix+1, iy)
	v01 := f.At(ix, iy+1)
	v11 := f.At(ix+1, iy+1)
	return (1-tx)*(1-ty)*v00 + tx*(1-ty)*v10 + (1-tx)*ty*v01 + tx*ty*v11
}

// Prolongate interpolates f onto target, returning a new field. Because
// grids are dyadic, coinciding points are reproduced exactly.
func (f *Field) Prolongate(target Grid) *Field {
	out := NewField(target)
	f.ProlongateInto(out)
	return out
}

// ProlongateInto interpolates f onto out's grid, overwriting out: every
// point gets Eval's value bit for bit. The source cell and the weight Eval
// computes for a coordinate depend on that coordinate alone, so they are
// tabled once per target column and once per target row, and each point
// evaluates Eval's bilinear expression from two source rows.
func (f *Field) ProlongateInto(out *Field) {
	target := out.G
	nx, ny := target.NX(), target.NY()
	cols := taps(nx, f.G.NX(), target.X)
	rows := taps(ny, f.G.NY(), target.Y)
	stride := f.G.NX() + 1
	for iy, ry := range rows {
		ty := ry.t
		src0, src1 := f.V[ry.i*stride:][:stride], f.V[(ry.i+1)*stride:][:stride]
		dst := out.V[iy*(nx+1):][:nx+1]
		for ix, cx := range cols {
			tx, i := cx.t, cx.i
			v00, v10, v01, v11 := src0[i], src0[i+1], src1[i], src1[i+1]
			dst[ix] = (1-tx)*(1-ty)*v00 + tx*(1-ty)*v10 + (1-tx)*ty*v01 + tx*ty*v11
		}
	}
}

// A tap is where Eval reads one coordinate: the source cell i and the
// coordinate's offset t in it.
type tap struct {
	i int
	t float64
}

// taps returns Eval's tap of each of a target axis's n+1 coordinates
// coord(0..n) on a source axis of src cells, by Eval's expressions.
func taps(n, src int, coord func(int) float64) []tap {
	out := make([]tap, n+1)
	for j := range out {
		fc := coord(j) * float64(src)
		i := int(fc)
		if i >= src {
			i = src - 1
		}
		out[j] = tap{i, fc - float64(i)}
	}
	return out
}

// MaxDiff returns the maximum absolute pointwise difference between two
// fields on the same grid.
func (f *Field) MaxDiff(g *Field) float64 {
	if f.G != g.G {
		panic("grid: MaxDiff across different grids")
	}
	d := linalg.NewVector(len(f.V))
	d.Sub(f.V, g.V, nil)
	return d.NormInf()
}

// Family returns the grids visited by the paper's nested loop for a given
// additional refinement level: for lm = level-1 and lm = level, the grids
// (l, lm-l) for l = 0..lm. The total count is 2*level + 1 (the paper's
// worker count w = 2l + 1).
func Family(root, level int) []Grid {
	var out []Grid
	for lm := level - 1; lm <= level; lm++ {
		if lm < 0 {
			continue
		}
		for l := 0; l <= lm; l++ {
			out = append(out, Grid{Root: root, L1: l, L2: lm - l})
		}
	}
	return out
}

// CombineCoefficient returns the weight of a family grid in the 2D
// combination formula: +1 for grids with l1+l2 = level, -1 for grids with
// l1+l2 = level-1.
func CombineCoefficient(g Grid, level int) float64 {
	switch g.Level() {
	case level:
		return 1
	case level - 1:
		return -1
	default:
		panic(fmt.Sprintf("grid: %v does not belong to the level-%d family", g, level))
	}
}

// Combine evaluates the sparse-grid combination of the family solutions on
// the target grid:
//
//	u = sum_{l1+l2=level} u_{l1,l2} - sum_{l1+l2=level-1} u_{l1,l2}
//
// with every component prolongated (bilinearly) onto target. The fields
// must be exactly the Family(root, level) grids, in any order; they are
// accumulated in that order, one scratch field holding each prolongation in
// turn.
func Combine(fields []*Field, level int, target Grid) *Field {
	out := NewField(target)
	scratch := NewField(target)
	for _, f := range fields {
		f.ProlongateInto(scratch)
		out.V.AXPY(CombineCoefficient(f.G, level), scratch.V, nil)
	}
	return out
}
