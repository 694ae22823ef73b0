package pde

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// builderA is the assembly of A NewDisc made through linalg.Builder, kept
// here as the reference for the exact-size one.
func builderA(g grid.Grid, p *Problem) *linalg.CSR {
	mx, my := g.NX()-1, g.NY()-1
	hx, hy := g.Hx(), g.Hy()
	b := linalg.NewBuilder(mx*my, mx*my)
	dw, dn := p.D/(hx*hx), p.D/(hy*hy)
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
	wc, ec, sc, nc := dw+aw, dw+ae, dn+as, dn+an
	for iy := 1; iy <= my; iy++ {
		for ix := 1; ix <= mx; ix++ {
			row := (iy-1)*mx + (ix - 1)
			if iy > 1 {
				b.Add(row, row-mx, sc)
			}
			if ix > 1 {
				b.Add(row, row-1, wc)
			}
			b.Add(row, row, diag)
			if ix < mx {
				b.Add(row, row+1, ec)
			}
			if iy < my {
				b.Add(row, row+mx, nc)
			}
		}
	}
	return b.Build()
}

// onePassGrids cover a single interior column (mx = 1), a single interior
// row (my = 1), three columns, three rows, and square grids.
var onePassGrids = []grid.Grid{
	{Root: 1, L1: 0, L2: 3}, // 1 x 15
	{Root: 1, L1: 3, L2: 0}, // 15 x 1
	{Root: 2, L1: 0, L2: 4}, // 3 x 63
	{Root: 2, L1: 4, L2: 0}, // 63 x 3
	{Root: 1},               // 1 x 1
	{Root: 2, L1: 1, L2: 1}, // 7 x 7
	{Root: 5},               // 31 x 31
}

// TestNewDiscMatchesBuilder compares NewDisc's exact-size CSR with the
// Builder assembly field by field: dimensions, row pointers, columns, the
// values bit for bit, the run table and the stencil state, for upwinding
// either way and for pure advection, whose zero couplings stay stored
// entries.
func TestNewDiscMatchesBuilder(t *testing.T) {
	problems := []*Problem{
		PaperProblem(),
		LinearProblem(-1, -0.5, 0.02),
		{A1: 0.7, A2: -1.3},
	}
	for _, g := range onePassGrids {
		for pi, p := range problems {
			got, want := NewDisc(g, p).A, builderA(g, p)
			name := fmt.Sprintf("%v problem %d", g, pi)
			if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
				t.Fatalf("%s: %dx%d with %d values, the Builder's %dx%d with %d", name, got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
			}
			var gotCols, wantCols []int
			var gotVals, wantVals []float64
			for r := 0; r < want.Rows; r++ {
				gotCols, gotVals = got.AppendRow(r, gotCols[:0], gotVals[:0])
				wantCols, wantVals = want.AppendRow(r, wantCols[:0], wantVals[:0])
				if !reflect.DeepEqual(gotCols, wantCols) {
					t.Fatalf("%s: row %d stores columns %v, the Builder's %v", name, r, gotCols, wantCols)
				}
				for i := range wantVals {
					if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
						t.Fatalf("%s: row %d value %d = %v, the Builder's %v", name, r, i, gotVals[i], wantVals[i])
					}
				}
			}
			// The arrays are private; reflect reads their capacities.
			arrays := reflect.ValueOf(got).Elem()
			vals, cols := arrays.FieldByName("val"), arrays.FieldByName("colIdx")
			if vals.Cap() != vals.Len() || cols.Cap() != cols.Len() {
				t.Fatalf("%s: %d values (cap %d), %d columns (cap %d)", name, vals.Len(), vals.Cap(), cols.Len(), cols.Cap())
			}
			// DeepEqual reaches the unexported row pointers, run table and
			// stencil state too.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: row pointers, run table or stencil differ from the Builder's", name)
			}
		}
	}
}

// fullLengthF is the F every Disc evaluated before the source-free path:
// b(t) assembled full length by RHS, then A*u + 1*b.
func fullLengthF(d *Disc, t float64, u, out linalg.Vector, ops *linalg.Ops) {
	b := linalg.NewVector(len(out))
	d.RHS(t, b, ops)
	d.A.MulVec(out, u, ops)
	out.AXPY(1, b, ops)
}

// TestFMatchesFullLengthRHS checks F against fullLengthF bit for bit and
// flop for flop: on the paper's problem (no source, zero boundary), on the
// linear problem with its source and with it removed (nonzero boundary,
// corner rows with two links and, on one-column grids, three), on the
// manufactured problem (source) and on the rotating problem's variable
// discretization. u carries signed zeros, and one u is -0 throughout, so a
// row whose product is zero checks the argument that no product is -0.
func TestFMatchesFullLengthRHS(t *testing.T) {
	noSource := *LinearProblem(1, 0.5, 0.02)
	noSource.Source = nil
	rng := rand.New(rand.NewSource(5))
	for _, g := range onePassGrids {
		discs := map[string]*Disc{
			"paper":             NewDisc(g, PaperProblem()),
			"linear":            NewDisc(g, LinearProblem(1, 0.5, 0.02)),
			"linear, upwind -":  NewDisc(g, LinearProblem(-1, -0.5, 0.02)),
			"linear, no source": NewDisc(g, &noSource),
			"manufactured":      NewDisc(g, ManufacturedProblem(1, 0.5, 0.01)),
			"rotating":          NewVarDisc(g, RotatingProblem(2*math.Pi, 1e-3)),
		}
		for name, d := range discs {
			n := d.N()
			zeros := linalg.NewVector(n)
			for i := range zeros {
				zeros[i] = math.Copysign(0, -1)
			}
			u := linalg.NewVector(n)
			for i := range u {
				switch i % 5 {
				case 1:
					u[i] = math.Copysign(0, -1)
				case 3:
					u[i] = 0
				default:
					u[i] = rng.NormFloat64()
				}
			}
			for _, in := range []linalg.Vector{u, zeros} {
				for _, tt := range []float64{0, 0.37} {
					var gotOps, wantOps linalg.Ops
					got, want := linalg.NewVector(n), linalg.NewVector(n)
					d.F(tt, in, got, &gotOps)
					fullLengthF(d, tt, in, want, &wantOps)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%v %s t=%g: F[%d] = %v, the full-length path's %v", g, name, tt, i, got[i], want[i])
						}
					}
					if gotOps != wantOps {
						t.Fatalf("%v %s: F charges %d flops, the full-length path %d", g, name, gotOps.Flops, wantOps.Flops)
					}
				}
			}
		}
	}
}

// TestFSourceFreeAllocatesNothing: without a source F needs no scratch
// vector, so NewDisc allocates none and F allocates nothing.
func TestFSourceFreeAllocatesNothing(t *testing.T) {
	d := NewDisc(grid.Grid{Root: 3}, PaperProblem())
	if d.rhs != nil {
		t.Fatal("a source-free Disc holds a right-hand-side vector")
	}
	u, out := d.InitialInterior(), linalg.NewVector(d.N())
	if n := testing.AllocsPerRun(10, func() { d.F(0.1, u, out, nil) }); n != 0 {
		t.Fatalf("F made %v allocations", n)
	}
}
