package solver

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
)

// A symmetry is a map of the unit square that sends the paper's problem
// family to itself: a grid to its image grid, an interior point of one to
// the interior point of the other it lands on, and a problem to its image.
type symmetry struct {
	name  string
	grid  func(g grid.Grid) grid.Grid
	point func(g grid.Grid, ix, iy int) (int, int) // point (ix, iy) of g
	xy    func(x, y float64) (float64, float64)    // a point of the square; the map is its own inverse
	vel   func(a1, a2 float64) (float64, float64)  // a velocity, carried to the image point
}

var symmetries = []symmetry{
	{
		name:  "transposition",
		grid:  func(g grid.Grid) grid.Grid { return grid.Grid{Root: g.Root, L1: g.L2, L2: g.L1} },
		point: func(g grid.Grid, ix, iy int) (int, int) { return iy, ix },
		xy:    func(x, y float64) (float64, float64) { return y, x },
		vel:   func(a1, a2 float64) (float64, float64) { return a2, a1 },
	},
	{
		name:  "x-mirror",
		grid:  func(g grid.Grid) grid.Grid { return g },
		point: func(g grid.Grid, ix, iy int) (int, int) { return g.NX() - ix, iy },
		xy:    func(x, y float64) (float64, float64) { return 1 - x, y },
		vel:   func(a1, a2 float64) (float64, float64) { return -a1, a2 },
	},
}

// image returns p seen through the map m: the velocity's components
// transformed like the coordinates, and the initial, source and boundary
// functions read at the mapped point.
func (m symmetry) image(p *pde.Problem) *pde.Problem {
	q := &pde.Problem{D: p.D}
	q.A1, q.A2 = m.vel(p.A1, p.A2)
	if f := p.Initial; f != nil {
		q.Initial = func(x, y float64) float64 { return f(m.xy(x, y)) }
	}
	if f := p.Source; f != nil {
		q.Source = func(x, y, t float64) float64 { x, y = m.xy(x, y); return f(x, y, t) }
	}
	if f := p.Boundary; f != nil {
		q.Boundary = func(x, y, t float64) float64 { x, y = m.xy(x, y); return f(x, y, t) }
	}
	return q
}

// varImage is image for a variable-coefficient problem: both maps send
// RotatingProblem(omega) to the field of RotatingProblem(-omega).
func (m symmetry) varImage(p *pde.VarProblem) *pde.VarProblem {
	q := &pde.VarProblem{D: p.D}
	a1, a2 := p.A1, p.A2
	q.A1 = func(x, y float64) float64 { b1, _ := m.vel(a1(m.xy(x, y)), a2(m.xy(x, y))); return b1 }
	q.A2 = func(x, y float64) float64 { _, b2 := m.vel(a1(m.xy(x, y)), a2(m.xy(x, y))); return b2 }
	if f := p.Initial; f != nil {
		q.Initial = func(x, y float64) float64 { return f(m.xy(x, y)) }
	}
	return q
}

// symmetryBound is the largest relative distance, in max norm, a grid's
// solution may keep from its image's mapped back. Both maps permute the
// unknowns, and the discretization commutes with them exactly (the upwind
// side flips with the velocity's sign), so where the solve is equivariant
// too only the order of the sums differs: rounding level, 1e-12 (the
// sweep below reads at most 9e-15). The line factor is, under both maps,
// when one direction couples more strongly: it solves the image's lines in
// the image's order. So is ILU(0) under transposition: the 5-point
// pattern's incomplete factor is the same in the transposed grid's row
// order. Elsewhere the two stage solves stop at different residuals below
// LinTol = 1e-2*Tol, and the bound is LinTol: ILU(0) under the mirror,
// whose factor depends on the order of the unknowns (the sweep reads
// 0.15*LinTol), and the line factor on a tie (tie true), which it breaks
// towards x on both sides: RotatingProblem couples both directions of a
// square grid equally (0.04*LinTol).
func symmetryBound(m symmetry, lin rosenbrock.LinearSolver, tol float64, tie bool) float64 {
	if m.name == "x-mirror" && lin == rosenbrock.ILU || tie && lin == rosenbrock.BiCGStab {
		return 1e-2 * tol
	}
	return 1e-12
}

// mappedDistance returns max |u(P) - v(m(P))| / max |u| over the interior
// points P of g, with u on g and v on m.grid(g).
func mappedDistance(m symmetry, g grid.Grid, u, v linalg.Vector) float64 {
	mx, my := g.NX()-1, g.NY()-1
	h := m.grid(g)
	hx := h.NX() - 1
	d, scale := 0.0, 0.0
	for iy := 1; iy <= my; iy++ {
		for ix := 1; ix <= mx; ix++ {
			jx, jy := m.point(g, ix, iy)
			a, b := u[(iy-1)*mx+ix-1], v[(jy-1)*hx+jx-1]
			d, scale = math.Max(d, math.Abs(a-b)), math.Max(scale, math.Abs(a))
		}
	}
	return d / scale
}

// TestFamilySymmetry runs solver.Sequential on the paper's pulse and on the
// manufactured problem, each beside its image under transposition and
// under the x-mirror, with both preconditioners, for roots 1-3 and levels
// up to 6 (3 under -short). Every grid takes the same accepted and
// rejected steps as its image, and its solution maps onto the image's
// within symmetryBound; so do the combined fields. The variable-coefficient
// RotatingProblem(omega), whose image under either map is
// RotatingProblem(-omega)'s velocity, is checked grid by grid the same way.
func TestFamilySymmetry(t *testing.T) {
	maxLevel := 6
	if testing.Short() {
		maxLevel = 3
	}
	const tol = 1e-3
	problems := []struct {
		name string
		p    *pde.Problem
	}{
		{"pulse", pde.PaperProblem()},
		{"manufactured", pde.ManufacturedProblem(1, 0.5, 0.01)},
	}
	worst := map[string]float64{}
	for _, m := range symmetries {
		for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
			bound := symmetryBound(m, lin, tol, false)
			key := fmt.Sprintf("%s %v", m.name, lin)
			for _, pr := range problems {
				for root := 1; root <= 3; root++ {
					for level := 0; level <= maxLevel; level++ {
						name := fmt.Sprintf("%s, %s, root %d level %d", key, pr.name, root, level)
						p := Params{Root: root, Level: level, Tol: tol, Solver: lin, Problem: pr.p}
						q := p
						q.Problem = m.image(pr.p)
						out, err := Sequential(p)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						img, err := Sequential(q)
						if err != nil {
							t.Fatalf("%s, image: %v", name, err)
						}
						byGrid := map[grid.Grid]Result{}
						for _, r := range img.Results {
							byGrid[r.Grid] = r
						}
						for _, r := range out.Results {
							ri := byGrid[m.grid(r.Grid)]
							if r.Stats.Steps != ri.Stats.Steps || r.Stats.Rejected != ri.Stats.Rejected {
								t.Fatalf("%s: grid %v takes %d steps (%d rejected), its image %d (%d)", name, r.Grid, r.Stats.Steps, r.Stats.Rejected, ri.Stats.Steps, ri.Stats.Rejected)
							}
							d := mappedDistance(m, r.Grid, r.U, ri.U)
							worst[key] = math.Max(worst[key], d)
							if !(d <= bound) {
								t.Fatalf("%s: grid %v lies %.3g from its image, bound %.3g", name, r.Grid, d, bound)
							}
						}
						// The combined field, on the square evaluation grid,
						// boundary included.
						e := out.Combined.G
						n := e.NX()
						d, scale := 0.0, 0.0
						for iy := 0; iy <= n; iy++ {
							for ix := 0; ix <= n; ix++ {
								jx, jy := m.point(e, ix, iy)
								a := out.Combined.At(ix, iy)
								d, scale = math.Max(d, math.Abs(a-img.Combined.At(jx, jy))), math.Max(scale, math.Abs(a))
							}
						}
						if !(d <= bound*scale) {
							t.Fatalf("%s: combined field lies %.3g from its image, bound %.3g", name, d/scale, bound)
						}
					}
				}
			}

			rot := pde.RotatingProblem(2, 0.001)
			rimg := m.varImage(rot)
			bound = symmetryBound(m, lin, tol, m.name == "transposition")
			for _, g := range grid.Family(2, min(maxLevel, 4)) {
				name := fmt.Sprintf("%s, rotating, grid %v", key, g)
				r, err := SubsolveOn(pde.NewVarDisc(g, rot), tol, 0.1, lin, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ri, err := SubsolveOn(pde.NewVarDisc(m.grid(g), rimg), tol, 0.1, lin, nil)
				if err != nil {
					t.Fatalf("%s, image: %v", name, err)
				}
				if r.Stats.Steps != ri.Stats.Steps || r.Stats.Rejected != ri.Stats.Rejected {
					t.Fatalf("%s: %d steps (%d rejected), the image %d (%d)", name, r.Stats.Steps, r.Stats.Rejected, ri.Stats.Steps, ri.Stats.Rejected)
				}
				d := mappedDistance(m, g, r.U, ri.U)
				worst[key+" rotating"] = math.Max(worst[key+" rotating"], d)
				if !(d <= bound) {
					t.Fatalf("%s: lies %.3g from its image, bound %.3g", name, d, bound)
				}
			}
		}
	}
	keys := make([]string, 0, len(worst))
	for k := range worst {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("%s: worst relative distance %.3g", k, worst[k])
	}
}
