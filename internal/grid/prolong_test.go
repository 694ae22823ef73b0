package grid

import (
	"fmt"
	"math"
	"testing"
)

// TestProlongateMatchesEval checks the tabled ProlongateInto against Eval
// at every target point, bit for bit: onto finer, coarser and equal grids,
// anisotropic either way, with source values that carry signed zeros. The
// target is prefilled with NaN so a point left unwritten shows.
func TestProlongateMatchesEval(t *testing.T) {
	grids := []Grid{
		{Root: 1},
		{Root: 2, L1: 1, L2: 1},
		{Root: 1, L1: 4, L2: 0},
		{Root: 1, L1: 0, L2: 4},
		{Root: 2, L1: 3, L2: 1},
		{Root: 3, L1: 2, L2: 2},
	}
	for _, src := range grids {
		f := NewField(src)
		f.Fill(func(x, y float64) float64 { return math.Sin(7*x+0.3) * math.Cos(5*y) })
		for i := range f.V {
			if i%9 == 4 {
				f.V[i] = math.Copysign(0, -1)
			}
		}
		for _, dst := range grids {
			name := fmt.Sprintf("%v onto %v", src, dst)
			out := NewField(dst)
			for i := range out.V {
				out.V[i] = math.NaN()
			}
			f.ProlongateInto(out)
			for iy := 0; iy <= dst.NY(); iy++ {
				for ix := 0; ix <= dst.NX(); ix++ {
					want := f.Eval(dst.X(ix), dst.Y(iy))
					if got := out.At(ix, iy); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: point (%d,%d) = %v, Eval %v", name, ix, iy, got, want)
					}
				}
			}
		}
	}
}
