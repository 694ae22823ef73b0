// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation and measure the substrates. One benchmark per
// experiment:
//
//	BenchmarkTable1Tol1e3 / BenchmarkTable1Tol1e4 — Table 1 (both series)
//	BenchmarkFigure1 ... BenchmarkFigure5         — Figures 1-5
//	BenchmarkAblation*                            — design-choice ablations
//
// The per-experiment metrics (speedup, machines, concurrent seconds) are
// attached with b.ReportMetric, so `go test -bench . -benchmem` prints the
// reproduced headline numbers next to the timing of the reproduction
// itself.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/manifold"
	"repro/internal/mwsim"
	"repro/internal/pde"
	"repro/internal/rosenbrock"
	"repro/internal/sim"
	"repro/internal/solver"
)

// --- Table 1 ---

func benchTable(b *testing.B, tol float64) {
	var rows []bench.Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(bench.DefaultTable1Options(tol))
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Su, "speedup@15")
	b.ReportMetric(last.M, "machines@15")
	b.ReportMetric(last.Ct, "ct@15_s")
	b.ReportMetric(last.St, "st@15_s")
}

func BenchmarkTable1Tol1e3(b *testing.B) { benchTable(b, 1e-3) }
func BenchmarkTable1Tol1e4(b *testing.B) { benchTable(b, 1e-4) }

// BenchmarkTable1Row regenerates single rows (the per-level cost of the
// cluster replay).
func BenchmarkTable1Row(b *testing.B) {
	for _, level := range []int{0, 5, 10, 15} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			var r mwsim.Result
			for i := 0; i < b.N; i++ {
				r = mwsim.Run(mwsim.PaperConfig(2, level, 1e-3))
			}
			b.ReportMetric(r.Speedup, "speedup")
			b.ReportMetric(r.AvgMachines, "machines")
		})
	}
}

// --- Figures ---

func BenchmarkFigure1(b *testing.B) {
	var f bench.Figure1Result
	for i := 0; i < b.N; i++ {
		f = bench.Figure1(2, 15, 1e-3)
	}
	b.ReportMetric(float64(f.PeakM), "peak_machines")
	b.ReportMetric(f.AvgM, "avg_machines")
	b.ReportMetric(f.DurationSec, "duration_s")
}

func benchTimesFigure(b *testing.B, tol float64) {
	var curves []bench.FigureSeries
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(bench.DefaultTable1Options(tol))
		curves = bench.TimesFigure(rows, tol)
	}
	n := len(curves[0].Measured)
	b.ReportMetric(curves[0].Measured[n-1], "st@15_s")
	b.ReportMetric(curves[1].Measured[n-1], "ct@15_s")
}

func benchSpeedupFigure(b *testing.B, tol float64) {
	var curves []bench.FigureSeries
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(bench.DefaultTable1Options(tol))
		curves = bench.SpeedupFigure(rows, tol)
	}
	n := len(curves[0].Measured)
	b.ReportMetric(curves[0].Measured[n-1], "speedup@15")
	b.ReportMetric(curves[1].Measured[n-1], "machines@15")
}

func BenchmarkFigure2(b *testing.B) { benchTimesFigure(b, 1e-3) }
func BenchmarkFigure3(b *testing.B) { benchSpeedupFigure(b, 1e-3) }
func BenchmarkFigure4(b *testing.B) { benchTimesFigure(b, 1e-4) }
func BenchmarkFigure5(b *testing.B) { benchSpeedupFigure(b, 1e-4) }

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationPerpetual measures the {perpetual} keyword: task reuse
// vs a fresh fork per worker.
func BenchmarkAblationPerpetual(b *testing.B) {
	for _, perpetual := range []bool{true, false} {
		b.Run(fmt.Sprintf("perpetual=%v", perpetual), func(b *testing.B) {
			cfg := mwsim.PaperConfig(2, 8, 1e-3)
			cfg.Perpetual = perpetual
			var r mwsim.Result
			for i := 0; i < b.N; i++ {
				r = mwsim.Run(cfg)
			}
			b.ReportMetric(float64(r.Forks), "forks")
			b.ReportMetric(r.ConcurrentSec, "ct_s")
		})
	}
}

// BenchmarkAblationPools compares one pool for the whole nested loop with
// a pool (and rendezvous barrier) per grid level.
func BenchmarkAblationPools(b *testing.B) {
	for _, split := range []bool{false, true} {
		b.Run(fmt.Sprintf("poolPerLevel=%v", split), func(b *testing.B) {
			cfg := mwsim.PaperConfig(2, 13, 1e-3)
			cfg.PoolPerLevel = split
			var r mwsim.Result
			for i := 0; i < b.N; i++ {
				r = mwsim.Run(cfg)
			}
			b.ReportMetric(r.ConcurrentSec, "ct_s")
			b.ReportMetric(r.Speedup, "speedup")
		})
	}
}

// BenchmarkAblationIOWorkers measures §4.1's untried alternative: I/O
// workers moving the data instead of the master.
func BenchmarkAblationIOWorkers(b *testing.B) {
	for _, io := range []bool{false, true} {
		b.Run(fmt.Sprintf("ioWorkers=%v", io), func(b *testing.B) {
			cfg := mwsim.PaperConfig(2, 15, 1e-3)
			cfg.IOWorkers = io
			var r mwsim.Result
			for i := 0; i < b.N; i++ {
				r = mwsim.Run(cfg)
			}
			b.ReportMetric(r.ConcurrentSec, "ct_s")
			b.ReportMetric(r.Speedup, "speedup")
		})
	}
}

// BenchmarkAblationBundling compares the distributed deployment ({load 1})
// with the single-task parallel deployment (everything bundled).
func BenchmarkAblationBundling(b *testing.B) {
	for _, load := range []int{1, 64} {
		b.Run(fmt.Sprintf("load=%d", load), func(b *testing.B) {
			cfg := mwsim.PaperConfig(2, 12, 1e-3)
			cfg.MaxLoad = load
			var r mwsim.Result
			for i := 0; i < b.N; i++ {
				r = mwsim.Run(cfg)
			}
			b.ReportMetric(r.ConcurrentSec, "ct_s")
			b.ReportMetric(float64(r.PeakMachines), "peak_machines")
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkRealSolverSeqVsConc runs the actual Go solver (not the
// simulator) both ways on a small level: the local analogue of one Table 1
// row.
func BenchmarkRealSolverSeqVsConc(b *testing.B) {
	p := solver.Params{Root: 2, Level: 3, Tol: 1e-3}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Sequential(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Concurrent(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSubsolve(b *testing.B) {
	prob := pde.PaperProblem()
	g := grid.Grid{Root: 2, L1: 2, L2: 2}
	for i := 0; i < b.N; i++ {
		if _, err := solver.Subsolve(g, prob, 1e-3, solver.DefaultTEnd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiCGStab(b *testing.B) {
	g := grid.Grid{Root: 2, L1: 3, L2: 3}
	d := pde.NewDisc(g, pde.PaperProblem())
	m := d.A.ShiftedScaled(0.01)
	rhs := linalg.NewVector(d.N())
	rhs.Fill(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := linalg.NewVector(d.N())
		if _, err := linalg.BiCGStab(m, x, rhs, 1e-10, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROS2Step(b *testing.B) {
	g := grid.Grid{Root: 2, L1: 2, L2: 2}
	d := pde.NewDisc(g, pde.PaperProblem())
	u0 := d.InitialInterior()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := u0.Clone()
		if _, err := rosenbrock.Integrate(d, u, 0, 0.01, rosenbrock.Config{Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	fam := grid.Family(2, 4)
	var fields []*grid.Field
	for _, g := range fam {
		f := grid.NewField(g)
		f.Fill(func(x, y float64) float64 { return x * y })
		fields = append(fields, f)
	}
	target := grid.Grid{Root: 2, L1: 4, L2: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.Combine(fields, 4, target)
	}
}

// BenchmarkProtocolPool measures the coordination overhead of the real
// (goroutine) master/worker protocol with trivial work — the Go analogue
// of the paper's "overhead of the coordination layer".
func BenchmarkProtocolPool(b *testing.B) {
	for _, workers := range []int{1, 8, 31} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Run(func(m *core.Master) {
					m.CreatePool()
					for j := 0; j < workers; j++ {
						m.CreateWorker()
						m.Send(j)
					}
					for j := 0; j < workers; j++ {
						m.ReadResult()
					}
					m.Rendezvous()
					m.Finished()
				}, func(w *core.Worker) {
					w.Write(w.Read())
				})
			}
		})
	}
}

// BenchmarkStreams measures unit throughput through a manifold stream.
func BenchmarkStreams(b *testing.B) {
	env := manifold.NewEnv()
	src := env.NewProcess("src", nil)
	dst := env.NewProcess("dst", nil)
	manifold.Connect(src.Output(), dst.Input(), manifold.KK)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Output().Write(i)
		if _, ok := dst.Input().Read(); !ok {
			b.Fatal("port closed")
		}
	}
}

// BenchmarkSimEngine measures the discrete-event kernel (events/second).
func BenchmarkSimEngine(b *testing.B) {
	env := sim.NewEnv()
	env.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkAblationInnerSolver compares the two inner linear solvers on a
// real Subsolve call (BiCGStab preconditioned along the grid lines vs
// ILU(0)).
func BenchmarkAblationInnerSolver(b *testing.B) {
	g := grid.Grid{Root: 2, L1: 2, L2: 2}
	prob := pde.PaperProblem()
	for _, lin := range []rosenbrock.LinearSolver{rosenbrock.BiCGStab, rosenbrock.ILU} {
		b.Run(lin.String(), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				r, err := solver.SubsolveWith(g, prob, 1e-3, solver.DefaultTEnd, lin)
				if err != nil {
					b.Fatal(err)
				}
				iters = r.Stats.LinIters
			}
			b.ReportMetric(float64(iters), "krylov_iters")
		})
	}
}
