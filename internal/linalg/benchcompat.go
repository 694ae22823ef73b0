package linalg

// The identifiers benchmark/ still names from the deleted intra-grid team
// and its calibration. Every kernel runs on its caller; these stand-ins do
// the same. Delete with the benchmark's team and calibration rows.

// Deprecated: Team runs every call on its caller.
type Team struct{}

// Deprecated: NewTeam ignores n; the team has one member, the caller.
func NewTeam(n int) *Team { return &Team{} }

// Deprecated: Size is always 1.
func (t *Team) Size() int { return 1 }

// Deprecated: Run calls fn(0, n).
func (t *Team) Run(n int, fn func(lo, hi int)) { fn(0, n) }

// Deprecated: MulVec is m.MulVec(y, x, ops).
func (t *Team) MulVec(m *CSR, y, x Vector, ops *Ops) { m.MulVec(y, x, ops) }

// Deprecated: Close does nothing.
func (t *Team) Close() {}

// Deprecated: Calibration is always zero.
type Calibration struct {
	DispatchUs  float64
	ElemNs      float64
	ParMinPhase int
}

// Deprecated: Calibrate measures nothing and returns the zero Calibration.
func Calibrate() Calibration { return Calibration{} }
