package solver

// The identifiers benchmark/ still names from the deleted work-stealing
// schedules and intra-grid teams. Delete with the benchmark's steal and
// elastic rows and its CoresPerWorker settings.

// Deprecated: Schedule is accepted and ignored; every value runs the pool.
type Schedule int

// Deprecated: both run the pool.
const (
	ScheduleSteal Schedule = iota + 1
	ScheduleStealElastic
)

// Deprecated: SchedStats is always zero.
type SchedStats struct{ Steals, Donations, Resizes int }

type compatParams struct {
	Schedule  Schedule // Deprecated: ignored.
	StealSeed int64    // Deprecated: ignored.

	CoresPerWorker int // Deprecated: ignored; every kernel runs on its caller.
}

type compatOutput struct {
	Sched SchedStats // Deprecated: always zero.
}
