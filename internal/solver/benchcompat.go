package solver

// The identifiers benchmark/ still names from the deleted work-stealing
// schedules. Delete with the benchmark's steal and elastic rows.

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
}

type compatOutput struct {
	Sched SchedStats // Deprecated: always zero.
}
