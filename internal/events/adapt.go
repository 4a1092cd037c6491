package events

// ScheduleAdaptationRounds schedules the adaptation tick "adapt/<round>"
// at PrioAdapt — after the instant's maintenance, before its queries (see
// every). This is how a query-centric overlay's adaptation loop
// (internal/adaptive.AdaptRound) enters simulated time: query batches
// observe the stream at PrioQuery, and the rounds scheduled here mutate
// topology and placement between them, preserving the phase-alternation
// contract because handlers never overlap.
func ScheduleAdaptationRounds(e *Engine, start, interval int64, fn func(round int, now int64) error) error {
	return every(e, start, interval, PrioAdapt, "adapt", fn)
}
