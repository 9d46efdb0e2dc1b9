package mat

// Test-only access for the external tests that run the panel kernels on
// the simulator's own systems (package mat_test, which may import rcnet).

var (
	// CheckSchedule is checkSchedule: the subtree schedule's invariants.
	CheckSchedule = checkSchedule
	// CheckBitIdentical is checkBitIdentical: L/D, Solve and SolveBatch
	// against the serial oracles bit for bit at every GOMAXPROCS level.
	CheckBitIdentical = checkBitIdentical
	// CheckPoisonPivots is checkPoisonPivots: the reported failing pivot
	// against the serial oracle at every GOMAXPROCS level.
	CheckPoisonPivots = checkPoisonPivots
)

// SubtreeTasks returns the subtree task count of s's schedule.
func SubtreeTasks(s *LDLSymbolic) int { return len(s.super.taskPtr) - 1 }
