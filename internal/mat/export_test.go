package mat

// Test-only access for the external tests that run the kernels on the
// simulator's own systems (package mat_test, which may import rcnet).

var (
	// CheckSchedule is checkSchedule: the subtree schedule's invariants.
	CheckSchedule = checkSchedule
	// CheckBitIdentical is checkBitIdentical: L/D, Solve and SolveBatch
	// against the serial oracles bit for bit at every GOMAXPROCS level.
	CheckBitIdentical = checkBitIdentical
	// CheckPoisonPivots is checkPoisonPivots: the reported failing pivot
	// against the serial oracle at every GOMAXPROCS level.
	CheckPoisonPivots = checkPoisonPivots
	// RandSPD is randSPD: a random strictly diagonally dominant SPD system.
	RandSPD = randSPD
	// GridLaplacian is gridLaplacian: a shifted 5-point grid Laplacian.
	GridLaplacian = gridLaplacian
	// SetSupernodal is setSupernodal: forces the kernel mode of s.
	SetSupernodal = (*LDLSymbolic).setSupernodal
	// CheckStreamsBitIdentical is checkStreamsBitIdentical: the stream
	// plan's invariants and the scalar Solve against the one-column
	// oracle bit for bit.
	CheckStreamsBitIdentical = checkStreamsBitIdentical
	// StreamSizes is streamSizes: the column counts of the two streams
	// and the top.
	StreamSizes = streamSizes
	// StreamRangesInterleave is streamRangesInterleave: whether a stream
	// subtree's column range holds columns outside it.
	StreamRangesInterleave = streamRangesInterleave
)

// SubtreeTasks returns the subtree task count of s's schedule.
func SubtreeTasks(s *LDLSymbolic) int { return len(s.super.taskPtr) - 1 }
