package core

// Tuple tags of the PLinda data mining programs (RunPLED, RunPLET).
// Every producer and consumer references these constants rather than
// bare string literals, so a tag typo is a compile error and
// lindalint's tuple-contract cross-reference has a single source of
// truth. The wire contracts they name:
//
//	(TagTask, key string)                        work unit; key PoisonKey terminates a worker
//	(TagResult, key string, score float64)       PLED goodness report
//	(TagGood, keys []string, scores []float64)   PLET good-pattern batch: the good patterns
//	                                             of one worker transaction, parallel slices
//	(TagCtl, kind string, key string, []string)  PLET termination control:
//	                                             kind CtlExpanded carries the spilled task keys,
//	                                             kind CtlPruned carries nil
const (
	TagTask   = "task"
	TagResult = "result"
	TagGood   = "good"
	TagCtl    = "ctl"

	// CtlExpanded and CtlPruned are the control-tuple kinds: every
	// task produces exactly one TagCtl tuple, an expansion listing
	// the task keys it spilled (its children, to the tracker) or a
	// prune when its whole subtree was explored.
	CtlExpanded = "expanded"
	CtlPruned   = "pruned"

	// PoisonKey is the reserved task key that terminates a worker.
	// The NUL prefix keeps it out of every Decoder's key space.
	PoisonKey = "\x00poison"
)
