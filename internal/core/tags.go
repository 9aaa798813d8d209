package core

// Tuple tags of the PLinda data mining programs (RunPLED, RunPLET).
// Every producer and consumer references these constants rather than
// bare string literals, so a tag typo is a compile error and
// lindalint's tuple-contract cross-reference has a single source of
// truth. The wire contracts they name:
//
//	(TagTask, key string)                        PLET work unit; key PoisonKey terminates a PLET worker
//	                                             (the poison cmd/plinda drains on a WAL restart is this one)
//	(TagTask, keys []string)                     PLED work unit: a chunk of pattern keys;
//	                                             the chunk [PoisonKey] terminates a PLED worker
//	(TagResult, keys []string, scores []float64) PLED goodness report: the scores of one chunk,
//	                                             parallel slices
//	(TagGood, keys []string, scores []float64)   PLET good-pattern batch: the good patterns
//	                                             of one worker transaction, parallel slices
//	(TagCtl, kind string, key string, []string)  PLET termination control:
//	                                             kind CtlExpanded carries the spilled task keys,
//	                                             kind CtlPruned carries nil
//
// The two programs share TagTask under two shapes; a template of one
// never matches a tuple of the other.
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

	// PoisonKey is the reserved task key that terminates a worker: on
	// its own to PLET, as a chunk of one to PLED.
	// The NUL prefix keeps it out of every Decoder's key space.
	PoisonKey = "\x00poison"
)
