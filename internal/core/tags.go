package core

// Tuple tags of the PLinda data mining programs (RunPLED, RunPLET).
// Every producer and consumer references these constants rather than
// bare string literals, so a tag typo is a compile error and
// lindalint's tuple-contract cross-reference has a single source of
// truth. The wire contracts they name:
//
//	(TagTask, keys []string)                     PLET work unit: a bundle of frontier patterns,
//	                                             explored first key first; that key names the task
//	                                             on its TagCtl tuple. The bundle [PoisonKey] ends a
//	                                             PLET worker (cmd/plinda drains it at start-up)
//	(TagTask, level int, chunk int,              PLED work unit: parents is chunk's share of the
//	 parents []string, good []string)            good patterns of level and good is all of them
//	                                             (level 0: both are the root's key); the worker
//	                                             evaluates the parents' children whose
//	                                             subpatterns are all in good. The parents
//	                                             [PoisonKey] terminate a PLED worker
//	(TagResult, level int, chunk int,            PLED goodness report, one per task: the good
//	 goods []string, scores []float64)           children and their scores, parallel slices; bad
//	                                             patterns never travel. The master counts the
//	                                             first report of each chunk of the open level
//	                                             and consumes any other unread
//	(TagCtl, kind string, key string,            PLET task report, one per task: termination
//	 spilled []string,                           control and goodness report on one message. key
//	 goods []string, scores []float64)           is the task's first key; kind CtlExpanded carries
//	                                             the first keys of the bundles it spilled, kind
//	                                             CtlPruned carries nil; goods and scores are the
//	                                             task's good patterns, parallel slices
//
// The two programs share TagTask under two shapes (two and five fields);
// a template of one never matches a tuple of the other.
const (
	TagTask   = "task"
	TagResult = "result"
	TagCtl    = "ctl"

	// TagGood was PLET's separate good-pattern batch. No program
	// publishes or takes it: good patterns ride the TagCtl tuple. It
	// stays exported only because internal/bench's shard-collision probe
	// still names it; it goes with that probe (ROADMAP item 1).
	TagGood = "good"

	// CtlExpanded and CtlPruned are the control-tuple kinds: every
	// task produces exactly one TagCtl tuple, an expansion listing
	// the bundles it spilled by their first keys (its children, to the
	// tracker) or a prune when all its subtrees were explored, with the
	// good patterns it found either way.
	CtlExpanded = "expanded"
	CtlPruned   = "pruned"

	// PoisonKey is the reserved task key that terminates a worker: as a
	// bundle of one to PLET, as the parents of a chunk of one to PLED.
	// The NUL prefix keeps it out of every Decoder's key space.
	PoisonKey = "\x00poison"
)
