package core

// Test-only exports for the external test package (core_test), which
// has to be external to import the mining packages that import core.

// ExpandTask is expandTask, unobserved.
func ExpandTask(pr Problem, task Pattern, budget int) (goods []string, scores []float64, spilled []string) {
	return expandTask(nil, pr, task, budget)
}

// PLETBudget returns the PLET task grain in force.
func PLETBudget() int { return pletBudget }

// NewToyProblem is the package's toy itemset problem.
func NewToyProblem(n, txnCount int, minSupp float64, seed uint64) Problem {
	return newToyProblem(n, txnCount, minSupp, seed)
}

// ReplayPLED drives the PLED master's scheduling state alone, on one
// goroutine: every key seed and apply release is decoded and evaluated
// inline, as a worker would, and applied in release order. It returns
// the master's results and the number of events it applied.
func ReplayPLED(pr Problem) ([]Result, int, error) {
	dec := pr.(Decoder)
	m := newPLEDMaster(pr, dec)
	queue := m.seed()
	for i := 0; i < len(queue); i++ {
		pat, err := dec.Decode(queue[i])
		if err != nil {
			return nil, 0, err
		}
		if queue, _, err = m.apply(queue[i], pr.Goodness(pat), queue); err != nil {
			return nil, 0, err
		}
	}
	return m.results, m.done, nil
}
