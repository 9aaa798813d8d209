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
