package tuplespace

// NewStriped exposes newStriped to the external tests, which pin the
// stripe map at every count New can derive.
func NewStriped(n int) *Space { return newStriped(n) }
