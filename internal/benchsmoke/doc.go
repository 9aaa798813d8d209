// Package benchsmoke ties the benchmark into the root module's ./...
// patterns. The benchmark in ../bench is a Go module of its own, because
// the benchmark driver wants a compiled benchmark to carry its own build
// file, and a nested module is invisible to the enclosing one. The test
// here runs go vet and go test inside it, so the repository's ordinary
// go test ./... compiles the benchmark against the current packages and
// runs its smoke, schema and store-decorator tests.
package benchsmoke
