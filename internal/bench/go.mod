// The benchmark is a module of its own so that it carries its own build
// file, as the benchmark driver asks. The root module's ./... does not see
// it; ../benchsmoke's test vets and tests it from there. Its path sits
// under freepdm/ so Go's internal-package rule lets it import
// freepdm/internal/...; the replace points at the enclosing checkout.
module freepdm/internal/bench

go 1.22

require freepdm v0.0.0

replace freepdm => ../..
