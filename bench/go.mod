// The benchmark is a module of its own so that the repository's
// `go build ./...` and `go test ./...` never compile it. The module
// path sits under cloudeval/, which lets it import cloudeval/internal/...;
// the replace line points at the checkout it is run from.
module cloudeval/bench

go 1.22

require cloudeval v0.0.0

replace cloudeval => ../
