// The benchmark is a module of its own so that tier-1 `go build ./...` and
// `go test ./...` at the repository root never compile it. The module path
// sits under "datablinder/" so cmd/dblayers may import the parent's
// internal packages; cmd/dbbench imports only the public package.
module datablinder/benchmark

go 1.22

require datablinder v0.0.0

replace datablinder => ../
