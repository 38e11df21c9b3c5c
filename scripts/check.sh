#!/bin/sh
# Repository check gate: build, vet, formatting, full tests, the nested
# perfbench module's vet and tests, a short-mode race pass over the
# concurrent packages, the glsimd end-to-end smoke, and
# fuzz smoke stages for the script replayer and the parsers.
# The sim race run includes the cross-mode equivalence test (serial/
# parallel/manycore on one stimulus trace), so the pooled executor is raced
# against the serial oracle on every check. It also covers the fault tests
# (contained panics, degradation, cancellation), so the failure ladder is
# raced on every check too. The serve race run includes the chaos test
# (concurrent sessions over shared plans with injected gate faults), so
# session isolation and snapshot recovery are raced on every check. The
# fuzz stage gives each parser a few seconds of coverage-guided input;
# `make fuzz` runs the same targets longer.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test"
go test ./...

# The benchmark harness is a nested module (perfbench/go.mod), so the root
# `go test ./...` skips it; build and test it here so an engine API change
# cannot silently break the benchmark or its glsim drift guard.
echo "== perfbench module (vet, test)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (short, concurrent packages)"
go test -race -short ./internal/sim/ ./internal/partsim/ ./internal/workpool/ ./internal/obs/ ./internal/serve/

echo "== glsimd serve smoke"
./scripts/serve_smoke.sh

echo "== script replay fuzz smoke (5s)"
go test -run '^$' -fuzz FuzzScriptComb1Segment -fuzztime 5s ./internal/sim/

echo "== frontier differential fuzz smoke (5s)"
go test -run '^$' -fuzz FuzzFrontier -fuzztime 5s ./internal/sim/

echo "== lane kernel differential fuzz smoke (5s)"
go test -run '^$' -fuzz FuzzLaneKernel -fuzztime 5s ./internal/sim/

echo "== parser fuzz smoke (5s per parser)"
go test -run '^$' -fuzz FuzzParseLiberty -fuzztime 5s ./internal/liberty/
go test -run '^$' -fuzz FuzzParseVerilog'$' -fuzztime 5s ./internal/netlist/
go test -run '^$' -fuzz FuzzParseVerilogHierarchy -fuzztime 5s ./internal/netlist/
go test -run '^$' -fuzz FuzzParseSDF -fuzztime 5s ./internal/sdf/
go test -run '^$' -fuzz FuzzParseVCD -fuzztime 5s ./internal/vcd/

echo "check: all passed"
