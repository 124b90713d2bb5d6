#!/bin/sh
# The tier-1 verification gate (see ROADMAP.md): vet, build, and the full
# test suite under the race detector. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "check: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# A dedicated short soak pass: the suite above already runs the server
# chaos tests once, but this keeps the soak visible as its own gate line
# (and is what `make soak` runs the long version of).
echo "== soak (short): go test -race -short -run TestSoakUnderChaos ./internal/server"
go test -race -short -count=1 -run TestSoakUnderChaos ./internal/server

# The differential/determinism gate on the parallel DP and the batch
# endpoint (short corpus; `make difftest` runs the full one): the
# parallel walk must stay bit-identical to serial, and batch responses
# must not depend on order or pool width.
echo "== difftest (short): serial/parallel bit identity + batch determinism"
go test -race -short -count=1 -run 'TestDifferential|TestDeterminism|TestBatch' ./internal/core ./internal/server

# The engine gate (short): the Li–Shi fast-merge engine must stay
# bit-identical to the classic DP — a stratified differential sample
# across all four net-size strata, the metamorphic properties, the
# exhaustive oracle, and the pruned-frontier invariants the fast merge's
# soundness proof rests on, plus the engine plumbing through the server
# envelope. `make enginetest` runs the full corpus.
echo "== engine gate (short): Li-Shi/VG bit identity + frontier invariants"
GOFLAGS=-count=1 go test -race -short ./internal/core/enginetest
GOFLAGS=-count=1 go test -race -short -run 'TestPrunedListsAreStrictFrontiers|TestMergeDifferentialProperty|TestEngine' ./internal/core ./internal/server

# The cache-determinism gate (short corpus): cache-on vs cache-off byte
# identity, coalescing accounting, eviction books, budget-class keying —
# across the cache package, the core Solve threading, and the server's
# HTTP surface (including the cache-enabled chaos soak).
echo "== cache gate (short): cache-on/off identity + coalescing + eviction books"
go test -race -short -count=1 ./internal/cache
go test -race -short -count=1 -run 'Cache' ./internal/core ./internal/server

# The fleet chaos gate (short): a 3-replica in-process fleet behind the
# router under seeded request-level faults plus partitions and a replica
# kill, with exact attempt/outcome/fault accounting. `make fleetsoak`
# runs the long version.
echo "== fleet soak (short): router failover/hedging under partition + kill"
go test -race -short -count=1 -run TestFleetSoakUnderChaos ./internal/fleet

# The trace gate (short): traceparent parsing invariants and collector
# books in isolation, then cross-process trace assembly and the exact
# fault/shed/hedge→span ledgers through the lab fleet. `make tracesoak`
# runs the long version.
echo "== trace gate (short): traceparent/collector invariants + fleet trace ledgers"
go test -race -short -count=1 -run 'TestTrace|TestParseTrace|TestCollector|TestFlightRecorder|TestSpanAllocBudget' ./internal/obs
go test -race -short -count=1 -run 'TestTraceAcrossFleet|TestTraceSoak' ./internal/fleet

# The restart gate (short): snapshot codec corruption invariants, then
# kill-restart chaos through the lab fleet — warm starts, rejected
# corrupt/torn snapshots, peer read-through fill — with exact snapshot
# and peer-fill ledgers and byte-identical post-restart responses.
# `make restartsoak` runs the long version.
echo "== restart gate (short): snapshot warm/cold boots + restart chaos ledgers"
go test -race -short -count=1 -run 'TestSnapshot|TestPeerFill|TestCachePeek' ./internal/server
go test -race -short -count=1 -run TestRestartSoakUnderChaos ./internal/fleet

# The ECO gate (short): the incremental re-solve engine. Core-level: the
# edit-stream differential (delta answers bit-identical to from-scratch
# solves across engines, objectives, serial/parallel) plus memo eviction
# and edit atomicity. Server-level: /solve/delta session lifecycle (TTL
# expiry, LRU and byte-budget eviction, 404-never-silent-full-solve) and
# the chaos soak with exact reuse/request/session-book ledgers.
# `make ecosoak` runs the long version.
echo "== eco gate (short): delta bit identity + session ledgers + eco chaos soak"
go test -race -short -count=1 -run 'TestDelta|TestNewSessionValidation' ./internal/core
go test -race -short -count=1 -run 'TestDelta|TestEcoSoakUnderChaos' ./internal/server

# The benchmark module gate: e2ebench is a nested module (it replaces
# buffopt with ../), so the root `go test ./...` above never compiles it —
# a core API change could break the benchmark while every gate above
# stays green.
echo "== e2ebench module: go vet + go test"
(cd e2ebench && go vet ./... && go test -count=1 ./...)

echo "check: OK"
