#!/bin/sh
# bench.sh — the benchmark/regression harness behind `make bench`.
#
# Runs the root benchmark suite, collects an obs metrics snapshot from a
# real buffopt solve of testdata/sample.net, and writes both into a dated
# BENCH_<date>.json via cmd/benchjson. The raw `go test -bench` text is
# kept next to it (BENCH_<date>.txt) in benchstat-compatible form, so two
# recordings diff with plain benchstat.
#
# Usage: scripts/bench.sh [-suffix] [-force]
#   -suffix  on a same-day collision, write BENCH_<date>-<n>.json instead
#            of refusing (n = first free counter)
#   -force   overwrite the existing same-day recording in place
#
# Environment overrides:
#   BENCH      benchmark regex (default: .)
#   BENCHTIME  -benchtime value (default: 1x — one timed iteration per
#              benchmark; raise to e.g. 2s for publication-grade numbers)
#   COUNT      -count value (default: 5). The text keeps every run for
#              benchstat; benchjson records the per-name median and the
#              sample count.
#   FLEET      set to 1 to also run cmd/loadgen (hash-vs-random routing
#              arms through an in-process fleet) and merge its report —
#              router p50/p99, hedge rate, cache-hit rates — into the
#              record under "fleet" (see `make fleetbench`)
#   ECO        set to 1 to add loadgen's -eco arm (/solve/delta sessions
#              with incremental edit streams on one replica); its delta
#              latency and memo reuse numbers are lifted into "derived"
#              as eco_* (see `make ecobench`). Implies the loadgen run.
#
# Without a flag, refuses to overwrite a same-day recording: move it
# aside, or re-run with -suffix or -force.
set -eu
cd "$(dirname "$0")/.."

suffix=0
force=0
for arg in "$@"; do
    case "$arg" in
        -suffix|--suffix) suffix=1 ;;
        -force|--force) force=1 ;;
        *)
            echo "bench: unknown argument $arg (want -suffix or -force)" >&2
            exit 2
            ;;
    esac
done

date="$(date +%Y-%m-%d)"
out="BENCH_${date}.json"
txt="BENCH_${date}.txt"
if [ -e "$out" ] && [ "$force" -eq 0 ]; then
    if [ "$suffix" -eq 1 ]; then
        n=1
        while [ -e "BENCH_${date}-${n}.json" ]; do
            n=$((n + 1))
        done
        out="BENCH_${date}-${n}.json"
        txt="BENCH_${date}-${n}.txt"
    else
        echo "bench: $out already exists; move it aside, or re-run with -suffix or -force" >&2
        exit 1
    fi
fi

bench="${BENCH:-.}"
benchtime="${BENCHTIME:-1x}"
count="${COUNT:-5}"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== go test -bench=$bench -benchtime=$benchtime -count=$count"
go test -bench="$bench" -benchmem -benchtime="$benchtime" -count="$count" -run='^$' . | tee "$tmpdir/bench.txt"

# Span-overhead benchmarks: the enabled/disabled/traced triple from
# internal/obs, appended to the same text so benchjson derives
# span_ns_{enabled,disabled,traced} and span_overhead_ns into the record.
echo "== go test -bench=BenchmarkSpan ./internal/obs"
go test -bench='^BenchmarkSpan' -benchmem -benchtime="$benchtime" -count="$count" -run='^$' ./internal/obs | tee -a "$tmpdir/bench.txt"

echo "== obs counters: buffopt -alg solve on testdata/sample.net"
go run ./cmd/buffopt -net testdata/sample.net -alg solve -metrics "$tmpdir/metrics.json" >/dev/null

fleetargs=""
if [ "${FLEET:-0}" = "1" ] || [ "${ECO:-0}" = "1" ]; then
    ecoflag=""
    if [ "${ECO:-0}" = "1" ]; then
        ecoflag="-eco"
    fi
    echo "== fleet: loadgen hash-vs-random arms over an in-process fleet${ecoflag:+ (+ eco arm)}"
    go run ./cmd/loadgen $ecoflag -out "$tmpdir/fleet.json"
    fleetargs="-fleet $tmpdir/fleet.json"
fi

go run ./cmd/benchjson -in "$tmpdir/bench.txt" -metrics "$tmpdir/metrics.json" $fleetargs -out "$out"
cp "$tmpdir/bench.txt" "$txt"
echo "bench: wrote $out (and benchstat text $txt)"
