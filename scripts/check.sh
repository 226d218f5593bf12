#!/usr/bin/env bash
# Tier-1 verification matrix: build and run the full test suite plain,
# then again under AddressSanitizer + UBSan (-fno-sanitize-recover=all,
# so any finding is a hard failure), run the multi-threaded service
# tests plus the quick conformance corpus under ThreadSanitizer, run a
# time-boxed differential fuzz sweep and the mutation self-check with
# the conformance_fuzz tool, drive a seeded chaos storm against the
# sharded service, smoke the benchmark binaries, and self-test the
# serving benchmark (perfbench/).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(($(nproc) + 1))}"

run_matrix() {
    local preset="$1"
    echo "== ${preset}: configure =="
    cmake --preset "${preset}"
    echo "== ${preset}: build =="
    cmake --build --preset "${preset}" -j "${jobs}"
    echo "== ${preset}: test =="
    # --timeout catches a wedged simulator instead of hanging CI; the
    # service watchdog tests exercise deliberate wedges.
    ctest --preset "${preset}" -j "${jobs}" --timeout 120
}

run_matrix default
run_matrix asan-ubsan

# The thread-pool and shard-stitching paths under ThreadSanitizer:
# the concurrency-relevant tests plus the conformance corpus (which
# drives the sharded service at 1/2/4 workers), so the TSan leg stays
# fast while still replaying every committed corpus case across all
# oracle configurations.
echo "== tsan: configure =="
cmake --preset tsan
echo "== tsan: build =="
cmake --build --preset tsan -j "${jobs}" \
    --target service_sharded_test service_test service_chaos_test \
    service_validate_test multipattern_test service_dict_test \
    conformance_corpus_test \
    telemetry_metrics_test telemetry_reqobs_test telemetry_flightrec_test \
    telemetry_span_test
echo "== tsan: test =="
ctest --test-dir build-tsan --timeout 240 --output-on-failure \
    -R 'service_sharded_test|service_test|service_chaos_test|service_validate_test|multipattern_test|service_dict_test|conformance_corpus_test|telemetry_metrics_test|telemetry_reqobs_test|telemetry_flightrec_test|telemetry_span_test'

# Conformance legs on the plain build: a time-boxed differential fuzz
# sweep across the full oracle registry, and the mutation self-check --
# the harness must catch every seeded bug (off-by-one overlap
# stitching, dropped wild-card plane, wrong latch phase, ...), or the
# script fails: a fuzzer that cannot catch planted bugs proves nothing
# about the absence of real ones.
echo "== conformance: time-boxed fuzz =="
build/tools/conformance_fuzz --cases 1000000 --seconds 10
echo "== conformance: mutation self-check =="
build/tools/conformance_fuzz --mutants

# The dictionary sweep runs on the SIMD kernel's tier-dispatched ops,
# so the dict oracles are diffed at the best tier and again with the
# dispatch capped to each lower tier.
echo "== conformance: dict fuzz per SIMD tier =="
build/tools/conformance_fuzz --cases 1000000 --seconds 5 --dict
for isa in scalar sse2; do
    echo "-- SPM_SIMD_ISA=${isa}"
    SPM_SIMD_ISA="${isa}" build/tools/conformance_fuzz --cases 1000000 \
        --seconds 5 --dict
done

# The batch layer slices each lane's row straight from the kernel's
# packed words, so the batch oracles are diffed at every tier too.
echo "== conformance: batch fuzz per SIMD tier =="
build/tools/conformance_fuzz --cases 1000000 --seconds 5 --focus batch
for isa in scalar sse2; do
    echo "-- SPM_SIMD_ISA=${isa}"
    SPM_SIMD_ISA="${isa}" build/tools/conformance_fuzz --cases 1000000 \
        --seconds 5 --focus batch
done

# The SIMD kernel tiers under AddressSanitizer: a time-boxed
# differential sweep focused on the simd-parallel oracles (best ISA
# plus every forced-down tier), so out-of-bounds plane or mask
# arithmetic in the vector paths trips ASan instead of shipping as a
# rare wrong bit. Uses the asan-ubsan build from the matrix above.
echo "== conformance: simd kernel fuzz under asan =="
build-asan-ubsan/tools/conformance_fuzz --cases 1000000 --seconds 10 \
    --focus simd-parallel --no-extensions --no-golden

# The multi-pattern tier under AddressSanitizer: the dict oracles run
# the bit-sliced plane sweep, its no-dedup ablation, the Aho-Corasick
# automaton and the chunked carry protocol against each other on every
# case, so an out-of-bounds shifted-word read or a stale arena slice
# trips ASan here instead of shipping as a rare wrong hit bit.
echo "== conformance: dict fuzz under asan =="
build-asan-ubsan/tools/conformance_fuzz --cases 1000000 --seconds 10 \
    --dict --no-extensions --no-golden

# The gate tier under AddressSanitizer: the scalar gate chip and the
# 64-lane plane engine (gate-lanes) against the reference, so an out-of-bounds index into the engine's reader and
# pending tables trips ASan instead of shipping as a wrong lane.
echo "== conformance: gate fuzz under asan =="
build-asan-ubsan/tools/conformance_fuzz --cases 1000000 --seconds 10 \
    --focus gate --no-extensions --no-golden

# The batch and sharded-service oracles under AddressSanitizer: batch
# row slicing, sharded stitching and the overlap compare move result
# bits as word-shifted BitVec appends, so an out-of-bounds word read
# there trips ASan instead of shipping as a wrong edge bit.
echo "== conformance: batch and sharded-service fuzz under asan =="
build-asan-ubsan/tools/conformance_fuzz --cases 1000000 --seconds 10 \
    --focus batch --no-extensions --no-golden
build-asan-ubsan/tools/conformance_fuzz --cases 1000000 --seconds 10 \
    --focus service --no-extensions --no-golden

# Chaos leg on the plain build: a seeded mixed storm (stalls, hangs,
# throws, silent bit flips against the primaries) must end with every
# request either recovered bit-exact or failed typed -- chaos_storm
# exits non-zero on any silent corruption or lost request. A second
# storm disables the per-chunk reference cross-check so only the
# overlap comparison stands between boundary corruption and a wrong
# answer: one boundary-bit flip per faulted slot (--corrupt-at 4 is
# the first kept bit of slices 1..3 with the default pattern length 5)
# must be detected and repaired, never served. The deep TSan coverage
# of the same code paths comes from service_chaos_test in the tsan leg
# above.
echo "== chaos: mixed storm =="
build/tools/chaos_storm --requests 16 --text-len 1024 \
    --deadline-ms 100 --hang-ms 200 --quiet
echo "== chaos: overlap-only detection =="
build/tools/chaos_storm --requests 8 --text-len 1024 \
    --no-cross-check --corrupt 1 --stall 0 --hang 0 --throw 0 \
    --cap 1 --corrupt-at 4 --targets 1,2,3 --quiet

# Smoke-run every benchmark binary: each prints its report with a
# scaled-down sweep and one-iteration timings, so a crash or a shape
# regression in a bench fails CI without costing a full run. Every
# bench gets an explicit --json into build/ -- without it, benches
# with a jsonDefaultPath() would overwrite their committed repo-root
# baselines with smoke-run numbers.
echo "== bench: smoke =="
cmake --build --preset default -j "${jobs}"
for bench in build/bench/bench_*; do
    echo "-- ${bench} --smoke"
    "${bench}" --smoke --json "build/$(basename "${bench}").smoke.json" \
        > /dev/null
done
test -s build/bench_e13_throughput.smoke.json

# Bench-regression gate: re-run every bench with a committed baseline
# in smoke mode and diff the JSON reports with bench_diff. Throughput
# keys must stay within the tolerance band (>= 0.5x baseline), latency
# keys within 4x, "agrees"-style strings exact -- a silently disabled
# fast path or a broken oracle hard-fails CI here instead of shipping
# as a quiet slowdown.
echo "== bench: regression gate vs committed baselines =="
for pair in \
    "BENCH_E13.json bench_e13_throughput" \
    "BENCH_E15.json bench_e15_telemetry" \
    "BENCH_E16.json bench_e16_faultgrade" \
    "BENCH_E17.json bench_e17_chaos" \
    "BENCH_E18.json bench_e18_simd" \
    "BENCH_E19.json bench_e19_dict" \
    "BENCH_E20.json bench_e20_reqobs"; do
    set -- ${pair}
    baseline="$1"
    bin="$2"
    fresh="build/${baseline%.json}.fresh.json"
    echo "-- ${bin} vs ${baseline}"
    "build/bench/${bin}" --smoke --json "${fresh}" > /dev/null
    build/tools/bench_diff "${baseline}" "${fresh}"
done

# Fault-grading legs. Three contracts: (1) the grading pipeline runs
# clean under AddressSanitizer + UBSan on a scaled-down configuration
# (exit status also proves the serial cross-check agreed); (2) grading
# the collapsed classes is exactly as good as grading the raw
# universe -- the equivalence-collapsing lockstep test, part of the
# quick suite, re-checks this on the stdcell library under ASan; (3)
# the --golden report matches the committed golden byte for byte, like
# the trace_view goldens.
echo "== fault grading: asan smoke =="
cmake --build --preset asan-ubsan -j "${jobs}" --target fault_grade
build-asan-ubsan/tools/fault_grade --cells 4 --text-len 24 \
    --workloads 2 --cross-check 16 > /dev/null
echo "== fault grading: collapsed-vs-uncollapsed equivalence =="
ctest --test-dir build-asan-ubsan --timeout 120 --output-on-failure \
    -R 'fault_collapse_test|fault_grade_test'
echo "== fault grading: golden report =="
build/tools/fault_grade --golden |
    diff -u tests/golden/fault_grade_report.txt -

# Telemetry leg. Three contracts: (1) runtime-enabled telemetry costs
# at most 5% on the streaming service (E15's paired measurement); (2)
# trace_view's snapshot renderings match the committed goldens byte
# for byte; (3) a real traced sharded run exports Chrome trace JSON
# that passes the schema check.
echo "== telemetry: enabled-overhead gate =="
build/bench/bench_e15_telemetry --smoke --json build/BENCH_E15.smoke.json \
    > /dev/null
overhead=$(sed -n \
    's/.*"telemetry.enabled_overhead_frac": \([0-9.eE+-]*\).*/\1/p' \
    build/BENCH_E15.smoke.json)
echo "enabled overhead: ${overhead} (limit 0.05)"
awk -v o="${overhead}" 'BEGIN { exit (o + 0 <= 0.05) ? 0 : 1 }'

# Request-observability gate (E20): the per-request stage clocks, SLO
# log-histograms and exemplar reservoirs together must stay within 2%
# on the streaming service's end-to-end path.
echo "== reqobs: enabled-overhead gate =="
build/bench/bench_e20_reqobs --smoke --json build/BENCH_E20.smoke.json \
    > /dev/null
reqobs_overhead=$(sed -n \
    's/.*"reqobs.enabled_overhead_frac": \([0-9.eE+-]*\).*/\1/p' \
    build/BENCH_E20.smoke.json)
echo "reqobs enabled overhead: ${reqobs_overhead} (limit 0.02)"
awk -v o="${reqobs_overhead}" 'BEGIN { exit (o + 0 <= 0.02) ? 0 : 1 }'

echo "== telemetry: trace_view goldens and trace schema =="
build/tools/trace_view --table tests/golden/telemetry_snapshot.json |
    diff -u tests/golden/telemetry_snapshot.table.txt -
build/tools/trace_view --prom tests/golden/telemetry_snapshot.json |
    diff -u tests/golden/telemetry_snapshot.prom.txt -
build/tools/trace_view --demo-trace > build/demo_trace.json
build/tools/trace_view --check build/demo_trace.json

# The serving benchmark builds its own Release tree from src/; a src/
# change that breaks its build or renames a metric it reports fails
# here rather than in a benchmark run.
echo "== perfbench: quick self-test =="
python3 perfbench/quick_test.py

echo "All checks passed (plain + asan-ubsan + tsan + chaos storm +"
echo "bench smoke + bench-regression gate + fault grading + telemetry +"
echo "reqobs overhead gate + perfbench self-test)."
