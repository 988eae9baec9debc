#!/usr/bin/env bash
# Tier-1 verification, a ThreadSanitizer pass over the threaded
# layers, an AddressSanitizer pass over the unit/fuzz/chaos tiers,
# an observability-off build proving the TF_* macros are true
# no-ops under -Werror, and a line-coverage gate over the
# simulation hot layers.
#
# Test selection is label-based (see tests/CMakeLists.txt):
#   unit / integration / fuzz / golden  suite tiers
#   threaded                            TSan surface
#   plan                                capacity-planner subsystem
#   chaos                               seeded chaos-invariant sweep
#   perf-smoke                          ~1 s sim-core bench canary
#
# Usage: scripts/check.sh
#        [--tier1-only | --tsan-only | --asan-only |
#         --obs-off-only | --coverage-only | --ubsan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
mode="${1:-all}"

run_tier1() {
    echo "== tier-1: build + full test suite =="
    cmake -B build -S .
    cmake --build build -j "$jobs"
    # Every label tier, fastest first so cheap breakage fails early.
    ctest --test-dir build --output-on-failure -j "$jobs" -L unit
    ctest --test-dir build --output-on-failure -j "$jobs" -L fuzz
    ctest --test-dir build --output-on-failure -j "$jobs" -L golden
    ctest --test-dir build --output-on-failure -j "$jobs" \
        -L integration
    # The seeded chaos sweep: 200+ randomized fault schedules with
    # conservation / core-agreement / thread-identity / termination
    # / exact-recovery invariants (tests/chaos).
    ctest --test-dir build --output-on-failure -j "$jobs" -L chaos
    # One short measurement of every simulation-core scenario; a
    # hang or crash in the hot loops fails here in ~1 s.
    ctest --test-dir build --output-on-failure -j "$jobs" \
        -L perf-smoke
}

run_coverage() {
    echo "== coverage: line coverage of src/serve + src/fleet =="
    if ! command -v gcovr > /dev/null 2>&1; then
        echo "coverage: gcovr not installed, skipping the gate"
        return 0
    fi
    cmake -B build-cov -S . \
        -DCMAKE_CXX_FLAGS="--coverage -O0" \
        -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build build-cov -j "$jobs"
    ctest --test-dir build-cov --output-on-failure -j "$jobs" \
        -L 'unit|integration|fuzz'
    # The simulation hot layers the event-core rework touched; the
    # differential replay harness plus the unit tiers must keep
    # both cores' branches exercised.
    gcovr --root . \
        --filter 'src/serve/' --filter 'src/fleet/' \
        build-cov \
        --print-summary --fail-under-line 80
}

run_tsan() {
    echo "== TSan: threaded tests =="
    # Targeted suppressions for races reported entirely inside the
    # uninstrumented system libstdc++ (see scripts/tsan.supp).
    export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
    cmake -B build-tsan -S . -DTRANSFUSION_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" \
        --target tf_common_test tf_tileseek_test tf_schedule_test \
        tf_serve_test tf_obs_test tf_multichip_test tf_fault_test \
        tf_fleet_test tf_chaos_test tf_plan_test \
        ext_multichip_scaling ext_fault_degradation \
        ext_fleet_scaling ext_capacity_planner
    # The threaded surfaces: pool unit tests, parallel sweeps, the
    # root-parallel MCTS determinism suite, the serve-replay
    # scenario fan-out, the obs registry/trace concurrency tests,
    # the multichip shard-plan search, the fault-server replans
    # that re-run that search mid-trace, and the fleet event loop
    # that advances replica sessions across the pool.
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
        -L threaded
    # The multichip sweep fans (tp, pp) candidates across the pool
    # with per-task registries; drive the real bench (small config)
    # under TSan to catch races the unit tests miss.
    echo "== TSan: multichip sweep bench =="
    ./build-tsan/bench/ext_multichip_scaling --chips 4 \
        --threads "$jobs" > /dev/null
    # Fault-tolerant serving replans on the pool after every fault;
    # drive the degradation bench so those mid-trace sweeps (and
    # the drain/retry bookkeeping around them) run under TSan too.
    echo "== TSan: fault degradation bench =="
    ./build-tsan/bench/ext_fault_degradation --chips 4 \
        --threads "$jobs" --faults 2 > /dev/null
    # The fleet replays advance every replica session in parallel
    # and merge per-replica registries afterwards; drive the full
    # replica x policy sweep (1/2/4/8 replicas, every policy) under
    # TSan so the parallel advance + prefix-merge path is raced.
    echo "== TSan: fleet scaling bench =="
    ./build-tsan/bench/ext_fleet_scaling --replicas 8 \
        --threads "$jobs" > /dev/null
    # The capacity planner fans candidate evaluations (each a full
    # fleet replay) across the pool and prefix-merges per-candidate
    # registries; drive the planner sweep under TSan so the
    # outermost parallel layer is raced too.
    echo "== TSan: capacity planner bench =="
    ./build-tsan/bench/ext_capacity_planner \
        --threads "$jobs" > /dev/null
}

run_asan() {
    echo "== ASan: unit, fuzz and chaos tiers =="
    # Out-of-bounds, use-after-free and leaks across every layer:
    # the unit tier covers each module, the fuzz tier drives the
    # traffic model, DPipe scheduler and fault-schedule validator
    # with randomized input, and the chaos sweep runs the
    # fleet/fault loops through randomized drain/retry/replan
    # paths.
    cmake -B build-asan -S . -DTRANSFUSION_SANITIZE=address
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure -j "$jobs" \
        -L 'unit|fuzz|chaos'
}

run_ubsan() {
    echo "== UBSan: fault/fleet arithmetic =="
    # The gray-failure layers are arithmetic-heavy (slowdown
    # multipliers, capped exponential backoff, EWMA health
    # trackers); -fno-sanitize-recover turns any UB into a test
    # failure instead of a silently-wrong number.
    cmake -B build-ubsan -S . -DTRANSFUSION_SANITIZE=undefined
    cmake --build build-ubsan -j "$jobs" \
        --target tf_fault_test tf_fleet_test tf_fault_fuzz_test \
        ext_chaos_sweep
    ctest --test-dir build-ubsan --output-on-failure -j "$jobs" \
        -L 'fault|fleet' -E Chaos
    # A reduced chaos sweep under UBSan: the randomized schedules
    # push the slowdown/backoff/EWMA arithmetic into corners the
    # unit tests don't reach.  Exit status is the verdict.
    echo "== UBSan: reduced chaos sweep =="
    ./build-ubsan/bench/ext_chaos_sweep --schedules 8 \
        --threads "$jobs" > /dev/null
}

run_obs_off() {
    echo "== obs-off: -DTRANSFUSION_OBS=OFF with -Werror =="
    # Proves the TF_* macros compile to true no-ops: the whole tree
    # (instrumented hot paths included) must build warning-free and
    # the full suite must still pass with observability compiled
    # out.  Golden/report tests skip themselves in this config.
    cmake -B build-obs-off -S . -DTRANSFUSION_OBS=OFF \
        -DTRANSFUSION_WERROR=ON
    cmake --build build-obs-off -j "$jobs"
    ctest --test-dir build-obs-off --output-on-failure -j "$jobs"
}

case "$mode" in
    --tier1-only)    run_tier1 ;;
    --tsan-only)     run_tsan ;;
    --asan-only)     run_asan ;;
    --obs-off-only)  run_obs_off ;;
    --coverage-only) run_coverage ;;
    --ubsan-only)    run_ubsan ;;
    all)             run_tier1; run_tsan; run_asan; run_obs_off
                     run_coverage; run_ubsan ;;
    *)
        echo "usage: $0 [--tier1-only | --tsan-only | --asan-only |" \
            "--obs-off-only | --coverage-only | --ubsan-only]" >&2
        exit 2
        ;;
esac
echo "check.sh: all requested checks passed"
