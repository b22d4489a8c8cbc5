#!/usr/bin/env bash
# Tier-1 verification gate. The build is hermetic: every dependency is an
# in-tree path crate (kishu-testkit replaces rand/proptest/serde_json/
# criterion/parking_lot), so everything below runs fully offline.
#
# usage: ci.sh [--quick]
#   --quick   build + one test pass + bench smoke/gate; skips the
#             dual-worker-count test matrix and the pinned-seed fault pass.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then
    QUICK=1
fi

# Per-stage wall-time accounting.
CI_T0=$(date +%s)
STAGE_NAME=""
STAGE_T0=$CI_T0
stage() {
    local now; now=$(date +%s)
    if [ -n "$STAGE_NAME" ]; then
        echo "-- $STAGE_NAME: $(( now - STAGE_T0 ))s"
    fi
    STAGE_NAME="${1:-}"
    STAGE_T0=$now
    if [ -n "$STAGE_NAME" ]; then
        echo "== $STAGE_NAME =="
    fi
}

# The success path closes its stage accounting with `stage ""` at the
# bottom; on failure that never runs, which used to swallow exactly the
# timing you want when debugging a slow broken stage. Print it from the
# exit trap instead.
on_exit() {
    local code=$? now
    now=$(date +%s)
    if [ "$code" -ne 0 ]; then
        if [ -n "$STAGE_NAME" ]; then
            echo "-- $STAGE_NAME: $(( now - STAGE_T0 ))s (FAILED)" >&2
        fi
        echo "CI FAILED (exit $code) in $(( now - CI_T0 ))s" >&2
    fi
}
trap on_exit EXIT

# A stale warnings file from a previous run must not resurface in this
# run's summary (the bench gate only rewrites it when it actually runs).
mkdir -p target
: > target/bench_gate_warnings.txt

stage "guard: no external registry dependencies"
if grep -nE '^\s*(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde|serde_json)[ .=]' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: external registry dependency declared above" >&2
    exit 1
fi

stage "guard: kishu-storage reads no environment variable but KISHU_CHUNKING"
# The storage crate takes explicit configuration. The one exception is the
# KISHU_CHUNKING kill-switch read in chunk.rs, which the v2 matrix below
# sets; any other env read there is a knob nobody pinned down.
if grep -rnE 'env::vars?(_os)?\b' crates/storage/src \
    | grep -vE '^crates/storage/src/chunk\.rs:[0-9]+: .*std::env::var\("KISHU_CHUNKING"\)'; then
    echo "error: crates/storage/src reads an environment variable above;" \
         "only KISHU_CHUNKING in chunk.rs is allowed" >&2
    exit 1
fi

stage "cargo build --release --offline"
cargo build --release --offline --workspace --benches

# The repository benchmark (kishubench/) is a Cargo package of its own,
# outside the workspace, so the build above never compiles it: an API
# removal in a library crate could break it without failing anything
# else here.
stage "kishubench build (cargo build --release --offline, kishubench/Cargo.toml)"
cargo build --release --offline --manifest-path kishubench/Cargo.toml

if [ "$QUICK" = 1 ]; then
    stage "cargo test --offline (quick: single pass)"
    cargo test -q --offline --workspace
else
    # Both pipelines (checkpoint writes and checkout reads) must behave
    # identically at every worker count (the serial path is the
    # differential-testing oracle), so the whole suite runs twice: once
    # fully serial, once at the parallel defaults for both directions.
    stage "cargo test --offline (CHECKPOINT/RESTORE_WORKERS=1, serial oracle)"
    KISHU_CHECKPOINT_WORKERS=1 KISHU_RESTORE_WORKERS=1 \
        cargo test -q --offline --workspace

    stage "cargo test --offline (CHECKPOINT/RESTORE_WORKERS=4, parallel pipelines)"
    KISHU_CHECKPOINT_WORKERS=4 KISHU_RESTORE_WORKERS=4 \
        cargo test -q --offline --workspace

    stage "kishubench tests (cargo test --offline, kishubench/Cargo.toml)"
    cargo test -q --offline --manifest-path kishubench/Cargo.toml
fi

stage "bench smoke (KISHU_BENCH_QUICK=1, KISHU_TRACE -> target/trace.json)"
KISHU_BENCH_QUICK=1 KISHU_TRACE=target/trace.json \
    cargo run -q --release --offline -p kishu-bench --bin repro -- bench

stage "trace smoke (validate target/trace.json parses with expected spans)"
cargo run -q --release --offline -p kishu-bench --bin repro -- \
    trace-validate target/trace.json

stage "storage engine v2 sweep (repro chunks -> target/CHUNKS.json)"
cargo run -q --release --offline -p kishu-bench --bin repro -- chunks

# The VM-vs-tree speedup is asserted at full scale (--scale 1.0) even in
# quick mode: the workload is a couple of seconds, and the acceptance bar
# for the bytecode VM is defined at full scale, not at the smoke scale.
stage "interp bench (bytecode VM vs tree-walker, scale 1.0 -> target/INTERP.json)"
cargo run -q --release --offline -p kishu-bench --bin repro -- interp

stage "query surface bench (dashboard diff/history polling -> target/QUERIES.json)"
cargo run -q --release --offline -p kishu-bench --bin repro -- queries

stage "flight-recorder overhead bench (repro obs -> target/OBS.json)"
cargo run -q --release --offline -p kishu-bench --bin repro -- obs

stage "bench gate (vs BENCH_baseline.json; CHUNKS/INTERP/QUERIES floors, OBS ceiling)"
./scripts/bench_gate.sh

if [ "$QUICK" != 1 ]; then
    # The fault suites also run inside the workspace passes with their
    # built-in seeds; this extra pass pins a second, independent seed so
    # determinism regressions (same seed, different faults) and
    # seed-specific breakage both surface.
    FAULT_SEED="${FAULT_SEED:-20250807}"
    stage "fault injection & crash recovery (KISHU_TESTKIT_SEED=$FAULT_SEED)"
    if ! { KISHU_TESTKIT_SEED="$FAULT_SEED" \
            cargo test -q --offline -p kishu-repro --test crash_recovery \
        && KISHU_TESTKIT_SEED="$FAULT_SEED" \
            cargo test -q --offline -p kishu-bench --lib fault_sweep; }; then
        echo "error: fault suite failed; replay with KISHU_TESTKIT_SEED=$FAULT_SEED" >&2
        exit 1
    fi

    # Multi-tenant isolation differential under the same pinned seed and
    # both ends of the worker matrix (the suite also fixes worker counts
    # internally; the env pass covers the defaulted paths). Each session's
    # view of a shared store must be byte-identical to a private store.
    stage "multi-tenant isolation (KISHU_TESTKIT_SEED=$FAULT_SEED, workers 1 and 4)"
    if ! { KISHU_TESTKIT_SEED="$FAULT_SEED" \
            KISHU_CHECKPOINT_WORKERS=1 KISHU_RESTORE_WORKERS=1 \
            cargo test -q --offline -p kishu-repro --test multi_tenant \
        && KISHU_TESTKIT_SEED="$FAULT_SEED" \
            KISHU_CHECKPOINT_WORKERS=4 KISHU_RESTORE_WORKERS=4 \
            cargo test -q --offline -p kishu-repro --test multi_tenant; }; then
        echo "error: multi-tenant suite failed; replay with KISHU_TESTKIT_SEED=$FAULT_SEED" >&2
        exit 1
    fi

    # Storage-engine-v2 kill-switch matrix: content-defined chunking must be
    # representation-only, so the storage crate and every integration
    # differential run with chunking forced off (KISHU_CHUNKING=0, the v1
    # bit-identical path) and forced on, under the same pinned seed, at
    # both ends of the worker matrix. The workspace passes above already
    # cover the default-on/default-seed paths; this matrix pins everything
    # that could mask a chunking-dependent divergence.
    stage "storage engine v2 matrix (KISHU_CHUNKING={0,1} x workers {1,4}, seed $FAULT_SEED)"
    for CHUNKING in 0 1; do
        for W in 1 4; do
            if ! KISHU_CHUNKING=$CHUNKING KISHU_TESTKIT_SEED="$FAULT_SEED" \
                KISHU_CHECKPOINT_WORKERS=$W KISHU_RESTORE_WORKERS=$W \
                cargo test -q --offline -p kishu-storage -p kishu-repro; then
                echo "error: v2 matrix failed at KISHU_CHUNKING=$CHUNKING workers=$W;" \
                     "replay with KISHU_TESTKIT_SEED=$FAULT_SEED" >&2
                exit 1
            fi
        done
    done

    # Flight-recorder differential: behavior-freedom must hold with the
    # recorder fully on and under memory pressure, so the trace
    # differential suite runs with a deliberately tiny ring (forced
    # eviction + reservoir sampling) and the journal armed, at both ends
    # of the worker matrix. The suite's own recorder arm hardcodes a small
    # ring too; the env pass additionally covers every Trace::enabled()
    # constructed from the environment.
    stage "trace differential with recorder forced on (KISHU_OBS_RING_BYTES=16384, workers 1 and 4)"
    if ! { KISHU_TESTKIT_SEED="$FAULT_SEED" \
            KISHU_OBS_RING_BYTES=16384 KISHU_OBS_JOURNAL=64 \
            KISHU_CHECKPOINT_WORKERS=1 KISHU_RESTORE_WORKERS=1 \
            cargo test -q --offline -p kishu-repro --test trace_differential \
        && KISHU_TESTKIT_SEED="$FAULT_SEED" \
            KISHU_OBS_RING_BYTES=16384 KISHU_OBS_JOURNAL=64 \
            KISHU_CHECKPOINT_WORKERS=4 KISHU_RESTORE_WORKERS=4 \
            cargo test -q --offline -p kishu-repro --test trace_differential; }; then
        echo "error: recorder-on trace differential failed;" \
             "replay with KISHU_TESTKIT_SEED=$FAULT_SEED KISHU_OBS_RING_BYTES=16384" >&2
        exit 1
    fi

    # Execution-engine matrix: the bytecode VM must be a drop-in for the
    # tree-walking oracle under everything the sessions do — including the
    # replay/recompute fallback paths that crash-recovery and the
    # vm_differential suite drive under fault injection. Both engines run
    # the interpreter and integration suites under the same pinned seed at
    # both ends of the worker matrix (the workspace passes above only
    # cover the default engine).
    stage "execution engine matrix (KISHU_MINIPY_VM={0,1} x workers {1,4}, seed $FAULT_SEED)"
    for VM in 0 1; do
        for W in 1 4; do
            if ! KISHU_MINIPY_VM=$VM KISHU_TESTKIT_SEED="$FAULT_SEED" \
                KISHU_CHECKPOINT_WORKERS=$W KISHU_RESTORE_WORKERS=$W \
                cargo test -q --offline -p kishu-minipy -p kishu-repro; then
                echo "error: engine matrix failed at KISHU_MINIPY_VM=$VM workers=$W;" \
                     "replay with KISHU_TESTKIT_SEED=$FAULT_SEED" >&2
                exit 1
            fi
        done
    done
fi

if cargo clippy --version >/dev/null 2>&1; then
    stage "cargo clippy"
    cargo clippy -q --offline --workspace --benches
else
    stage "cargo clippy (unavailable; skipped)"
fi

# Rotate observability artifacts under target/ so repeated CI runs stay
# bounded: keep the newest few Chrome traces and flight-recorder dumps,
# delete the rest. (Black-box dumps rotate themselves at write time too —
# this also covers dumps left by crashed/killed runs.)
stage "rotate trace/flightrec artifacts under target/"
rotate_keep() { # rotate_keep GLOB... (keeps the 8 newest of the set)
    # An unmatched glob stays literal; drop it, so an empty set is a no-op
    # rather than an `ls` failure under pipefail.
    local files=() f
    for f in "$@"; do
        [ -e "$f" ] && files+=("$f")
    done
    [ ${#files[@]} -gt 0 ] || return 0
    ls -1t "${files[@]}" | tail -n +9 | while IFS= read -r f; do
        rm -f "$f"
    done
}
rotate_keep target/trace*.json.old target/trace-*.json
rotate_keep target/flightrec/flightrec-*.jsonl
echo "kept: $(ls -1 target/flightrec/ 2>/dev/null | wc -l) flightrec dump(s)"

stage ""
if [ -s target/bench_gate_warnings.txt ]; then
    echo "CI OK, WITH BENCH-GATE WARNINGS (metrics missing vs baseline):"
    sed 's/^/  /' target/bench_gate_warnings.txt
fi
echo "CI OK in $(( $(date +%s) - CI_T0 ))s$([ "$QUICK" = 1 ] && echo ' (quick)')"
