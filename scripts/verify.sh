#!/usr/bin/env bash
# Repo verification gate: tier-1 (build + tests) plus lints.
#
# Runs everything CI would:
#   1. tier-1 from ROADMAP.md: cargo build --release && cargo test -q
#      (every workspace member is a default-member, so this is all of
#      the workspace's tests)
#   2. cargo clippy --workspace -- -D warnings
#   3. cargo fmt --check
#   4. proto_check gates: the model checker exhaustively explores the
#      2-core x 1-line config to its pinned fixpoint (19137 states /
#      147700 transitions) serially, then again with --jobs 2 (the
#      parallel engine must report bit-identical counts), then on a
#      65-core wide machine (checker cores 0 and 64, multi-word
#      ProcSets — identical graph again, at no more than 3x the narrow
#      cost per transition); a 3-core tx-alphabet run to
#      its pinned fixpoint, with its kept states' peak memory
#      (peak_frontier_mib) at most 640 MiB; a wide 3-core bounded-depth
#      equality check; and the liveness pass — no fair abort/grant
#      cycle under the shipped tie-break, and the Polka mutual-abort
#      livelock rediscovered when the tie-break is reverted
#   5. trace-enabled determinism pass (release): the attempt-trace
#      JSONL must be non-empty, byte-identical across seeded runs, and
#      round-trip through the codec
#   6. 64- and 128-core smoke: the wide HashTable runs complete with
#      the always-on invariant layer armed (release determinism test)
#   7. hot-state gates (release): the banked-directory property suite
#      against its HashMap oracle, and the steady-state allocation gate
#      (a 16-core HashTable run must add zero host heap allocations per
#      transaction once warm)
#   8. fingerprint gate: the 16-core HashTable event/counter digests
#      at 96 and 384 transactions per thread must match the recorded
#      values — any drift is a semantic change to the simulated
#      machine, not a refactor
#   9. fallback switch backend: hosts without the assembly context
#      switch get a thread-baton backend selected by cfg in
#      crates/sim/src/fiber.rs; `--cfg flextm_fiber_fallback` builds it
#      here (separate target dir), and the simulator tests that reach
#      `Machine::run` (the library's unit tests and tests/isa.rs — the
#      other integration suites drive SimState, GrantQueue or BankedDir
#      directly and cannot observe the backend) and both fingerprint
#      digests must hold on it too
#  10. sweep farm smoke: the 2x2 smoke matrix runs cold at --jobs 1 and
#      at --jobs 2 into separate stores, then warm against the second;
#      the warm run must execute zero cells (pure cache) and all three
#      must emit byte-identical tables/JSON; and, without simulating
#      anything, the eight evaluation specs must expand to their pinned
#      cell counts (100 / 30 / 40 / 14 / 12 / 24 / 10 / 18)
#  11. repo benchmark (BENCHMARK.json): the standalone benchmark/
#      package is outside the workspace, so nothing above builds it —
#      its smoke run and its own tests keep a flextm-sim API change
#      from silently breaking it (read-only: nothing under benchmark/
#      is edited)
#
# Every step's wall clock is printed as a table at the end (the "time
# to run scripts/verify.sh" number of ROADMAP aim 1; a recorded table
# is in EXPERIMENTS.md), the proto_check exploration steps with their
# transitions per second and peak frontier memory beside it.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

now_us() { echo "${EPOCHREALTIME/[.,]/}"; }
step_labels=()
step_walls=()
step_rates=()
step_frontiers=()
step() {
    # $1: label. Prints the banner and starts the step's clock, closing
    # the previous step's; with no label, only closes.
    local now
    now="$(now_us)"
    if [ "${#step_labels[@]}" -gt "${#step_walls[@]}" ]; then
        step_walls+=("$((now - step_started))")
    fi
    step_started="$now"
    if [ $# -gt 0 ]; then
        step_labels+=("$1")
        echo "== $1 =="
    fi
}
rate_of() {
    echo "$1" | sed 's/.*"transitions_per_s": \([0-9]*\).*/\1/'
}
frontier_of() {
    echo "$1" | sed 's/.*"peak_frontier_mib": \([0-9.]*\).*/\1/'
}
step_rate() {
    # $1: a proto_check JSON line. Records its exploration rate and
    # peak frontier memory for the current step's row of the wall table.
    step_rates[${#step_labels[@]} - 1]="$(rate_of "$1")"
    step_frontiers[${#step_labels[@]} - 1]="$(frontier_of "$1")"
}
wall_table() {
    local i total=0
    for i in "${!step_walls[@]}"; do
        total=$((total + step_walls[i]))
        printf 'wall: %7.2f s  %s%s\n' "$((step_walls[i] / 10000))e-2" "${step_labels[$i]}" \
            "${step_rates[$i]:+ [${step_rates[$i]} transitions/s, peak frontier ${step_frontiers[$i]} MiB]}"
    done
    printf 'wall: %7.2f s  total\n' "$((total / 10000))e-2"
}

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test -q"
cargo test -q

step "clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustfmt check"
cargo fmt --all --check

step "proto_check smoke (exhaustive 2 cores x 1 line, serial)"
narrow_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --jobs 1)"
echo "$narrow_json"
step_rate "$narrow_json"
case "$narrow_json" in
*'"states": 19137, "transitions": 147700'*) ;;
*)
    echo "2x1 state graph drifted from the pinned 19137 states / 147700 transitions"
    exit 1
    ;;
esac
graph_of() {
    # Graph shape only: states/transitions/depth/violations — the
    # leading strip drops the parameter echo (cores/lines/wide/
    # alphabet/jobs all precede "states"), the others drop wall time,
    # the rate derived from it, and the frontier's memory (with more
    # than one worker, which same-level path claims a state first can
    # move it slightly).
    echo "$1" | sed 's/.*"states"/"states"/; s/ "wall_s": [0-9.]*,//; s/ "transitions_per_s": [0-9.]*,//; s/ "peak_frontier_mib": [0-9.]*,//'
}

step "proto_check parallel equality (same config, --jobs 2)"
par_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --jobs 2)"
echo "$par_json"
step_rate "$par_json"
if [ "$(graph_of "$narrow_json")" != "$(graph_of "$par_json")" ]; then
    echo "parallel exploration diverged from serial:"
    echo "  jobs 1: $(graph_of "$narrow_json")"
    echo "  jobs 2: $(graph_of "$par_json")"
    exit 1
fi

step "proto_check wide smoke (same alphabet, cores 0 and 64 of a 65-core machine)"
wide_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 1 --wide --jobs 2)"
echo "$wide_json"
step_rate "$wide_json"
narrow_graph="$(graph_of "$narrow_json")"
wide_graph="$(graph_of "$wide_json")"
if [ "$narrow_graph" != "$wide_graph" ]; then
    echo "wide machine changed the explored state graph:"
    echo "  narrow: $narrow_graph"
    echo "  wide:   $wide_graph"
    exit 1
fi
# Cost must follow touched state: both --jobs 2 runs walk the same
# graph, the 63 cores no transition touches are first-touch (no L1
# planes, shared H3 constants), and a transition's refill and invariant
# sweeps visit the touched cores only, so a wide transition costs
# 1.1-1.2x a narrow one (~4x before the touched set, 15x before
# first-touch planes). Above 3x some per-core plane or loop has gone
# back to being allocated, cloned or swept eagerly — a structural
# regression, not host noise.
width_ratio="$(awk -v n="$(rate_of "$par_json")" -v w="$(rate_of "$wide_json")" 'BEGIN { printf "%.1f", n / w }')"
echo "wide / narrow cost per transition: ${width_ratio}x"
if awk -v r="$width_ratio" 'BEGIN { exit !(r > 3) }'; then
    echo "an untouched core costs too much: wide transitions are ${width_ratio}x narrow ones (limit 3x)"
    exit 1
fi

step "proto_check 3-core fixpoint (tx alphabet; the deep-coverage gate)"
deep_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --jobs 2 2>/dev/null)"
echo "$deep_json"
step_rate "$deep_json"
case "$deep_json" in
*'"states": 396632, "transitions": 3037872'*'"truncated": 0'*) ;;
*)
    echo "3x1 tx exploration drifted from the pinned 396632 states / 3037872 transitions fixpoint"
    exit 1
    ;;
esac
# A kept state is a record of what it holds (~2 GiB of forked drivers
# before; ~390 MiB of records since). Above 640 MiB something a
# record should leave out — a vacant way, an untouched core, a zero
# word — is being kept again.
deep_frontier="$(frontier_of "$deep_json")"
if awk -v m="$deep_frontier" 'BEGIN { exit !(m > 640) }'; then
    echo "3x1 kept states pinned ${deep_frontier} MiB of frontier (limit 640 MiB)"
    exit 1
fi

step "proto_check wide 3-core bounded equality (66-core machine, depth 7)"
n3_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --depth 7 --jobs 2 2>/dev/null)"
w3_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 3 --lines 1 --alphabet tx --depth 7 --wide --jobs 2 2>/dev/null)"
echo "$w3_json"
step_rate "$w3_json"
n3_graph="$(graph_of "$n3_json")"
w3_graph="$(graph_of "$w3_json")"
if [ "$n3_graph" != "$w3_graph" ]; then
    echo "wide 3-core machine changed the explored state graph:"
    echo "  narrow: $n3_graph"
    echo "  wide:   $w3_graph"
    exit 1
fi

step "liveness: shipped tie-break must admit no fair abort cycle"
live_json="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 2 --liveness)"
echo "$live_json"
case "$live_json" in
*'"livelock": false'*) ;;
*)
    echo "liveness pass reported a fair abort/grant cycle on the shipped policy"
    exit 1
    ;;
esac

step "liveness: reverted tie-break must rediscover the Polka mutual-abort livelock"
if revert_out="$(cargo run -q --release -p flextm-bench --bin proto_check -- --cores 2 --lines 2 --liveness --revert-tie-break 2>&1)"; then
    echo "reverted tie-break was reported live — the livelock detector is blind"
    exit 1
fi
case "$revert_out" in
*livelock*) echo "$revert_out" | head -4 ;;
*)
    echo "reverted tie-break failed without a livelock witness:"
    echo "$revert_out"
    exit 1
    ;;
esac

step "trace determinism (release)"
cargo test -q --release -p flextm-workloads --test determinism \
    attempt_trace_is_deterministic_and_round_trips

step "64/128-core smoke (wide machines, invariants + byte-identical replay)"
cargo test -q --release -p flextm-workloads --test determinism \
    wide_machines_replay_identically_with_invariants

step "banked-directory property suite (vs HashMap oracle)"
cargo test -q --release -p flextm-sim --test bankdir_props

step "steady-state allocation gate (zero host allocs per txn)"
cargo test -q --release -p flextm-workloads --test alloc_gate

step "fingerprint gate (16-core digests, 96 and 384 txns/thread)"
check_fp() {
    # $1: label, $2: event digest, $3: counter digest, $4: the
    # fingerprint line.
    local label="$1" event="$2" counter="$3" line="$4"
    echo "$line"
    case "$line" in
    *"\"event_digest\": \"$event\""*"\"counter_digest\": \"$counter\""*) ;;
    *)
        echo "fingerprint drift ($label): expected $event/$counter"
        exit 1
        ;;
    esac
}
check_both_fp() {
    # $1: label, rest: cargo arguments selecting the build. One run
    # prints both lines, 96 txns/thread first.
    local label="$1" lines
    shift
    lines="$(cargo run -q --release -p flextm-bench --bin fingerprint "$@")"
    check_fp "$label, 96 txns" b91bf014cd6135a9 578f521ae8b7bc3c "$(sed -n 1p <<< "$lines")"
    check_fp "$label, 384 txns" f0cd4189940a6860 f95be49b738edeb6 "$(sed -n 2p <<< "$lines")"
}
check_both_fp "assembly switch"

step "fallback switch backend (--cfg flextm_fiber_fallback): sim tests + fingerprints"
(
    export RUSTFLAGS="--cfg flextm_fiber_fallback"
    cargo test -q --release -p flextm-sim --lib --test isa --target-dir target/fiber-fallback
    check_both_fp "thread-baton switch" --target-dir target/fiber-fallback
)

step "sweep farm smoke (2x2 matrix; jobs 1 == jobs 2 == warm, warm is pure cache)"
sweep_tmp="$(mktemp -d)"
sweep_smoke() {
    # $1: store name, $2: emit name, rest: extra flags.
    local store="$1" emit="$2"
    shift 2
    cargo run -q --release -p flextm-sweep --bin sweep -- \
        --spec smoke2x2 --store "$sweep_tmp/$store" --emit "$sweep_tmp/$emit" --quiet "$@"
}
sweep_smoke store1 jobs1 --jobs 1
sweep_smoke store2 jobs2 --jobs 2
warm_json="$(sweep_smoke store2 warm)"
echo "$warm_json"
case "$warm_json" in
*'"executed": 0, "cached": 4'*) ;;
*)
    echo "warm sweep re-executed cells instead of serving from cache"
    rm -rf "$sweep_tmp"
    exit 1
    ;;
esac
for other in jobs2 warm; do
    if ! diff -r "$sweep_tmp/jobs1" "$sweep_tmp/$other"; then
        echo "the $other sweep emitted different bytes than the cold --jobs 1 run"
        rm -rf "$sweep_tmp"
        exit 1
    fi
done
rm -rf "$sweep_tmp"

step "evaluation specs expand to their pinned cell counts (no simulation)"
for spec_cells in fig4_ws1:100 fig4_ws2:30 fig5_eager_lazy:40 fig4_conflicts:14 \
    fig5_multiprog:12 ablation_overflow:24 ablation_signature:10 ablation_cst:18; do
    spec="${spec_cells%:*}"
    cells="$(cargo run -q --release -p flextm-sweep --bin sweep -- --spec "$spec" --hash-spec | wc -l)"
    echo "$spec: $cells cells"
    if [ "$cells" -ne "${spec_cells#*:}" ]; then
        echo "$spec should expand to ${spec_cells#*:} cells"
        exit 1
    fi
done

step "repo benchmark: smoke run + the suite's own tests"
bash benchmark/run.sh --quick > /dev/null
(cd benchmark && cargo test -q --release --offline)

step
wall_table
echo "verify: all checks passed"
