#!/usr/bin/env bash
# Reproduces the paper's whole evaluation with one command and reports
# what it cost: per-step and total wall seconds (the "time to reproduce
# the paper's evaluation" number; recorded runs in EXPERIMENTS.md,
# "Measurement history").
#
#   - every simulated table: the eight built-in specs through the sweep
#     farm (host-parallel, cached in target/sweep-store — a second run
#     is warm and executes zero cells; tables in target/sweep-out).
#     fig5_eager_lazy runs before the specs that share its cells.
#   - Table 2 and Table 4 simulate no matrix: two examples print them
#
# Building is not timed. Usage: scripts/reproduce.sh
set -euo pipefail
cd "$(dirname "$0")/.."

specs=(fig4_ws1 fig4_ws2 fig5_eager_lazy fig4_conflicts fig5_multiprog
    ablation_overflow ablation_signature ablation_cst)
examples=(table2_area table4_flexwatcher)

cargo build --release -p flextm-sweep --bin sweep
cargo build --release "${examples[@]/#/--example=}"

now_us() { echo "${EPOCHREALTIME/[.,]/}"; }
report() {
    # $1: label, $2: start in microseconds.
    awk -v label="$1" -v start="$2" -v end="$(now_us)" \
        'BEGIN { printf "wall: %-28s %8.2f s\n", label, (end - start) / 1e6 }'
}
step() {
    # $1: label, rest: command. Prints the command's output, then its wall.
    local label="$1" start
    shift
    start="$(now_us)"
    "$@"
    report "$label" "$start"
}
total_start="$(now_us)"
for spec in "${specs[@]}"; do
    step "sweep $spec" target/release/sweep --spec "$spec" --quiet
done
for example in "${examples[@]}"; do
    step "example $example" cargo run -q --release --example "$example"
done
report total "$total_start"
