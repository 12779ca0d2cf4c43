#!/usr/bin/env bash
# The one command: builds the benchmark (release, offline) and runs it.
# See README.md here, or `run.sh --help`.
#
# Runs from the repository root so that a relative CARGO_TARGET_DIR (the
# driver sets `.bench_build`) lands in the checkout, not in this
# directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
