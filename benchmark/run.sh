#!/usr/bin/env bash
# The benchmark's single command.
#
#   benchmark/run.sh                      build, run the five workloads, then the five traced runs
#   benchmark/run.sh agree                two full sets of the same build and their differences
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; the last line of stdout is its result object
#
# Builds offline in release mode into $CARGO_TARGET_DIR (default
# target/benchmark, which the repository already ignores).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml
if [ "$#" -eq 0 ]; then
    set -- all
fi
exec "$CARGO_TARGET_DIR/release/horus-bench" "$@"
