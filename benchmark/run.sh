#!/usr/bin/env bash
# Build the benchmark (a cargo package of its own) and run it.
#
#   benchmark/run.sh                      every workload once: all metrics + benchmark/out/result.json
#   benchmark/run.sh run [--seed N] [--only W] [--reps K] [--out FILE]
#   benchmark/run.sh --twice [run options] two sets of runs, then `agree` on them
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the JSON result
#   benchmark/run.sh agree A.json B.json | bless [--seed N] [--force]
#
# The build goes to $CARGO_TARGET_DIR when set (relative to the repository
# root), else to benchmark/target.  A failed build prints no result and
# exits non-zero.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/agcm-e2e"

if [ "${1:-}" = "--twice" ]; then
    shift
    [ "${1:-}" = "run" ] && shift
    mkdir -p benchmark/out
    "$bin" run "$@" --out benchmark/out/set-a.json
    "$bin" run "$@" --out benchmark/out/set-b.json
    exec "$bin" agree benchmark/out/set-a.json benchmark/out/set-b.json
fi
if [ "$#" -eq 0 ]; then
    exec "$bin" run
fi
exec "$bin" "$@"
