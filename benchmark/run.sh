#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh                          all six workloads, both modes
#   benchmark/run.sh --workload skew_single   one workload
#   benchmark/run.sh --seed 7 --seconds 20 --trace 0
#   benchmark/run.sh compare a.json b.json    the A/A comparison (see aa.sh)
#
# The driver appends `--workload W --seed N --seconds S --trace 0|1` and
# reads the last line of standard output. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The driver points CARGO_TARGET_DIR at a directory of its checkout; by
# hand the build lands in benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/mstream-benchmark"

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
MSTREAM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
MSTREAM_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export MSTREAM_BENCH_RUSTC MSTREAM_BENCH_COMMIT
exec "$bin" --out-dir "$here/out" "$@"
