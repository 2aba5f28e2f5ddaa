#!/usr/bin/env bash
# Nightly deep audit sweep: every contract of DESIGN.md §8 — each query
# of a fuzzed standing set against its exact oracle, in process and
# sharded, event-time runs against in-order runs, churn, the A/B pairs —
# with structural invariant checks after every arrival.
#
# Usage: scripts/audit.sh [CASES] [SEED]
#
# Defaults to 1000 cases seeded from the date, so each night explores
# fresh cases while any failure stays reproducible: the failing case's
# seed is printed with a `replay <seed>` line and a shrunk minimal trace.
set -euo pipefail
cd "$(dirname "$0")/.."

CASES="${1:-1000}"
SEED="${2:-$(date +%Y%m%d)}"

echo "audit sweep: ${CASES} cases, master seed ${SEED}"
cargo run --release -p mstream-audit -- sweep --cases "${CASES}" --seed "${SEED}"
