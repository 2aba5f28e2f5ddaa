#!/usr/bin/env bash
# A/A check: the full suite twice on the same commit (workloads in reverse
# order the second time), then every end-to-end metric of every workload
# compared against its bound: agree / unresolved / differ per cell, and the
# deterministic counts compared exactly. Extra arguments (--seed, --seconds)
# go to both runs. Exits non-zero unless every cell agrees.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" --results "$here/out/aa-first.json" "$@"
"$here/run.sh" --reverse --results "$here/out/aa-second.json" "$@"
"$here/run.sh" compare "$here/out/aa-first.json" "$here/out/aa-second.json"
