#!/usr/bin/env bash
# Appends one line per workload to results/trajectory.jsonl: where the
# end-to-end metrics of one change stood, so later changes can read how
# each moved from change to change.
#
#   scripts/trajectory.sh --pr N [--tree DIR] [--seed S] [--seconds T]
#
# Runs `benchmark/run.sh --workload all --trace 0` in the checkout DIR
# (default: this repository) and reads its results.json. A line holds the
# change's number, the commit it sits on (`parent`: HEAD when DIR has
# uncommitted changes — the change being made — and HEAD's first parent
# when DIR is a clean checkout of the change's own commit), `nproc`, the
# seconds and seed of the run, the workload's four end-to-end metrics and
# its `rows_out`. The run rewrites `benchmark/Cargo.lock`; the script
# restores it afterwards.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
tree="$repo"
pr=""
seed=1
seconds=10
while [ $# -gt 0 ]; do
  case "$1" in
    --pr) pr=$2 ;;
    --tree) tree=$(cd "$2" && pwd) ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "usage: $0 --pr N [--tree DIR] [--seed S] [--seconds T]" >&2; exit 2 ;;
  esac
  shift 2
done
[[ "$pr" =~ ^[0-9]+$ ]] || { echo "usage: $0 --pr N [--tree DIR] [--seed S] [--seconds T]" >&2; exit 2; }

if [ -n "$(git -C "$tree" status --porcelain --untracked-files=no)" ]; then
  parent=$(git -C "$tree" rev-parse HEAD)
else
  parent=$(git -C "$tree" rev-parse HEAD~1)
fi
out=$(mktemp -d)
trap 'rm -rf "$out"; git -C "$tree" checkout -q -- benchmark/Cargo.lock' EXIT
bash "$tree/benchmark/run.sh" --workload all --trace 0 --seed "$seed" --seconds "$seconds" \
  --results "$out/results.json" > "$out/stdout.txt"
git -C "$tree" checkout -q -- benchmark/Cargo.lock

python3 - "$out/results.json" "$pr" "$parent" "$repo/results/trajectory.jsonl" <<'PY'
import json, sys
results, pr, parent, path = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
r = json.load(open(results))
env = r["environment"]
with open(path, "a") as f:
    for run in r["runs"]:
        if run["traced"]:
            continue
        line = {
            "pr": pr,
            "parent": parent,
            "nproc": env["nproc"],
            "seconds": env["seconds"],
            "seed": env["seed"],
            "workload": run["workload"],
            "correct": run["correct"],
        }
        for name in ("arrivals_per_s", "recall", "engine_heap_peak_mb", "setup_s"):
            line[name] = run["metrics"][name]["value"]
        line["rows_out"] = run["info"]["rows_out"]
        f.write(json.dumps(line) + "\n")
        print(json.dumps(line))
PY
