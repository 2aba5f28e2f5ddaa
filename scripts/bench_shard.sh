#!/usr/bin/env bash
# Runs the shard-scaling throughput passes and merges BENCH_shard.json at
# the repo root:
#   - uniform: the regions trace at S in {1,2,4,8} (DESIGN.md §11 row;
#     wall-time speedup is the headline)
#   - zipf:    a Zipf(2.0) hot-key trace at S in {1,2,4,8,16} (DESIGN.md
#     §12 skew-adaptive routing row; probe imbalance is the headline)
#   - disorder: the regions trace at S=4 under bounded-disorder delivery
#     with K in {0,16,256} ms (DESIGN.md §13 reorder-buffer overhead row;
#     output invariance across K is the headline)
#   - score cache: the Zipf hot-key trace at theta in {1.5, 2.0}, S=4,
#     with the epoch-memoized productivity score cache on (default) and
#     off via --score-cache off (DESIGN.md §16; the score_ns /
#     priority_rebuild_ns reduction is the headline, output is identical
#     by contract)
#
# Usage: scripts/bench_shard.sh [--scale S] [--zipf-only]
#
# --zipf-only re-measures only the shard_scaling_zipf section and keeps
# the existing uniform rows untouched. Use it on hosts that cannot
# reproduce the committed multi-core uniform wall-time baseline (the zipf
# headline — imbalance and routing counters — is deterministic and
# host-independent; see EXPERIMENTS.md).
#
# Artifact layout (BENCH_shard.json):
#   {
#     "shard_scaling":          [ {"shards": 1, "seconds": ...,
#                                  "output": ..., "speedup": ..., ...}, ... ],
#     "shard_scaling_zipf":     [ {"shards": 1, "imbalance": ...,
#                                  "hot_promoted": ..., "cores": ...}, ... ],
#     "shard_scaling_disorder": [ {"shards": 4, "disorder_k_ms": 0,
#                                  "seconds": ..., "output": ...}, ... ],
#     "score_cache_zipf":       [ {"shards": 4, "zipf_theta": 1.5,
#                                  "score_cache": "on"|"off",
#                                  "score_ns": ..., "priority_rebuild_ns":
#                                  ..., "output": ...}, ... ]
#   }
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="0.5"
ZIPF_ONLY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --scale) SCALE="$2"; shift 2 ;;
    --zipf-only) ZIPF_ONLY=1; shift ;;
    *) echo "usage: $0 [--scale S] [--zipf-only]" >&2; exit 2 ;;
  esac
done

if [ "$ZIPF_ONLY" = 0 ]; then
  echo "== shard_scaling uniform (scale $SCALE) =="
  cargo run --release -p mstream-bench --bin shard_scaling -- \
    --scale "$SCALE" --json target/shard_scaling.json

  echo "== shard_scaling disorder (K in {0,16,256} ms) =="
  cargo run --release -p mstream-bench --bin shard_scaling -- \
    --scale "$SCALE" --shards 4 --disorder 0,16,256 \
    --json target/shard_scaling_disorder.json
fi

echo "== shard_scaling zipf (theta 2.0) =="
cargo run --release -p mstream-bench --bin shard_scaling -- \
  --zipf 2.0 --shards 1,2,4,8,16 --json target/shard_scaling_zipf.json

echo "== score-cache A/B (zipf theta in {1.5, 2.0}, S=4) =="
for THETA in 1.5 2.0; do
  cargo run --release -p mstream-bench --bin shard_scaling -- \
    --zipf "$THETA" --shards 4 --min-secs 0.3 \
    --json "target/shard_scaling_sc_on_${THETA}.json"
  cargo run --release -p mstream-bench --bin shard_scaling -- \
    --zipf "$THETA" --shards 4 --min-secs 0.3 --score-cache off \
    --json "target/shard_scaling_sc_off_${THETA}.json"
done

echo "== merging BENCH_shard.json =="
ZIPF_ONLY="$ZIPF_ONLY" python3 - <<'EOF'
import json
import os

doc = {}
if os.environ["ZIPF_ONLY"] == "1":
    with open("BENCH_shard.json") as f:
        doc = json.load(f)
else:
    with open("target/shard_scaling.json") as f:
        doc["shard_scaling"] = json.load(f)
    with open("target/shard_scaling_disorder.json") as f:
        doc["shard_scaling_disorder"] = json.load(f)
with open("target/shard_scaling_zipf.json") as f:
    doc["shard_scaling_zipf"] = json.load(f)

# The score-cache A/B: four single-point sweeps (theta x on/off). The
# section name deliberately does NOT start with "shard_scaling" so
# bench_diff.sh never wall-time-gates these rows (on/off rows share a
# shard count and measure an intentional cost difference).
sc = []
for theta in ("1.5", "2.0"):
    for mode in ("on", "off"):
        with open(f"target/shard_scaling_sc_{mode}_{theta}.json") as f:
            for r in json.load(f):
                r["score_cache"] = mode
                sc.append(r)
doc["score_cache_zipf"] = sc

with open("BENCH_shard.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
uniform = len(doc.get("shard_scaling", []))
zipf = len(doc["shard_scaling_zipf"])
disorder = len(doc.get("shard_scaling_disorder", []))
print(
    f"wrote BENCH_shard.json ({uniform} uniform + {zipf} zipf "
    f"+ {disorder} disorder + {len(sc)} score-cache rows)"
)
by = {(r["zipf_theta"], r["score_cache"]): r for r in sc}
for theta in (1.5, 2.0):
    on, off = by[(theta, "on")], by[(theta, "off")]
    if on["output"] != off["output"]:
        raise SystemExit(
            f"FAIL: score cache changed zipf({theta}) output: "
            f"{on['output']} vs {off['output']}"
        )
    s_on, s_off = on["score_ns"], off["score_ns"]
    p_on, p_off = on["priority_rebuild_ns"], off["priority_rebuild_ns"]
    t_on, t_off = s_on + p_on, s_off + p_off
    print(
        f"score-cache zipf({theta}): score_ns {s_off} -> {s_on} "
        f"({s_on / s_off:.2f}x), score+rebuild {t_off} -> {t_on} "
        f"({t_on / t_off:.2f}x), outputs identical"
    )
EOF
