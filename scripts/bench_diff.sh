#!/usr/bin/env bash
# Compares two BENCH_shard.json snapshots and fails on wall-time
# regressions, so a data-plane change can be gated on "no shard count
# got more than 10% slower".
#
# Usage: scripts/bench_diff.sh OLD.json NEW.json [--tolerance PCT]
#
# Every "shard_scaling*" section — uniform, the Zipf hot-key
# "shard_scaling_zipf" and the bounded-disorder "shard_scaling_disorder"
# (rows keyed by shard count AND disorder bound) — plus the "multi_query"
# section of BENCH_multi.json (rows keyed by execution mode AND query count) is
# compared when present in both snapshots (a section missing on either
# side is noted and skipped).
# Prints a per-shard-count table (old/new seconds, delta, speedups,
# steady allocs) and exits nonzero if any shard count present in both
# snapshots regressed by more than the tolerance (default 10%).
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 OLD.json NEW.json [--tolerance PCT]" >&2
  exit 2
fi
OLD="$1"
NEW="$2"
TOL="10"
if [ "${3:-}" = "--tolerance" ] && [ -n "${4:-}" ]; then TOL="$4"; fi

OLD="$OLD" NEW="$NEW" TOL="$TOL" python3 - <<'EOF'
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    # Accept either the merged artifact ({"shard_scaling": [...], ...}) or
    # the raw --json row list written by the shard_scaling binary.
    if isinstance(doc, dict):
        sections = {
            k: v
            for k, v in doc.items()
            if k.startswith("shard_scaling") or k == "multi_query"
        }
    else:
        sections = {"shard_scaling": doc}
    def row_key(r):
        # Multi-query rows are keyed by execution mode and query count.
        if "mode" in r:
            return (r["mode"], int(r["queries"]))
        # Disorder rows repeat shard counts across bounds; key on both.
        k = r.get("disorder_k_ms")
        return int(r["shards"]) if k is None else (int(r["shards"]), int(k))

    return {name: {row_key(r): r for r in rows} for name, rows in sections.items()}


old_path, new_path = os.environ["OLD"], os.environ["NEW"]
tol = float(os.environ["TOL"]) / 100.0
old_doc, new_doc = load(old_path), load(new_path)

shared_sections = sorted(set(old_doc) & set(new_doc))
if not shared_sections:
    sys.exit(f"FAIL: no shard_scaling sections in common between {old_path} and {new_path}")
for name in sorted(set(old_doc) ^ set(new_doc)):
    side = new_path if name in new_doc else old_path
    print(f"note: section {name} only present in {side}, skipped")

regressed = []
compared = 0
for name in shared_sections:
    old, new = old_doc[name], new_doc[name]
    shared = sorted(set(old) & set(new), key=lambda s: s if isinstance(s, tuple) else (s, -1))
    if not shared:
        print(f"note: {name}: no shard counts in common, skipped")
        continue
    for s in sorted(set(old) ^ set(new), key=lambda s: s if isinstance(s, tuple) else (s, -1)):
        side = new_path if s in new else old_path
        print(f"note: {name}: S={s} only present in {side}, skipped")

    print(f"[{name}]")
    key_col = "mode/N" if name == "multi_query" else "S"
    header = f"{key_col:>15}  {'old s':>9}  {'new s':>9}  {'delta':>8}  {'old spd':>8}  {'new spd':>8}  {'allocs':>7}"
    print(header)
    print("-" * len(header))
    for s in shared:
        o, n = old[s], new[s]
        if isinstance(s, int):
            label = str(s)
        elif isinstance(s[0], int):
            label = f"{s[0]}/K{s[1]}"
        else:
            label = f"{s[0]}/N{s[1]}"
        delta = (n["seconds"] - o["seconds"]) / o["seconds"]
        allocs = n.get("steady_allocs", "-")
        print(
            f"{label:>15}  {o['seconds']:>9.5f}  {n['seconds']:>9.5f}  {delta:>+7.1%} "
            f" {o.get('speedup', 1.0):>8.2f}  {n.get('speedup', 1.0):>8.2f}  {allocs:>7}"
        )
        compared += 1
        if delta > tol:
            regressed.append((name, s, delta))

if not compared:
    sys.exit(f"FAIL: no shard counts in common between {old_path} and {new_path}")
if regressed:
    worst = ", ".join(f"{name} S={s} {d:+.1%}" for name, s, d in regressed)
    sys.exit(f"FAIL: wall-time regression beyond {tol:.0%}: {worst}")
print(f"OK: no shard count regressed by more than {tol:.0%} ({compared} compared)")
EOF
