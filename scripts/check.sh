#!/usr/bin/env bash
# The tier-1 gate: release build, full test suite, clippy with warnings
# denied. CI and pre-commit both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace -- -D warnings
# The benchmark is a package outside the workspace, so the three commands
# above do not notice when an API it calls disappears.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q)
# Engine crates take their configuration through the builder, never from
# the process environment.
if grep -rn 'MSTREAM_' crates/{types,sketch,window,join,shed,core}/src; then
  echo "FAIL: an engine crate names an MSTREAM_* environment variable"
  exit 1
fi
# One match enumerator: the probe kernels in mstream-join serve the solo
# engine and every class of the multi-query plane (DESIGN.md §14).
if grep -rnE 'TrieNode|ProbeCtx|from_parts' crates/{join,core}/src; then
  echo "FAIL: a second probe enumerator is back in mstream-join / mstream-core"
  exit 1
fi
# One engine: a single-query engine is the plane with one registered query
# (`pub type ShedJoinEngine`), and the bounded-disorder release loop is one
# stage every front door shares (DESIGN.md §13, §14).
if grep -rn 'struct ShedJoinEngine' crates/core/src; then
  echo "FAIL: a second engine struct is back in mstream-core"
  exit 1
fi
if [ "$(grep -rn 'fn release_below' crates/core/src | wc -l)" -gt 1 ]; then
  grep -rn 'fn release_below' crates/core/src
  echo "FAIL: a second copy of the reorder release loop in mstream-core"
  exit 1
fi
# The engines deliver results through `EmitSink::emit_run` only (its
# default body is the per-row path), so no call site can bypass a sink's
# override.
if grep -nE 'sink\.emit\(' crates/core/src/{engine,multi}.rs; then
  echo "FAIL: an engine calls sink.emit directly instead of emit_run"
  exit 1
fi
# ... and a counting path never walks rows: the engines credit a run from
# its slot lists and CountSink reads its length (outer x inner), so neither
# may reach for the per-row walk.
COUNT_SINK=$(sed -n '/^impl EmitSink for CountSink/,/^}/p' crates/core/src/ingest.rs)
[ -n "$COUNT_SINK" ] || { echo "FAIL: found no 'impl EmitSink for CountSink' in ingest.rs (gate out of date?)"; exit 1; }
if grep -n 'for_each_row' crates/core/src/{engine,multi}.rs || grep -n 'for_each_row' <<<"$COUNT_SINK"; then
  echo "FAIL: a counting path (engine.rs, multi.rs, CountSink) walks a run's rows"
  exit 1
fi
# An arrival reads no clock: per-arrival stages are timed through the
# sampled `StageClock` (crates/core/src/clock.rs); the one exact timer left
# in the engines is `timed_rescore` (a few hundred passes a run).
CLOCK_READS=$(cat crates/core/src/{engine,multi}.rs | grep -c 'Instant::now' || true)
RESCORE_READS=$(grep -A2 'fn timed_rescore' crates/core/src/engine.rs | grep -c 'Instant::now' || true)
if [ "$CLOCK_READS" != 1 ] || [ "$RESCORE_READS" != 1 ]; then
  echo "FAIL: engine.rs / multi.rs read the clock outside timed_rescore ($CLOCK_READS reads, $RESCORE_READS in timed_rescore)"
  exit 1
fi
# ... and computes no SipHash: every map an engine crate keeps as a struct
# field (the sign and score memos, the frequency tables, the heavy-hitter
# and hot-key indexes, the queue's live positions) hashes through
# `mstream_types::WordBuild`. Chosen over clippy `disallowed-types`, which
# cannot tell a test's reference model from a field.
MAP_FIELD='^\s*(pub(\([a-z]+\))? )?[a-z_]+: (std::collections::)?HashMap<'
if grep -rnE "$MAP_FIELD" crates/{sketch,window,core}/src | grep -v 'WordBuild>,'; then
  echo "FAIL: a HashMap field of an engine crate is built on RandomState"
  exit 1
fi
WORD_MAPS=$(grep -rhE "$MAP_FIELD" crates/{sketch,window,core}/src | grep -c 'WordBuild>,' || true)
if [ "$WORD_MAPS" -lt 6 ]; then
  echo "FAIL: expected the six per-arrival tables on WordBuild, found $WORD_MAPS"
  exit 1
fi
# One mixer: SplitMix64 is defined in mstream-types and imported.
if grep -rniE '9E37_?79B9_?7F4A_?7C15|BF58_?476D_?1CE4_?E5B9|94D0_?49BB_?1331_?11EB' crates/{window,core,sketch}/src; then
  echo "FAIL: a second copy of the SplitMix64 constants (import mstream_types::splitmix64)"
  exit 1
fi
# Differential audit smoke: every policy vs the exact oracle over 50
# fuzzed cases, with per-arrival structural invariant checks (includes the
# sharded-vs-oracle differential at the case's shard count). Odd-seed
# cases additionally run every engine twice — productivity score cache
# forced on and off — and the runs must be bit-identical (DESIGN.md §16).
# Even-seed cases run MSketch and MSketch-RS twice instead — as shipped
# (window priorities owed until a window is short) and behind the eager
# wrapper — with the same requirement; a sweep in which no window ever
# owed its priorities watched nothing.
cargo run --release -p mstream-audit -- sweep --cases 50 --seed 7 | tee target/check_audit.txt
grep -Eq '[1-9][0-9]* deferred cases' target/check_audit.txt \
  || { echo "FAIL: no audit case entered the deferred state"; exit 1; }
# Event-time disorder smoke (DESIGN.md §13): for fuzzed cases across every
# policy and both memory modes, a K=0 run is bit-identical to the trusting
# engine, a shuffle bounded by K reproduces the in-order output exactly
# (single-engine and sharded at S in {1, case shards}), and beyond-bound
# lateness is dropped, counted, and never joined. Odd-seed cases A/B the
# score cache through the event-time path (prev-epoch memo keying).
cargo run --release -p mstream-audit -- disorder --cases 25 --seed 7

# Sharded-vs-single CLI differential smoke: the same key-partitionable
# query and trace must produce the same output count at S in {1,2,4} when
# nothing sheds (full memory, blocking channels) — and, with Time epochs
# and windows that never fill, no worker may run a single rescoring pass.
KEYED_QUERY='SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2)
             WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1'
cargo run --release -p mstream-cli -- generate \
  --workload regions --tuples 400 --out target/check_shard_trace.csv
BASELINE=""
for S in 1 2 4; do
  OUT=$(cargo run --release -p mstream-cli -- run \
    --query "$KEYED_QUERY" --trace target/check_shard_trace.csv \
    --capacity 100000 --shards "$S" --json \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["output_tuples"], r["shards"], r["shed_window"], r["shed_channel"], r["epoch_rollovers"], r["priority_rebuilds"])')
  read -r TUPLES GOT_S SHED_W SHED_C ROLLS REBUILDS <<<"$OUT"
  [ "$GOT_S" = "$S" ] || { echo "FAIL: requested $S shards, ran $GOT_S"; exit 1; }
  [ "$SHED_W" = 0 ] && [ "$SHED_C" = 0 ] || { echo "FAIL: full-memory run shed ($SHED_W window, $SHED_C channel)"; exit 1; }
  [ "$ROLLS" -gt 0 ] || { echo "FAIL: the smoke trace spans no epoch rollover"; exit 1; }
  [ "$REBUILDS" = 0 ] || { echo "FAIL: full-memory run rescored windows ($REBUILDS passes over $ROLLS rollovers)"; exit 1; }
  if [ -z "$BASELINE" ]; then BASELINE="$TUPLES"; fi
  [ "$TUPLES" = "$BASELINE" ] || { echo "FAIL: S=$S produced $TUPLES tuples, S=1 produced $BASELINE"; exit 1; }
  echo "shard smoke: S=$S -> $TUPLES output tuples (matches baseline)"
done

# The sketch crate's tests once more in release with overflow checks on:
# the pending bit-planes, the settle and the i64 counters share a build
# where wrap-around panics instead of passing (ROADMAP chaos item 6 asks
# for this workspace-wide; this crate is the start), and mstream-types'
# with it: the word hasher must wrap on purpose everywhere it wraps. Own
# target directory, so the flag does not invalidate the release build
# above. The flag does not reach `kernel::avx2`: a vector integer add
# (`_mm256_add_epi64` in the sign fold) wraps silently where the scalar
# and lane forms would panic. No run gets there — |X_k[c]| is at most the
# tuples stream k saw this epoch, a u64 the bank counts beside it — and the
# equivalence suite keeps its fold inputs half an i64 away from the ends.
# mstream-window rides along: its due keys (`ts + p`, `arrival + count`)
# saturate, and a plain `+` there must panic here instead of wrapping.
RUSTFLAGS="-C overflow-checks=on" \
  cargo test -q --release -p mstream-sketch -p mstream-types -p mstream-window --target-dir target/overflow-checks
# mstream-sketch has one sanctioned unsafe island (kernel::avx2); a second
# allow must not slip in unnoticed.
UNSAFE_ALLOWS=$(cat crates/sketch/src/*.rs | grep -c 'allow(unsafe_code)' || true)
if [ "$UNSAFE_ALLOWS" != 1 ]; then
  echo "FAIL: mstream-sketch allows unsafe code in $UNSAFE_ALLOWS places (exactly 1: kernel::avx2)"
  exit 1
fi
# ... and every kernel in the island has a same-named one-element-per-step
# reference in `kernel::scalar` for the equivalence suite to hold it to.
pub_fns() { # the `pub fn` names of `pub mod $1` in kernel.rs
  awk -v mod="$1" '$0 == "pub mod " mod " {" {inside = 1; next} inside && /^}/ {inside = 0}
    inside && /^    pub fn / {sub(/^    pub fn /, ""); sub(/[(<].*/, ""); print}' \
    crates/sketch/src/kernel.rs | sort
}
[ -n "$(pub_fns avx2)" ] || { echo "FAIL: found no pub fn in kernel::avx2 (gate out of date?)"; exit 1; }
UNREFERENCED=$(comm -23 <(pub_fns avx2) <(pub_fns scalar))
if [ -n "$UNREFERENCED" ]; then
  echo "FAIL: kernel::avx2 kernels without a kernel::scalar reference:" $UNREFERENCED
  exit 1
fi

# Multi-query differential audit smoke (DESIGN.md §14): fuzzed 2-4-query
# sets, each query vs its own solo exact oracle, in-process and sharded
# S in {1,2}. It must include registration churn (a mid-trace add_query /
# remove_query), or owner hand-off goes unwatched.
cargo run --release -p mstream-audit -- multi --cases 25 --seed 7 | tee target/check_multi_audit.txt
grep -Eq '[1-9][0-9]* churn cases' target/check_multi_audit.txt \
  || { echo "FAIL: the multi-query audit smoke ran no churn case"; exit 1; }
