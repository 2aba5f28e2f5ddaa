#!/usr/bin/env bash
# The tier-1 gate: release build, full test suite, clippy with warnings
# denied. CI and pre-commit both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

# grep_paths [GREP_OPTION...] PATTERN PATH...: `grep -rnHE` over paths that
# must exist. No match is fine; a missing or unreadable path (grep's status
# 2) fails the script, so a gate cannot pass by searching a directory that
# moved.
grep_paths() {
  local rc=0
  grep -rnHE "$@" || rc=$?
  [ "$rc" -le 1 ] || { echo "FAIL: grep exited $rc (a gate names a missing path?): $*" >&2; exit 1; }
}
# forbid WHY [GREP_OPTION...] PATTERN PATH...: fail with WHY, printing the
# matches, when PATTERN occurs under the paths.
forbid() {
  local why=$1 hits
  shift
  hits=$(grep_paths "$@") || exit 1
  if [ -n "$hits" ]; then
    echo "$hits"
    echo "FAIL: $why"
    exit 1
  fi
}

cargo build --release
cargo test -q
# Tests, benches and examples too: the lint table covers every target.
cargo clippy --workspace --all-targets -- -D warnings
# rustdoc with warnings denied: no broken or ambiguous intra-doc link, and
# no public doc that links a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going
# A rustfmt ratchet: the tree as a whole is not rustfmt-clean, and a
# wholesale reflow would bury every change in it, so the files listed in
# scripts/rustfmt-ratchet.txt (one path a line, `#` comments) are held to
# `rustfmt --check`. A change that rewrites a file formats it as a whole
# and adds it to the list; files it does not touch are not reflowed.
mapfile -t FMT_FILES < <(grep -v '^#' scripts/rustfmt-ratchet.txt)
[ "${#FMT_FILES[@]}" -gt 0 ] || { echo "FAIL: scripts/rustfmt-ratchet.txt lists no file"; exit 1; }
rustfmt --edition 2021 --check "${FMT_FILES[@]}" \
  || { echo "FAIL: a file on scripts/rustfmt-ratchet.txt is not rustfmt-clean (run rustfmt --edition 2021 on it)"; exit 1; }
# A library crate's modules stay private, so its `pub use` list in `lib.rs`
# is its whole public API and `unreachable_pub` (the workspace lint table,
# gated by clippy above) sees every item the list does not reach. The open
# modules are mstream-core's: `kernel`, whose `scalar` and `avx2` forms the
# equivalence suite and `bench_sketch` compare, `prelude`, and the three
# `mstream_{join,sketch,window}` lists `benchmark/` imports from.
PUB_MODS=$(grep_paths '^\s*pub mod ' crates/{types,query,workload,agg,core}/src/lib.rs \
  crates/core/src/{join,shed,sketch,window}/mod.rs)
OPEN_MODS=$(grep -vE '^crates/core/src/lib.rs:[0-9]+:pub mod (kernel;|(prelude|mstream_join|mstream_sketch|mstream_window) \{)$' <<<"$PUB_MODS" || true)
if [ -n "$OPEN_MODS" ]; then
  echo "$OPEN_MODS"
  echo "FAIL: a library crate declares a pub mod besides mstream-core's kernel, prelude and three benchmark lists"
  exit 1
fi
# One build, one behaviour: the `audit` feature belongs to mstream-core
# alone and adds items the audit calls (a fn, an impl, a module, a use, a
# struct, enum, type, const, static or trait, or a struct field), never a
# statement on a path an arrival reaches, so the root build
# — where cargo unifies mstream-audit's `features = ["audit"]` into every
# binary — runs what a `-p mstream-cli` build runs.
AUDIT_GATE=$({ grep -rln 'feature = "audit"' crates tests examples || true; } | sort | while read -r FILE; do
  case "$FILE" in
    crates/core/src/*|crates/audit/*) ;;
    *) grep -n 'feature = "audit"' "$FILE" | sed "s|^|$FILE:|; s|\$| (outside crates/core/src and crates/audit)|" ;;
  esac
  # The line after the attribute (and any attributes or comments stacked
  # under it) must open an item.
  awk -v file="$FILE" '
    gated && /^[[:space:]]*(#\[|\/\/)/ { next }
    gated {
      if ($0 !~ /^[[:space:]]*(pub(\([a-z_: ]+\))? )?((const |unsafe )*fn |(unsafe )?(impl[ <]|trait )|(mod|use|struct|enum|type|static) |const [A-Z_][A-Z0-9_]*:|[a-z_][a-z0-9_]*: [^=!]*,$)/)
        printf "%s:%d: %s (not on an item)\n", file, at, $0
      gated = 0
    }
    /feature = "audit"/ {
      if ($0 ~ /^[[:space:]]*#\[cfg/) { gated = 1; at = NR }
      else printf "%s:%d: %s (not a cfg attribute)\n", file, NR, $0
    }' "$FILE"
done)
if [ -n "$AUDIT_GATE" ]; then
  echo "$AUDIT_GATE"
  echo "FAIL: feature = \"audit\" outside crates/core/src and crates/audit, or on a statement rather than an item"
  exit 1
fi
# The benchmark is a package outside the workspace, so the commands
# above do not notice when an API it calls disappears.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q)
# Engine crates take their configuration through the builder, never from
# the process environment.
forbid "an engine crate names an MSTREAM_* environment variable" 'MSTREAM_' crates/{types,core}/src
# One match enumerator: the probe kernels in `join/probe.rs` serve the solo
# engine and every class of the multi-query plane (DESIGN.md §14).
forbid "a second probe enumerator is back in mstream-core" 'TrieNode|ProbeCtx|from_parts' crates/core/src
# One engine: a single-query engine is the plane with one registered query
# (`pub type ShedJoinEngine`), and the bounded-disorder release loop is one
# stage every front door shares (DESIGN.md §13, §14).
forbid "a second engine struct is back in mstream-core" 'struct ShedJoinEngine' crates/core/src
RELEASE_LOOPS=$(grep_paths 'fn release_below' crates/core/src)
if [ "$(grep -c . <<<"$RELEASE_LOOPS")" -gt 1 ]; then
  echo "$RELEASE_LOOPS"
  echo "FAIL: a second copy of the reorder release loop in mstream-core"
  exit 1
fi
# The engines deliver results through `EmitSink::emit_run` only (its
# default body is the per-row path), so no call site can bypass a sink's
# override.
forbid "an engine calls sink.emit directly instead of emit_run" 'sink\.emit\(' crates/core/src/{engine,multi}.rs
# ... and a counting path never walks rows: the engines credit a run from
# its slot lists and CountSink reads its length (outer x inner), so neither
# may reach for the per-row walk.
COUNT_SINK=$(sed -n '/^impl EmitSink for CountSink/,/^}/p' crates/core/src/ingest.rs)
[ -n "$COUNT_SINK" ] || { echo "FAIL: found no 'impl EmitSink for CountSink' in ingest.rs (gate out of date?)"; exit 1; }
forbid "a counting path (engine.rs, multi.rs) walks a run's rows" 'for_each_row' crates/core/src/{engine,multi}.rs
if grep -n 'for_each_row' <<<"$COUNT_SINK"; then
  echo "FAIL: CountSink walks a run's rows"
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
# field, alone or one per stream or predicate in a `Vec` (the sign and score
# memos, the frequency tables, the queue's live positions), hashes through
# `mstream_types::WordBuild`. Chosen over clippy `disallowed-types`, which
# cannot tell a test's reference model (`store_model.rs`, left out) from a
# field.
MAP_FIELD='^\s*(pub(\([a-z]+\))? )?[a-z_]+: (Vec<)?(std::collections::)?HashMap<'
MAP_FIELDS=$(grep_paths --exclude=store_model.rs "$MAP_FIELD" crates/core/src)
if grep -vE 'WordBuild>>?,' <<<"$MAP_FIELDS" | grep .; then
  echo "FAIL: a HashMap field of an engine crate is built on RandomState"
  exit 1
fi
WORD_MAPS=$(grep -cE 'WordBuild>>?,' <<<"$MAP_FIELDS" || true)
if [ "$WORD_MAPS" -lt 4 ]; then
  echo "FAIL: expected the four per-arrival tables on WordBuild, found $WORD_MAPS"
  exit 1
fi
# Every key-partitioned arrival is delivered once, to its hash-home shard:
# hot keys are not split (DESIGN.md §12), so neither the tracker nor the
# store-only replica role may come back.
forbid "hot-key splitting is back under crates/" 'SkewRouter|SpaceSaving|Item::Replica|STORE_REPLICA' crates/
# One sharded route and one flow rule (DESIGN.md §9): a set that
# partitions by key runs wide, any other runs on one shard, and a full
# channel blocks, so broadcast mode, its replica deliveries and channel
# shedding stay gone.
forbid "broadcast mode or channel shedding is back (DESIGN.md §9)" \
  'BroadcastPlan|PROBE_REPLICA|IngestRole|ingest_broadcast|broadcast_memory|account_rejected|Backpressure::Shed|no-broadcast' \
  crates/ examples/
# Sharded batches are flat word records (DESIGN.md §9): the tagged channel
# item and its fixed-lane tick blocks stay gone.
forbid "the tagged channel item is back in mstream-core (batches are word records)" \
  'TickBlock|TICK_LANES|enum Item' crates/core
# The overload queue is a stage of the plane (DESIGN.md §13): every run,
# Figure 6 included, goes through `ingest` / `flush`, so the side door —
# its service loop, its config struct, the run-time wake-up — stays gone.
# (`fn offer` is matched in mstream-core's engine files only: `ShedQueue::offer`
# in `window/` and `Reservoir::offer` are the queue's and the sampler's own
# operations.)
forbid "the overload queue's side door is back (DESIGN.md §13)" 'SimConfig|drain_queue|wake_classes' crates/
forbid "the overload queue's side door is back (DESIGN.md §13)" 'fn offer' crates/core/src/*.rs
# One mixer: SplitMix64 is defined in mstream-types and imported.
forbid "a second copy of the SplitMix64 constants (import mstream_types::splitmix64)" -i \
  '9E37_?79B9_?7F4A_?7C15|BF58_?476D_?1CE4_?E5B9|94D0_?49BB_?1331_?11EB' crates/core/src
# Every tuple is scored at its own instant: the reorder stage releases each
# arrival at its own timestamp, so no tuple is ever late for its epoch and
# the late-tuple scoring path stays gone (DESIGN.md §13).
forbid "the late-tuple scoring path is back (DESIGN.md §13)" -w 'productivity_at|has_prev|event_time' crates/core/src
# The first-epoch query sums in integers (DESIGN.md §15): the f64
# product-and-sum forms and the magic-number conversion stay gone.
forbid "an f64 first-epoch product form is back in the sketch layer (DESIGN.md §15)" \
  'product2_signed|COUNTER_LIMIT|\bMAGIC\b' crates/core/src/sketch
# One form per sketch kernel (DESIGN.md §15): the portable lane tier and the
# sign-copying kernel stay gone; `kernel::scalar` is the portable form of
# the three kernels that also have an AVX2 one.
forbid "a second portable kernel form is back (DESIGN.md §15)" 'mod lanes|lanes::|signed_copy' crates/core/src/sketch crates/bench
# One `mstream run` path (DESIGN.md §14): `--query` is a query set of one,
# so the separate single-query, sharded and multi-query bodies, their own
# trace validator and their hand-written exact-count loop stay gone.
forbid "a second mstream run path is back in crates/cli/src" \
  'fn run_multi|fn run_sharded|fn multi_exact_counts|fn validate_trace\(' crates/cli/src
# One memory rule (DESIGN.md §8): every window holds the same fixed number
# of tuples, so the memory modes, the global pool and per-stream capacity
# lists stay gone.
forbid "a second memory rule is back (DESIGN.md §8)" \
  'MemoryMode|GlobalPool|PerWindowEach|shed_to_pool|global_pool|fn capacities' \
  crates/core/src crates/cli/src crates/bench/src crates/audit/src
# Differential audit smoke (DESIGN.md §8): 100 fuzzed cases, every policy
# in process and sharded against each query's exact oracle, event-time
# runs against in-order runs, the score-cache (odd seeds) and plain/eager
# (even seeds) A/B pairs, structural invariants after every arrival. A
# class the sweep never drew watched nothing, so every count must be > 0.
cargo run --release -p mstream-audit -- sweep --cases 100 --seed 7 | tee target/check_audit.txt
for CLASS in "one-query sets" "multi-query sets" "churn cases" "disorder cases" \
  "late-drop probes" "deferred cases" "idle-estimation cases" "skewed-key sharded cases" \
  "mixed-arity cases" "spill cases" "queued cases"; do
  grep -Eq "[1-9][0-9]* $CLASS" target/check_audit.txt \
    || { echo "FAIL: the audit smoke drew no $CLASS"; exit 1; }
done

# Sharded-vs-single CLI differential smoke: the same key-partitionable
# query and trace must produce the same output count at S in {1,2,4} when
# nothing sheds (full memory) — and, with Time epochs and windows that
# never fill, no worker may run a single rescoring pass. Every arrival is
# routed once.
KEYED_QUERY='SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2)
             WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1'
cargo run --release -p mstream-cli -- generate \
  --workload regions --tuples 400 --out target/check_shard_trace.csv
BASELINE=""
for S in 1 2 4; do
  OUT=$(cargo run --release -p mstream-cli -- run \
    --query "$KEYED_QUERY" --trace target/check_shard_trace.csv \
    --capacity 100000 --shards "$S" --json \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["output_tuples"], r["shards"], r["shed_window"], r["epoch_rollovers"], r["priority_rebuilds"], sum(r["routed"]), r["arrivals"], "%.2f" % (sum(r["wire_words"]) / sum(r["routed"])))')
  read -r TUPLES GOT_S SHED_W ROLLS REBUILDS ROUTED ARRIVALS WORDS <<<"$OUT"
  [ "$GOT_S" = "$S" ] || { echo "FAIL: requested $S shards, ran $GOT_S"; exit 1; }
  [ "$ROUTED" = "$ARRIVALS" ] || { echo "FAIL: S=$S routed $ROUTED of $ARRIVALS arrivals"; exit 1; }
  [ "$SHED_W" = 0 ] || { echo "FAIL: full-memory run shed $SHED_W window tuples"; exit 1; }
  [ "$ROLLS" -gt 0 ] || { echo "FAIL: the smoke trace spans no epoch rollover"; exit 1; }
  [ "$REBUILDS" = 0 ] || { echo "FAIL: full-memory run rescored windows ($REBUILDS passes over $ROLLS rollovers)"; exit 1; }
  if [ -z "$BASELINE" ]; then BASELINE="$TUPLES"; fi
  [ "$TUPLES" = "$BASELINE" ] || { echo "FAIL: S=$S produced $TUPLES tuples, S=1 produced $BASELINE"; exit 1; }
  echo "shard smoke: S=$S -> $TUPLES output tuples (matches baseline), $WORDS words per routed arrival"
done
# The same differential through `run --queries`: the one coordinator serves
# a standing set too, so a keyed two-query set at full capacity must give
# each query the same produced count at S in {1,2,4}.
cat > target/check_shard_queries.json <<'JSON'
["SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2) WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1",
 "SELECT * FROM R1(A1, A2) [RANGE 10 SECONDS], R2(A1, A2) WHERE R1.A1 = R2.A1"]
JSON
BASELINE=""
for S in 1 2 4; do
  OUT=$(./target/release/mstream run --queries target/check_shard_queries.json \
    --trace target/check_shard_trace.csv --capacity 100000 --shards "$S" --json \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["shards"], r["shed_window"], ",".join(str(q["produced"]) for q in r["per_query"]))')
  read -r GOT_S SHED PRODUCED <<<"$OUT"
  [ "$GOT_S" = "$S" ] || { echo "FAIL: query set requested $S shards, ran $GOT_S"; exit 1; }
  [ "$SHED" = 0 ] || { echo "FAIL: full-capacity query set shed $SHED tuples at S=$S"; exit 1; }
  if [ -z "$BASELINE" ]; then BASELINE="$PRODUCED"; fi
  [ "$PRODUCED" = "$BASELINE" ] || { echo "FAIL: S=$S produced $PRODUCED per query, S=1 produced $BASELINE"; exit 1; }
  echo "query-set shard smoke: S=$S -> $PRODUCED per query (matches baseline)"
done
# A query without one partition key per stream (the chain joins R2 through
# two attributes) runs on one shard at --shards 2, says why, and reports
# the in-process run's output.
CHAIN_QUERY='SELECT * FROM R1(A1, A2) [RANGE 30 SECONDS], R2(A1, A2), R3(A1, A2)
             WHERE R1.A1 = R2.A1 AND R2.A2 = R3.A1'
chain_run() { # extra flags -> "shards degraded-nonempty output_tuples"
  ./target/release/mstream run --query "$CHAIN_QUERY" --trace target/check_shard_trace.csv \
    --capacity 50 --json "$@" \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["shards"], bool(r["degraded"]), r["output_tuples"])'
}
read -r _ _ INPROC <<<"$(chain_run)"
read -r GOT_S DEGRADED TUPLES <<<"$(chain_run --shards 2)"
[ "$GOT_S" = 1 ] && [ "$DEGRADED" = True ] && [ "$TUPLES" = "$INPROC" ] \
  || { echo "FAIL: chain query at --shards 2: $GOT_S shards, degraded $DEGRADED, $TUPLES tuples (in process $INPROC)"; exit 1; }
echo "unkeyed shard smoke: chain query at S=2 -> 1 shard with a reason, $TUPLES output tuples (matches in process)"
# Windows that cannot fill (DESIGN.md §16): a keyed [ROWS n] query with room
# for n tuples in every worker's window (the budget is the total: n·S) is
# exact under MSketch and FIFO at S in {1,2,4}, sheds nothing and rolls no
# epoch; with one slot less, MSketch estimates again.
ROWS_N=40
ROWS_QUERY="SELECT * FROM R1(A1, A2) [ROWS $ROWS_N], R2(A1, A2), R3(A1, A2)
            WHERE R1.A1 = R2.A1 AND R2.A1 = R3.A1"
rows_run() { # policy capacity shards -> "output_tuples shed_window epoch_rollovers"
  ./target/release/mstream run --query "$ROWS_QUERY" --trace target/check_shard_trace.csv \
    --policy "$1" --capacity "$2" --shards "$3" --json \
    | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["output_tuples"], r["shed_window"], r["epoch_rollovers"])'
}
read -r FULL _ _ <<<"$(rows_run FIFO 100000 1)"
for POLICY in MSketch FIFO; do
  for S in 1 2 4; do
    read -r TUPLES SHED_W ROLLS <<<"$(rows_run "$POLICY" $((ROWS_N * S)) "$S")"
    [ "$TUPLES" = "$FULL" ] && [ "$SHED_W" = 0 ] && [ "$ROLLS" = 0 ] \
      || { echo "FAIL: [ROWS $ROWS_N] with room for $ROWS_N, $POLICY S=$S: $TUPLES tuples (full memory $FULL), $SHED_W shed, $ROLLS rollovers"; exit 1; }
    echo "unfillable-window smoke: $POLICY S=$S -> $TUPLES output tuples, none shed, no epoch"
  done
done
read -r _ _ ROLLS <<<"$(rows_run MSketch $((ROWS_N - 1)) 1)"
[ "$ROLLS" -gt 0 ] || { echo "FAIL: [ROWS $ROWS_N] at capacity $((ROWS_N - 1)) rolled no epoch"; exit 1; }

# Overload smoke (paper §2, Figure 6's model): behind a queue served at a
# fifth of the arrival rate every arrival is processed or queue-shed once;
# the queue refuses a disorder bound and shards (nonzero exit).
read -r ARRIVALS PROCESSED SHED_Q <<<"$(./target/release/mstream run --query "$CHAIN_QUERY" \
  --trace target/check_shard_trace.csv --capacity 50 --rate 10 --service 2 --queue 20 --json \
  | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["arrivals"], r["processed"], r["shed_queue"])')"
[ "$SHED_Q" -gt 0 ] && [ $((PROCESSED + SHED_Q)) = "$ARRIVALS" ] \
  || { echo "FAIL: overload smoke: $PROCESSED processed + $SHED_Q queue-shed of $ARRIVALS arrivals"; exit 1; }
# The queue serves a query set too: a two-query set behind it conserves
# every arrival and keeps a row per query.
read -r ARRIVALS_M PROCESSED_M SHED_Q_M ROWS_M <<<"$(./target/release/mstream run \
  --queries target/check_shard_queries.json --trace target/check_shard_trace.csv \
  --capacity 50 --rate 10 --service 2 --queue 20 --json \
  | python3 -c 'import json,sys; r=json.load(sys.stdin); print(r["arrivals"], r["processed"], r["shed_queue"], len(r["per_query"]))')"
[ "$SHED_Q_M" -gt 0 ] && [ $((PROCESSED_M + SHED_Q_M)) = "$ARRIVALS_M" ] && [ "$ROWS_M" = 2 ] \
  || { echo "FAIL: query-set overload smoke: $PROCESSED_M processed + $SHED_Q_M queue-shed of $ARRIVALS_M arrivals, $ROWS_M query rows"; exit 1; }
echo "query-set overload smoke: $PROCESSED_M processed + $SHED_Q_M queue-shed of $ARRIVALS_M arrivals"
for EXTRA in "--disorder-bound 5" "--shards 2"; do
  # shellcheck disable=SC2086 # EXTRA is a flag and its value
  if ./target/release/mstream run --query "$CHAIN_QUERY" --trace target/check_shard_trace.csv \
    --service 2 $EXTRA > /dev/null 2>&1; then
    echo "FAIL: --service with $EXTRA exited 0"
    exit 1
  fi
done
echo "overload smoke: $PROCESSED processed + $SHED_Q queue-shed of $ARRIVALS arrivals"
# A flag the subcommand does not read is a usage error (exit 2), so a typo
# or a retired flag cannot pass unnoticed.
for FLAG in --jsn --no-broadcast; do
  RC=0
  ./target/release/mstream run --query "$CHAIN_QUERY" --trace target/check_shard_trace.csv \
    "$FLAG" > /dev/null 2>&1 || RC=$?
  [ "$RC" = 2 ] || { echo "FAIL: mstream run with the unknown flag $FLAG exited $RC, not 2"; exit 1; }
  echo "unknown-flag smoke: mstream run $FLAG exited 2"
done

# Far-future timestamps: at --rate 1e-9 arrivals land 10^15 µs apart, 5·10^8
# epochs of a 2-second window. The estimators roll at most three times per
# gap instead of once per elapsed epoch, so MSketch and Bjoin finish as fast
# as FIFO (which keeps no epochs) and print its empty result.
printf '0,1,1\n1,1,1\n0,1,2\n1,1,2\n0,2,1\n1,2,1\n' > target/check_far_future.csv
FAR_QUERY='SELECT * FROM R1(A1, A2) [RANGE 2 SECONDS], R2(A1, A2) WHERE R1.A1 = R2.A1'
for POLICY in MSketch Bjoin; do
  OUT=$(timeout 20 ./target/release/mstream run --query "$FAR_QUERY" \
    --trace target/check_far_future.csv --policy "$POLICY" --capacity 4 --rate 1e-9) \
    || { echo "FAIL: far-future smoke under $POLICY exited $?"; exit 1; }
  grep -Eq 'output tuples: +0$' <<<"$OUT" \
    || { echo "FAIL: far-future smoke under $POLICY did not print FIFO's 'output tuples: 0'"; exit 1; }
  echo "far-future smoke: $POLICY finished"
done

# mstream-core's unit tests and its sketch and window equivalence suites
# once more in release with overflow checks on: the pending bit-planes, the
# settle and the i64 counters share a build where wrap-around panics instead
# of passing (ROADMAP chaos item 6 asks for this workspace-wide; the engine
# crate is the start), and mstream-types' with it: the word hasher must wrap
# on purpose everywhere it wraps. Own target directory, so the flag does not
# invalidate the release build above. The flag does not reach
# `kernel::avx2`: a vector integer add (`_mm256_add_epi64` in the sign fold)
# wraps silently where the scalar form would panic. No run gets there —
# |X_k[c]| is at most the tuples stream k saw this epoch, a u64 the bank
# counts beside it — and the equivalence suite keeps its fold inputs half an
# i64 away from the ends. The window layer's due keys (`ts + p`,
# `arrival + count`) saturate, and a plain `+` there must panic here instead
# of wrapping.
RUSTFLAGS="-C overflow-checks=on" \
  cargo test -q --release -p mstream-types -p mstream-core --lib --test equivalence --test index_equivalence \
  --target-dir target/overflow-checks
# mstream-core has one sanctioned unsafe island (kernel::avx2); a second
# allow must not slip in unnoticed.
UNSAFE_ALLOWS=$(grep_paths 'allow\(unsafe_code\)' crates/core/src)
if [ "$(grep -c . <<<"$UNSAFE_ALLOWS")" != 1 ] || ! grep -q '^crates/core/src/sketch/kernel.rs:' <<<"$UNSAFE_ALLOWS"; then
  echo "$UNSAFE_ALLOWS"
  echo "FAIL: mstream-core must allow unsafe code in exactly one place, kernel::avx2 in sketch/kernel.rs"
  exit 1
fi
# ... and every kernel in the island has a same-named one-element-per-step
# form in `kernel::scalar` — the portable path and the reference the
# equivalence suite holds it to — and `kernel::scalar` holds nothing else:
# a kernel without an AVX2 form has one body, at the top of kernel.rs.
pub_fns() { # the `pub fn` names of `pub mod $1` in kernel.rs
  awk -v mod="$1" '$0 == "pub mod " mod " {" {inside = 1; next} inside && /^}/ {inside = 0}
    inside && /^    pub fn / {sub(/^    pub fn /, ""); sub(/[(<].*/, ""); print}' \
    crates/core/src/sketch/kernel.rs | sort
}
[ -n "$(pub_fns avx2)" ] || { echo "FAIL: found no pub fn in kernel::avx2 (gate out of date?)"; exit 1; }
UNPAIRED=$(comm -3 <(pub_fns avx2) <(pub_fns scalar))
if [ -n "$UNPAIRED" ]; then
  echo "FAIL: kernels in only one of kernel::avx2 and kernel::scalar:" $UNPAIRED
  exit 1
fi
