//! Flat, branch-light kernels over the SoA sketch state: a portable
//! fixed-width lane path, AVX2 specializations on `x86_64` for the loops an
//! arrival pays, and a scalar reference path the tests compare against —
//! all **bit-identical** by construction.
//!
//! Every function here works on contiguous slices laid out *stream-major*:
//! the counters (or last-epoch snapshots) of stream `k` occupy
//! `buf[k * copies .. (k + 1) * copies]`, element `c` belonging to copy
//! `c`. The kernels iterate copy-innermost, and every floating-point
//! reduction folds in exactly the order the legacy AoS implementation used
//! — ascending stream index, left to right over copies — so estimates stay
//! bit-identical (multiplying by ±1 is an exact sign-bit flip and commutes
//! with everything else).
//!
//! # Why lane parallelism preserves bit-identity
//!
//! Each kernel below computes output index `c` from inputs at index `c`
//! only — counter folds, per-copy products, sign XORs are all elementwise.
//! A lane-parallel form evaluates the *same* operation sequence per index;
//! only the order **across** independent indexes changes, which is not
//! observable. The one reduction that crosses indexes — the mean stage of
//! median-of-means — keeps its serial within-group fold order
//! ([`group_sums`] lane-parallelizes **across** groups, never inside
//! one), because IEEE-754 addition is not associative and the estimates
//! are pinned bit-for-bit against the legacy layout. `tests/equivalence.rs`
//! proves all of this against [`scalar`], including ragged tails and
//! extreme counters.
//!
//! # The kernels that do reorder — by identity, not by luck
//!
//! [`add_sign_block`] / [`add_sign_planes`] / [`settle_planes`] defer the
//! counter fold: sign vectors accumulate in bit-sliced per-copy counters —
//! [`BLOCK`] at a time through a carry-save adder tree — and reach the
//! `i64` counters later, all at once. Integer addition is associative and
//! commutative, so the settled counters are the eagerly folded ones.
//! [`signed_sum`] sums a frozen cross row in sixteen accumulators; it is
//! only called on rows [`sum_is_exact`] accepts, where every partial sum in
//! every order is an exactly representable integer. [`sum_is_exact`] itself
//! and [`product2_signed_sum`] — the first-epoch product, sign and sum in
//! one pass, which carries its own guard and answers `None` outside it —
//! rest on the same argument.
//!
//! # Dispatch
//!
//! The top-level functions check shapes and run [`lanes`]. Where the CPU
//! reports AVX2, [`fold_packed_signs`], [`apply_packed_signs`] and
//! [`signed_sum`] run their [`avx2`] forms instead, and
//! [`product2_signed_sum`] has no other form (without AVX2 it answers
//! `None` and the caller runs [`product2_signed`] + [`group_sums`]). The
//! bit-plane kernels have one portable form each.

/// Lane width of the portable vector kernels (f64x4 / i64x4-sized blocks,
/// one 256-bit register on the machines this targets).
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// Shape guards, shared by every implementation.
// ---------------------------------------------------------------------------

/// Validates the packed-sign shape contract: one sign bit available for
/// every element (`len <= words.len() * 64`).
#[inline]
fn check_sign_shape(words: &[u64], len: usize, what: &str) {
    assert!(
        len <= words.len() * 64,
        "fewer packed sign bits than {what}"
    );
}

/// Validates the stream-major shape contract of [`column_products`],
/// returning `true` if there is nothing to do (`copies == 0`, which is
/// only legal with empty buffers — a mis-shaped non-empty buffer used to
/// slip through the old `copies.max(1)` modulo guard and panic deep inside
/// `chunks_exact`).
#[inline]
fn check_column_shape(buf: &[i64], copies: usize, out: &[f64]) -> bool {
    if copies == 0 {
        assert!(
            buf.is_empty() && out.is_empty(),
            "zero copies with non-empty buffers ({} counters, {} outputs)",
            buf.len(),
            out.len()
        );
        return true;
    }
    assert_eq!(out.len(), copies, "output must hold one product per copy");
    assert_eq!(buf.len() % copies, 0, "buffer is not stream-major");
    false
}

/// Validates the group-major shape contract of [`group_sums`].
#[inline]
fn check_group_shape(per_copy: &[f64], s1: usize, s2: usize) {
    assert_eq!(per_copy.len(), s1 * s2, "copy count must be s1*s2");
}

// ---------------------------------------------------------------------------
// Shape-checked entry points (the public kernel API).
// ---------------------------------------------------------------------------

/// Whether the AVX2 kernels can run here. A platform fact, probed
/// once per process.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Adds the packed ±1 signs in `words` into per-copy counters:
/// `counters[c] += +1` where bit `c` is clear, `−1` where set.
///
/// `counters` may be shorter than the bit capacity of `words` (the last
/// word's tail bits are ignored); it must not be longer. Empty `counters`
/// (with any `words`, including none) is a no-op.
pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
    check_sign_shape(words, counters.len(), "counters");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::fold_packed_signs(words, counters);
    }
    lanes::fold_packed_signs(words, counters)
}

/// Per-copy product of the counters of every stream except `exclude`
/// (pass `usize::MAX` — or any index `>= n`— to include all streams):
/// `out[c] = Π_{k ≠ exclude} buf[k·copies + c]`, multiplied in ascending
/// stream order starting from 1.0, matching the legacy fold exactly.
///
/// `copies == 0` is legal only with empty `buf` and `out` (and is a
/// no-op); a non-empty buffer must be an exact multiple of `copies`.
pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
    if check_column_shape(buf, copies, out) {
        return;
    }
    lanes::column_products(buf, copies, exclude, out)
}

/// Multiplies one stream-row of counters into an accumulator:
/// `acc[c] *= row[c]`. Used by the mixed last/current fallback path.
#[inline]
pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
    lanes::multiply_row(acc, row)
}

/// Negates `vals[c]` wherever bit `c` of `words` is set (sign −1).
/// Exact: IEEE negation flips the sign bit only, which is how it is
/// implemented here — an unconditional XOR instead of a data-dependent
/// branch, because AGMS signs are pseudo-random and mispredict ~half the
/// time.
pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
    check_sign_shape(words, vals.len(), "values");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::apply_packed_signs(words, vals);
    }
    lanes::apply_packed_signs(words, vals)
}

/// The fused two-partner mixed path (3-stream joins, the paper's shape):
/// `out[c] = ±(a[c] · b[c])` with the packed sign applied as an exact
/// sign-bit flip. Bit-identical to `fill(1.0)` + [`multiply_row`] per
/// row + [`apply_packed_signs`] — `1.0 · x` is exact and negation only
/// toggles the sign bit — in one pass over the counters instead of four.
pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "row/output length mismatch");
    assert_eq!(b.len(), out.len(), "row/output length mismatch");
    check_sign_shape(words, out.len(), "values");
    lanes::product2_signed(a, b, words, out)
}

/// Counters at or above this magnitude leave [`product2_signed_sum`]'s
/// fast path: below it the `2^52` magic-number add converts an `i64` to
/// the same `f64` the `as` cast gives.
const COUNTER_LIMIT: u64 = 1 << 51;

/// The sum at and above which a row of integer-valued terms may round
/// while it is added up (`2^53`).
const EXACT_LIMIT: f64 = (1u64 << 53) as f64;

/// [`product2_signed`] and the sum of its output in one pass, when that
/// sum does not depend on the order it is taken in: `Some(Σ_c ±(a[c] ·
/// b[c]))` — the bits of the serial `product2_signed` + one-group
/// [`group_sums`] pair — if every counter is below `2^51` in magnitude
/// and `Σ_c |a[c] · b[c]| < 2^53`, `None` otherwise and wherever there is
/// no AVX2. The caller runs the serial pair on `None`.
///
/// Why the fast path may reorder: a product that is below `2^53` after
/// rounding was below it before (rounding is monotone and `2^53` is
/// representable), so it is the exact integer; the terms are then
/// integers whose absolute values sum to less than `2^53`, every partial
/// sum in every association is an exactly representable integer, and no
/// add rounds. Sixteen accumulators from `-0.0` keep the sign of a zero
/// total too, as in [`signed_sum`]. The guard sum itself runs in several
/// accumulators; its verdict is order-free for the reason given at
/// [`sum_is_exact`].
pub fn product2_signed_sum(a: &[i64], b: &[i64], words: &[u64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    check_sign_shape(words, a.len(), "values");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::product2_signed_sum(a, b, words);
    }
    None
}

/// `dst[c] = ±src[c]` according to the packed signs — with [`group_sums`],
/// the frozen cross-product productivity query for a row
/// [`sum_is_exact`] rejects: one sign lookup and one copy per sketch copy,
/// no multiplies.
pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "source/destination length mismatch");
    check_sign_shape(words, src.len(), "values");
    lanes::signed_copy(words, src, dst)
}

/// The mean stage of median-of-means: appends to `groups` the serial sum
/// of each of the `s2` groups of `s1` consecutive `per_copy` values
/// (group-major layout). The **within-group fold order stays strictly
/// serial** — f64 addition is not associative, so an in-group tree would
/// change bits — and the lane path parallelizes only *across* independent
/// groups.
pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
    check_group_shape(per_copy, s1, s2);
    lanes::group_sums(per_copy, s1, s2, groups)
}

// ---------------------------------------------------------------------------
// Vertical (bit-sliced) pending counters.
// ---------------------------------------------------------------------------

/// Sign vectors [`add_sign_block`] adds at once.
pub const BLOCK: usize = 8;

/// One full adder over 64 independent bit columns: `(sum, carry)`.
#[inline(always)]
fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let ab = a ^ b;
    (ab ^ c, (a & b) | (ab & c))
}

/// Adds [`BLOCK`] packed sign vectors into a *vertical counter* at once.
/// `block` holds the vectors back to back (`block.len() / BLOCK` words
/// each; an all-zero vector adds nothing, so a short block is padded with
/// zeros); `planes` is the counter [`add_sign_planes`] describes, at least
/// three planes deep. Per word, seven full adders — four at weight 1, two
/// at weight 2, one at weight 4 — fold the eight bits and the word's
/// planes 0–2 into new planes 0–2 and one carry of weight 8, which ripples
/// on from plane 3 through [`add_sign_planes`]. `block` leaves all-zero.
///
/// # Panics
/// Panics if a copy's count carries out of the top plane.
pub fn add_sign_block(block: &mut [u64], planes: &mut [u64]) {
    let words = block.len() / BLOCK;
    assert_eq!(block.len(), words * BLOCK, "block is not BLOCK vectors");
    if words == 0 {
        return;
    }
    assert_eq!(planes.len() % words, 0, "planes are not word-major");
    assert!(planes.len() >= 3 * words, "a block lands in three planes");
    let (low, high) = planes.split_at_mut(3 * words);
    let [p0, p1, p2] = split_vectors(low, words);
    let [v0, v1, v2, v3, v4, v5, v6, v7] = split_vectors(block, words);
    let mut any = 0u64;
    for w in 0..words {
        let (s, c1a) = full_add(p0[w], v0[w], v1[w]);
        let (s, c1b) = full_add(s, v2[w], v3[w]);
        let (s, c1c) = full_add(s, v4[w], v5[w]);
        let (s, c1d) = full_add(s, v6[w], v7[w]);
        p0[w] = s;
        let (s, c2a) = full_add(p1[w], c1a, c1b);
        let (s, c2b) = full_add(s, c1c, c1d);
        p1[w] = s;
        // The carry of weight 8 takes the first vector's place.
        (p2[w], v0[w]) = full_add(p2[w], c2a, c2b);
        any |= v0[w];
    }
    block[words..].fill(0);
    if any != 0 {
        add_sign_planes(&mut block[..words], high);
    }
}

/// `buf` as `N` consecutive vectors of `words` words each.
fn split_vectors<const N: usize>(buf: &mut [u64], words: usize) -> [&mut [u64]; N] {
    assert_eq!(buf.len(), N * words, "buffer is not N vectors");
    let mut vectors = buf.chunks_exact_mut(words);
    std::array::from_fn(|_| vectors.next().expect("N vectors by the assert above"))
}

/// Adds one packed sign vector into a *vertical counter*: `planes` holds
/// `planes.len() / carry.len()` bit-planes of `carry.len()` words each,
/// plane `p` carrying bit `p` of a per-copy count of −1 signs. A
/// carry-save ripple — `plane ^= carry; carry &= old plane` — that stops
/// at the first plane no copy carries into. `carry` enters as the sign
/// words and leaves all-zero. The bank adds whole blocks
/// ([`add_sign_block`]); this is the ripple of a block's one carry vector.
///
/// # Panics
/// Panics if a copy's count carries out of the top plane (the caller
/// settles before `2^planes` updates can accumulate).
pub fn add_sign_planes(carry: &mut [u64], planes: &mut [u64]) {
    if carry.is_empty() {
        return;
    }
    assert_eq!(planes.len() % carry.len(), 0, "planes are not word-major");
    for plane in planes.chunks_exact_mut(carry.len()) {
        let mut any = 0u64;
        for (p, c) in plane.iter_mut().zip(carry.iter_mut()) {
            let old = *p;
            *p = old ^ *c;
            *c &= old;
            any |= *c;
        }
        if any == 0 {
            return;
        }
    }
    panic!("vertical counter overflow: settle before the top plane carries");
}

/// Most planes [`settle_planes`] reads: two byte lanes of count per copy.
const SETTLE_PLANES_MAX: usize = 16;

/// `BYTE_SPREAD[b]` = bit `l` of the byte `b` in bit 0 of byte lane `l`:
/// eight packed bits become eight byte-wide 0/1 lanes with one load.
const BYTE_SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut l = 0;
        while l < 8 {
            table[b] |= ((b as u64 >> l) & 1) << (8 * l);
            l += 1;
        }
        b += 1;
    }
    table
};

/// Folds `pending` deferred ±1 updates out of a vertical counter into the
/// per-copy counters: `counters[c] += pending − 2·neg[c]`, where `neg[c]`
/// is read back from the bit-planes (see [`add_sign_planes`]) eight copies
/// at a time — one byte of each plane word spread over the byte lanes of a
/// `u64` and shifted to its bit, planes 0–7 in one word, 8–15 in a second.
/// Integer addition commutes, so the result equals folding the `pending`
/// sign vectors one by one with [`fold_packed_signs`].
pub fn settle_planes(planes: &[u64], pending: u32, counters: &mut [i64]) {
    let words = counters.len().div_ceil(64);
    if words == 0 {
        return;
    }
    assert_eq!(planes.len() % words, 0, "planes are not word-major");
    let depth = planes.len() / words;
    assert!(
        depth <= SETTLE_PLANES_MAX,
        "more planes than two byte lanes"
    );
    let n = i64::from(pending);
    let mut column = [0u64; SETTLE_PLANES_MAX];
    for (w, chunk) in counters.chunks_mut(64).enumerate() {
        for (slot, plane) in column.iter_mut().zip(planes.chunks_exact(words)) {
            *slot = plane[w];
        }
        let (low, high) = column[..depth].split_at(depth.min(8));
        for (q, block) in chunk.chunks_mut(8).enumerate() {
            // Byte lane `l`: bit `p` is copy `8q + l`'s bit in plane `p` of
            // the half.
            let lanes_of = |half: &[u64]| {
                let spread = half.iter().enumerate().fold(0u64, |acc, (p, &word)| {
                    acc | BYTE_SPREAD[((word >> (8 * q)) & 0xFF) as usize] << p
                });
                spread.to_le_bytes()
            };
            let (lo, hi) = (lanes_of(low), lanes_of(high));
            for ((cnt, &l), &h) in block.iter_mut().zip(&lo).zip(&hi) {
                *cnt += n - 2 * (i64::from(l) | i64::from(h) << 8);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Order-free signed sums over integer-valued rows.
// ---------------------------------------------------------------------------

/// Independent accumulators of [`signed_sum`]: four registers of
/// [`LANES`], enough to hide the latency of a floating-point add.
const SUM_ACCS: usize = 4 * LANES;

/// `v` with its sign flipped where packed sign bit `pos` is set.
#[inline(always)]
fn flipped(words: &[u64], pos: usize, v: f64) -> f64 {
    f64::from_bits(v.to_bits() ^ (((words[pos / 64] >> (pos % 64)) & 1) << 63))
}

/// Whether every signed sum over `row` is exact in any order:
/// `Σ_c |row[c]| < 2^53`. For integer-valued entries (products of
/// counters) that bounds every partial sum of `Σ_c ±row[c]`, under any
/// association, by an exactly representable integer, so no add rounds.
/// `false` for any non-finite entry.
///
/// The test sums in sixteen accumulators, and its verdict is the
/// serial sum's: the terms are non-negative integers, so while a partial
/// sum — of any subset, in any order — stays below `2^53` it is exact, and
/// once one reaches `2^53` it cannot come back down, because
/// round-to-nearest is monotone and `2^53` is representable. The total
/// therefore reads below `2^53` exactly when the true sum is.
pub fn sum_is_exact(row: &[f64]) -> bool {
    let mut acc = [0.0f64; SUM_ACCS];
    let mut blocks = row.chunks_exact(SUM_ACCS);
    for block in &mut blocks {
        for (a, v) in acc.iter_mut().zip(block) {
            *a += v.abs();
        }
    }
    for (a, v) in acc.iter_mut().zip(blocks.remainder()) {
        *a += v.abs();
    }
    acc.iter().sum::<f64>() < EXACT_LIMIT
}

/// `Σ_j ±vals[j]` with the sign of `vals[j]` taken from packed sign bit
/// `first + j`, summed in sixteen independent accumulators: the values up
/// to the next multiple of sixteen sign bits go to accumulators `0, 1, …`
/// (so that no later block straddles a sign word), and from there value
/// `j` goes to accumulator `j mod 16`. Every accumulator starts from −0.0
/// like `Iterator::sum`, so a zero total is −0.0 exactly when every term
/// is −0.0 — in this order or the serial one. All forms keep this
/// assignment, so they agree bit for bit on every input; the *serial* sum
/// is matched only on rows [`sum_is_exact`] accepts.
pub fn signed_sum(words: &[u64], first: usize, vals: &[f64]) -> f64 {
    check_sign_shape(words, first + vals.len(), "values");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::signed_sum(words, first, vals);
    }
    lanes::signed_sum(words, first, vals)
}

/// The frozen productivity query in one pass: appends to `groups`, for
/// each of the `s2` groups of `s1` consecutive `row` values, the sum of
/// the group's values under the packed signs ([`signed_sum`]) — what
/// [`signed_copy`] + [`group_sums`] compute, without the intermediate
/// buffer and without the serial add chain.
///
/// Bit-identical to that pair **only for rows [`sum_is_exact`] accepts**;
/// the caller checks the row once when it builds it and runs the serial
/// pair otherwise.
pub fn signed_group_sums(words: &[u64], row: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
    assert!(s1 > 0, "groups must hold at least one copy");
    check_group_shape(row, s1, s2);
    groups.extend(
        row.chunks_exact(s1)
            .enumerate()
            .map(|(g, vals)| signed_sum(words, g * s1, vals)),
    );
}

// ---------------------------------------------------------------------------
// Scalar reference path.
// ---------------------------------------------------------------------------

/// The one-element-per-iteration reference implementations the
/// equivalence suite and benches compare the shipped path against. Shape
/// guards live in the entry points; these assume validated inputs.
pub mod scalar {
    use super::{flipped, COUNTER_LIMIT, EXACT_LIMIT, SUM_ACCS};

    /// Scalar [`super::fold_packed_signs`].
    pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            for (b, cnt) in chunk.iter_mut().enumerate() {
                *cnt += 1 - 2 * ((w >> b) & 1) as i64;
            }
        }
    }

    /// Scalar [`super::column_products`].
    pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
        out.fill(1.0);
        for (k, row) in buf.chunks_exact(copies).enumerate() {
            if k == exclude {
                continue;
            }
            for (o, &v) in out.iter_mut().zip(row) {
                *o *= v as f64;
            }
        }
    }

    /// Scalar [`super::multiply_row`].
    #[inline]
    pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
        for (o, &v) in acc.iter_mut().zip(row) {
            *o *= v as f64;
        }
    }

    /// Scalar [`super::apply_packed_signs`].
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = f64::from_bits(v.to_bits() ^ (((w >> b) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::product2_signed`].
    pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
        for (((o_chunk, a_chunk), b_chunk), &w) in out
            .chunks_mut(64)
            .zip(a.chunks(64))
            .zip(b.chunks(64))
            .zip(words)
        {
            for (bit, ((o, &x), &y)) in o_chunk.iter_mut().zip(a_chunk).zip(b_chunk).enumerate() {
                let p = (x as f64) * (y as f64);
                *o = f64::from_bits(p.to_bits() ^ (((w >> bit) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::signed_copy`].
    pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
        for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
            for ((b, d), &s) in chunk.iter_mut().enumerate().zip(s_chunk) {
                *d = f64::from_bits(s.to_bits() ^ (((w >> b) & 1) << 63));
            }
        }
    }

    /// Scalar [`super::group_sums`]: one serial sum per group, groups in
    /// ascending order.
    pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
        for g in 0..s2 {
            let sum: f64 = per_copy[g * s1..(g + 1) * s1].iter().sum();
            groups.push(sum);
        }
    }

    /// Scalar [`super::signed_sum`]: one value per step into the
    /// accumulator its position assigns it.
    pub fn signed_sum(words: &[u64], first: usize, vals: &[f64]) -> f64 {
        let mut acc = [-0.0f64; SUM_ACCS];
        let head = (first.wrapping_neg() % SUM_ACCS).min(vals.len());
        for (j, &v) in vals.iter().enumerate() {
            let slot = if j < head { j } else { (j - head) % SUM_ACCS };
            acc[slot] += flipped(words, first + j, v);
        }
        acc.iter().fold(-0.0, |sum, &a| sum + a)
    }

    /// Scalar [`super::product2_signed_sum`], as its contract reads: the
    /// guards one by one, then [`product2_signed`] and a serial sum.
    pub fn product2_signed_sum(a: &[i64], b: &[i64], words: &[u64]) -> Option<f64> {
        if a.iter().chain(b).any(|x| x.unsigned_abs() >= COUNTER_LIMIT) {
            return None;
        }
        let mut signed = vec![0.0f64; a.len()];
        product2_signed(a, b, words, &mut signed);
        let magnitude: f64 = signed.iter().map(|p| p.abs()).sum();
        (magnitude < EXACT_LIMIT).then(|| signed.iter().sum())
    }
}

// ---------------------------------------------------------------------------
// Portable lane path.
// ---------------------------------------------------------------------------

/// Fixed-width lane implementations on stable Rust: [`super::LANES`]-wide
/// blocks via `chunks_exact` with a scalar tail, shaped so the compiler
/// keeps each block in one vector register. Bit-identical to [`scalar`]
/// because every block computes the same per-index operation sequence;
/// only the interleaving across independent indexes changes.
pub mod lanes {
    use super::{flipped, LANES, SUM_ACCS};

    /// `SIGN_MASKS[n][l]` = bit `l` of the nibble `n`, moved to the sign
    /// bit of lane `l`: four packed sign bits expand to four lanes of
    /// `{0, 1 << 63}` with one 32-byte load.
    const SIGN_MASKS: [[u64; LANES]; 16] = {
        let mut table = [[0u64; LANES]; 16];
        let mut n = 0;
        while n < 16 {
            let mut l = 0;
            while l < LANES {
                table[n][l] = ((n as u64 >> l) & 1) << 63;
                l += 1;
            }
            n += 1;
        }
        table
    };

    /// Lane [`super::fold_packed_signs`]: [`LANES`] counters per step,
    /// sign bits expanded in-register order.
    pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                for (l, cnt) in block.iter_mut().enumerate() {
                    *cnt += 1 - 2 * ((w >> (base + l as u32)) & 1) as i64;
                }
                base += LANES as u32;
            }
            for (b, cnt) in blocks.into_remainder().iter_mut().enumerate() {
                *cnt += 1 - 2 * ((w >> (base + b as u32)) & 1) as i64;
            }
        }
    }

    /// Lane [`super::column_products`]: the per-copy running products of a
    /// [`LANES`]-block live in one register across the stream sweep; each
    /// copy still multiplies streams in ascending order from 1.0.
    pub fn column_products(buf: &[i64], copies: usize, exclude: usize, out: &mut [f64]) {
        out.fill(1.0);
        for (k, row) in buf.chunks_exact(copies).enumerate() {
            if k == exclude {
                continue;
            }
            multiply_row(out, row);
        }
    }

    /// Lane [`super::multiply_row`].
    #[inline]
    pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
        let mut blocks = acc.chunks_exact_mut(LANES);
        let mut rows = row.chunks_exact(LANES);
        for (block, r) in (&mut blocks).zip(&mut rows) {
            for (o, &v) in block.iter_mut().zip(r) {
                *o *= v as f64;
            }
        }
        for (o, &v) in blocks
            .into_remainder()
            .iter_mut()
            .zip(rows.remainder())
        {
            *o *= v as f64;
        }
    }

    /// Lane [`super::apply_packed_signs`]: XORs a 4-bit slice of the sign
    /// word into the sign bits of [`LANES`] values per step.
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                for (l, v) in block.iter_mut().enumerate() {
                    *v = f64::from_bits(v.to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for (b, v) in blocks.into_remainder().iter_mut().enumerate() {
                *v = f64::from_bits(v.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    /// Lane [`super::product2_signed`].
    pub fn product2_signed(a: &[i64], b: &[i64], words: &[u64], out: &mut [f64]) {
        for (((o_chunk, a_chunk), b_chunk), &w) in out
            .chunks_mut(64)
            .zip(a.chunks(64))
            .zip(b.chunks(64))
            .zip(words)
        {
            let mut o_blocks = o_chunk.chunks_exact_mut(LANES);
            let mut a_blocks = a_chunk.chunks_exact(LANES);
            let mut b_blocks = b_chunk.chunks_exact(LANES);
            let mut base = 0u32;
            for ((o, xa), xb) in (&mut o_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
                for l in 0..LANES {
                    let p = (xa[l] as f64) * (xb[l] as f64);
                    o[l] = f64::from_bits(p.to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for (bit, ((o, &x), &y)) in o_blocks
                .into_remainder()
                .iter_mut()
                .zip(a_blocks.remainder())
                .zip(b_blocks.remainder())
                .enumerate()
            {
                let p = (x as f64) * (y as f64);
                *o = f64::from_bits(p.to_bits() ^ (((w >> (base + bit as u32)) & 1) << 63));
            }
        }
    }

    /// Lane [`super::signed_copy`].
    pub fn signed_copy(words: &[u64], src: &[f64], dst: &mut [f64]) {
        for ((chunk, s_chunk), &w) in dst.chunks_mut(64).zip(src.chunks(64)).zip(words) {
            let mut d_blocks = chunk.chunks_exact_mut(LANES);
            let mut s_blocks = s_chunk.chunks_exact(LANES);
            let mut base = 0u32;
            for (d, s) in (&mut d_blocks).zip(&mut s_blocks) {
                for l in 0..LANES {
                    d[l] = f64::from_bits(s[l].to_bits() ^ (((w >> (base + l as u32)) & 1) << 63));
                }
                base += LANES as u32;
            }
            for ((b, d), &s) in d_blocks
                .into_remainder()
                .iter_mut()
                .enumerate()
                .zip(s_blocks.remainder())
            {
                *d = f64::from_bits(s.to_bits() ^ (((w >> (base + b as u32)) & 1) << 63));
            }
        }
    }

    /// Lane [`super::signed_sum`]: sixteen values per step, a nibble of
    /// sign bits per [`LANES`]-block through the `SIGN_MASKS` table.
    pub fn signed_sum(words: &[u64], first: usize, vals: &[f64]) -> f64 {
        let mut acc = [-0.0f64; SUM_ACCS];
        let head = (first.wrapping_neg() % SUM_ACCS).min(vals.len());
        let (head_vals, body) = vals.split_at(head);
        for (j, (a, &v)) in acc.iter_mut().zip(head_vals).enumerate() {
            *a += flipped(words, first + j, v);
        }
        let mut pos = first + head;
        let mut blocks = body.chunks_exact(SUM_ACCS);
        for block in &mut blocks {
            let bits = words[pos / 64] >> (pos % 64);
            for (q, (accs, vs)) in acc
                .chunks_exact_mut(LANES)
                .zip(block.chunks_exact(LANES))
                .enumerate()
            {
                let mask = &SIGN_MASKS[((bits >> (LANES * q)) & 15) as usize];
                for ((a, &v), &m) in accs.iter_mut().zip(vs).zip(mask) {
                    *a += f64::from_bits(v.to_bits() ^ m);
                }
            }
            pos += SUM_ACCS;
        }
        for (j, (a, &v)) in acc.iter_mut().zip(blocks.remainder()).enumerate() {
            *a += flipped(words, pos + j, v);
        }
        acc.iter().fold(-0.0, |sum, &a| sum + a)
    }

    // The four-way zip in [`group_sums`] spells the lanes out by hand.
    const _LANES_IS_FOUR: () = assert!(LANES == 4);

    /// Lane [`super::group_sums`]: [`LANES`] *independent groups* advance
    /// together, each keeping its own strictly serial accumulator — lane
    /// parallelism across groups, never inside one, so every group's sum
    /// is bit-identical to the scalar serial fold.
    pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
        let mut g = 0usize;
        while g + LANES <= s2 {
            // Four bounds-checked row slices up front; the inner loop then
            // walks them in lockstep through zips, which elide per-element
            // bounds checks and leave four independent add chains for the
            // CPU to run in parallel.
            let rest = &per_copy[g * s1..];
            let (r0, rest) = rest.split_at(s1);
            let (r1, rest) = rest.split_at(s1);
            let (r2, rest) = rest.split_at(s1);
            let r3 = &rest[..s1];
            // -0.0, not +0.0: `Iterator::sum::<f64>` folds from -0.0 (the
            // additive identity that preserves the sign of a -0.0-only
            // group), and the scalar path inherits that. +0.0 here would
            // flip the sign bit of all-negative-zero groups.
            let mut acc = [-0.0f64; LANES];
            for (((&x0, &x1), &x2), &x3) in r0.iter().zip(r1).zip(r2).zip(r3) {
                acc[0] += x0;
                acc[1] += x1;
                acc[2] += x2;
                acc[3] += x3;
            }
            groups.extend_from_slice(&acc);
            g += LANES;
        }
        for tail in g..s2 {
            let sum: f64 = per_copy[tail * s1..(tail + 1) * s1].iter().sum();
            groups.push(sum);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 specializations (x86_64 only).
// ---------------------------------------------------------------------------

/// AVX2 `std::arch` specializations of the loops an arrival pays: the sign
/// fold and sign application (pure integer / bit operations, exact for
/// every input), the sixteen-accumulator signed sum (the accumulator
/// assignment of [`scalar::signed_sum`], four accumulators to a register)
/// and the fused first-epoch product-and-sum, which has no portable form.
/// Packed sign bits expand to a `{0, 1<<63}` lane mask in-register
/// (broadcast + variable shift). Only reached after
/// `is_x86_feature_detected!("avx2")` in the entry points.
///
/// This module is the one sanctioned `unsafe` island of the crate (see
/// the crate-level `deny(unsafe_code)`): the unsafety is the
/// `target_feature` calling contract, discharged by the runtime
/// detection, and unaligned vector loads and stores through pointers
/// taken from `chunks_exact` blocks of the width read or written. Vector
/// integer adds wrap where the scalar forms would trip an overflow check;
/// a counter is bounded by the tuples of its epoch, so neither happens.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::{flipped, COUNTER_LIMIT, EXACT_LIMIT, LANES, SUM_ACCS};
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_pd, _mm256_and_si256,
        _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_pd, _mm256_loadu_si256,
        _mm256_mul_pd, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi64x,
        _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_srlv_epi64,
        _mm256_storeu_pd, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_sub_pd, _mm256_testz_si256,
        _mm256_xor_pd,
    };

    /// Registers holding the [`SUM_ACCS`] accumulators.
    const REGS: usize = SUM_ACCS / LANES;

    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 kernels selected without avx2"
        );
    }

    /// The sign-flip masks of sixteen values from the low sixteen bits of
    /// `bits` (higher bits are ignored): mask `q` covers values
    /// `4q..4q + 4`. The left shift by 63 drops every bit but the lane's.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_masks16(bits: u64) -> [__m256d; REGS] {
        let bits = _mm256_set1_epi64x(bits as i64);
        let lane = _mm256_setr_epi64x(0, 1, 2, 3);
        let mut masks = [_mm256_castsi256_pd(bits); REGS];
        for (q, mask) in masks.iter_mut().enumerate() {
            let shifts = _mm256_add_epi64(lane, _mm256_set1_epi64x((LANES * q) as i64));
            *mask = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(_mm256_srlv_epi64(bits, shifts)));
        }
        masks
    }

    /// Splits off the sixteen-value blocks of `vals` whose sign bits —
    /// packed from position `pos`, a multiple of sixteen — sit in one sign
    /// word: `(that word shifted down to the first block's bits, the
    /// blocks, the rest)`. The next block's bits are sixteen further up.
    #[inline]
    fn blocks_in_word<'a, T>(words: &[u64], pos: usize, vals: &'a [T]) -> (u64, &'a [T], &'a [T]) {
        let blocks = ((64 - pos % 64) / SUM_ACCS).min(vals.len() / SUM_ACCS);
        let (head, rest) = vals.split_at(blocks * SUM_ACCS);
        (words[pos / 64] >> (pos % 64), head, rest)
    }

    /// AVX2 body of [`fold_packed_signs`]: `counters` and `words` already
    /// shape-checked by the entry point.
    #[target_feature(enable = "avx2")]
    unsafe fn fold_packed_signs_impl(words: &[u64], counters: &mut [i64]) {
        let one = _mm256_set1_epi64x(1);
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            // Lane `l` holds `w >> l`; four bits are consumed per block.
            let mut bits =
                _mm256_srlv_epi64(_mm256_set1_epi64x(w as i64), _mm256_setr_epi64x(0, 1, 2, 3));
            let mut blocks = chunk.chunks_exact_mut(LANES);
            let mut base = 0u32;
            for block in &mut blocks {
                let neg = _mm256_and_si256(bits, one);
                let step = _mm256_sub_epi64(one, _mm256_add_epi64(neg, neg));
                let p = block.as_mut_ptr() as *mut __m256i;
                // SAFETY: `block` is exactly LANES counters wide.
                _mm256_storeu_si256(p, _mm256_add_epi64(_mm256_loadu_si256(p), step));
                bits = _mm256_srli_epi64::<4>(bits);
                base += LANES as u32;
            }
            for (b, cnt) in blocks.into_remainder().iter_mut().enumerate() {
                *cnt += 1 - 2 * ((w >> (base + b as u32)) & 1) as i64;
            }
        }
    }

    /// AVX2 [`super::fold_packed_signs`]. Panics if AVX2 is unavailable
    /// (the entry point only calls this after runtime detection).
    pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
        assert_avx2();
        // SAFETY: AVX2 presence asserted above.
        unsafe { fold_packed_signs_impl(words, counters) }
    }

    /// AVX2 body of [`apply_packed_signs`]: `vals` and `words` already
    /// shape-checked by the entry point.
    #[target_feature(enable = "avx2")]
    unsafe fn apply_packed_signs_impl(words: &[u64], vals: &mut [f64]) {
        for (chunk, &w) in vals.chunks_mut(64).zip(words) {
            let mut bits = w;
            for block in chunk.chunks_mut(SUM_ACCS) {
                let masks = sign_masks16(bits);
                let mut quads = block.chunks_exact_mut(LANES);
                let mut done = 0u32;
                for (quad, mask) in (&mut quads).zip(masks) {
                    let p = quad.as_mut_ptr();
                    // SAFETY: `quad` is exactly LANES values wide.
                    _mm256_storeu_pd(p, _mm256_xor_pd(_mm256_loadu_pd(p), mask));
                    done += LANES as u32;
                }
                for (b, v) in quads.into_remainder().iter_mut().enumerate() {
                    *v = f64::from_bits(v.to_bits() ^ (((bits >> (done + b as u32)) & 1) << 63));
                }
                bits >>= SUM_ACCS;
            }
        }
    }

    /// AVX2 [`super::apply_packed_signs`]. Panics if AVX2 is unavailable
    /// (the entry point only calls this after runtime detection).
    pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
        assert_avx2();
        // SAFETY: AVX2 presence asserted above.
        unsafe { apply_packed_signs_impl(words, vals) }
    }

    /// Loads the accumulator array into [`REGS`] registers.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_accs(acc: &[f64; SUM_ACCS]) -> [__m256d; REGS] {
        let mut regs = [_mm256_set1_pd(0.0); REGS];
        for (reg, lanes) in regs.iter_mut().zip(acc.chunks_exact(LANES)) {
            // SAFETY: `lanes` is exactly LANES values wide.
            *reg = _mm256_loadu_pd(lanes.as_ptr());
        }
        regs
    }

    /// Stores [`REGS`] registers back into the accumulator array.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_accs(regs: &[__m256d; REGS], acc: &mut [f64; SUM_ACCS]) {
        for (reg, lanes) in regs.iter().zip(acc.chunks_exact_mut(LANES)) {
            // SAFETY: `lanes` is exactly LANES values wide.
            _mm256_storeu_pd(lanes.as_mut_ptr(), *reg);
        }
    }

    /// AVX2 body of [`signed_sum`]: the head and the tail run as in
    /// [`super::lanes::signed_sum`], the sixteen-value blocks between them
    /// four registers at a time.
    #[target_feature(enable = "avx2")]
    unsafe fn signed_sum_impl(words: &[u64], first: usize, vals: &[f64]) -> f64 {
        let mut acc = [-0.0f64; SUM_ACCS];
        let head = (first.wrapping_neg() % SUM_ACCS).min(vals.len());
        let (head_vals, body) = vals.split_at(head);
        for (j, (a, &v)) in acc.iter_mut().zip(head_vals).enumerate() {
            *a += flipped(words, first + j, v);
        }
        let mut pos = first + head;
        let mut regs = load_accs(&acc);
        let mut rest = body;
        while rest.len() >= SUM_ACCS {
            let (mut bits, blocks, after) = blocks_in_word(words, pos, rest);
            for block in blocks.chunks_exact(SUM_ACCS) {
                let masks = sign_masks16(bits);
                for ((reg, vs), mask) in regs.iter_mut().zip(block.chunks_exact(LANES)).zip(masks) {
                    // SAFETY: `vs` is exactly LANES values wide.
                    let v = _mm256_loadu_pd(vs.as_ptr());
                    *reg = _mm256_add_pd(*reg, _mm256_xor_pd(v, mask));
                }
                bits >>= SUM_ACCS;
            }
            pos += blocks.len();
            rest = after;
        }
        store_accs(&regs, &mut acc);
        for (j, (a, &v)) in acc.iter_mut().zip(rest).enumerate() {
            *a += flipped(words, pos + j, v);
        }
        acc.iter().fold(-0.0, |sum, &a| sum + a)
    }

    /// AVX2 [`super::signed_sum`]. Panics if AVX2 is unavailable (the
    /// entry point only calls this after runtime detection).
    pub fn signed_sum(words: &[u64], first: usize, vals: &[f64]) -> f64 {
        assert_avx2();
        // SAFETY: AVX2 presence asserted above.
        unsafe { signed_sum_impl(words, first, vals) }
    }

    /// `2^52 + 2^51`: added as an integer to the bits of this constant, a
    /// counter `x` in `(−2^51, 2^51)` lands in the mantissa without
    /// touching the exponent, so the sum read as a double is
    /// `2^52 + 2^51 + x`, and subtracting the constant leaves `x` — the
    /// same value as `x as f64`, +0.0 for zero included — with no
    /// `cvtsi2sd`.
    const MAGIC: f64 = ((1u64 << 52) + (1u64 << 51)) as f64;

    /// AVX2 body of [`product2_signed_sum`]: shapes already checked.
    #[target_feature(enable = "avx2")]
    unsafe fn product2_signed_sum_impl(a: &[i64], b: &[i64], words: &[u64]) -> Option<f64> {
        let magic_bits = _mm256_set1_epi64x(MAGIC.to_bits() as i64);
        let magic = _mm256_set1_pd(MAGIC);
        let abs = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        // `|x| < 2^51` as one signed compare: `x + 2^51 − 1` lies in
        // `0..=2^52 − 2` as an unsigned number, and adding `i64::MIN` to
        // both sides turns the unsigned comparison into a signed one.
        let limit = COUNTER_LIMIT as i64;
        let shift = _mm256_set1_epi64x(i64::MIN + (limit - 1));
        let ceiling = _mm256_set1_epi64x(i64::MIN + (2 * limit - 2));
        let mut out_of_range = _mm256_setzero_si256();
        let mut sums = [_mm256_set1_pd(-0.0); REGS];
        let mut magnitudes = _mm256_set1_pd(0.0);

        let (mut rest_a, mut rest_b) = (a, b);
        let mut pos = 0;
        while rest_a.len() >= SUM_ACCS {
            let (mut bits, blocks_a, after_a) = blocks_in_word(words, pos, rest_a);
            let (blocks_b, after_b) = rest_b.split_at(blocks_a.len());
            for (xa, xb) in blocks_a
                .chunks_exact(SUM_ACCS)
                .zip(blocks_b.chunks_exact(SUM_ACCS))
            {
                let masks = sign_masks16(bits);
                for (q, mask) in masks.into_iter().enumerate() {
                    // SAFETY: `xa` and `xb` are SUM_ACCS = REGS·LANES counters
                    // wide and `q < REGS`, so LANES counters follow the offset.
                    let va = _mm256_loadu_si256(xa.as_ptr().add(LANES * q) as *const __m256i);
                    let vb = _mm256_loadu_si256(xb.as_ptr().add(LANES * q) as *const __m256i);
                    let over_a = _mm256_cmpgt_epi64(_mm256_add_epi64(va, shift), ceiling);
                    let over_b = _mm256_cmpgt_epi64(_mm256_add_epi64(vb, shift), ceiling);
                    out_of_range = _mm256_or_si256(out_of_range, _mm256_or_si256(over_a, over_b));
                    let da =
                        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(va, magic_bits)), magic);
                    let db =
                        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(vb, magic_bits)), magic);
                    let product = _mm256_mul_pd(da, db);
                    sums[q] = _mm256_add_pd(sums[q], _mm256_xor_pd(product, mask));
                    magnitudes = _mm256_add_pd(magnitudes, _mm256_and_pd(product, abs));
                }
                bits >>= SUM_ACCS;
            }
            pos += blocks_a.len();
            (rest_a, rest_b) = (after_a, after_b);
        }
        let mut acc = [-0.0f64; SUM_ACCS];
        let mut magnitude = [0.0f64; LANES];
        store_accs(&sums, &mut acc);
        // SAFETY: `magnitude` is exactly LANES values wide.
        _mm256_storeu_pd(magnitude.as_mut_ptr(), magnitudes);
        let mut tail_in_range = true;
        for (j, (&x, &y)) in rest_a.iter().zip(rest_b).enumerate() {
            tail_in_range &= x.unsigned_abs().max(y.unsigned_abs()) < COUNTER_LIMIT;
            let product = x as f64 * y as f64;
            acc[j] += flipped(words, pos + j, product);
            magnitude[j % LANES] += product.abs();
        }
        // An out-of-range lane converted to garbage; it is discarded here.
        let exact = tail_in_range
            && _mm256_testz_si256(out_of_range, out_of_range) == 1
            && magnitude.iter().sum::<f64>() < EXACT_LIMIT;
        exact.then(|| acc.iter().fold(-0.0, |sum, &a| sum + a))
    }

    /// AVX2 [`super::product2_signed_sum`]. Panics if AVX2 is unavailable
    /// (the entry point only calls this after runtime detection).
    pub fn product2_signed_sum(a: &[i64], b: &[i64], words: &[u64]) -> Option<f64> {
        assert_avx2();
        // SAFETY: AVX2 presence asserted above.
        unsafe { product2_signed_sum_impl(a, b, words) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_adds_signed_units() {
        let mut counters = vec![0i64; 70];
        // Copies 0 and 65 negative, everything else positive.
        let words = [1u64, 1 << 1];
        fold_packed_signs(&words, &mut counters);
        assert_eq!(counters[0], -1);
        assert_eq!(counters[1], 1);
        assert_eq!(counters[64], 1);
        assert_eq!(counters[65], -1);
        assert_eq!(counters.iter().sum::<i64>(), 70 - 4);
        fold_packed_signs(&words, &mut counters);
        assert_eq!(counters[0], -2);
        assert_eq!(counters[69], 2);
    }

    #[test]
    fn column_products_exclude_and_full() {
        // 3 streams × 2 copies, stream-major.
        let buf = [2i64, 3, 5, 7, -1, 10];
        let mut out = [0.0f64; 2];
        column_products(&buf, 2, usize::MAX, &mut out);
        assert_eq!(out, [-(2.0 * 5.0), 3.0 * 7.0 * 10.0]);
        column_products(&buf, 2, 1, &mut out);
        assert_eq!(out, [-2.0, 3.0 * 10.0]);
        column_products(&buf, 2, 0, &mut out);
        assert_eq!(out, [-5.0, 7.0 * 10.0]);
    }

    #[test]
    fn multiply_row_accumulates() {
        let mut acc = [1.0f64, -2.0];
        multiply_row(&mut acc, &[3, 4]);
        assert_eq!(acc, [3.0, -8.0]);
    }

    #[test]
    fn apply_and_signed_copy_agree() {
        let words = [0b1010u64];
        let src = [1.5f64, 2.5, 0.0, -4.0];
        let mut a = src;
        apply_packed_signs(&words, &mut a);
        let mut b = [0.0f64; 4];
        signed_copy(&words, &src, &mut b);
        assert_eq!(a, [1.5, -2.5, 0.0, 4.0]);
        assert_eq!(a, b);
        // Negative zero round-trips exactly.
        let mut z = [0.0f64];
        apply_packed_signs(&[1], &mut z);
        assert!(z[0] == 0.0 && z[0].is_sign_negative());
    }

    #[test]
    fn product2_matches_unfused_path() {
        // 70 copies to cross a word boundary; values include zero and
        // negatives so sign handling of every magnitude is exercised.
        let a: Vec<i64> = (0..70).map(|i| i - 35).collect();
        let b: Vec<i64> = (0..70).map(|i| 2 * i - 11).collect();
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_0F0F_0F0F_0F0F];
        let mut unfused = vec![1.0f64; 70];
        multiply_row(&mut unfused, &a);
        multiply_row(&mut unfused, &b);
        apply_packed_signs(&words, &mut unfused);
        let mut fused = vec![0.0f64; 70];
        product2_signed(&a, &b, &words, &mut fused);
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            unfused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fused pass must be bit-identical (negative zero included)"
        );
    }

    #[test]
    fn planes_settle_like_one_fold_per_update() {
        // 70 copies (a ragged second word), three planes: seven updates is
        // the most they hold.
        let mut planes = vec![0u64; 3 * 2];
        let mut eager: Vec<i64> = (0..70).map(|i| 100 - 3 * i).collect();
        let mut counters = eager.clone();
        for i in 0..7u64 {
            let words = [
                0xDEAD_BEEF_0123_4567u64.rotate_left(9 * i as u32),
                (0x2Fu64 << i) & 0x3F,
            ];
            scalar::fold_packed_signs(&words, &mut eager);
            let mut carry = words;
            add_sign_planes(&mut carry, &mut planes);
            assert_eq!(carry, [0, 0], "the carry is consumed");
        }
        settle_planes(&planes, 7, &mut counters);
        assert_eq!(counters, eager);
        // One pending update in one plane is the plain fold.
        let words = [5u64, 1];
        let mut a = eager.clone();
        fold_packed_signs(&words, &mut a);
        settle_planes(&words, 1, &mut eager);
        assert_eq!(a, eager);
    }

    #[test]
    fn a_block_adds_like_its_vectors_one_by_one() {
        // Eleven vectors over 70 copies: one full block, then three held
        // vectors flushed zero-padded — against a plane add per vector.
        let vector = |i: u64| {
            [
                0xDEAD_BEEF_0123_4567u64.rotate_left(7 * i as u32),
                0x3F >> (i % 4),
            ]
        };
        let mut planes = vec![0u64; 5 * 2];
        let mut want = planes.clone();
        for burst in [0..8u64, 8..11] {
            let mut block = [0u64; BLOCK * 2];
            for (slot, i) in burst.enumerate() {
                block[2 * slot..2 * slot + 2].copy_from_slice(&vector(i));
                add_sign_planes(&mut vector(i), &mut want);
            }
            add_sign_block(&mut block, &mut planes);
            assert_eq!(block, [0; BLOCK * 2], "the block is consumed");
            assert_eq!(planes, want);
        }
        // Counts past 255 reach the second byte lane of the settle.
        let mut deep = vec![0u64; 10 * 2];
        for _ in 0..40 {
            let mut block = [u64::MAX; BLOCK * 2];
            add_sign_block(&mut block, &mut deep);
        }
        let mut counters = vec![7i64; 70];
        settle_planes(&deep, 320, &mut counters);
        assert_eq!(counters, vec![7 - 320; 70]);
    }

    #[test]
    #[should_panic(expected = "vertical counter overflow")]
    fn a_block_refuses_to_carry_out_of_the_top() {
        // Three planes hold seven; a block of eight −1 signs carries out.
        let mut planes = vec![0u64; 3];
        add_sign_block(&mut [1; BLOCK], &mut planes);
    }

    #[test]
    fn fused_first_epoch_sum_answers_inside_its_guards_only() {
        let a: Vec<i64> = (0..70).map(|i| i - 35).collect();
        let b: Vec<i64> = (0..70).map(|i| 2 * i - 11).collect();
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_0F0F_0F0F_0F0F];
        let mut signed = vec![0.0f64; 70];
        product2_signed(&a, &b, &words, &mut signed);
        let serial: f64 = signed.iter().sum();
        assert_eq!(scalar::product2_signed_sum(&a, &b, &words), Some(serial));
        // The dispatched form is the reference with AVX2 and declines
        // without; either way the caller ends with the serial bits.
        let fused = product2_signed_sum(&a, &b, &words);
        assert_eq!(fused.unwrap_or(serial).to_bits(), serial.to_bits());
        let mut big = a.clone();
        big[3] = 1 << 51;
        assert_eq!(scalar::product2_signed_sum(&big, &b, &words), None);
        assert_eq!(product2_signed_sum(&big, &b, &words), None);
    }

    #[test]
    #[should_panic(expected = "vertical counter overflow")]
    fn planes_refuse_to_carry_out_of_the_top() {
        let mut planes = vec![0u64; 2];
        for _ in 0..4 {
            add_sign_planes(&mut [1], &mut planes);
        }
    }

    #[test]
    #[should_panic(expected = "fewer packed sign bits")]
    fn fold_rejects_short_words() {
        let mut counters = vec![0i64; 65];
        fold_packed_signs(&[0], &mut counters);
    }

    #[test]
    fn fold_accepts_empty_counters_with_no_words() {
        // Regression: the old chunked loop indexed `words[w_idx]` by
        // position; the zip form cannot touch `words` when there is no
        // counter chunk to fold into.
        let mut counters: Vec<i64> = Vec::new();
        fold_packed_signs(&[], &mut counters);
        fold_packed_signs(&[0xFFFF_FFFF_FFFF_FFFF], &mut counters);
        assert!(counters.is_empty());
    }

    #[test]
    fn column_products_zero_copies_is_empty_noop() {
        // Regression: `copies == 0` used to reach `chunks_exact(0)` and
        // panic with an unrelated message; now it is an explicit no-op for
        // empty buffers only.
        let mut out: Vec<f64> = Vec::new();
        column_products(&[], 0, usize::MAX, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero copies with non-empty buffers")]
    fn column_products_zero_copies_rejects_data() {
        // Regression: the old `copies.max(1)` modulo guard silently
        // accepted this mis-shaped buffer.
        let mut out = [0.0f64; 2];
        column_products(&[1, 2, 3], 0, usize::MAX, &mut out);
    }

    #[test]
    #[should_panic(expected = "buffer is not stream-major")]
    fn column_products_rejects_ragged_buffer() {
        let mut out = [0.0f64; 2];
        column_products(&[1, 2, 3], 2, usize::MAX, &mut out);
    }

    #[test]
    fn group_sums_keeps_serial_order_in_every_mode() {
        // Adversarial magnitudes where fold order is observable: a tree
        // reduction of [1e16, 1.0, -1e16, 1.0] gives 2.0, the serial fold
        // gives 1.0. Both lane and scalar forms must produce the serial
        // answer for every group.
        let per_copy: Vec<f64> = (0..6 * 4)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        for groups_impl in [scalar::group_sums, lanes::group_sums] {
            let mut groups = Vec::new();
            groups_impl(&per_copy, 4, 6, &mut groups);
            assert_eq!(groups, vec![1.0; 6], "serial in-group fold order");
        }
        let mut dispatched = Vec::new();
        group_sums(&per_copy, 4, 6, &mut dispatched);
        assert_eq!(dispatched, vec![1.0; 6]);
    }

}
