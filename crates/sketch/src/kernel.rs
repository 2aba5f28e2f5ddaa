//! Flat, branch-light kernels over the SoA sketch state, **bit-identical**
//! to the legacy per-copy fold by construction. Each kernel has one
//! portable body. The three an arrival pays on every call —
//! [`fold_packed_signs`], [`signed_sum`] and [`signed_product_sum`] — also
//! have an AVX2 form on `x86_64`; their portable body lives in [`scalar`],
//! which is also the reference the equivalence suite holds the AVX2 form
//! to.
//!
//! Every function here works on contiguous slices laid out *stream-major*:
//! the counters (or last-epoch snapshots) of stream `k` occupy
//! `buf[k * copies .. (k + 1) * copies]`, element `c` belonging to copy
//! `c`. The kernels iterate copy-innermost, and every floating-point
//! reduction folds in exactly the order the legacy AoS implementation used
//! — ascending stream index, left to right over copies — so estimates stay
//! bit-identical (multiplying by ±1 is an exact sign-bit flip and commutes
//! with everything else). The mean stage of median-of-means,
//! [`group_sums`], folds each group serially, because IEEE-754 addition is
//! not associative.
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
//! rests on the same argument. [`product_group_sums`] — the first-epoch
//! query — sums in `i64`, where order cannot show at all, and answers only
//! where its bounds prove the serial `f64` fold exact too.
//!
//! # Dispatch
//!
//! The top-level functions check shapes. Where the CPU reports AVX2,
//! [`fold_packed_signs`], [`signed_sum`] and [`signed_product_sum`] run
//! their [`avx2`] forms, elsewhere their [`scalar`] forms; the AVX2 forms
//! compute each output lane with the scalar form's operations, and the
//! signed sum keeps its accumulator assignment. Every other kernel has one
//! body.

use std::ops::Range;

/// Lanes of one 256-bit register of `f64` / `i64`.
const LANES: usize = 4;

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
    scalar::fold_packed_signs(words, counters)
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
    out.fill(1.0);
    for (k, row) in buf.chunks_exact(copies).enumerate() {
        if k != exclude {
            multiply_row(out, row);
        }
    }
}

/// Multiplies one stream-row of counters into an accumulator:
/// `acc[c] *= row[c]`. Used by the mixed last/current fallback path.
#[inline]
pub fn multiply_row(acc: &mut [f64], row: &[i64]) {
    for (o, &v) in acc.iter_mut().zip(row) {
        *o *= v as f64;
    }
}

/// Negates `vals[c]` wherever bit `c` of `words` is set (sign −1).
/// Exact: IEEE negation flips the sign bit only, which is how it is
/// implemented here — an unconditional XOR instead of a data-dependent
/// branch, because AGMS signs are pseudo-random and mispredict ~half the
/// time.
pub fn apply_packed_signs(words: &[u64], vals: &mut [f64]) {
    check_sign_shape(words, vals.len(), "values");
    for (chunk, &w) in vals.chunks_mut(64).zip(words) {
        for (b, v) in chunk.iter_mut().enumerate() {
            *v = f64::from_bits(v.to_bits() ^ (((w >> b) & 1) << 63));
        }
    }
}

/// The sum at and above which a row of integer-valued terms may round
/// while it is added up (`2^53`).
const EXACT_LIMIT: f64 = (1u64 << 53) as f64;

/// The mean stage of median-of-means: appends to `groups` the serial sum
/// of each of the `s2` groups of `s1` consecutive `per_copy` values
/// (group-major layout), groups in ascending order. The fold inside a
/// group stays strictly serial — f64 addition is not associative, so any
/// other order would change bits.
pub fn group_sums(per_copy: &[f64], s1: usize, s2: usize, groups: &mut Vec<f64>) {
    check_group_shape(per_copy, s1, s2);
    for g in 0..s2 {
        groups.push(per_copy[g * s1..(g + 1) * s1].iter().sum());
    }
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
    scalar::signed_sum(words, first, vals)
}

/// The frozen productivity query in one pass: appends to `groups`, for
/// each of the `s2` groups of `s1` consecutive `row` values, the sum of
/// the group's values under the packed signs ([`signed_sum`]) — what
/// [`apply_packed_signs`] + [`group_sums`] compute on a copy of the row,
/// without the copy and without the serial add chain.
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
// The first-epoch query in integers.
// ---------------------------------------------------------------------------

/// Factors at or above this magnitude leave [`product_group_sums`]:
/// `_mm256_mul_epi32` multiplies the signed low 32 bits of each lane.
const FACTOR_LIMIT: u64 = 1 << 31;

/// `Σ_{c ∈ copies} ±Π_k rows[k][c]` in `i64` over one or two partner
/// rows, the sign of copy `c` from packed sign bit `c`. Integer addition
/// commutes, so every form agrees with [`scalar::signed_product_sum`]; the
/// caller keeps each factor below `2^31` in magnitude (the AVX2 form
/// multiplies 32-bit halves) and the terms' magnitudes below `2^63`.
pub fn signed_product_sum(words: &[u64], rows: &[&[i64]], copies: Range<usize>) -> i64 {
    assert!(matches!(rows.len(), 1 | 2), "one or two partner rows");
    assert!(
        rows.iter().all(|row| copies.end <= row.len()),
        "copies past a row's end"
    );
    check_sign_shape(words, copies.end, "copies");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::signed_product_sum(words, rows, copies);
    }
    scalar::signed_product_sum(words, rows, copies)
}

/// The first-epoch productivity query in integers: appends to `groups`
/// each of the `s2` sums of `s1` copies of `±Π_k rows[k][c]`
/// ([`signed_product_sum`]) as `f64`, the bits of the serial fold
/// (`fill(1.0)`, [`multiply_row`] per partner, [`apply_packed_signs`],
/// [`group_sums`]), and returns `true` — where `bounds` (`|rows[k][c]| ≤
/// bounds[k]`) prove that fold exact: every bound below `2^31` and `s1 ·
/// Π_k bounds[k] < 2^53`, so every product and every partial sum is an
/// integer below `2^53` and nothing rounds. A zero sum is `-0.0` where
/// every term is: the fold starts at `-0.0` and, once a term is not
/// `-0.0`, can only come back to zero as `+0.0`. Outside the bounds it
/// returns `false`, `groups` untouched, and the caller runs the fold.
pub fn product_group_sums(
    words: &[u64],
    rows: &[&[i64]],
    bounds: &[u64],
    s1: usize,
    s2: usize,
    groups: &mut Vec<f64>,
) -> bool {
    assert_eq!(rows.len(), bounds.len(), "one bound per partner row");
    let mut scale = s1 as u64;
    for &bound in bounds {
        if bound >= FACTOR_LIMIT {
            return false;
        }
        scale = scale.saturating_mul(bound);
    }
    if scale >= 1 << 53 {
        return false;
    }
    groups.extend((0..s2).map(|g| {
        let copies = g * s1..(g + 1) * s1;
        match signed_product_sum(words, rows, copies.clone()) {
            0 if only_negative_zeros(words, rows, copies) => -0.0,
            sum => sum as f64,
        }
    }));
    true
}

/// Whether every term of the serial fold over `copies` is `-0.0`: a zero
/// factor, and the sign bit XOR the factors' signs (`0 as f64` is `+0.0`)
/// set. Mostly decided at the first copy.
fn only_negative_zeros(words: &[u64], rows: &[&[i64]], copies: Range<usize>) -> bool {
    copies.into_iter().all(|c| {
        let negative = rows.iter().filter(|row| row[c] < 0).count() % 2 == 1;
        let flipped = (words[c / 64] >> (c % 64)) & 1 == 1;
        rows.iter().any(|row| row[c] == 0) && negative != flipped
    })
}

// ---------------------------------------------------------------------------
// Portable forms of the AVX2 kernels.
// ---------------------------------------------------------------------------

/// The one-element-per-step forms of the kernels that also have an
/// [`avx2`] form: what the entry points run on a CPU without AVX2, and the
/// reference the equivalence suite and benches hold the AVX2 forms to.
/// Shape guards live in the entry points; these assume validated inputs.
pub mod scalar {
    use super::{flipped, SUM_ACCS};
    use std::ops::Range;

    /// Scalar [`super::fold_packed_signs`].
    pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            for (b, cnt) in chunk.iter_mut().enumerate() {
                *cnt += 1 - 2 * ((w >> b) & 1) as i64;
            }
        }
    }

    /// Scalar [`super::signed_sum`]: one value per step into the
    /// accumulator its position assigns it — the head one by one, then
    /// sixteen-value blocks whose sign bits sit in one word.
    pub fn signed_sum(words: &[u64], first: usize, vals: &[f64]) -> f64 {
        let mut acc = [-0.0f64; SUM_ACCS];
        let head = (first.wrapping_neg() % SUM_ACCS).min(vals.len());
        let (head_vals, body) = vals.split_at(head);
        for (j, (a, &v)) in acc.iter_mut().zip(head_vals).enumerate() {
            *a += flipped(words, first + j, v);
        }
        for (b, block) in body.chunks(SUM_ACCS).enumerate() {
            let pos = first + head + b * SUM_ACCS;
            let bits = words[pos / 64] >> (pos % 64);
            for (l, (a, &v)) in acc.iter_mut().zip(block).enumerate() {
                *a += f64::from_bits(v.to_bits() ^ (((bits >> l) & 1) << 63));
            }
        }
        acc.iter().fold(-0.0, |sum, &a| sum + a)
    }

    /// Scalar [`super::signed_product_sum`]: one copy per step.
    pub fn signed_product_sum(words: &[u64], rows: &[&[i64]], copies: Range<usize>) -> i64 {
        let sign = |c: usize| 1 - 2 * ((words[c / 64] >> (c % 64)) & 1) as i64;
        copies
            .map(|c| sign(c) * rows.iter().map(|row| row[c]).product::<i64>())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// AVX2 specializations (x86_64 only).
// ---------------------------------------------------------------------------

/// AVX2 `std::arch` forms of the three loops an arrival pays: the sign
/// fold (pure integer, exact for every input), the sixteen-accumulator
/// signed sum (the accumulator assignment of [`scalar::signed_sum`], four
/// accumulators to a register) and the first-epoch integer sum of one or
/// two partners' products.
/// Packed sign bits expand to a `{0, 1<<63}` lane mask in-register
/// (broadcast + variable shift) or, for the integer sum, to an all-ones
/// lane (broadcast, mask, compare). Only reached after
/// `is_x86_feature_detected!("avx2")` in the entry points.
///
/// This module is the one sanctioned `unsafe` island of the crate (see
/// the crate-level `deny(unsafe_code)`): the unsafety is the
/// `target_feature` calling contract, discharged by the runtime
/// detection, and unaligned vector loads and stores through pointers
/// taken from `chunks_exact` blocks of the width read or written. Vector
/// integer adds wrap where the scalar forms would trip an overflow check;
/// a counter is bounded by the tuples of its epoch, and the integer sum's
/// terms by the bounds its caller checks, so neither happens.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::{flipped, scalar, LANES, SUM_ACCS};
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_and_si256, _mm256_castsi256_pd,
        _mm256_cmpeq_epi64, _mm256_loadu_pd, _mm256_loadu_si256, _mm256_mul_epi32,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_srlv_epi64, _mm256_storeu_pd,
        _mm256_storeu_si256, _mm256_sub_epi64, _mm256_xor_pd, _mm256_xor_si256,
    };
    use std::ops::Range;

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

    /// AVX2 body of [`signed_sum`]: the head and the tail go one value at
    /// a time into the accumulators [`scalar::signed_sum`] assigns them,
    /// the sixteen-value blocks between them four registers at a time.
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

    /// AVX2 body of [`signed_product_sum`] over `a` (and `b`, when `TWO`;
    /// one partner passes its row twice), sixteen copies at a time from
    /// sign bit `first`, a multiple of sixteen. A lane product is
    /// `_mm256_mul_epi32` of the low halves, exact below `2^31`; the sign
    /// is `(p ^ m) − m` with `m` all ones where the bit is set.
    #[target_feature(enable = "avx2")]
    unsafe fn signed_product_sum_impl<const TWO: bool>(
        words: &[u64],
        first: usize,
        a: &[i64],
        b: &[i64],
    ) -> i64 {
        // Lane `l` of register `q` tests bit `4q + l` of a block's bits.
        let lane_bits: [__m256i; REGS] = std::array::from_fn(|q| {
            let q = LANES * q;
            _mm256_setr_epi64x(1 << q, 2 << q, 4 << q, 8 << q)
        });
        let mut accs = [_mm256_setzero_si256(); REGS];
        let (mut pos, mut rest_a, mut rest_b) = (first, a, b);
        while !rest_a.is_empty() {
            let (mut bits, blocks_a, after_a) = blocks_in_word(words, pos, rest_a);
            let (blocks_b, after_b) = rest_b.split_at(blocks_a.len());
            for (xa, xb) in blocks_a
                .chunks_exact(SUM_ACCS)
                .zip(blocks_b.chunks_exact(SUM_ACCS))
            {
                let word = _mm256_set1_epi64x(bits as i64);
                for (q, (acc, lane)) in accs.iter_mut().zip(lane_bits).enumerate() {
                    // SAFETY: `xa` and `xb` are SUM_ACCS = REGS·LANES copies
                    // wide and `q < REGS`, so LANES copies follow the offset.
                    let mut p = _mm256_loadu_si256(xa.as_ptr().add(LANES * q) as *const __m256i);
                    if TWO {
                        let vb = _mm256_loadu_si256(xb.as_ptr().add(LANES * q) as *const __m256i);
                        p = _mm256_mul_epi32(p, vb);
                    }
                    let m = _mm256_cmpeq_epi64(_mm256_and_si256(word, lane), lane);
                    *acc = _mm256_add_epi64(*acc, _mm256_sub_epi64(_mm256_xor_si256(p, m), m));
                }
                bits >>= SUM_ACCS;
            }
            pos += blocks_a.len();
            (rest_a, rest_b) = (after_a, after_b);
        }
        let mut lanes = [0i64; LANES];
        let mut sum = 0;
        for acc in accs {
            // SAFETY: `lanes` is exactly LANES copies wide.
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            sum += lanes.iter().sum::<i64>();
        }
        sum
    }

    /// AVX2 [`super::signed_product_sum`]: the copies before the first
    /// multiple of sixteen and the last fewer than sixteen through
    /// [`scalar::signed_product_sum`]. Panics if AVX2 is unavailable (the
    /// entry point only calls this after runtime detection).
    pub fn signed_product_sum(words: &[u64], rows: &[&[i64]], copies: Range<usize>) -> i64 {
        assert_avx2();
        let start = copies.start.next_multiple_of(SUM_ACCS).min(copies.end);
        let body = start..start + (copies.end - start) / SUM_ACCS * SUM_ACCS;
        let edges = scalar::signed_product_sum(words, rows, copies.start..body.start)
            + scalar::signed_product_sum(words, rows, body.end..copies.end);
        // SAFETY: AVX2 presence asserted above.
        edges
            + unsafe {
                match rows {
                    [a] => {
                        signed_product_sum_impl::<false>(words, start, &a[body.clone()], &a[body])
                    }
                    [a, b] => {
                        signed_product_sum_impl::<true>(words, start, &a[body.clone()], &b[body])
                    }
                    _ => panic!("one or two partner rows"),
                }
            }
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
    fn apply_packed_signs_flips_only_the_sign_bit() {
        let mut a = [1.5f64, 2.5, 0.0, -4.0];
        apply_packed_signs(&[0b1010], &mut a);
        assert_eq!(a, [1.5, -2.5, 0.0, 4.0]);
        // Negative zero round-trips exactly.
        let mut z = [0.0f64];
        apply_packed_signs(&[1], &mut z);
        assert!(z[0] == 0.0 && z[0].is_sign_negative());
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
        let answers = |bounds: [u64; 2], s1: usize| {
            let mut sums = Vec::new();
            product_group_sums(&words, &[&a, &b], &bounds, s1, 70 / s1, &mut sums)
        };
        assert!(answers([35, 129], 70));
        assert!(!answers([1 << 31, 129], 70));
        assert!(!answers([1 << 26, 1 << 26], 2));
        assert!(answers([(1 << 26) - 1, 1 << 26], 2));
        // A zero sum keeps the fold's zero: −0.0 where every term is.
        for (signs, zero) in [(0u64, 0.0f64), (u64::MAX, -0.0)] {
            let mut sums = Vec::new();
            assert!(product_group_sums(
                &[signs; 2],
                &[&[0; 70]],
                &[0],
                70,
                1,
                &mut sums
            ));
            assert_eq!(sums[0].to_bits(), zero.to_bits());
        }
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
        // gives 1.0 — for every group.
        let per_copy: Vec<f64> = (0..6 * 4)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        let mut groups = Vec::new();
        group_sums(&per_copy, 4, 6, &mut groups);
        assert_eq!(groups, vec![1.0; 6], "serial in-group fold order");
    }
}
