//! Flat, branch-light kernels over the SoA sketch state, **bit-identical**
//! to the legacy per-copy fold by construction. Each kernel has one
//! portable body. The three an arrival pays on every call —
//! [`fold_packed_signs`], [`sliced_sum`] and [`signed_product_sum`] — also
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
//! # The kernels that do reorder — in integers, where order cannot show
//!
//! [`add_sign_block`] / [`add_sign_planes`] / [`settle_planes`] defer the
//! counter fold: sign vectors accumulate in bit-sliced per-copy counters —
//! [`BLOCK`] at a time through a carry-save adder tree — and reach the
//! `i64` counters later, all at once. Integer addition is associative and
//! commutative, so the settled counters are the eagerly folded ones.
//! The two productivity queries sum in integers too, and answer only where
//! the serial `f64` fold they stand in for is exact: [`sliced_group_sums`]
//! — the frozen query — reads a cross row held as two's-complement
//! bit-planes ([`slice_row`]) with one popcount per plane and word, on
//! rows whose partial products and `Σ_c |x_c|` stay below
//! [`EXACT_LIMIT`]; [`product_group_sums`]
//! — the first-epoch query — multiplies its partners' counters in `i64`
//! inside bounds that make every product and partial sum exact.
//!
//! # Dispatch
//!
//! The top-level functions check shapes. Where the CPU reports AVX2,
//! [`fold_packed_signs`], [`sliced_sum`] and [`signed_product_sum`] run
//! their [`avx2`] forms, elsewhere their [`scalar`] forms; all three are
//! integer arithmetic, so the forms agree on every input. Every other
//! kernel has one body.

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
// The frozen query over bit-sliced rows.
// ---------------------------------------------------------------------------

/// The sum at and above which a row of integer-valued terms may round
/// while it is added up: a frozen row is sliced only while `Σ_c |x_c|`
/// stays below it.
pub const EXACT_LIMIT: u64 = 1 << 53;

/// Copies of one word of a bit-sliced row: [`slice_word`] transposes
/// that many values at once.
const WORD_COPIES: usize = 64;

/// The bits of sign word `w` that fall inside `copies` (non-empty, and
/// `w` one of the words it touches).
#[inline(always)]
fn word_mask(copies: &Range<usize>, w: usize) -> u64 {
    let lo = copies.start.saturating_sub(w * 64).min(64);
    let hi = (copies.end - w * 64).min(64);
    (u64::MAX >> (64 - (hi - lo))) << lo
}

/// The sign words a non-empty range of copies touches.
#[inline(always)]
fn touched_words(copies: &Range<usize>) -> Range<usize> {
    copies.start / 64..copies.end.div_ceil(64)
}

/// Transposes one word of a row into its low `depth` bit-planes: on entry
/// `block[j]` is the two's-complement value of copy `j` of the word, on
/// return bit `j` of `block[b]` is bit `b` of that value for every
/// `b < depth` (the rows at and past `depth` are left unspecified). Six
/// rounds of swapping ever smaller off-diagonal blocks; a round settles
/// one more bit of the row index, so from the second round on it skips
/// the blocks of rows that lie wholly at or past `depth`.
fn slice_word(block: &mut [u64; WORD_COPIES], depth: usize) {
    let mut width = WORD_COPIES / 2;
    let mut low = u64::MAX >> width;
    while width > 0 {
        let wanted = depth.min(WORD_COPIES).div_ceil(2 * width);
        for rows in block.chunks_exact_mut(2 * width).take(wanted) {
            let (upper, lower) = rows.split_at_mut(width);
            for (a, b) in upper.iter_mut().zip(lower) {
                let t = ((*a >> width) ^ *b) & low;
                *b ^= t;
                *a ^= t << width;
            }
        }
        width /= 2;
        low ^= low << width;
    }
}

/// `Σ x_c` over the copies `c` in `copies` whose bit is set in `signs`,
/// where the row `x` is held bit-sliced in `planes`: `B = planes.len() /
/// signs.len()` two's-complement planes of `signs.len()` words, bit `c %
/// 64` of word `c / 64` of plane `b` being bit `b` of `x_c`, plane `b`
/// weighing `2^b` and the top plane `−2^(B−1)`. One popcount per plane
/// and word, in wrapping `i64`: exact whenever the true sum fits, which a
/// row under [`EXACT_LIMIT`] guarantees. Any group shape: the edge words
/// of `copies` are masked mid-word.
pub fn sliced_sum(signs: &[u64], planes: &[u64], copies: Range<usize>) -> i64 {
    assert!(
        planes.is_empty() || (!signs.is_empty() && planes.len() % signs.len() == 0),
        "planes are not word-major"
    );
    check_sign_shape(signs, copies.end, "copies");
    if planes.is_empty() || copies.is_empty() {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        return avx2::sliced_sum(signs, planes, copies);
    }
    scalar::sliced_sum(signs, planes, copies)
}

/// A frozen cross row `x_c = Π_{k≠i} X_k^{last}[c]` bit-sliced: what
/// [`slice_row`] builds and [`sliced_group_sums`] reads. Its depth `B` is
/// its own two's-complement width — the least `B` with `−2^(B−1) ≤ x_c <
/// 2^(B−1)` for every copy, at most the bit length of `max_c |x_c|` plus a
/// sign bit; a row of zeros has `B = 0` and holds no planes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlicedRow {
    /// `B` two's-complement planes of `words_for(copies)` words: bit
    /// `c % 64` of word `c / 64` of plane `b` is bit `b` of `x_c`.
    pub planes: Vec<u64>,
    /// Bit `c` set where the serial `f64` product of copy `c` carries a
    /// sign bit (an odd number of negative factors; a zero factor is
    /// `+0.0`). It only decides the sign of an all-zero group's sum, so it
    /// is kept only for a row with an all-zero group, and only if some bit
    /// is set; empty reads all clear.
    pub negative: Vec<u64>,
    /// `Σ_{c ∈ g} x_c` per group `g`; empty when `B = 0`.
    pub totals: Vec<i64>,
}

/// Applies `step` to each partner row of the cross row that excludes
/// stream `exclude` from the stream-major `last`, cut to copies `first..
/// first + len` (`len <= 64`), folding into one word's 64 lanes.
#[inline]
fn fold_partners(
    last: &[i64],
    copies: usize,
    exclude: usize,
    (first, len): (usize, usize),
    init: i64,
    step: impl Fn(i64, i64) -> i64,
) -> [i64; WORD_COPIES] {
    let mut lanes = [init; WORD_COPIES];
    for (k, row) in last.chunks_exact(copies).enumerate() {
        if k != exclude {
            for (lane, &factor) in lanes.iter_mut().zip(&row[first..first + len]) {
                *lane = step(*lane, factor);
            }
        }
    }
    lanes
}

/// Copies `first..first + len` of word `w` of a row of `copies`.
fn word_span(w: usize, copies: usize) -> (usize, usize) {
    let first = w * WORD_COPIES;
    (first, WORD_COPIES.min(copies - first))
}

/// Builds into `row` the cross row that excludes stream `exclude` (pass
/// any index `>= n` to include all) from the stream-major counters `last`
/// of `s1 · s2` copies each, and returns `true` — where the guard holds:
/// every product fits (the partners' largest magnitudes multiply to below
/// [`EXACT_LIMIT`], so every partial product of the `f64` fold is an
/// exact integer) and `Σ_c |x_c| <` [`EXACT_LIMIT`], so that the serial
/// `f64` fold over the row ([`column_products`], [`apply_packed_signs`],
/// [`group_sums`]) is exact and [`sliced_group_sums`] returns its bits.
/// Outside the guard it returns `false` and leaves `row` empty.
///
/// One pass a word (64 copies) at a time: the terms, their magnitudes'
/// sum, the group totals, and the word transposed into bit-planes at the
/// depth the partners' largest magnitudes allow; the planes past the row's
/// own depth — copies of its sign plane — are truncated at the end. The
/// product-sign bits take a second pass over the partners' signs, only for
/// a row with an all-zero group, and are kept only if one is set. The
/// buffers keep their capacity and grow to the exact size.
pub fn slice_row(last: &[i64], exclude: usize, s1: usize, s2: usize, row: &mut SlicedRow) -> bool {
    let copies = s1 * s2;
    row.planes.clear();
    row.negative.clear();
    row.totals.clear();
    if copies == 0 {
        assert!(last.is_empty(), "zero copies with non-empty counters");
        return true;
    }
    assert_eq!(last.len() % copies, 0, "counters are not stream-major");
    let mut bound = 1u128;
    for (k, partner) in last.chunks_exact(copies).enumerate() {
        if k != exclude {
            let largest = partner.iter().fold(0, |m, x| m.max(x.unsigned_abs()));
            bound = bound.saturating_mul(u128::from(largest));
        }
    }
    if bound >= u128::from(EXACT_LIMIT) {
        return false;
    }
    let words = copies.div_ceil(WORD_COPIES);
    let room = match bound {
        0 => 0,
        _ => (u128::BITS - bound.leading_zeros()) as usize + 1,
    };
    // `spread` ORs `x ^ (x >> 63)`, `|x|` for `x >= 0` and `|x| − 1`
    // below: a row of width `B` in two's complement has it below `2^(B−1)`.
    let (mut sum, mut spread) = (0u64, 0u64);
    if room > 0 {
        resize_exact(&mut row.planes, room * words);
        resize_exact(&mut row.totals, s2);
        for w in 0..words {
            let (first, len) = word_span(w, copies);
            // Exact: the bound above keeps every partial product below 2^53.
            let values = fold_partners(last, copies, exclude, (first, len), 1, |p, f| p * f);
            let terms = &values[..len];
            for &x in terms {
                let sign = x >> 63;
                spread |= (x ^ sign) as u64;
                sum += ((x ^ sign) - sign) as u64;
            }
            if sum >= EXACT_LIMIT {
                row.planes.clear();
                row.totals.clear();
                return false;
            }
            let mut c = first;
            while c < first + len {
                let end = (c - c % s1 + s1).min(first + len);
                row.totals[c / s1] += terms[c - first..end - first].iter().sum::<i64>();
                c = end;
            }
            let mut block = values.map(|x| x as u64);
            block[len..].fill(0);
            slice_word(&mut block, room);
            for (plane, &bits) in row.planes.chunks_exact_mut(words).zip(&block) {
                plane[w] = bits;
            }
        }
    }
    let depth = match sum {
        0 => 0,
        _ => (u64::BITS - spread.leading_zeros()) as usize + 1,
    };
    row.planes.truncate(depth * words);
    if depth == 0 {
        row.totals.clear();
    }
    if has_zero_group(&row.planes, words, s1, s2) {
        product_signs(last, copies, exclude, &mut row.negative);
    }
    true
}

/// Whether some group of `s1` copies is zero in every one of `planes`
/// (`words` words each).
fn has_zero_group(planes: &[u64], words: usize, s1: usize, s2: usize) -> bool {
    (0..s2).any(|g| {
        let copies = g * s1..(g + 1) * s1;
        touched_words(&copies).all(|w| {
            let mask = word_mask(&copies, w);
            planes.chunks_exact(words).all(|plane| plane[w] & mask == 0)
        })
    })
}

/// Writes into `negative` the product-sign bits of the cross row that
/// excludes stream `exclude` — bit `c` set where an odd number of copy
/// `c`'s factors is negative — or leaves it empty where none is.
fn product_signs(last: &[i64], copies: usize, exclude: usize, negative: &mut Vec<u64>) {
    let word = |w: usize| {
        let span = word_span(w, copies);
        // The XOR of the factors carries the XOR of their sign bits.
        let signs = fold_partners(last, copies, exclude, span, 0, |p, f| p ^ f);
        let bits = signs[..span.1].iter().enumerate();
        bits.fold(0u64, |word, (j, &sign)| word | u64::from(sign < 0) << j)
    };
    let words = copies.div_ceil(WORD_COPIES);
    if (0..words).any(|w| word(w) != 0) {
        resize_exact(negative, words);
        for (w, bits) in negative.iter_mut().enumerate() {
            *bits = word(w);
        }
    }
}

/// `buf` resized to `len` zeros, its capacity grown to exactly `len`
/// where it is short.
fn resize_exact<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
    buf.resize(len, T::default());
}

/// The frozen productivity query over a [`SlicedRow`]: appends to
/// `groups`, for each of the `s2` groups of `s1` copies, the signed sum
/// `Σ_c ±x_c` as `totals[g] − 2·`[`sliced_sum`] — the bits of the serial
/// fold ([`apply_packed_signs`] + [`group_sums`] on the row as `f64`),
/// since on a row [`slice_row`] accepts every term and partial sum is an
/// integer below `2^53`. A zero sum is `-0.0` where every term is: a group
/// of zeros whose product-sign bits differ from the packed signs in every
/// copy.
pub fn sliced_group_sums(
    signs: &[u64],
    row: &SlicedRow,
    s1: usize,
    s2: usize,
    groups: &mut Vec<f64>,
) {
    let words = (s1 * s2).div_ceil(WORD_COPIES);
    assert_eq!(signs.len(), words, "one sign bit per copy, one word per 64");
    let expected = if row.planes.is_empty() { 0 } else { s2 };
    assert_eq!(
        row.totals.len(),
        expected,
        "one total per group of a sliced row"
    );
    assert!(
        row.negative.is_empty() || row.negative.len() == signs.len(),
        "one product-sign bit per copy"
    );
    groups.extend((0..s2).map(|g| {
        let copies = g * s1..(g + 1) * s1;
        let total = row.totals.get(g).copied().unwrap_or(0);
        let flipped = sliced_sum(signs, &row.planes, copies.clone());
        match total.wrapping_sub(flipped.wrapping_mul(2)) {
            0 if only_negative_zero_terms(signs, row, copies) => -0.0,
            sum => sum as f64,
        }
    }));
}

/// Whether every term of a sliced group is `-0.0`: every plane clear over
/// the group, and the product-sign bit XOR the packed sign set in every
/// copy. Mostly decided at the first word.
fn only_negative_zero_terms(signs: &[u64], row: &SlicedRow, copies: Range<usize>) -> bool {
    let words = signs.len();
    touched_words(&copies).all(|w| {
        let mask = word_mask(&copies, w);
        let product = row.negative.get(w).copied().unwrap_or(0);
        let zero = row
            .planes
            .chunks_exact(words)
            .all(|plane| plane[w] & mask == 0);
        zero && (product ^ signs[w]) & mask == mask
    })
}

// ---------------------------------------------------------------------------
// The first-epoch query in integers.
// ---------------------------------------------------------------------------

/// Copies of one block of the AVX2 integer sum: four registers of
/// [`LANES`], whose sign bits never straddle a sign word.
const SUM_ACCS: usize = 4 * LANES;

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
    use super::{touched_words, word_mask};
    use std::ops::Range;

    /// Scalar [`super::fold_packed_signs`].
    pub fn fold_packed_signs(words: &[u64], counters: &mut [i64]) {
        for (chunk, &w) in counters.chunks_mut(64).zip(words) {
            for (b, cnt) in chunk.iter_mut().enumerate() {
                *cnt += 1 - 2 * ((w >> b) & 1) as i64;
            }
        }
    }

    /// Scalar [`super::sliced_sum`]: one `count_ones` per plane and word.
    pub fn sliced_sum(signs: &[u64], planes: &[u64], copies: Range<usize>) -> i64 {
        let words = touched_words(&copies);
        let (head, tail) = (words.start, words.end - 1);
        let masks = (word_mask(&copies, head), word_mask(&copies, tail));
        let masked = |w: usize| {
            let head_mask = if w == head { masks.0 } else { u64::MAX };
            signs[w] & head_mask & if w == tail { masks.1 } else { u64::MAX }
        };
        let depth = planes.len() / signs.len();
        let mut sum = 0i64;
        for (b, plane) in planes.chunks_exact(signs.len()).enumerate() {
            let count: u64 = words
                .clone()
                .map(|w| u64::from((masked(w) & plane[w]).count_ones()))
                .sum();
            let weighted = (count << b) as i64;
            sum = if b + 1 == depth {
                sum.wrapping_sub(weighted)
            } else {
                sum.wrapping_add(weighted)
            };
        }
        sum
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
/// fold, the sliced sum of the frozen query (a `vpshufb` nibble popcount
/// into byte counters, one `vpsadbw` and one shift-and-add per plane) and
/// the first-epoch integer sum of one or two partners' products. All
/// three are integer arithmetic, so they agree with their [`scalar`]
/// forms on every input. Packed sign bits expand to a `{0, 1}` lane
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
/// terms by the bounds its caller checks, so neither happens (the sliced
/// sum wraps in both forms, on purpose).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::{scalar, touched_words, word_mask, LANES, SUM_ACCS};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_cmpeq_epi64,
        _mm256_loadu_si256, _mm256_mul_epi32, _mm256_sad_epu8, _mm256_set1_epi64x,
        _mm256_set1_epi8, _mm256_setr_epi64x, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_sllv_epi64, _mm256_srli_epi16, _mm256_srli_epi64,
        _mm256_srlv_epi64, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_xor_si256,
    };
    use std::ops::Range;

    /// Registers holding one [`SUM_ACCS`] block.
    const REGS: usize = SUM_ACCS / LANES;

    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "avx2 kernels selected without avx2"
        );
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

    /// Sign words the sliced sum masks into a stack buffer at a time: its
    /// byte counters take the sixteen chunks of four words, at most eight
    /// a byte each, before one `vpsadbw` empties them.
    const SEGMENT: usize = 64;

    /// The number of set bits of every byte of `v`, byte for byte: two
    /// nibble lookups.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn byte_popcounts(v: __m256i) -> __m256i {
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let nibble = _mm256_set1_epi8(0x0F);
        let low = _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble));
        let high = _mm256_shuffle_epi8(table, _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble));
        _mm256_add_epi8(low, high)
    }

    /// AVX2 body of [`sliced_sum`]: per segment of up to [`SEGMENT`] words,
    /// the sign words once into a zero-padded buffer, the edge words of
    /// `copies` masked, then per
    /// plane the byte popcounts of `signs ∧ plane` four words at a time, one
    /// `vpsadbw` to four lane counts and one shift by the plane's index
    /// into the running total — subtracted for the top plane. A ragged last
    /// chunk reads its plane words through a zero-padded copy.
    #[target_feature(enable = "avx2")]
    unsafe fn sliced_sum_impl(signs: &[u64], planes: &[u64], copies: Range<usize>) -> i64 {
        let stride = signs.len();
        let depth = planes.len() / stride;
        let words = touched_words(&copies);
        let (head, tail) = (
            word_mask(&copies, words.start),
            word_mask(&copies, words.end - 1),
        );
        let mut total = _mm256_setzero_si256();
        let mut start = words.start;
        while start < words.end {
            let end = (start + SEGMENT).min(words.end);
            let n = end - start;
            let mut masked = [0u64; SEGMENT];
            masked[..n].copy_from_slice(&signs[start..end]);
            if start == words.start {
                masked[0] &= head;
            }
            if end == words.end {
                masked[n - 1] &= tail;
            }
            for (b, plane) in planes.chunks_exact(stride).enumerate() {
                let plane = &plane[start..end];
                let mut chunks = plane.chunks_exact(LANES);
                let mut bytes = _mm256_setzero_si256();
                let mut q = 0;
                for chunk in &mut chunks {
                    // SAFETY: `chunk` is LANES words wide, and `masked`
                    // holds LANES words from `LANES·q < SEGMENT` on.
                    let p = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
                    let s = _mm256_loadu_si256(masked.as_ptr().add(q) as *const __m256i);
                    bytes = _mm256_add_epi8(bytes, byte_popcounts(_mm256_and_si256(s, p)));
                    q += LANES;
                }
                if !chunks.remainder().is_empty() {
                    let mut tail = [0u64; LANES];
                    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
                    // SAFETY: `tail` is LANES words wide, and so is
                    // `masked` from `q < SEGMENT` on.
                    let p = _mm256_loadu_si256(tail.as_ptr() as *const __m256i);
                    let s = _mm256_loadu_si256(masked.as_ptr().add(q) as *const __m256i);
                    bytes = _mm256_add_epi8(bytes, byte_popcounts(_mm256_and_si256(s, p)));
                }
                let counts = _mm256_sad_epu8(bytes, _mm256_setzero_si256());
                let weighted = _mm256_sllv_epi64(counts, _mm256_set1_epi64x(b as i64));
                total = if b + 1 == depth {
                    _mm256_sub_epi64(total, weighted)
                } else {
                    _mm256_add_epi64(total, weighted)
                };
            }
            start = end;
        }
        let mut lanes = [0i64; LANES];
        // SAFETY: `lanes` is exactly LANES words wide.
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total);
        lanes.iter().fold(0i64, |sum, &l| sum.wrapping_add(l))
    }

    /// AVX2 [`super::sliced_sum`]. Panics if AVX2 is unavailable (the
    /// entry point only calls this after runtime detection).
    pub fn sliced_sum(signs: &[u64], planes: &[u64], copies: Range<usize>) -> i64 {
        assert_avx2();
        // SAFETY: AVX2 presence asserted above.
        unsafe { sliced_sum_impl(signs, planes, copies) }
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
    fn a_sliced_word_holds_bit_b_of_copy_j_at_bit_j_of_plane_b() {
        let values: [i64; WORD_COPIES] = std::array::from_fn(|j| {
            let x = (j as i64 * 0x9E37_79B9) % 100_003 - 50_000;
            if j % 7 == 0 {
                i64::MIN + j as i64
            } else {
                x
            }
        });
        for depth in [0, 1, 7, 17, 33, 64] {
            let mut block = values.map(|x| x as u64);
            slice_word(&mut block, depth);
            for (b, &plane) in block[..depth].iter().enumerate() {
                for (j, &x) in values.iter().enumerate() {
                    assert_eq!((plane >> j) & 1, (x as u64 >> b) & 1, "plane {b}, copy {j}");
                }
            }
        }
        let mut block = values.map(|x| x as u64);
        slice_word(&mut block, WORD_COPIES);
        for (b, &plane) in block.iter().enumerate() {
            for (j, &x) in values.iter().enumerate() {
                assert_eq!((plane >> j) & 1, (x as u64 >> b) & 1, "plane {b}, copy {j}");
            }
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
