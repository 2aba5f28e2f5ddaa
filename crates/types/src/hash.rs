//! The workspace's one bit mixer and the word hasher built on it.
//!
//! Every table an arrival looks up is keyed by a few machine words the
//! program itself made — a raw join value, a stream's pair of them, a
//! slot — so hashing one costs a fold per word and one
//! [`splitmix64`] finish instead of a SipHash. The hasher only picks the
//! bucket: the maps still compare whole keys, so what a lookup returns
//! never depends on it.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`, stable
/// across platforms and runs. Shard routing, per-worker seed derivation,
/// the flat join index and [`WordHasher::finish`] all use this one
/// definition.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Odd multiplier of the per-word fold (the FxHash constant). The fold
/// alone leaves the low bits of the state a function of the low bits of
/// the key; the [`splitmix64`] finish is what spreads them.
const K: u64 = 0x517C_C1B7_2722_0A95;

/// A deterministic [`Hasher`] for keys made of a few integers: each word
/// written is folded as `h = (h.rotate_left(5) ^ x) * K`, byte strings as
/// zero-padded little-endian 8-byte chunks followed by their length, and
/// [`finish`](Hasher::finish) is [`splitmix64`] of the state. All
/// arithmetic wraps.
///
/// It is unkeyed, so it is for tables the program bounds and never
/// iterates into output — not for maps whose size an input can inflate.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
}

/// [`std::hash::BuildHasher`] of [`WordHasher`]: zero-sized, the same
/// function in every process.
pub type WordBuild = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        WordBuild::default().hash_one(key)
    }

    /// The shape of a key of `mstream-core`'s per-stream `ScoreCache` maps,
    /// the stream's incident join values with a one-attribute stream's
    /// second slot zero: the derived `Hash` of an array writes its length,
    /// then its bytes in one `write`.
    type ScoreShaped = [u64; 2];

    #[test]
    fn finish_values_are_pinned() {
        // Keys whose `Hash` writes integers or explicit bytes only, so the
        // values hold on every platform (a derived `Hash` over an array
        // writes its memory, which is endian-dependent, and is left out).
        // `splitmix64` itself is pinned where replay depends on it
        // (`mstream-core`'s `shard::tests::splitmix_is_stable`).
        assert_eq!(WordHasher::default().finish(), splitmix64(0));
        assert_eq!(hash_of(&0u64), 0xE220_A839_7B1D_CDAF);
        assert_eq!(hash_of(&1u64), 0x35F5_76A4_E31C_F92B);
        assert_eq!(hash_of(&(3usize, 42u64)), 0x0050_FCFE_A126_DD5F);
        assert_eq!(hash_of(&(7u32, 9u32)), 0xFDF2_C2EE_4000_CDDD);
        let mut h = WordHasher::default();
        h.write(b"load shedding");
        assert_eq!(h.finish(), 0x6963_163E_2730_27FF);
    }

    #[test]
    fn integer_writes_fold_the_same_word_at_every_width() {
        let folded = |f: fn(&mut WordHasher)| {
            let mut h = WordHasher::default();
            f(&mut h);
            h.finish()
        };
        let want = folded(|h| h.write_u64(200));
        assert_eq!(folded(|h| h.write_u8(200)), want);
        assert_eq!(folded(|h| h.write_u32(200)), want);
        assert_eq!(folded(|h| h.write_usize(200)), want);
    }

    #[test]
    fn byte_strings_are_length_delimited() {
        let two = |a: &[u8], b: &[u8]| {
            let mut h = WordHasher::default();
            h.write(a);
            h.write(b);
            h.finish()
        };
        assert_ne!(two(b"ab", b"c"), two(b"a", b"bc"));
        // Zero padding is not content.
        assert_ne!(two(b"a", b""), two(b"a\0", b""));
        // Chunks past the first are folded, not dropped.
        assert_ne!(two(b"12345678a", b""), two(b"12345678b", b""));
    }

    /// Distinct `(7-bit tag, low-13-bit bucket)` pairs `hashes` lands on —
    /// the two parts of a hash a hashbrown table of 8 192 buckets reads —
    /// over the number a uniform hash of as many keys is expected to hit.
    fn spread(hashes: impl Iterator<Item = u64>) -> f64 {
        let mut n = 0u32;
        let cells: HashSet<(u64, u64)> = hashes
            .inspect(|_| n += 1)
            .map(|h| (h >> 57, h & 0x1FFF))
            .collect();
        let m = f64::from(1u32 << 20);
        let uniform = m * (1.0 - (1.0 - 1.0 / m).powf(f64::from(n)));
        cells.len() as f64 / uniform
    }

    /// Hostile value families: what a join attribute looks like when it is
    /// a counter, a shifted id, a flag word or a hash truncated elsewhere.
    fn families() -> Vec<(&'static str, Vec<u64>)> {
        let n = 8192u64;
        vec![
            ("sequential", (0..n).collect()),
            ("multiples of 2^32", (0..n).map(|i| i << 32).collect()),
            ("multiples of 2^48", (0..n).map(|i| i << 48).collect()),
            ("one bit set", (0..64).map(|b| 1u64 << b).collect()),
            (
                "equal low 32 bits",
                (0..n).map(|i| (i << 32) | 0xDEAD_BEEF).collect(),
            ),
        ]
    }

    #[test]
    fn hostile_key_families_spread_like_a_uniform_hash() {
        for (name, values) in families() {
            // `SignCache` and `FreqTable` keys: the raw value.
            let got = spread(values.iter().map(hash_of));
            assert!(got >= 0.9, "raw value {name}: {got:.3}");
            // `ScoreCache` keys: a one-attribute stream's value beside a
            // zero, and a two-attribute stream's value in either slot beside
            // a partner value that hardly varies.
            let one: Vec<ScoreShaped> = values.iter().map(|&v| [v, 0]).collect();
            let first: Vec<ScoreShaped> =
                values.iter().zip(0..).map(|(&v, i)| [v, i % 3]).collect();
            let second: Vec<ScoreShaped> =
                values.iter().zip(0..).map(|(&v, i)| [i % 3, v]).collect();
            for (slot, keys) in [
                ("one value", one),
                ("first of two", first),
                ("second of two", second),
            ] {
                let got = spread(keys.iter().map(hash_of));
                assert!(got >= 0.9, "score key, {slot}, {name}: {got:.3}");
            }
        }
    }

    #[test]
    fn slot_shaped_keys_spread() {
        // `ShedQueue::live_pos` keys: (index, generation) as two `u32`s,
        // dense indices under a generation that rarely moves.
        let got = spread((0..8192u32).map(|i| hash_of(&(i, i / 4096))));
        assert!(got >= 0.9, "{got:.3}");
    }
}
