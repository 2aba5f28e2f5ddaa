//! Classical reservoir sampling (Vitter's Algorithm R).
//!
//! The paper motivates random-sampling load shedding by downstream
//! consumers — aggregates, quantiles and stream-mining queries — that only
//! need a bounded uniform sample. A reservoir over the join-output stream
//! is the canonical such consumer; the `stream_mining` example feeds one
//! from a shed join.

use rand::Rng;

/// A fixed-capacity uniform sample over an unbounded stream.
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of the given capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers one stream element.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_then_caps() {
        let mut r = Reservoir::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..10 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items().len(), 3);
        assert_eq!(r.seen(), 10);
    }

    #[test]
    fn short_streams_keep_everything() {
        let mut r = Reservoir::new(5);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..3 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
    }

    #[test]
    fn sample_is_approximately_uniform() {
        // Each of 20 values should land in a size-5 reservoir with
        // probability 1/4; check inclusion frequencies over many runs.
        let runs = 4000;
        let mut inclusion = [0u32; 20];
        for seed in 0..runs {
            let mut r = Reservoir::new(5);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..20usize {
                r.offer(i, &mut rng);
            }
            for &item in r.items() {
                inclusion[item] += 1;
            }
        }
        for (i, &count) in inclusion.iter().enumerate() {
            let p = count as f64 / runs as f64;
            assert!(
                (p - 0.25).abs() < 0.04,
                "element {i} included with p={p}, expected 0.25"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u32>::new(0);
    }
}
