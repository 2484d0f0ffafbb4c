//! Order statistics over raw samples (never over log2 histogram buckets).

/// The `q`-quantile with linear interpolation between closest ranks;
/// 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: the benchmark's seeded draws (program order, client picks).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// A uniform random sample of at most `cap` items of a stream
/// (Algorithm R).
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: Rng,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
            rng: Rng::new(seed),
        }
    }

    pub fn push(&mut self, x: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(x);
        } else {
            let j = self.rng.next() % self.seen;
            if let Some(slot) = self.items.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// Take in the sample of another stream of the same window. Streams
    /// of similar length (the closed-loop clients) keep the union close
    /// to uniform.
    pub fn extend(&mut self, other: Reservoir<T>) {
        self.cap += other.cap;
        self.seen += other.seen;
        self.items.extend(other.items);
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reservoir_keeps_a_bounded_sample() {
        let mut r = Reservoir::new(100, 3);
        (0..10_000).for_each(|i| r.push(i));
        assert_eq!(r.items().len(), 100);
        let mean = r.items().iter().sum::<i32>() as f64 / 100.0;
        assert!((3000.0..7000.0).contains(&mean), "{mean}");
        let mut small = Reservoir::new(100, 3);
        (0..10).for_each(|i| small.push(i));
        assert_eq!(small.items(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn permutations_are_seeded() {
        let p = Rng::new(7).permutation(7);
        assert_eq!(p, Rng::new(7).permutation(7));
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, (0..7).collect::<Vec<_>>());
    }
}
