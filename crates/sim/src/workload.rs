//! Workload samplers: Zipf object popularity, read/write mixes, and think
//! times — the synthetic stand-in for the paper's motivating workloads
//! (WWW documents, interactive virtual environments).

use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::Delta;

/// Samples object indices with Zipfian popularity: object `i` (0-based) has
/// weight `1 / (i+1)^exponent`. Exponent 0 is uniform; the classic web
/// workload uses exponents near 0.8–1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` objects.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `exponent` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "need at least one object");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of objects.
    #[must_use]
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples one object index.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The kind of operation a client issues next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpChoice {
    /// Read an object.
    Read,
    /// Write an object.
    Write,
}

/// A complete client workload specification.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    objects: ZipfSampler,
    read_fraction: f64,
    think: (Delta, Delta),
}

impl Workload {
    /// Creates a workload over `n_objects` with Zipf `exponent`,
    /// `read_fraction` reads, and uniformly distributed think time between
    /// operations.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]` or the think-time range
    /// is inverted.
    #[must_use]
    pub fn new(n_objects: usize, exponent: f64, read_fraction: f64, think: (Delta, Delta)) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        assert!(think.0 <= think.1, "think-time range is inverted");
        Workload {
            objects: ZipfSampler::new(n_objects, exponent),
            read_fraction,
            think,
        }
    }

    /// A read-mostly web-cache-style workload: 64 objects, Zipf 0.9, 95%
    /// reads, think time 20–200 ticks.
    #[must_use]
    pub fn web() -> Self {
        Workload::new(
            64,
            0.9,
            0.95,
            (Delta::from_ticks(20), Delta::from_ticks(200)),
        )
    }

    /// An interactive virtual-environment-style workload: 16 hot objects,
    /// mild skew, 70% reads, short think times.
    #[must_use]
    pub fn interactive() -> Self {
        Workload::new(16, 0.5, 0.7, (Delta::from_ticks(5), Delta::from_ticks(30)))
    }

    /// An adversarial workload for fault-injection tests: 3 hot objects
    /// under heavy contention (Zipf 1.2), half writes, short think times —
    /// maximizes the windows in which a masked fault could surface as a
    /// stale read or a lost write.
    #[must_use]
    pub fn adversarial() -> Self {
        Workload::new(3, 1.2, 0.5, (Delta::from_ticks(5), Delta::from_ticks(25)))
    }

    /// Samples the next operation: kind, object index, and think time
    /// before issuing it.
    #[must_use]
    pub fn next_op(&self, rng: &mut StdRng) -> (OpChoice, usize, Delta) {
        let kind = if rng.gen_bool(self.read_fraction) {
            OpChoice::Read
        } else {
            OpChoice::Write
        };
        let obj = self.objects.sample(rng);
        let think = Delta::from_ticks(rng.gen_range(self.think.0.ticks()..=self.think.1.ticks()));
        (kind, obj, think)
    }

    /// Number of objects in the workload.
    #[must_use]
    pub fn n_objects(&self) -> usize {
        self.objects.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let z = ZipfSampler::new(50, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
        // Object 0 should take roughly 1/H(50) ≈ 22% of accesses.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.15..0.3).contains(&share), "head share {share}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            let share = c as f64 / 20_000.0;
            assert!((0.07..0.13).contains(&share), "share {share} not uniform");
        }
    }

    #[test]
    fn zipf_single_object() {
        let z = ZipfSampler::new(1, 1.0);
        let mut r = rng();
        assert_eq!(z.sample(&mut r), 0);
        assert_eq!(z.n(), 1);
    }

    #[test]
    fn workload_mix_matches_fraction() {
        let w = Workload::new(8, 0.8, 0.25, (Delta::from_ticks(1), Delta::from_ticks(5)));
        let mut r = rng();
        let mut reads = 0;
        for _ in 0..10_000 {
            let (kind, obj, think) = w.next_op(&mut r);
            assert!(obj < 8);
            assert!((1..=5).contains(&think.ticks()));
            if kind == OpChoice::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn presets_are_consistent() {
        assert_eq!(Workload::web().n_objects(), 64);
        assert_eq!(Workload::interactive().n_objects(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zipf_rejects_zero_objects() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
