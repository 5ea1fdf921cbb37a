//! Network models: bounded message latency distributions and FIFO channels.
//! Message loss is a fault, and comes only from a [`crate::FaultPlan`].

use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::Delta;

/// How long a message spends in flight. Every model has a finite upper
/// bound, which the oracles charge for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Delta),
    /// Uniformly distributed in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum latency.
        lo: Delta,
        /// Maximum latency.
        hi: Delta,
    },
}

impl LatencyModel {
    /// Samples one latency.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `lo > hi`.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> Delta {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency needs lo <= hi");
                Delta::from_ticks(rng.gen_range(lo.ticks()..=hi.ticks()))
            }
        }
    }

    /// The largest latency the model samples. Experiments use this to
    /// relate the network to the Δ a protocol can honor.
    #[must_use]
    pub fn upper_bound(&self) -> Delta {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { hi, .. } => hi,
        }
    }
}

/// The full network configuration of a [`crate::World`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Latency applied to every message.
    pub latency: LatencyModel,
    /// Whether each ordered `(src, dst)` pair delivers in FIFO order
    /// (arrival times are clamped to be non-decreasing per channel).
    pub fifo: bool,
}

impl NetworkModel {
    /// A constant-latency FIFO network — the default for protocol unit
    /// tests.
    #[must_use]
    pub fn reliable(latency: Delta) -> Self {
        NetworkModel {
            latency: LatencyModel::Constant(latency),
            fifo: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_latency_is_constant() {
        let m = LatencyModel::Constant(Delta::from_ticks(9));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), Delta::from_ticks(9));
        }
        assert_eq!(m.upper_bound(), Delta::from_ticks(9));
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let m = LatencyModel::Uniform {
            lo: Delta::from_ticks(3),
            hi: Delta::from_ticks(8),
        };
        let mut r = rng();
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..500 {
            let d = m.sample(&mut r);
            assert!((3..=8).contains(&d.ticks()));
            seen_lo |= d.ticks() == 3;
            seen_hi |= d.ticks() == 8;
        }
        assert!(seen_lo && seen_hi, "inclusive bounds should be reachable");
        assert_eq!(m.upper_bound(), Delta::from_ticks(8));
    }

    #[test]
    fn uniform_latency_degenerates_when_lo_equals_hi() {
        let m = LatencyModel::Uniform {
            lo: Delta::from_ticks(4),
            hi: Delta::from_ticks(4),
        };
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(m.sample(&mut r), Delta::from_ticks(4));
        }
        assert_eq!(m.upper_bound(), Delta::from_ticks(4));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_latency_rejects_inverted_bounds() {
        let m = LatencyModel::Uniform {
            lo: Delta::from_ticks(5),
            hi: Delta::from_ticks(2),
        };
        let _ = m.sample(&mut rng());
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        for m in [
            LatencyModel::Constant(Delta::from_ticks(7)),
            LatencyModel::Uniform {
                lo: Delta::from_ticks(1),
                hi: Delta::from_ticks(90),
            },
        ] {
            let mut a = StdRng::seed_from_u64(99);
            let mut b = StdRng::seed_from_u64(99);
            let first: Vec<Delta> = (0..200).map(|_| m.sample(&mut a)).collect();
            let second: Vec<Delta> = (0..200).map(|_| m.sample(&mut b)).collect();
            assert_eq!(first, second, "{m:?} must replay identically");
        }
        // And a different seed actually changes the stream.
        let m = LatencyModel::Uniform {
            lo: Delta::from_ticks(1),
            hi: Delta::from_ticks(90),
        };
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(100);
        let first: Vec<Delta> = (0..200).map(|_| m.sample(&mut a)).collect();
        let second: Vec<Delta> = (0..200).map(|_| m.sample(&mut b)).collect();
        assert_ne!(first, second);
    }
}
