//! Deterministic jitter shared by the real-time drivers: the SplitMix64
//! generator, the per-shard-link seed derivation the reactor's redial
//! backoff draws from, and a tiny seedable stream the geo WAN courier
//! draws its link latencies from.

/// SplitMix64 — deterministic, seedable, dependency-free; the same
/// generator the simulator's RNG family bootstraps from.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The jitter seed of the client reactor's link to one shard (every
/// hosted site shares it): deterministic per run — identical
/// configurations replay identical backoff schedules — yet distinct per
/// shard, so the redials of links that died together do not stay
/// synchronized.
pub(crate) fn link_seed(run_seed: u64, shard: usize) -> u64 {
    splitmix64(run_seed ^ shard as u64)
}

/// A minimal SplitMix64 *stream*: each draw advances the state by the
/// golden-gamma step and hashes it. Used where a sequence of jitter values
/// is needed (WAN latency sampling) rather than a single keyed value.
pub(crate) struct JitterRng {
    state: u64,
}

impl JitterRng {
    pub(crate) fn new(seed: u64) -> Self {
        JitterRng { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// A draw uniform in `[lo, hi]` (inclusive; `lo` when the range is
    /// degenerate). The modulo bias is ≤ 2⁻⁵³ for any tick-sized range —
    /// irrelevant for latency jitter.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_seed_is_deterministic_and_distinct_per_link() {
        assert_eq!(link_seed(7, 2), link_seed(7, 2));
        // Both coordinates matter: shard and run seed each
        // de-synchronise the schedule.
        assert_ne!(link_seed(7, 2), link_seed(7, 3));
        assert_ne!(link_seed(7, 2), link_seed(8, 2));
    }

    #[test]
    fn jitter_rng_is_seedable_and_range_bounded() {
        let mut a = JitterRng::new(42);
        let mut b = JitterRng::new(42);
        for _ in 0..100 {
            let x = a.range(40, 60);
            assert_eq!(x, b.range(40, 60), "same seed, same stream");
            assert!((40..=60).contains(&x));
        }
        assert_eq!(JitterRng::new(1).range(5, 5), 5, "degenerate range");
        // Different seeds diverge somewhere in a short prefix.
        let mut c = JitterRng::new(1);
        let mut d = JitterRng::new(2);
        assert!((0..8).any(|_| c.next_u64() != d.next_u64()));
    }
}
