//! Deterministic jitter over the engine's SplitMix64 ([`splitmix64`]): the
//! per-shard-link seed derivation the reactor's redial backoff draws from.

use tc_lifetime::engine::splitmix64;

/// The jitter seed of the client reactor's link to one shard (every
/// hosted site shares it): deterministic per run — identical
/// configurations replay identical backoff schedules — yet distinct per
/// shard, so the redials of links that died together do not stay
/// synchronized.
pub(crate) fn link_seed(run_seed: u64, shard: usize) -> u64 {
    splitmix64(run_seed ^ shard as u64)
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
}
