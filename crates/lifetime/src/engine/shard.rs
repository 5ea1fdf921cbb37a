//! Object→shard routing for the partitioned server fleet.
//!
//! A [`ShardMap`] is the one piece of configuration the client and every
//! shard must agree on: it decides, for each object, which shard owns the
//! object's version store. The map is a pure function of `(object,
//! shard_count)` — no rendezvous state, no handshakes — so any party that
//! knows the shard count routes identically, and a restarted node needs no
//! recovery step to route correctly again.
//!
//! Routing hashes the object index through a SplitMix64 finalizer before
//! reducing modulo the shard count. A plain `index % shards` would pin all
//! hot low-numbered objects of a Zipf workload onto shard 0; the mix
//! spreads consecutive indices across the fleet.

use tc_core::ObjectId;

/// Stable object→shard router shared by clients and the server fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A router over `shards` shards (at least one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a fleet needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shards(self) -> usize {
        self.shards
    }

    /// The shard that owns `object`. Total (defined for every object) and
    /// stable (depends only on the object and the shard count).
    #[must_use]
    pub fn shard_of(self, object: ObjectId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(object.index() as u64) % self.shards as u64) as usize
    }
}

/// SplitMix64 finalizer — the same mixing constant family the per-client
/// seed derivation uses; full-avalanche, cheap, and dependency-free. The
/// shard map and the reactor's redial jitter both hash with this one
/// function.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let m = ShardMap::new(1);
        for i in 0..64u32 {
            assert_eq!(m.shard_of(ObjectId::new(i)), 0);
        }
    }

    #[test]
    fn small_fleets_use_every_shard() {
        // Not a property of hashing in general, but with 64 objects and at
        // most 8 shards an unused shard would mean the mix is badly broken.
        for shards in 2..=8 {
            let m = ShardMap::new(shards);
            let used: std::collections::HashSet<_> =
                (0..64u32).map(|i| m.shard_of(ObjectId::new(i))).collect();
            assert_eq!(used.len(), shards, "{shards} shards");
        }
    }

    proptest! {
        /// Total and in-range: every object maps to a valid shard.
        #[test]
        fn routing_is_total(object in 0u32..10_000, shards in 1usize..64) {
            let m = ShardMap::new(shards);
            prop_assert!(m.shard_of(ObjectId::new(object)) < shards);
        }

        /// Stable: routing is a pure function of (object, shard count) —
        /// two independently constructed maps always agree.
        #[test]
        fn routing_is_stable(object in 0u32..10_000, shards in 1usize..64) {
            let a = ShardMap::new(shards);
            let b = ShardMap::new(shards);
            let o = ObjectId::new(object);
            prop_assert_eq!(a.shard_of(o), b.shard_of(o));
            prop_assert_eq!(a.shard_of(o), a.shard_of(o));
        }
    }
}
