//! A fast hasher for the small integer keys of the per-operation maps
//! (objects, values, writer ids): the multiply-rotate hash rustc uses for
//! its own tables ("Fx"), in place of the standard library's SipHash.
//! SipHash resists hash flooding, which no map keyed by protocol-internal
//! ids needs; per lookup it costs several times what the lookup itself
//! does. The standard maps already iterated in a per-process random
//! order, so nothing deterministic depends on the order this one gives.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx hash: each word is folded in by a rotate, an xor and one
/// multiplication by an odd constant.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, Value};

    #[test]
    fn dense_object_ids_hash_apart_and_the_map_works() {
        let mut m: FxHashMap<(ObjectId, Value), u32> = FxHashMap::default();
        for o in 0..64u32 {
            for v in 0..16u64 {
                m.insert((ObjectId::new(o), Value::new(v)), o * 100 + v as u32);
            }
        }
        assert_eq!(m.len(), 64 * 16);
        assert_eq!(m[&(ObjectId::new(7), Value::new(3))], 703);
        let hash = |o: u32| {
            let mut h = FxHasher::default();
            h.write_u32(o);
            h.finish()
        };
        let distinct: std::collections::HashSet<u64> = (0..64).map(hash).collect();
        assert_eq!(
            distinct.len(),
            64,
            "a multiply by an odd constant is a bijection"
        );
    }
}
