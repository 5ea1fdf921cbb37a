//! The shared, copy-on-write `VectorClock` against a plain `Vec<u64>`
//! model: sharing stamps must be unobservable in `compare`, `join`, `Eq`,
//! `Hash` and the wire bytes, and advancing a clock must never change a
//! stamp cloned from it earlier.

use std::hash::{DefaultHasher, Hash, Hasher};

use proptest::collection;
use proptest::prelude::*;
use tc_clocks::{ClockOrdering, SiteClock, Timestamp, VectorClock};
use tc_wire::msg::{get_vclock, put_vclock};
use tc_wire::{Reader, Writer};

/// The clock as the seed stored it: an owned entry vector. Field order
/// matches `VectorClock`'s, so the derived hashes must agree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Model {
    entries: Vec<u64>,
    site: usize,
}

impl Model {
    fn compare(&self, other: &Model) -> ClockOrdering {
        let less = self.entries.iter().zip(&other.entries).any(|(a, b)| a < b);
        let greater = self.entries.iter().zip(&other.entries).any(|(a, b)| a > b);
        match (less, greater) {
            (false, false) => ClockOrdering::Equal,
            (true, false) => ClockOrdering::Before,
            (false, true) => ClockOrdering::After,
            (true, true) => ClockOrdering::Concurrent,
        }
    }

    fn join(&self, other: &Model) -> Model {
        Model {
            entries: self
                .entries
                .iter()
                .zip(&other.entries)
                .map(|(a, b)| *a.max(b))
                .collect(),
            site: self.site,
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.uvar(self.site as u64);
        w.uvar(self.entries.len() as u64);
        for &e in &self.entries {
            w.uvar(e);
        }
        w.into_bytes()
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn bytes_of(vc: &VectorClock) -> Vec<u8> {
    let mut w = Writer::new();
    put_vclock(&mut w, vc);
    w.into_bytes()
}

/// Every clock equals its model, and every pair relates as its models do.
fn agree(clocks: &[VectorClock], models: &[Model]) -> Result<(), TestCaseError> {
    for (c, m) in clocks.iter().zip(models) {
        prop_assert_eq!(c.entries(), &m.entries[..]);
        prop_assert_eq!(c.site(), m.site);
        prop_assert_eq!(hash_of(c), hash_of(m));
        let bytes = bytes_of(c);
        prop_assert_eq!(&bytes, &m.bytes());
        let decoded = get_vclock(&mut Reader::new(&bytes)).expect("round trip");
        prop_assert_eq!(&decoded, c);
    }
    for (a, ma) in clocks.iter().zip(models) {
        for (b, mb) in clocks.iter().zip(models) {
            prop_assert_eq!(a.compare(b), ma.compare(mb));
            prop_assert_eq!(a == b, ma.entries == mb.entries && ma.site == mb.site);
            let (j, mj) = (a.join(b), ma.join(mb));
            prop_assert_eq!(j.entries(), &mj.entries[..]);
            prop_assert_eq!(j.site(), mj.site);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random histories of ticks, observes, clones and joins over a few
    /// sites' clocks, including clones taken just before their source
    /// advances.
    #[test]
    fn shared_stamps_behave_like_owned_vectors(
        width in 1usize..6,
        ops in collection::vec((0u8..4, 0usize..64, 0usize..64), 1..40),
    ) {
        let mut clocks: Vec<VectorClock> = (0..width).map(|s| VectorClock::new(s, width)).collect();
        let mut models: Vec<Model> = (0..width)
            .map(|site| Model { entries: vec![0; width], site })
            .collect();
        for (op, i, j) in ops {
            let (i, j) = (i % clocks.len(), j % clocks.len());
            match op {
                0 => {
                    let stamp = clocks[i].tick();
                    let model = &mut models[i];
                    model.entries[model.site] += 1;
                    let snapshot = model.clone();
                    clocks.push(stamp);
                    models.push(snapshot);
                }
                1 => {
                    let remote = clocks[j].clone();
                    let stamp = clocks[i].observe(&remote);
                    let remote = models[j].clone();
                    let model = &mut models[i];
                    *model = model.join(&remote);
                    model.entries[model.site] += 1;
                    let snapshot = model.clone();
                    clocks.push(stamp);
                    models.push(snapshot);
                }
                2 => {
                    clocks.push(clocks[i].clone());
                    models.push(models[i].clone());
                }
                _ => {
                    clocks.push(clocks[i].join(&clocks[j]));
                    models.push(models[i].join(&models[j]));
                }
            }
            agree(&clocks, &models)?;
        }
    }
}
