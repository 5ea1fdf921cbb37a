//! Property tests for WAL recovery under disk corruption.
//!
//! The durability contract of `WalStore` is that replay after a crash
//! ends **cleanly at the last valid record**: a truncated tail, a torn
//! final frame, or a flipped bit anywhere in the log must never panic,
//! never propagate garbage into the image, and always leave the store
//! equal to some *prefix* of the synced history — with the recovery
//! point reporting exactly which prefix. The one exception is a frame that
//! reads as another wire generation: that is refused, files untouched,
//! never truncated. These generators write a random
//! mixed physical/causal history, mutilate the segment file, and check
//! the reopened store against a reference image built from the surviving
//! prefix.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_durable::{AlienVersion, WalStore};
use tc_lifetime::store::{ShardImage, ShardStore, WalRecord};
use tc_wire::{decode_frame_body, WIRE_VERSION};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tc-durable-prop-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn arb_record(rng: &mut StdRng) -> WalRecord {
    if rng.gen_bool(0.5) {
        WalRecord::Physical {
            object: ObjectId::new(rng.gen_range(0..8)),
            value: Value::new(rng.gen_range(0..=u64::MAX)),
            alpha: Time::from_ticks(rng.gen_range(0..1_000_000)),
            issued_at: Time::from_ticks(rng.gen_range(0..1_000_000)),
            writer: rng.gen_range(0..4),
        }
    } else {
        // Clocks must share one width — `VectorClock::compare` is only
        // defined for clocks over the same site population.
        let writer = rng.gen_range(0..4usize);
        let entries: Vec<u64> = (0..4).map(|_| rng.gen_range(0..1_000u64)).collect();
        WalRecord::Causal {
            object: ObjectId::new(rng.gen_range(0..8)),
            writer,
            seq: rng.gen_range(0..100),
            value: Value::new(rng.gen_range(0..=u64::MAX)),
            alpha_t: Time::from_ticks(rng.gen_range(0..1_000_000)),
            alpha_v: VectorClock::from_entries(writer, entries),
        }
    }
}

/// A random synced history of 1..=24 records.
struct ArbHistory;

impl Strategy for ArbHistory {
    type Value = Vec<WalRecord>;
    fn sample(&self, rng: &mut StdRng) -> Vec<WalRecord> {
        let n = rng.gen_range(1..=24usize);
        (0..n).map(|_| arb_record(rng)).collect()
    }
}

/// Writes `records` through a `WalStore` (synced) and returns the shard
/// directory and the path of the single live segment.
fn write_history(tag: &str, records: &[WalRecord]) -> (PathBuf, PathBuf) {
    let dir = temp_dir(tag);
    let mut store = WalStore::open(&dir, 0, u64::MAX);
    for record in records {
        store.apply(record);
    }
    store.sync();
    let seg = dir.join(format!("seg-{:020}.wal", 0));
    assert!(seg.exists(), "expected a live segment at {seg:?}");
    (dir, seg)
}

/// Asserts the reopened store equals the image of `records[..k]` where
/// `k = store.records()`, i.e. recovery kept a clean prefix and nothing
/// else, and that the store accepts new appends afterwards.
fn assert_clean_prefix(dir: &PathBuf, records: &[WalRecord]) {
    let mut store = WalStore::open(dir, 0, u64::MAX);
    let k = store.records() as usize;
    assert!(
        k <= records.len(),
        "recovered more records than were written"
    );
    assert_eq!(store.last_recovery().recovery_point, k as u64);
    // Loss accounting is consistent with the corruption verdict: a clean
    // log lost nothing, a corrupted one lost at least the frame replay
    // stopped at. (This helper may run against an already-truncated log —
    // the first open trims the bad suffix — so it can't demand more.)
    if store.last_recovery().corrupted_tail {
        assert!(store.last_recovery().lost >= 1);
    } else {
        assert_eq!(store.last_recovery().lost, 0);
    }

    let mut expected = ShardImage::new();
    for record in &records[..k] {
        expected.apply(record);
    }
    assert_eq!(store.writes_applied(), expected.writes_applied());
    assert_eq!(store.last_alpha(), expected.last_alpha());
    for object in 0..8u32 {
        assert_eq!(
            store.durable_version(ObjectId::new(object)),
            expected.current(ObjectId::new(object)),
            "object {object} diverged after recovering {k}/{} records",
            records.len()
        );
    }
    for writer in 0..4usize {
        assert_eq!(store.causal_cursor(writer), expected.causal_cursor(writer));
    }

    // The corrupted suffix was truncated away: the log is appendable and a
    // further restart still recovers.
    let probe = WalRecord::Physical {
        object: ObjectId::new(0),
        value: Value::new(424_242),
        alpha: Time::from_ticks(2_000_000),
        issued_at: Time::from_ticks(2_000_000),
        writer: 0,
    };
    store.apply(&probe);
    store.sync();
    drop(store);
    let store = WalStore::open(dir, 0, u64::MAX);
    assert_eq!(store.records(), k as u64 + 1);
    assert!(!store.last_recovery().corrupted_tail);
    assert_eq!(
        store.durable_version(ObjectId::new(0)).value,
        Value::new(424_242)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chopping the segment at any byte offset leaves a recoverable
    /// prefix: replay stops at the last whole valid frame.
    #[test]
    fn truncation_anywhere_leaves_a_clean_prefix(
        records in ArbHistory,
        cut in 0usize..1_000_000,
    ) {
        let (dir, seg) = write_history("trunc", &records);
        let len = fs::metadata(&seg).unwrap().len() as usize;
        let keep = cut % len; // strictly shorter: always loses bytes
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(keep as u64).unwrap();
        drop(f);

        let store = WalStore::open(&dir, 0, u64::MAX);
        // Bytes were lost, so either a frame was torn (corrupted tail) or
        // the cut landed exactly on a frame boundary (clean short log).
        prop_assert!((store.records() as usize) < records.len()
            || store.last_recovery().corrupted_tail
            || records.is_empty());
        // A torn frame must show up in the loss accounting (truncation
        // destroys the bytes outright, so the trailing partial frame is
        // all that is countable — `lost` is a lower bound here).
        if store.last_recovery().corrupted_tail {
            prop_assert!(store.last_recovery().lost >= 1);
        } else {
            prop_assert_eq!(store.last_recovery().lost, 0);
        }
        drop(store);
        assert_clean_prefix(&dir, &records);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit never panics and never corrupts the image:
    /// recovery still yields a valid prefix of the written history. (A
    /// flip in an ignored header field — the shard routing tag — may be
    /// invisible; a flip anywhere else trips the CRC or header checks.)
    /// A flip in a frame's *version* field makes it read as another wire
    /// generation, which recovery cannot tell from a log another build
    /// wrote: the directory is refused and not a byte of it changes.
    #[test]
    fn a_flipped_bit_never_poisons_replay(
        records in ArbHistory,
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let (dir, seg) = write_history("flip", &records);
        let mut bytes = fs::read(&seg).unwrap();
        let at = pos % bytes.len();
        let mut frame_start = 0;
        while let Ok((_, _, used)) = decode_frame_body(&bytes[frame_start..]) {
            if at < frame_start + used {
                break;
            }
            frame_start += used;
        }
        bytes[at] ^= 1 << bit;
        fs::write(&seg, &bytes).unwrap();

        // The version field is header bytes 4..6.
        if (4..6).contains(&(at - frame_start)) {
            let flipped = WIRE_VERSION ^ (1 << (8 * (at - frame_start - 4) + bit as usize));
            let refused = WalStore::try_open(&dir, 0, u64::MAX).err();
            prop_assert_eq!(refused, Some(AlienVersion { path: seg.clone(), found: flipped }));
            prop_assert_eq!(fs::read(&seg).unwrap(), bytes);
            let _ = fs::remove_dir_all(&dir);
            return Ok(());
        }

        // Exact loss accounting on the first open: a mid-log flip kills
        // exactly one frame, and every intact frame after it is
        // unreplayable (the index chain is broken) — so the store must
        // report precisely `written − recovered` records lost.
        let store = WalStore::open(&dir, 0, u64::MAX);
        let k = store.records() as usize;
        if store.last_recovery().corrupted_tail {
            prop_assert_eq!(store.last_recovery().lost as usize, records.len() - k);
        } else {
            // The flip landed in an ignored header field: nothing lost.
            prop_assert_eq!(store.last_recovery().lost, 0);
            prop_assert_eq!(k, records.len());
        }
        drop(store);

        assert_clean_prefix(&dir, &records);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn final frame — a partial duplicate of the tail appended, as
    /// a crashed mid-write append would leave — loses nothing that was
    /// synced: every written record survives and the tear is reported.
    #[test]
    fn a_torn_final_frame_keeps_every_synced_record(
        records in ArbHistory,
        tear in 1usize..1_000_000,
    ) {
        let (dir, seg) = write_history("torn", &records);
        let bytes = fs::read(&seg).unwrap();
        // Frames start with the fixed magic; a prefix of the first frame
        // is exactly what a torn append of a next record looks like.
        let torn_len = 1 + tear % (bytes.len().min(40) - 1);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&bytes[..torn_len]).unwrap();
        f.sync_data().unwrap();
        drop(f);

        let store = WalStore::open(&dir, 0, u64::MAX);
        prop_assert!(store.last_recovery().corrupted_tail);
        prop_assert_eq!(store.records() as usize, records.len());
        // The torn partial frame is one countable casualty — no synced
        // record is lost, but the tear itself must not read as zero loss.
        prop_assert_eq!(store.last_recovery().lost, 1);
        drop(store);
        assert_clean_prefix(&dir, &records);
        let _ = fs::remove_dir_all(&dir);
    }
}
