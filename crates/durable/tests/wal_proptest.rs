//! Property tests for WAL recovery under disk corruption.
//!
//! The durability contract of `WalStore` is that replay after a crash
//! ends **cleanly at the last valid record**: a truncated tail, a torn
//! final frame, or a flipped bit anywhere in the log must never panic,
//! never propagate garbage into the image, and always leave the store
//! equal to some *prefix* of the synced history — with the recovery
//! point reporting exactly which prefix. The one exception is a frame that
//! reads as another wire generation: that is refused, files untouched,
//! never truncated — a generation 5 log included, whose physical records
//! still carried the writer's issue time and node index. These generators
//! write a random mixed physical/causal history, mutilate the segment
//! file, and check the reopened store against a reference image built
//! from the surviving prefix.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_durable::{Refusal, WalStore};
use tc_lifetime::store::{ShardImage, ShardStore, WalRecord};
use tc_wire::{
    crc32_pair, decode_frame_body, put_object, put_time, put_value, put_vclock, uvar_encoding,
    Writer, MAGIC, WIRE_VERSION,
};

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
        WalRecord::physical(
            ObjectId::new(rng.gen_range(0..8)),
            Value::new(rng.gen_range(0..=u64::MAX)),
            Time::from_ticks(rng.gen_range(0..1_000_000)),
        )
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
    let probe = WalRecord::physical(
        ObjectId::new(0),
        Value::new(424_242),
        Time::from_ticks(2_000_000),
    );
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

/// `records` as generation 5 logged them: today's header under version 5,
/// each physical record with the issue time and writer it then carried.
fn v5_log(records: &[WalRecord]) -> Vec<u8> {
    let mut log = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let mut w = Writer::new();
        w.uvar(i as u64 + 1);
        match record {
            WalRecord::Physical {
                object,
                value,
                alpha,
                ..
            } => {
                w.u8(0);
                put_object(&mut w, *object);
                put_value(&mut w, *value);
                put_time(&mut w, *alpha);
                put_time(&mut w, *alpha); // issued_at
                w.uvar(1); // writer
            }
            WalRecord::Causal {
                object,
                writer,
                seq,
                value,
                alpha_t,
                alpha_v,
            } => {
                w.u8(1);
                put_object(&mut w, *object);
                w.uvar(*writer as u64);
                w.uvar(*seq);
                put_value(&mut w, *value);
                put_time(&mut w, *alpha_t);
                put_vclock(&mut w, alpha_v);
            }
        }
        let payload = w.into_bytes();
        let (len, width) = uvar_encoding(payload.len() as u64);
        let mut header = vec![MAGIC, 5, 0];
        header.extend_from_slice(&len[..width]);
        let crc = crc32_pair(&header, &payload);
        log.extend_from_slice(&header);
        log.extend_from_slice(&crc.to_le_bytes());
        log.extend_from_slice(&payload);
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A log generation 5 wrote is refused by its version and left as it
    /// was: no record of it is replayed, and none truncated away.
    #[test]
    fn a_v5_log_is_refused_untouched(records in ArbHistory) {
        let dir = temp_dir("v5");
        fs::create_dir_all(&dir).unwrap();
        let seg = dir.join(format!("seg-{:020}.wal", 0));
        let log = v5_log(&records);
        fs::write(&seg, &log).unwrap();
        let refused = WalStore::try_open(&dir, 0, u64::MAX).err();
        prop_assert_eq!(refused, Some(Refusal::AlienVersion { path: seg.clone(), found: 5 }));
        prop_assert_eq!(fs::read(&seg).unwrap(), log);
        prop_assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

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
    /// recovery still yields a valid prefix of the written history. The
    /// CRC covers the whole frame, header included, so every flip is seen:
    /// one in a frame's *version* byte (header byte 1) makes it read as
    /// another wire generation, which recovery cannot tell from a log
    /// another build wrote, so the directory is refused and not a byte of
    /// it changes; any other flip is corruption, and replay stops at it.
    #[test]
    fn a_flipped_bit_never_poisons_replay(
        records in ArbHistory,
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let (dir, seg) = write_history("flip", &records);
        let mut bytes = fs::read(&seg).unwrap();
        let at = pos % bytes.len();
        let (mut frame_start, mut hit) = (0, 0);
        while let Ok((_, _, used)) = decode_frame_body(&bytes[frame_start..]) {
            if at < frame_start + used {
                break;
            }
            frame_start += used;
            hit += 1;
        }
        bytes[at] ^= 1 << bit;
        fs::write(&seg, &bytes).unwrap();

        // The version is header byte 1.
        if at - frame_start == 1 {
            let found = u16::from(WIRE_VERSION ^ (1 << bit));
            let refused = WalStore::try_open(&dir, 0, u64::MAX).err();
            prop_assert_eq!(refused, Some(Refusal::AlienVersion { path: seg.clone(), found }));
            prop_assert_eq!(fs::read(&seg).unwrap(), bytes);
            let _ = fs::remove_dir_all(&dir);
            return Ok(());
        }

        // Exact loss accounting on the first open: the flip kills exactly
        // the frame it hit, replay keeps every frame before it, and every
        // intact frame after it is unreplayable (the index chain is
        // broken) — so the store must report precisely `written −
        // recovered` records lost.
        let store = WalStore::open(&dir, 0, u64::MAX);
        let k = store.records() as usize;
        prop_assert!(store.last_recovery().corrupted_tail, "flip at {} unseen", at);
        prop_assert_eq!(k, hit);
        prop_assert_eq!(store.last_recovery().lost as usize, records.len() - k);
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
        // Frames start with the fixed magic; a strict prefix of the first
        // frame is exactly what a torn append of a next record looks like.
        let first_frame = decode_frame_body(&bytes).unwrap().2;
        let torn_len = 1 + tear % (first_frame - 1);
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
