//! `tc-durable`: a write-ahead-logged [`ShardStore`] backend with
//! snapshots, segment rotation, and configurable fsync batching.
//!
//! # On-disk layout
//!
//! One directory per shard:
//!
//! ```text
//! shard-dir/
//!   seg-00000000000000000000.wal   records 1..      (append-only)
//!   snap-00000000000000000512.snap image after 512  (one frame)
//!   seg-00000000000000000512.wal   records 513..
//! ```
//!
//! Both file kinds are sequences of **tc-wire frames** — the same
//! magic/version/lane/length/CRC-32 header the TCP transport speaks
//! ([`tc_wire::encode_frame_body_into`] /
//! [`tc_wire::decode_frame_body`]) — so log corruption is detected by the
//! codec the rest of the system already trusts, and a WAL segment is
//! inspectable with the same tooling as a packet capture. A record frame's
//! payload is a global record index plus one [`WalRecord`]; a snapshot
//! frame's payload is a serialized [`ShardImage`]; every frame's lane is
//! the shard that wrote it. The numeric suffix of every file is the count
//! of records it presupposes: segment `seg-N` holds records `N+1, N+2, …`;
//! snapshot `snap-N` holds the image after applying records `1..=N`.
//!
//! # Durability contract
//!
//! [`WalStore::apply`] encodes the record into an in-memory tail and
//! applies it to the *applied* image only; [`WalStore::sync`] writes the
//! tail, `fsync`s the segment, and promotes the records into the *durable*
//! image that [`WalStore::durable_version`] serves. The engine decides
//! *when* to sync ([`tc_lifetime::FsyncPolicy`]: per-write, group commit
//! of N, or deadline-batched) and defers write acks until the covering
//! sync — so everything this store can lose in a crash (the unsynced
//! tail) is precisely what no client was ever told succeeded.
//!
//! # Recovery
//!
//! [`WalStore::restart`] (or [`WalStore::open`] on a dirty directory)
//! rebuilds the image from the newest decodable snapshot plus the segments
//! after it, replaying records in order and **stopping cleanly at the
//! first invalid frame** — a truncated tail, a torn write, or a flipped
//! bit ends replay at the last valid record instead of propagating garbage
//! (the corruption proptests pin this). The segment is then truncated back
//! to the valid prefix so new appends extend a clean log.
//!
//! Two kinds of frame are *not* a tail to cut, and [`WalStore::try_open`]
//! refuses a directory holding either, touching no file:
//!
//! * a frame of another wire generation ([`WireError::BadVersion`], and
//!   [`Refusal::AlienVersion`]): a header of today's form naming another
//!   version (generation 5's among them), or a generation 1–4 frame, which
//!   tc-wire's legacy gate reads by its old 16-byte header. A torn write
//!   leaves a short frame or a failed CRC, never a well-formed header of a
//!   different generation — that is a log written by another build
//!   (generation 1 wrote every integer fixed-width, generation 2 all but
//!   the clock entries; generations 3 to 5 wrote causal records as this
//!   one does, and physical ones with the writer's issue time and node
//!   index after α), every record of which was acknowledged. A bit flip
//!   that lands exactly in the version byte reads the same and is refused
//!   too; refusal destroys nothing.
//! * a valid frame whose lane names another shard
//!   ([`Refusal::ForeignShard`]): the CRC covers the lane, so this is no
//!   bit flip but another shard's log, and replaying it would graft that
//!   shard's records onto this one's image.
//!
//! Segment rotation happens at sync time: once the live segment holds
//! `snapshot_every` records, the durable image is snapshotted, a fresh
//! segment starts, and files superseded by the snapshot are deleted.
//!
//! I/O failure handling is deliberately blunt: this is a research store,
//! so any filesystem error — and, through [`WalStore::open`], an alien
//! log — panics with context rather than threading `Result` through the
//! engine seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use tc_clocks::Time;
use tc_core::{ObjectId, Value};
use tc_lifetime::store::{Recovery, ShardImage, ShardStore, StoredVersion, WalRecord};
use tc_lifetime::CausalStamp;
use tc_wire::{
    decode_frame_body, encode_frame_body_into, get_object, get_time, get_value, get_vclock,
    put_object, put_time, put_value, put_vclock, Reader, WireError, Writer,
};

const RECORD_PHYSICAL: u8 = 0;
const RECORD_CAUSAL: u8 = 1;

/// Default rotation threshold: snapshot and start a new segment once the
/// live segment holds this many records.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

fn seg_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:020}.wal"))
}

fn snap_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("snap-{n:020}.snap"))
}

/// Parses `prefix-<n>.<ext>` back into `n`.
fn file_seq(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(ext)?;
    digits.parse().ok()
}

/// Encodes one record frame (global index + record) onto `buf`.
fn encode_record(buf: &mut Vec<u8>, shard: u16, index: u64, record: &WalRecord) {
    encode_frame_body_into(buf, shard, |w| {
        w.uvar(index);
        match record {
            WalRecord::Physical {
                object,
                value,
                alpha,
                ..
            } => {
                w.u8(RECORD_PHYSICAL);
                put_object(w, *object);
                put_value(w, *value);
                put_time(w, *alpha);
            }
            WalRecord::Causal {
                object,
                writer,
                seq,
                value,
                alpha_t,
                alpha_v,
            } => {
                w.u8(RECORD_CAUSAL);
                put_object(w, *object);
                w.uvar(*writer as u64);
                w.uvar(*seq);
                put_value(w, *value);
                put_time(w, *alpha_t);
                put_vclock(w, alpha_v);
            }
        }
    });
}

/// Decodes one record frame payload.
fn decode_record(payload: &[u8]) -> Result<(u64, WalRecord), WireError> {
    let mut r = Reader::new(payload);
    let index = r.uvar("record index")?;
    let record = match r.u8("record kind")? {
        RECORD_PHYSICAL => WalRecord::physical(
            get_object(&mut r)?,
            get_value(&mut r)?,
            get_time(&mut r, "alpha")?,
        ),
        RECORD_CAUSAL => WalRecord::Causal {
            object: get_object(&mut r)?,
            writer: r.uvar_u32("writer")? as usize,
            seq: r.uvar("seq")?,
            value: get_value(&mut r)?,
            alpha_t: get_time(&mut r, "alpha_t")?,
            alpha_v: get_vclock(&mut r)?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "wal record kind",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((index, record))
}

/// A snapshot's version: value and α, then a presence byte and, for a
/// causal version, its clock and writer.
fn put_stored(w: &mut Writer, v: &StoredVersion) {
    put_value(w, v.value);
    put_time(w, v.alpha_t);
    match &v.causal {
        None => w.u8(0),
        Some(stamp) => {
            w.u8(1);
            put_vclock(w, &stamp.alpha_v);
            w.uvar(stamp.writer as u64);
        }
    }
}

fn get_stored(r: &mut Reader<'_>) -> Result<StoredVersion, WireError> {
    Ok(StoredVersion {
        value: get_value(r)?,
        alpha_t: get_time(r, "alpha_t")?,
        causal: match r.u8("stamp presence")? {
            0 => None,
            1 => Some(CausalStamp {
                alpha_v: get_vclock(r)?,
                writer: r.uvar_u32("writer")? as usize,
            }),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "stamp presence",
                    tag,
                })
            }
        },
    })
}

/// Encodes a snapshot frame of `image` onto `buf`.
fn encode_snapshot(buf: &mut Vec<u8>, shard: u16, image: &ShardImage) {
    encode_frame_body_into(buf, shard, |w| {
        w.uvar(image.records());
        w.uvar(image.writes_applied());
        put_time(w, image.last_alpha());
        let versions = image.versions_sorted();
        w.uvar(versions.len() as u64);
        for (object, stored) in &versions {
            put_object(w, *object);
            put_stored(w, stored);
        }
        let physical = image.physical_sorted();
        w.uvar(physical.len() as u64);
        for (value, alpha) in &physical {
            put_value(w, *value);
            put_time(w, *alpha);
        }
        let cursors = image.cursors_sorted();
        w.uvar(cursors.len() as u64);
        for (writer, seq) in &cursors {
            w.uvar(*writer as u64);
            w.uvar(*seq);
        }
    });
}

/// Decodes a snapshot frame payload back into a [`ShardImage`].
fn decode_snapshot(payload: &[u8]) -> Result<ShardImage, WireError> {
    let mut r = Reader::new(payload);
    let records = r.uvar("snapshot records")?;
    let writes_applied = r.uvar("snapshot writes")?;
    let last_alpha = get_time(&mut r, "snapshot last_alpha")?;
    let n = r.uvar_u32("snapshot versions")?;
    let mut versions = Vec::with_capacity(n as usize);
    for _ in 0..n {
        versions.push((get_object(&mut r)?, get_stored(&mut r)?));
    }
    let n = r.uvar_u32("snapshot physical")?;
    let mut physical = Vec::with_capacity(n as usize);
    for _ in 0..n {
        physical.push((get_value(&mut r)?, get_time(&mut r, "physical alpha")?));
    }
    let n = r.uvar_u32("snapshot cursors")?;
    let mut cursors = Vec::with_capacity(n as usize);
    for _ in 0..n {
        cursors.push((r.uvar_u32("cursor writer")? as usize, r.uvar("cursor seq")?));
    }
    r.finish()?;
    Ok(ShardImage::from_parts(
        versions,
        physical,
        cursors,
        last_alpha,
        writes_applied,
        records,
    ))
}

/// Why [`WalStore::try_open`] refused a directory. Nothing was truncated,
/// created or deleted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// A file holds a frame of another wire generation.
    AlienVersion {
        /// The segment or snapshot holding the frame.
        path: PathBuf,
        /// The version its header declares.
        found: u16,
    },
    /// A file holds a frame another shard wrote.
    ForeignShard {
        /// The segment or snapshot holding the frame.
        path: PathBuf,
        /// The shard its lane names.
        lane: u16,
        /// The shard the directory was opened for.
        shard: u16,
    },
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::AlienVersion { path, found } => write!(
                f,
                "{path:?} holds a wire v{found} frame; this build reads v{} only — refusing \
                 the directory rather than truncating a log another build wrote",
                tc_wire::WIRE_VERSION
            ),
            Refusal::ForeignShard { path, lane, shard } => write!(
                f,
                "{path:?} holds a frame of shard {lane}, opened for shard {shard} — refusing \
                 the directory rather than replaying another shard's log"
            ),
        }
    }
}

impl std::error::Error for Refusal {}

/// [`decode_frame_body`] for recovery: an alien version or another shard's
/// frame refuses the whole directory (`Err`), every other failure is
/// corruption to stop at (`Ok(None)`).
fn decode_or_refuse<'a>(
    bytes: &'a [u8],
    path: &Path,
    shard: u16,
) -> Result<Option<(&'a [u8], usize)>, Refusal> {
    match decode_frame_body(bytes) {
        Ok((lane, _, _)) if lane != shard => Err(Refusal::ForeignShard {
            path: path.to_path_buf(),
            lane,
            shard,
        }),
        Ok((_, payload, used)) => Ok(Some((payload, used))),
        Err(WireError::BadVersion { found }) => Err(Refusal::AlienVersion {
            path: path.to_path_buf(),
            found,
        }),
        Err(_) => Ok(None),
    }
}

/// What [`recover`] reconstructed from a shard directory.
struct Recovered {
    image: ShardImage,
    from_snapshot: u64,
    replayed: u64,
    corrupted_tail: bool,
    /// Record frames destroyed past the corruption point — whole frames
    /// that still decode but can no longer be replayed (the index chain is
    /// broken) plus one per torn byte-gap. Zero on a clean log.
    lost_truncated: u64,
    /// The segment appends continue into, and the byte length of its valid
    /// prefix (everything after is truncated away).
    live_segment: (u64, u64),
}

/// Counts record frames lost in `bytes[start..]`, the region past a
/// corruption point: every complete frame that still decodes as a record
/// (found by resynchronising on the wire magic byte-by-byte) counts one,
/// and every contiguous undecodable gap — a torn partial frame, a
/// bit-flipped header, truncated trailing bytes — counts one more. A gap
/// may hide several destroyed frames, so this is a lower bound; what it
/// fixes is the old accounting, which counted the region as *zero*.
fn count_torn_records(bytes: &[u8], start: usize) -> u64 {
    let mut lost = 0u64;
    let mut offset = start;
    let mut in_gap = false;
    while offset < bytes.len() {
        if let Ok((_, payload, used)) = decode_frame_body(&bytes[offset..]) {
            if decode_record(payload).is_ok() {
                lost += 1;
                offset += used;
                in_gap = false;
                continue;
            }
        }
        if !in_gap {
            lost += 1;
            in_gap = true;
        }
        offset += 1;
    }
    lost
}

/// Rebuilds `shard`'s durable image from `dir`: newest decodable snapshot,
/// then the segments after it, stopping at the first invalid frame — or
/// refusing outright at a frame of another wire generation or shard.
fn recover(dir: &Path, shard: u16) -> Result<Recovered, Refusal> {
    let mut seg_seqs: Vec<u64> = Vec::new();
    let mut snap_seqs: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read wal dir {dir:?}: {e}")) {
        let entry = entry.unwrap_or_else(|e| panic!("read wal dir entry in {dir:?}: {e}"));
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = file_seq(name, "seg-", ".wal") {
            seg_seqs.push(n);
        } else if let Some(n) = file_seq(name, "snap-", ".snap") {
            snap_seqs.push(n);
        }
    }
    seg_seqs.sort_unstable();
    snap_seqs.sort_unstable();

    // Newest decodable snapshot wins; a corrupt snapshot falls back to the
    // previous one (the files it superseded are deleted only after the
    // next one is safely on disk, so a fallback always has its segments).
    let mut image = ShardImage::new();
    let mut from_snapshot = 0u64;
    for &n in snap_seqs.iter().rev() {
        let path = snap_path(dir, n);
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        let Some((payload, used)) = decode_or_refuse(&bytes, &path, shard)? else {
            continue;
        };
        if used != bytes.len() {
            continue;
        }
        let Ok(decoded) = decode_snapshot(payload) else {
            continue;
        };
        if decoded.records() != n {
            continue;
        }
        image = decoded;
        from_snapshot = n;
        break;
    }

    let mut replayed = 0u64;
    let mut corrupted_tail = false;
    let mut lost_truncated = 0u64;
    let mut live_segment = (from_snapshot, 0u64);
    let live_seqs: Vec<u64> = seg_seqs
        .iter()
        .copied()
        .filter(|&s| s >= from_snapshot)
        .collect();
    for (i, &seq) in live_seqs.iter().enumerate() {
        let path = seg_path(dir, seq);
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let mut offset = 0usize;
        while offset < bytes.len() {
            let Some((payload, used)) = decode_or_refuse(&bytes[offset..], &path, shard)? else {
                // Torn or corrupted frame: replay ends at the last valid
                // record; everything after was never acknowledged durable.
                corrupted_tail = true;
                break;
            };
            match decode_record(payload) {
                Ok((index, record)) if index == image.records() + 1 => {
                    image.apply(&record);
                    replayed += 1;
                }
                // A bad payload or an out-of-order index is corruption
                // just like a bad CRC — stop at the last good record.
                Ok(_) | Err(_) => {
                    corrupted_tail = true;
                    break;
                }
            }
            offset += used;
        }
        live_segment = (seq, offset as u64);
        if corrupted_tail {
            // Account for everything replay abandoned: the rest of this
            // segment past the corruption point, plus every whole later
            // segment (their index chains hang off records that no longer
            // exist, so none of their frames can ever be replayed).
            lost_truncated = count_torn_records(&bytes, offset);
            for &later in &live_seqs[i + 1..] {
                let later_path = seg_path(dir, later);
                let later_bytes =
                    fs::read(&later_path).unwrap_or_else(|e| panic!("read {later_path:?}: {e}"));
                lost_truncated += count_torn_records(&later_bytes, 0);
            }
            break;
        }
    }
    Ok(Recovered {
        image,
        from_snapshot,
        replayed,
        corrupted_tail,
        lost_truncated,
        live_segment,
    })
}

/// The WAL+snapshot [`ShardStore`] backend.
pub struct WalStore {
    dir: PathBuf,
    shard: u16,
    snapshot_every: u64,
    /// Image of everything fsynced — what readers are served from.
    durable: ShardImage,
    /// Image of everything appended (synced or not) — what the engine's
    /// write path consults.
    applied: ShardImage,
    /// Records appended since the last sync, in order.
    tail: Vec<WalRecord>,
    /// The encoded frames of `tail`, ready for one `write_all`.
    tail_bytes: Vec<u8>,
    /// The open live segment.
    file: File,
    /// Sequence (records before it) of the live segment.
    seg_base: u64,
    /// Total fsyncs performed (throughput accounting for the benches).
    syncs: u64,
    /// Cumulative replay/loss accounting across restarts.
    last_recovery: Recovery,
}

impl WalStore {
    /// Opens (or creates) the WAL under `dir` for `shard`, recovering
    /// whatever a previous incarnation made durable. `snapshot_every`
    /// bounds segment length in records before rotation.
    ///
    /// # Panics
    ///
    /// Panics on any filesystem error, and on a directory written by
    /// another wire generation or shard (see [`WalStore::try_open`]).
    #[must_use]
    pub fn open(dir: impl Into<PathBuf>, shard: u16, snapshot_every: u64) -> WalStore {
        WalStore::try_open(dir, shard, snapshot_every).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`WalStore::open`], except that a directory holding a frame of
    /// another wire generation or another shard is an error instead of a
    /// panic. Either way the refusal happens before any file is truncated,
    /// created or deleted.
    ///
    /// # Errors
    ///
    /// A [`Refusal`] naming the file and the version or shard found.
    ///
    /// # Panics
    ///
    /// Panics on any filesystem error.
    pub fn try_open(
        dir: impl Into<PathBuf>,
        shard: u16,
        snapshot_every: u64,
    ) -> Result<WalStore, Refusal> {
        let dir = dir.into();
        assert!(snapshot_every >= 1, "rotation needs at least one record");
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create wal dir {dir:?}: {e}"));
        let recovered = recover(&dir, shard)?;
        let (seg_base, valid_len) = recovered.live_segment;
        let path = seg_path(&dir, seg_base);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {path:?}: {e}"));
        // Truncate a corrupted tail back to the valid prefix so appends
        // extend a clean log.
        let on_disk = file
            .metadata()
            .unwrap_or_else(|e| panic!("stat {path:?}: {e}"))
            .len();
        if on_disk > valid_len {
            file.set_len(valid_len)
                .unwrap_or_else(|e| panic!("truncate {path:?}: {e}"));
        }
        let last_recovery = Recovery {
            replayed: recovered.replayed,
            from_snapshot: recovered.from_snapshot,
            // Frames the corruption destroyed on disk; `restart` adds the
            // crash-discarded in-memory tail on top.
            lost: recovered.lost_truncated,
            corrupted_tail: recovered.corrupted_tail,
            recovery_point: recovered.image.records(),
        };
        Ok(WalStore {
            dir,
            shard,
            snapshot_every,
            applied: recovered.image.clone(),
            durable: recovered.image,
            tail: Vec::new(),
            tail_bytes: Vec::new(),
            file,
            seg_base,
            syncs: 0,
            last_recovery,
        })
    }

    /// The recovery report of the most recent [`WalStore::open`] /
    /// [`ShardStore::restart`].
    #[must_use]
    pub fn last_recovery(&self) -> Recovery {
        self.last_recovery
    }

    /// Total fsyncs performed by this incarnation.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Rotates the live segment if it reached the snapshot threshold:
    /// snapshot the durable image, start a fresh segment, prune files the
    /// snapshot superseded. Called with the tail already synced.
    fn maybe_rotate(&mut self) {
        let covered = self.durable.records();
        if covered - self.seg_base < self.snapshot_every {
            return;
        }
        let snap = snap_path(&self.dir, covered);
        let mut bytes = Vec::new();
        encode_snapshot(&mut bytes, self.shard, &self.durable);
        let mut f = File::create(&snap).unwrap_or_else(|e| panic!("create {snap:?}: {e}"));
        f.write_all(&bytes)
            .and_then(|()| f.sync_data())
            .unwrap_or_else(|e| panic!("write {snap:?}: {e}"));
        let path = seg_path(&self.dir, covered);
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {path:?}: {e}"));
        let old_base = self.seg_base;
        self.seg_base = covered;
        // Best-effort prune: everything strictly older than the new
        // snapshot is superseded (kept until now so a torn snapshot write
        // could still fall back).
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = file_seq(name, "seg-", ".wal").is_some_and(|n| n <= old_base)
                || file_seq(name, "snap-", ".snap").is_some_and(|n| n < covered);
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

impl ShardStore for WalStore {
    fn durable_version(&self, object: ObjectId) -> StoredVersion {
        self.durable.current(object)
    }

    fn last_alpha(&self) -> Time {
        self.applied.last_alpha()
    }

    fn physical_alpha(&self, value: Value) -> Option<Time> {
        self.applied.physical_alpha(value)
    }

    fn causal_cursor(&self, writer: usize) -> u64 {
        self.applied.causal_cursor(writer)
    }

    fn apply(&mut self, record: &WalRecord) -> bool {
        let won = self.applied.apply(record);
        encode_record(
            &mut self.tail_bytes,
            self.shard,
            self.applied.records(),
            record,
        );
        self.tail.push(record.clone());
        won
    }

    fn pending(&self) -> usize {
        self.tail.len()
    }

    fn sync(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.file
            .write_all(&self.tail_bytes)
            .and_then(|()| self.file.sync_data())
            .unwrap_or_else(|e| panic!("sync wal segment in {:?}: {e}", self.dir));
        self.tail_bytes.clear();
        for record in self.tail.drain(..) {
            self.durable.apply(&record);
        }
        self.syncs += 1;
        self.maybe_rotate();
    }

    fn restart(&mut self) -> Recovery {
        // Crash: the unsynced tail is gone. Rebuild from disk exactly as a
        // fresh process would.
        let tail_lost = self.tail.len() as u64;
        let reopened = WalStore::open(self.dir.clone(), self.shard, self.snapshot_every);
        let syncs = self.syncs;
        *self = reopened;
        self.syncs = syncs;
        // `open` counted what corruption destroyed on disk; both loss
        // channels flow into one figure.
        self.last_recovery.lost += tail_lost;
        self.last_recovery
    }

    fn writes_applied(&self) -> u64 {
        self.applied.writes_applied()
    }

    fn records(&self) -> u64 {
        self.applied.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tc_clocks::VectorClock;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "tc-durable-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn phys(object: u32, value: u64, alpha: u64) -> WalRecord {
        WalRecord::physical(
            ObjectId::new(object),
            Value::new(value),
            Time::from_ticks(alpha),
        )
    }

    fn causal(object: u32, value: u64, at: u64, writer: usize, seq: u64) -> WalRecord {
        let mut clock = VectorClock::new(writer, 4);
        for _ in 0..seq {
            use tc_clocks::SiteClock;
            clock.tick();
        }
        WalRecord::Causal {
            object: ObjectId::new(object),
            writer,
            seq,
            value: Value::new(value),
            alpha_t: Time::from_ticks(at),
            alpha_v: clock,
        }
    }

    #[test]
    fn unsynced_records_are_invisible_and_lost_on_restart() {
        let dir = temp_dir("tail");
        let mut store = WalStore::open(&dir, 0, 1024);
        store.apply(&phys(1, 10, 5));
        store.sync();
        store.apply(&phys(1, 11, 9));
        assert_eq!(store.pending(), 1);
        // Readers see only the synced image.
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(10)
        );
        // The write path sees everything appended.
        assert_eq!(store.last_alpha(), Time::from_ticks(9));
        let rec = store.restart();
        assert_eq!(rec.lost, 1);
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.recovery_point, 1);
        assert!(!rec.corrupted_tail);
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(10)
        );
        assert_eq!(store.last_alpha(), Time::from_ticks(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_process_recovers_versions_and_cursors() {
        let dir = temp_dir("reopen");
        {
            let mut store = WalStore::open(&dir, 3, 1024);
            store.apply(&phys(1, 10, 5));
            store.apply(&causal(2, 21, 8, 2, 1));
            store.apply(&causal(2, 22, 9, 2, 2));
            store.sync();
        }
        let store = WalStore::open(&dir, 3, 1024);
        assert_eq!(store.records(), 3);
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(10)
        );
        assert_eq!(
            store.durable_version(ObjectId::new(2)).value,
            Value::new(22)
        );
        assert_eq!(store.causal_cursor(2), 2);
        assert_eq!(
            store.physical_alpha(Value::new(10)),
            Some(Time::from_ticks(5))
        );
        assert_eq!(store.last_recovery().replayed, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_snapshots_prune_and_still_recover() {
        let dir = temp_dir("rotate");
        {
            let mut store = WalStore::open(&dir, 0, 4);
            for i in 0..10u64 {
                store.apply(&phys(1, 100 + i, 10 + i));
                store.sync();
            }
        }
        // Two rotations happened (after 4 and 8 records); early segments
        // and the older snapshot are gone.
        assert!(!seg_path(&dir, 0).exists());
        assert!(!snap_path(&dir, 4).exists());
        assert!(snap_path(&dir, 8).exists());
        assert!(seg_path(&dir, 8).exists());
        let store = WalStore::open(&dir, 0, 4);
        assert_eq!(store.records(), 10);
        assert_eq!(store.last_recovery().from_snapshot, 8);
        assert_eq!(store.last_recovery().replayed, 2);
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(109)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_stops_replay_at_the_last_valid_record() {
        let dir = temp_dir("trunc");
        {
            let mut store = WalStore::open(&dir, 0, 1024);
            for i in 0..5u64 {
                store.apply(&phys(1, 100 + i, 10 + i));
            }
            store.sync();
        }
        let path = seg_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap(); // tear the final frame
        let store = WalStore::open(&dir, 0, 1024);
        assert_eq!(store.records(), 4);
        assert!(store.last_recovery().corrupted_tail);
        assert_eq!(store.last_recovery().recovery_point, 4);
        assert_eq!(
            store.last_recovery().lost,
            1,
            "the torn fifth frame must count as lost, not vanish"
        );
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(103)
        );
        // The torn bytes were truncated away: appending works cleanly.
        let mut store = store;
        store.apply(&phys(1, 200, 50));
        store.sync();
        let store = WalStore::open(&dir, 0, 1024);
        assert_eq!(store.records(), 5);
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(200)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Frames `payload` as generation `version` (1–4) did, behind the old
    /// fixed 16-byte header, as a one-record segment, and checks that
    /// opening its directory refuses it by name and leaves every file as it
    /// was.
    fn assert_refused_untouched(tag: &str, version: u16, payload: &[u8]) {
        let mut frame = Writer::new();
        for b in tc_wire::LEGACY_MAGIC {
            frame.u8(b);
        }
        frame.u16(version);
        frame.u16(0);
        frame.u32(payload.len() as u32);
        frame.u32(tc_wire::crc32(payload));
        let mut old_log = frame.into_bytes();
        old_log.extend_from_slice(payload);

        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        let seg = seg_path(&dir, 0);
        fs::write(&seg, &old_log).unwrap();
        let refused = WalStore::try_open(&dir, 0, 1024).err();
        assert_eq!(
            refused,
            Some(Refusal::AlienVersion {
                path: seg.clone(),
                found: version
            })
        );
        assert_eq!(fs::read(&seg).unwrap(), old_log, "a refused log is intact");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "and nothing new");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment exactly as generation 1 wrote it — version 1 in the
    /// header, the clock as `u32 site, u32 width, u64 entries` — must be
    /// refused by name. Before the version gate was told apart from
    /// corruption, opening it truncated every acknowledged record away.
    #[test]
    fn a_v1_segment_is_refused_and_left_untouched() {
        let mut payload = Writer::new();
        payload.u64(1); // record index
        payload.u8(RECORD_CAUSAL);
        payload.u32(2); // object
        payload.u64(1); // writer
        payload.u64(1); // seq
        payload.u64(21); // value
        payload.u64(8); // alpha_t
        payload.u32(1); // v1 clock: owner site ...
        payload.u32(4); // ... width ...
        for entry in [0u64, 1, 0, 0] {
            payload.u64(entry); // ... fixed-width entries
        }
        assert_refused_untouched("v1", 1, &payload.into_bytes());
    }

    /// A segment as generation 2 wrote it — fixed-width scalars, the
    /// clock's entries plain varints — is refused the same way: there is
    /// no v2 decode path.
    #[test]
    fn a_v2_segment_is_refused_and_left_untouched() {
        let mut payload = Writer::new();
        payload.u64(1); // record index
        payload.u8(RECORD_CAUSAL);
        payload.u32(2); // object
        payload.u64(1); // writer
        payload.u64(1); // seq
        payload.u64(21); // value
        payload.u64(8); // alpha_t
        payload.uvar(1); // v2 clock: owner site ...
        payload.uvar(4); // ... width ...
        for entry in [0u64, 1, 0, 0] {
            payload.uvar(entry); // ... varint entries, no base
        }
        assert_refused_untouched("v2", 2, &payload.into_bytes());
    }

    /// A causal record payload as generations 3 to 6 all lay it out.
    fn current_record_payload() -> Vec<u8> {
        let record = WalRecord::Causal {
            object: ObjectId::new(2),
            writer: 1,
            seq: 1,
            value: Value::new(21),
            alpha_t: Time::from_ticks(8),
            alpha_v: VectorClock::from_entries(1, vec![0, 1, 0, 0]),
        };
        let mut frame = Vec::new();
        encode_record(&mut frame, 0, 1, &record);
        decode_frame_body(&frame).unwrap().1.to_vec()
    }

    /// A segment as generation 3 wrote it: the record layout is this
    /// generation's, only the header differs — and that alone refuses it,
    /// untouched.
    #[test]
    fn a_v3_segment_is_refused_and_left_untouched() {
        assert_refused_untouched("v3", 3, &current_record_payload());
    }

    /// Generation 4 changed only the protocol's ack messages: its records
    /// are this generation's too, and its 16-byte header refuses it all the
    /// same.
    #[test]
    fn a_v4_segment_is_refused_and_left_untouched() {
        assert_refused_untouched("v4", 4, &current_record_payload());
    }

    /// A segment as generation 5 wrote it: today's header with version 5,
    /// and a physical record still carrying the writer's issue time and
    /// node index. Decoded as this generation's record it would not even
    /// end where its frame does; its version refuses it first, untouched.
    #[test]
    fn a_v5_segment_is_refused_and_left_untouched() {
        let mut payload = Writer::new();
        payload.uvar(1); // record index
        payload.u8(RECORD_PHYSICAL);
        for field in [2, 21, 8, 7, 1] {
            payload.uvar(field); // object, value, alpha, issued_at, writer
        }
        let payload = payload.into_bytes();
        let mut old_log = vec![tc_wire::MAGIC, 5, 0, payload.len() as u8];
        let crc = tc_wire::crc32_pair(&old_log, &payload);
        old_log.extend_from_slice(&crc.to_le_bytes());
        old_log.extend_from_slice(&payload);

        let dir = temp_dir("v5");
        fs::create_dir_all(&dir).unwrap();
        let seg = seg_path(&dir, 0);
        fs::write(&seg, &old_log).unwrap();
        assert_eq!(
            WalStore::try_open(&dir, 0, 1024).err(),
            Some(Refusal::AlienVersion {
                path: seg.clone(),
                found: 5
            })
        );
        assert_eq!(fs::read(&seg).unwrap(), old_log, "a refused log is intact");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "and nothing new");
        let _ = fs::remove_dir_all(&dir);
    }

    /// This generation's physical record is its index, kind, object, value
    /// and α, and nothing else.
    #[test]
    fn a_physical_record_is_its_object_value_and_alpha() {
        let mut frame = Vec::new();
        encode_record(&mut frame, 0, 3, &phys(2, 21, 8));
        let payload = decode_frame_body(&frame).unwrap().1;
        assert_eq!(payload, [3, RECORD_PHYSICAL, 2, 21, 8]);
        assert_eq!(decode_record(payload), Ok((3, phys(2, 21, 8))));
    }

    /// Every frame names the shard that wrote it, under the CRC: a
    /// directory holding another shard's segment or snapshot is refused by
    /// name, not replayed into this shard's image, and left as it was.
    #[test]
    fn another_shards_log_is_refused_and_left_untouched() {
        // The newest snapshot is read first, so a rotated directory is
        // refused at it, an unrotated one at its only segment.
        for (tag, snapshot_every, refused_file, seq) in [
            (
                "foreign-seg",
                1024,
                seg_path as fn(&Path, u64) -> PathBuf,
                0,
            ),
            ("foreign-snap", 2, snap_path, 2),
        ] {
            let dir = temp_dir(tag);
            {
                let mut store = WalStore::open(&dir, 3, snapshot_every);
                for i in 0..3u64 {
                    store.apply(&phys(1, 10 + i, 5 + i));
                    store.sync();
                }
            }
            let listing = |dir: &Path| {
                let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
                    .unwrap()
                    .map(|e| {
                        let path = e.unwrap().path();
                        let bytes = fs::read(&path).unwrap();
                        (path, bytes)
                    })
                    .collect();
                files.sort();
                files
            };
            let before = listing(&dir);
            assert_eq!(
                WalStore::try_open(&dir, 4, snapshot_every).err(),
                Some(Refusal::ForeignShard {
                    path: refused_file(&dir, seq),
                    lane: 3,
                    shard: 4
                }),
                "{tag}"
            );
            assert_eq!(listing(&dir), before, "{tag}: a refused log is intact");
            // Its own shard still opens it.
            assert_eq!(WalStore::open(&dir, 3, snapshot_every).records(), 3);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_directory_opens_empty() {
        let dir = temp_dir("empty");
        let store = WalStore::open(&dir, 0, 1024);
        assert_eq!(store.records(), 0);
        assert_eq!(store.pending(), 0);
        assert_eq!(
            store.durable_version(ObjectId::new(9)),
            StoredVersion::initial()
        );
        assert_eq!(store.last_recovery(), Recovery::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
