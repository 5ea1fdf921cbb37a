//! Global histories (paper §2): the partially-ordered set of all operations
//! at all sites, with program order, effective times and the reads-from
//! relation pinned down by the unique-written-values assumption.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use tc_clocks::{Time, VectorClock};

use crate::op::{ObjectId, OpId, OpKind, Operation, SiteId, Value};

/// Errors detected while assembling a [`History`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryError {
    /// A write of [`Value::INITIAL`], which is reserved for "never written".
    WriteOfInitialValue {
        /// The offending operation.
        op: OpId,
    },
    /// Two writes stored the same value in the same object, breaking the
    /// paper's unique-values assumption that pins down reads-from.
    DuplicateWrittenValue {
        /// The first write of the value.
        first: OpId,
        /// The conflicting later write.
        second: OpId,
    },
    /// A read returned a non-initial value no write ever stores.
    ReadOfUnwrittenValue {
        /// The offending read.
        op: OpId,
    },
    /// A site's effective times are not strictly increasing in program
    /// order (operations take finite, non-zero time).
    NonMonotoneSiteTime {
        /// The site whose program order is inconsistent.
        site: SiteId,
        /// The operation whose time does not exceed its predecessor's.
        op: OpId,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::WriteOfInitialValue { op } => {
                write!(f, "operation {op:?} writes the reserved initial value")
            }
            HistoryError::DuplicateWrittenValue { first, second } => write!(
                f,
                "operations {first:?} and {second:?} write the same value to the same object"
            ),
            HistoryError::ReadOfUnwrittenValue { op } => {
                write!(f, "read {op:?} returns a value that is never written")
            }
            HistoryError::NonMonotoneSiteTime { site, op } => write!(
                f,
                "effective time of {op:?} does not increase along site {site}'s program order"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

/// Incrementally assembles a [`History`].
///
/// ```
/// use tc_core::HistoryBuilder;
///
/// let mut b = HistoryBuilder::new();
/// b.write(0, 'X', 7, 100);
/// b.read(1, 'X', 7, 150);
/// let history = b.build()?;
/// assert_eq!(history.len(), 2);
/// # Ok::<(), tc_core::HistoryError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct HistoryBuilder {
    ops: Vec<Operation>,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        HistoryBuilder::default()
    }

    /// Appends a write of `value` to `object` by `site` at effective time
    /// `time` (ticks). Returns the new operation's id.
    pub fn write(
        &mut self,
        site: impl Into<SiteId>,
        object: impl IntoObject,
        value: impl Into<Value>,
        time: u64,
    ) -> OpId {
        self.push(
            site.into(),
            OpKind::Write,
            object.into_object(),
            value.into(),
            Time::from_ticks(time),
        )
    }

    /// Appends a read by `site` of `object` returning `value` at effective
    /// time `time` (ticks). Returns the new operation's id.
    pub fn read(
        &mut self,
        site: impl Into<SiteId>,
        object: impl IntoObject,
        value: impl Into<Value>,
        time: u64,
    ) -> OpId {
        self.push(
            site.into(),
            OpKind::Read,
            object.into_object(),
            value.into(),
            Time::from_ticks(time),
        )
    }

    /// Attaches a logical timestamp `L(op)` to an already-appended
    /// operation (used by executions recorded under logical clocks, §5.4).
    ///
    /// # Panics
    ///
    /// Panics if `op` was not returned by this builder.
    pub fn set_logical(&mut self, op: OpId, logical: VectorClock) {
        self.ops[op.index()].set_logical(logical);
    }

    fn push(
        &mut self,
        site: SiteId,
        kind: OpKind,
        object: ObjectId,
        value: Value,
        time: Time,
    ) -> OpId {
        let id = OpId::new(self.ops.len());
        self.ops
            .push(Operation::new(id, site, kind, object, value, time, None));
        id
    }

    /// Validates the accumulated operations and produces the [`History`].
    ///
    /// # Errors
    ///
    /// Returns a [`HistoryError`] if written values are not unique per
    /// object, a write stores the initial value, a read returns a value no
    /// write stores, or a site's effective times are not strictly
    /// increasing in program order.
    pub fn build(self) -> Result<History, HistoryError> {
        History::from_ops(self.ops)
    }
}

/// Accepts both `ObjectId` and the paper's letter names for objects.
pub trait IntoObject {
    /// Converts into an [`ObjectId`].
    fn into_object(self) -> ObjectId;
}

impl IntoObject for ObjectId {
    fn into_object(self) -> ObjectId {
        self
    }
}

impl IntoObject for char {
    fn into_object(self) -> ObjectId {
        ObjectId::from_letter(self)
    }
}

impl IntoObject for u32 {
    fn into_object(self) -> ObjectId {
        ObjectId::new(self)
    }
}

/// Sentinel in the packed `sources` column: the op is not a read.
const SRC_NOT_READ: u32 = u32::MAX;
/// Sentinel in the packed `sources` column: the read returned the initial
/// value (no source write).
const SRC_INITIAL: u32 = u32::MAX - 1;

/// The global history `H`: every operation of the execution, the per-site
/// program orders, and the derived reads-from relation.
///
/// A `History` is immutable once built, so derived structure (per-object
/// write lists sorted by effective time, reads-from sources) is computed
/// eagerly and shared by all checkers.
///
/// **Layout.** Operations are stored struct-of-arrays: one dense column
/// per field ([`site`], [`kind`], [`object`], [`value`], [`time`]) keyed
/// by the `u32`-backed [`OpId`], with the rare logical stamps (§5.4) in a
/// sparse side map. Program order and the per-object write lists are
/// CSR-style indexes — one offsets array plus one flat id array each —
/// instead of `Vec<Vec<OpId>>` / `HashMap<ObjectId, Vec<OpId>>`. A 10⁷-op
/// history is therefore ~15 large allocations total, checkers sweep
/// contiguous memory (`writes_to`, `site_ops` are plain slices), and the
/// whole structure is about 33 bytes/op instead of ~100+ with per-op heap
/// nodes. Checker verdicts are unchanged: columns are filled in id order
/// and the per-object lists sort by `(time, id)`, exactly the order the
/// previous representation's stable time sort produced.
///
/// [`site`]: History::site_of
/// [`kind`]: History::kind_of
/// [`object`]: History::object_of
/// [`value`]: History::value_of
/// [`time`]: History::time_of
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Column: executing site of each op.
    site: Vec<u32>,
    /// Column: read/write.
    kind: Vec<OpKind>,
    /// Column: object operated on.
    object: Vec<ObjectId>,
    /// Column: value written / returned.
    value: Vec<Value>,
    /// Column: effective time `T(op)`.
    time: Vec<Time>,
    /// Sparse logical stamps `L(op)` (most histories carry none).
    logical: HashMap<u32, VectorClock>,
    /// CSR program order: site `s`'s ops are
    /// `site_ops_flat[site_offsets[s] .. site_offsets[s+1]]`.
    site_offsets: Vec<u32>,
    site_ops_flat: Vec<OpId>,
    /// Position of each op within its site's sequence.
    site_pos: Vec<u32>,
    /// CSR writes-by-object: written objects, ascending; object
    /// `obj_ids[k]`'s writes are `obj_writes[obj_offsets[k] ..
    /// obj_offsets[k+1]]`, sorted by `(time, id)`.
    obj_ids: Vec<ObjectId>,
    obj_offsets: Vec<u32>,
    obj_writes: Vec<OpId>,
    /// Packed reads-from: [`SRC_NOT_READ`], [`SRC_INITIAL`], or the source
    /// write's id.
    sources: Vec<u32>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn empty() -> Self {
        History::default()
    }

    fn from_ops(ops: Vec<Operation>) -> Result<History, HistoryError> {
        let n = ops.len();
        assert!(
            n < SRC_INITIAL as usize,
            "history exceeds the u32 op id space"
        );

        // Move the operations into columns (no validation yet; every
        // validation pass below reads the columns in id order, which keeps
        // the error-reporting order of the previous representation).
        let mut site: Vec<u32> = Vec::with_capacity(n);
        let mut kind: Vec<OpKind> = Vec::with_capacity(n);
        let mut object: Vec<ObjectId> = Vec::with_capacity(n);
        let mut value: Vec<Value> = Vec::with_capacity(n);
        let mut time: Vec<Time> = Vec::with_capacity(n);
        let mut logical: HashMap<u32, VectorClock> = HashMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            site.push(op.site().index() as u32);
            kind.push(op.kind());
            object.push(op.object());
            value.push(op.value());
            time.push(op.time());
            if let Some(l) = op.into_logical() {
                logical.insert(i as u32, l);
            }
        }

        // Program order per site + strict time monotonicity, while counting
        // per-site sizes for the CSR.
        let n_sites = site.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        let mut site_counts = vec![0u32; n_sites];
        let mut site_last: Vec<Option<Time>> = vec![None; n_sites];
        let mut site_pos = vec![0u32; n];
        for i in 0..n {
            let s = site[i] as usize;
            if let Some(prev) = site_last[s] {
                if prev >= time[i] {
                    return Err(HistoryError::NonMonotoneSiteTime {
                        site: SiteId::new(s),
                        op: OpId::new(i),
                    });
                }
            }
            site_last[s] = Some(time[i]);
            site_pos[i] = site_counts[s];
            site_counts[s] += 1;
        }

        // Unique written values per object.
        let n_writes = kind.iter().filter(|k| **k == OpKind::Write).count();
        let mut writers: HashMap<(ObjectId, Value), OpId> = HashMap::with_capacity(n_writes);
        for i in 0..n {
            if kind[i] != OpKind::Write {
                continue;
            }
            if value[i].is_initial() {
                return Err(HistoryError::WriteOfInitialValue { op: OpId::new(i) });
            }
            if let Some(&first) = writers.get(&(object[i], value[i])) {
                return Err(HistoryError::DuplicateWrittenValue {
                    first,
                    second: OpId::new(i),
                });
            }
            writers.insert((object[i], value[i]), OpId::new(i));
        }

        // Reads-from resolution, packed.
        let mut sources = vec![SRC_NOT_READ; n];
        for i in 0..n {
            if kind[i] != OpKind::Read {
                continue;
            }
            sources[i] = if value[i].is_initial() {
                SRC_INITIAL
            } else {
                match writers.get(&(object[i], value[i])) {
                    Some(&w) => w.raw(),
                    None => return Err(HistoryError::ReadOfUnwrittenValue { op: OpId::new(i) }),
                }
            };
        }

        // Program-order CSR from the per-site counts.
        let mut site_offsets = vec![0u32; n_sites + 1];
        for s in 0..n_sites {
            site_offsets[s + 1] = site_offsets[s] + site_counts[s];
        }
        let mut site_ops_flat = vec![OpId::from_raw(0); n];
        {
            let mut cursors = site_offsets[..n_sites].to_vec();
            for (i, &s) in site.iter().enumerate() {
                let s = s as usize;
                site_ops_flat[cursors[s] as usize] = OpId::new(i);
                cursors[s] += 1;
            }
        }

        // Writes-by-object CSR: written objects ascending, each segment
        // filled in id order then sorted by (time, id) — identical to a
        // stable time sort of an id-ordered list.
        let mut obj_ids: Vec<ObjectId> = Vec::with_capacity(n_writes);
        for i in 0..n {
            if kind[i] == OpKind::Write {
                obj_ids.push(object[i]);
            }
        }
        obj_ids.sort_unstable();
        obj_ids.dedup();
        let slot = |o: ObjectId| {
            obj_ids
                .binary_search(&o)
                .expect("written object is indexed")
        };
        let mut obj_offsets = vec![0u32; obj_ids.len() + 1];
        for i in 0..n {
            if kind[i] == OpKind::Write {
                obj_offsets[slot(object[i]) + 1] += 1;
            }
        }
        for k in 0..obj_ids.len() {
            obj_offsets[k + 1] += obj_offsets[k];
        }
        let mut obj_writes = vec![OpId::from_raw(0); n_writes];
        {
            let mut cursors = obj_offsets[..obj_ids.len()].to_vec();
            for i in 0..n {
                if kind[i] == OpKind::Write {
                    let k = slot(object[i]);
                    obj_writes[cursors[k] as usize] = OpId::new(i);
                    cursors[k] += 1;
                }
            }
        }
        for k in 0..obj_ids.len() {
            let seg = &mut obj_writes[obj_offsets[k] as usize..obj_offsets[k + 1] as usize];
            seg.sort_unstable_by_key(|&w| (time[w.index()], w));
        }

        Ok(History {
            site,
            kind,
            object,
            value,
            time,
            logical,
            site_offsets,
            site_ops_flat,
            site_pos,
            obj_ids,
            obj_offsets,
            obj_writes,
            sources,
        })
    }

    /// Looks up one operation, materialized from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this history.
    #[must_use]
    pub fn op(&self, id: OpId) -> Operation {
        let i = id.index();
        let logical = if self.logical.is_empty() {
            None
        } else {
            self.logical.get(&id.raw()).cloned()
        };
        Operation::new(
            id,
            SiteId::new(self.site[i] as usize),
            self.kind[i],
            self.object[i],
            self.value[i],
            self.time[i],
            logical,
        )
    }

    /// Iterator over all operations in id order (materialized; hot paths
    /// should read the columns via [`Self::time_of`] and friends instead).
    pub fn iter(&self) -> impl Iterator<Item = Operation> + '_ {
        self.ids().map(|id| self.op(id))
    }

    /// Iterator over all operation ids, in id order.
    pub fn ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.len()).map(OpId::new)
    }

    /// The effective time `T(op)` column.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this history (likewise for every
    /// column accessor below).
    #[inline]
    #[must_use]
    pub fn time_of(&self, id: OpId) -> Time {
        self.time[id.index()]
    }

    /// The executing site column.
    #[inline]
    #[must_use]
    pub fn site_of(&self, id: OpId) -> SiteId {
        SiteId::new(self.site[id.index()] as usize)
    }

    /// The object column.
    #[inline]
    #[must_use]
    pub fn object_of(&self, id: OpId) -> ObjectId {
        self.object[id.index()]
    }

    /// The value column.
    #[inline]
    #[must_use]
    pub fn value_of(&self, id: OpId) -> Value {
        self.value[id.index()]
    }

    /// The kind column.
    #[inline]
    #[must_use]
    pub fn kind_of(&self, id: OpId) -> OpKind {
        self.kind[id.index()]
    }

    /// The logical stamp `L(op)`, if the execution recorded one (§5.4).
    #[must_use]
    pub fn logical_of(&self, id: OpId) -> Option<&VectorClock> {
        self.logical.get(&id.raw())
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the history contains no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Number of sites (highest site index + 1).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.site_offsets.len().saturating_sub(1)
    }

    /// The program order of `site`: its operations in execution order.
    #[must_use]
    pub fn site_ops(&self, site: SiteId) -> &[OpId] {
        let s = site.index();
        if s >= self.n_sites() {
            return &[];
        }
        &self.site_ops_flat[self.site_offsets[s] as usize..self.site_offsets[s + 1] as usize]
    }

    /// Whether `a` precedes `b` in some site's program order.
    #[must_use]
    pub fn program_order(&self, a: OpId, b: OpId) -> bool {
        self.site[a.index()] == self.site[b.index()]
            && self.site_pos[a.index()] < self.site_pos[b.index()]
    }

    /// Position of `op` within its site's program order.
    #[must_use]
    pub fn site_position(&self, op: OpId) -> usize {
        self.site_pos[op.index()] as usize
    }

    /// The writes to `object`, sorted by effective time (ties in id order).
    #[must_use]
    pub fn writes_to(&self, object: ObjectId) -> &[OpId] {
        match self.obj_ids.binary_search(&object) {
            Ok(k) => {
                &self.obj_writes[self.obj_offsets[k] as usize..self.obj_offsets[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// The objects written in this history, ascending. Borrows the index —
    /// no per-call allocation.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.obj_ids.iter().copied()
    }

    /// The write a read returns the value of: `Some(None)` means the read
    /// returned the initial value, `None` means `read` is not a read.
    #[must_use]
    pub fn source_of(&self, read: OpId) -> Option<Option<OpId>> {
        match self.sources[read.index()] {
            SRC_NOT_READ => None,
            SRC_INITIAL => Some(None),
            w => Some(Some(OpId::from_raw(w))),
        }
    }

    /// Iterator over all read ids, in id order.
    pub fn read_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.kind
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == OpKind::Read)
            .map(|(i, _)| OpId::new(i))
    }

    /// Iterator over all write ids, in id order.
    pub fn write_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.kind
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == OpKind::Write)
            .map(|(i, _)| OpId::new(i))
    }

    /// Iterator over all read operations (materialized), in id order.
    pub fn reads(&self) -> impl Iterator<Item = Operation> + '_ {
        self.read_ids().map(|id| self.op(id))
    }

    /// Iterator over all write operations (materialized), in id order.
    pub fn writes(&self) -> impl Iterator<Item = Operation> + '_ {
        self.write_ids().map(|id| self.op(id))
    }

    /// The largest effective time in the history, or zero when empty.
    #[must_use]
    pub fn max_time(&self) -> Time {
        self.time.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Parses the paper's compact notation, e.g.
    /// `"w2(C)7@340 r4(C)6@436"`. Tokens are separated by whitespace
    /// (including newlines); `w<site>(<object>)<value>@<time>` writes and
    /// `r…` reads.
    ///
    /// # Errors
    ///
    /// Returns an error if a token is malformed or the assembled history
    /// violates a [`HistoryError`] invariant.
    pub fn parse(text: &str) -> Result<History, ParseHistoryError> {
        let mut builder = HistoryBuilder::new();
        for token in text.split_whitespace() {
            let tok: OpToken = token.parse()?;
            match tok.kind {
                OpKind::Write => builder.write(tok.site, tok.object, tok.value, tok.time),
                OpKind::Read => builder.read(tok.site, tok.object, tok.value, tok.time),
            };
        }
        builder.build().map_err(ParseHistoryError::Invalid)
    }
}

impl fmt::Display for History {
    /// One line per site, in the paper's notation. The output parses back
    /// via [`History::parse`] (each token embeds its site id).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in 0..self.n_sites() {
            for (k, id) in self.site_ops(SiteId::new(s)).iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.op(*id))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from [`History::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseHistoryError {
    /// A token did not match `w<site>(<obj>)<value>@<time>`.
    BadToken {
        /// The malformed token.
        token: String,
    },
    /// The parsed operations do not form a valid history.
    Invalid(HistoryError),
}

impl fmt::Display for ParseHistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHistoryError::BadToken { token } => {
                write!(f, "malformed operation token {token:?}")
            }
            ParseHistoryError::Invalid(e) => write!(f, "invalid history: {e}"),
        }
    }
}

impl std::error::Error for ParseHistoryError {}

impl From<HistoryError> for ParseHistoryError {
    fn from(e: HistoryError) -> Self {
        ParseHistoryError::Invalid(e)
    }
}

struct OpToken {
    kind: OpKind,
    site: usize,
    object: ObjectId,
    value: u64,
    time: u64,
}

impl FromStr for OpToken {
    type Err = ParseHistoryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseHistoryError::BadToken {
            token: s.to_string(),
        };
        let mut chars = s.chars();
        let kind = match chars.next() {
            Some('w') => OpKind::Write,
            Some('r') => OpKind::Read,
            _ => return Err(bad()),
        };
        let rest: &str = chars.as_str();
        let open = rest.find('(').ok_or_else(bad)?;
        let close = rest.find(')').ok_or_else(bad)?;
        let at = rest.rfind('@').ok_or_else(bad)?;
        if !(open < close && close < at) {
            return Err(bad());
        }
        let site: usize = rest[..open].parse().map_err(|_| bad())?;
        let obj_str = &rest[open + 1..close];
        let object = if obj_str.len() == 1 {
            let c = obj_str.chars().next().unwrap();
            if !c.is_ascii_uppercase() {
                return Err(bad());
            }
            ObjectId::from_letter(c)
        } else if let Some(num) = obj_str.strip_prefix('X') {
            ObjectId::new(num.parse().map_err(|_| bad())?)
        } else {
            return Err(bad());
        };
        let value: u64 = rest[close + 1..at].parse().map_err(|_| bad())?;
        let time: u64 = rest[at + 1..].parse().map_err(|_| bad())?;
        Ok(OpToken {
            kind,
            site,
            object,
            value,
            time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> History {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 80);
        b.read(1, 'X', 1, 140);
        b.read(1, 'X', 7, 220);
        b.read(2, 'Y', 0, 50);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let h = small();
        assert_eq!(h.len(), 5);
        assert_eq!(h.n_sites(), 3);
        assert_eq!(h.site_ops(SiteId::new(1)).len(), 3);
        assert_eq!(h.writes_to(ObjectId::from_letter('X')).len(), 2);
        assert_eq!(h.max_time(), Time::from_ticks(220));
        assert!(!h.is_empty());
        assert!(History::empty().is_empty());
    }

    #[test]
    fn writes_sorted_by_time() {
        let h = small();
        let xs = h.writes_to(ObjectId::from_letter('X'));
        assert_eq!(h.op(xs[0]).value(), Value::new(1)); // @80
        assert_eq!(h.op(xs[1]).value(), Value::new(7)); // @100
    }

    #[test]
    fn reads_from_resolution() {
        let h = small();
        let w7 = h.site_ops(SiteId::new(0))[0];
        let r1 = h.site_ops(SiteId::new(1))[1];
        let r7 = h.site_ops(SiteId::new(1))[2];
        let r0 = h.site_ops(SiteId::new(2))[0];
        assert_eq!(h.source_of(r7), Some(Some(w7)));
        assert_eq!(h.source_of(r0), Some(None), "initial-value read");
        assert_eq!(h.source_of(w7), None, "writes have no source");
        let w1 = h.site_ops(SiteId::new(1))[0];
        assert_eq!(h.source_of(r1), Some(Some(w1)));
    }

    #[test]
    fn program_order_is_per_site() {
        let h = small();
        let s1 = h.site_ops(SiteId::new(1));
        assert!(h.program_order(s1[0], s1[2]));
        assert!(!h.program_order(s1[2], s1[0]));
        let s0 = h.site_ops(SiteId::new(0));
        assert!(!h.program_order(s0[0], s1[1]), "different sites");
        assert_eq!(h.site_position(s1[2]), 2);
    }

    #[test]
    fn rejects_duplicate_written_values() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 10);
        b.write(1, 'X', 7, 20);
        assert!(matches!(
            b.build(),
            Err(HistoryError::DuplicateWrittenValue { .. })
        ));
    }

    #[test]
    fn same_value_on_different_objects_is_fine() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 10);
        b.write(1, 'Y', 7, 20);
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_write_of_initial_value() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 0, 10);
        assert!(matches!(
            b.build(),
            Err(HistoryError::WriteOfInitialValue { .. })
        ));
    }

    #[test]
    fn rejects_thin_air_read() {
        let mut b = HistoryBuilder::new();
        b.read(0, 'X', 9, 10);
        assert!(matches!(
            b.build(),
            Err(HistoryError::ReadOfUnwrittenValue { .. })
        ));
    }

    #[test]
    fn rejects_non_monotone_site_times() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 100);
        b.write(0, 'Y', 2, 100); // equal time on same site
        assert!(matches!(
            b.build(),
            Err(HistoryError::NonMonotoneSiteTime { .. })
        ));
    }

    #[test]
    fn parse_round_trips_display() {
        let text = "w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)7@220 r2(Y)0@50";
        let h = History::parse(text).unwrap();
        assert_eq!(h.len(), 5);
        let shown = h.to_string();
        let h2 = History::parse(&shown).unwrap();
        assert_eq!(h2.len(), 5);
        assert_eq!(h2.op(OpId::new(0)).to_string(), "w0(X)7@100");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "x0(A)1@2", "w(A)1@2", "w0A)1@2", "w0(a)1@2", "w0(A)x@2", "w0(A)1",
        ] {
            assert!(
                History::parse(bad).is_err(),
                "token {bad:?} should not parse"
            );
        }
    }

    #[test]
    fn parse_supports_numbered_objects() {
        let h = History::parse("w0(X30)5@10 r1(X30)5@20").unwrap();
        assert_eq!(h.op(OpId::new(0)).object(), ObjectId::new(30));
    }

    #[test]
    fn objects_enumerates_written_objects() {
        let h = small();
        let objs: Vec<String> = h.objects().map(|o| o.to_string()).collect();
        assert_eq!(objs, ["X"]); // only X is written; Y only read (initial)
    }

    #[test]
    fn logical_stamp_attachment() {
        let mut b = HistoryBuilder::new();
        let w = b.write(0, 'X', 1, 10);
        b.set_logical(w, VectorClock::from_entries(0, vec![1, 0]));
        let h = b.build().unwrap();
        assert_eq!(h.op(w).logical().unwrap().entries(), &[1, 0]);
    }
}
