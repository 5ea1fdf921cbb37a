//! Operations on shared objects: the vocabulary of the paper's §2.
//!
//! The global history `H` is a set of read/write [`Operation`]s, each
//! executed by a site on one object, carrying a unique written value (the
//! paper's simplifying assumption) and an *effective time* — the instant,
//! between the operation's physical start and end, at which it is deemed to
//! take effect.

use core::fmt;

use tc_clocks::{Time, VectorClock};

/// Identifies a site (process/node) of the distributed system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(usize);

impl SiteId {
    /// Creates a site id from its index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        SiteId(index)
    }

    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for SiteId {
    fn from(index: usize) -> Self {
        SiteId(index)
    }
}

/// Identifies a shared object.
///
/// Objects with index `< 26` display as the letters the paper uses
/// (`A`, `B`, `C`, …); larger indices display as `X27`, `X28`, ….
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object id from its index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ObjectId(index)
    }

    /// Creates an object id from a letter name (`'A'` → object 0).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an ASCII uppercase letter.
    #[must_use]
    pub fn from_letter(name: char) -> Self {
        assert!(name.is_ascii_uppercase(), "object letter must be A-Z");
        ObjectId(name as u32 - 'A' as u32)
    }

    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", char::from(b'A' + self.0 as u8))
        } else {
            write!(f, "X{}", self.0)
        }
    }
}

/// A value stored in an object.
///
/// Following the paper's convention, [`Value::INITIAL`] (zero) is the
/// initial value of every object and is never written; all written values
/// are unique per object, which pins down the reads-from relation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(u64);

impl Value {
    /// The initial value of every object (never written).
    pub const INITIAL: Value = Value(0);

    /// Creates a value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Value(raw)
    }

    /// The raw value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the never-written initial value.
    #[must_use]
    pub const fn is_initial(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(raw: u64) -> Self {
        Value(raw)
    }
}

/// Identifies an operation within one [`crate::History`] (its index in the
/// history's operation table).
///
/// Backed by a `u32`: histories are bounded at ~4 billion operations, and
/// the history's columnar indexes (per-site program order, per-object
/// write lists, reads-from) store these ids densely — half the footprint
/// of a `usize` id at 10⁷-op scale.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u32);

impl OpId {
    /// Creates an operation id from an index. Primarily for tests; normal
    /// code receives ids from [`crate::HistoryBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the `u32` id space.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "op index exceeds u32 id space");
        OpId(index as u32)
    }

    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` the id is stored as (columnar indexes).
    #[must_use]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw `u32` form.
    #[must_use]
    pub(crate) const fn from_raw(raw: u32) -> Self {
        OpId(raw)
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Whether an operation reads or writes its object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// A read operation.
    Read,
    /// A write operation.
    Write,
}

/// One read or write in the global history.
#[derive(Clone, PartialEq, Debug)]
pub struct Operation {
    id: OpId,
    site: SiteId,
    kind: OpKind,
    object: ObjectId,
    value: Value,
    time: Time,
    logical: Option<VectorClock>,
}

impl Operation {
    pub(crate) fn new(
        id: OpId,
        site: SiteId,
        kind: OpKind,
        object: ObjectId,
        value: Value,
        time: Time,
        logical: Option<VectorClock>,
    ) -> Self {
        Operation {
            id,
            site,
            kind,
            object,
            value,
            time,
            logical,
        }
    }

    /// The operation's id within its history.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// The site that executed the operation.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Read or write.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The object operated on.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The value written, or the value the read returned.
    #[must_use]
    pub fn value(&self) -> Value {
        self.value
    }

    /// The effective time `T(op)` (paper §2).
    #[must_use]
    pub fn time(&self) -> Time {
        self.time
    }

    /// The logical time `L(op)` if the execution recorded one (paper §5.4).
    #[must_use]
    pub fn logical(&self) -> Option<&VectorClock> {
        self.logical.as_ref()
    }

    /// Whether this is a read.
    #[must_use]
    pub fn is_read(&self) -> bool {
        self.kind == OpKind::Read
    }

    /// Whether this is a write.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind == OpKind::Write
    }

    pub(crate) fn set_logical(&mut self, logical: VectorClock) {
        self.logical = Some(logical);
    }

    /// Consumes the operation, extracting its logical stamp without a
    /// clone (used when moving operations into the history's columns).
    pub(crate) fn into_logical(self) -> Option<VectorClock> {
        self.logical
    }
}

impl fmt::Display for Operation {
    /// Formats in the paper's notation: `w2(C)7@340` / `r4(C)6@436`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            OpKind::Read => 'r',
            OpKind::Write => 'w',
        };
        write!(
            f,
            "{}{}({}){}@{}",
            k, self.site, self.object, self.value, self.time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_letters_match_paper() {
        assert_eq!(ObjectId::from_letter('A').to_string(), "A");
        assert_eq!(ObjectId::from_letter('C').index(), 2);
        assert_eq!(ObjectId::new(2).to_string(), "C");
        assert_eq!(ObjectId::new(30).to_string(), "X30");
    }

    #[test]
    #[should_panic(expected = "A-Z")]
    fn object_letter_validated() {
        let _ = ObjectId::from_letter('c');
    }

    #[test]
    fn initial_value_is_zero() {
        assert!(Value::INITIAL.is_initial());
        assert!(!Value::new(7).is_initial());
        assert_eq!(Value::from(9u64).raw(), 9);
    }

    #[test]
    fn operation_displays_in_paper_notation() {
        let op = Operation::new(
            OpId::new(0),
            SiteId::new(2),
            OpKind::Write,
            ObjectId::from_letter('C'),
            Value::new(7),
            Time::from_ticks(340),
            None,
        );
        assert_eq!(op.to_string(), "w2(C)7@340");
        assert!(op.is_write());
        assert!(!op.is_read());
    }

    #[test]
    fn ids_expose_indices() {
        assert_eq!(SiteId::new(3).index(), 3);
        assert_eq!(OpId::new(17).index(), 17);
        assert_eq!(format!("{:?}", OpId::new(4)), "#4");
        assert_eq!(format!("{:?}", SiteId::new(4)), "s4");
    }
}
