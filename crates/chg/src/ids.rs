//! Compact identifiers for classes and member names, plus the string
//! interner that backs them.
//!
//! The lookup algorithm manipulates classes and member names constantly, so
//! both are interned to `u32`-backed ids that are `Copy`, hashable, and
//! usable as dense vector indices.

use std::fmt;

use crate::fxmap::FxHashMap;

/// Identifier of a class in a [`crate::Chg`].
///
/// Ids are dense: a graph with `n` classes uses ids `0..n`, so `ClassId`
/// doubles as an index into per-class tables.
///
/// # Examples
///
/// ```
/// use cpplookup_chg::ChgBuilder;
///
/// let mut b = ChgBuilder::new();
/// let a = b.class("A");
/// let b_ = b.class("B");
/// assert_ne!(a, b_);
/// assert_eq!(a.index(), 0);
/// assert_eq!(b_.index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// Creates a `ClassId` from a raw index.
    ///
    /// Mostly useful for tests and for tools that build dense tables; ids
    /// are ordinarily obtained from [`crate::ChgBuilder::class`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ClassId(u32::try_from(index).expect("class index exceeds u32"))
    }

    /// Returns the dense index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassId({})", self.0)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of an interned member *name* (not a particular declaration).
///
/// The same `MemberId` names the member `m` in every class that declares
/// one; the pair `(ClassId, MemberId)` identifies a declaration. This
/// mirrors the paper, where lookup is a function of a class and a member
/// *name*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(u32);

impl MemberId {
    /// Creates a `MemberId` from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        MemberId(u32::try_from(index).expect("member index exceeds u32"))
    }

    /// Returns the dense index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemberId({})", self.0)
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A simple string interner mapping names to dense `u32` indices.
///
/// Used for both class names and member names. Interning the same string
/// twice returns the same index. The reverse map uses the fixed-seed
/// [`crate::fxmap`] hasher: interner probes sit on the hot path of
/// parsing and engine edits, and the keys are trusted identifiers.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    by_name: FxHashMap<String, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its dense index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&idx) = self.by_name.get(name) {
            return idx;
        }
        let idx = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), idx);
        idx
    }

    /// Returns the index of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for an index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not produced by this interner.
    pub fn resolve(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(index, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let a2 = i.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.resolve(b), "bar");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interner_get_without_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
    }

    #[test]
    fn interner_iter_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn ids_roundtrip() {
        let c = ClassId::from_index(7);
        assert_eq!(c.index(), 7);
        let m = MemberId::from_index(3);
        assert_eq!(m.index(), 3);
    }

    #[test]
    fn id_display_nonempty() {
        assert_eq!(format!("{}", ClassId::from_index(2)), "#2");
        assert_eq!(format!("{:?}", MemberId::from_index(2)), "MemberId(2)");
    }

    #[test]
    fn interner_empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
