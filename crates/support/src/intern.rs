//! String interning.
//!
//! Identifiers (array names, procedure names, file names) appear thousands of
//! times across the WHIRL tree, the region summaries, and the `.rgn` rows, so
//! the whole pipeline passes around a small copyable [`Symbol`] instead of
//! owned strings. Interning happens through a per-compilation [`Interner`];
//! symbols are only meaningful relative to the interner that created them.

use std::collections::HashMap;
use std::fmt;

/// A handle to an interned string. Cheap to copy, hash, and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol inside its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a symbol from a raw index, for the persistence codec.
    ///
    /// Only meaningful when `index` came from [`Symbol::index`] of a symbol
    /// in the *same* (deterministically reconstructed) interner; using it
    /// with any other interner yields a dangling handle.
    pub fn from_index(index: usize) -> Result<Symbol, crate::error::Error> {
        u32::try_from(index)
            .map(Symbol)
            .map_err(|_| crate::error::Error::Format(format!("symbol index {index} out of range")))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Deduplicating string store. Lookup by string is O(1) amortized; lookup by
/// [`Symbol`] is a bounds-checked array access.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<Box<str>, Symbol>,
    strings: Vec<Box<str>>,
}

/// Two interners are equal when they hold the same strings in the same
/// order, so every symbol resolves alike in both.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let Ok(raw) = u32::try_from(self.strings.len()) else {
            panic!("interner overflow");
        };
        let sym = Symbol(raw);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Returns the string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Returns the symbol for `s` if it has already been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The strings interned at positions `range`, in interning order.
    ///
    /// # Panics
    /// Panics if `range` reaches past [`len`](Self::len).
    pub fn strings(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &str> {
        self.strings[range].iter().map(|s| s.as_ref())
    }

    /// Iterates over `(symbol, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("xcr");
        let b = i.intern("xce");
        let a2 = i.intern("xcr");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("verify");
        assert_eq!(i.resolve(s), "verify");
    }

    #[test]
    fn get_finds_only_existing() {
        let mut i = Interner::new();
        assert!(i.get("u").is_none());
        let s = i.intern("u");
        assert_eq!(i.get("u"), Some(s));
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn empty_interner_reports_empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
