//! Element/attribute name interning.
//!
//! A [`SymbolTable`] maps names to dense `u32` [`Symbol`]s so the hot
//! query path can compare tag names as integers instead of strings.
//! Tables are *append-only*: a symbol, once handed out, stays valid for the table's lifetime and a
//! [`SymbolTable::lookup`] miss means the name has never named anything
//! in the document's lifetime — which is what lets a compiled query
//! soundly treat an unresolvable name test as "matches nothing".
//!
//! Interior mutability is `RwLock`-based (not `RefCell`) so `&Document`
//! stays `Sync`: concurrent readers (the threads sharing a service
//! snapshot) may intern/look up names through a shared reference.
//!
//! Each name is held once, as an `Arc<str>` that the elements carrying it
//! share (`SymbolTable::intern_name`): parsing allocates one per
//! distinct name, not one per element.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// An interned name: a dense index into its [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<str>, Symbol>,
    names: Vec<Arc<str>>,
}

impl Inner {
    /// Adds `name`, which the table does not hold, as the next symbol.
    fn mint(&mut self, name: &str) -> (Symbol, Arc<str>) {
        let s = Symbol(u32::try_from(self.names.len()).expect("symbol table overflow"));
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.map.insert(Arc::clone(&name), s);
        (s, name)
    }
}

/// An append-only name → [`Symbol`] table, shared per document.
#[derive(Debug, Default)]
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Interns `name`, returning its symbol (existing or freshly minted).
    /// Interning the same name twice returns the same symbol.
    pub fn intern(&self, name: &str) -> Symbol {
        self.intern_name(name).0
    }

    /// [`SymbolTable::intern`], with the table's one copy of the name.
    pub(crate) fn intern_name(&self, name: &str) -> (Symbol, Arc<str>) {
        let held = |inner: &Inner| {
            let &s = inner.map.get(name)?;
            Some((s, Arc::clone(&inner.names[s.0 as usize])))
        };
        if let Some(found) = held(&self.inner.read().expect("symbol table lock poisoned")) {
            return found;
        }
        let mut inner = self.inner.write().expect("symbol table lock poisoned");
        // Another thread may have interned it while we waited.
        held(&inner).unwrap_or_else(|| inner.mint(name))
    }

    /// [`SymbolTable::intern_name`] on a table no one else holds yet (a
    /// document being built): no lock is taken.
    pub(crate) fn intern_owned(&mut self, name: &str) -> (Symbol, Arc<str>) {
        let inner = self.inner.get_mut().expect("symbol table lock poisoned");
        match inner.map.get(name) {
            Some(&s) => (s, Arc::clone(&inner.names[s.0 as usize])),
            None => inner.mint(name),
        }
    }

    /// The symbol for `name`, or `None` if it has never been interned.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.inner
            .read()
            .expect("symbol table lock poisoned")
            .map
            .get(name)
            .copied()
    }

    /// The name behind `sym`, or `None` if `sym` was minted by a
    /// different table.
    pub fn resolve(&self, sym: Symbol) -> Option<String> {
        self.inner
            .read()
            .expect("symbol table lock poisoned")
            .names
            .get(sym.0 as usize)
            .map(|name| name.to_string())
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table lock poisoned")
            .names
            .len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for SymbolTable {
    fn clone(&self) -> SymbolTable {
        let inner = self.inner.read().expect("symbol table lock poisoned");
        SymbolTable {
            inner: RwLock::new(Inner {
                map: inner.map.clone(),
                names: inner.names.clone(),
            }),
        }
    }
}

impl fmt::Display for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolTable({} names)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let t = SymbolTable::new();
        let a = t.intern("track");
        let b = t.intern("rev");
        assert_eq!(t.intern("track"), a);
        assert_ne!(a, b);
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_and_resolve_roundtrip() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
        let s = t.intern("x");
        assert_eq!(t.lookup("x"), Some(s));
        assert_eq!(t.resolve(s).as_deref(), Some("x"));
        assert_eq!(t.resolve(Symbol(99)), None);
    }

    #[test]
    fn clone_is_independent() {
        let t = SymbolTable::new();
        let s = t.intern("a");
        let c = t.clone();
        assert_eq!(c.lookup("a"), Some(s));
        let fresh = c.intern("b");
        assert_eq!(t.lookup("b"), None, "clone does not feed back");
        assert_eq!(c.resolve(fresh).as_deref(), Some("b"));
    }

    #[test]
    fn concurrent_intern_agrees() {
        let t = SymbolTable::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..64 {
                        t.intern(&format!("name{}", i % 8));
                    }
                });
            }
        });
        assert_eq!(t.len(), 8);
        for i in 0..8 {
            let name = format!("name{i}");
            let s = t.lookup(&name).expect("interned");
            assert_eq!(t.resolve(s).as_deref(), Some(name.as_str()));
        }
    }
}
