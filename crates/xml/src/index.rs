//! Cached type sets: the function `T` of §4 as one set per node test.
//!
//! A Core XPath step is `χ(N) ∩ T(t)` (§4, §10): the axis image
//! intersected with the set of all nodes satisfying the node test. Every
//! node test the engines evaluate reduces to a [`TypeKey`] — one node
//! kind, optionally restricted to one interned name — and a document
//! holds `T(key)` for each key it has been asked about as a
//! [`NodeSet`], built on first use by one pass over the `kind`/`name`
//! arrays and cached for the document's lifetime
//! ([`Document::type_set`]). A node test then costs what a set operation
//! costs: a word-parallel AND against a dense frontier, a probe per
//! candidate, or a scan for "any match in `[lo, hi)`"
//! ([`NodeSet::any_in`]).
//!
//! The cache changes no complexity bound: each set costs one `O(|D|)`
//! pass, paid at most once per key and document. Kind sets are bitsets
//! (`|D| / 8` bytes each, at most one per kind). Named sets are stored
//! at their density — a bitset when at least 1/32 of the document, else
//! an exact-size id list — and the named sets of one kind are disjoint,
//! so however many names are asked about, one kind's named sets hold at
//! most `8 |D|` bytes (at most 32 bitsets, plus ids totalling `4 |D|`).

use std::sync::OnceLock;

use crate::document::{Document, NameId};
use crate::node::{NodeId, NodeKind};
use crate::nodeset::NodeSet;

/// A resolved node test: the key of one cached type set `T(key)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TypeKey {
    /// Every node of one kind: a principal-type wildcard (`*` on an
    /// element, attribute or namespace axis), `text()`, `comment()`,
    /// `processing-instruction()`.
    Kind(NodeKind),
    /// The nodes of one kind carrying one interned name: a name test on
    /// an axis of that principal kind, or a processing-instruction target.
    Named(NodeKind, NameId),
}

impl TypeKey {
    /// The node kind every member of `T(key)` has.
    pub fn kind(self) -> NodeKind {
        match self {
            TypeKey::Kind(k) | TypeKey::Named(k, _) => k,
        }
    }

    /// Does node `n` of `doc` belong to `T(key)`? Two array loads; no
    /// cached set is built.
    #[inline]
    pub fn matches(self, doc: &Document, n: NodeId) -> bool {
        match self {
            TypeKey::Kind(k) => doc.kind(n) == k,
            TypeKey::Named(k, name) => doc.kind(n) == k && doc.name_id(n) == Some(name),
        }
    }
}

/// Number of [`NodeKind`] discriminants (the kind byte indexes the slot
/// arrays below).
const KINDS: usize = 7;

/// The per-document cache behind [`Document::type_set`]: one lazily
/// built set per kind, and per kind one lazily allocated table of
/// per-name sets indexed by [`NameId`].
pub(crate) struct TypeSets {
    by_kind: [OnceLock<NodeSet>; KINDS],
    by_name: [OnceLock<Box<[OnceLock<NodeSet>]>>; KINDS],
}

impl TypeSets {
    pub(crate) fn new() -> TypeSets {
        TypeSets {
            by_kind: std::array::from_fn(|_| OnceLock::new()),
            by_name: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `T(key)` over `doc`, built on first use.
    pub(crate) fn get<'a>(&'a self, doc: &Document, key: TypeKey) -> &'a NodeSet {
        let slot = key.kind() as usize;
        let cell = match key {
            TypeKey::Kind(_) => &self.by_kind[slot],
            TypeKey::Named(_, name) => {
                let table = self.by_name[slot].get_or_init(|| {
                    (0..=doc.name_count()).map(|_| OnceLock::new()).collect::<Vec<_>>().into()
                });
                // Ids past the name table only come from corrupt
                // unverified snapshots; they share one overflow slot
                // (deep verification rejects such files).
                &table[(name.0 as usize).min(table.len() - 1)]
            }
        };
        cell.get_or_init(|| build(doc, key))
    }

    /// Heap bytes held by every set built so far, and by the per-name
    /// slot tables.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let sets = |cells: &[OnceLock<NodeSet>]| -> usize {
            cells.iter().filter_map(OnceLock::get).map(NodeSet::heap_bytes).sum()
        };
        let tables: usize = self
            .by_name
            .iter()
            .filter_map(OnceLock::get)
            .map(|t| t.len() * std::mem::size_of::<OnceLock<NodeSet>>() + sets(t))
            .sum();
        sets(&self.by_kind) + tables
    }
}

/// One pass over the kind (and name) arrays. Kind sets stay bitsets;
/// a sparse named set becomes an exact-size id list (see the module
/// docs for the memory bound this keeps).
fn build(doc: &Document, key: TypeKey) -> NodeSet {
    let n = doc.len() as u32;
    let mut words = vec![0u64; n.div_ceil(64) as usize];
    for i in 0..n {
        if key.matches(doc, NodeId(i)) {
            words[(i / 64) as usize] |= 1u64 << (i % 64);
        }
    }
    let set = NodeSet::from_words(words, n);
    let sparse = (set.len() as u64) * NodeSet::DENSE_DEN < u64::from(n) * NodeSet::DENSE_NUM;
    match key {
        TypeKey::Named(..) if sparse => {
            let mut ids = Vec::with_capacity(set.len());
            ids.extend(set.iter());
            NodeSet::from_sorted(ids)
        }
        _ => set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};

    fn scan(doc: &Document, pred: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        doc.all_nodes().filter(|&n| pred(n)).collect()
    }

    const ALL_KINDS: [NodeKind; KINDS] = [
        NodeKind::Root,
        NodeKind::Element,
        NodeKind::Text,
        NodeKind::Comment,
        NodeKind::Attribute,
        NodeKind::Namespace,
        NodeKind::ProcessingInstruction,
    ];

    #[test]
    fn kind_sets_equal_scans() {
        for doc in [doc_figure8(), doc_bookstore()] {
            for k in ALL_KINDS {
                let got = doc.type_set(TypeKey::Kind(k));
                assert_eq!(*got, scan(&doc, |n| doc.kind(n) == k), "{k:?}");
                assert!(got.is_dense(), "kind sets are bitsets");
            }
        }
    }

    #[test]
    fn named_sets_take_the_representation_their_density_calls_for() {
        let doc = Document::parse_str("<r><a/><a/><b/><a/></r>").unwrap();
        let elem = |s| TypeKey::Named(NodeKind::Element, doc.lookup_name(s).unwrap());
        assert!(doc.type_set(elem("a")).is_dense());
        let mut xml = String::from("<r>");
        xml.push_str(&"<a/>".repeat(200));
        xml.push_str("<b/></r>");
        let doc = Document::parse_str(&xml).unwrap();
        let b = TypeKey::Named(NodeKind::Element, doc.lookup_name("b").unwrap());
        let set = doc.type_set(b);
        assert!(!set.is_dense());
        assert_eq!(set.len(), 1);
        assert_eq!(set.heap_bytes(), std::mem::size_of::<NodeId>());
    }

    #[test]
    fn querying_every_name_keeps_the_cache_linear_in_the_document() {
        // 2000 distinct element names, each element carrying an
        // attribute of its own name: every named set holds one node.
        let names = 2000;
        let mut xml = String::from("<r>");
        for i in 0..names {
            xml.push_str(&format!("<n{i} a{i}='v'/>"));
        }
        xml.push_str("</r>");
        let doc = Document::parse_str(&xml).unwrap();
        for id in 0..doc.name_count() as u32 {
            for k in [NodeKind::Element, NodeKind::Attribute] {
                doc.type_set(TypeKey::Named(k, NameId(id)));
            }
        }
        for k in [NodeKind::Element, NodeKind::Attribute] {
            doc.type_set(TypeKey::Kind(k));
        }
        let held = doc.type_sets.heap_bytes();
        let tables = 2 * (doc.name_count() + 1) * std::mem::size_of::<OnceLock<NodeSet>>();
        // Two kind bitsets, plus at most 8 |D| bytes of named sets per
        // kind (module docs). Dense per-name sets would hold
        // 2 × 4000 × |D| / 8 ≈ 4 MB here.
        let bound = 2 * doc.len().div_ceil(8) + 2 * 8 * doc.len() + tables;
        assert!(held <= bound, "{held} bytes > {bound}");
        assert!(held - tables <= 2 * doc.len().div_ceil(8) + 2 * 4 * doc.len());
    }

    #[test]
    fn named_sets_are_exact_on_random_docs() {
        for seed in 0..6 {
            let cfg = RandomDocConfig { elements: 40, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            for name in ["a", "b", "c", "d", "id"] {
                let Some(id) = doc.lookup_name(name) else { continue };
                for k in [NodeKind::Element, NodeKind::Attribute] {
                    let want = scan(&doc, |n| doc.kind(n) == k && doc.name_id(n) == Some(id));
                    assert_eq!(*doc.type_set(TypeKey::Named(k, id)), want, "{name} {k:?}");
                }
            }
        }
    }

    #[test]
    fn an_element_and_an_attribute_sharing_a_name_get_separate_sets() {
        let doc = Document::parse_str("<r id='1'><id id='2'/><id/></r>").unwrap();
        let id = doc.lookup_name("id").unwrap();
        let elems = doc.type_set(TypeKey::Named(NodeKind::Element, id));
        let attrs = doc.type_set(TypeKey::Named(NodeKind::Attribute, id));
        assert_eq!(elems.len(), 2);
        assert_eq!(attrs.len(), 2);
        assert!(elems.intersect(attrs).is_empty());
        assert!(elems.iter().all(|n| doc.kind(n) == NodeKind::Element));
        assert!(attrs.iter().all(|n| doc.kind(n) == NodeKind::Attribute));
    }

    #[test]
    fn sets_are_built_once_and_shared() {
        let doc = doc_bookstore();
        let key = TypeKey::Kind(NodeKind::Element);
        let first: *const NodeSet = doc.type_set(key);
        assert!(std::ptr::eq(first, doc.type_set(key)));
    }

    #[test]
    fn key_matches_agrees_with_the_cached_set() {
        let doc = doc_figure8();
        let b = doc.lookup_name("b").unwrap();
        for key in [TypeKey::Kind(NodeKind::Element), TypeKey::Named(NodeKind::Element, b)] {
            let set = doc.type_set(key);
            for n in doc.all_nodes() {
                assert_eq!(key.matches(&doc, n), set.contains(n), "{key:?} {n:?}");
            }
        }
    }
}
