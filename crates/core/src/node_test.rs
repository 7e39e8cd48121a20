//! Node tests (paper §4): the function `T` mapping node tests to the subset
//! of `dom` satisfying them, relative to an axis's principal node type.
//!
//! Two implementations, deliberately sharing no code:
//!
//! * **Set speed** (`TypeTest`, behind [`filter_set`]) — what every
//!   engine runs. A step resolves `(axis, node test)` once into a
//!   [`TypeKey`] of the document's cached type sets
//!   ([`Document::type_set`]), into "every node" / "no node", or (for
//!   `prefix:*`, which may span many names) into a per-node prefix
//!   check. Resolving allocates nothing and costs at most one name
//!   lookup. Filtering a dense frontier is then one word-parallel AND
//!   with `T(t)` (one probe per member when `T(t)` is sparse); a sparse
//!   frontier costs two array loads (kind, name) per id; a lazy cursor
//!   tests a candidate with one bit test; a backward step (`S←`) clones
//!   `T(t)` instead of scanning.
//! * **Per node** ([`matches()`], [`matching_set`], [`filter`]) — the
//!   literal §4 definition, re-resolving the name for every node. Only
//!   the Algorithm 3.2 oracle
//!   ([`AxisBackend::Alg32`](crate::corexpath::AxisBackend::Alg32)) runs
//!   it, so the differential suites compare the set kernel against an
//!   independent formulation.

use xpath_syntax::{Axis, KindTest, NodeTest, PrincipalKind};
use xpath_xml::{Document, NodeId, NodeKind, TypeKey};

use crate::nodeset::NodeSet;

/// A node test resolved against one document for one axis: which nodes
/// of `T(t)` (§4) pass, as a key of the document's cached type sets.
/// Resolving allocates nothing and costs at most one name lookup, so
/// the per-node engines may resolve once per source node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TypeTest<'t> {
    /// `node()`: every node passes.
    All,
    /// No node passes (a name or target the document never interned).
    Nothing,
    /// The nodes of the cached set `T(key)`.
    Key(TypeKey),
    /// `prefix:*`: the nodes of one kind whose name has this prefix,
    /// checked per node (it may span many interned names, and has no
    /// single cached set).
    Prefix(NodeKind, &'t str),
}

impl<'t> TypeTest<'t> {
    /// Resolve `test` on `axis` against `doc`.
    pub(crate) fn resolve(doc: &Document, axis: Axis, test: &'t NodeTest) -> TypeTest<'t> {
        let principal = match axis.principal_kind() {
            PrincipalKind::Element => NodeKind::Element,
            PrincipalKind::Attribute => NodeKind::Attribute,
            PrincipalKind::Namespace => NodeKind::Namespace,
        };
        let named = |kind, name: &str| match doc.lookup_name(name) {
            Some(id) => TypeTest::Key(TypeKey::Named(kind, id)),
            None => TypeTest::Nothing,
        };
        match test {
            NodeTest::Kind(KindTest::Node) => TypeTest::All,
            NodeTest::Kind(KindTest::Text) => TypeTest::Key(TypeKey::Kind(NodeKind::Text)),
            NodeTest::Kind(KindTest::Comment) => TypeTest::Key(TypeKey::Kind(NodeKind::Comment)),
            NodeTest::Kind(KindTest::Pi(None)) => {
                TypeTest::Key(TypeKey::Kind(NodeKind::ProcessingInstruction))
            }
            NodeTest::Kind(KindTest::Pi(Some(target))) => {
                named(NodeKind::ProcessingInstruction, target)
            }
            NodeTest::Wildcard => TypeTest::Key(TypeKey::Kind(principal)),
            NodeTest::Name(name) => named(principal, name),
            NodeTest::NsWildcard(prefix) => TypeTest::Prefix(principal, prefix),
        }
    }

    /// Does node `n` pass? At most two array loads (plus a name prefix
    /// comparison for `prefix:*`).
    #[inline]
    pub(crate) fn matches(self, doc: &Document, n: NodeId) -> bool {
        match self {
            TypeTest::All => true,
            TypeTest::Nothing => false,
            TypeTest::Key(key) => key.matches(doc, n),
            TypeTest::Prefix(kind, prefix) => {
                doc.kind(n) == kind
                    && doc
                        .name(n)
                        .and_then(|full| full.split_once(':'))
                        .is_some_and(|(p, _)| p == prefix)
            }
        }
    }

    /// The cached `T(key)`, when this test is a single key.
    pub(crate) fn cached(self, doc: &Document) -> Option<&NodeSet> {
        match self {
            TypeTest::Key(key) => Some(doc.type_set(key)),
            _ => None,
        }
    }

    /// The whole set `T(t)`, in the representation its density calls
    /// for: a copy of the cached set, the full or empty set, or (for
    /// `prefix:*`) one scan of the document.
    pub(crate) fn set(self, doc: &Document) -> NodeSet {
        let n = doc.len() as u32;
        match self {
            TypeTest::All => NodeSet::full(n),
            TypeTest::Nothing => NodeSet::new(),
            TypeTest::Key(key) => doc.type_set(key).clone().adapt(),
            TypeTest::Prefix(..) => {
                NodeSet::from_sorted(doc.all_nodes().filter(|&x| self.matches(doc, x)).collect())
                    .adapt()
            }
        }
    }

    /// Keep only the nodes of `nodes` that pass: one word-parallel AND
    /// with the cached set when both are dense, otherwise a probe of the
    /// cached set per sparse id, or a per-id [`TypeTest::matches`].
    pub(crate) fn filter(self, doc: &Document, nodes: &mut NodeSet) {
        match self {
            TypeTest::All => {}
            TypeTest::Nothing => *nodes = NodeSet::new(),
            TypeTest::Key(key) if nodes.is_dense() => {
                *nodes = nodes.intersect(doc.type_set(key));
            }
            _ => nodes.retain(|n| self.matches(doc, n)),
        }
    }

    /// [`TypeTest::filter`] over an id list.
    pub(crate) fn filter_vec(self, doc: &Document, nodes: &mut Vec<NodeId>) {
        match self {
            TypeTest::All => {}
            TypeTest::Nothing => nodes.clear(),
            _ => nodes.retain(|&n| self.matches(doc, n)),
        }
    }
}

/// Filter a [`NodeSet`] in place by a node test, at set speed: the test
/// resolves once to a cached type set of the document, which a dense
/// set is ANDed with word-parallel and a sparse one is checked against
/// with two array loads per id.
pub fn filter_set(doc: &Document, axis: Axis, test: &NodeTest, nodes: &mut NodeSet) {
    TypeTest::resolve(doc, axis, test).filter(doc, nodes);
}

/// Does node `n` satisfy node test `test` on axis `axis` (whose principal
/// node type resolves name/wildcard tests, §4)? The per-node oracle path:
/// the name is looked up again for every call.
pub fn matches(doc: &Document, axis: Axis, test: &NodeTest, n: NodeId) -> bool {
    match test {
        NodeTest::Kind(k) => kind_matches(doc, k, n),
        NodeTest::Wildcard => principal_matches(doc, axis, n),
        NodeTest::Name(name) => {
            principal_matches(doc, axis, n)
                && doc.lookup_name(name).is_some_and(|id| doc.name_id(n) == Some(id))
        }
        NodeTest::NsWildcard(prefix) => {
            principal_matches(doc, axis, n)
                && doc
                    .name(n)
                    .and_then(|full| full.split_once(':'))
                    .is_some_and(|(p, _)| p == prefix)
        }
    }
}

fn principal_matches(doc: &Document, axis: Axis, n: NodeId) -> bool {
    match axis.principal_kind() {
        PrincipalKind::Element => doc.kind(n) == NodeKind::Element,
        PrincipalKind::Attribute => doc.kind(n) == NodeKind::Attribute,
        PrincipalKind::Namespace => doc.kind(n) == NodeKind::Namespace,
    }
}

fn kind_matches(doc: &Document, k: &KindTest, n: NodeId) -> bool {
    match k {
        KindTest::Node => true,
        KindTest::Text => doc.kind(n) == NodeKind::Text,
        KindTest::Comment => doc.kind(n) == NodeKind::Comment,
        KindTest::Pi(target) => {
            doc.kind(n) == NodeKind::ProcessingInstruction
                && target.as_deref().is_none_or(|t| doc.name(n) == Some(t))
        }
    }
}

/// The set `T(t)` (§4) relative to an axis by a per-node scan: all nodes
/// of the document satisfying the test, in document order. `O(|D|)`
/// name re-resolutions; the oracle's path. The returned vector is drawn
/// from the thread-local recycling pool ([`xpath_xml::pool`]).
pub fn matching_set(doc: &Document, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
    let mut out = xpath_xml::pool::take_ids();
    out.extend(doc.all_nodes().filter(|&n| matches(doc, axis, test, n)));
    out
}

/// Filter a node list in place by a node test, per node (the oracle's
/// path).
pub fn filter(doc: &Document, axis: Axis, test: &NodeTest, nodes: &mut Vec<NodeId>) {
    nodes.retain(|&n| matches(doc, axis, test, n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::doc_figure8;
    use xpath_xml::Document;

    /// Every node test shape, including unknown names and targets.
    fn tests() -> Vec<NodeTest> {
        let mut out = vec![
            NodeTest::Kind(KindTest::Node),
            NodeTest::Kind(KindTest::Text),
            NodeTest::Kind(KindTest::Comment),
            NodeTest::Kind(KindTest::Pi(None)),
            NodeTest::Kind(KindTest::Pi(Some("p".into()))),
            NodeTest::Kind(KindTest::Pi(Some("nope".into()))),
            NodeTest::Wildcard,
            NodeTest::NsWildcard("pre".into()),
            NodeTest::NsWildcard("other".into()),
            NodeTest::NsWildcard("nope".into()),
        ];
        for name in ["a", "b", "id", "pre", "xml", "pre:x", "xmlns", "zzz", ""] {
            out.push(NodeTest::Name(name.into()));
        }
        out
    }

    /// One axis per principal kind.
    const AXES: [Axis; 3] = [Axis::Child, Axis::Attribute, Axis::Namespace];

    /// Documents covering every kind: an element and an attribute both
    /// named `id`, PIs with two targets, prefixed names with one and two
    /// local names, comments, text and (in the `ns` parse) namespace
    /// nodes.
    fn docs() -> Vec<Document> {
        let xml = "<a id='1' xmlns:pre='u'><?p data?><?q?><b id='2'>t<!--c--></b>\
                   <pre:x pre:id='3'/><pre:y/><other:z/><id>5</id></a>";
        let ns = xpath_xml::ParseOptions { namespaces: true, ..Default::default() };
        vec![
            Document::parse_str(xml).unwrap(),
            Document::parse_str_opts(xml, ns).unwrap(),
            doc_figure8(),
        ]
    }

    #[test]
    fn type_tests_agree_with_the_per_node_oracle() {
        for d in docs() {
            for axis in AXES {
                for t in tests() {
                    let tt = TypeTest::resolve(&d, axis, &t);
                    let want = matching_set(&d, axis, &t);
                    assert_eq!(tt.set(&d), want, "{axis:?} {t:?} on {d:?}");
                    for n in d.all_nodes() {
                        assert_eq!(tt.matches(&d, n), want.contains(&n), "{axis:?} {t:?} {n:?}");
                    }
                    // Filtering agrees in both frontier representations.
                    let all = NodeSet::full(d.len() as u32);
                    let mut dense = all.clone();
                    tt.filter(&d, &mut dense);
                    assert_eq!(dense, want, "dense filter {axis:?} {t:?}");
                    let mut sparse = NodeSet::from_sorted(d.all_nodes().collect());
                    filter_set(&d, axis, &t, &mut sparse);
                    assert_eq!(sparse, want, "sparse filter {axis:?} {t:?}");
                    let mut v: Vec<NodeId> = d.all_nodes().collect();
                    tt.filter_vec(&d, &mut v);
                    assert_eq!(v, want, "vec filter {axis:?} {t:?}");
                }
            }
        }
    }

    #[test]
    fn resolution_picks_the_expected_keys() {
        let d = &docs()[1];
        let id = d.lookup_name("id").unwrap();
        let name = |s: &str| NodeTest::Name(s.into());
        // The element `id` and the attribute `id` are different keys.
        assert_eq!(
            TypeTest::resolve(d, Axis::Child, &name("id")),
            TypeTest::Key(TypeKey::Named(NodeKind::Element, id))
        );
        assert_eq!(
            TypeTest::resolve(d, Axis::Attribute, &name("id")),
            TypeTest::Key(TypeKey::Named(NodeKind::Attribute, id))
        );
        assert_eq!(TypeTest::resolve(d, Axis::Child, &name("zzz")), TypeTest::Nothing);
        assert_eq!(
            TypeTest::resolve(d, Axis::Child, &NodeTest::Kind(KindTest::Pi(Some("zzz".into())))),
            TypeTest::Nothing
        );
        let pre = NodeTest::NsWildcard("pre".into());
        assert_eq!(
            TypeTest::resolve(d, Axis::Child, &pre),
            TypeTest::Prefix(NodeKind::Element, "pre")
        );
        assert_eq!(
            TypeTest::resolve(d, Axis::Attribute, &pre),
            TypeTest::Prefix(NodeKind::Attribute, "pre")
        );
        assert_eq!(
            TypeTest::resolve(d, Axis::Descendant, &NodeTest::Kind(KindTest::Node)),
            TypeTest::All
        );
        assert!(TypeTest::resolve(d, Axis::Child, &NodeTest::Wildcard).cached(d).is_some());
    }

    #[test]
    fn example_4_1_typed_sets() {
        // T(element()) over DOC(4), expressed via node tests.
        let d = Document::parse_str("<a><b/><b/><b/><b/></a>").unwrap();
        let t_node = matching_set(&d, Axis::Child, &NodeTest::Kind(KindTest::Node));
        assert_eq!(t_node.len(), d.len()); // T(node()) = dom
        let t_elem = matching_set(&d, Axis::Child, &NodeTest::Wildcard);
        assert_eq!(t_elem.len(), 5); // a + 4 b's
        let t_a = matching_set(&d, Axis::Child, &NodeTest::Name("a".into()));
        assert_eq!(t_a.len(), 1);
        let t_b = matching_set(&d, Axis::Child, &NodeTest::Name("b".into()));
        assert_eq!(t_b.len(), 4);
        // The cached type sets give the same counts.
        let t = |test: NodeTest| TypeTest::resolve(&d, Axis::Child, &test).set(&d).len();
        assert_eq!(t(NodeTest::Kind(KindTest::Node)), d.len());
        assert_eq!(t(NodeTest::Wildcard), 5);
        assert_eq!(t(NodeTest::Name("a".into())), 1);
        assert_eq!(t(NodeTest::Name("b".into())), 4);
    }

    #[test]
    fn principal_type_depends_on_axis() {
        let d = doc_figure8();
        let b11 = d.element_by_id("11").unwrap();
        let id_attr = d.attribute(b11, "id").unwrap();
        // "id" as a name test matches the attribute on the attribute axis...
        assert!(matches(&d, Axis::Attribute, &NodeTest::Name("id".into()), id_attr));
        // ...but not on the child axis (principal type element).
        assert!(!matches(&d, Axis::Child, &NodeTest::Name("id".into()), id_attr));
        // Wildcard likewise.
        assert!(matches(&d, Axis::Attribute, &NodeTest::Wildcard, id_attr));
        assert!(!matches(&d, Axis::Child, &NodeTest::Wildcard, id_attr));
        // node() matches anything regardless of axis.
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Node), id_attr));
    }

    #[test]
    fn kind_tests() {
        let d = Document::parse_str("<a>t<!--c--><?p data?></a>").unwrap();
        let a = d.document_element().unwrap();
        let kids: Vec<NodeId> = d.children(a).collect();
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Text), kids[0]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Comment), kids[1]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Pi(None)), kids[2]));
        assert!(matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Pi(Some("p".into()))), kids[2]));
        assert!(!matches(
            &d,
            Axis::Child,
            &NodeTest::Kind(KindTest::Pi(Some("q".into()))),
            kids[2]
        ));
        assert!(!matches(&d, Axis::Child, &NodeTest::Kind(KindTest::Text), kids[1]));
        // The resolved type tests give the same answers.
        let tt = |test: KindTest, n: NodeId| {
            TypeTest::resolve(&d, Axis::Child, &NodeTest::Kind(test)).matches(&d, n)
        };
        assert!(tt(KindTest::Text, kids[0]));
        assert!(tt(KindTest::Comment, kids[1]));
        assert!(tt(KindTest::Pi(None), kids[2]));
        assert!(tt(KindTest::Pi(Some("p".into())), kids[2]));
        assert!(!tt(KindTest::Pi(Some("q".into())), kids[2]));
        assert!(!tt(KindTest::Text, kids[1]));
    }

    #[test]
    fn ns_wildcard() {
        let d = Document::parse_str("<a><pre:x/><pre:y/><other:z/><plain/></a>").unwrap();
        let hits = matching_set(&d, Axis::Child, &NodeTest::NsWildcard("pre".into()));
        assert_eq!(hits.len(), 2);
        let misses = matching_set(&d, Axis::Child, &NodeTest::NsWildcard("nope".into()));
        assert!(misses.is_empty());
        let t = |p: &str| {
            TypeTest::resolve(&d, Axis::Child, &NodeTest::NsWildcard(p.into())).set(&d).len()
        };
        assert_eq!(t("pre"), 2);
        assert_eq!(t("nope"), 0);
    }

    #[test]
    fn unknown_name_matches_nothing() {
        let d = doc_figure8();
        assert!(matching_set(&d, Axis::Child, &NodeTest::Name("zzz".into())).is_empty());
        let zzz = NodeTest::Name("zzz".into());
        assert!(TypeTest::resolve(&d, Axis::Child, &zzz).set(&d).is_empty());
    }

    #[test]
    fn type_sets_are_identical_on_owned_and_mapped_documents() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let owned = &docs()[1];
        let path = std::env::temp_dir().join(format!(
            "gkp-node-test-{}-{}.snap",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        xpath_xml::snap::write(owned, &path).unwrap();
        let mapped = xpath_xml::snap::load(&path).unwrap();
        for axis in AXES {
            for t in tests() {
                let a = TypeTest::resolve(owned, axis, &t);
                let b = TypeTest::resolve(&mapped, axis, &t);
                assert_eq!(a, b, "{axis:?} {t:?}");
                assert_eq!(a.set(owned), b.set(&mapped), "{axis:?} {t:?}");
            }
        }
        drop(mapped);
        let _ = std::fs::remove_file(&path);
    }
}
