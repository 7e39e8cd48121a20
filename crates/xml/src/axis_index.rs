//! Structure-of-arrays axis index: the primitive tree relations of Table I
//! laid out as flat parallel arrays for cache-friendly bulk traversal.
//!
//! # Layout
//!
//! One `u32` per node and per relation, indexed by preorder id (`NodeId.0`):
//!
//! | array | meaning | `NONE` sentinel |
//! |---|---|---|
//! | `parent` | parent id | root |
//! | `first_child` | `firstchild` primitive | leaves |
//! | `next_sibling` | `nextsibling` primitive | last siblings |
//! | `prev_sibling` | `nextsibling⁻¹` | first siblings |
//! | `subtree_end` | exclusive end of the preorder interval | — |
//! | `post` | post-order rank | — |
//!
//! plus a `special` bitset word array marking attribute/namespace nodes
//! (the kinds §4 filters out of every non-dedicated axis), so typed
//! filtering of range-shaped axis results is a word-parallel and-not
//! instead of a per-node kind check.
//!
//! Since the snapshot refactor the document arena itself stores the five
//! link arrays in exactly this flat form, so building the index is five
//! O(1) array-handle clones plus one `O(|D|)` traversal for the
//! post-order ranks and the special mask — and a snapshot load
//! ([`crate::snap`]) gets all seven arrays as views into the mapped
//! region, making [`crate::Document::axis_index`] free.
//!
//! The preorder interval (`id`, `subtree_end`) and the post-order rank
//! together give both classical tree encodings: `y` is a descendant of `x`
//! iff `x < y < subtree_end(x)` iff `pre(y) > pre(x) ∧ post(y) < post(x)`
//! (the pre/post-plane of Grust et al.). The index is built (or mapped)
//! once per document and backs the set-at-a-time axis functions in
//! `xpath-axes::bulk`.

use crate::bytes::Arr;
use crate::document::Document;

/// "No node" sentinel in the link arrays.
pub const NONE: u32 = u32::MAX;

/// Flat parallel arrays of the primitive tree relations (see the
/// [module docs](self) for the layout).
#[derive(Debug)]
pub struct AxisIndex {
    pub(crate) parent: Arr<u32>,
    pub(crate) first_child: Arr<u32>,
    pub(crate) next_sibling: Arr<u32>,
    pub(crate) prev_sibling: Arr<u32>,
    pub(crate) subtree_end: Arr<u32>,
    pub(crate) post: Arr<u32>,
    /// Bitset of attribute/namespace nodes, one bit per id.
    pub(crate) special: Arr<u64>,
}

impl AxisIndex {
    /// Build the index: share the document's link arrays (O(1) handle
    /// clones) and compute the post-order ranks plus the special mask in
    /// one `O(|D|)` traversal.
    pub fn new(doc: &Document) -> AxisIndex {
        let d = &doc.data;
        let n = doc.len();
        let mut special = vec![0u64; n.div_ceil(64)];
        let kinds = d.kind.as_slice();
        for (i, &k) in kinds.iter().enumerate() {
            if crate::NodeKind::from_u8(k).is_some_and(crate::NodeKind::is_special_child) {
                special[i / 64] |= 1 << (i % 64);
            }
        }
        // Post-order ranks via the pointer-walk traversal (no stack, no
        // allocation): descend to the leftmost leaf, emit, then move to
        // the next sibling's leftmost leaf or up to the parent.
        let mut post = vec![0u32; n];
        let first_child = d.first_child.as_slice();
        let next_sibling = d.next_sibling.as_slice();
        let parent = d.parent.as_slice();
        let leftmost_leaf = |mut id: u32| {
            while first_child[id as usize] != NONE {
                id = first_child[id as usize];
            }
            id
        };
        let mut rank = 0u32;
        let mut cur = leftmost_leaf(0);
        loop {
            post[cur as usize] = rank;
            rank += 1;
            if next_sibling[cur as usize] != NONE {
                cur = leftmost_leaf(next_sibling[cur as usize]);
            } else if parent[cur as usize] != NONE {
                cur = parent[cur as usize];
            } else {
                break;
            }
        }
        debug_assert_eq!(rank as usize, n, "post-order visits every node once");
        AxisIndex {
            parent: d.parent.clone(),
            first_child: d.first_child.clone(),
            next_sibling: d.next_sibling.clone(),
            prev_sibling: d.prev_sibling.clone(),
            subtree_end: d.subtree_end.clone(),
            post: Arr::from_vec(post),
            special: Arr::from_vec(special),
        }
    }

    /// Assemble an index directly from snapshot sections (the five link
    /// arrays are shared with the document; `post` and `special` were
    /// serialized eagerly at write time).
    pub(crate) fn from_arrays(
        parent: Arr<u32>,
        first_child: Arr<u32>,
        next_sibling: Arr<u32>,
        prev_sibling: Arr<u32>,
        subtree_end: Arr<u32>,
        post: Arr<u32>,
        special: Arr<u64>,
    ) -> AxisIndex {
        AxisIndex { parent, first_child, next_sibling, prev_sibling, subtree_end, post, special }
    }

    /// Bytes of the arrays the index holds *beyond* the document arenas
    /// (the five link arrays are shared handles, not copies).
    pub(crate) fn extra_bytes(&self) -> usize {
        self.post.byte_len() + self.special.byte_len()
    }

    /// Number of nodes covered (`|dom|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// An index always covers at least the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent id, or [`NONE`] for the root.
    #[inline]
    pub fn parent(&self, id: u32) -> u32 {
        self.parent.as_slice()[id as usize]
    }

    /// Every node's parent id ([`NONE`] for the root), indexed by id —
    /// for loops that walk many parent chains and should index one slice
    /// rather than re-resolve the backing store per step.
    #[inline]
    pub fn parents(&self) -> &[u32] {
        self.parent.as_slice()
    }

    /// First child id, or [`NONE`].
    #[inline]
    pub fn first_child(&self, id: u32) -> u32 {
        self.first_child.as_slice()[id as usize]
    }

    /// Next sibling id, or [`NONE`].
    #[inline]
    pub fn next_sibling(&self, id: u32) -> u32 {
        self.next_sibling.as_slice()[id as usize]
    }

    /// Previous sibling id, or [`NONE`].
    #[inline]
    pub fn prev_sibling(&self, id: u32) -> u32 {
        self.prev_sibling.as_slice()[id as usize]
    }

    /// Exclusive end of the preorder interval of `id`'s subtree.
    #[inline]
    pub fn subtree_end(&self, id: u32) -> u32 {
        self.subtree_end.as_slice()[id as usize]
    }

    /// Post-order rank of `id`.
    #[inline]
    pub fn post(&self, id: u32) -> u32 {
        self.post.as_slice()[id as usize]
    }

    /// Is `id` an attribute or namespace node?
    #[inline]
    pub fn is_special(&self, id: u32) -> bool {
        self.special.as_slice()[(id / 64) as usize] >> (id % 64) & 1 == 1
    }

    /// The attribute/namespace marker bitset, one bit per id — the mask
    /// the bulk axis functions subtract for §4 type filtering.
    #[inline]
    pub fn special_words(&self) -> &[u64] {
        self.special.as_slice()
    }
}

/// Check a freshly built index against the pointer representation (debug
/// aid used by tests).
#[doc(hidden)]
pub fn verify_against(doc: &Document, ix: &AxisIndex) {
    use crate::node::NodeId;
    assert_eq!(ix.len(), doc.len());
    for id in doc.all_nodes() {
        let opt = |x: Option<NodeId>| x.map_or(NONE, |n| n.0);
        assert_eq!(ix.parent(id.0), opt(doc.parent(id)));
        assert_eq!(ix.first_child(id.0), opt(doc.first_child(id)));
        assert_eq!(ix.next_sibling(id.0), opt(doc.next_sibling(id)));
        assert_eq!(ix.prev_sibling(id.0), opt(doc.prev_sibling(id)));
        assert_eq!(ix.subtree_end(id.0), doc.subtree_end(id));
        assert_eq!(ix.is_special(id.0), doc.kind(id).is_special_child());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};

    #[test]
    fn arrays_mirror_pointer_links() {
        for doc in [doc_figure8(), doc_bookstore()] {
            verify_against(&doc, doc.axis_index());
        }
        for seed in 0..4 {
            let cfg = RandomDocConfig { elements: 60, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            verify_against(&doc, doc.axis_index());
        }
    }

    #[test]
    fn post_order_is_a_permutation_and_matches_pre_post_plane() {
        for doc in [doc_figure8(), doc_bookstore()] {
            let ix = doc.axis_index();
            let mut seen = vec![false; doc.len()];
            for id in doc.all_nodes() {
                let p = ix.post(id.0) as usize;
                assert!(!seen[p]);
                seen[p] = true;
            }
            // Descendant in the pre/post plane: pre(y) > pre(x) ∧
            // post(y) < post(x) iff y inside x's preorder interval.
            for x in doc.all_nodes() {
                for y in doc.all_nodes() {
                    let by_interval = x < y && y.0 < ix.subtree_end(x.0);
                    let by_plane = y.0 > x.0 && ix.post(y.0) < ix.post(x.0);
                    assert_eq!(by_interval, by_plane, "x={x:?} y={y:?}");
                }
            }
        }
    }

    #[test]
    fn special_marks_attributes_and_namespaces() {
        let doc = doc_figure8();
        let ix = doc.axis_index();
        use crate::node::NodeKind;
        for id in doc.all_nodes() {
            assert_eq!(
                ix.is_special(id.0),
                matches!(doc.kind(id), NodeKind::Attribute | NodeKind::Namespace)
            );
        }
        assert_eq!(ix.special_words().len(), doc.len().div_ceil(64));
    }
}
