//! Direct (non-regex) axis evaluation: per-node axis enumeration and
//! linear-time set-to-set axis functions built on the
//! preorder/subtree-interval representation. [`axis_from_into`] is the
//! per-node kernel of the adaptive planner
//! ([`crate::bulk::axis_set_planned`]). Unit tests assert equivalence with
//! the Algorithm 3.2 reference implementation in [`crate::regex`].

use xpath_syntax::Axis;
use xpath_xml::{Document, NodeId, NodeKind};

#[inline]
fn is_special(doc: &Document, n: NodeId) -> bool {
    doc.kind(n).is_special_child()
}

/// Typed per-node axis enumeration: all `y` with `x χ y`, in **document
/// order**, with the §4 node-type filtering applied (`attribute` /
/// `namespace` keep only their kind; every other axis drops both kinds).
pub fn axis_from(doc: &Document, axis: Axis, x: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    axis_from_into(doc, axis, x, &mut out);
    out
}

/// Like [`axis_from`], but appends into a reusable buffer (cleared first).
pub fn axis_from_into(doc: &Document, axis: Axis, x: NodeId, out: &mut Vec<NodeId>) {
    out.clear();
    match axis {
        Axis::SelfAxis => {
            // §4: non-dedicated axes remove attribute/namespace nodes from
            // their results — including `self`, per the paper's definition.
            if !is_special(doc, x) {
                out.push(x);
            }
        }
        Axis::Child => {
            out.extend(doc.children(x).filter(|&c| !is_special(doc, c)));
        }
        Axis::Attribute => {
            out.extend(doc.children(x).filter(|&c| doc.kind(c) == NodeKind::Attribute));
        }
        Axis::Namespace => {
            out.extend(doc.children(x).filter(|&c| doc.kind(c) == NodeKind::Namespace));
        }
        Axis::Parent => {
            if let Some(p) = doc.parent(x) {
                out.push(p);
            }
        }
        Axis::Ancestor => {
            let mut cur = doc.parent(x);
            while let Some(p) = cur {
                out.push(p);
                cur = doc.parent(p);
            }
            out.reverse();
        }
        Axis::AncestorOrSelf => {
            if !is_special(doc, x) {
                out.push(x);
            }
            let mut cur = doc.parent(x);
            while let Some(p) = cur {
                out.push(p);
                cur = doc.parent(p);
            }
            out.reverse();
        }
        Axis::Descendant => {
            out.extend(
                ((x.0 + 1)..doc.subtree_end(x)).map(NodeId).filter(|&d| !is_special(doc, d)),
            );
        }
        Axis::DescendantOrSelf => {
            out.extend((x.0..doc.subtree_end(x)).map(NodeId).filter(|&d| !is_special(doc, d)));
        }
        Axis::Following => {
            out.extend(
                (doc.subtree_end(x)..doc.len() as u32).map(NodeId).filter(|&d| !is_special(doc, d)),
            );
        }
        Axis::Preceding => {
            out.extend(
                (0..x.0).map(NodeId).filter(|&y| !is_special(doc, y) && doc.subtree_end(y) <= x.0),
            );
        }
        Axis::FollowingSibling => {
            let mut cur = doc.next_sibling(x);
            while let Some(s) = cur {
                if !is_special(doc, s) {
                    out.push(s);
                }
                cur = doc.next_sibling(s);
            }
        }
        Axis::PrecedingSibling => {
            let mut cur = doc.prev_sibling(x);
            while let Some(s) = cur {
                if !is_special(doc, s) {
                    out.push(s);
                }
                cur = doc.prev_sibling(s);
            }
            out.reverse();
        }
        Axis::Id => {
            // Exact semantics: deref_ids(strval(x)) (§10.2).
            out.extend(doc.deref_ids(doc.string_value(x)));
        }
    }
}

/// Typed set-to-set axis function `χ(S)` (Definition 3.1 with the §4 type
/// filtering). `set` must be sorted in document order; the result is sorted
/// and duplicate-free. Runs in `O(|dom|)` for every axis.
pub fn eval_axis(doc: &Document, axis: Axis, set: &[NodeId]) -> Vec<NodeId> {
    eval_axis_inner(doc, axis, set, true)
}

fn keep(doc: &Document, n: NodeId, typed: bool) -> bool {
    !typed || !is_special(doc, n)
}

fn eval_axis_inner(doc: &Document, axis: Axis, set: &[NodeId], typed: bool) -> Vec<NodeId> {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "input set must be sorted");
    let mut out = Vec::new();
    match axis {
        Axis::SelfAxis => {
            out.extend(set.iter().copied().filter(|&x| keep(doc, x, typed)));
        }
        Axis::Child => {
            for &x in set {
                out.extend(doc.children(x).filter(|&c| keep(doc, c, typed)));
            }
            out.sort_unstable();
        }
        Axis::Attribute => {
            for &x in set {
                out.extend(doc.children(x).filter(|&c| doc.kind(c) == NodeKind::Attribute));
            }
            out.sort_unstable();
        }
        Axis::Namespace => {
            for &x in set {
                out.extend(doc.children(x).filter(|&c| doc.kind(c) == NodeKind::Namespace));
            }
            out.sort_unstable();
        }
        Axis::Parent => {
            out.extend(set.iter().filter_map(|&x| doc.parent(x)));
            out.sort_unstable();
            out.dedup();
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut mark = vec![false; doc.len()];
            for &x in set {
                let mut cur = if axis == Axis::AncestorOrSelf {
                    if keep(doc, x, typed) {
                        Some(x)
                    } else {
                        doc.parent(x)
                    }
                } else {
                    doc.parent(x)
                };
                while let Some(p) = cur {
                    if mark[p.index()] {
                        break; // everything above is already marked
                    }
                    mark[p.index()] = true;
                    cur = doc.parent(p);
                }
            }
            out.extend((0..doc.len() as u32).map(NodeId).filter(|n| mark[n.index()]));
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            // Merge the (sorted) preorder intervals.
            let mut next_free = 0u32;
            for &x in set {
                let lo = if axis == Axis::Descendant { x.0 + 1 } else { x.0 };
                let hi = doc.subtree_end(x);
                let lo = lo.max(next_free);
                for i in lo..hi {
                    let n = NodeId(i);
                    if keep(doc, n, typed) {
                        out.push(n);
                    }
                }
                next_free = next_free.max(hi);
            }
        }
        Axis::Following => {
            // following(S) = [min_{x∈S} subtree_end(x), |dom|).
            if let Some(&first) = set.first() {
                let lo = set.iter().map(|&x| doc.subtree_end(x)).min().unwrap_or(first.0);
                out.extend((lo..doc.len() as u32).map(NodeId).filter(|&n| keep(doc, n, typed)));
            }
        }
        Axis::Preceding => {
            // y ∈ preceding(S) iff ∃x∈S: y < x and y not an ancestor of x,
            // iff subtree_end(y) ≤ max(S) (preorder-interval argument).
            if let Some(&max) = set.last() {
                out.extend(
                    (0..max.0)
                        .map(NodeId)
                        .filter(|&y| keep(doc, y, typed) && doc.subtree_end(y) <= max.0),
                );
            }
        }
        Axis::FollowingSibling => {
            let mut mark = vec![false; doc.len()];
            for &x in set {
                let mut cur = doc.next_sibling(x);
                while let Some(s) = cur {
                    if mark[s.index()] {
                        break; // the rest of the sibling chain is marked
                    }
                    mark[s.index()] = true;
                    cur = doc.next_sibling(s);
                }
            }
            out.extend(
                (0..doc.len() as u32)
                    .map(NodeId)
                    .filter(|&n| mark[n.index()] && keep(doc, n, typed)),
            );
        }
        Axis::PrecedingSibling => {
            let mut mark = vec![false; doc.len()];
            for &x in set.iter().rev() {
                let mut cur = doc.prev_sibling(x);
                while let Some(s) = cur {
                    if mark[s.index()] {
                        break;
                    }
                    mark[s.index()] = true;
                    cur = doc.prev_sibling(s);
                }
            }
            out.extend(
                (0..doc.len() as u32)
                    .map(NodeId)
                    .filter(|&n| mark[n.index()] && keep(doc, n, typed)),
            );
        }
        Axis::Id => {
            let mut mark = vec![false; doc.len()];
            for &x in set {
                for y in doc.deref_ids(doc.string_value(x)) {
                    mark[y.index()] = true;
                }
            }
            out.extend((0..doc.len() as u32).map(NodeId).filter(|n| mark[n.index()]));
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "output must be sorted+deduped");
    out
}

/// The inverse axis function `χ⁻¹(X)` of §10.1: all `y` such that some
/// `x ∈ X` satisfies `y χ x` under the *typed* axis `χ`. Used by the
/// backward semantics `S←` (Core XPath) and the bottom-up path propagation
/// of §11. Runs in `O(|dom|)`.
pub fn inverse_axis_set(doc: &Document, axis: Axis, set: &[NodeId]) -> Vec<NodeId> {
    match axis {
        Axis::Attribute => {
            // attribute⁻¹: owner elements of attribute nodes in X.
            let attrs: Vec<NodeId> =
                set.iter().copied().filter(|&x| doc.kind(x) == NodeKind::Attribute).collect();
            eval_axis_inner(doc, Axis::Parent, &attrs, false)
        }
        Axis::Namespace => {
            let nss: Vec<NodeId> =
                set.iter().copied().filter(|&x| doc.kind(x) == NodeKind::Namespace).collect();
            eval_axis_inner(doc, Axis::Parent, &nss, false)
        }
        Axis::Id => crate::id::id_inverse_ref(doc, set),
        _ => {
            // x χ_typed y iff y non-special ∧ x χ0 y. Therefore
            // χ⁻¹(X) = χ0⁻¹(X ∩ non-special), with no result filtering
            // (Lemma 10.1 on the untyped axes).
            let proper: Vec<NodeId> =
                set.iter().copied().filter(|&x| !is_special(doc, x)).collect();
            eval_axis_inner(doc, axis.inverse(), &proper, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::eval_axis_untyped;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat};
    use xpath_xml::Document;

    /// Typed reference implementation per §4, built on Algorithm 3.2.
    fn typed_reference(doc: &Document, axis: Axis, set: &[NodeId]) -> Vec<NodeId> {
        match axis {
            Axis::Attribute => {
                let mut v = eval_axis_untyped(doc, Axis::Child, set);
                v.retain(|&n| doc.kind(n) == NodeKind::Attribute);
                v
            }
            Axis::Namespace => {
                let mut v = eval_axis_untyped(doc, Axis::Child, set);
                v.retain(|&n| doc.kind(n) == NodeKind::Namespace);
                v
            }
            Axis::Id => eval_axis(doc, Axis::Id, set),
            _ => {
                let mut v = eval_axis_untyped(doc, axis, set);
                v.retain(|&n| !doc.kind(n).is_special_child());
                v
            }
        }
    }

    fn check_all_axes(doc: &Document) {
        for axis in Axis::STANDARD {
            for x in doc.all_nodes() {
                let fast_single = axis_from(doc, axis, x);
                let fast_set = eval_axis(doc, axis, &[x]);
                let reference = typed_reference(doc, axis, &[x]);
                assert_eq!(fast_set, reference, "{axis:?} from {x:?} (set)");
                let mut sorted_single = fast_single.clone();
                sorted_single.sort_unstable();
                assert_eq!(sorted_single, reference, "{axis:?} from {x:?} (single)");
            }
            // A couple of multi-node sets.
            let evens: Vec<NodeId> = doc.all_nodes().filter(|n| n.0 % 2 == 0).collect();
            assert_eq!(
                eval_axis(doc, axis, &evens),
                typed_reference(doc, axis, &evens),
                "{axis:?} on even set"
            );
        }
    }

    #[test]
    fn fast_matches_algorithm_3_2_on_flat_doc() {
        check_all_axes(&doc_flat(5));
    }

    #[test]
    fn fast_matches_algorithm_3_2_on_figure8() {
        check_all_axes(&doc_figure8());
    }

    #[test]
    fn fast_matches_algorithm_3_2_on_bookstore() {
        check_all_axes(&doc_bookstore());
    }

    #[test]
    fn inverse_axis_lemma_10_1() {
        // x ∈ χ(y) iff y ∈ χ⁻¹(x), for every standard axis and node pair.
        let doc = doc_figure8();
        for axis in Axis::STANDARD {
            for y in doc.all_nodes() {
                let forward = eval_axis(&doc, axis, &[y]);
                for x in doc.all_nodes() {
                    let back = inverse_axis_set(&doc, axis, &[x]);
                    assert_eq!(
                        forward.contains(&x),
                        back.contains(&y),
                        "{axis:?}: x={x:?} y={y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn attribute_axis_only_attributes() {
        let doc = doc_figure8();
        let a = doc.element_by_id("10").unwrap();
        let attrs = eval_axis(&doc, Axis::Attribute, &[a]);
        assert_eq!(attrs.len(), 1);
        assert_eq!(doc.kind(attrs[0]), NodeKind::Attribute);
        // child excludes the attribute.
        let kids = eval_axis(&doc, Axis::Child, &[a]);
        assert!(kids.iter().all(|&k| doc.kind(k) != NodeKind::Attribute));
        assert_eq!(kids.len(), 2);
    }
}
