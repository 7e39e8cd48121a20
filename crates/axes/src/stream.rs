//! Resumable, early-exit axis expansion for the lazy cursor layer
//! (`xpath_core::cursor`).
//!
//! Every **forward** axis is *preorder-monotone*: each output id is ≥ its
//! input id (`self` maps a node to itself; `child`, `descendant`,
//! `following`, `following-sibling`, `attribute` and `namespace` all
//! produce nodes strictly after their input in document order). So a
//! pipeline of forward steps can be evaluated **block-synchronously**
//! over the id space: once every input with id `< hi` has been fed, the
//! outputs with id `< hi` are final — no later input can add one.
//!
//! A [`StepStreamer`] is the resumable per-step kernel behind that
//! invariant: it accepts input nodes one at a time **in ascending id
//! order** and accumulates the raw axis image, using exactly the same
//! staircase / chain-walk routes as the materializing kernels in
//! [`crate::bulk`] (covered-interval skipping via the `next_free`
//! watermark, marked-chain early exit, inline special-child filtering on
//! `child`). The cursor layer then reads one `[lo, hi)` window at a
//! time, applies the §4 type strip and
//! the node test per block, and stops pulling as soon as its caller is
//! satisfied — the early-exit path never pays for document regions past
//! the last block it needed.
//!
//! Reverse axes are not preorder-monotone (an `ancestor` output precedes
//! its input), so they are not streamable here; the cursor layer
//! materializes those spines instead ([`is_streamable`] is the gate, and
//! the analyzer's verdict surfaces in `xpq --explain`).

use xpath_syntax::Axis;
use xpath_xml::axis_index::NONE;
use xpath_xml::{simd, Document, NodeId, NodeKind};

/// Can a forward spine step over `axis` be evaluated block-synchronously
/// (every output id ≥ the input id)? Reverse axes, `parent` (output
/// *precedes* input), and the `id` axis (targets anywhere in the
/// document) are not.
pub fn is_streamable(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::SelfAxis
            | Axis::Child
            | Axis::Attribute
            | Axis::Namespace
            | Axis::Descendant
            | Axis::DescendantOrSelf
            | Axis::Following
            | Axis::FollowingSibling
    )
}

/// Resumable set-at-a-time expansion of one forward axis: feed input
/// nodes in ascending id order with [`StepStreamer::push`]; after every
/// input `< hi` has been pushed, [`StepStreamer::window`] up to `hi` is
/// the final (untyped, except `child`/`attribute`/`namespace`'s inline
/// filtering) axis image below `hi` — the block-synchronous invariant
/// the lazy cursor pipeline is built on.
///
/// The image is kept in the form each axis produces, so a window costs
/// its own width and never the document's: `descendant(-or-self)` as
/// ascending disjoint id intervals (the staircase watermark keeps them
/// so), `following` as its one suffix `[follow_lo, n)`, and the pointer
/// axes as marked bits in a word buffer grown only as far as the highest
/// marked id (pooled, recycled on drop). The pointer axes walk the flat
/// link arrays with the same early exits as [`crate::bulk::axis_set`].
#[derive(Clone, Debug)]
pub struct StepStreamer {
    axis: Axis,
    /// Pointer axes (`self`, `child`, `attribute`, `namespace`,
    /// `following-sibling`): one bit per marked id; words past the end
    /// are zero. Drawn from the pool on the first mark.
    marked: Vec<u64>,
    /// `descendant(-or-self)`: the image as ascending, disjoint,
    /// non-adjacent `[lo, hi)` intervals.
    intervals: Vec<(u32, u32)>,
    /// Staircase watermark for `descendant`/`descendant-or-self`:
    /// covered subtree intervals are skipped exactly as in the bulk
    /// kernel (inputs arrive ascending, so nested subtrees are always
    /// covered by the time they arrive).
    next_free: u32,
    /// Current low bound of the `following` image `[follow_lo, n)`;
    /// starts at `n` (empty) and only ever decreases.
    follow_lo: u32,
}

impl StepStreamer {
    /// A streamer for `axis` over `doc`, or `None` if the axis is not
    /// [`is_streamable`].
    pub fn new(doc: &Document, axis: Axis) -> Option<StepStreamer> {
        if !is_streamable(axis) {
            return None;
        }
        Some(StepStreamer {
            axis,
            marked: Vec::new(),
            intervals: Vec::new(),
            next_free: 0,
            follow_lo: doc.len() as u32,
        })
    }

    /// The axis this streamer expands.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Does the image still need the §4 type strip (dropping
    /// attribute/namespace nodes)? `child` filters specials inline and
    /// `attribute`/`namespace` *produce* special nodes, so only the
    /// interval axes and `self`/`following-sibling` answer `true`.
    pub fn needs_type_strip(&self) -> bool {
        !matches!(self.axis, Axis::Child | Axis::Attribute | Axis::Namespace)
    }

    fn mark(&mut self, n: u32) {
        let w = (n / 64) as usize;
        if self.marked.capacity() == 0 {
            self.marked = xpath_xml::pool::take_words();
        }
        if w >= self.marked.len() {
            self.marked.resize(w + 1, 0);
        }
        self.marked[w] |= 1 << (n % 64);
    }

    fn is_marked(&self, n: u32) -> bool {
        self.marked.get((n / 64) as usize).is_some_and(|w| w >> (n % 64) & 1 == 1)
    }

    /// Feed one input node. Inputs must arrive in ascending id order
    /// across all `push` calls (the caller's block pipeline guarantees
    /// this; the staircase and chain early exits rely on it).
    pub fn push(&mut self, doc: &Document, x: NodeId) {
        let ix = doc.axis_index();
        match self.axis {
            Axis::SelfAxis => self.mark(x.0),
            Axis::Child => {
                let mut c = ix.first_child(x.0);
                while c != NONE {
                    if !ix.is_special(c) {
                        self.mark(c);
                    }
                    c = ix.next_sibling(c);
                }
            }
            Axis::Attribute | Axis::Namespace => {
                let want = if self.axis == Axis::Attribute {
                    NodeKind::Attribute
                } else {
                    NodeKind::Namespace
                };
                let mut c = ix.first_child(x.0);
                while c != NONE {
                    if doc.kind(NodeId(c)) == want {
                        self.mark(c);
                    }
                    c = ix.next_sibling(c);
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                let lo = if self.axis == Axis::Descendant { x.0 + 1 } else { x.0 };
                let (lo, hi) = (lo.max(self.next_free), ix.subtree_end(x.0).max(self.next_free));
                if lo < hi {
                    match self.intervals.last_mut() {
                        Some(last) if last.1 == lo => last.1 = hi,
                        _ => self.intervals.push((lo, hi)),
                    }
                }
                self.next_free = self.next_free.max(hi);
            }
            // following(S) = [min subtree_end, n).
            Axis::Following => self.follow_lo = self.follow_lo.min(ix.subtree_end(x.0)),
            Axis::FollowingSibling => {
                let mut s = ix.next_sibling(x.0);
                while s != NONE {
                    if self.is_marked(s) {
                        break; // the rest of the chain is marked
                    }
                    self.mark(s);
                    s = ix.next_sibling(s);
                }
            }
            // `new` refuses every other axis.
            _ => unreachable!("non-streamable axis in StepStreamer"),
        }
    }

    /// Append the raw axis image inside `[lo, hi)` to `out`, ascending
    /// (before the §4 type strip — see [`StepStreamer::needs_type_strip`]
    /// — and before any node test). Final once all inputs `< hi` are in;
    /// `hi` must not exceed the document length. Costs `O(hi − lo)`
    /// word or id operations, whatever the document size.
    pub fn window(&self, lo: u32, hi: u32, out: &mut Vec<NodeId>) {
        if lo >= hi {
            return;
        }
        match self.axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let first = self.intervals.partition_point(|&(_, end)| end <= lo);
                for &(a, b) in &self.intervals[first..] {
                    if a >= hi {
                        break;
                    }
                    simd::extend_id_run(out, a.max(lo), b.min(hi));
                }
            }
            Axis::Following => {
                if self.follow_lo < hi {
                    simd::extend_id_run(out, self.follow_lo.max(lo), hi);
                }
            }
            _ => {
                let end = (hi.div_ceil(64) as usize).min(self.marked.len());
                for w in (lo / 64) as usize..end {
                    let base = w as u32 * 64;
                    let mut bits = self.marked[w];
                    if base < lo {
                        bits &= u64::MAX << (lo - base);
                    }
                    if hi - base < 64 {
                        bits &= (1u64 << (hi - base)) - 1;
                    }
                    while bits != 0 {
                        out.push(NodeId(base + bits.trailing_zeros()));
                        bits &= bits - 1;
                    }
                }
            }
        }
    }
}

impl Drop for StepStreamer {
    /// Returns the mark buffer to this thread's pool shelf.
    fn drop(&mut self) {
        xpath_xml::pool::give_words(std::mem::take(&mut self.marked));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_random, RandomDocConfig};
    use xpath_xml::NodeSet;

    const STREAMABLE: &[Axis] = &[
        Axis::SelfAxis,
        Axis::Child,
        Axis::Attribute,
        Axis::Namespace,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
        Axis::FollowingSibling,
    ];

    /// The streamer image below `hi`, stripped the way the bulk kernel
    /// strips, so the two are content-comparable.
    fn finished(doc: &Document, s: &StepStreamer, hi: u32) -> NodeSet {
        let mut ids = Vec::new();
        s.window(0, hi, &mut ids);
        if s.needs_type_strip() {
            ids.retain(|x| !doc.axis_index().is_special(x.0));
        }
        NodeSet::from_sorted(ids)
    }

    #[test]
    fn reverse_axes_are_refused() {
        let d = doc_figure8();
        for axis in [Axis::Parent, Axis::Ancestor, Axis::Preceding, Axis::PrecedingSibling] {
            assert!(!is_streamable(axis));
            assert!(StepStreamer::new(&d, axis).is_none());
        }
    }

    #[test]
    fn streamed_image_matches_bulk_kernel() {
        let docs = [
            doc_figure8(),
            doc_bookstore(),
            doc_random(7, &RandomDocConfig { elements: 60, ..RandomDocConfig::default() }),
        ];
        for doc in &docs {
            let inputs: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            let input_set = NodeSet::from_sorted(inputs.clone());
            for &axis in STREAMABLE {
                let want = bulk::axis_set(doc, axis, &input_set);
                let mut s = StepStreamer::new(doc, axis).unwrap();
                for &x in &inputs {
                    s.push(doc, x);
                }
                assert_eq!(finished(doc, &s, doc.len() as u32), want, "{axis:?}");
            }
        }
    }

    #[test]
    fn windows_tile_the_image() {
        // Reading the image window by window, at any window widths,
        // gives the whole image once.
        let doc = doc_random(5, &RandomDocConfig { elements: 90, ..RandomDocConfig::default() });
        let n = doc.len() as u32;
        let inputs: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 5 < 2).collect();
        for &axis in STREAMABLE {
            let mut s = StepStreamer::new(&doc, axis).unwrap();
            for &x in &inputs {
                s.push(&doc, x);
            }
            let mut whole = Vec::new();
            s.window(0, n, &mut whole);
            for width in [1u32, 3, 63, 64, 65, 200] {
                let mut tiled = Vec::new();
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + width).min(n);
                    s.window(lo, hi, &mut tiled);
                    lo = hi;
                }
                assert_eq!(tiled, whole, "{axis:?} width {width}");
            }
        }
    }

    #[test]
    fn block_synchronous_prefix_is_final() {
        // After pushing only the inputs < hi, the image below hi must
        // already equal the full evaluation's image below hi — the
        // invariant that lets the cursor emit a block and never revisit.
        let doc = doc_random(3, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
        let n = doc.len() as u32;
        let inputs: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 2 == 0).collect();
        let full = NodeSet::from_sorted(inputs.clone());
        for &axis in STREAMABLE {
            let want_full = bulk::axis_set(&doc, axis, &full);
            for hi in [1u32, n / 4, n / 2, n] {
                let mut s = StepStreamer::new(&doc, axis).unwrap();
                for &x in inputs.iter().filter(|x| x.0 < hi) {
                    s.push(&doc, x);
                }
                assert_eq!(
                    finished(&doc, &s, hi),
                    want_full.restrict_range(0, hi),
                    "{axis:?} below {hi}"
                );
            }
        }
    }
}
