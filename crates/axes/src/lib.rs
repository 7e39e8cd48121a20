//! # xpath-axes — axis evaluation engine
//!
//! Implements §3–§4 of Gottlob, Koch & Pichler's *Efficient Algorithms for
//! Processing XPath Queries*:
//!
//! * [`regex`] — the Table I axis definitions as limited regular expressions
//!   over `firstchild`/`nextsibling` and their inverses, evaluated by
//!   **Algorithm 3.2** in `O(|dom|)` (Lemma 3.3);
//! * [`typed`] — the §4 lifting to XPath's typed axes (attribute/namespace
//!   filtering) on top of Algorithm 3.2;
//! * [`fast`] — the per-node kernels: axis enumeration from one node
//!   ([`fast::axis_from`]), preorder-interval set algorithms
//!   ([`fast::eval_axis`]) and the inverse axes `χ⁻¹` of §10/§11;
//! * [`id`] — the `id` axis and its linear-time `ref`-relation encoding
//!   (Theorem 10.7);
//! * [`bulk`] — set-at-a-time axis functions over the hybrid
//!   [`NodeSet`](xpath_xml::NodeSet) and the structure-of-arrays
//!   [`AxisIndex`](xpath_xml::AxisIndex): staircase joins for the interval
//!   axes, word-parallel range fills and type filtering;
//! * [`stream`] — resumable block-synchronous expansion of the forward
//!   axes ([`stream::StepStreamer`]) for the lazy cursor layer: early
//!   exit, deadlines and cancellation without giving up the bulk
//!   kernels' staircase and chain-walk routes;
//! * [`cost`] — the calibrated cost model behind the **adaptive** kernel
//!   planner ([`bulk::axis_set_planned`]): per axis application, pick the
//!   cheapest of the per-node loop, the sparse staircase and the dense
//!   word-parallel kernel from input density × axis shape × document
//!   size. This is the engine's one axis path; Algorithm 3.2 stays as the
//!   reference the differential suites check it against.
//!
//! Property tests assert that the kernels agree with the Algorithm 3.2
//! reference on random documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod cost;
pub mod fast;
pub mod id;
pub mod regex;
pub mod stream;
pub mod typed;

pub use bulk::{axis_set, axis_set_planned};
pub use cost::{BatchMode, CostModel, Kernel, KernelCounters, KernelCounts};
pub use fast::{axis_from, axis_from_into, eval_axis, inverse_axis_set};
pub use stream::{is_streamable, StepStreamer};
pub use typed::eval_axis_alg32;

// Property tests need the external `proptest` crate, which is not
// vendored in this offline workspace; build with `--features proptest`
// in an environment that can supply it.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use proptest::prelude::*;
    use xpath_syntax::Axis;
    use xpath_xml::generate::{doc_random, RandomDocConfig};
    use xpath_xml::NodeId;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random documents the fast typed axes equal the Algorithm 3.2
        /// reference for every axis and every singleton input.
        #[test]
        fn fast_equals_alg32_on_random_docs(seed in 0u64..5000) {
            let cfg = RandomDocConfig { elements: 40, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            for axis in Axis::STANDARD {
                for x in doc.all_nodes() {
                    prop_assert_eq!(
                        crate::fast::eval_axis(&doc, axis, &[x]),
                        crate::typed::eval_axis_alg32(&doc, axis, &[x])
                    );
                }
            }
        }

        /// Lemma 10.1 on random documents: x ∈ χ(y) iff y ∈ χ⁻¹(x).
        #[test]
        fn inverse_axes_on_random_docs(seed in 0u64..5000) {
            let cfg = RandomDocConfig { elements: 25, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            for axis in [Axis::Child, Axis::Descendant, Axis::Following, Axis::FollowingSibling, Axis::Parent, Axis::AncestorOrSelf] {
                for y in doc.all_nodes() {
                    let forward = crate::fast::eval_axis(&doc, axis, &[y]);
                    for x in forward {
                        let back = crate::fast::inverse_axis_set(&doc, axis, &[x]);
                        prop_assert!(back.contains(&y), "{:?} x={:?} y={:?}", axis, x, y);
                    }
                }
            }
        }

        /// The bulk set-at-a-time kernels equal the per-node set
        /// algorithms on random documents, for both NodeSet representations.
        #[test]
        fn bulk_equals_fast_on_random_docs(seed in 0u64..5000) {
            let cfg = RandomDocConfig { elements: 35, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            let n = doc.len() as u32;
            let ids: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            let sparse = xpath_xml::NodeSet::from_sorted(ids.clone());
            let dense = sparse.clone().densify(n);
            for axis in Axis::STANDARD {
                let want = crate::fast::eval_axis(&doc, axis, &ids);
                prop_assert_eq!(crate::bulk::axis_set(&doc, axis, &sparse).to_vec(), want.clone(), "{:?} sparse", axis);
                prop_assert_eq!(crate::bulk::axis_set(&doc, axis, &dense).to_vec(), want, "{:?} dense", axis);
            }
        }

        /// Set evaluation equals the union of per-node evaluations.
        #[test]
        fn set_eval_is_union_of_singletons(seed in 0u64..5000, mask in 0u32..255) {
            let cfg = RandomDocConfig { elements: 20, ..RandomDocConfig::default() };
            let doc = doc_random(seed, &cfg);
            let set: Vec<NodeId> = doc
                .all_nodes()
                .filter(|n| mask & (1 << (n.0 % 8)) != 0)
                .collect();
            for axis in Axis::STANDARD {
                let whole = crate::fast::eval_axis(&doc, axis, &set);
                let mut union: Vec<NodeId> = set
                    .iter()
                    .flat_map(|&x| crate::fast::eval_axis(&doc, axis, &[x]))
                    .collect();
                union.sort_unstable();
                union.dedup();
                prop_assert_eq!(whole, union, "{:?}", axis);
            }
        }
    }
}
