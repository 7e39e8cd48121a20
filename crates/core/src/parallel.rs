//! Sharded parallel CVT evaluation: split the node-id universe into
//! contiguous ranges, run per-step passes per shard on a small scoped
//! thread pool, and merge with word-parallel bitset unions.
//!
//! The paper's evaluators are built from per-step **context-value-table
//! passes** whose node-id-indexed rows are embarrassingly data-parallel:
//! the bottom-up per-node table fills ([`crate::bottomup`]) touch each
//! row independently, and the Core XPath `E1`/`S←` axis passes
//! ([`crate::corexpath`]) distribute over input union
//! (`χ(S) = ∪ᵢ χ(S ∩ rangeᵢ)`). Every building block is pure and
//! side-effect free (`bulk::axis_set_planned`, the hybrid
//! [`NodeSet`] algebra), so shards can run concurrently with **no
//! synchronization besides the join**.
//!
//! # Shard / merge invariants
//!
//! * Shards partition the id universe into contiguous, **word-aligned**
//!   ranges ([`xpath_xml::nodeset::shard_ranges`]), so dense per-shard
//!   results never share a bitset word across a boundary.
//! * Axis passes shard their **input** set; per-shard results may overlap
//!   (ancestor chains from different shards meet) and are merged with
//!   [`NodeSet::union_shards`] — correctness needs only distributivity
//!   over input union, which holds for every axis function (each is a
//!   per-node union).
//! * Row passes ([`map_rows`] / [`try_map_rows`]) shard their **output**
//!   rows; shards produce disjoint row ranges that concatenate in order,
//!   so the merged pass is bit-identical to the serial one.
//! * Worker threads are spawned per pass with [`std::thread::scope`]
//!   (no pool state, no new dependencies); the caller's thread runs the
//!   first shard, so `shards = k` spawns `k − 1` workers.
//! * Per-shard [`KernelCounters`] records merge losslessly: a pass
//!   sharded `k` ways records each shard's kernel pick individually plus
//!   one `record_sharded(k)`, and those flow into `CompiledQuery::
//!   planner_stats` / `QueryCache::planner_stats` like any other tally.
//!
//! # When the planner refuses to spawn
//!
//! Spawning is **cost-gated per pass** by
//! [`CostModel::pick_shards`]: the divisible work saved must repay
//! [`CostModel::spawn_ns`] per extra worker plus the word-parallel merge
//! at the join ([`CostModel::merge_word_ns`]). Concretely the planner
//! refuses whenever
//!
//! * the thread budget is 1 (explicit `--threads 1`, `GKP_THREADS=1`, or
//!   a single-core machine),
//! * a row pass has fewer than [`CostModel::row_shard_crossover`] rows
//!   (~600 at the calibrated constants), or
//! * an axis pass has fewer than [`CostModel::axis_shard_crossover`]
//!   input nodes — note this grows with the universe, because every
//!   extra shard pays its own dense materialization and merge.
//!
//! A refused pass runs serially on the caller's thread through exactly
//! [`bulk::axis_set_planned`], so a 1-shard budget is the serial adaptive
//! engine, bit for bit and (within noise) nanosecond for nanosecond.
//! The thread budget is a setting of the one adaptive axis path
//! ([`CoreXPathEvaluator::with_threads`](crate::corexpath::CoreXPathEvaluator::with_threads)).
//!
//! The thread budget resolves as: explicit request (e.g. `xpq
//! --threads N`, [`crate::query::Compiler::threads`]) > the
//! [`THREADS_ENV`] environment variable > `std::thread::
//! available_parallelism` capped at [`MAX_AUTO_THREADS`].

use std::sync::OnceLock;

use xpath_axes::{bulk, CostModel, KernelCounters};
use xpath_syntax::Axis;
use xpath_xml::nodeset::shard_ranges;
use xpath_xml::{Document, NodeSet};

/// Environment variable bounding the auto-resolved thread budget, e.g.
/// `GKP_THREADS=4`. `GKP_THREADS=1` disables sharding process-wide.
pub const THREADS_ENV: &str = "GKP_THREADS";

/// Cap on the auto-resolved budget: CVT passes are memory-bound, so
/// fan-out past a few cores buys little and the spawn gate would mostly
/// refuse the extra shards anyway.
pub const MAX_AUTO_THREADS: usize = 8;

/// Resolve a requested thread budget: an explicit `n ≥ 1` wins; `0`
/// (auto) reads [`THREADS_ENV`] once per process, falling back to
/// [`std::thread::available_parallelism`] capped at [`MAX_AUTO_THREADS`].
pub fn resolve_threads(requested: u32) -> usize {
    if requested >= 1 {
        return requested as usize;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        match std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_AUTO_THREADS)),
        }
    })
}

/// Run `f` once per `(shard_index, lo, hi)` range on a scoped thread
/// pool — `ranges.len() − 1` spawned workers, the caller's thread runs
/// the first shard — returning the results in range order. A panicking
/// shard propagates after the scope joins.
pub fn run_sharded<T, F>(ranges: &[(u32, u32)], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u32, u32) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges.iter().map(|&(lo, hi)| f(0, lo, hi)).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = ranges[1..]
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| scope.spawn(move || f(i + 1, lo, hi)))
            .collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(f(0, ranges[0].0, ranges[0].1));
        for w in workers {
            out.push(w.join().expect("shard worker panicked"));
        }
        out
    })
}

/// How many shards an axis pass over `input_len` source nodes in a
/// `universe`-id document should use under `model`, at most `threads`
/// (1 = the planner refuses to spawn).
pub fn plan_axis_shards(
    universe: u32,
    input_len: usize,
    threads: usize,
    model: &CostModel,
) -> usize {
    if threads <= 1 || universe == 0 || input_len == 0 {
        return 1;
    }
    let words = universe as f64 / 64.0;
    // Divisible: the per-input staircase/dispatch work. Fixed per extra
    // shard: its own dense materialization plus the merge at the join.
    let divisible = model.input_ns * input_len as f64;
    let per_shard = (model.dense_word_ns + model.merge_word_ns) * words;
    model.pick_shards(divisible, per_shard, threads)
}

/// How many shards a CVT row pass of `rows` rows should use under
/// `model`, at most `threads` (1 = the planner refuses to spawn).
pub fn plan_row_shards(rows: usize, threads: usize, model: &CostModel) -> usize {
    if threads <= 1 || rows == 0 {
        return 1;
    }
    model.pick_shards(rows as f64 * model.cvt_row_ns(), 0.0, threads)
}

/// Cost-gated sharded forward axis pass — the parallel form of
/// [`bulk::axis_set_planned`]. When the gate approves, the input set is
/// split over word-aligned id ranges, each shard runs the adaptive
/// kernel planner on its slice concurrently
/// ([`bulk::axis_set_planned_range`]), and the per-shard results merge
/// word-parallel; otherwise the pass runs serially on the caller's
/// thread. Each shard's kernel pick (and the shard count) is recorded
/// into `counters` when given.
pub fn axis_set_sharded(
    doc: &Document,
    axis: Axis,
    set: &NodeSet,
    threads: usize,
    model: &CostModel,
    counters: Option<&KernelCounters>,
) -> NodeSet {
    let universe = doc.len() as u32;
    let shards = plan_axis_shards(universe, set.len(), threads, model);
    // Word alignment can collapse an approved split on a tiny universe
    // (one bitset word cannot divide): a single range runs — and is
    // recorded — as a serial pass.
    let ranges = if shards > 1 { shard_ranges(universe, shards) } else { Vec::new() };
    if ranges.len() <= 1 {
        let (out, kernel) = bulk::axis_set_planned(doc, axis, set, model);
        if let Some(c) = counters {
            c.record(kernel);
        }
        return out;
    }
    let parts = run_sharded(&ranges, |_, lo, hi| {
        bulk::axis_set_planned_range(doc, axis, set, lo, hi, model)
    });
    record_shard_parts(counters, &parts);
    NodeSet::union_shards(parts.into_iter().map(|(s, _)| s))
}

/// Cost-gated sharded inverse axis pass (`χ⁻¹`, the `S←` step unit) —
/// the parallel form of [`bulk::inverse_axis_set_planned`]. The
/// attribute/namespace/id inverses stay serial (they are sparse
/// link-array walks with no divisible bulk).
pub fn inverse_axis_set_sharded(
    doc: &Document,
    axis: Axis,
    set: &NodeSet,
    threads: usize,
    model: &CostModel,
    counters: Option<&KernelCounters>,
) -> NodeSet {
    let universe = doc.len() as u32;
    let shards = match axis {
        Axis::Attribute | Axis::Namespace | Axis::Id => 1,
        _ => plan_axis_shards(universe, set.len(), threads, model),
    };
    let ranges = if shards > 1 { shard_ranges(universe, shards) } else { Vec::new() };
    if ranges.len() <= 1 {
        let (out, kernel) = bulk::inverse_axis_set_planned(doc, axis, set, model);
        if let Some(c) = counters {
            c.record(kernel);
        }
        return out;
    }
    let parts = run_sharded(&ranges, |_, lo, hi| {
        bulk::inverse_axis_set_planned_range(doc, axis, set, lo, hi, model)
    });
    record_shard_parts(counters, &parts);
    NodeSet::union_shards(parts.into_iter().map(|(s, _)| s))
}

fn record_shard_parts(counters: Option<&KernelCounters>, parts: &[(NodeSet, xpath_axes::Kernel)]) {
    if let Some(c) = counters {
        c.record_sharded(parts.len());
        for (_, kernel) in parts {
            c.record(*kernel);
        }
    }
}

/// Shard an infallible CVT row pass over `[0, rows)`: run `f` per
/// contiguous row range — each returning its rows in ascending order —
/// and concatenate. With `shards ≤ 1` this is just `f(0, rows)`.
pub fn map_rows<T, F>(rows: u32, shards: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, u32) -> Vec<T> + Sync,
{
    if shards <= 1 {
        return f(0, rows);
    }
    let parts = run_sharded(&chunk_ranges(rows, shards), |_, lo, hi| f(lo, hi));
    let mut out = Vec::with_capacity(rows as usize);
    for p in parts {
        out.extend(p);
    }
    out
}

/// [`map_rows`] for fallible passes: every shard runs to completion (the
/// scope joins all workers), then the first error in row order wins.
pub fn try_map_rows<T, E, F>(rows: u32, shards: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(u32, u32) -> Result<Vec<T>, E> + Sync,
{
    if shards <= 1 {
        return f(0, rows);
    }
    let parts = run_sharded(&chunk_ranges(rows, shards), |_, lo, hi| f(lo, hi));
    let mut out = Vec::with_capacity(rows as usize);
    for p in parts {
        out.extend(p?);
    }
    Ok(out)
}

/// Split `[0, items)` into at most `shards` near-equal contiguous ranges
/// (no word alignment — unlike [`shard_ranges`], these partition plain
/// indices: CVT table rows, or the query list of a
/// [`batch::QuerySet`](crate::batch::QuerySet) fanning out one query per
/// worker).
pub fn chunk_ranges(items: u32, shards: usize) -> Vec<(u32, u32)> {
    if items == 0 || shards <= 1 {
        return vec![(0, items)];
    }
    let per_shard = items.div_ceil(shards as u32).max(1);
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0u32;
    while lo < items {
        let hi = (lo + per_shard).min(items);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_xml::generate::{doc_balanced, doc_random, RandomDocConfig};
    use xpath_xml::NodeId;

    /// Spawn/merge-free model: the gate always approves the full budget.
    fn always_shard() -> CostModel {
        CostModel { spawn_ns: 1e-9, merge_word_ns: 1e-9, ..CostModel::CALIBRATED }
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1, "auto resolves to at least one thread");
    }

    #[test]
    fn row_passes_concatenate_in_order() {
        for shards in [1usize, 2, 3, 8, 64] {
            let got = map_rows(100, shards, |lo, hi| (lo..hi).collect::<Vec<u32>>());
            assert_eq!(got, (0..100).collect::<Vec<u32>>(), "{shards} shards");
        }
        // Fallible: all shards join, first error in row order wins.
        let err = try_map_rows(100, 4, |lo, hi| {
            if lo >= 50 {
                Err(format!("shard at {lo}"))
            } else {
                Ok((lo..hi).collect::<Vec<u32>>())
            }
        });
        assert_eq!(err, Err("shard at 50".to_string()));
        assert_eq!(try_map_rows(0, 4, |_, _| Ok::<_, ()>(Vec::<u32>::new())), Ok(Vec::new()));
    }

    #[test]
    fn sharded_axis_passes_match_serial_on_every_axis() {
        let model = always_shard();
        for seed in 0..4u64 {
            let doc =
                doc_random(seed, &RandomDocConfig { elements: 80, ..RandomDocConfig::default() });
            let n = doc.len() as u32;
            let ids: Vec<NodeId> = doc.all_nodes().filter(|x| x.0 % 3 != 1).collect();
            for set in [NodeSet::from_sorted(ids.clone()), NodeSet::from_sorted(ids).densify(n)] {
                for axis in Axis::STANDARD {
                    let want = bulk::axis_set_planned(&doc, axis, &set, &model).0;
                    let want_inv = bulk::inverse_axis_set_planned(&doc, axis, &set, &model).0;
                    for threads in [1usize, 2, 4, 8] {
                        let got = axis_set_sharded(&doc, axis, &set, threads, &model, None);
                        assert_eq!(got, want, "{axis:?} fwd, {threads} threads, seed {seed}");
                        let got = inverse_axis_set_sharded(&doc, axis, &set, threads, &model, None);
                        assert_eq!(got, want_inv, "{axis:?} inv, {threads} threads, seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_counters_record_per_shard_kernels() {
        let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
        let all: NodeSet = doc.all_nodes().collect();
        let model = always_shard();
        let counters = KernelCounters::new();
        axis_set_sharded(&doc, Axis::Descendant, &all, 4, &model, Some(&counters));
        let s = counters.snapshot();
        assert_eq!(s.sharded_passes, 1);
        assert!(s.shards_spawned >= 2, "{s:?}");
        assert_eq!(s.total(), s.shards_spawned, "one kernel record per shard");
    }

    #[test]
    fn single_word_universe_never_records_a_sharded_pass() {
        // A ≤64-id universe is one bitset word: word alignment collapses
        // any approved split to a single range, which must run — and be
        // recorded — as a plain serial pass, even under an always-shard
        // model with a wide budget.
        let doc = doc_balanced(2, 4, &["a", "b"]);
        assert!(doc.len() <= 64, "test needs a one-word universe");
        let all: NodeSet = doc.all_nodes().collect();
        let counters = KernelCounters::new();
        axis_set_sharded(&doc, Axis::Descendant, &all, 8, &always_shard(), Some(&counters));
        inverse_axis_set_sharded(&doc, Axis::Ancestor, &all, 8, &always_shard(), Some(&counters));
        let s = counters.snapshot();
        assert_eq!(s.sharded_passes, 0, "{s:?}");
        assert_eq!(s.total(), 2, "one serial kernel record per pass: {s:?}");
    }

    #[test]
    fn calibrated_gate_refuses_small_passes() {
        let doc = doc_balanced(3, 4, &["a", "b"]);
        let all: NodeSet = doc.all_nodes().collect();
        let counters = KernelCounters::new();
        // A ~120-node pass is far below the spawn crossover: the planner
        // must refuse and run the exact Adaptive path.
        axis_set_sharded(&doc, Axis::Descendant, &all, 8, CostModel::global(), Some(&counters));
        let s = counters.snapshot();
        assert_eq!((s.sharded_passes, s.total()), (0, 1), "{s:?}");
    }
}
