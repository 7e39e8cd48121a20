//! The per-layer metric set shared by all workloads, and the helpers
//! that fill it.

use std::time::Instant;

use xpath_axes::KernelCounts;
use xpath_core::plan::Plan;
use xpath_core::{Compiler, Strategy};

use crate::stats;
use crate::sys::Metric;

/// Per-layer values of one traced run (0 where a layer does no work on
/// the workload).
pub struct Layers {
    pub xml_parse_ms: f64,
    pub store_publish_ms: f64,
    pub store_open_us: f64,
    pub store_reopen_us: f64,
    pub store_reloads: f64,
    pub syntax_parse_us: f64,
    pub plan_build_us: f64,
    pub cache_lookup_us: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: f64,
    pub eval_core_ms: f64,
    pub eval_optmin_ms: f64,
    pub eval_lazy_us: f64,
    pub eval_fixed_us: f64,
    pub axes_kernel_ms: f64,
    pub node_test_filter_ms: f64,
    /// per_node, bulk_sparse, bulk_dense, sharded_passes, shards_spawned.
    pub kernels_per_op: [f64; 5],
    pub batch_eval_ms: f64,
    pub batch_memo_hit_ratio: f64,
    pub value_materialize_us: f64,
    pub serve_json_parse_us: f64,
    pub serve_render_us: f64,
    pub serve_handle_us: f64,
    pub serve_socket_us: f64,
    pub pool_peak_in_use: f64,
    pub serve_overloaded: f64,
    pub coverage: f64,
    pub overhead_ratio: f64,
    pub error_rate: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(l: &Layers) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    let k = l.kernels_per_op;
    vec![
        m("xml.parse_ms", "ms", l.xml_parse_ms),
        m("store.publish_ms", "ms", l.store_publish_ms),
        m("store.open_us", "us", l.store_open_us),
        m("store.reopen_us", "us", l.store_reopen_us),
        m("store.reloads", "count", l.store_reloads),
        m("syntax.parse_us", "us", l.syntax_parse_us),
        m("plan.build_us", "us", l.plan_build_us),
        m("cache.lookup_us", "us", l.cache_lookup_us),
        m("cache.hit_ratio", "ratio", l.cache_hit_ratio),
        m("cache.evictions", "count", l.cache_evictions),
        m("eval.core_ms", "ms", l.eval_core_ms),
        m("eval.optmin_ms", "ms", l.eval_optmin_ms),
        m("eval.lazy_us", "us", l.eval_lazy_us),
        m("eval.fixed_us", "us", l.eval_fixed_us),
        m("axes.kernel_ms", "ms", l.axes_kernel_ms),
        m("node_test.filter_ms", "ms", l.node_test_filter_ms),
        m("axes.per_node", "count/op", k[0]),
        m("axes.bulk_sparse", "count/op", k[1]),
        m("axes.bulk_dense", "count/op", k[2]),
        m("axes.sharded_passes", "count/op", k[3]),
        m("axes.shards_spawned", "count/op", k[4]),
        m("batch.eval_ms", "ms", l.batch_eval_ms),
        m("batch.memo_hit_ratio", "ratio", l.batch_memo_hit_ratio),
        m("value.materialize_us", "us", l.value_materialize_us),
        m("serve.json_parse_us", "us", l.serve_json_parse_us),
        m("serve.render_us", "us", l.serve_render_us),
        m("serve.handle_us", "us", l.serve_handle_us),
        m("serve.socket_us", "us", l.serve_socket_us),
        m("pool.peak_in_use", "count", l.pool_peak_in_use),
        m("serve.overloaded", "count", l.serve_overloaded),
        m("trace.coverage", "ratio", l.coverage),
        m("trace.overhead_ratio", "ratio", l.overhead_ratio),
        m("error_rate", "ratio", l.error_rate),
    ]
}

/// The span name of an evaluation under `strategy`.
pub fn eval_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CoreXPath | Strategy::XPatterns => "eval.core",
        Strategy::OptMinContext | Strategy::MinContext => "eval.optmin",
        _ => "eval.other",
    }
}

/// `a − b`, field by field (`a` taken after `b` from the same counters).
pub fn kernels_minus(a: KernelCounts, b: KernelCounts) -> KernelCounts {
    KernelCounts {
        per_node: a.per_node - b.per_node,
        bulk_sparse: a.bulk_sparse - b.bulk_sparse,
        bulk_dense: a.bulk_dense - b.bulk_dense,
        sharded_passes: a.sharded_passes - b.sharded_passes,
        shards_spawned: a.shards_spawned - b.shards_spawned,
        memo_hits: a.memo_hits - b.memo_hits,
    }
}

/// `n / d`, 0 when `d` is 0.
#[allow(clippy::cast_precision_loss)]
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Kernel counts per operation, in [`Layers::kernels_per_op`] order.
pub fn kernels_per_op(k: KernelCounts, ops: u64) -> [f64; 5] {
    [
        ratio(k.per_node, ops),
        ratio(k.bulk_sparse, ops),
        ratio(k.bulk_dense, ops),
        ratio(k.sharded_passes, ops),
        ratio(k.shards_spawned, ops),
    ]
}

/// Median `Compiler::parse` and `Plan::build_with_threads` times over
/// `texts` (about 2048 calls each), µs.
///
/// # Errors
/// A text that does not compile.
pub fn compile_probe(texts: &[&str], threads: u32) -> Result<(f64, f64), String> {
    let compiler = Compiler::new().threads(threads);
    let mut parse = Vec::new();
    let mut build = Vec::new();
    let reps = (2048 / texts.len().max(1)).clamp(1, 64);
    for _ in 0..reps {
        for text in texts {
            let t = Instant::now();
            let expr = compiler.parse(text).map_err(|e| e.to_string())?;
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let plan = Plan::build_with_threads(expr, Strategy::Auto, None, threads)
                .map_err(|e| e.to_string())?;
            build.push(t.elapsed().as_secs_f64() * 1e6);
            drop(plan);
        }
    }
    Ok((stats::median(&parse), stats::median(&build)))
}
