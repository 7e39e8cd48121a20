//! Empirical complexity assertions — the paper's headline claims as tests.
//! Wall-clock checks use generous margins; where possible we assert on the
//! naive evaluator's deterministic step counter instead of time.

use std::time::{Duration, Instant};

use gkp_xpath::core::naive::NaiveEvaluator;
use gkp_xpath::core::pool::PoolEvaluator;
use gkp_xpath::core::{Context, Strategy};
use gkp_xpath::xml::generate::{doc_flat, doc_flat_text};
use gkp_xpath::Engine;

fn exp1_query(k: usize) -> String {
    let mut q = String::from("//a/b");
    for _ in 0..k {
        q.push_str("/parent::a/b");
    }
    q
}

/// §2: the naive recurrence Time(|Q|) = |D|^|Q| — on DOC(2) each
/// antagonist step multiplies the step count by the branching factor 2.
#[test]
fn naive_step_counts_follow_the_recurrence() {
    let d = doc_flat(2);
    let mut counts = Vec::new();
    for k in 4..10 {
        let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
        let ev = NaiveEvaluator::new(&d);
        ev.evaluate(&e, Context::of(d.root())).unwrap();
        counts.push(ev.steps_applied() as f64);
    }
    for w in counts.windows(2) {
        let ratio = w[1] / w[0];
        assert!((1.7..2.3).contains(&ratio), "expected ~2x per step, got {counts:?}");
    }
}

/// §2 on wider documents: the branching factor tracks |D|.
#[test]
fn naive_branching_scales_with_document() {
    // On DOC(i) the same query family multiplies by ~i per step.
    for i in [3usize, 5] {
        let d = doc_flat(i);
        let steps: Vec<f64> = (3..6)
            .map(|k| {
                let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
                let ev = NaiveEvaluator::new(&d);
                ev.evaluate(&e, Context::of(d.root())).unwrap();
                ev.steps_applied() as f64
            })
            .collect();
        let ratio = steps[1] / steps[0];
        assert!(
            (i as f64 * 0.7..i as f64 * 1.3).contains(&ratio),
            "DOC({i}): expected ~{i}x per step, ratios from {steps:?}"
        );
    }
}

/// Theorem 9.2: the data pool's step count grows linearly, not
/// exponentially, in query size.
#[test]
fn pool_step_counts_are_linear_in_query_size() {
    let d = doc_flat(2);
    let mut counts = Vec::new();
    for k in [5usize, 10, 20, 40] {
        let e = gkp_xpath::syntax::parse_normalized(&exp1_query(k)).unwrap();
        let ev = PoolEvaluator::new(&d);
        ev.evaluate(&e, Context::of(d.root())).unwrap();
        counts.push(ev.stats().steps_applied as f64);
    }
    // Doubling the query size should roughly double (not square) the steps.
    for w in counts.windows(2) {
        let ratio = w[1] / w[0];
        assert!(ratio < 3.0, "pool steps not linear: {counts:?}");
    }
}

/// Theorem 10.5: Core XPath time is close to linear in |D| (allow 4x
/// per doubling for allocator noise on a loaded machine).
#[test]
fn core_xpath_linear_in_data() {
    let q = "//b[not(following-sibling::b) or c]";
    let mut times = Vec::new();
    for n in [8_000usize, 16_000, 32_000] {
        let d = doc_flat(n);
        let engine = Engine::new(&d);
        let e = engine.prepare(q).unwrap();
        // Warm-up + best-of-3 to damp noise.
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            engine.evaluate_expr(&e, Strategy::CoreXPath, Context::of(d.root())).unwrap();
            best = best.min(t.elapsed());
        }
        times.push(best.as_secs_f64());
    }
    for w in times.windows(2) {
        assert!(w[1] < w[0] * 4.0 + 0.005, "not linear-ish: {times:?}");
    }
}

/// `prefix:*` on a per-node strategy stays linear when every element
/// has its own name: the node test resolves per source node without
/// scanning the document's name table (which here grows with the
/// document, so a scan per source would make the query quadratic).
#[test]
fn namespace_wildcard_per_node_linear_in_names() {
    let mut times = Vec::new();
    for n in [2_000usize, 8_000] {
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<e{i}><pre:x{i}/></e{i}>"));
        }
        xml.push_str("</r>");
        let d = gkp_xpath::xml::Document::parse_str(&xml).unwrap();
        let engine = Engine::new(&d);
        let e = engine.prepare("//pre:*").unwrap();
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            let v = engine.evaluate_expr(&e, Strategy::TopDown, Context::of(d.root())).unwrap();
            best = best.min(t.elapsed());
            assert_eq!(v.as_node_set().map(gkp_xpath::NodeSet::len), Some(n));
        }
        times.push(best.as_secs_f64());
    }
    // 4x the document (and 4x the names): ~4x linear, ~16x quadratic.
    assert!(times[1] < times[0] * 8.0 + 0.01, "not linear-ish: {times:?}");
}

/// §7: the top-down engine handles the paper's hardest workload (Table
/// VII's Experiment-2 queries) in time linear in query depth.
#[test]
fn topdown_linear_in_query_depth() {
    fn exp2_query(depth: usize) -> String {
        let mut inner = String::from("parent::a/child::* = 'c'");
        for _ in 1..depth {
            inner = format!("parent::a/child::*[{inner}] = 'c'");
        }
        format!("//*[{inner}]")
    }
    let d = doc_flat_text(100);
    let engine = Engine::new(&d);
    let mut times = Vec::new();
    for depth in [10usize, 20, 40] {
        let e = engine.prepare(&exp2_query(depth)).unwrap();
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            engine.evaluate_expr(&e, Strategy::TopDown, Context::of(d.root())).unwrap();
            best = best.min(t.elapsed());
        }
        times.push(best.as_secs_f64());
    }
    // Doubling depth should at most ~quadruple time (linear + noise), and
    // must certainly not square it.
    for w in times.windows(2) {
        assert!(w[1] < w[0] * 5.0 + 0.01, "not linear-ish in depth: {times:?}");
    }
}

/// Streaming memory bound: spine candidates never exceed the element
/// nesting depth (candidates are open ancestors of the current position),
/// regardless of document width.
#[test]
fn streaming_candidates_bounded_by_depth() {
    use gkp_xpath::core::streaming::{self, StreamMatcher};

    // Wide, shallow document: 20,000 entries at depth 2, each a candidate
    // of the predicate query at some point — but never more than one open.
    let wide = doc_flat_text(20_000);
    let q = streaming::compile_str("//b[child::text()]").unwrap();
    let mut m = StreamMatcher::new(&q);
    for ev in wide.events() {
        m.on_event(&ev);
    }
    assert!(m.peak_candidates() <= 2, "wide doc: peak {}", m.peak_candidates());
    let hits = m.finish();
    assert_eq!(hits.len(), 20_000);

    // Deep document: every <b> on the path is simultaneously a candidate,
    // so the peak tracks the depth exactly — the documented worst case.
    let deep = gkp_xpath::xml::generate::doc_deep_path(300);
    let q = streaming::compile_str("//b[descendant::b]").unwrap();
    let mut m = StreamMatcher::new(&q);
    for ev in deep.events() {
        m.on_event(&ev);
    }
    let peak = m.peak_candidates();
    assert!(peak <= 300, "deep doc: peak {peak}");
    assert_eq!(m.finish().len(), 299);
}

/// All polynomial engines finish the full antagonist suite that stalls the
/// naive engine within its budget.
#[test]
fn polynomial_engines_survive_the_antagonist_suite() {
    let d = doc_flat(4);
    let engine = Engine::new(&d);
    let q = exp1_query(30);
    let e = engine.prepare(&q).unwrap();
    // Naive: blown budget.
    let naive = NaiveEvaluator::with_budget(&d, 500_000);
    assert!(naive.evaluate(&e, Context::of(d.root())).is_err());
    // Everything else: instant.
    for s in [
        Strategy::DataPool,
        Strategy::BottomUp,
        Strategy::TopDown,
        Strategy::MinContext,
        Strategy::OptMinContext,
        Strategy::CoreXPath,
    ] {
        let t = Instant::now();
        let v = engine.evaluate_expr(&e, s, Context::of(d.root())).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 4, "{s:?}");
        assert!(t.elapsed() < Duration::from_secs(5), "{s:?} too slow");
    }
}
