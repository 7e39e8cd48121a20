//! `lib-large`: an embedding application. One load thread runs a
//! fixed mix of compiled queries against one large seeded document
//! opened from a snapshot (`DocumentStore::open_doc`, mmap). Compile is
//! a cache hit and there is no socket, so the axis kernels, node tests,
//! predicate sets and node-set algebra do nearly all the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xpath_axes::{CostModel, KernelCounts};
use xpath_core::corexpath::{
    compile_dialect, AxisBackend, CoreDialect, CoreStart, CoreXPathEvaluator,
};
use xpath_core::{CompiledQuery, Compiler, Context, DocumentStore, EvalBudget, QueryCache, Value};
use xpath_xml::rng::Rng;
use xpath_xml::{Document, NodeSet};

use crate::answer::{nodeset_digest, str_digest, Outcome, Tally};
use crate::gen::{self, DocSpec, LibQuery, Read};
use crate::layers;
use crate::stats;
use crate::sys::{self, TempDir};
use crate::trace::{self, Kind, Profile, Tracer};
use crate::{Args, Report, SETUPS};

/// The document: about 260k nodes, a ≈9 MB snapshot, well over a 4 MiB
/// L2 cache.
pub const SPEC: DocSpec = DocSpec { target_nodes: 260_000, max_depth: 7, max_fanout: 4 };

/// Query-cache capacity of the application (the whole mix fits).
const CACHE_CAPACITY: usize = 256;

/// Step-replay passes per eligible query in a traced run.
const REPLAYS: usize = 3;

/// Operations a `--trace 0` window holds at least (at ≈36 ops/s the
/// window runs past `--seconds`): 15 samples beyond p99 instead of the
/// bare 10 make the tail steadier.
const MIN_OPS: usize = 1500;

/// Alternating untraced/traced slices of a traced run's window.
const TRACE_SLICES: usize = 4;

struct Prepared {
    spec: LibQuery,
    handle: Arc<CompiledQuery>,
    /// Digest of the warmup answer.
    digest: u64,
    /// The warmup answer itself (full value, for the oracle).
    value: Answer,
}

#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Value(Value),
    First(Option<xpath_xml::NodeId>),
    Exists(bool),
}

struct Setup {
    _dir: TempDir,
    store: DocumentStore,
    doc: Arc<Document>,
    xml: String,
    queries: Vec<Prepared>,
    cache: QueryCache,
    compiler: Compiler,
    fingerprint: String,
    parse_ms: f64,
    publish_ms: f64,
    open_us: f64,
    snapshot_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One operation: cache lookup (a hit), evaluation, reading the result.
/// With `keep`, the answer is returned instead of dropped.
fn op(
    s: &Setup,
    q: &LibQuery,
    tr: &mut Tracer,
    keep: bool,
) -> Result<(u64, Option<Answer>), String> {
    let doc = &*s.doc;
    let root = tr.root("op", Kind::Op);
    let span = tr.enter("cache.lookup");
    let handle = s.cache.get_or_compile_keyed(&s.compiler, &s.fingerprint, &q.text);
    tr.exit(span);
    let result = handle.map_err(|e| e.to_string()).and_then(|h| {
        let (answer, span) = match q.read {
            Read::NodeSet | Read::Scalar => {
                let span = tr.enter(layers::eval_span(h.strategy()));
                let v = h.evaluate_with(doc, Context::of(doc.root()), &EvalBudget::unlimited());
                (v.map(Answer::Value), span)
            }
            Read::First => {
                let span = tr.enter("eval.lazy");
                (h.first(doc).map(Answer::First), span)
            }
            Read::Exists => {
                let span = tr.enter("eval.lazy");
                (h.exists(doc).map(Answer::Exists), span)
            }
        };
        tr.exit(span);
        let answer = answer.map_err(|e| e.to_string())?;
        let span = tr.enter("value.materialize");
        let digest = digest(doc, &answer);
        let kept = keep.then_some(answer);
        tr.exit(span);
        Ok((digest, kept))
    });
    tr.exit(root);
    result
}

/// What the application reads from an answer, as a digest.
fn digest(doc: &Document, answer: &Answer) -> u64 {
    match answer {
        Answer::Value(Value::NodeSet(ns)) => nodeset_digest(doc, ns),
        Answer::Value(v) => str_digest(&v.to_xpath_string(doc)),
        Answer::First(n) => str_digest(n.map_or("<none>", |n| doc.string_value(n))),
        Answer::Exists(b) => str_digest(if *b { "true" } else { "false" }),
    }
}

fn setup(args: &Args) -> Result<Setup, String> {
    let dir = TempDir::new("lib-large", args.seed).map_err(|e| format!("temp dir: {e}"))?;
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x11B_1A26E);
    let generated = gen::document(&mut rng, SPEC);
    let t = Instant::now();
    let parsed = Document::parse_str(&generated.xml).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = ms(t.elapsed());
    gen::check_document(&parsed, SPEC)?;
    let store = DocumentStore::open(dir.path().join("store")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let info = store.publish("big", &parsed).map_err(|e| e.to_string())?;
    let publish_ms = ms(t.elapsed());
    drop(parsed);
    let t = Instant::now();
    let doc = store.open_doc("big").map_err(|e| e.to_string())?;
    let open_us = us(t.elapsed());
    let specs = gen::lib_queries(&mut rng, generated.ids);
    let cache = QueryCache::new(CACHE_CAPACITY);
    let compiler = Compiler::new();
    let fingerprint = compiler.options_fingerprint();
    let mut s = Setup {
        _dir: dir,
        store,
        doc,
        xml: generated.xml,
        queries: Vec::new(),
        cache,
        compiler,
        fingerprint,
        parse_ms,
        publish_ms,
        open_us,
        snapshot_bytes: info.file_bytes,
    };
    // Compile the warm set, then warm up: every query twice, and the
    // two answers must agree.
    let mut off = Tracer::new(false);
    for spec in specs {
        let handle = s
            .cache
            .get_or_compile_keyed(&s.compiler, &s.fingerprint, &spec.text)
            .map_err(|e| format!("compile {}: {e}", spec.text))?;
        let (d1, value) = op(&s, &spec, &mut off, true)?;
        let (d2, _) = op(&s, &spec, &mut off, false)?;
        if d1 != d2 {
            return Err(format!("{}: warmup answers differ", spec.text));
        }
        let value = value.expect("kept");
        s.queries.push(Prepared { spec, handle, digest: d1, value });
    }
    Ok(s)
}

/// Evaluate the mix's paths with the `Alg32` reference axes on a fresh
/// parse of the same XML and compare with the warmup answers (whole node
/// sets, not digests). Returns the reference digest per query.
fn oracle(s: &Setup) -> Result<Vec<u64>, String> {
    let doc = Document::parse_str(&s.xml).map_err(|e| format!("oracle parse: {e}"))?;
    if gen::fingerprint(&doc) != gen::fingerprint(&s.doc) {
        return Err("snapshot does not reproduce the parsed document".to_owned());
    }
    let reference = CoreXPathEvaluator::with_backend(&doc, AxisBackend::Alg32);
    let mut digests = Vec::with_capacity(s.queries.len());
    for q in &s.queries {
        let expr = Compiler::new().parse(&q.spec.oracle_path).map_err(|e| e.to_string())?;
        let core = compile_dialect(&expr, CoreDialect::XPatterns).map_err(|e| e.to_string())?;
        let set = reference.evaluate(&core, &[doc.root()]);
        let want = match q.spec.read {
            Read::NodeSet => Answer::Value(Value::NodeSet(set.clone())),
            Read::Scalar if q.spec.text.starts_with("count(") => {
                #[allow(clippy::cast_precision_loss)]
                let n = set.len() as f64;
                Answer::Value(Value::Number(n))
            }
            Read::Scalar => Answer::Value(Value::Boolean(!set.is_empty())),
            Read::First => Answer::First(set.first()),
            Read::Exists => Answer::Exists(!set.is_empty()),
        };
        if want != q.value {
            return Err(format!("wrong answer: {} differs from the Alg32 reference", q.spec.text));
        }
        digests.push(digest(&doc, &want));
    }
    Ok(digests)
}

fn planner_total(s: &Setup) -> KernelCounts {
    s.queries
        .iter()
        .map(|q| q.handle.planner_stats())
        .fold(KernelCounts::default(), KernelCounts::plus)
}

struct Window {
    ops: u64,
    elapsed: Duration,
    latencies_ns: Vec<u64>,
    tally: Tally,
}

/// Run operations over the seeded mix order until `seconds` have passed
/// and at least `min_ops` completed (capped at three times `seconds`).
/// Each answer is checked against the warmup answer of its query as it
/// completes (the warmup answers are checked against the reference
/// after the window).
fn window(s: &Setup, order: &[usize], tr: &mut Tracer, seconds: f64, min_ops: usize) -> Window {
    let cap = Duration::from_secs_f64(seconds * 3.0);
    let want = Duration::from_secs_f64(seconds);
    let expected: Vec<u64> = s.queries.iter().map(|q| q.digest).collect();
    let mut w = Window {
        ops: 0,
        elapsed: Duration::ZERO,
        latencies_ns: Vec::with_capacity(min_ops.max(4096)),
        tally: Tally::default(),
    };
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let e = start.elapsed();
        if (e >= want && w.latencies_ns.len() >= min_ops) || e >= cap {
            break;
        }
        let qi = order[i % order.len()];
        i += 1;
        let t = Instant::now();
        let r = op(s, &s.queries[qi].spec, tr, false);
        let lat = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        w.ops += 1;
        w.latencies_ns.push(lat);
        let outcome = match r {
            Ok((d, _)) => Outcome::Answer(d),
            Err(_) => Outcome::Failed,
        };
        w.tally.record(&expected, u32::try_from(qi).expect("few queries"), outcome);
    }
    w.elapsed = start.elapsed();
    w
}

/// Replay each predicate-free spine step by step through the planned
/// axis kernel and the node-test filter, asserting the result equals
/// the query's own answer.
fn replay_spines(s: &Setup, tr: &mut Tracer) -> Result<(), String> {
    let doc = &*s.doc;
    for q in &s.queries {
        let Some(core) = q.handle.plan().algebra() else { continue };
        let path = &core.path;
        if q.spec.read != Read::NodeSet
            || path.eq.is_some()
            || matches!(path.start, CoreStart::Ids(_))
            || path.steps.iter().any(|st| !st.preds.is_empty() || st.axis == xpath_syntax::Axis::Id)
        {
            continue;
        }
        let Answer::Value(Value::NodeSet(want)) = &q.value else { continue };
        for _ in 0..REPLAYS {
            let root = tr.root("replay", Kind::Op);
            let mut set = NodeSet::singleton(doc.root());
            for st in &path.steps {
                let span = tr.enter("axes.kernel");
                let (mut out, _kernel) =
                    xpath_axes::bulk::axis_set_planned(doc, st.axis, &set, CostModel::global());
                tr.exit(span);
                let span = tr.enter("node_test.filter");
                xpath_core::node_test::filter_set(doc, st.axis, &st.test, &mut out);
                tr.exit(span);
                set = out;
            }
            tr.exit(root);
            if &set != want {
                return Err(format!(
                    "step replay of {} differs from CompiledQuery::select",
                    q.spec.text
                ));
            }
        }
    }
    Ok(())
}

/// Run the workload.
///
/// # Errors
/// A set-up failure (generator check, I/O, compile error).
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    let mut parse_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut open_us = Vec::new();
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let s = setup(args)?;
        setup_s.push(t.elapsed().as_secs_f64());
        parse_ms.push(s.parse_ms);
        publish_ms.push(s.publish_ms);
        open_us.push(s.open_us);
        last = Some(s);
    }
    let s = last.expect("at least one setup");
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x0DE5);
    let order = gen::permutation(&mut rng, s.queries.len());
    let mut env = vec![
        ("workload", sys::json_str("lib-large")),
        ("seed", args.seed.to_string()),
        ("doc_nodes", s.doc.len().to_string()),
        ("snapshot_bytes", s.snapshot_bytes.to_string()),
        ("doc_mapped", s.doc.is_mapped().to_string()),
        ("queries", s.queries.len().to_string()),
        ("load_threads", "1".to_owned()),
        ("doc_fingerprint", format!("\"{:016x}\"", gen::fingerprint(&s.doc))),
    ];

    let mut metrics = Vec::new();
    let mut tally;
    let mut trace_error = None;
    if args.trace {
        // Untraced and traced slices alternate, so drift over the run
        // does not bias the overhead ratio; layer counts cover the
        // traced slices only.
        let mut tr = Tracer::new(false);
        let (mut rate_off, mut rate_on) = ((0u64, Duration::ZERO), (0u64, Duration::ZERO));
        let mut kernels = KernelCounts::default();
        let (mut hits, mut lookups, mut evictions) = (0, 0, 0);
        tally = Tally::default();
        for slice in 0..TRACE_SLICES {
            let on = slice % 2 == 1;
            tr.set_on(on);
            let (kb, cb) = (planner_total(&s), s.cache.stats());
            let w = window(&s, &order, &mut tr, args.seconds * 0.9 / TRACE_SLICES as f64, 1);
            let (ka, ca) = (planner_total(&s), s.cache.stats());
            let rate = if on { &mut rate_on } else { &mut rate_off };
            rate.0 += w.ops;
            rate.1 += w.elapsed;
            if on {
                kernels = kernels.plus(layers::kernels_minus(ka, kb));
                hits += ca.hits - cb.hits;
                lookups += ca.hits + ca.misses - cb.hits - cb.misses;
                evictions += ca.evictions - cb.evictions;
            }
            tally.merge(w.tally);
        }
        let traced_ops = rate_on.0;
        let ops_profile = Profile::of(tr.spans());
        tr.set_on(true);
        replay_spines(&s, &mut tr)?;
        let prof = Profile::of(tr.spans());
        let replays = prof.ops - ops_profile.ops;
        let texts: Vec<&str> = s.queries.iter().map(|q| q.spec.text.as_str()).collect();
        let (parse_us, build_us) = layers::compile_probe(&texts, 0)?;
        let rate = |(ops, t): (u64, Duration)| ops as f64 / t.as_secs_f64();
        let overhead_ratio = rate(rate_on) / rate(rate_off);
        let coverage = prof.coverage();
        if let Err(e) = trace::check_coverage(coverage) {
            trace_error = Some(e);
        }
        let replay_ms = |name| prof.layer(name).total_ns as f64 / 1e6 / replays.max(1) as f64;
        let evals: Vec<f64> = ["eval.core", "eval.optmin", "eval.other"]
            .iter()
            .flat_map(|n| ops_profile.layer(n).durations_ns)
            .map(|d| d as f64 / 1e3)
            .collect();
        let stats = s.store.stats();
        metrics.extend(layers::metrics(&layers::Layers {
            xml_parse_ms: stats::median(&parse_ms),
            store_publish_ms: stats::median(&publish_ms),
            store_open_us: stats::median(&open_us),
            store_reopen_us: 0.0,
            store_reloads: stats.reloads as f64,
            syntax_parse_us: parse_us,
            plan_build_us: build_us,
            cache_lookup_us: ops_profile.layer("cache.lookup").mean(1e3),
            cache_hit_ratio: layers::ratio(hits, lookups),
            cache_evictions: evictions as f64,
            eval_core_ms: ops_profile.layer("eval.core").mean(1e6),
            eval_optmin_ms: ops_profile.layer("eval.optmin").mean(1e6),
            eval_lazy_us: ops_profile.layer("eval.lazy").mean(1e3),
            eval_fixed_us: stats::median(&evals),
            axes_kernel_ms: replay_ms("axes.kernel"),
            node_test_filter_ms: replay_ms("node_test.filter"),
            kernels_per_op: layers::kernels_per_op(kernels, traced_ops),
            batch_eval_ms: 0.0,
            batch_memo_hit_ratio: 0.0,
            value_materialize_us: ops_profile.layer("value.materialize").mean(1e3),
            serve_json_parse_us: 0.0,
            serve_render_us: 0.0,
            serve_handle_us: 0.0,
            serve_socket_us: 0.0,
            pool_peak_in_use: 0.0,
            serve_overloaded: 0.0,
            coverage,
            overhead_ratio,
            error_rate: 0.0,
        }));
        crate::write_trace("lib-large", args.seed, tr.spans());
    } else {
        let min_ops = stats::ops_needed(0.99).max(MIN_OPS);
        let steal = sys::steal_ticks();
        let w = window(&s, &order, &mut Tracer::new(false), args.seconds, min_ops);
        env.push(("host_steal_ticks", sys::ticks_since(steal)));
        let peak = sys::peak_rss_mb();
        stats::check_tail(w.latencies_ns.len(), 0.99)?;
        env.push(("latency_samples", w.latencies_ns.len().to_string()));
        let mut lat = w.latencies_ns.clone();
        lat.sort_unstable();
        metrics.extend(crate::end_to_end(
            stats::median(&setup_s),
            w.ops as f64 / w.elapsed.as_secs_f64(),
            stats::quantile(&lat, 0.5) as f64 / 1e6,
            stats::quantile(&lat, 0.99) as f64 / 1e6,
            peak,
        ));
        tally = w.tally;
    }

    // Reference answers, outside the window and outside set-up time.
    let reference = oracle(&s)?;
    for (q, want) in s.queries.iter().zip(&reference) {
        if q.digest != *want {
            return Err(format!(
                "wrong answer: {} warmup digest differs from reference",
                q.spec.text
            ));
        }
    }
    Ok(crate::finish(&tally, trace_error, metrics, env))
}
