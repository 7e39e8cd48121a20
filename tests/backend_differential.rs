//! Axis-backend differential suite: the adaptive engine at thread
//! budgets 1, 2 and 8 must return the same node-sets as the Algorithm 3.2
//! reference — same content **and** same document order — on the
//! BENCH_axes query shapes and on random documents, from root and
//! non-root contexts alike. §3's interchangeability claim, enforced at
//! the evaluator level for the cost-based planner and the parallel CVT
//! layer (which additionally runs under a forced always-shard cost model
//! so every pass really crosses the scoped thread pool).

use gkp_xpath::axes::CostModel;
use gkp_xpath::core::corexpath::{compile, AxisBackend, CoreXPathEvaluator};
use gkp_xpath::syntax::parse_normalized;
use gkp_xpath::xml::generate::{doc_balanced, doc_bookstore, doc_random, RandomDocConfig};
use gkp_xpath::xml::NodeSet;
use gkp_xpath::Document;

/// The seven query shapes benchmarked in BENCH_axes.json (the last is
/// provably empty — the analyzer's constant-empty short-circuit rides the
/// same corpus).
const BENCH_QUERIES: &[&str] = &[
    "//a//c",
    "//a//b//c//d",
    "//b[following::c]",
    "//c[preceding::a]/descendant::d",
    "//*[not(ancestor::b)]",
    "//a[descendant::d]/following::b",
    "//text()/child::*",
];

/// Thread budgets the adaptive engine runs under (1 = the serial path).
const THREAD_BUDGETS: &[u32] = &[1, 2, 8];

fn assert_backends_agree(doc: &Document, queries: &[&str], label: &str) {
    let reference = CoreXPathEvaluator::with_backend(doc, AxisBackend::Alg32);
    // Adaptive additionally runs under models forced to each extreme so
    // both the sparse and the dense kernel routes are differentially
    // covered regardless of the calibrated crossovers.
    let forced_sparse = CoreXPathEvaluator::new(doc)
        .with_cost_model(CostModel { dense_word_ns: 1e9, ..CostModel::CALIBRATED });
    let forced_dense = CoreXPathEvaluator::new(doc).with_cost_model(CostModel {
        dense_word_ns: 1e-9,
        chain_ns: 1e9,
        ..CostModel::CALIBRATED
    });
    // The sharded passes additionally run under a forced always-shard
    // model (spawn and merge free): on these small documents the
    // calibrated gate would refuse every spawn, so this is what actually
    // drives each pass across the scoped pool and through the
    // range-split / word-parallel-merge path.
    let forced_shard = CoreXPathEvaluator::new(doc).with_threads(8).with_cost_model(CostModel {
        spawn_ns: 1e-9,
        merge_word_ns: 1e-9,
        ..CostModel::CALIBRATED
    });
    let contexts = [doc.root(), doc.document_element().unwrap_or(doc.root())];
    for q in queries {
        let e = parse_normalized(q).unwrap_or_else(|err| panic!("{q}: {err}"));
        let c = compile(&e).unwrap_or_else(|err| panic!("{q}: {err}"));
        for ctx in contexts {
            let want: NodeSet = reference.evaluate(&c, &[ctx]);
            let want_ids: Vec<_> = want.iter().collect();
            assert!(
                want_ids.windows(2).all(|w| w[0] < w[1]),
                "{label}: reference out of document order for {q}"
            );
            for &threads in THREAD_BUDGETS {
                let ev = CoreXPathEvaluator::new(doc).with_threads(threads);
                let got = ev.evaluate(&c, &[ctx]);
                assert_eq!(
                    got.to_vec(),
                    want_ids,
                    "{label}: adaptive at {threads} thread(s) diverges on {q} from {ctx:?}"
                );
            }
            for (name, ev) in [
                ("forced-sparse", &forced_sparse),
                ("forced-dense", &forced_dense),
                ("forced-shard", &forced_shard),
            ] {
                assert_eq!(
                    ev.evaluate(&c, &[ctx]).to_vec(),
                    want_ids,
                    "{label}: adaptive({name}) diverges on {q} from {ctx:?}"
                );
            }
        }
    }
    // A one-word universe (≤ 64 ids) legitimately never splits — word
    // alignment collapses every range — so only larger documents must
    // show sharded passes under the always-shard model.
    if doc.len() > 64 {
        assert!(
            forced_shard.kernel_counts().sharded_passes > 0,
            "{label}: the always-shard model never actually sharded a pass"
        );
    }
}

#[test]
fn backends_agree_on_bench_query_shapes() {
    // The same document family the benchmark runs on, scaled down enough
    // to keep the Algorithm 3.2 reference fast.
    let doc = doc_balanced(4, 5, &["a", "b", "c", "d"]);
    assert_backends_agree(&doc, BENCH_QUERIES, "balanced");
    assert_backends_agree(&doc_bookstore(), BENCH_QUERIES, "bookstore");
}

#[test]
fn backends_agree_on_random_documents() {
    let queries = [
        "//a/descendant::c",
        "//b/following::*",
        "//c/preceding::*",
        "//d/ancestor::*",
        "//*[not(following-sibling::b)]",
        "//a[child::b or descendant::d]/preceding-sibling::*",
        "//*[not(ancestor::b)]/child::c",
    ];
    for seed in 0..12u64 {
        let cfg = RandomDocConfig { elements: 70, ..RandomDocConfig::default() };
        let doc = doc_random(seed, &cfg);
        assert_backends_agree(&doc, &queries, &format!("random seed {seed}"));
    }
}

#[test]
fn adaptive_kernel_decisions_cover_both_routes() {
    // On the benchmark document family, a descendant-heavy query from the
    // root must exercise the dense kernel, and a narrow query the sparse
    // side — guarding against a planner wedged on one route.
    let doc = doc_balanced(4, 6, &["a", "b", "c", "d"]);
    let ev = CoreXPathEvaluator::new(&doc);
    for q in BENCH_QUERIES {
        let c = compile(&parse_normalized(q).unwrap()).unwrap();
        ev.evaluate(&c, &[doc.root()]);
    }
    let counts = ev.kernel_counts();
    assert!(counts.bulk_dense > 0, "no dense kernel picks across the bench corpus: {counts:?}");
    assert!(counts.bulk_sparse > 0, "no sparse kernel picks across the bench corpus: {counts:?}");
}

/// `//` fusion (`descendant-or-self::node()/child::t` → `descendant::t`)
/// as the engine compiles it — through the plan of a [`Compiler`]-built
/// query, at set speed — against the literal, unfused program on the
/// Algorithm 3.2 oracle with per-node node tests. Roots, document
/// elements and a spread of inner nodes serve as contexts, and the
/// corpus puts `.//x` inside predicates.
fn assert_fusion_agrees(doc: &Document, queries: &[&str], label: &str) {
    use gkp_xpath::syntax::rewrite::fuse_descendant_steps;
    use gkp_xpath::syntax::{Axis, KindTest, NodeTest};
    use gkp_xpath::Compiler;
    let oracle = CoreXPathEvaluator::with_backend(doc, AxisBackend::Alg32);
    let adaptive = CoreXPathEvaluator::new(doc);
    let compiler = Compiler::new().threads(1);
    let mut contexts = vec![doc.root(), doc.document_element().unwrap_or(doc.root())];
    contexts.extend(doc.all_nodes().step_by(7).take(12));
    for q in queries {
        let e = parse_normalized(q).unwrap_or_else(|err| panic!("{q}: {err}"));
        let literal = compile(&e).unwrap_or_else(|err| panic!("{q}: {err}"));
        let fused = compile(&fuse_descendant_steps(&e)).unwrap();
        let cq = compiler.compile(q).unwrap();
        let plan_steps = cq.plan().algebra().map(|a| a.path.steps.len());
        assert_eq!(plan_steps, Some(fused.path.steps.len()), "{label}: plan fuses {q}");
        for &ctx in &contexts {
            let want = oracle.evaluate(&literal, &[ctx]).to_vec();
            assert_eq!(
                adaptive.evaluate(&fused, &[ctx]).to_vec(),
                want,
                "{label}: fused {q} from {ctx:?}"
            );
            // The public path runs the plan's fused program.
            let got = cq.select_at(doc, gkp_xpath::core::Context::of(ctx)).unwrap().to_vec();
            assert_eq!(got, want, "{label}: compiled {q} from {ctx:?}");
        }
        assert_eq!(
            adaptive.matching_contexts(&fused),
            oracle.matching_contexts(&literal),
            "{label}: S← of fused {q}"
        );
        // Exactly the spine's `descendant-or-self::node()/child::t` pairs
        // merge.
        let pairs = literal
            .path
            .steps
            .windows(2)
            .filter(|w| {
                w[0].axis == Axis::DescendantOrSelf
                    && w[0].test == NodeTest::Kind(KindTest::Node)
                    && w[0].preds.is_empty()
                    && w[1].axis == Axis::Child
            })
            .count();
        assert_eq!(fused.path.steps.len() + pairs, literal.path.steps.len(), "{label}: {q}");
    }
}

#[test]
fn fused_double_slash_agrees_with_the_literal_oracle() {
    let mut corpus: Vec<&str> = BENCH_QUERIES.to_vec();
    corpus.extend([
        "//b[.//c]",
        "//*[.//d and not(.//a)]",
        ".//c",
        "b//d",
        "//a[b//c]//d",
        "//node()",
        "//text()",
        "//*[descendant-or-self::node()/child::b]",
        "//b[following::c]//d",
        // `//` before a non-child step is not fused.
        "//following-sibling::b",
        "//parent::*",
        "//self::c",
        "//attribute::*",
    ]);
    let doc = doc_balanced(4, 4, &["a", "b", "c", "d"]);
    assert_fusion_agrees(&doc, &corpus, "balanced");
    assert_fusion_agrees(&doc_bookstore(), &corpus, "bookstore");
    for seed in 0..8u64 {
        let cfg = RandomDocConfig { elements: 60, ..RandomDocConfig::default() };
        assert_fusion_agrees(&doc_random(seed, &cfg), &corpus, &format!("random seed {seed}"));
    }
}
