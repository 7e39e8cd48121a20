//! Ablation of the axis-evaluation kernels (§3): Algorithm 3.2 (regular
//! expressions over the primitive relations), the per-node set algorithms
//! and the set-at-a-time bulk engine over the structure-of-arrays index,
//! plus a predicate-heavy query whose backward evaluation reads the
//! cached type sets `T(t)` at every step.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xpath_syntax::Axis;
use xpath_xml::generate::{doc_random, RandomDocConfig};
use xpath_xml::{NodeId, NodeKind};

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("axis_backends");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[500usize, 5_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(7, &cfg);
        doc.axis_index(); // built outside the timed region
        let evens: Vec<NodeId> = doc
            .all_nodes()
            .filter(|&n| n.0 % 16 == 0 && doc.kind(n) == NodeKind::Element)
            .collect();
        let evens_set = xpath_xml::NodeSet::from_sorted(evens.clone());

        for axis in [Axis::Descendant, Axis::Following, Axis::Ancestor] {
            g.bench_with_input(
                BenchmarkId::new(format!("alg32/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::eval_axis_alg32(&doc, axis, &evens)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("direct/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::eval_axis(&doc, axis, &evens)),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("bulk/{}", axis.name()), size),
                &size,
                |b, _| b.iter(|| xpath_axes::bulk::axis_set(&doc, axis, &evens_set)),
            );
        }
    }
    g.finish();
}

fn bench_type_sets(c: &mut Criterion) {
    use xpath_core::corexpath::{compile, CoreXPathEvaluator};
    let mut g = c.benchmark_group("type_sets");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for &size in &[1_000usize, 20_000] {
        let cfg = RandomDocConfig { elements: size, ..RandomDocConfig::default() };
        let doc = doc_random(5, &cfg);
        // Predicate-heavy query: S← touches T(t) at every step.
        let e = xpath_syntax::parse_normalized("//a[b[c] and not(d[a])]").unwrap();
        let q = compile(&e).unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        g.bench_with_input(BenchmarkId::new("cached", size), &size, |b, _| {
            b.iter(|| ev.evaluate(&q, &[doc.root()]));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_type_sets);
criterion_main!(benches);
