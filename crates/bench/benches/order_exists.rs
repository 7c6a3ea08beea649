//! Microbenchmarks for the PR3 fast paths: rank-cached document-order
//! deduplication, lazy descendant iteration, and the optimized pre-update
//! check at Section 7 corpus sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use xic_bench::{instance, Experiment};
use xic_workload::{generate, WorkloadConfig};
use xic_xml::parse_document;
use xic_xpath::NodeRef;

fn bench_order_exists(c: &mut Criterion) {
    let w = generate(WorkloadConfig::sized_kib(128, 1));
    let (doc, _) = parse_document(&w.xml).unwrap();
    let mut plain = doc.clone();
    plain.disable_order_cache();

    // An adversarial multiset: every node in reverse preorder, with every
    // third node duplicated — the worst case sort/dedupe input.
    let mut refs: Vec<NodeRef> = doc
        .descendants(doc.document_node())
        .map(NodeRef::Node)
        .collect();
    refs.reverse();
    let dups: Vec<NodeRef> = refs.iter().cloned().step_by(3).collect();
    refs.extend(dups);

    let mut group = c.benchmark_group("order");
    group.bench_function("dedupe_doc_order_cached_128k", |b| {
        b.iter(|| {
            let mut v = refs.clone();
            xic_xpath::dedupe_doc_order(&doc, &mut v);
            assert!(v.len() < refs.len());
        });
    });
    group.bench_function("dedupe_doc_order_uncached_128k", |b| {
        b.iter(|| {
            let mut v = refs.clone();
            xic_xpath::dedupe_doc_order(&plain, &mut v);
            assert!(v.len() < refs.len());
        });
    });
    group.bench_function("descendants_iter_128k", |b| {
        b.iter(|| {
            assert!(doc.descendants(doc.document_node()).count() > 100);
        });
    });
    group.finish();

    let mut group = c.benchmark_group("check");
    for kib in [32, 128] {
        let inst = instance(Experiment::ConflictOfInterests, kib, 1);
        let legal = inst.legal.clone();
        group.bench_function(&format!("check_optimized_{kib}k"), |b| {
            b.iter(|| {
                assert!(inst.checker.check_optimized(&legal).unwrap().is_none());
            });
        });
        let mut violating = instance(Experiment::ConflictOfInterests, kib, 1);
        let illegal = violating.illegal.clone();
        violating.checker.apply_unchecked(&illegal).unwrap();
        group.bench_function(&format!("check_full_exists_{kib}k"), |b| {
            b.iter(|| {
                assert!(violating.checker.check_full().unwrap().is_some());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_order_exists);
criterion_main!(benches);
