//! E4 — ablation for a design choice DESIGN.md calls out: parameter
//! instantiation, the simplified check with concrete values vs the same
//! check shape with a fresh quantifier (what the optimized query would
//! cost without the update-time placeholders).

use criterion::{criterion_group, criterion_main, Criterion};
use xic_bench::Experiment;

fn bench_instantiation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parameter_instantiation");
    group.sample_size(10);
    let kib = 128;
    let inst = xic_bench::instance(Experiment::ConflictOfInterests, kib, 1);
    let legal = inst.legal.clone();
    // Optimized check with instantiated parameters (the real thing).
    group.bench_function("optimized_with_parameters", |b| {
        b.iter(|| {
            assert!(inst.checker.check_optimized(&legal).unwrap().is_none());
        });
    });
    // The same simplified-shape check with the target reviewer left as a
    // quantified variable (i.e. checked against *every* reviewer instead
    // of the update's target): measures what instantiation buys (the
    // paper's "specific values … allow one to filter"). The author name
    // is the legal statement's fresh author, so the outcome matches the
    // instantiated check (no violation).
    let shape = xic_xquery::parse_query(
        "some $r in //rev, $d in //aut satisfies \
         $d/name/text() = \"newcomer900001\" and \
         $d/../aut/name/text() = $r/name/text()",
    )
    .unwrap();
    group.bench_function("optimized_shape_without_parameters", |b| {
        b.iter(|| {
            assert!(!xic_xquery::eval_query_bool(&shape, inst.checker.doc()).unwrap());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_instantiation);
criterion_main!(benches);
