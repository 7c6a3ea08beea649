//! E3 — compile-time simplification latency. The paper (footnote 4)
//! reports "the simplified constraints of examples 1 and 6 were generated
//! in less than 50 ms"; this bench measures our `Simp` on the same inputs,
//! plus the full map+simplify+translate pattern compilation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use xic_datalog::{parse_denials, parse_update};
use xic_simplify::{simp, FreshSpec, SimpConfig};

fn bench_simplify(c: &mut Criterion) {
    // Example 6: conflict of interests against the single-author
    // submission pattern.
    let gamma = parse_denials(
        "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,R).
         <- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A)
            & aut(_,_,Ip,R) & aut(_,_,Ip,A).",
    )
    .unwrap();
    let u = parse_update("{sub($is, $ps, $ir, $t), auts($ia, $pa, $is, $n)}").unwrap();
    let delta =
        parse_denials("<- sub($is,_,_,_). <- auts(_,_,$is,_). <- auts($ia,_,_,_).").unwrap();
    let cfg = SimpConfig {
        fresh: FreshSpec::Params(
            ["is", "ia"].iter().map(|s| (*s).to_string()).collect::<BTreeSet<_>>(),
        ),
    };
    c.bench_function("simp_example_6_conflict", |b| {
        b.iter(|| {
            let out = simp(&gamma, &u, &delta, &cfg).unwrap();
            assert_eq!(out.len(), 2);
        });
    });

    // Example 7: the aggregate constraint.
    let gamma7 = parse_denials("<- rev(Ir,_,_,_) & cntd(; sub(_,_,Ir,_)) > 4").unwrap();
    c.bench_function("simp_example_7_aggregate", |b| {
        b.iter(|| {
            let out = simp(&gamma7, &u, &delta, &cfg).unwrap();
            assert_eq!(out.len(), 1);
        });
    });

    // Example 4/5: ISSN uniqueness.
    let gamma4 = parse_denials("<- p(X, Y) & p(X, Z) & Y != Z").unwrap();
    let u4 = parse_update("{p($i, $t)}").unwrap();
    c.bench_function("simp_example_4_uniqueness", |b| {
        b.iter(|| {
            let out = simp(&gamma4, &u4, &[], &SimpConfig::default()).unwrap();
            assert_eq!(out.len(), 1);
        });
    });

    // Full pattern compilation (map + simp + translate) as the checker
    // performs it at schema design time.
    let inst = xic_bench::instance(xic_bench::Experiment::ConflictOfInterests, 16, 1);
    let mapped = xic_mapping::map_update(
        inst.checker.doc(),
        inst.checker.schema(),
        &inst.legal,
        &xicheck::xpath_resolver,
    )
    .unwrap();
    c.bench_function("compile_pattern_end_to_end", |b| {
        b.iter(|| {
            let compiled = xicheck::compile_pattern(
                &mapped,
                inst.checker.constraints(),
                inst.checker.schema(),
                true,
            );
            assert!(compiled.is_incremental());
        });
    });
}

criterion_group!(benches, bench_simplify);
criterion_main!(benches);
