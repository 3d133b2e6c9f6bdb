//! Criterion micro-benchmarks: training latency of every approach on a
//! fixed 2 000-row COMPAS sample — the per-approach cost decomposition
//! underlying Fig. 11.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairlens_core::{all_approaches, baseline_approach};
use fairlens_synth::DatasetKind;

fn bench_fit(c: &mut Criterion) {
    let kind = DatasetKind::Compas;
    let train = kind.generate(2_000, 5);

    let mut group = c.benchmark_group("fit");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("baseline", "LR"), |b| {
        b.iter(|| baseline_approach().fit(&train, 1).unwrap())
    });
    for approach in all_approaches(kind.salimi_inadmissible()) {
        // Zafar^EO is the one multi-second fit; keep the bench suite fast by
        // capping it out of the default run (it is exercised by fig11).
        if approach.name == "Zafar^EO_Fair" {
            continue;
        }
        group.bench_function(BenchmarkId::new(approach.stage.label(), approach.name), |b| {
            b.iter(|| approach.fit(&train, 1).unwrap())
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let kind = DatasetKind::Compas;
    let train = kind.generate(2_000, 5);
    let test = kind.generate(2_000, 6);
    let fitted = baseline_approach().fit(&train, 1).unwrap();

    c.bench_function("predict/LR/2000rows", |b| b.iter(|| fitted.predict(&test)));
}

criterion_group!(benches, bench_fit, bench_predict);
criterion_main!(benches);
