//! Ablation: Sherman–Morrison rank-1 covariance update (the paper's O(d²)
//! trick) versus recomputing the inverse from scratch (O(d³)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sider_linalg::{lu, woodbury, Matrix};
use sider_stats::Rng;
use std::hint::black_box;

fn spd(d: usize, rng: &mut Rng) -> Matrix {
    let a = rng.standard_normal_matrix(d + 4, d);
    let mut g = a.gram().scale(1.0 / (d + 4) as f64);
    for i in 0..d {
        g[(i, i)] += 0.5;
    }
    g
}

fn bench_woodbury(c: &mut Criterion) {
    let mut group = c.benchmark_group("covariance_rank1");
    for d in [16usize, 32, 64, 128] {
        let mut rng = Rng::seed_from_u64(d as u64);
        let prec = spd(d, &mut rng);
        let sigma = lu::inverse(&prec).expect("inverse");
        let w = rng.standard_normal_vec(d);
        let lambda = 0.7;

        group.bench_with_input(BenchmarkId::new("woodbury", d), &d, |b, _| {
            b.iter(|| black_box(woodbury::updated(&sigma, &w, lambda)))
        });
        group.bench_with_input(BenchmarkId::new("full_inverse", d), &d, |b, _| {
            b.iter(|| {
                let mut p = prec.clone();
                woodbury::precision_update(&mut p, &w, lambda);
                black_box(lu::inverse(&p).expect("inverse"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_woodbury);
criterion_main!(benches);
