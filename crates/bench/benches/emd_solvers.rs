//! Criterion micro-benches for the EMD solver stack: closed form vs the
//! exact transport kernel vs the transportation-simplex oracle across
//! histogram sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairjob_emd::{emd_1d_grid, simplex, transport::solve_emd, GridL1, GroundDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_histogram(bins: usize, rng: &mut StdRng) -> Vec<f64> {
    // Unit-mass histograms: the raw transportation solvers require
    // balanced supplies/demands (the public entry point normalises).
    let raw: Vec<f64> = (0..bins).map(|_| rng.gen::<f64>()).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

fn bench_emd_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd_solvers");
    for bins in [10usize, 50, 100] {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_histogram(bins, &mut rng);
        let b = random_histogram(bins, &mut rng);
        let ground = GridL1::new(0.0, 1.0, bins).expect("grid");
        let costs: Vec<Vec<f64>> = (0..bins)
            .map(|i| (0..bins).map(|j| ground.cost(i, j)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("closed_form", bins), &bins, |bench, _| {
            bench.iter(|| emd_1d_grid(black_box(&a), black_box(&b), 0.0, 1.0).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("flow", bins), &bins, |bench, _| {
            bench.iter(|| {
                solve_emd(black_box(&a), black_box(&b), &ground)
                    .unwrap()
                    .cost
            })
        });
        group.bench_with_input(BenchmarkId::new("simplex", bins), &bins, |bench, _| {
            bench.iter(|| {
                simplex::solve(black_box(&a), black_box(&b), &costs)
                    .unwrap()
                    .cost
            })
        });
    }
    group.finish();
}

fn bench_pairwise_kernel(c: &mut Criterion) {
    // The audit hot loop: average pairwise EMD over many small histograms.
    use fairjob_core::unfairness::{average_pairwise, average_pairwise_parallel};
    use fairjob_hist::{distance::Emd1d, BinSpec, Histogram};
    let spec = BinSpec::equal_width(0.0, 1.0, 10).expect("spec");
    let mut rng = StdRng::seed_from_u64(11);
    let hists: Vec<Histogram> = (0..200)
        .map(|_| Histogram::from_values(spec.clone(), (0..5).map(|_| rng.gen::<f64>())))
        .collect();
    let refs: Vec<&Histogram> = hists.iter().collect();
    let mut group = c.benchmark_group("pairwise_avg_200_hists");
    group.bench_function("serial", |bench| {
        bench.iter(|| average_pairwise(black_box(&refs), &Emd1d).unwrap())
    });
    group.bench_function("4_threads", |bench| {
        bench.iter(|| average_pairwise_parallel(black_box(&refs), &Emd1d, 4).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_emd_solvers, bench_pairwise_kernel);
criterion_main!(benches);
