//! Criterion microbenchmarks for the building blocks of MergeSFL.
//!
//! These benches measure the per-call cost of the mechanisms the control and training
//! modules execute every iteration/round: feature merging and gradient dispatching, the
//! KL-divergence computation, batch-size regulation, the genetic worker selection, the
//! Lagrangian-style batch fine-tuning, and the underlying tensor/layer primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mergesfl::control::{
    finetune_batches, regulate_batch_sizes, select_workers, FinetuneConfig, GeneticConfig,
    SelectionProblem,
};
use mergesfl::sfl::{dispatch_gradients, merge_features, FeatureUpload};
use mergesfl_data::LabelDistribution;
use mergesfl_nn::layers::{Conv2d, Layer};
use mergesfl_nn::rng::seeded;
use mergesfl_nn::Tensor;
use std::hint::black_box;

fn bench_tensor_ops(c: &mut Criterion) {
    let a = Tensor::full(&[64, 128], 0.5);
    let b = Tensor::full(&[128, 64], 0.25);
    c.bench_function("tensor/matmul_64x128x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });

    let mut conv = Conv2d::new(&mut seeded(0), 3, 8, 3, 1, 1);
    let x = Tensor::full(&[8, 3, 16, 16], 0.1);
    c.bench_function("layer/conv2d_forward_8x3x16x16", |bench| {
        bench.iter(|| black_box(conv.forward(x.clone(), true)))
    });
}

fn bench_feature_merging(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    for &workers in &[4usize, 8, 16] {
        let uploads: Vec<FeatureUpload> = (0..workers)
            .map(|w| FeatureUpload::new(w, Tensor::full(&[16, 64], w as f32), vec![w % 10; 16]))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("merge_features", workers),
            &uploads,
            |b, uploads| b.iter(|| black_box(merge_features(uploads))),
        );
        let merged = merge_features(&uploads);
        let grad = Tensor::full(merged.features.shape(), 0.01);
        group.bench_with_input(
            BenchmarkId::new("dispatch_gradients", workers),
            &workers,
            |b, _| b.iter(|| black_box(dispatch_gradients(&merged, &grad))),
        );
    }
    group.finish();
}

fn bench_control(c: &mut Criterion) {
    // KL divergence of a 100-class mixture.
    let dists: Vec<LabelDistribution> = (0..20)
        .map(|i| {
            let mut v = vec![1.0f32; 100];
            v[i % 100] += 50.0;
            LabelDistribution::new(v)
        })
        .collect();
    let refs: Vec<&LabelDistribution> = dists.iter().collect();
    let weights = vec![8.0f32; 20];
    let phi0 = LabelDistribution::uniform(100);
    c.bench_function("control/mixture_kl_20x100", |b| {
        b.iter(|| {
            let mix = LabelDistribution::mixture(black_box(&refs), black_box(&weights));
            black_box(mix.kl_divergence(&phi0))
        })
    });

    // Batch regulation over 80 heterogeneous workers.
    let costs: Vec<f64> = (0..80).map(|i| 0.01 + 0.005 * (i % 13) as f64).collect();
    c.bench_function("control/regulate_batch_sizes_80", |b| {
        b.iter(|| black_box(regulate_batch_sizes(black_box(&costs), 32)))
    });

    // Genetic selection over 40 candidates with 10 classes.
    let cand_dists: Vec<LabelDistribution> = (0..40)
        .map(|i| {
            let mut v = vec![0.5f32; 10];
            v[i % 10] += 4.0;
            LabelDistribution::new(v)
        })
        .collect();
    let cand_refs: Vec<&LabelDistribution> = cand_dists.iter().collect();
    let candidates: Vec<usize> = (0..40).collect();
    let batch_sizes = vec![16usize; 40];
    let phi0_10 = LabelDistribution::uniform(10);
    c.bench_function("control/genetic_selection_40", |b| {
        b.iter(|| {
            let problem = SelectionProblem {
                candidates: &candidates,
                label_dists: &cand_refs,
                batch_sizes: &batch_sizes,
                iid_reference: &phi0_10,
                feature_bytes_per_sample: 1024.0,
                budget_bytes: 200.0 * 1024.0,
                max_selected: 10,
            };
            black_box(select_workers(&problem, &GeneticConfig::default(), 7))
        })
    });

    // Batch fine-tuning for a 10-worker cohort.
    let sel_dists: Vec<&LabelDistribution> = cand_refs.iter().take(10).copied().collect();
    let sel_batches = vec![16usize; 10];
    let sel_costs = vec![0.02f64; 10];
    let ft = FinetuneConfig::new(0.01, 1, 32);
    c.bench_function("control/finetune_batches_10", |b| {
        b.iter(|| {
            black_box(finetune_batches(
                black_box(&sel_batches),
                &sel_dists,
                &sel_costs,
                &phi0_10,
                &ft,
            ))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tensor_ops, bench_feature_merging, bench_control
);
criterion_main!(benches);
