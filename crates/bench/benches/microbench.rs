//! Microbenchmarks for the building blocks of MergeSFL (`cargo bench -p mergesfl_bench`).
//!
//! These benches measure the per-call cost of the mechanisms the control and training
//! modules execute every iteration/round: feature merging and gradient dispatching, the
//! KL-divergence computation, batch-size regulation, the genetic worker selection, the
//! Lagrangian-style batch fine-tuning, and the underlying tensor/layer primitives. Each
//! case prints the median nanoseconds per call over [`SAMPLES`] timed samples.

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
use std::time::Instant;

/// Timed samples per case; the reported figure is their median.
const SAMPLES: usize = 20;

/// Times `routine` after one warm-up call, batching calls so that one sample takes
/// roughly a millisecond, and prints the median time per call.
fn bench<O>(name: &str, mut routine: impl FnMut() -> O) {
    let warmup = Instant::now();
    black_box(routine());
    let once = warmup.elapsed().as_nanos().max(1);
    let calls = (1_000_000 / once).clamp(1, 10_000) as u32;
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[SAMPLES / 2];
    let shown = if median < 1e3 {
        format!("{median:.1} ns")
    } else if median < 1e6 {
        format!("{:.2} µs", median / 1e3)
    } else {
        format!("{:.2} ms", median / 1e6)
    };
    println!("{name:<45} median {shown:>12}");
}

fn bench_tensor_ops() {
    let a = Tensor::full(&[64, 128], 0.5);
    let b = Tensor::full(&[128, 64], 0.25);
    bench("tensor/matmul_64x128x64", || a.matmul(&b));

    let mut conv = Conv2d::new(&mut seeded(0), 3, 8, 3, 1, 1);
    let x = Tensor::full(&[8, 3, 16, 16], 0.1);
    bench("layer/conv2d_forward_8x3x16x16", || {
        conv.forward(x.clone(), true)
    });
}

fn bench_feature_merging() {
    for &workers in &[4usize, 8, 16] {
        let uploads: Vec<FeatureUpload> = (0..workers)
            .map(|w| FeatureUpload::new(w, Tensor::full(&[16, 64], w as f32), vec![w % 10; 16]))
            .collect();
        bench(&format!("merge/merge_features/{workers}"), || {
            merge_features(&uploads)
        });
        let merged = merge_features(&uploads);
        let grad = Tensor::full(merged.features.shape(), 0.01);
        bench(&format!("merge/dispatch_gradients/{workers}"), || {
            dispatch_gradients(&merged, &grad)
        });
    }
}

fn bench_control() {
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
    bench("control/mixture_kl_20x100", || {
        let mix = LabelDistribution::mixture(black_box(&refs), black_box(&weights));
        mix.kl_divergence(&phi0)
    });

    // Batch regulation over 80 heterogeneous workers.
    let costs: Vec<f64> = (0..80).map(|i| 0.01 + 0.005 * (i % 13) as f64).collect();
    bench("control/regulate_batch_sizes_80", || {
        regulate_batch_sizes(black_box(&costs), 32)
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
    bench("control/genetic_selection_40", || {
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &cand_refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0_10,
            feature_bytes_per_sample: 1024.0,
            budget_bytes: 200.0 * 1024.0,
            max_selected: 10,
        };
        select_workers(&problem, &GeneticConfig::default(), 7)
    });

    // Genetic selection at the fleet planner's shape: 256 candidates, 6 classes, a cohort
    // cap of 64 and a budget that binds near the cap.
    let fleet_dists: Vec<LabelDistribution> = (0..256)
        .map(|i| {
            let mut v = vec![0.2f32; 6];
            v[i % 6] += 1.0 + (i % 7) as f32;
            v[(i / 6) % 6] += 0.5;
            LabelDistribution::new(v)
        })
        .collect();
    let fleet_refs: Vec<&LabelDistribution> = fleet_dists.iter().collect();
    let fleet_candidates: Vec<usize> = (0..256).collect();
    let fleet_batches: Vec<usize> = (0..256).map(|i| 4 + i % 25).collect();
    let phi0_6 = LabelDistribution::uniform(6);
    bench("control/genetic_selection_256", || {
        let problem = SelectionProblem {
            candidates: &fleet_candidates,
            label_dists: &fleet_refs,
            batch_sizes: &fleet_batches,
            iid_reference: &phi0_6,
            feature_bytes_per_sample: 256.0,
            budget_bytes: 64.0 * 16.0 * 256.0,
            max_selected: 64,
        };
        select_workers(&problem, &GeneticConfig::default(), 7)
    });

    // Batch fine-tuning for a 10-worker cohort.
    let sel_dists: Vec<&LabelDistribution> = cand_refs.iter().take(10).copied().collect();
    let sel_batches = vec![16usize; 10];
    let sel_costs = vec![0.02f64; 10];
    let ft = FinetuneConfig::new(0.01, 1, 32);
    bench("control/finetune_batches_10", || {
        finetune_batches(
            black_box(&sel_batches),
            &sel_dists,
            &sel_costs,
            &phi0_10,
            &ft,
        )
    });
}

fn main() {
    bench_tensor_ops();
    bench_feature_merging();
    bench_control();
}
