//! The zero-allocation contract, measured: heap allocations of warm layer passes, warm
//! kernel calls and warm training rounds, asserted as upper bounds.
//!
//! The binary installs `mergesfl_nn::pool::CountingAlloc` as its global allocator and
//! pins the fan-out to one thread, so thread spawns stay out of the counts. The counter
//! is process-wide and the test harness allocates whenever a test finishes, so the
//! whole budget is one `#[test]`: nothing else runs while it measures.
//!
//! The bounds are today's counts and may only fall. Every failure names the
//! architecture, kernel or workload, the pass and the count it observed.

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;
use mergesfl_nn::kernels::conv::{conv_backward, conv_forward, ConvGeom};
use mergesfl_nn::kernels::pool::{maxpool_backward, maxpool_forward};
use mergesfl_nn::kernels::{gemm_nn, Epilogue, KernelBackend};
use mergesfl_nn::pool::{heap_allocs, recycle, CountingAlloc};
use mergesfl_nn::zoo::{self, Architecture};
use mergesfl_nn::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per architecture at batch 32: allocations of one warm training forward, backward
/// and eval forward of the full model.
const LAYER_BUDGET: [(Architecture, [u64; 3]); 4] = [
    (Architecture::CnnH, [12, 16, 8]),
    (Architecture::CnnS, [14, 16, 10]),
    (Architecture::AlexNetLite, [19, 26, 12]),
    (Architecture::Vgg16Lite, [35, 42, 20]),
];

/// Per warm round of a quick run at non-IID level 10, seed 42: (approach, dataset,
/// measured allocations per round, headroom). A round is (run of 4 rounds − run of 2
/// rounds) / 2 after one warm-up run, which fills the tensor pool; a cold run reads up to
/// a few hundred more. The headroom is the spread over ten repetitions each run alone,
/// under `cargo test -q`, on one core (`taskset -c 0`) and in release on a 2-core
/// x86-64 host: none, since one thread makes every count deterministic.
const ROUND_BUDGET: [(Approach, DatasetKind, u64, u64); 3] = [
    (Approach::MergeSfl, DatasetKind::Har, 1_182, 0),
    (Approach::MergeSfl, DatasetKind::Cifar10, 1_963, 0),
    (Approach::FedAvg, DatasetKind::Har, 1_372, 0),
];

/// Heap allocations made by `f`; its result is dropped after the count.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = heap_allocs();
    let out = f();
    let seen = heap_allocs() - before;
    drop(out);
    seen
}

/// A deterministic, sign-varying input of `len` elements.
fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect()
}

/// Records a failure naming `what` if it made more than `bound` allocations.
fn check(failures: &mut Vec<String>, what: String, seen: u64, bound: u64) {
    if seen > bound {
        failures.push(format!("{what} made {seen} allocations, budget {bound}"));
    }
}

fn layer_passes(failures: &mut Vec<String>) {
    for (arch, bounds) in LAYER_BUDGET {
        let spec = zoo::build(arch, 10, 42);
        let mut model = spec.model;
        let shape: Vec<usize> = [32].iter().chain(&spec.input_shape).copied().collect();
        let x = Tensor::from_vec(ramp(shape.iter().product()), &shape);
        let logits = model.forward(&x, true);
        let grad = Tensor::from_vec(ramp(logits.len()), logits.shape());
        drop(logits);
        for _ in 0..3 {
            model.forward(&x, true);
            model.backward(&grad);
            model.forward(&x, false);
        }
        let seen = [
            allocs(|| model.forward(&x, true)),
            allocs(|| model.backward(&grad)),
            allocs(|| model.forward(&x, false)),
        ];
        let passes = ["train forward", "backward", "eval forward"];
        for ((pass, seen), bound) in passes.into_iter().zip(seen).zip(bounds) {
            check(failures, format!("{}: {pass}", arch.name()), seen, bound);
        }
    }
}

fn kernel_calls(failures: &mut Vec<String>) {
    let (m, n, k, blocked) = (32, 96, 144, KernelBackend::Blocked);
    let (a, b, bias, mut c) = (ramp(m * k), ramp(k * n), ramp(n), vec![0.0; m * n]);
    let relu = Epilogue::BiasRowRelu(&bias);
    let g = ConvGeom::conv2d(32, 8, 16, 16, 16, 3, 1, 1);
    let (x, w, cb) = (ramp(g.n * g.c_in * g.h * g.w), ramp(16 * 8 * 9), ramp(16));
    let (mut gw, mut gb) = (vec![0.0; w.len()], vec![0.0; g.c_out]);
    let gy = conv_forward(blocked, &g, &x, &w, &cb);
    let planes = g.n * g.c_in;
    let (pooled, argmax) = maxpool_forward(&x, planes, g.h, g.w, 2, 2);
    // Two calls warm the pool; the third is counted.
    let mut warm = |kernel: &str, call: &mut dyn FnMut()| {
        call();
        call();
        check(failures, format!("{kernel}: a warm call"), allocs(call), 0);
    };
    warm("gemm_nn (BiasRowRelu)", &mut || {
        gemm_nn(blocked, m, n, k, &a, &b, &mut c, relu)
    });
    warm("conv_forward", &mut || {
        recycle(conv_forward(blocked, &g, &x, &w, &cb))
    });
    warm("conv_backward", &mut || {
        recycle(conv_backward(blocked, &g, &x, &w, &gy, &mut gw, &mut gb));
    });
    warm("maxpool_forward", &mut || {
        let (values, argmax) = maxpool_forward(&x, planes, g.h, g.w, 2, 2);
        recycle(values);
        recycle(argmax);
    });
    warm("maxpool_backward", &mut || {
        recycle(maxpool_backward(&pooled, &argmax, x.len()))
    });
}

fn rounds(failures: &mut Vec<String>) {
    for (approach, dataset, measured, headroom) in ROUND_BUDGET {
        let config = |rounds| RunConfig {
            rounds,
            ..RunConfig::quick(dataset, 10.0, 42)
        };
        run(approach, &config(2));
        let two = allocs(|| run(approach, &config(2)));
        let four = allocs(|| run(approach, &config(4)));
        let what = format!("{approach:?} on {dataset:?}: a warm round ({headroom} headroom)");
        check(failures, what, (four - two) / 2, measured + headroom);
    }
}

#[test]
fn warm_passes_kernels_and_rounds_stay_within_their_allocation_budget() {
    rayon::set_num_threads(1);
    let mut failures = Vec::new();
    layer_passes(&mut failures);
    kernel_calls(&mut failures);
    rounds(&mut failures);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
