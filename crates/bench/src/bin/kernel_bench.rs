//! Kernel benchmark: times the blocked GEMM/conv kernels against the naive oracle on
//! shapes drawn from the model zoo, times the single-implementation layer families
//! (max-pool, ReLU) at the zoo's activation shapes, counts steady-state heap allocations
//! on the hot path, and emits the repo's perf trajectory file.
//!
//! ```text
//! kernel_bench [--json] [--check] [--min-speedup X]
//! ```
//!
//! * `--json` — additionally write the results to `BENCH_kernels.json` in the current
//!   directory (schema documented in README.md, "Compute kernels and the perf gate").
//! * `--check` — exit non-zero if any of the gates fail. Four gates run:
//!   1. the blocked backend must not be slower than `--min-speedup` (default 1.0) times
//!      the naive oracle on the gate shape, the largest GEMM;
//!   2. the blocked backend must not be slower than the naive oracle on any convolution
//!      case — every zoo stage, forward and backward;
//!   3. the gate-shape speedup must stay within `MERGESFL_PERF_FLOOR` (default 0.70) of
//!      the committed `BENCH_kernels.json` baseline — a noise-tolerant regression floor
//!      rather than an exact match; a missing or unparsable baseline fails the gate;
//!   4. with the tensor pool enabled, every blocked GEMM/conv case and every max-pool /
//!      ReLU case must run with zero steady-state heap allocations per iteration
//!      (`MERGESFL_COUNT_ALLOCS=off` skips the measurement and the gate).
//!
//! `--check` with all four gates is what CI's `perf-smoke` job runs.
//!
//! Every measurement reports the best wall-clock time over several repetitions, which is
//! robust against scheduler noise on shared CI runners. Allocation counts are measured
//! after the timing phase with the fan-out pinned to one thread
//! (`rayon::set_num_threads(1)`), so thread-spawn allocations on multi-core runners
//! don't pollute the steady-state count.

use mergesfl::json::{self, write_f64, JsonValue};
use mergesfl_nn::kernels::conv::{conv_backward, conv_backward_params, conv_forward, ConvGeom};
use mergesfl_nn::kernels::pool::{maxpool_backward, maxpool_forward, maxpool_forward_values};
use mergesfl_nn::kernels::{
    gemm_cfg, relu_backward, relu_in_place, Epilogue, KernelBackend, Trans,
};
use mergesfl_nn::rng::seeded;
use rand::Rng;
use std::time::Instant;

/// The allocation probe: every heap allocation in this binary bumps a counter the
/// steady-state measurement reads. The library never installs it, so training binaries
/// pay nothing.
#[global_allocator]
static ALLOC_PROBE: mergesfl_nn::pool::CountingAlloc = mergesfl_nn::pool::CountingAlloc;

/// Gate shape: the largest GEMM; `--check` compares blocked vs naive here.
const GATE: &str = "gemm_nn_256x256x256";

/// Default fraction of the committed baseline's gate speedup the fresh run must reach.
const DEFAULT_PERF_FLOOR: f64 = 0.70;

/// What one benchmark entry runs.
enum Case {
    /// A plain GEMM of the given layout and shape, with an optional fused epilogue.
    Gemm {
        trans: Trans,
        m: usize,
        n: usize,
        k: usize,
        fused_bias_relu: bool,
    },
    /// One convolution forward pass.
    ConvForward(ConvGeom),
    /// One convolution backward pass (weight, bias and input gradients).
    ConvBackward(ConvGeom),
    /// One convolution backward pass without the input gradient: what a model's first
    /// layer runs under `Sequential::backward_params`.
    ConvBackwardParams(ConvGeom),
    /// One max-pool or ReLU kernel pass at a zoo activation shape.
    Layer(LayerOp, PoolShape),
}

/// `planes` planes of `h × w` pooled by a `kh × kw` window — the activation a zoo model's
/// first ReLU produces and its first max-pool consumes.
#[derive(Clone, Copy)]
struct PoolShape {
    planes: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
}

impl PoolShape {
    fn len(&self) -> usize {
        self.planes * self.h * self.w
    }
}

/// The layer families that have a single implementation (no naive/blocked split).
#[derive(Clone, Copy)]
enum LayerOp {
    /// Max-pool training forward: values and argmax.
    PoolForward,
    /// Max-pool inference forward: values only.
    PoolForwardInfer,
    /// Max-pool backward: the argmax scatter.
    PoolBackward,
    /// ReLU forward: the in-place clamp.
    ReluForward,
    /// ReLU backward: the gradient masked by the forward's output.
    ReluBackward,
}

impl LayerOp {
    fn kind(self) -> &'static str {
        match self {
            LayerOp::PoolForward => "pool_forward",
            LayerOp::PoolForwardInfer => "pool_forward_infer",
            LayerOp::PoolBackward => "pool_backward",
            LayerOp::ReluForward => "relu_forward",
            LayerOp::ReluBackward => "relu_backward",
        }
    }
}

/// The five entries of one zoo activation shape: the ReLU that produces it and the
/// max-pool that consumes it.
macro_rules! layer_stage {
    ($name:literal, $shape:expr) => {{
        let shape: PoolShape = $shape;
        [
            Entry {
                name: concat!("maxpool_", $name, "_fwd"),
                case: Case::Layer(LayerOp::PoolForward, shape),
            },
            Entry {
                name: concat!("maxpool_", $name, "_fwd_infer"),
                case: Case::Layer(LayerOp::PoolForwardInfer, shape),
            },
            Entry {
                name: concat!("maxpool_", $name, "_bwd"),
                case: Case::Layer(LayerOp::PoolBackward, shape),
            },
            Entry {
                name: concat!("relu_", $name, "_fwd"),
                case: Case::Layer(LayerOp::ReluForward, shape),
            },
            Entry {
                name: concat!("relu_", $name, "_bwd"),
                case: Case::Layer(LayerOp::ReluBackward, shape),
            },
        ]
    }};
}

struct Entry {
    name: &'static str,
    case: Case,
}

/// The four entries of one zoo convolution stage: forward and backward at batch 9 (the
/// median per-worker batch of the benchmark's traced CIFAR run) and at batch 64 (the
/// evaluation chunk).
macro_rules! conv_stage {
    ($name:literal, $geom:expr) => {{
        let geom: fn(usize) -> ConvGeom = $geom;
        [
            Entry {
                name: concat!($name, "_b9_fwd"),
                case: Case::ConvForward(geom(9)),
            },
            Entry {
                name: concat!($name, "_b9_bwd"),
                case: Case::ConvBackward(geom(9)),
            },
            Entry {
                name: concat!($name, "_b64_fwd"),
                case: Case::ConvForward(geom(64)),
            },
            Entry {
                name: concat!($name, "_b64_bwd"),
                case: Case::ConvBackward(geom(64)),
            },
        ]
    }};
}

fn zoo() -> Vec<Entry> {
    let mut entries = vec![
        // Square GEMMs establishing the scaling trend; the largest is the CI gate.
        Entry {
            name: "gemm_nn_64x64x64",
            case: gemm(Trans::Nn, 64, 64, 64),
        },
        Entry {
            name: "gemm_nn_128x128x128",
            case: gemm(Trans::Nn, 128, 128, 128),
        },
        Entry {
            name: GATE,
            case: gemm(Trans::Nn, 256, 256, 256),
        },
        // Fused bias+ReLU epilogue on the gate shape (epilogue overhead visibility).
        Entry {
            name: "gemm_nt_256x256x256_bias_relu",
            case: Case::Gemm {
                trans: Trans::Nt,
                m: 256,
                n: 256,
                k: 256,
                fused_bias_relu: true,
            },
        },
        // Fully-connected shapes from the model zoo (y = x W^T at training batch sizes).
        Entry {
            name: "linear_cnnh_fc1_b32",
            case: gemm(Trans::Nt, 32, 32, 108),
        },
        Entry {
            name: "linear_alexnet_fc1_b64",
            case: gemm(Trans::Nt, 64, 48, 64),
        },
        // VGG16-Lite head FC layers at the server's training batch size, among the shapes
        // the simulated server's per-architecture throughput was derived from.
        Entry {
            name: "linear_vgg_fc1_b32",
            case: gemm(Trans::Nt, 32, 64, 16),
        },
        Entry {
            name: "linear_vgg_fc2_b32",
            case: gemm(Trans::Nt, 32, 48, 64),
        },
        // The same FC layer at a tail batch of 3: skinny-m wide-n `Nt`, the one
        // band where the direct (unpacked) register-tiled scheme is the fastest
        // allocation-free plan.
        Entry {
            name: "linear_vgg_fc2_b3",
            case: gemm(Trans::Nt, 3, 48, 64),
        },
        // Skinny bias-grad-style GEMV: m below the register tile. Selection keeps
        // the vectorised naive nest here (speedup pins at ~1.0) — the old cliff
        // fix routed it to a register tile that lost 4x to naive.
        Entry {
            name: "gemv_bias_grad_1x64x256",
            case: gemm(Trans::Tn, 1, 64, 256),
        },
        // Small square `Nn` product under the packing crossover: also stays on
        // the vectorised naive nest by design (speedup pins at ~1.0).
        Entry {
            name: "gemm_nn_12x12x12_small",
            case: gemm(Trans::Nn, 12, 12, 12),
        },
        // Convolutions from the model zoo (CNN-H head, AlexNet/VGG stems, CNN-S stem).
        Entry {
            name: "conv2d_vgg_c2_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 8, 8, 8, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_cnnh_c1_b32_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(32, 1, 12, 12, 6, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c1_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 3, 16, 16, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c1_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv2d(16, 3, 16, 16, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c1_b16_bwd_params",
            case: Case::ConvBackwardParams(ConvGeom::conv2d(16, 3, 16, 16, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv1d_cnns_c1_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv1d(16, 1, 64, 8, 5, 1, 2)),
        },
        Entry {
            name: "conv1d_cnns_c1_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv1d(16, 1, 64, 8, 5, 1, 2)),
        },
    ];
    // Every other convolution stage of the zoo (the entries above predate this table and
    // keep their names: the committed baseline refers to them). The
    // small-plane stages (4x4 and below) are where the per-call staging amortises least.
    entries.extend(conv_stage!("conv2d_cnnh_c1", |b| ConvGeom::conv2d(
        b, 1, 12, 12, 6, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_alexnet_c2", |b| ConvGeom::conv2d(
        b, 8, 8, 8, 16, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_alexnet_c3", |b| ConvGeom::conv2d(
        b, 16, 4, 4, 16, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_vgg_c2", |b| ConvGeom::conv2d(
        b, 8, 8, 8, 8, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_vgg_c4", |b| ConvGeom::conv2d(
        b, 12, 4, 4, 12, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_vgg_c6", |b| ConvGeom::conv2d(
        b, 16, 2, 2, 16, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_vgg_c8", |b| ConvGeom::conv2d(
        b, 16, 1, 1, 16, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv1d_cnns_c2", |b| ConvGeom::conv1d(
        b, 8, 32, 12, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_cnnh_c2", |b| ConvGeom::conv2d(
        b, 6, 6, 6, 12, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_cnnh_c3", |b| ConvGeom::conv2d(
        b, 12, 3, 3, 12, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv1d_cnns_c3", |b| ConvGeom::conv1d(
        b, 12, 16, 16, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv1d_cnns_c4", |b| ConvGeom::conv1d(
        b, 16, 8, 16, 3, 1, 1
    )));
    // The lane-starved stems (`c_out = 8` fills half of a 16-lane tile).
    entries.extend(conv_stage!("conv2d_vgg_c1", |b| ConvGeom::conv2d(
        b, 3, 8, 8, 8, 3, 1, 1
    )));
    entries.extend(conv_stage!("conv2d_alexnet_c1", |b| ConvGeom::conv2d(
        b, 3, 16, 16, 8, 3, 1, 1
    )));
    // The other layer families the benchmark's trace reports: each zoo model's first
    // ReLU → max-pool pair at the per-worker batch its workload runs.
    entries.extend(layer_stage!(
        "cnns_p1_b8",
        PoolShape {
            planes: 8 * 8,
            h: 1,
            w: 64,
            kh: 1,
            kw: 2
        }
    ));
    entries.extend(layer_stage!(
        "alexnet_p1_b9",
        PoolShape {
            planes: 9 * 8,
            h: 16,
            w: 16,
            kh: 2,
            kw: 2
        }
    ));
    entries.extend(layer_stage!(
        "cnnh_p1_b16",
        PoolShape {
            planes: 16 * 6,
            h: 12,
            w: 12,
            kh: 2,
            kw: 2
        }
    ));
    entries
}

fn gemm(trans: Trans, m: usize, n: usize, k: usize) -> Case {
    Case::Gemm {
        trans,
        m,
        n,
        k,
        fused_bias_relu: false,
    }
}

fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Best-of-`reps` wall-clock nanoseconds for one invocation of `f`, plus the
/// standard deviation across the reps as a timing-jitter indicator (high jitter
/// means the best-of figure is less trustworthy on that host).
fn best_ns<F: FnMut()>(mut f: F, reps: usize) -> (f64, f64) {
    f(); // warm-up (page in buffers, fill caches)
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (best, stddev_ns(&samples))
}

/// Population standard deviation of the timing samples.
fn stddev_ns(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    #[expect(
        clippy::disallowed_methods,
        reason = "fusing is welcome in a jitter statistic: accuracy, not bit-identity, \
                  matters here; kernel math must never fuse"
    )]
    let var = samples
        .iter()
        .map(|s| s - mean)
        .fold(0.0, |acc, d| d.mul_add(d, acc))
        / samples.len() as f64;
    var.sqrt()
}

/// Picks a repetition count so each measurement costs roughly 0.2 s at most.
fn reps_for(flops: f64) -> usize {
    // Assume a pessimistic 0.5 GFLOP/s for the naive path.
    let est_ns = flops / 0.5;
    ((200_000_000.0 / est_ns.max(1.0)) as usize).clamp(3, 25)
}

struct Measurement {
    name: &'static str,
    kind: &'static str,
    flops: f64,
    naive_ns: f64,
    blocked_ns: f64,
    /// Standard deviation of the blocked-path timing samples — printed as a ±
    /// column so noisy hosts are visible at a glance. Deliberately absent from the
    /// JSON output: the committed baseline format (and its parser) stays stable.
    blocked_jitter_ns: f64,
    /// Steady-state heap allocations per blocked-path iteration (warmed pool, one
    /// thread); `None` when counting is disabled via `MERGESFL_COUNT_ALLOCS=off`.
    allocs_per_iter: Option<f64>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.blocked_ns
    }

    fn gflops(&self, ns: f64) -> f64 {
        self.flops / ns
    }
}

fn measure(entry: &Entry) -> Measurement {
    let mut rng = seeded(42);
    match &entry.case {
        Case::Gemm {
            trans,
            m,
            n,
            k,
            fused_bias_relu,
        } => {
            let (m, n, k) = (*m, *n, *k);
            let a_len = m * k;
            let b_len = k * n;
            let a = random_vec(&mut rng, a_len);
            let b = random_vec(&mut rng, b_len);
            let bias = random_vec(&mut rng, n);
            let mut c = vec![0.0f32; m * n];
            let flops = 2.0 * m as f64 * n as f64 * k as f64;
            let reps = reps_for(flops);
            let epilogue = || {
                if *fused_bias_relu {
                    Epilogue::BiasRowRelu(&bias)
                } else {
                    Epilogue::None
                }
            };
            // The naive baseline must be what the seed repository actually ran, or the
            // recorded speedups overstate the win. For `Nt` the seed's Linear layer
            // materialised Wᵀ and then used the row-contiguous `Nn` loop (plus a bias
            // broadcast and a separate ReLU pass for the fused entry) — timing the
            // strided naive `Nt` loop instead would be ~15x slower than that baseline.
            let naive_ns = match trans {
                Trans::Nt => {
                    best_ns(
                        || {
                            let mut bt = vec![0.0f32; k * n];
                            for j in 0..n {
                                for p in 0..k {
                                    bt[p * n + j] = b[j * k + p];
                                }
                            }
                            c.fill(0.0);
                            gemm_cfg(
                                KernelBackend::Naive,
                                Trans::Nn,
                                m,
                                n,
                                k,
                                &a,
                                &bt,
                                &mut c,
                                Epilogue::None,
                            );
                            if *fused_bias_relu {
                                mergesfl_nn::kernels::add_bias_rows(&mut c, &bias);
                                for v in c.iter_mut() {
                                    *v = v.max(0.0);
                                }
                            }
                            std::hint::black_box(&c);
                        },
                        reps,
                    )
                    .0
                }
                _ => {
                    best_ns(
                        || {
                            c.fill(0.0);
                            gemm_cfg(
                                KernelBackend::Naive,
                                *trans,
                                m,
                                n,
                                k,
                                &a,
                                &b,
                                &mut c,
                                epilogue(),
                            );
                            std::hint::black_box(&c);
                        },
                        reps,
                    )
                    .0
                }
            };
            let (blocked_ns, blocked_jitter_ns) = best_ns(
                || {
                    c.fill(0.0);
                    gemm_cfg(
                        KernelBackend::Blocked,
                        *trans,
                        m,
                        n,
                        k,
                        &a,
                        &b,
                        &mut c,
                        epilogue(),
                    );
                    std::hint::black_box(&c);
                },
                reps,
            );
            Measurement {
                name: entry.name,
                kind: "gemm",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
            }
        }
        Case::ConvForward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let bias = random_vec(&mut rng, geom.c_out);
            let flops = conv_flops(geom);
            let reps = reps_for(flops);
            let run = |backend: KernelBackend| {
                best_ns(
                    || {
                        std::hint::black_box(conv_forward(backend, geom, &x, &w, &bias));
                    },
                    reps,
                )
            };
            let naive_ns = run(KernelBackend::Naive).0;
            let (blocked_ns, blocked_jitter_ns) = run(KernelBackend::Blocked);
            Measurement {
                name: entry.name,
                kind: "conv_forward",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
            }
        }
        Case::ConvBackward(geom) | Case::ConvBackwardParams(geom) => {
            let with_input_grad = matches!(entry.case, Case::ConvBackward(_));
            // Backward runs the weight-gradient and, unless the input gradient is dead,
            // the input-gradient product: ~2x (1x) forward.
            let flops = if with_input_grad { 2.0 } else { 1.0 } * conv_flops(geom);
            let reps = reps_for(flops);
            let run = |backend: KernelBackend| {
                best_ns(conv_backward_op(geom, backend, with_input_grad), reps)
            };
            let naive_ns = run(KernelBackend::Naive).0;
            let (blocked_ns, blocked_jitter_ns) = run(KernelBackend::Blocked);
            Measurement {
                name: entry.name,
                kind: if with_input_grad {
                    "conv_backward"
                } else {
                    "conv_backward_params"
                },
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
            }
        }
        Case::Layer(op, shape) => {
            // One comparison per pooled input element, one per ReLU element.
            let ops = shape.len() as f64;
            let (ns, jitter_ns) = best_ns(layer_op(*op, *shape), reps_for(ops));
            Measurement {
                name: entry.name,
                kind: op.kind(),
                flops: ops,
                // One implementation: both columns hold the one measurement.
                naive_ns: ns,
                blocked_ns: ns,
                blocked_jitter_ns: jitter_ns,
                allocs_per_iter: None,
            }
        }
    }
}

/// One iteration of a convolution backward case over its own buffers, shared by the
/// timing and the allocation phases. The returned input gradient is a pooled `Vec` and is
/// recycled explicitly — what `Tensor::from_vec` adoption does on the training path.
fn conv_backward_op(
    geom: &ConvGeom,
    backend: KernelBackend,
    with_input_grad: bool,
) -> impl FnMut() + '_ {
    let mut rng = seeded(42);
    let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
    let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
    let go = random_vec(&mut rng, geom.n * geom.c_out * geom.h_out() * geom.w_out());
    let mut grad_w = vec![0.0f32; w.len()];
    let mut grad_b = vec![0.0f32; geom.c_out];
    move || {
        grad_w.fill(0.0);
        grad_b.fill(0.0);
        if with_input_grad {
            let grad_in = conv_backward(backend, geom, &x, &w, &go, &mut grad_w, &mut grad_b);
            std::hint::black_box(&grad_in);
            mergesfl_nn::pool::recycle(grad_in);
        } else {
            conv_backward_params(backend, geom, &x, &w, &go, &mut grad_w, &mut grad_b);
        }
        std::hint::black_box((&grad_w, &grad_b));
    }
}

/// One iteration of a max-pool or ReLU case over its own buffers, shared by the timing
/// and the allocation phases. The activation is post-ReLU (about half exact zeros): what
/// the pool sees, and no cheaper for the ReLU passes, which are selects.
fn layer_op(op: LayerOp, shape: PoolShape) -> Box<dyn FnMut()> {
    let PoolShape {
        planes,
        h,
        w,
        kh,
        kw,
    } = shape;
    let mut rng = seeded(42);
    let x: Vec<f32> = random_vec(&mut rng, shape.len())
        .into_iter()
        .map(|v| v.max(0.0))
        .collect();
    match op {
        LayerOp::PoolForward => Box::new(move || {
            let (out, argmax) = maxpool_forward(&x, planes, h, w, kh, kw);
            std::hint::black_box((&out, &argmax));
            mergesfl_nn::pool::recycle(out);
            mergesfl_nn::pool::recycle(argmax);
        }),
        LayerOp::PoolForwardInfer => Box::new(move || {
            let out = maxpool_forward_values(&x, planes, h, w, kh, kw);
            std::hint::black_box(&out);
            mergesfl_nn::pool::recycle(out);
        }),
        LayerOp::PoolBackward => {
            let (out, argmax) = maxpool_forward(&x, planes, h, w, kh, kw);
            let grad_out = random_vec(&mut rng, out.len());
            Box::new(move || {
                let grad_in = maxpool_backward(&grad_out, &argmax, x.len());
                std::hint::black_box(&grad_in);
                mergesfl_nn::pool::recycle(grad_in);
            })
        }
        LayerOp::ReluForward => {
            let mut x = x;
            Box::new(move || {
                relu_in_place(&mut x);
                std::hint::black_box(&x);
            })
        }
        LayerOp::ReluBackward => {
            let grad_out = random_vec(&mut rng, x.len());
            Box::new(move || {
                let grad_in = relu_backward(&grad_out, &x);
                std::hint::black_box(&grad_in);
                mergesfl_nn::pool::recycle(grad_in);
            })
        }
    }
}

fn conv_flops(geom: &ConvGeom) -> f64 {
    2.0 * (geom.n * geom.c_out * geom.h_out() * geom.w_out()) as f64
        * (geom.c_in * geom.kh * geom.kw) as f64
}

/// Steady-state heap allocations per invocation of `f`: warm-up iterations populate the
/// tensor pool, then the probe counter is read around a measured batch. Call sites pin
/// `RAYON_NUM_THREADS=1` first so thread spawns don't land in the count.
fn steady_state_allocs<F: FnMut()>(mut f: F) -> f64 {
    const WARMUP: usize = 3;
    const ITERS: u64 = 8;
    for _ in 0..WARMUP {
        f();
    }
    let before = mergesfl_nn::pool::heap_allocs();
    for _ in 0..ITERS {
        f();
    }
    (mergesfl_nn::pool::heap_allocs() - before) as f64 / ITERS as f64
}

/// Measures `allocs_per_iter` for one entry's blocked (hot) path. Buffers returned by
/// the conv kernels are pooled `Vec`s and are recycled explicitly — exactly what
/// `Tensor::from_vec` adoption does for them on the training path.
fn measure_allocs(entry: &Entry) -> f64 {
    let mut rng = seeded(42);
    match &entry.case {
        Case::Gemm {
            trans,
            m,
            n,
            k,
            fused_bias_relu,
        } => {
            let (m, n, k) = (*m, *n, *k);
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, n);
            let mut c = vec![0.0f32; m * n];
            steady_state_allocs(|| {
                c.fill(0.0);
                gemm_cfg(
                    KernelBackend::Blocked,
                    *trans,
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut c,
                    if *fused_bias_relu {
                        Epilogue::BiasRowRelu(&bias)
                    } else {
                        Epilogue::None
                    },
                );
                std::hint::black_box(&c);
            })
        }
        Case::ConvForward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let bias = random_vec(&mut rng, geom.c_out);
            steady_state_allocs(|| {
                let out = conv_forward(KernelBackend::Blocked, geom, &x, &w, &bias);
                std::hint::black_box(&out);
                mergesfl_nn::pool::recycle(out);
            })
        }
        Case::ConvBackward(geom) => {
            steady_state_allocs(conv_backward_op(geom, KernelBackend::Blocked, true))
        }
        Case::ConvBackwardParams(geom) => {
            steady_state_allocs(conv_backward_op(geom, KernelBackend::Blocked, false))
        }
        Case::Layer(op, shape) => steady_state_allocs(layer_op(*op, *shape)),
    }
}

/// The gate-shape speedup recorded in a previously written `BENCH_kernels.json`, or why
/// it cannot be read. Read before `--json` overwrites the file, this is the committed
/// perf-floor reference.
fn baseline_gate_speedup(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let gate = doc
        .get("gate")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{path}: no \"gate\" shape name"))?;
    doc.get("entries")
        .and_then(JsonValue::as_array)
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(gate))
        })
        .and_then(|e| e.get("speedup"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{path}: no speedup recorded for the gate shape {gate}"))
}

fn render_json(results: &[Measurement], threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mergesfl-kernel-bench/v2\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"gate\": \"{GATE}\",\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in results.iter().enumerate() {
        let num = |v: f64| {
            let mut s = String::new();
            write_f64(&mut s, v);
            s
        };
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", r.name));
        out.push_str(&format!("\"kind\": \"{}\", ", r.kind));
        out.push_str(&format!("\"flops\": {}, ", num(r.flops)));
        out.push_str(&format!("\"naive_ns\": {}, ", num(r.naive_ns)));
        out.push_str(&format!("\"blocked_ns\": {}, ", num(r.blocked_ns)));
        out.push_str(&format!(
            "\"naive_gflops\": {}, ",
            num(round3(r.gflops(r.naive_ns)))
        ));
        out.push_str(&format!(
            "\"blocked_gflops\": {}, ",
            num(round3(r.gflops(r.blocked_ns)))
        ));
        out.push_str(&format!("\"speedup\": {}, ", num(round3(r.speedup()))));
        // `null` when counting was disabled.
        match r.allocs_per_iter {
            Some(a) => out.push_str(&format!("\"allocs_per_iter\": {}", num(round3(a)))),
            None => out.push_str("\"allocs_per_iter\": null"),
        }
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() {
    let mut emit_json = false;
    let mut check = false;
    let mut min_speedup = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => emit_json = true,
            "--check" => check = true,
            "--min-speedup" => {
                min_speedup = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-speedup requires a numeric argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: kernel_bench [--json] [--check] [--min-speedup X]");
                std::process::exit(2);
            }
        }
    }

    // The committed trajectory file is the perf-floor reference; read it before
    // `--json` overwrites it with this run's numbers.
    let baseline_speedup = baseline_gate_speedup("BENCH_kernels.json");

    let threads = rayon::current_num_threads();
    println!("kernel_bench: naive oracle vs blocked kernels ({threads} thread(s))\n");
    // Times print in microseconds: the short conv stages run in a few of them.
    println!(
        "  {:<32} {:>20} {:>12} {:>12} {:>9} {:>12} {:>9}",
        "shape", "kind", "naive", "blocked", "jitter", "GFLOP/s", "speedup"
    );

    let mut results = Vec::new();
    for entry in zoo() {
        let r = measure(&entry);
        println!(
            "  {:<32} {:>20} {:>10.1}us {:>10.1}us {:>7.1}us {:>12.2} {:>8.2}x",
            r.name,
            r.kind,
            r.naive_ns / 1e3,
            r.blocked_ns / 1e3,
            r.blocked_jitter_ns / 1e3,
            r.gflops(r.blocked_ns),
            r.speedup(),
        );
        results.push(r);
    }

    // Allocation phase, after all timing: pin the fan-out to one thread so scoped
    // thread spawns on multi-core runners stay out of the steady-state count.
    if mergesfl_nn::pool::count_allocs() {
        rayon::set_num_threads(1);
        println!();
        for (entry, r) in zoo().iter().zip(results.iter_mut()) {
            let allocs = measure_allocs(entry);
            println!("  {:<32} allocs/iter (steady state): {allocs:.3}", r.name);
            r.allocs_per_iter = Some(allocs);
        }
        rayon::set_num_threads(0);
    }

    if emit_json {
        let json = render_json(&results, threads);
        std::fs::write("BENCH_kernels.json", &json).expect("failed to write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json ({} entries)", results.len());
    }

    if check {
        let mut failed = false;
        let gate = results
            .iter()
            .find(|r| r.name == GATE)
            .expect("gate shape missing from the zoo");
        let speedup = gate.speedup();
        if speedup < min_speedup {
            eprintln!(
                "PERF GATE FAILED: blocked GEMM is {speedup:.2}x the naive oracle on {GATE} \
                 (required >= {min_speedup:.2}x)"
            );
            failed = true;
        } else {
            println!("\nperf gate passed: {speedup:.2}x >= {min_speedup:.2}x on {GATE}");
        }

        // Conv gate: the blocked products must beat the naive nests on every zoo stage, in
        // both directions — the small-plane stages (4x4 and below) included.
        let slow: Vec<String> = results
            .iter()
            .filter(|r| r.kind.starts_with("conv") && r.blocked_ns > r.naive_ns)
            .map(|r| format!("{} ({:.2}x)", r.name, r.speedup()))
            .collect();
        if slow.is_empty() {
            println!("conv gate passed: blocked <= naive on every conv case");
        } else {
            eprintln!(
                "CONV GATE FAILED: blocked conv slower than the naive oracle on: {}",
                slow.join(", ")
            );
            failed = true;
        }

        // Perf floor against the committed baseline (noise-tolerant regression check).
        let floor = mergesfl_nn::env::parsed::<f64>("MERGESFL_PERF_FLOOR")
            .filter(|f| f.is_finite() && *f > 0.0)
            .unwrap_or(DEFAULT_PERF_FLOOR);
        match baseline_speedup {
            Ok(reference) => {
                let required = floor * reference;
                if speedup < required {
                    eprintln!(
                        "PERF FLOOR FAILED: gate speedup {speedup:.2}x fell below \
                         {floor:.2} x the committed baseline {reference:.2}x \
                         (required >= {required:.2}x)"
                    );
                    failed = true;
                } else {
                    println!(
                        "perf floor passed: {speedup:.2}x >= {floor:.2} x baseline \
                         {reference:.2}x on {GATE}"
                    );
                }
            }
            Err(err) => {
                eprintln!("PERF FLOOR FAILED: no committed baseline to compare with: {err}");
                failed = true;
            }
        }

        // Allocation gate: every blocked GEMM/conv case and every pool/ReLU case must be
        // allocation-free in steady state when the pool serves checkouts.
        if mergesfl_nn::pool::count_allocs() && mergesfl_nn::pool::enabled() {
            let leaky: Vec<&str> = results
                .iter()
                .filter(|r| r.allocs_per_iter.is_some_and(|a| a > 0.0))
                .map(|r| r.name)
                .collect();
            if leaky.is_empty() {
                println!("alloc gate passed: 0 steady-state allocs/iter on all cases");
            } else {
                eprintln!(
                    "ALLOC GATE FAILED: steady-state heap allocations on the blocked \
                     hot path: {}",
                    leaky.join(", ")
                );
                failed = true;
            }
        } else {
            println!("alloc gate skipped: counting or the tensor pool is disabled");
        }

        if failed {
            std::process::exit(1);
        }
    }
}
