//! Property tests: the blocked kernel backend against the naive oracle.
//!
//! The blocked GEMM and the gathered-operand convolution accumulate every output element,
//! weight gradient and bias gradient in exactly the same ascending-`k` order as the naive
//! loop nests, so those results must be **bit-identical** across backends on finite inputs.
//! The one reassociated reduction — the conv input gradient, which sums kernel taps per
//! output position where the naive nest sums per output channel — is held to a few-ULP
//! relative tolerance instead.
//!
//! Shapes, strides and paddings are drawn randomly, and the degenerate corners (1×1
//! kernels, 1×1 images, empty batches, `k = 0` products) get dedicated cases below.

use mergesfl_nn::kernels::conv::{conv_backward, conv_forward, ConvGeom};
use mergesfl_nn::kernels::{
    gemm_cfg, gemm_with_scheme, runtime, set_micro_override, Epilogue, GemmPlan, KernelBackend,
    MicroSelect, PartitionSize, Staging, TilingScheme, Trans, ALL_MICRO_KERNELS,
};
use proptest::prelude::*;

/// Shared random-value pool: properties slice what each shape needs out of this.
const POOL: usize = 4096;

fn run_gemm(
    backend: KernelBackend,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    pool: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    let a = &pool[..m * k];
    let b = &pool[m * k..m * k + k * n];
    let mut c = vec![0.0f32; m * n];
    let epilogue = match bias {
        Some(bias) => Epilogue::BiasRow(&bias[..n]),
        None => Epilogue::None,
    };
    gemm_cfg(backend, trans, m, n, k, a, b, &mut c, epilogue);
    c
}

/// Builds a valid geometry from raw random draws: the kernel is clamped so it never
/// exceeds the padded input, exercising every (shape, stride, padding) combination the
/// layers can legally see.
fn clamp_geom(
    two_d: bool,
    n: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
) -> ConvGeom {
    if two_d {
        let k = k.min(h + 2 * p).min(w + 2 * p).max(1);
        ConvGeom::conv2d(n, c_in, h, w, c_out, k, s, p)
    } else {
        let k = k.min(w + 2 * p).max(1);
        ConvGeom::conv1d(n, c_in, w, c_out, k, s, p)
    }
}

fn conv_sizes(geom: &ConvGeom) -> (usize, usize, usize, usize) {
    let x_len = geom.n * geom.c_in * geom.h * geom.w;
    let w_len = geom.c_out * geom.c_in * geom.kh * geom.kw;
    let out_len = geom.n * geom.c_out * geom.h_out() * geom.w_out();
    (x_len, w_len, geom.c_out, out_len)
}

fn check_conv_parity(geom: ConvGeom, pool: &[f32]) {
    let (x_len, w_len, b_len, out_len) = conv_sizes(&geom);
    assert!(
        x_len + w_len + b_len + out_len <= pool.len(),
        "test pool too small for {geom:?}"
    );
    let x = &pool[..x_len];
    let weight = &pool[x_len..x_len + w_len];
    let bias = &pool[x_len + w_len..x_len + w_len + b_len];
    let grad_out = &pool[x_len + w_len + b_len..x_len + w_len + b_len + out_len];

    let y_naive = conv_forward(KernelBackend::Naive, &geom, x, weight, bias);
    let y_blocked = conv_forward(KernelBackend::Blocked, &geom, x, weight, bias);
    assert_eq!(y_naive, y_blocked, "forward diverged for {geom:?}");

    let (mut gw_n, mut gb_n) = (vec![0.0f32; w_len], vec![0.0f32; b_len]);
    let (mut gw_b, mut gb_b) = (vec![0.0f32; w_len], vec![0.0f32; b_len]);
    let gi_n = conv_backward(
        KernelBackend::Naive,
        &geom,
        x,
        weight,
        grad_out,
        &mut gw_n,
        &mut gb_n,
    );
    let gi_b = conv_backward(
        KernelBackend::Blocked,
        &geom,
        x,
        weight,
        grad_out,
        &mut gw_b,
        &mut gb_b,
    );
    assert_eq!(gw_n, gw_b, "grad_w diverged for {geom:?}");
    assert_eq!(gb_n, gb_b, "grad_b diverged for {geom:?}");
    for (i, (a, b)) in gi_n.iter().zip(&gi_b).enumerate() {
        assert!(
            (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
            "grad_in diverged at {i} for {geom:?}: {a} vs {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked GEMM is bit-identical to the naive oracle for every layout, including
    /// ragged tiles and zero-sized dimensions, with and without the bias epilogue.
    #[test]
    fn gemm_matches_naive_across_shapes(
        m in 0usize..24,
        n in 0usize..24,
        k in 0usize..24,
        with_bias in 0usize..2,
        pool in prop::collection::vec(-2.0f32..2.0, POOL),
    ) {
        let bias_pool: Vec<f32> = pool.iter().rev().copied().take(24).collect();
        let bias = if with_bias == 1 { Some(bias_pool.as_slice()) } else { None };
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            let naive = run_gemm(KernelBackend::Naive, trans, m, n, k, &pool, bias);
            let blocked = run_gemm(KernelBackend::Blocked, trans, m, n, k, &pool, bias);
            prop_assert_eq!(&naive, &blocked, "layout {:?} {}x{}x{} diverged", trans, m, n, k);
        }
    }

    /// Blocked conv2d forward/backward agrees with the naive oracle across random
    /// shapes, strides and paddings (forward, grad_w, grad_b bit-identical; grad_in to
    /// a few ULPs).
    #[test]
    fn conv2d_matches_naive_across_shapes(
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        k in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
        pool in prop::collection::vec(-1.5f32..1.5, POOL),
    ) {
        check_conv_parity(clamp_geom(true, n, c_in, c_out, h, w, k, s, p), &pool);
    }

    /// The same parity for conv1d (the height-1 geometry the speech model uses).
    #[test]
    fn conv1d_matches_naive_across_shapes(
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..4,
        l in 1usize..24,
        k in 1usize..6,
        s in 1usize..3,
        p in 0usize..3,
        pool in prop::collection::vec(-1.5f32..1.5, POOL),
    ) {
        check_conv_parity(clamp_geom(false, n, c_in, c_out, 1, l, k, s, p), &pool);
    }
}

#[test]
fn gemm_one_by_one_and_empty() {
    let pool: Vec<f32> = (0..16).map(|i| i as f32 - 7.5).collect();
    for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
        // 1x1x1: a single multiply must survive both paths.
        let naive = run_gemm(KernelBackend::Naive, trans, 1, 1, 1, &pool, None);
        let blocked = run_gemm(KernelBackend::Blocked, trans, 1, 1, 1, &pool, None);
        assert_eq!(naive, blocked);
        assert_eq!(naive, vec![pool[0] * pool[1]]);
        // k = 0: the product contributes nothing; the bias epilogue still applies.
        let bias = [3.0f32, -1.0];
        let naive = run_gemm(KernelBackend::Naive, trans, 2, 2, 0, &pool, Some(&bias));
        let blocked = run_gemm(KernelBackend::Blocked, trans, 2, 2, 0, &pool, Some(&bias));
        assert_eq!(naive, blocked);
        assert_eq!(naive, vec![3.0, -1.0, 3.0, -1.0]);
        // m = 0: empty output on both paths.
        assert!(run_gemm(KernelBackend::Blocked, trans, 0, 5, 3, &pool, None).is_empty());
    }
}

#[test]
fn conv_one_by_one_kernel_and_image() {
    let pool: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
    // 1x1 kernel over a 1x1 image: convolution degenerates to a channel mix.
    check_conv_parity(ConvGeom::conv2d(2, 3, 1, 1, 4, 1, 1, 0), &pool);
    // 1x1 kernel over a larger map with stride 2.
    check_conv_parity(ConvGeom::conv2d(1, 2, 5, 5, 3, 1, 2, 0), &pool);
    // Length-1 conv1d.
    check_conv_parity(ConvGeom::conv1d(2, 2, 1, 3, 1, 1, 0), &pool);
}

#[test]
fn conv_empty_batch() {
    let geom = ConvGeom::conv2d(0, 2, 4, 4, 3, 3, 1, 1);
    let weight = vec![0.5f32; 3 * 2 * 9];
    let bias = vec![0.1f32; 3];
    for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
        assert!(conv_forward(backend, &geom, &[], &weight, &bias).is_empty());
        let (mut gw, mut gb) = (vec![0.0f32; weight.len()], vec![0.0f32; 3]);
        let gi = conv_backward(backend, &geom, &[], &weight, &[], &mut gw, &mut gb);
        assert!(gi.is_empty());
        assert!(gw.iter().chain(gb.iter()).all(|&v| v == 0.0));
    }
}

/// The convolutions fold through the gathered entry of whichever micro-kernel is selected:
/// forced one by one — `portable`, the generic gathered kernel, runs on every host, and a
/// kernel the CPU lacks falls back to the automatic choice — each must match the naive
/// oracle on the zoo's stage shapes, ragged lane counts and small padded images included.
/// (The override is process-wide; tests running beside this one only ever see a different,
/// bit-identical kernel.)
#[test]
fn conv_matches_naive_under_every_forced_micro_kernel() {
    let pool: Vec<f32> = (0..POOL).map(|i| (i as f32 * 0.173).sin()).collect();
    for id in ALL_MICRO_KERNELS {
        set_micro_override(Some(id));
        check_conv_parity(ConvGeom::conv2d(3, 3, 8, 8, 8, 3, 1, 1), &pool);
        check_conv_parity(ConvGeom::conv2d(2, 6, 6, 6, 12, 3, 1, 1), &pool);
        check_conv_parity(ConvGeom::conv2d(5, 12, 3, 3, 12, 3, 1, 1), &pool);
        check_conv_parity(ConvGeom::conv2d(9, 16, 1, 1, 16, 3, 1, 1), &pool);
        check_conv_parity(ConvGeom::conv2d(2, 2, 7, 5, 6, 3, 2, 0), &pool);
        check_conv_parity(ConvGeom::conv1d(3, 1, 64, 8, 5, 1, 2), &pool);
        check_conv_parity(ConvGeom::conv1d(2, 12, 16, 16, 3, 1, 1), &pool);
    }
    set_micro_override(None);
}

/// The whole-layer view: a Linear forward/backward pass produces identical parameter
/// gradients whichever backend computed the GEMMs (the layers read the process-wide
/// default, which stays `Blocked` here; this pins the layer-level wiring by comparing
/// against a hand-rolled naive computation).
#[test]
fn linear_layer_matches_manual_naive_computation() {
    use mergesfl_nn::layers::{Layer, Linear};
    use mergesfl_nn::rng::seeded;
    use mergesfl_nn::Tensor;

    let mut rng = seeded(99);
    let mut layer = Linear::new(&mut rng, 6, 5);
    let x = Tensor::from_vec((0..18).map(|i| (i as f32 * 0.31).cos()).collect(), &[3, 6]);
    let y = layer.forward(x.clone(), true);

    // Manual y = x W^T + b through the naive backend primitives.
    let w = layer.params()[0].value.clone();
    let b = layer.params()[1].value.clone();
    let mut manual = vec![0.0f32; 3 * 5];
    gemm_cfg(
        KernelBackend::Naive,
        Trans::Nt,
        3,
        5,
        6,
        x.data(),
        w.data(),
        &mut manual,
        Epilogue::BiasRow(b.data()),
    );
    assert_eq!(y.data(), manual.as_slice());
}

/// The full runtime matrix: every micro-kernel × staging mode × layout reachable on this
/// host is bit-identical to the naive oracle. Cells whose micro-kernel the CPU lacks are
/// skipped with a message (CI's portable-forced cell still covers their tile via the
/// generic kernel). Shapes are chosen ragged against both the register tiles and the
/// shrunk partition so every edge path (partial tiles, multi-stage loops, the packer
/// hand-off) executes.
#[test]
fn parity_matrix_micro_kernel_by_scheme_by_layout() {
    let pool: Vec<f32> = (0..POOL)
        .map(|i| ((i as f32) * 0.193).sin() * 2.0)
        .collect();
    let bias: Vec<f32> = (0..64).map(|i| (i as f32) * 0.05 - 1.0).collect();
    // Ragged against every supported tile (mr in {4, 8, 16}, nr in {8, 16}) and
    // against the partition below (multiple mc/kc/nc stages each).
    let shapes = [(13usize, 27usize, 33usize), (5, 9, 17), (33, 49, 40)];
    // Shrunk partition so even these small shapes iterate several packing stages.
    let partition = PartitionSize {
        mc: 16,
        kc: 16,
        nc: 24,
    };
    for micro in ALL_MICRO_KERNELS {
        if !micro.is_available() {
            println!(
                "skipping micro-kernel {}: not available on this host",
                micro.name()
            );
            continue;
        }
        for stage in [Staging::Direct, Staging::Single, Staging::Double] {
            let scheme = TilingScheme {
                tile: micro.tile(),
                partition,
                stage,
            };
            scheme.validate();
            for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
                for (m, n, k) in shapes {
                    let naive = run_gemm(KernelBackend::Naive, trans, m, n, k, &pool, Some(&bias));
                    let a = &pool[..m * k];
                    let b = &pool[m * k..m * k + k * n];
                    let mut c = vec![0.0f32; m * n];
                    gemm_with_scheme(
                        trans,
                        m,
                        n,
                        k,
                        a,
                        b,
                        &mut c,
                        Epilogue::BiasRow(&bias[..n]),
                        &scheme,
                        MicroSelect::Force(micro),
                    );
                    assert_eq!(
                        naive,
                        c,
                        "micro {} stage {} layout {:?} {m}x{n}x{k} diverged",
                        micro.name(),
                        stage.name(),
                        trans
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scheme selection is total: any shape — zero extents, k = 1, skinny slivers,
    /// huge flop counts — yields a plan without panicking, and tiled plans always
    /// carry a valid (executable) scheme.
    #[test]
    fn scheme_selection_never_panics(
        m in 0usize..4097,
        n in 0usize..4097,
        k_raw in 0usize..4097,
    ) {
        // Fold the draws through the interesting extremes too: zero extents, k = 1
        // slivers, and flop counts far past any threshold.
        let k = match k_raw % 4 {
            0 => 0,
            1 => 1,
            2 => 1usize << 40,
            _ => k_raw,
        };
        let rt = runtime();
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            if let GemmPlan::Tiled(scheme, _) = rt.select(trans, m, n, k) {
                scheme.validate();
            }
            if let GemmPlan::Tiled(scheme, _) = rt.select(trans, k, m, n) {
                scheme.validate();
            }
        }
    }
}
