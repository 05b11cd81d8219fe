//! Max-pooling kernels shared by `MaxPool1d` and `MaxPool2d`.
//!
//! Pooling has no meaningful blocked/naive split — there is a single deterministic
//! implementation: a window scan per `(batch, channel)` plane with the window stride equal
//! to the window size (the only configuration the model zoo uses). A 1-D pool is the
//! `h = 1, kh = 1` special case. Planes own disjoint output slices, so large inputs fan
//! out over the rayon shim without changing a single result.
//!
//! The scan ([`scan_plane`]) keeps each window's running maximum and its index in locals
//! and updates both with selects, so its cost does not depend on how predictable the
//! (post-ReLU) activations are; one store per output follows the window. The comparison
//! order is fixed — row-major inside the window, strict `>`, seeded with `-inf` and flat
//! index 0 — so the first maximum wins a tie, a NaN never wins, and a window that holds
//! nothing above `-inf` reports `-inf` at flat index 0.

use rayon::prelude::*;

/// Minimum total input elements before plane processing fans out across threads.
const PAR_MIN_ELEMS: usize = 1 << 16;

/// Max-pools `planes` independent `[h, w]` planes with a `kh × kw` window (stride equal
/// to the window). Returns the pooled values and, for each output element, the flat index
/// of its argmax in `x` — the exact format [`maxpool_backward`] consumes.
pub fn maxpool_forward(
    x: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
) -> (Vec<f32>, Vec<usize>) {
    scan(x, planes, (h, w), (kh, kw), true)
}

/// The values of [`maxpool_forward`] without the argmax: the inference pass, which has
/// no backward to route through.
pub fn maxpool_forward_values(
    x: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
) -> Vec<f32> {
    scan(x, planes, (h, w), (kh, kw), false).0
}

/// Checks the geometry and runs [`scan_plane`] over every plane, fanning out over planes
/// when the input is large enough. Every output (and, `with_argmax`, argmax) element is
/// written, so both buffers are checked out unseeded; without it the argmax stays empty.
fn scan(
    x: &[f32],
    planes: usize,
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    with_argmax: bool,
) -> (Vec<f32>, Vec<usize>) {
    assert!(kh > 0 && kw > 0, "maxpool_forward: window must be positive");
    assert_eq!(
        x.len(),
        planes * h * w,
        "maxpool_forward: input length mismatch"
    );
    assert!(
        h >= kh && w >= kw,
        "maxpool_forward: input smaller than window"
    );
    let out_plane = (h / kh) * (w / kw);
    let mut out = crate::pool::take_uninit::<f32>(planes * out_plane);
    let mut argmax = if with_argmax {
        crate::pool::take_uninit::<usize>(out.len())
    } else {
        Vec::new()
    };
    let mut arg_planes = with_argmax.then(|| argmax.chunks_mut(out_plane));
    let tasks = out.chunks_mut(out_plane).enumerate().map(|(plane, out_p)| {
        let arg_p = arg_planes
            .as_mut()
            .map(|it| it.next().expect("one argmax chunk per output plane"));
        (plane, out_p, arg_p)
    });
    let run = |(plane, out_p, arg_p): PlaneTask<'_>| {
        let x_p = &x[plane * h * w..][..h * w];
        // The zoo's windows get their dimensions as constants; any other window runs the
        // same body with the dimensions read at run time (`0` selects that).
        match (kh, kw) {
            (1, 2) => scan_plane::<1, 2>(x_p, plane * h * w, w, kh, kw, out_p, arg_p),
            (2, 2) => scan_plane::<2, 2>(x_p, plane * h * w, w, kh, kw, out_p, arg_p),
            _ => scan_plane::<0, 0>(x_p, plane * h * w, w, kh, kw, out_p, arg_p),
        }
    };
    if rayon::current_num_threads() > 1 && planes > 1 && x.len() >= PAR_MIN_ELEMS {
        // Multi-core fan-out task list; the single-core path never reaches here
        let tasks: Vec<PlaneTask<'_>> = tasks.collect();
        tasks.into_par_iter().for_each(run);
    } else {
        tasks.for_each(run);
    }
    (out, argmax)
}

/// One plane's work: its index, its output slice and, when training, its argmax slice.
type PlaneTask<'a> = (usize, &'a mut [f32], Option<&'a mut [usize]>);

/// Pools one `[h, w]` plane `x_p` (which starts at flat index `base` of the input) into
/// `out_p`, and the flat argmax of every window into `arg_p` when it is given. `KH`/`KW`
/// are the window when non-zero; `0` means "use `kh`/`kw`".
#[inline(always)]
fn scan_plane<const KH: usize, const KW: usize>(
    x_p: &[f32],
    base: usize,
    w: usize,
    kh: usize,
    kw: usize,
    out_p: &mut [f32],
    arg_p: Option<&mut [usize]>,
) {
    let kh = if KH == 0 { kh } else { KH };
    let kw = if KW == 0 { kw } else { KW };
    let w_out = w / kw;
    match arg_p {
        Some(arg_p) => {
            let rows = out_p
                .chunks_exact_mut(w_out)
                .zip(arg_p.chunks_exact_mut(w_out));
            for (oy, (out_row, arg_row)) in rows.enumerate() {
                for (ox, (o, a)) in out_row.iter_mut().zip(arg_row).enumerate() {
                    (*o, *a) = window_max(x_p, base, w, (oy * kh, ox * kw), (kh, kw));
                }
            }
        }
        None => {
            for (oy, out_row) in out_p.chunks_exact_mut(w_out).enumerate() {
                for (ox, o) in out_row.iter_mut().enumerate() {
                    *o = window_max(x_p, base, w, (oy * kh, ox * kw), (kh, kw)).0;
                }
            }
        }
    }
}

/// Maximum and flat argmax of the `kh × kw` window whose top-left corner is `(y0, x0)`.
#[inline(always)]
fn window_max(
    x_p: &[f32],
    base: usize,
    w: usize,
    (y0, x0): (usize, usize),
    (kh, kw): (usize, usize),
) -> (f32, usize) {
    let (mut m, mut at) = (f32::NEG_INFINITY, 0usize);
    for ky in 0..kh {
        let row = (y0 + ky) * w + x0;
        for (kx, &v) in x_p[row..row + kw].iter().enumerate() {
            let wins = v > m;
            m = if wins { v } else { m };
            at = if wins { base + row + kx } else { at };
        }
    }
    (m, at)
}

/// Routes each output gradient back to the input position that produced its maximum.
pub fn maxpool_backward(grad_out: &[f32], argmax: &[usize], input_len: usize) -> Vec<f32> {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "maxpool_backward: length mismatch"
    );
    let mut grad_in = crate::pool::take_zeroed::<f32>(input_len);
    for (g, &idx) in grad_out.iter().zip(argmax) {
        grad_in[idx] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    /// The scan this module shipped with, verbatim: the maximum lives in `out_p[oi]` and is
    /// stored, together with its index, under a data-dependent branch. The reference the
    /// select-based scan must match bit for bit.
    fn reference_forward(
        x: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let (h_out, w_out) = (h / kh, w / kw);
        let out_plane = h_out * w_out;
        let mut out = vec![f32::NEG_INFINITY; planes * out_plane];
        let mut argmax = vec![0usize; out.len()];
        for (plane, (out_p, arg_p)) in out
            .chunks_mut(out_plane)
            .zip(argmax.chunks_mut(out_plane))
            .enumerate()
        {
            let base = plane * h * w;
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let oi = oy * w_out + ox;
                    for ky in 0..kh {
                        let row = base + (oy * kh + ky) * w + ox * kw;
                        for kx in 0..kw {
                            let xi = row + kx;
                            if x[xi] > out_p[oi] {
                                out_p[oi] = x[xi];
                                arg_p[oi] = xi;
                            }
                        }
                    }
                }
            }
        }
        (out, argmax)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Values, argmax, the routed gradient and the values-only scan, all against the
    /// reference, bit for bit.
    fn check_parity(x: &[f32], planes: usize, (h, w): (usize, usize), (kh, kw): (usize, usize)) {
        let ctx = format!("{planes} planes of {h}x{w}, window {kh}x{kw}");
        let (want, want_arg) = reference_forward(x, planes, h, w, kh, kw);
        let (got, got_arg) = maxpool_forward(x, planes, h, w, kh, kw);
        assert_eq!(bits(&got), bits(&want), "values: {ctx}");
        assert_eq!(got_arg, want_arg, "argmax: {ctx}");
        let values = maxpool_forward_values(x, planes, h, w, kh, kw);
        assert_eq!(bits(&values), bits(&want), "values-only scan: {ctx}");
        let grad_out: Vec<f32> = (0..want.len()).map(|i| 0.5 + i as f32).collect();
        assert_eq!(
            bits(&maxpool_backward(&grad_out, &got_arg, x.len())),
            bits(&maxpool_backward(&grad_out, &want_arg, x.len())),
            "routed gradient: {ctx}"
        );
    }

    const WINDOWS: [(usize, usize); 5] = [(1, 2), (2, 2), (1, 3), (3, 3), (2, 3)];

    /// Post-ReLU-like data: about half exact zeros (ties inside most windows), both signs
    /// of zero, and a sprinkling of infinities and NaNs.
    fn awkward_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..40u32) {
                0..=15 => 0.0,
                16..=19 => -0.0,
                20 => f32::INFINITY,
                21 => f32::NEG_INFINITY,
                22 => f32::NAN,
                23..=25 => 1.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    #[test]
    fn select_scan_matches_the_branchy_reference_bit_for_bit() {
        let mut rng = seeded(11);
        for (kh, kw) in WINDOWS {
            // Exact multiples, odd sizes whose last rows/columns are truncated, and the
            // degenerate one-window plane.
            for (h, w) in [(kh, kw), (kh * 4, kw * 5), (kh * 3 + 1, kw * 4 + 1), (7, 9)] {
                for planes in [1, 3] {
                    let x = awkward_vec(&mut rng, planes * h * w);
                    check_parity(&x, planes, (h, w), (kh, kw));
                }
            }
        }
    }

    #[test]
    fn nan_and_degenerate_windows_keep_the_reference_rule() {
        for (kh, kw) in WINDOWS {
            let (h, w) = (kh * 2, kw * 2);
            let n = 2 * h * w;
            // Every window all-NaN, all `-inf`, all equal, and a NaN leading each window:
            // nothing beats the `-inf` seed in the first two, so they report flat index 0
            // even in the second plane.
            check_parity(&vec![f32::NAN; n], 2, (h, w), (kh, kw));
            check_parity(&vec![f32::NEG_INFINITY; n], 2, (h, w), (kh, kw));
            check_parity(&vec![3.0; n], 2, (h, w), (kh, kw));
            let mut x: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
            for oy in 0..2 * h / kh {
                for ox in 0..w / kw {
                    x[oy * kh * w + ox * kw] = f32::NAN;
                }
            }
            check_parity(&x, 2, (h, w), (kh, kw));
        }
        let (out, argmax) = maxpool_forward(&[f32::NAN; 8], 2, 2, 2, 2, 2);
        assert_eq!(out, vec![f32::NEG_INFINITY; 2]);
        assert_eq!(argmax, vec![0, 0]);
        // Signed zeros tie under `>`: the first one met wins, whatever its sign.
        let (out, argmax) = maxpool_forward(&[-0.0, 0.0, 0.0, -0.0], 1, 1, 4, 1, 2);
        assert_eq!(bits(&out), bits(&[-0.0, 0.0]));
        assert_eq!(argmax, vec![0, 2]);
    }

    #[test]
    fn plane_fan_out_matches_the_single_thread_scan() {
        let mut rng = seeded(12);
        let _serial = crate::kernels::runtime::override_lock();
        for (kh, kw) in WINDOWS {
            // Large enough for `PAR_MIN_ELEMS`, odd so the last rows/columns truncate.
            let (planes, h, w) = (9, 91, 83);
            let x = awkward_vec(&mut rng, planes * h * w);
            assert!(x.len() >= PAR_MIN_ELEMS);
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                check_parity(&x, planes, (h, w), (kh, kw));
            }
        }
        rayon::set_num_threads(0);
    }

    #[test]
    fn picks_window_maxima_and_argmax() {
        #[rustfmt::skip]
        let x = vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
        ];
        let (out, argmax) = maxpool_forward(&x, 1, 2, 4, 2, 2);
        assert_eq!(out, vec![4.0, 8.0]);
        assert_eq!(argmax, vec![5, 7]);
    }

    #[test]
    fn one_dimensional_pooling_is_height_one() {
        let x = vec![1.0, 5.0, 2.0, 3.0, 9.0, 0.0];
        let (out, argmax) = maxpool_forward(&x, 1, 1, 6, 1, 2);
        assert_eq!(out, vec![5.0, 3.0, 9.0]);
        assert_eq!(argmax, vec![1, 3, 4]);
    }

    #[test]
    fn backward_scatters_to_argmax() {
        let grad = maxpool_backward(&[10.0, 20.0], &[3, 1], 4);
        assert_eq!(grad, vec![0.0, 20.0, 0.0, 10.0]);
    }

    #[test]
    fn multiple_planes_are_independent() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0];
        let (out, argmax) = maxpool_forward(&x, 2, 2, 2, 2, 2);
        assert_eq!(out, vec![4.0, 8.0]);
        assert_eq!(argmax, vec![3, 4]);
    }
}
