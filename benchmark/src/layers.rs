//! The layer profile: the zoo model taken apart into one-layer `Sequential`s, each timed
//! forward and backward on its own at the batch sizes the workload really runs.

use crate::stats::median;
use mergesfl_data::Dataset;
use mergesfl_nn::zoo::{self, Architecture};
use mergesfl_nn::{Sequential, Sgd, SoftmaxCrossEntropy, Tensor};
use std::time::Instant;

/// Repetitions of the whole profile; every reported value is the median over them.
const REPS: usize = 15;

/// Kernel families the per-layer times are summed into.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Conv,
    Linear,
    Pool,
    Other,
}

fn family(layer_name: &str) -> Family {
    if layer_name.starts_with("Conv") {
        Family::Conv
    } else if layer_name == "Linear" {
        Family::Linear
    } else if layer_name.starts_with("MaxPool") {
        Family::Pool
    } else {
        Family::Other
    }
}

/// Milliseconds of one pass over every layer of a family, forward and backward, plus one
/// loss evaluation and one optimizer step over all parameters, in microseconds.
#[derive(Clone, Copy, Default)]
pub struct LayerProfile {
    pub conv_fwd_ms: f64,
    pub conv_bwd_ms: f64,
    pub linear_fwd_ms: f64,
    pub linear_bwd_ms: f64,
    pub pool_fwd_ms: f64,
    pub pool_bwd_ms: f64,
    pub other_fwd_ms: f64,
    pub other_bwd_ms: f64,
    pub optim_step_us: f64,
    pub loss_us: f64,
}

/// Splits a model into one `Sequential` per layer, in order.
fn single_layers(mut model: Sequential) -> Vec<Sequential> {
    let mut layers = Vec::with_capacity(model.num_layers());
    while !model.is_empty() {
        let (first, rest) = model.split_at(1);
        layers.push(first);
        model = rest;
    }
    layers
}

/// One timed pass: `[family][direction]` milliseconds, loss and optimizer microseconds.
struct Pass {
    ms: [[f64; 2]; 4],
    loss_us: f64,
    optim_us: f64,
}

/// Layers before `split` run at `bottom_batch` (a worker's mini-batch), the rest at
/// `top_batch` (the merged batch). The inputs of the top layers are produced by an
/// untimed forward of the bottom layers at `top_batch`.
fn pass(
    arch: Architecture,
    num_classes: usize,
    seed: u64,
    train: &Dataset,
    split: usize,
    bottom_batch: usize,
    top_batch: usize,
) -> Pass {
    let mut layers = single_layers(zoo::build(arch, num_classes, seed).model);
    let names: Vec<&'static str> = layers.iter().map(|l| l.layer_names()[0]).collect();
    let mut ms = [[0.0f64; 2]; 4];
    let mut timed = |fam: Family, dir: usize, f: &mut dyn FnMut() -> Tensor| {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        ms[fam as usize][dir] += start.elapsed().as_secs_f64() * 1e3;
        out
    };

    let indices = |n: usize| (0..n).map(|i| i % train.len()).collect::<Vec<usize>>();
    let (bottom_in, _) = train.batch(&indices(bottom_batch));
    let (top_in, labels) = train.batch(&indices(top_batch));

    // Bottom layers at the worker batch, forward then backward.
    let mut acts = vec![bottom_in];
    for (layer, name) in layers[..split].iter_mut().zip(&names) {
        let input = acts.last().expect("the input is an activation");
        let out = timed(family(name), 0, &mut || layer.forward(input, true));
        acts.push(out);
    }
    let mut grad = Tensor::ones(acts.last().expect("the input is an activation").shape());
    for (layer, name) in layers[..split].iter_mut().zip(&names).rev() {
        grad = timed(family(name), 1, &mut || layer.backward(&grad));
    }

    // Top layers at the merged batch; their input comes through the bottom untimed.
    let mut x = top_in;
    for layer in layers[..split].iter_mut() {
        x = layer.forward(&x, true);
    }
    for (layer, name) in layers[split..].iter_mut().zip(&names[split..]) {
        x = timed(family(name), 0, &mut || layer.forward(&x, true));
    }
    let loss = SoftmaxCrossEntropy::new();
    let start = Instant::now();
    let out = std::hint::black_box(loss.forward(&x, &labels));
    let loss_us = start.elapsed().as_secs_f64() * 1e6;
    let mut grad = out.grad;
    for (layer, name) in layers[split..].iter_mut().zip(&names[split..]).rev() {
        grad = timed(family(name), 1, &mut || layer.backward(&grad));
    }

    // One optimizer step over every parameter, on gradients a real pass produced.
    let mut full = zoo::build(arch, num_classes, seed).model;
    let (inputs, labels) = train.batch(&indices(bottom_batch));
    let logits = full.forward(&inputs, true);
    full.backward(&loss.forward(&logits, &labels).grad);
    let mut sgd =
        Sgd::new(0.05, 0.0, 0.0).with_max_grad_norm(mergesfl::sfl::server::GRAD_CLIP_NORM);
    let start = Instant::now();
    sgd.step(&mut full);
    let optim_us = start.elapsed().as_secs_f64() * 1e6;

    Pass {
        ms,
        loss_us,
        optim_us,
    }
}

/// Profiles the architecture's layers; medians over [`REPS`] passes.
pub fn profile(
    arch: Architecture,
    num_classes: usize,
    seed: u64,
    train: &Dataset,
    split: usize,
    bottom_batch: usize,
    top_batch: usize,
) -> LayerProfile {
    let passes: Vec<Pass> = (0..REPS)
        .map(|_| {
            pass(
                arch,
                num_classes,
                seed,
                train,
                split,
                bottom_batch.max(1),
                top_batch.max(1),
            )
        })
        .collect();
    let med = |fam: Family, dir: usize| {
        median(
            &passes
                .iter()
                .map(|p| p.ms[fam as usize][dir])
                .collect::<Vec<_>>(),
        )
    };
    LayerProfile {
        conv_fwd_ms: med(Family::Conv, 0),
        conv_bwd_ms: med(Family::Conv, 1),
        linear_fwd_ms: med(Family::Linear, 0),
        linear_bwd_ms: med(Family::Linear, 1),
        pool_fwd_ms: med(Family::Pool, 0),
        pool_bwd_ms: med(Family::Pool, 1),
        other_fwd_ms: med(Family::Other, 0),
        other_bwd_ms: med(Family::Other, 1),
        optim_step_us: median(&passes.iter().map(|p| p.optim_us).collect::<Vec<_>>()),
        loss_us: median(&passes.iter().map(|p| p.loss_us).collect::<Vec<_>>()),
    }
}
