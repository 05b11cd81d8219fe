//! Integration tests of the split-model training substrate across crates: model-zoo
//! architectures, split consistency and SFL primitives working together.

use mergesfl::sfl::{dispatch_gradients, merge_features, FeatureUpload};
use mergesfl_data::{synth, DatasetKind};
use mergesfl_nn::zoo::{self, Architecture};
use mergesfl_nn::{Sgd, SoftmaxCrossEntropy, Tensor};

#[test]
fn split_training_step_equals_monolithic_step_for_every_architecture() {
    let loss_fn = SoftmaxCrossEntropy::new();
    for arch in Architecture::all() {
        let kind = match arch {
            Architecture::CnnH => DatasetKind::Har,
            Architecture::CnnS => DatasetKind::Speech,
            Architecture::AlexNetLite => DatasetKind::Cifar10,
            Architecture::Vgg16Lite => DatasetKind::Image100,
        };
        let spec = kind.spec();
        let (train, _) = synth::generate_default(&spec, 9);
        let (x, y) = train.batch(&(0..8).collect::<Vec<_>>());

        // Monolithic SGD step. Dropout makes AlexNet/VGG stochastic in training mode, but
        // both models are built from the same seed, so their Dropout layers draw the same
        // masks and the two steps stay comparable (an inference forward caches nothing,
        // so no backward could follow it).
        let mut full = zoo::build(arch, spec.num_classes, 31).model;
        full.zero_grad();
        let logits = full.forward(&x, true);
        let out = loss_fn.forward(&logits, &y);
        full.backward(&out.grad);
        Sgd::plain(0.05).step(&mut full);

        // Split step with the same data.
        let mut split = zoo::build(arch, spec.num_classes, 31).into_split();
        split.zero_grad();
        let feats = split.forward_bottom(&x, true);
        let logits_s = split.forward_top(&feats, true);
        let out_s = loss_fn.forward(&logits_s, &y);
        let grad_feats = split.backward_top(&out_s.grad);
        split.backward_bottom(&grad_feats);
        Sgd::plain(0.05).step(&mut split.bottom);
        Sgd::plain(0.05).step(&mut split.top);

        assert!(
            (out.loss - out_s.loss).abs() < 1e-5,
            "{arch:?}: losses diverge"
        );
        let mut split_state = split.bottom.state();
        split_state.extend(split.top.state());
        let full_state = full.state();
        let max_diff = full_state
            .iter()
            .zip(&split_state)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-5,
            "{arch:?}: split step diverged from monolithic step by {max_diff}"
        );
    }
}

#[test]
fn merged_batch_gradient_matches_large_batch_gradient() {
    // Feature merging is exact: running the top model once on the merged features produces
    // the same logits/gradients as if one worker had uploaded the whole batch.
    let spec = DatasetKind::Cifar10.spec();
    let (train, _) = synth::generate_default(&spec, 4);
    let mut split = zoo::build(spec.architecture, spec.num_classes, 17).into_split();
    let loss_fn = SoftmaxCrossEntropy::new();

    let idx: Vec<usize> = (0..12).collect();
    let (x, y) = train.batch(&idx);
    let feats = split.forward_bottom(&x, true);

    // Split the features into three fake worker uploads, merge them back, and compare.
    let parts = feats.split_batch(&[4, 4, 4]);
    let uploads: Vec<FeatureUpload> = parts
        .into_iter()
        .enumerate()
        .map(|(w, f)| FeatureUpload::new(w, f, y[w * 4..(w + 1) * 4].to_vec()))
        .collect();
    let merged = merge_features(&uploads);
    assert_eq!(merged.features.data(), feats.data());
    assert_eq!(merged.labels, y);

    let logits = split.forward_top(&merged.features, true);
    let out = loss_fn.forward(&logits, &merged.labels);
    let grad = split.backward_top(&out.grad);
    let dispatched = dispatch_gradients(&merged, &grad);
    assert_eq!(dispatched.len(), 3);
    let reassembled = Tensor::concat_batch(&dispatched.iter().map(|(_, g)| g).collect::<Vec<_>>());
    assert_eq!(reassembled.data(), grad.data());
}

#[test]
fn bottom_models_are_smaller_than_full_models_for_all_architectures() {
    for arch in Architecture::all() {
        let full_params = zoo::build(arch, 10, 1).model.num_params();
        let split = zoo::build(arch, 10, 1).into_split();
        assert!(split.bottom.num_params() < full_params, "{arch:?}");
        assert_eq!(
            split.bottom.num_params() + split.top.num_params(),
            full_params,
            "{arch:?}"
        );
    }
}
