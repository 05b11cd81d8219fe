//! Model zoo: scaled-down analogues of the paper's four architectures.
//!
//! The paper trains CNN-H (HAR), CNN-S (Google Speech), AlexNet (CIFAR-10) and VGG16
//! (IMAGE-100) on Jetson GPUs. This workspace runs on a single CPU core, so each
//! architecture is reproduced with the *same layer topology and split position* but smaller
//! spatial resolution and channel counts. Each builder returns an
//! [`ArchSpec`] describing the input shape, class count and the split-layer index that
//! corresponds to the paper's split point (3rd / 4th / 5th / 13th learnable layer).

use crate::layers::{Conv1d, Conv2d, Dropout, Flatten, Linear, MaxPool1d, MaxPool2d, Relu};
use crate::model::Sequential;
use crate::rng;
use crate::split::SplitModel;

/// Which of the paper's four models to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// CNN-H: plain CNN for Human Activity Recognition (paper: 3 conv + 2 FC, split at layer 3).
    CnnH,
    /// CNN-S: 1-D CNN for Google Speech (paper: 4 conv1d + 1 FC, split at layer 4).
    CnnS,
    /// AlexNet analogue for CIFAR-10 (paper: 5 conv + 3 FC, split at layer 5).
    AlexNetLite,
    /// VGG16 analogue for IMAGE-100 (paper: 13 conv + 3 FC, split at layer 13).
    Vgg16Lite,
}

impl Architecture {
    /// All architectures, in the order the paper presents them.
    pub fn all() -> [Architecture; 4] {
        [Self::CnnH, Self::CnnS, Self::AlexNetLite, Self::Vgg16Lite]
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::CnnH => "CNN-H",
            Self::CnnS => "CNN-S",
            Self::AlexNetLite => "AlexNet",
            Self::Vgg16Lite => "VGG16",
        }
    }
}

/// Description of a built architecture.
pub struct ArchSpec {
    /// Which architecture this is.
    pub arch: Architecture,
    /// Per-sample input shape (without the batch dimension).
    pub input_shape: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Layer index at which the model is split into bottom/top submodels.
    pub split_index: usize,
    /// The full (unsplit) model.
    pub model: Sequential,
}

impl ArchSpec {
    /// Splits the full model into a [`SplitModel`] at the recommended split layer.
    pub fn into_split(self) -> SplitModel {
        SplitModel::from_full(self.model, self.split_index)
    }
}

/// Builds an architecture with the given number of output classes and RNG seed.
pub fn build(arch: Architecture, num_classes: usize, seed: u64) -> ArchSpec {
    match arch {
        Architecture::CnnH => cnn_h(num_classes, seed),
        Architecture::CnnS => cnn_s(num_classes, seed),
        Architecture::AlexNetLite => alexnet_lite(num_classes, seed),
        Architecture::Vgg16Lite => vgg16_lite(num_classes, seed),
    }
}

/// CNN-H analogue: 3 conv layers + 2 FC layers over a `[1, 12, 12]` sensor image, matching
/// the paper's plain CNN tailored to HAR. Split after the third conv block (the bottom model
/// covers every convolutional layer, like the paper's split at the 3rd layer).
pub fn cnn_h(num_classes: usize, seed: u64) -> ArchSpec {
    let mut r = rng::seeded(seed);
    let model = Sequential::new()
        .push(Box::new(Conv2d::new(&mut r, 1, 6, 3, 1, 1))) // 0
        .push(Box::new(Relu::new())) // 1
        .push(Box::new(MaxPool2d::new(2))) // 2  -> 6 x 6 x 6
        .push(Box::new(Conv2d::new(&mut r, 6, 12, 3, 1, 1))) // 3
        .push(Box::new(Relu::new())) // 4
        .push(Box::new(MaxPool2d::new(2))) // 5  -> 12 x 3 x 3
        .push(Box::new(Conv2d::new(&mut r, 12, 12, 3, 1, 1))) // 6
        .push(Box::new(Relu::new())) // 7
        .push(Box::new(Flatten::new())) // 8  -> 108
        .push(Box::new(Linear::new(&mut r, 12 * 3 * 3, 32))) // 9
        .push(Box::new(Relu::new())) // 10
        .push(Box::new(Linear::new(&mut r, 32, num_classes))); // 11
    ArchSpec {
        arch: Architecture::CnnH,
        input_shape: vec![1, 12, 12],
        num_classes,
        split_index: 9,
        model,
    }
}

/// CNN-S analogue: 4 one-dimensional conv layers + 1 FC layer over a `[1, 64]` waveform,
/// matching the paper's speech model. Split after the fourth conv block.
pub fn cnn_s(num_classes: usize, seed: u64) -> ArchSpec {
    let mut r = rng::seeded(seed);
    let model = Sequential::new()
        .push(Box::new(Conv1d::new(&mut r, 1, 8, 5, 1, 2))) // 0
        .push(Box::new(Relu::new())) // 1
        .push(Box::new(MaxPool1d::new(2))) // 2  -> 8 x 32
        .push(Box::new(Conv1d::new(&mut r, 8, 12, 3, 1, 1))) // 3
        .push(Box::new(Relu::new())) // 4
        .push(Box::new(MaxPool1d::new(2))) // 5  -> 12 x 16
        .push(Box::new(Conv1d::new(&mut r, 12, 16, 3, 1, 1))) // 6
        .push(Box::new(Relu::new())) // 7
        .push(Box::new(MaxPool1d::new(2))) // 8  -> 16 x 8
        .push(Box::new(Conv1d::new(&mut r, 16, 16, 3, 1, 1))) // 9
        .push(Box::new(Relu::new())) // 10
        .push(Box::new(MaxPool1d::new(2))) // 11 -> 16 x 4
        .push(Box::new(Flatten::new())) // 12 -> 64
        .push(Box::new(Linear::new(&mut r, 16 * 4, num_classes))); // 13
    ArchSpec {
        arch: Architecture::CnnS,
        input_shape: vec![1, 64],
        num_classes,
        split_index: 13,
        model,
    }
}

/// AlexNet analogue: 5 conv layers + 3 FC layers over a `[3, 16, 16]` image, matching the
/// 8-layer AlexNet the paper trains on CIFAR-10. Split after the fifth conv block (the
/// paper splits AlexNet at its 5th layer, so the bottom model is the full conv stack).
pub fn alexnet_lite(num_classes: usize, seed: u64) -> ArchSpec {
    let mut r = rng::seeded(seed);
    let model = Sequential::new()
        .push(Box::new(Conv2d::new(&mut r, 3, 8, 3, 1, 1))) // 0
        .push(Box::new(Relu::new())) // 1
        .push(Box::new(MaxPool2d::new(2))) // 2  -> 8 x 8 x 8
        .push(Box::new(Conv2d::new(&mut r, 8, 16, 3, 1, 1))) // 3
        .push(Box::new(Relu::new())) // 4
        .push(Box::new(MaxPool2d::new(2))) // 5  -> 16 x 4 x 4
        .push(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1))) // 6
        .push(Box::new(Relu::new())) // 7
        .push(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1))) // 8
        .push(Box::new(Relu::new())) // 9
        .push(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1))) // 10
        .push(Box::new(Relu::new())) // 11
        .push(Box::new(MaxPool2d::new(2))) // 12 -> 16 x 2 x 2
        .push(Box::new(Flatten::new())) // 13 -> 64
        .push(Box::new(Linear::new(&mut r, 64, 48))) // 14
        .push(Box::new(Relu::new())) // 15
        .push(Box::new(Dropout::new(0.2, rng::derive_seed(seed, 99)))) // 16
        .push(Box::new(Linear::new(&mut r, 48, 32))) // 17
        .push(Box::new(Relu::new())) // 18
        .push(Box::new(Linear::new(&mut r, 32, num_classes))); // 19
    ArchSpec {
        arch: Architecture::AlexNetLite,
        input_shape: vec![3, 16, 16],
        num_classes,
        split_index: 14,
        model,
    }
}

/// VGG16 analogue: 13 conv layers (groups of 2/2/3/3/3 with pooling after the first three
/// groups) + 3 FC layers over a `[3, 8, 8]` image, matching the paper's VGG16 on IMAGE-100.
/// Split after the 13th conv (the paper splits VGG16 at its 13th layer).
pub fn vgg16_lite(num_classes: usize, seed: u64) -> ArchSpec {
    let mut r = rng::seeded(seed);
    let mut model = Sequential::new();
    // Group 1: 2 convs @ 8x8, 8 channels.
    model.add(Box::new(Conv2d::new(&mut r, 3, 8, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Conv2d::new(&mut r, 8, 8, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(MaxPool2d::new(2))); // -> 8 x 4 x 4
                                            // Group 2: 2 convs @ 4x4, 12 channels.
    model.add(Box::new(Conv2d::new(&mut r, 8, 12, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Conv2d::new(&mut r, 12, 12, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(MaxPool2d::new(2))); // -> 12 x 2 x 2
                                            // Group 3: 3 convs @ 2x2, 16 channels.
    model.add(Box::new(Conv2d::new(&mut r, 12, 16, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(MaxPool2d::new(2))); // -> 16 x 1 x 1
                                            // Group 4: 3 convs @ 1x1, 16 channels.
    for _ in 0..3 {
        model.add(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1)));
        model.add(Box::new(Relu::new()));
    }
    // Group 5: 3 convs @ 1x1, 16 channels.
    for _ in 0..3 {
        model.add(Box::new(Conv2d::new(&mut r, 16, 16, 3, 1, 1)));
        model.add(Box::new(Relu::new()));
    }
    let split_index = model.num_layers() + 1; // after Flatten, so the bottom is the full conv stack
    model.add(Box::new(Flatten::new())); // -> 16
    model.add(Box::new(Linear::new(&mut r, 16, 64)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Dropout::new(0.2, rng::derive_seed(seed, 98))));
    model.add(Box::new(Linear::new(&mut r, 64, 48)));
    model.add(Box::new(Relu::new()));
    model.add(Box::new(Linear::new(&mut r, 48, num_classes)));
    ArchSpec {
        arch: Architecture::Vgg16Lite,
        input_shape: vec![3, 8, 8],
        num_classes,
        split_index,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn batch_input(spec: &ArchSpec, batch: usize) -> Tensor {
        let mut shape = vec![batch];
        shape.extend_from_slice(&spec.input_shape);
        Tensor::full(&shape, 0.1)
    }

    #[test]
    fn all_architectures_forward_to_class_logits() {
        for arch in Architecture::all() {
            let classes = match arch {
                Architecture::CnnH => 6,
                Architecture::CnnS => 35,
                Architecture::AlexNetLite => 10,
                Architecture::Vgg16Lite => 100,
            };
            let mut spec = build(arch, classes, 42);
            let x = batch_input(&spec, 2);
            let y = spec.model.forward(&x, false);
            assert_eq!(
                y.shape(),
                &[2, classes],
                "logits shape wrong for {:?}",
                arch
            );
            assert!(!y.has_non_finite(), "non-finite logits for {:?}", arch);
        }
    }

    #[test]
    fn split_points_produce_nonempty_submodels() {
        for arch in Architecture::all() {
            let spec = build(arch, 10, 7);
            let total = spec.model.num_layers();
            assert!(
                spec.split_index > 0 && spec.split_index < total,
                "bad split for {:?}",
                arch
            );
            let split = build(arch, 10, 7).into_split();
            assert!(
                split.bottom.num_params() > 0,
                "bottom of {:?} has no params",
                arch
            );
            assert!(
                split.top.num_params() > 0,
                "top of {:?} has no params",
                arch
            );
        }
    }

    #[test]
    fn split_forward_matches_full_forward() {
        for arch in Architecture::all() {
            let mut full = build(arch, 10, 11);
            let x = batch_input(&full, 2);
            let y_full = full.model.forward(&x, false);
            let mut split = build(arch, 10, 11).into_split();
            let y_split = split.forward_full(&x, false);
            for (a, b) in y_full.data().iter().zip(y_split.data()) {
                assert!((a - b).abs() < 1e-6, "split mismatch for {:?}", arch);
            }
        }
    }

    #[test]
    fn bottom_model_is_much_smaller_than_full_model_for_fc_heavy_models() {
        // The paper's key communication argument: the bottom model (conv stack) is far
        // smaller than the full model when the classifier head is parameter-heavy.
        let spec = build(Architecture::AlexNetLite, 10, 3);
        let full_params = spec.model.num_params();
        let split = spec.into_split();
        assert!(split.bottom.num_params() < full_params);
        assert_eq!(
            split.bottom.num_params() + split.top.num_params(),
            full_params
        );
    }

    #[test]
    fn vgg16_lite_has_13_convolutions() {
        let spec = build(Architecture::Vgg16Lite, 100, 1);
        let convs = spec
            .model
            .layer_names()
            .iter()
            .filter(|n| **n == "Conv2d")
            .count();
        assert_eq!(convs, 13);
    }

    #[test]
    fn architecture_names() {
        assert_eq!(Architecture::CnnH.name(), "CNN-H");
        assert_eq!(Architecture::Vgg16Lite.name(), "VGG16");
        assert_eq!(Architecture::all().len(), 4);
    }
}
