//! Fig. 4: gradient-direction analysis. Starting from identical models, one iteration of
//! (a) centralized SGD on the union (IID) mini-batch, (b) SFL with feature merging and
//! (c) typical SFL with sequential per-worker updates is performed; the cosine similarity of
//! the resulting top-model updates to the centralized update quantifies what the paper's
//! PCA visualisation shows: feature merging keeps the top model on the IID trajectory.

use mergesfl::sfl::{FeatureUpload, ShardedServer};
use mergesfl_data::{synth, DatasetKind};
use mergesfl_nn::{zoo, Sequential, Sgd, SoftmaxCrossEntropy, Tensor};

fn delta(before: &[f32], after: &[f32]) -> Tensor {
    Tensor::from_vec(
        after.iter().zip(before).map(|(a, b)| a - b).collect(),
        &[before.len()],
    )
}

fn main() {
    let spec = DatasetKind::Cifar10.spec();
    let (train, _) = synth::generate_default(&spec, 7);
    let loss = SoftmaxCrossEntropy::new();

    // Three workers, each holding a single (different) class; the union is IID over 3 classes.
    let per_worker = 16usize;
    let mut worker_batches = Vec::new();
    for class in 0..3usize {
        let idx: Vec<usize> = (0..train.len())
            .filter(|&i| train.labels()[i] == class)
            .take(per_worker)
            .collect();
        worker_batches.push(train.batch(&idx));
    }

    // (a) Centralized SGD on the union batch with the full model.
    let mut central = zoo::build(spec.architecture, spec.num_classes, 99).model;
    let before = central.state();
    let union_idx: Vec<usize> = (0..train.len())
        .filter(|&i| train.labels()[i] < 3)
        .take(3 * per_worker)
        .collect();
    let (ux, uy) = train.batch(&union_idx);
    central.zero_grad();
    let logits = central.forward(&ux, true);
    let out = loss.forward(&logits, &uy);
    central.backward(&out.grad);
    Sgd::plain(0.1).step(&mut central);
    let split_at = zoo::build(spec.architecture, spec.num_classes, 99).split_index;
    let bottom_len = zoo::build(spec.architecture, spec.num_classes, 99)
        .into_split()
        .bottom
        .num_params();
    let _ = split_at;
    let central_delta = delta(&before[bottom_len..], &central.state()[bottom_len..]);

    // Helper running one SFL iteration (merged or sequential) and returning the top delta.
    let run_sfl = |merged: bool| -> Tensor {
        let split = zoo::build(spec.architecture, spec.num_classes, 99).into_split();
        let top_before = split.top.state();
        // One shard evaluates through its own replica, so no evaluation replica is needed.
        let mut server = ShardedServer::new(vec![split.top], Sequential::new(), Vec::new(), 1);
        server.set_lr(0.1);
        let mut bottoms: Vec<_> = (0..3)
            .map(|_| {
                zoo::build(spec.architecture, spec.num_classes, 99)
                    .into_split()
                    .bottom
            })
            .collect();
        let uploads: Vec<FeatureUpload> = worker_batches
            .iter()
            .enumerate()
            .map(|(w, (x, y))| FeatureUpload::new(w, bottoms[w].forward(x, true), y.clone()))
            .collect();
        let refs: Vec<&FeatureUpload> = uploads.iter().collect();
        if merged {
            server.process_merged(0, &refs);
        } else {
            server.process_sequential(0, &refs);
        }
        delta(&top_before, &server.top_state())
    };

    let fm_delta = run_sfl(true);
    let t_delta = run_sfl(false);

    println!("Fig. 4 — alignment of the top-model update with centralized SGD (cosine similarity)");
    println!(
        "  SFL-FM vs SGD: {:.4}",
        fm_delta.cosine_similarity(&central_delta)
    );
    println!(
        "  SFL-T  vs SGD: {:.4}",
        t_delta.cosine_similarity(&central_delta)
    );
    println!("\nExpected shape: SFL-FM is close to 1.0 (same direction as the IID gradient);");
    println!("SFL-T deviates because sequential non-IID updates bend the trajectory.");
}
