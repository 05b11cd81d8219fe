//! Parameter-server side of split federated learning, sharded across PS instances.
//!
//! The top model lives on one or more parameter-server shards. A `TopShard` is one
//! top-model replica: per iteration it runs the forward/backward pass over a merged
//! feature sequence and produces the split-layer gradients that are dispatched back.
//!
//! [`ShardedServer`] is the subsystem the engine drives: it routes per-shard work to the
//! shard instances — either one *merged* feature sequence per iteration (MergeSFL) or the
//! features of each routed worker separately (typical SFL) — periodically synchronises the
//! replicas (averaging weighted by the samples each shard processed since the last sync),
//! owns the global bottom model that is aggregated from the workers at the end of a round
//! (paper Eq. 17 / Eq. 4), and evaluates the combined global model. With one shard it is
//! exactly the paper's single-server loop: work is routed to the only replica and
//! synchronisation is a no-op, so trajectories are bit-identical to the pre-sharding
//! engine. The output-partitioned topology is a timing and traffic model over that same
//! single top model: it records how many instances share the step, and the engine charges
//! the `1/S` server step and the activation exchange; the arithmetic is one `TopShard`.

use crate::sfl::merge::{dispatch_gradients, merge_feature_refs, FeatureUpload, MergedBatch};
use mergesfl_nn::model::weighted_average_states;
use mergesfl_nn::{Sequential, Sgd, SoftmaxCrossEntropy, Tensor};
use rayon::channel::VersionedSlot;

/// Gradient-clipping norm used by both sides of split training (and the FL baselines).
/// Large enough to be inactive in steady state; small enough that a single bad merged
/// batch cannot blow a model up in round 0.
pub const GRAD_CLIP_NORM: f32 = 5.0;

/// Outcome of one top-model update.
#[derive(Clone, Debug)]
pub struct TopStep {
    /// Mean training loss of the processed features.
    pub loss: f32,
    /// Training accuracy of the processed features.
    pub accuracy: f32,
    /// Split-layer gradients per worker, in upload order.
    pub gradients: Vec<(usize, Tensor)>,
}

/// A full top-model replica on one PS instance.
pub(crate) struct TopShard {
    top: Sequential,
    optimizer: Sgd,
    loss: SoftmaxCrossEntropy,
}

impl TopShard {
    /// Creates a shard from a top-model replica.
    pub fn new(top: Sequential) -> Self {
        assert!(!top.is_empty(), "TopShard: top model must have layers");
        // Clipping bounds the occasional merged-batch gradient spike in the first rounds,
        // which would otherwise saturate the top model before training gets going.
        let optimizer = Sgd::new(0.05, 0.0, 0.0).with_max_grad_norm(GRAD_CLIP_NORM);
        Self {
            top,
            optimizer,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Sets the learning rate used for this shard's top-model updates.
    pub fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_lr(lr);
    }

    /// The gradient-dispatch-critical part of one top-model update: merged-batch forward,
    /// loss, backward, and split-layer gradient dispatching. The returned gradients can
    /// be shipped to the routed workers immediately; the pipelined engine overlaps the
    /// remaining [`TopShard::finish_step`] with the workers' bottom-backward and next
    /// forward.
    pub fn begin_step(&mut self, merged: &MergedBatch) -> TopStep {
        self.top.zero_grad();
        let logits = self.top.forward(&merged.features, true);
        let out = self.loss.forward(&logits, &merged.labels);
        let grad_features = self.top.backward(&out.grad);
        let gradients = dispatch_gradients(merged, &grad_features);
        TopStep {
            loss: out.loss,
            accuracy: out.accuracy,
            gradients,
        }
    }

    /// The overlappable tail of one top-model update: the optimizer step on the gradients
    /// accumulated by [`TopShard::begin_step`]. Must be called exactly once per
    /// `begin_step` before the next iteration's features are processed.
    pub fn finish_step(&mut self) {
        self.optimizer.step(&mut self.top);
        self.top.zero_grad();
    }

    /// Serialises this shard's top-model parameters.
    pub fn state(&self) -> Vec<f32> {
        self.top.state()
    }

    /// Loads top-model parameters (the cross-shard sync writes the averaged state back).
    pub fn load_state(&mut self, state: &[f32]) {
        self.top.load_state(state);
    }

    /// Inference-mode forward pass through this shard's top model (evaluation only —
    /// no gradients are accumulated). A single-shard server evaluates through its one
    /// replica directly instead of copying state into the evaluation replica.
    pub fn eval_forward(&mut self, features: &Tensor) -> Tensor {
        self.top.forward(features, false)
    }
}

/// How the top model is laid out across the parameter-server shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardTopology {
    /// Every shard holds a full top-model replica trained on its routed uploads; replicas
    /// are averaged at the periodic cross-shard sync.
    #[default]
    Replicated,
    /// The modelled deployment splits the top model's output dimension across the
    /// instances (capped at the class count): one route group sees the full cohort's
    /// merged batch, each instance is charged `1/S` of the server step plus a
    /// per-iteration activation exchange, and the exchange bytes are metered as server
    /// traffic. A column split computes the same numbers as the whole model, so the
    /// step itself runs as one ordinary top model — the trajectory equals the single
    /// server's, with no replica averaging and no sync staleness.
    OutputPartitioned,
}

impl ShardTopology {
    /// Short name used in run records and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Replicated => "replicated",
            Self::OutputPartitioned => "partitioned",
        }
    }

    /// Parses a topology name (`replicated`, `partitioned`, `output-partitioned`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_lowercase().as_str() {
            "replicated" => Some(Self::Replicated),
            "partitioned" | "output-partitioned" | "output_partitioned" => {
                Some(Self::OutputPartitioned)
            }
            _ => None,
        }
    }
}

/// The sharded parameter-server subsystem: the shard instances, the cross-shard sync
/// policy, the global bottom model and the evaluation replica of the top model.
pub struct ShardedServer {
    shards: Vec<TopShard>,
    topology: ShardTopology,
    /// Parameter-server instances the topology spreads the top model across. Replicated:
    /// one replica per routed group (`shards.len()`). Output-partitioned: the modelled
    /// instance count sharing the one route group's step (`shards.len() == 1`).
    instances: usize,
    sync_every: usize,
    /// Samples each shard processed since the last cross-shard sync (the sync weights).
    samples_since_sync: Vec<f64>,
    /// Bounded-staleness window `k`: each route group's gradients may be computed on
    /// top-model state up to `k` optimizer steps older than the state the update is
    /// applied to. 0 (the default) is the synchronous loop — no snapshots are taken and
    /// the step arithmetic is untouched.
    staleness: usize,
    /// Per-route-group ring of the `k` most recent pre-step parameter states. The oldest
    /// retained version is what `begin_step` computes gradients on; the worst-case
    /// deterministic schedule keeps the lag saturated at the ring length so the bound is
    /// actually exercised (a lighter backlog would make the convergence harness vacuous
    /// on this hardware profile, where the worker stage dominates the server stage).
    version_rings: Vec<VersionedSlot<Vec<f32>>>,
    /// Per-route-group snapshot of the *current* (pre-step) state, taken at `begin_step`
    /// and published to the ring at `finish_step`.
    pending_version: Vec<Option<Vec<f32>>>,
    /// Histogram of observed version lags (index = lag in optimizer steps, length
    /// `staleness + 1`); empty when `staleness == 0`. Drained per round by the engine.
    lag_counts: Vec<usize>,
    global_bottom: Vec<f32>,
    eval_top: Sequential,
    eval_loss: SoftmaxCrossEntropy,
}

impl ShardedServer {
    /// Creates the sharded server from identically initialised top-model replicas (one
    /// per shard), an evaluation replica of the same architecture, the initial global
    /// bottom-model state and the cross-shard sync period in rounds.
    pub fn new(
        tops: Vec<Sequential>,
        eval_top: Sequential,
        global_bottom: Vec<f32>,
        sync_every: usize,
    ) -> Self {
        assert!(!tops.is_empty(), "ShardedServer: need at least one shard");
        assert!(
            sync_every >= 1,
            "ShardedServer: sync_every must be positive"
        );
        let shards: Vec<TopShard> = tops.into_iter().map(TopShard::new).collect();
        let samples_since_sync = vec![0.0; shards.len()];
        let instances = shards.len();
        let pending_version = (0..shards.len()).map(|_| None).collect();
        Self {
            shards,
            topology: ShardTopology::Replicated,
            instances,
            sync_every,
            samples_since_sync,
            staleness: 0,
            version_rings: Vec::new(),
            pending_version,
            lag_counts: Vec::new(),
            global_bottom,
            eval_top,
            eval_loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Creates an output-partitioned sharded server: one top model whose output
    /// dimension the modelled deployment splits across `num_shards` parameter-server
    /// instances (capped at the class count — an instance cannot own less than one
    /// output column). The instances form a single route group that sees the full
    /// cohort's merged batch, so there is no replica state to synchronise and
    /// `sync_every` does not apply; the step runs on the one top model.
    pub fn partitioned(
        top: Sequential,
        eval_top: Sequential,
        global_bottom: Vec<f32>,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "ShardedServer: need at least one shard");
        assert!(
            top.layer_names().last() == Some(&"Linear"),
            "ShardedServer::partitioned: top model must end in a Linear classifier"
        );
        // The classifier's bias is the last parameter: one entry per class.
        let classes = top.params().last().map_or(1, |bias| bias.value.shape()[0]);
        let mut server = Self::new(vec![top], eval_top, global_bottom, 1);
        server.topology = ShardTopology::OutputPartitioned;
        server.instances = num_shards.min(classes);
        server
    }

    /// Number of parameter-server instances the top model is spread across.
    pub fn num_shards(&self) -> usize {
        self.instances
    }

    /// Number of independently routed server groups: one per replica under the
    /// replicated topology; exactly one under output partitioning, where every instance
    /// participates in every routed batch.
    pub fn num_route_groups(&self) -> usize {
        self.shards.len()
    }

    /// The shard layout in use.
    pub fn topology(&self) -> ShardTopology {
        self.topology
    }

    /// Cross-shard synchronisation period in rounds.
    pub fn sync_every(&self) -> usize {
        self.sync_every
    }

    /// Sets the learning rate used for top-model updates this round, on every shard.
    pub fn set_lr(&mut self, lr: f32) {
        for shard in &mut self.shards {
            shard.set_lr(lr);
        }
    }

    /// The current global bottom-model state broadcast to selected workers each round.
    pub fn global_bottom(&self) -> &[f32] {
        &self.global_bottom
    }

    /// Sets the bounded-staleness window `k` for every route group, (re)creating the
    /// per-group version rings. With `k = 0` no snapshots are taken and every step is
    /// the synchronous arithmetic, bit for bit.
    pub fn set_staleness(&mut self, staleness: usize) {
        self.staleness = staleness;
        self.version_rings = if staleness > 0 {
            (0..self.shards.len())
                .map(|_| VersionedSlot::new(staleness))
                .collect()
        } else {
            Vec::new()
        };
        self.pending_version = (0..self.shards.len()).map(|_| None).collect();
        self.lag_counts = if staleness > 0 {
            vec![0; staleness + 1]
        } else {
            Vec::new()
        };
    }

    /// The bounded-staleness window in optimizer steps (0 = synchronous).
    pub fn staleness(&self) -> usize {
        self.staleness
    }

    /// Drains the version-lag histogram accumulated since the last call (index = lag in
    /// optimizer steps, length `staleness + 1`; empty when `staleness == 0`).
    pub fn take_lag_counts(&mut self) -> Vec<usize> {
        if self.staleness == 0 {
            return Vec::new();
        }
        std::mem::replace(&mut self.lag_counts, vec![0; self.staleness + 1])
    }

    /// Routes one merged batch to a shard's dispatch-critical step (tracks the shard's
    /// processed samples for the sync weights). Under a positive staleness window the
    /// gradients are computed on the oldest state the group's version ring retains (the
    /// worst case the bound admits), then the *current* parameters are restored so the
    /// matching [`ShardedServer::finish_step`] applies those stale gradients to them.
    /// The restore only touches parameter values — the gradient buffers accumulated by
    /// the step survive untouched for the optimizer tail.
    pub fn begin_step(&mut self, shard: usize, merged: &MergedBatch) -> TopStep {
        self.samples_since_sync[shard] += merged.total() as f64;
        if self.staleness == 0 {
            return self.shards[shard].begin_step(merged);
        }
        let lag = self.version_rings[shard].lag();
        debug_assert!(
            lag <= self.staleness,
            "version lag {lag} exceeds the staleness bound {}",
            self.staleness
        );
        self.lag_counts[lag] += 1;
        let current = self.shards[shard].state();
        // Copy the stale snapshot through the pool instead of cloning: the ring keeps
        // its page, the working copy returns to the pool right after the restore.
        let stale = self.version_rings[shard].oldest().map(|(_, state)| {
            let mut copy = mergesfl_nn::pool::take_uninit::<f32>(state.len());
            copy.copy_from_slice(state);
            copy
        });
        let step = match stale {
            Some(state) => {
                self.shards[shard].load_state(&state);
                let step = self.shards[shard].begin_step(merged);
                self.shards[shard].load_state(&current);
                mergesfl_nn::pool::recycle(state);
                step
            }
            None => self.shards[shard].begin_step(merged),
        };
        debug_assert!(
            self.pending_version[shard].is_none(),
            "begin_step called twice without finish_step"
        );
        self.pending_version[shard] = Some(current);
        step
    }

    /// Routes the overlappable optimizer tail to a shard. Under a positive staleness
    /// window this publishes the pre-step state to the group's version ring, advancing
    /// the version the next steps may lag behind.
    pub fn finish_step(&mut self, shard: usize) {
        self.shards[shard].finish_step();
        if self.staleness > 0 {
            let pre_step = self.pending_version[shard]
                .take()
                .expect("finish_step without a matching begin_step");
            let (_, evicted) = self.version_rings[shard].publish_evicting(pre_step);
            if let Some(state) = evicted {
                mergesfl_nn::pool::recycle(state);
            }
        }
    }

    /// Routes one iteration's uploads to a shard **with feature merging**: one
    /// forward/backward pass over the mixed feature sequence, then gradient dispatching.
    pub fn process_merged(&mut self, shard: usize, uploads: &[&FeatureUpload]) -> TopStep {
        let merged = merge_feature_refs(uploads);
        let step = self.begin_step(shard, &merged);
        self.finish_step(shard);
        step
    }

    /// Routes one iteration's uploads to a shard **without feature merging** (typical
    /// SFL): the shard's top model is updated once per routed worker, in sequence, each
    /// update using only that worker's features. Under a positive staleness window each
    /// per-worker update is its own version, mirroring the merged path's step granularity.
    pub fn process_sequential(&mut self, shard: usize, uploads: &[&FeatureUpload]) -> TopStep {
        assert!(!uploads.is_empty(), "process_sequential: no uploads");
        let mut gradients = Vec::with_capacity(uploads.len());
        let mut loss_sum = 0.0f32;
        let mut acc_sum = 0.0f32;
        let mut samples = 0usize;
        for upload in uploads {
            let single = merge_feature_refs(std::slice::from_ref(upload));
            let step = self.begin_step(shard, &single);
            self.finish_step(shard);
            loss_sum += step.loss * upload.batch_size() as f32;
            acc_sum += step.accuracy * upload.batch_size() as f32;
            samples += upload.batch_size();
            gradients.extend(step.gradients);
        }
        TopStep {
            loss: loss_sum / samples as f32,
            accuracy: acc_sum / samples as f32,
            gradients,
        }
    }

    /// The cross-shard average of the shard top-model states, weighted by the samples
    /// each shard processed since the last sync (uniform right after a sync). With one
    /// shard this is that shard's state, bit for bit.
    pub fn averaged_top_state(&self) -> Vec<f32> {
        if self.shards.len() == 1 {
            return self.shards[0].state();
        }
        let states: Vec<Vec<f32>> = self.shards.iter().map(|s| s.state()).collect();
        let total: f64 = self.samples_since_sync.iter().sum();
        let weights: Vec<f32> = if total > 0.0 {
            self.samples_since_sync.iter().map(|&w| w as f32).collect()
        } else {
            vec![1.0; states.len()]
        };
        let averaged = weighted_average_states(&states, &weights);
        for state in states {
            mergesfl_nn::pool::recycle(state);
        }
        averaged
    }

    /// Performs one cross-shard synchronisation now: averages the replicas (weighted by
    /// samples processed since the last sync) and writes the result back to every shard.
    /// A single shard only resets its sample counter.
    pub fn sync_now(&mut self) {
        if self.shards.len() > 1 {
            let averaged = self.averaged_top_state();
            for shard in &mut self.shards {
                shard.load_state(&averaged);
            }
            mergesfl_nn::pool::recycle(averaged);
        }
        for w in &mut self.samples_since_sync {
            *w = 0.0;
        }
        // Averaging invalidates the retained versions: they no longer describe any live
        // parameter vector, so the staleness window restarts from the synced state. The
        // snapshots drain back to the pool rather than being freed.
        for ring in &mut self.version_rings {
            for (_, state) in ring.drain() {
                mergesfl_nn::pool::recycle(state);
            }
        }
    }

    /// Round-boundary hook: synchronises the shards when round `round` (0-based) ends a
    /// `sync_every`-period. Returns whether a sync ran.
    pub fn end_round(&mut self, round: usize) -> bool {
        let due = self.shards.len() > 1 && (round + 1).is_multiple_of(self.sync_every);
        if due {
            self.sync_now();
        }
        due
    }

    /// Aggregates bottom models pushed by the selected workers, weighting each by its
    /// batch size (paper Eq. 17). Passing equal weights reproduces plain FedAvg
    /// aggregation. The bottom plane is not sharded: one aggregate serves every shard.
    pub fn aggregate_bottoms(&mut self, states: &[Vec<f32>], weights: &[f32]) {
        let aggregated = weighted_average_states(states, weights);
        assert_eq!(
            aggregated.len(),
            self.global_bottom.len(),
            "aggregate_bottoms: bottom model size changed"
        );
        let old = std::mem::replace(&mut self.global_bottom, aggregated);
        mergesfl_nn::pool::recycle(old);
    }

    /// Loads the current global bottom-model state into an evaluation replica. Chunked
    /// evaluation loops call this once, then [`ShardedServer::evaluate_preloaded`] per
    /// chunk, instead of re-copying the full state for every chunk.
    pub fn load_global_bottom(&self, bottom_replica: &mut Sequential) {
        bottom_replica.load_state(&self.global_bottom);
    }

    /// Loads the evaluation replica of the top model with the current cross-shard
    /// average. Call once before a chunked evaluation loop; between syncs this is what
    /// "the global top model" means under the replicated topology. A single shard needs
    /// no replica — evaluation forwards through it directly, with zero state copies.
    pub fn prepare_eval(&mut self) {
        if self.shards.len() == 1 {
            return;
        }
        let state = self.averaged_top_state();
        self.eval_top.load_state(&state);
        mergesfl_nn::pool::recycle(state);
    }

    /// Evaluates the combined global model (aggregated bottom + cross-shard averaged
    /// top) on a dataset slice, returning `(loss, accuracy)`. The bottom replica passed
    /// in is loaded with the global state before evaluation.
    pub fn evaluate(
        &mut self,
        bottom_replica: &mut Sequential,
        inputs: &Tensor,
        labels: &[usize],
    ) -> (f32, f32) {
        self.load_global_bottom(bottom_replica);
        self.prepare_eval();
        self.evaluate_preloaded(bottom_replica, inputs, labels)
    }

    /// Evaluates on replicas already loaded via [`ShardedServer::load_global_bottom`] and
    /// [`ShardedServer::prepare_eval`].
    pub fn evaluate_preloaded(
        &mut self,
        bottom_replica: &mut Sequential,
        inputs: &Tensor,
        labels: &[usize],
    ) -> (f32, f32) {
        let features = bottom_replica.forward(inputs, false);
        let logits = if self.shards.len() == 1 {
            // The one replica IS the global top model: no averaged-state copy needed.
            self.shards[0].eval_forward(&features)
        } else {
            self.eval_top.forward(&features, false)
        };
        let out = self.eval_loss.forward(&logits, labels);
        (out.loss, out.accuracy)
    }

    /// Serialises one shard's top-model parameters (tests and diagnostics).
    pub fn shard_state(&self, shard: usize) -> Vec<f32> {
        self.shards[shard].state()
    }

    /// Serialises shard 0's top model (kept as the historical accessor name).
    pub fn top_state(&self) -> Vec<f32> {
        self.shards[0].state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_nn::layers::{Linear, Relu};
    use mergesfl_nn::rng::seeded;

    fn toy_top() -> Sequential {
        let mut rng = seeded(1);
        Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 8, 16)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new(&mut rng, 16, 4)))
    }

    fn sharded(shards: usize, sync_every: usize) -> ShardedServer {
        let tops = (0..shards).map(|_| toy_top()).collect();
        ShardedServer::new(tops, toy_top(), vec![0.0; 10], sync_every)
    }

    fn upload(worker: usize, batch: usize, class: usize) -> FeatureUpload {
        let features = Tensor::full(&[batch, 8], 0.3 + class as f32 * 0.2);
        FeatureUpload::new(worker, features, vec![class; batch])
    }

    fn refs(uploads: &[FeatureUpload]) -> Vec<&FeatureUpload> {
        uploads.iter().collect()
    }

    #[test]
    fn merged_processing_returns_gradients_for_every_worker() {
        let mut server = sharded(1, 1);
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1), upload(2, 2, 3)];
        let step = server.process_merged(0, &refs(&uploads));
        assert_eq!(step.gradients.len(), 3);
        assert_eq!(step.gradients[0].0, 0);
        assert_eq!(step.gradients[0].1.batch(), 3);
        assert_eq!(step.gradients[1].1.batch(), 5);
        assert!(step.loss > 0.0);
    }

    #[test]
    fn merged_processing_updates_top_model_once() {
        let mut server = sharded(1, 1);
        let before = server.top_state();
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let _ = server.process_merged(0, &refs(&uploads));
        assert_ne!(before, server.top_state());
    }

    #[test]
    fn sequential_processing_matches_upload_order_and_sizes() {
        let mut server = sharded(1, 1);
        let uploads = vec![upload(5, 2, 0), upload(9, 6, 1)];
        let step = server.process_sequential(0, &refs(&uploads));
        assert_eq!(step.gradients.len(), 2);
        assert_eq!(step.gradients[0].0, 5);
        assert_eq!(step.gradients[0].1.batch(), 2);
        assert_eq!(step.gradients[1].0, 9);
        assert_eq!(step.gradients[1].1.batch(), 6);
    }

    #[test]
    fn merged_and_sequential_updates_differ_under_non_iid_uploads() {
        // Same initial top model, same uploads (each worker single-class): merging updates
        // the top model on the mixed batch, sequential updating takes two skewed steps. The
        // resulting top models must differ — this is the effect the paper's Fig. 4 shows.
        let uploads = vec![upload(0, 6, 0), upload(1, 6, 1)];
        let mut merged_server = sharded(1, 1);
        let mut seq_server = sharded(1, 1);
        let _ = merged_server.process_merged(0, &refs(&uploads));
        let _ = seq_server.process_sequential(0, &refs(&uploads));
        assert_ne!(merged_server.top_state(), seq_server.top_state());
    }

    #[test]
    fn first_stale_step_is_the_synchronous_step_bit_for_bit() {
        // With an empty ring (no prior finish_step) there is no older version to read:
        // the first step under any window must be the k = 0 arithmetic exactly.
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let mut sync = sharded(1, 1);
        let mut stale = sharded(1, 1);
        stale.set_staleness(3);
        let a = sync.process_merged(0, &refs(&uploads));
        let b = stale.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(sync.top_state(), stale.top_state());
        assert_eq!(stale.take_lag_counts(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn stale_gradients_come_from_the_oldest_retained_version() {
        // Two steps at k = 1: step B's dispatched gradients must be computed on the
        // pre-step-A parameters (the ring's oldest version), not on the current ones —
        // while the update itself still applies to the current parameters.
        let batch_a = [upload(0, 4, 0)];
        let batch_b = [upload(0, 4, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(1);
        let v0 = server.top_state();
        let _ = server.process_merged(0, &refs(&batch_a));
        let v1 = server.top_state();
        let step_b = server.process_merged(0, &refs(&batch_b));

        let mut at_v0 = TopShard::new(toy_top());
        at_v0.load_state(&v0);
        let expected = at_v0.begin_step(&merge_feature_refs(&refs(&batch_b)));
        assert_eq!(step_b.loss, expected.loss);
        assert_eq!(step_b.gradients[0].1.data(), expected.gradients[0].1.data());
        let mut at_v1 = TopShard::new(toy_top());
        at_v1.load_state(&v1);
        let current = at_v1.begin_step(&merge_feature_refs(&refs(&batch_b)));
        assert_ne!(step_b.gradients[0].1.data(), current.gradients[0].1.data());

        // The update applied those stale gradients to v1, not to v0: the resulting state
        // differs from both a fully synchronous run and a run stuck at v0.
        at_v1.finish_step();
        assert_ne!(server.top_state(), at_v1.state());
        assert_ne!(server.top_state(), v1);
        assert_eq!(server.take_lag_counts(), vec![1, 1]);
    }

    #[test]
    fn lag_histogram_saturates_at_the_staleness_bound() {
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(2);
        for _ in 0..5 {
            let _ = server.process_merged(0, &refs(&uploads));
        }
        // Lags observed: 0 (empty ring), 1, then saturated at the bound.
        assert_eq!(server.take_lag_counts(), vec![1, 1, 3]);
        // Draining resets the histogram.
        assert_eq!(server.take_lag_counts(), vec![0, 0, 0]);
        assert_eq!(server.staleness(), 2);
    }

    #[test]
    fn cross_shard_sync_clears_the_version_rings() {
        let a = [upload(0, 6, 0)];
        let b = [upload(1, 6, 1)];
        let mut server = sharded(2, 1);
        server.set_staleness(2);
        for _ in 0..3 {
            let _ = server.process_merged(0, &refs(&a));
            let _ = server.process_merged(1, &refs(&b));
        }
        let _ = server.take_lag_counts();
        // The sync averages the replicas: every retained version is invalidated, so the
        // next step on each shard starts from an empty ring at lag 0.
        server.sync_now();
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        assert_eq!(server.take_lag_counts(), vec![2, 0, 0]);
    }

    #[test]
    fn stale_sequential_processing_versions_every_per_worker_update() {
        // Without merging each routed worker's update is its own version: two uploads
        // advance the ring twice, and the second sub-step already lags the first.
        let uploads = vec![upload(5, 2, 0), upload(9, 6, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(2);
        let step = server.process_sequential(0, &refs(&uploads));
        assert_eq!(step.gradients.len(), 2);
        assert_eq!(step.gradients[0].0, 5);
        assert_eq!(step.gradients[1].0, 9);
        assert_eq!(server.take_lag_counts(), vec![1, 1, 0]);
    }

    #[test]
    fn partitioned_ensemble_matches_the_single_server_under_staleness() {
        // Both layouts run the same stale snapshot dance on one top model: the same
        // upload stream at the same window must stay bit-identical between them.
        let uploads = [upload(0, 4, 0), upload(1, 4, 1), upload(2, 4, 2)];
        let mut single = sharded(1, 1);
        let mut partitioned = ShardedServer::partitioned(toy_top(), toy_top(), vec![0.0; 10], 2);
        single.set_staleness(2);
        partitioned.set_staleness(2);
        for _ in 0..4 {
            let a = single.process_merged(0, &refs(&uploads));
            let b = partitioned.process_merged(0, &refs(&uploads));
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.accuracy, b.accuracy);
        }
        assert_eq!(single.top_state(), partitioned.top_state());
        assert_eq!(single.take_lag_counts(), partitioned.take_lag_counts());
    }

    #[test]
    fn single_shard_server_routes_work_identically_to_a_bare_shard() {
        // The bit-identity contract of num_servers = 1: routing through the sharded
        // server must be exactly the bare shard's arithmetic.
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1)];
        let mut bare = TopShard::new(toy_top());
        let mut server = sharded(1, 1);
        let a = bare.begin_step(&merge_feature_refs(&refs(&uploads)));
        bare.finish_step();
        let b = server.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(bare.state(), server.top_state());
        // end_round on a single shard is a no-op on the model.
        let before = server.top_state();
        assert!(!server.end_round(0));
        assert_eq!(before, server.top_state());
    }

    #[test]
    fn replicas_diverge_between_syncs_and_converge_at_sync() {
        let mut server = sharded(2, 1);
        // Each shard trains on a different single-class stream: replicas must diverge.
        let a = [upload(0, 6, 0)];
        let b = [upload(1, 6, 1)];
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        assert_ne!(server.shard_state(0), server.shard_state(1));
        // The sync averages them back together.
        assert!(server.end_round(0));
        assert_eq!(server.shard_state(0), server.shard_state(1));
    }

    #[test]
    fn sync_weights_follow_samples_processed_since_last_sync() {
        let mut server = sharded(2, 1);
        let heavy = [upload(0, 12, 0)];
        let light = [upload(1, 2, 1)];
        let _ = server.process_merged(0, &refs(&heavy));
        let _ = server.process_merged(1, &refs(&light));
        let s0 = server.shard_state(0);
        let s1 = server.shard_state(1);
        let expected = weighted_average_states(&[s0, s1], &[12.0, 2.0]);
        assert_eq!(server.averaged_top_state(), expected);
        server.sync_now();
        assert_eq!(server.shard_state(0), expected);
        // Counters reset: the next average is uniform until new work arrives.
        assert_eq!(
            server.averaged_top_state(),
            weighted_average_states(&[expected.clone(), expected.clone()], &[1.0, 1.0])
        );
    }

    #[test]
    fn end_round_honours_the_sync_period() {
        let mut server = sharded(2, 3);
        assert!(!server.end_round(0));
        assert!(!server.end_round(1));
        assert!(server.end_round(2)); // rounds 0..=2 completed: one period
        assert!(!server.end_round(3));
        assert!(server.end_round(5));
        assert_eq!(server.sync_every(), 3);
        assert_eq!(server.topology(), ShardTopology::Replicated);
    }

    #[test]
    fn aggregation_replaces_global_bottom_with_weighted_average() {
        let tops = vec![toy_top()];
        let mut server = ShardedServer::new(tops, toy_top(), vec![0.0; 4], 1);
        server.aggregate_bottoms(&[vec![1.0; 4], vec![3.0; 4]], &[1.0, 1.0]);
        assert_eq!(server.global_bottom(), &[2.0, 2.0, 2.0, 2.0]);
        server.aggregate_bottoms(&[vec![0.0; 4], vec![4.0; 4]], &[3.0, 1.0]);
        assert_eq!(server.global_bottom(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn evaluate_combines_bottom_and_top() {
        let mut rng = seeded(2);
        let bottom = Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 6, 8)))
            .push(Box::new(Relu::new()));
        let global = bottom.state();
        let mut replica = Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 6, 8)))
            .push(Box::new(Relu::new()));
        let mut server = ShardedServer::new(vec![toy_top()], toy_top(), global, 1);
        let inputs = Tensor::full(&[5, 6], 0.2);
        let labels = vec![0, 1, 2, 3, 0];
        let (loss, acc) = server.evaluate(&mut replica, &inputs, &labels);
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn partitioned_server_is_a_single_route_group_with_no_sync() {
        let mut server = ShardedServer::partitioned(toy_top(), toy_top(), vec![0.0; 10], 4);
        assert_eq!(server.topology(), ShardTopology::OutputPartitioned);
        assert_eq!(server.num_shards(), 4);
        assert_eq!(server.num_route_groups(), 1);
        // toy_top has 4 output classes: more instances than classes are capped (an
        // instance cannot own less than one output column).
        let capped = ShardedServer::partitioned(toy_top(), toy_top(), vec![0.0; 10], 16);
        assert_eq!(capped.num_shards(), 4);
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1)];
        let a = server.process_merged(0, &refs(&uploads));

        // The step equals the unsharded single-server step exactly, and the
        // round boundary never syncs (there is no replica state to reconverge).
        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), vec![0.0; 10], 1);
        let b = reference.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(server.top_state(), reference.top_state());
        let before = server.top_state();
        assert!(!server.end_round(0));
        assert!(!server.end_round(1));
        assert_eq!(server.top_state(), before);
    }

    #[test]
    fn partitioned_server_evaluation_matches_the_single_server() {
        let mut rng = seeded(5);
        let mut bottom = Sequential::new().push(Box::new(Linear::new(&mut rng, 6, 8)));
        let global = bottom.state();
        let mut partitioned = ShardedServer::partitioned(toy_top(), toy_top(), global.clone(), 4);
        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), global, 1);
        let uploads = [upload(0, 4, 0), upload(1, 4, 2)];
        let _ = partitioned.process_merged(0, &refs(&uploads));
        let _ = reference.process_merged(0, &refs(&uploads));
        let inputs = Tensor::full(&[3, 6], 0.1);
        let labels = vec![0, 1, 2];
        let (loss_a, acc_a) = partitioned.evaluate(&mut bottom, &inputs, &labels);
        let (loss_b, acc_b) = reference.evaluate(&mut bottom, &inputs, &labels);
        assert_eq!(loss_a, loss_b);
        assert_eq!(acc_a, acc_b);
    }

    #[test]
    fn evaluation_uses_the_cross_shard_average() {
        // Two diverged replicas: evaluation must go through their average, which equals
        // neither shard alone but equals a single-shard server loaded with that average.
        let mut rng = seeded(3);
        let mut bottom = Sequential::new().push(Box::new(Linear::new(&mut rng, 6, 8)));
        let mut server =
            ShardedServer::new(vec![toy_top(), toy_top()], toy_top(), bottom.state(), 10);
        let a = [upload(0, 4, 0)];
        let b = [upload(1, 4, 2)];
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        server.prepare_eval();
        let averaged = server.averaged_top_state();
        assert_ne!(averaged, server.shard_state(0));
        assert_ne!(averaged, server.shard_state(1));

        let inputs = Tensor::full(&[3, 6], 0.1);
        let labels = vec![0, 1, 2];
        let (loss, _) = server.evaluate(&mut bottom, &inputs, &labels);

        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), bottom.state(), 1);
        reference.shards[0].load_state(&averaged);
        let (ref_loss, _) = reference.evaluate(&mut bottom, &inputs, &labels);
        assert_eq!(loss, ref_loss);
    }
}
