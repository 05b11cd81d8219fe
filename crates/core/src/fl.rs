//! Full-model federated learning engine (the FedAvg and PyramidFL baselines).
//!
//! Unlike SFL, every selected worker trains the *entire* model locally for τ iterations and
//! ships the whole model to the PS for aggregation, which is exactly what makes these
//! baselines expensive on resource-constrained devices: per-round traffic is two full-model
//! transfers per worker and local compute covers the full network.
//!
//! * **FedAvg** selects workers round-robin by participation priority and uses an identical
//!   batch size everywhere.
//! * **PyramidFL** ranks workers by a utility that combines statistical utility (shard size
//!   and label divergence — more informative data first) and system utility (faster workers
//!   first), with an exploration bonus for rarely selected workers, approximating the
//!   fine-grained divergence-aware selection of the original system.

use crate::config::RunConfig;
use crate::control::{ParticipationTracker, StateEstimator};
use crate::metrics::{RoundRecord, RunResult};
use crate::sfl::engine::EVAL_CHUNK;
use mergesfl_data::{
    eval_subsample, partition_dirichlet, synth, Dataset, DatasetSpec, LabelDistribution, Partition,
    WorkerLoader,
};
use mergesfl_nn::model::weighted_average_states;
use mergesfl_nn::optim::LrSchedule;
use mergesfl_nn::rng::derive_seed;
use mergesfl_nn::zoo;
use mergesfl_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use mergesfl_simnet::{
    Cluster, ClusterConfig, ModelProfile, RoundTiming, SimClock, TrafficCategory, TrafficMeter,
};
use rayon::prelude::*;

/// How an FL baseline picks its per-round cohort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlSelection {
    /// Rotate through workers by participation priority (FedAvg-style random participation).
    RoundRobin,
    /// PyramidFL-style utility-based selection (data utility × system utility + exploration).
    Utility,
}

/// Strategy preset for a full-model FL baseline.
#[derive(Clone, Copy, Debug)]
pub struct FlStrategy {
    /// Display name of the approach.
    pub name: &'static str,
    /// Cohort selection rule.
    pub selection: FlSelection,
}

impl FlStrategy {
    /// The FedAvg baseline.
    pub fn fedavg() -> Self {
        Self {
            name: "FedAvg",
            selection: FlSelection::RoundRobin,
        }
    }

    /// The PyramidFL baseline.
    pub fn pyramidfl() -> Self {
        Self {
            name: "PyramidFL",
            selection: FlSelection::Utility,
        }
    }
}

struct FlWorker {
    model: Sequential,
    optimizer: Sgd,
    loader: WorkerLoader,
    shard_size: usize,
}

/// The assembled full-model FL training run.
pub struct FlEngine {
    strategy: FlStrategy,
    config: RunConfig,
    spec: DatasetSpec,
    train: Dataset,
    test: Dataset,
    cluster: Cluster,
    clock: SimClock,
    traffic: TrafficMeter,
    estimator: StateEstimator,
    tracker: ParticipationTracker,
    label_dists: Vec<LabelDistribution>,
    iid_reference: LabelDistribution,
    workers: Vec<FlWorker>,
    global_model: Vec<f32>,
    eval_model: Sequential,
    eval_indices: Vec<usize>,
    loss: SoftmaxCrossEntropy,
    lr_schedule: LrSchedule,
    full_model_bytes: f64,
    result: RunResult,
}

impl FlEngine {
    /// Builds the FL experiment state for a strategy and configuration.
    pub fn new(strategy: FlStrategy, config: &RunConfig) -> Self {
        config.validate();
        let mut spec = config.dataset.spec();
        if let Some(train_size) = config.train_size {
            spec.train_size = train_size;
        }
        let (train, test) = synth::generate_default(&spec, derive_seed(config.seed, 1));
        let min_per_worker = (config.max_batch * 2)
            .min(train.len() / config.num_workers)
            .max(4);
        let partition: Partition = partition_dirichlet(
            &train,
            config.num_workers,
            config.non_iid_level,
            min_per_worker,
            derive_seed(config.seed, 2),
        );

        let profile = ModelProfile::for_architecture(spec.architecture);
        let cluster = Cluster::new(
            &ClusterConfig {
                num_workers: config.num_workers,
                ps_ingress_mean_mbps: config.ps_ingress_mean_mbps,
                seed: derive_seed(config.seed, 3),
            },
            profile,
        );

        let model_seed = derive_seed(config.seed, 4);
        let global = zoo::build(spec.architecture, spec.num_classes, model_seed).model;
        let global_model = global.state();
        let workers = partition
            .indices
            .iter()
            .enumerate()
            .map(|(i, shard)| FlWorker {
                model: zoo::build(spec.architecture, spec.num_classes, model_seed).model,
                optimizer: Sgd::new(spec.initial_lr, 0.0, 0.0)
                    .with_max_grad_norm(crate::sfl::server::GRAD_CLIP_NORM),
                loader: WorkerLoader::new(shard.clone(), derive_seed(config.seed, 200 + i as u64)),
                shard_size: shard.len(),
            })
            .collect();
        let eval_model = zoo::build(spec.architecture, spec.num_classes, model_seed).model;
        // Unbiased evaluation: a seed-deterministic subsample of the whole test set, not
        // its first `eval_samples` entries. Stream 6 matches the SFL engine so both
        // engine families evaluate on the same subsample for a given base seed.
        let eval_indices =
            eval_subsample(test.len(), config.eval_samples, derive_seed(config.seed, 6));

        let refs: Vec<&LabelDistribution> = partition.label_dists.iter().collect();
        let iid_reference = LabelDistribution::average(&refs);
        let lr_schedule = LrSchedule::new(spec.initial_lr, spec.lr_decay);
        let result = RunResult::new(strategy.name, spec.name, config.non_iid_level);

        Self {
            strategy,
            config: config.clone(),
            spec,
            train,
            test,
            cluster,
            clock: SimClock::with_schedule(config.pipeline, 0),
            traffic: TrafficMeter::new(),
            estimator: StateEstimator::new(config.num_workers, config.estimate_alpha as f64),
            tracker: ParticipationTracker::new(config.num_workers),
            label_dists: partition.label_dists,
            iid_reference,
            workers,
            global_model,
            eval_model,
            eval_indices,
            loss: SoftmaxCrossEntropy::new(),
            lr_schedule,
            full_model_bytes: profile.full_model_bytes,
            result,
        }
    }

    /// Runs every configured round and returns the collected metrics.
    pub fn run(mut self) -> RunResult {
        for round in 0..self.config.rounds {
            self.run_round(round);
        }
        self.result
    }

    fn select_cohort(&self) -> Vec<usize> {
        let k = self.config.participants_per_round;
        match self.strategy.selection {
            FlSelection::RoundRobin => self.tracker.ranked().into_iter().take(k).collect(),
            FlSelection::Utility => {
                let total_samples: f64 = self
                    .workers
                    .iter()
                    .map(|w| w.shard_size as f64)
                    .sum::<f64>()
                    .max(1.0);
                let mut scored: Vec<(usize, f64)> = (0..self.workers.len())
                    .map(|i| {
                        let est = self.estimator.worker_or_default(i);
                        let data_utility = (self.workers[i].shard_size as f64 / total_samples)
                            * (1.0 + self.label_dists[i].kl_divergence(&self.iid_reference) as f64);
                        let system_utility = 1.0 / est.per_sample_cost().max(1e-6).sqrt();
                        let exploration = 1.0 / (self.tracker.count(i) as f64 + 1.0);
                        (i, data_utility * system_utility + 0.05 * exploration)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                scored.into_iter().take(k).map(|(i, _)| i).collect()
            }
        }
    }

    fn run_round(&mut self, round: usize) {
        self.cluster.begin_round(round);
        let tau = self.config.tau();
        let batch = self.config.uniform_batch;
        let pool_mark = mergesfl_nn::pool::stats();

        for state in self.cluster.all_worker_states() {
            // FL workers do not ship per-sample features, so only compute time matters for
            // the utility estimate; transfer is charged at the model-sync boundary.
            self.estimator
                .observe_worker(state.worker_id, state.full_compute_per_sample, 0.0);
        }
        let selected = self.select_cohort();
        if selected.is_empty() {
            // Selection is validated to produce at least one worker; guard the degenerate
            // case anyway with a logged, skipped round instead of panicking downstream.
            eprintln!("[mergesfl] round {round}: empty FL cohort; skipping round");
            let pool = mergesfl_nn::pool::stats();
            self.result.push(RoundRecord {
                round,
                sim_time: self.clock.elapsed_seconds(),
                accuracy: None,
                train_loss: 0.0,
                avg_waiting_time: 0.0,
                round_makespan_barrier: 0.0,
                round_makespan_pipelined: 0.0,
                traffic_mb: self.traffic.total_megabytes(),
                participants: 0,
                total_batch: 0,
                cohort_kl: 0.0,
                // The FL baselines always run in the classic dense regime: every
                // registered worker is observed every round.
                fleet_registered: self.config.num_workers,
                fleet_active: self.config.num_workers,
                shards: Vec::new(),
                topology: Default::default(),
                exchange_bytes: 0.0,
                cross_sync_seconds: 0.0,
                server_gflops: mergesfl_simnet::profile::SERVER_GFLOPS,
                server_critical_fraction: mergesfl_simnet::profile::SERVER_CRITICAL_FRACTION,
                staleness: 0,
                version_lag: Vec::new(),
                pool_pages: pool.pages as usize,
                pool_bytes: pool.bytes as usize,
                pool_hit_rate: pool.since(&pool_mark).hit_rate(),
            });
            return;
        }
        let lr = self.lr_schedule.at_round(round);

        // Broadcast the global model, run local training (optionally fanned out across
        // threads), then aggregate. Parallel and sequential fan-out are bit-identical:
        // each worker's loader owns a derived-seed RNG, and states and losses are always
        // reduced in cohort order with the aggregation weights fixed up front.
        let weights: Vec<f32> = selected
            .iter()
            .map(|&i| self.workers[i].shard_size as f32)
            .collect();
        let mut loss_sum = 0.0f32;
        {
            let train = &self.train;
            let global = &self.global_model;
            let loss = &self.loss;
            // Full-model download + upload per selected worker (recorded up front; the
            // totals are what the traffic meter reports).
            for _ in &selected {
                self.traffic
                    .record(TrafficCategory::FullModel, self.full_model_bytes);
                self.traffic
                    .record(TrafficCategory::FullModel, self.full_model_bytes);
            }
            let cohort: Vec<&mut FlWorker> =
                crate::util::select_disjoint_mut(&mut self.workers, &selected);
            // τ local iterations over the worker's shard; returns (state, loss).
            let train_one = |worker: &mut FlWorker| -> (Vec<f32>, f32) {
                worker.model.load_state(global);
                worker.optimizer.reset_state();
                worker.optimizer.set_lr(lr);
                let mut local_loss = 0.0f32;
                for _ in 0..tau {
                    let (inputs, labels) = worker.loader.next_batch(train, batch);
                    worker.model.zero_grad();
                    let logits = worker.model.forward(&inputs, true);
                    let out = loss.forward(&logits, &labels);
                    worker.model.backward_params(&out.grad);
                    worker.optimizer.step(&mut worker.model);
                    local_loss += out.loss;
                }
                (worker.model.state(), local_loss)
            };

            let outcomes: Vec<(Vec<f32>, f32)> = if self.config.parallel {
                cohort.into_par_iter().map(&train_one).collect()
            } else {
                cohort.into_iter().map(&train_one).collect()
            };
            let mut states = Vec::with_capacity(outcomes.len());
            for (state, local_loss) in outcomes {
                states.push(state);
                loss_sum += local_loss;
            }
            let old = std::mem::replace(
                &mut self.global_model,
                weighted_average_states(&states, &weights),
            );
            mergesfl_nn::pool::recycle(old);
            for state in states {
                mergesfl_nn::pool::recycle(state);
            }
        }
        self.tracker.record_participation(&selected);

        // Timing: local compute plus the (dominant) full-model down/upload per worker,
        // with the server's per-state aggregation fold as the overlappable stage.
        let mut durations = Vec::with_capacity(selected.len());
        for &w in &selected {
            let state = self.cluster.worker_state(w);
            let compute = mergesfl_simnet::clock::worker_duration(
                tau,
                batch,
                state.full_compute_per_sample,
                0.0,
            );
            let sync = self
                .cluster
                .transfer_seconds(w, 2.0 * self.full_model_bytes);
            durations.push(compute + sync);
        }
        let timing = RoundTiming::with_aggregate_stage(
            durations,
            0.0,
            self.cluster.aggregate_seconds_per_state(),
        );
        self.clock.advance_round(&timing);

        let evaluate =
            round.is_multiple_of(self.config.eval_every) || round + 1 == self.config.rounds;
        let accuracy = if evaluate {
            Some(self.evaluate_global())
        } else {
            None
        };
        let pool = mergesfl_nn::pool::stats();
        self.result.push(RoundRecord {
            round,
            sim_time: self.clock.elapsed_seconds(),
            accuracy,
            train_loss: loss_sum / (tau * selected.len().max(1)) as f32,
            avg_waiting_time: timing.average_waiting_time(),
            round_makespan_barrier: timing.barrier_completion_time(),
            round_makespan_pipelined: timing.pipelined_completion_time(),
            traffic_mb: self.traffic.total_megabytes(),
            participants: selected.len(),
            total_batch: batch * selected.len(),
            cohort_kl: {
                let dists: Vec<&LabelDistribution> =
                    selected.iter().map(|&i| &self.label_dists[i]).collect();
                let w: Vec<f32> = vec![1.0; selected.len()];
                LabelDistribution::mixture(&dists, &w).kl_divergence(&self.iid_reference)
            },
            // The FL baselines always run in the classic dense regime: every registered
            // worker is observed every round.
            fleet_registered: self.config.num_workers,
            fleet_active: self.config.num_workers,
            // Full-model FL has no split server stage: no shard breakdown, no sync, and
            // the architecture-independent aggregation-cost constants for the record.
            shards: Vec::new(),
            topology: Default::default(),
            exchange_bytes: 0.0,
            cross_sync_seconds: 0.0,
            server_gflops: mergesfl_simnet::profile::SERVER_GFLOPS,
            server_critical_fraction: mergesfl_simnet::profile::SERVER_CRITICAL_FRACTION,
            // The FL loop has no top-model version ring: always synchronous.
            staleness: 0,
            version_lag: Vec::new(),
            pool_pages: pool.pages as usize,
            pool_bytes: pool.bytes as usize,
            pool_hit_rate: pool.since(&pool_mark).hit_rate(),
        });
    }

    /// Evaluates the global model on the run's seeded test subsample, in chunks so large
    /// `eval_samples` settings never materialise one giant batch.
    fn evaluate_global(&mut self) -> f32 {
        self.eval_model.load_state(&self.global_model);
        let mut weighted_accuracy = 0.0f64;
        let mut total = 0usize;
        for chunk in self.eval_indices.chunks(EVAL_CHUNK) {
            let (inputs, labels) = self.test.batch(chunk);
            let logits = self.eval_model.forward(&inputs, false);
            let accuracy = self.loss.forward(&logits, &labels).accuracy;
            weighted_accuracy += f64::from(accuracy) * chunk.len() as f64;
            total += chunk.len();
        }
        if total == 0 {
            return 0.0;
        }
        (weighted_accuracy / total as f64) as f32
    }

    /// The evaluation subsample indices (exposed for tests of the sampling fix).
    pub fn eval_indices(&self) -> &[usize] {
        &self.eval_indices
    }

    /// Dataset spec this engine trains on.
    pub fn dataset_spec(&self) -> &DatasetSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_data::DatasetKind;

    fn tiny_config() -> RunConfig {
        let mut c = RunConfig::quick(DatasetKind::Har, 5.0, 7);
        c.num_workers = 8;
        c.rounds = 4;
        c.local_iterations = Some(2);
        c.participants_per_round = 4;
        c.train_size = Some(400);
        c.eval_every = 2;
        c.eval_samples = 120;
        c
    }

    #[test]
    fn fedavg_runs_and_improves() {
        let mut config = tiny_config();
        config.non_iid_level = 0.0;
        config.rounds = 8;
        config.local_iterations = Some(4);
        let result = FlEngine::new(FlStrategy::fedavg(), &config).run();
        assert_eq!(result.records.len(), 8);
        assert!(
            result.best_accuracy() > 0.25,
            "accuracy {}",
            result.best_accuracy()
        );
    }

    #[test]
    fn pyramidfl_runs() {
        let result = FlEngine::new(FlStrategy::pyramidfl(), &tiny_config()).run();
        assert_eq!(result.records.len(), 4);
        assert!(result.final_accuracy() >= 0.0);
        assert_eq!(result.approach, "PyramidFL");
    }

    #[test]
    fn fl_consumes_more_traffic_per_round_than_sfl() {
        use crate::sfl::{SflEngine, SflStrategy};
        let config = tiny_config();
        let fl = FlEngine::new(FlStrategy::fedavg(), &config).run();
        let sfl = SflEngine::new(SflStrategy::merge_sfl(), &config).run();
        assert!(
            fl.total_traffic_mb() > sfl.total_traffic_mb(),
            "FL traffic {} should exceed SFL traffic {}",
            fl.total_traffic_mb(),
            sfl.total_traffic_mb()
        );
    }

    #[test]
    fn both_fl_baselines_incur_waiting_time_from_heterogeneity() {
        let config = tiny_config();
        let fedavg = FlEngine::new(FlStrategy::fedavg(), &config).run();
        let pyramid = FlEngine::new(FlStrategy::pyramidfl(), &config).run();
        // Uniform batch sizes on a heterogeneous cluster always leave waiting time; both
        // baselines must report it (MergeSFL's regulation is what removes it — see the
        // engine tests and Fig. 9 bench).
        assert!(fedavg.mean_waiting_time() > 0.0);
        assert!(pyramid.mean_waiting_time() > 0.0);
        assert!(fedavg.mean_waiting_time().is_finite() && pyramid.mean_waiting_time().is_finite());
    }

    #[test]
    fn fl_evaluation_subsample_matches_sfl_and_is_not_the_prefix() {
        // Same base seed → same eval subsample as the SFL engine (stream 6), so accuracy
        // comparisons across engine families stay apples-to-apples; and the subsample is
        // not the biased first-n prefix.
        use crate::sfl::{SflEngine, SflStrategy};
        let config = tiny_config();
        let fl = FlEngine::new(FlStrategy::fedavg(), &config);
        let sfl = SflEngine::new(SflStrategy::merge_sfl(), &config);
        assert_eq!(fl.eval_indices(), sfl.eval_indices());
        let prefix: Vec<usize> = (0..config.eval_samples).collect();
        assert_ne!(fl.eval_indices(), prefix.as_slice());
    }

    #[test]
    fn cohort_size_respects_config() {
        let config = tiny_config();
        let result = FlEngine::new(FlStrategy::fedavg(), &config).run();
        for r in &result.records {
            assert_eq!(r.participants, config.participants_per_round);
        }
    }
}
