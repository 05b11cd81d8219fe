//! The split-federated-learning round loop.
//!
//! [`SflEngine`] wires together the synthetic dataset, the Dirichlet partition, the edge
//! cluster simulator, the control module and the worker/server training state, and runs the
//! configured number of communication rounds. Which of the paper's SFL-family approaches it
//! realises is decided by an [`SflStrategy`]: MergeSFL enables every mechanism, the
//! ablations and baselines switch individual mechanisms off.

use crate::config::RunConfig;
use crate::control::{ControlModule, PlanOptions, RoundPlan};
use crate::metrics::{RoundRecord, RunResult, ShardBreakdown};
use crate::sfl::merge::{align_gradients, FeatureUpload};
use crate::sfl::server::{ShardTopology, ShardedServer};
use crate::sfl::worker::SflWorker;
use mergesfl_data::{eval_subsample, partition_dirichlet, synth, Dataset, DatasetSpec, Partition};
use mergesfl_nn::optim::LrSchedule;
use mergesfl_nn::rng::derive_seed;
use mergesfl_nn::zoo;
use mergesfl_nn::{Sequential, Tensor};
use mergesfl_simnet::{
    ChurnModel, Cluster, ClusterConfig, ModelProfile, RoundTiming, SimClock, TrafficCategory,
    TrafficMeter,
};
use rayon::prelude::*;

/// High-bits tag for the fleet-mode per-client loader stream family. Fleet cohorts are
/// materialized on demand, so a client's loader cannot carry RNG state across rounds the
/// way the dense path's persistent workers do; instead every (client, round) pair gets a
/// two-level derived stream — client under this tag, then round — disjoint from the dense
/// loader families (`seed+100+i` / `seed+200+i`) and from every simnet/churn tag.
const FLEET_LOADER_TAG: u64 = 0xF1EE_0000_0000_0000;

/// Number of test samples evaluated per forward pass: evaluation batches are chunked so a
/// large `eval_samples` never allocates one giant activation set. Shared with the FL
/// engine's evaluation loop.
pub(crate) const EVAL_CHUNK: usize = 64;

/// Which MergeSFL mechanisms an SFL run uses. Each baseline/ablation is a preset.
#[derive(Clone, Copy, Debug)]
pub struct SflStrategy {
    /// Display name of the approach.
    pub name: &'static str,
    /// Merge features from all selected workers into one mixed sequence per iteration
    /// (off = typical SFL: the top model is updated per worker, sequentially).
    pub feature_merging: bool,
    /// Regulate batch sizes to the workers' speeds (off = identical batch sizes).
    pub batch_regulation: bool,
    /// Use KL-driven genetic worker selection (off = priority/round-robin selection).
    pub kl_selection: bool,
    /// Fine-tune batch sizes until the cohort KL is under ε.
    pub finetune: bool,
    /// Rescale batch sizes to exploit the PS ingress budget.
    pub budget_rescale: bool,
    /// Weight bottom-model aggregation by batch size (off = uniform weights).
    pub weighted_aggregation: bool,
}

impl SflStrategy {
    /// Full MergeSFL: every mechanism enabled (the paper's proposed system).
    pub fn merge_sfl() -> Self {
        Self {
            name: "MergeSFL",
            feature_merging: true,
            batch_regulation: true,
            kl_selection: true,
            finetune: true,
            budget_rescale: true,
            weighted_aggregation: true,
        }
    }

    /// MergeSFL without feature merging (ablation of Fig. 11).
    pub fn merge_sfl_without_fm() -> Self {
        Self {
            name: "MergeSFL w/o FM",
            feature_merging: false,
            ..Self::merge_sfl()
        }
    }

    /// MergeSFL without batch-size regulation (ablation of Fig. 11).
    pub fn merge_sfl_without_br() -> Self {
        Self {
            name: "MergeSFL w/o BR",
            batch_regulation: false,
            ..Self::merge_sfl()
        }
    }

    /// AdaSFL baseline: adaptive batch sizes for heterogeneous workers, but no feature
    /// merging and no statistical-heterogeneity-aware selection.
    pub fn ada_sfl() -> Self {
        Self {
            name: "AdaSFL",
            feature_merging: false,
            batch_regulation: true,
            kl_selection: false,
            finetune: false,
            budget_rescale: true,
            weighted_aggregation: true,
        }
    }

    /// LocFedMix-SL baseline: typical SFL with multiple local updates, identical fixed batch
    /// sizes and no heterogeneity-aware control.
    pub fn locfedmix_sl() -> Self {
        Self {
            name: "LocFedMix-SL",
            feature_merging: false,
            batch_regulation: false,
            kl_selection: false,
            finetune: false,
            budget_rescale: false,
            weighted_aggregation: false,
        }
    }

    /// SFL-T (motivation Section II): typical SFL, no merging, no regulation.
    pub fn sfl_t() -> Self {
        Self {
            name: "SFL-T",
            ..Self::locfedmix_sl()
        }
    }

    /// SFL-FM (motivation Section II): typical SFL plus feature merging only.
    pub fn sfl_fm() -> Self {
        Self {
            name: "SFL-FM",
            feature_merging: true,
            ..Self::locfedmix_sl()
        }
    }

    /// SFL-BR (motivation Section II): typical SFL plus batch-size regulation only.
    pub fn sfl_br() -> Self {
        Self {
            name: "SFL-BR",
            batch_regulation: true,
            budget_rescale: true,
            weighted_aggregation: true,
            ..Self::locfedmix_sl()
        }
    }
}

/// The assembled SFL training run.
pub struct SflEngine {
    strategy: SflStrategy,
    config: RunConfig,
    spec: DatasetSpec,
    train: Dataset,
    test: Dataset,
    partition: Partition,
    cluster: Cluster,
    clock: SimClock,
    traffic: TrafficMeter,
    control: ControlModule,
    churn: ChurnModel,
    server: ShardedServer,
    workers: Vec<SflWorker>,
    eval_bottom: Sequential,
    eval_indices: Vec<usize>,
    lr_schedule: LrSchedule,
    bottom_param_bytes: f64,
    result: RunResult,
}

impl SflEngine {
    /// Builds the full experiment state for a strategy and configuration.
    pub fn new(strategy: SflStrategy, config: &RunConfig) -> Self {
        config.validate();
        let mut spec = config.dataset.spec();
        if let Some(train_size) = config.train_size {
            spec.train_size = train_size;
        }
        let (train, test) = synth::generate_default(&spec, derive_seed(config.seed, 1));
        let min_per_worker = (config.max_batch * 2)
            .min(train.len() / config.num_workers)
            .max(4);
        let partition = partition_dirichlet(
            &train,
            config.num_workers,
            config.non_iid_level,
            min_per_worker,
            derive_seed(config.seed, 2),
        );

        let profile = ModelProfile::for_architecture(spec.architecture);
        // The cluster is sized to the *registered fleet*, not the data-shard count: its
        // state is O(1) in the worker count (device/link parameters are derived on
        // demand from per-worker seed streams), so a million-client registry costs
        // nothing until a specific client is queried. In the classic regime the fleet
        // IS the worker set and this line is byte-identical to the old sizing.
        let fleet = config.fleet_size();
        let cluster = Cluster::new(
            &ClusterConfig {
                num_workers: fleet,
                ps_ingress_mean_mbps: config.ps_ingress_mean_mbps,
                seed: derive_seed(config.seed, 3),
            },
            profile,
        );

        // Global model: the top model laid out across the parameter-server instances
        // according to the configured topology, plus an evaluation replica, the initial
        // global bottom, one bottom replica per worker and one bottom replica for
        // evaluation. All replicas are built from the same seed, so they start identical
        // — with `num_servers = 1` (either topology) the server subsystem collapses to
        // the paper's single-PS loop bit for bit.
        let model_seed = derive_seed(config.seed, 4);
        let split = zoo::build(spec.architecture, spec.num_classes, model_seed).into_split();
        let global_bottom = split.bottom.state();
        let eval_top = zoo::build(spec.architecture, spec.num_classes, model_seed)
            .into_split()
            .top;
        let mut server = match config.topology {
            // Replicated: one full top-model replica per shard, trained on its routed
            // uploads and periodically averaged.
            ShardTopology::Replicated => {
                let mut tops = vec![split.top];
                for _ in 1..config.num_servers {
                    tops.push(
                        zoo::build(spec.architecture, spec.num_classes, model_seed)
                            .into_split()
                            .top,
                    );
                }
                ShardedServer::new(tops, eval_top, global_bottom, config.sync_every)
            }
            // Output-partitioned: one top model and one route group over the full cohort;
            // the instance count (capped at the class count) only sets the clock and
            // traffic charge of `round_timing` and the exchange meter.
            ShardTopology::OutputPartitioned => {
                ShardedServer::partitioned(split.top, eval_top, global_bottom, config.num_servers)
            }
        };
        server.set_staleness(config.staleness);

        // Eagerly materializing one SflWorker (a full bottom-model replica plus loader
        // state) per registered client is exactly what a million-client fleet cannot
        // afford. In fleet mode the vector starts empty and holds cohort *slots*:
        // `materialize_cohort` re-targets them at each round's selected clients and
        // builds one only when the cohort grows. The classic regime keeps the persistent
        // per-shard workers — and with them the exact loader RNG advancement older
        // trajectories were blessed against.
        let workers = if config.fleet_mode() {
            Vec::new()
        } else {
            partition
                .indices
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    let bottom = zoo::build(spec.architecture, spec.num_classes, model_seed)
                        .into_split()
                        .bottom;
                    SflWorker::new(
                        i,
                        bottom,
                        shard.clone(),
                        derive_seed(config.seed, 100 + i as u64),
                    )
                })
                .collect()
        };
        let eval_bottom = zoo::build(spec.architecture, spec.num_classes, model_seed)
            .into_split()
            .bottom;
        // Unbiased evaluation: a seed-deterministic subsample of the whole test set, not
        // its first `eval_samples` entries.
        let eval_indices =
            eval_subsample(test.len(), config.eval_samples, derive_seed(config.seed, 6));

        let mut control = ControlModule::new(
            partition.label_dists.clone(),
            config.max_batch,
            config.kl_epsilon,
            config.estimate_alpha as f64,
            profile.feature_bytes_per_sample,
            config.tau(),
            derive_seed(config.seed, 5),
        );
        if config.fleet_mode() {
            control = control.with_fleet(fleet, config.churn_model());
        }

        let lr_schedule = LrSchedule::new(spec.initial_lr, spec.lr_decay);
        let result = RunResult::new(strategy.name, spec.name, config.non_iid_level);
        let bottom_param_bytes = profile.bottom_model_bytes;

        Self {
            strategy,
            config: config.clone(),
            spec,
            train,
            test,
            partition,
            cluster,
            clock: SimClock::with_schedule(config.pipeline, config.staleness),
            traffic: TrafficMeter::new(),
            control,
            churn: config.churn_model(),
            server,
            workers,
            eval_bottom,
            eval_indices,
            lr_schedule,
            bottom_param_bytes,
            result,
        }
    }

    /// The per-round plan options implied by the strategy and configuration. The shard
    /// count the planner routes and budgets for is the server's *effective* instance
    /// count (output partitioning caps it at the class count), not the raw setting.
    fn plan_options(&self) -> PlanOptions {
        PlanOptions {
            batch_regulation: self.strategy.batch_regulation,
            kl_selection: self.strategy.kl_selection,
            finetune: self.strategy.finetune,
            budget_rescale: self.strategy.budget_rescale,
            max_participants: self.config.participants_per_round,
            uniform_batch: self.config.uniform_batch,
            num_servers: self.server.num_shards(),
            topology: self.server.topology(),
        }
    }

    /// Runs every configured round and returns the collected metrics.
    pub fn run(mut self) -> RunResult {
        for round in 0..self.config.rounds {
            self.run_round(round);
        }
        self.result
    }

    /// Runs a single communication round.
    fn run_round(&mut self, round: usize) {
        self.cluster.begin_round(round);
        let tau = self.config.tau();
        // Marks the pool counters so the round record reports this round's hit rate
        // (the pages/bytes gauges are cumulative by design — pages are never freed).
        let pool_mark = mergesfl_nn::pool::stats();

        // --- Control: collect state, plan the round (Alg. 1). The dense path polls the
        // whole worker set up front (the pre-fleet behaviour, kept bit-identical); fleet
        // mode defers collection to the selected cohort below — polling 10^6 registered
        // devices per round is exactly what the event-driven path exists to avoid.
        let fleet_mode = self.config.fleet_mode();
        if !fleet_mode {
            for state in self.cluster.all_worker_states() {
                self.control.observe_worker(
                    state.worker_id,
                    state.bottom_compute_per_sample,
                    state.transfer_per_sample,
                );
            }
        }
        let ingress_budget = self.cluster.ps_ingress_budget();
        self.control.observe_ingress(ingress_budget);
        let mut plan = self
            .control
            .plan_round(round, ingress_budget, &self.plan_options());

        // --- Harden against degenerate plans: zero-size participants would panic the
        // loader and the merge path; an empty cohort has nothing to train. Skip with a
        // logged round record instead of crashing the run.
        let dropped = plan.drop_empty_participants();
        if dropped > 0 {
            eprintln!(
                "[mergesfl] round {round}: dropped {dropped} zero-size participant(s) from the cohort"
            );
        }
        // Clients selected while online may still vanish before the round completes;
        // they leave the plan before any training state is materialized for them, and a
        // fully-departed cohort falls through to the degenerate-round path below.
        let departed = plan.drop_mid_round_departures(&self.churn, round);
        if departed > 0 {
            eprintln!(
                "[mergesfl] round {round}: {departed} selected client(s) dropped out mid-round"
            );
        }
        if plan.selected.is_empty() {
            eprintln!("[mergesfl] round {round}: empty cohort after sanitising; skipping round");
            // A skipped round still counts toward the sync period: replicas trained in
            // earlier rounds must not drift past the `sync_every` contract just because
            // this round's plan degenerated. The sync's cost is recorded; no worker
            // timing exists to advance the clock by.
            let synced = self.server.end_round(round);
            let cross_sync_seconds = if synced {
                self.cluster
                    .profile()
                    .cross_shard_sync_seconds(self.server.num_shards())
            } else {
                0.0
            };
            if synced {
                let sync_bytes = self
                    .cluster
                    .profile()
                    .cross_shard_sync_bytes(self.server.num_shards());
                self.traffic
                    .record(TrafficCategory::ServerExchange, sync_bytes);
            }
            self.clock.advance_by(cross_sync_seconds);
            let pool = mergesfl_nn::pool::stats();
            self.result.push(RoundRecord {
                round,
                sim_time: self.clock.elapsed_seconds(),
                accuracy: None,
                train_loss: 0.0,
                avg_waiting_time: 0.0,
                round_makespan_barrier: cross_sync_seconds,
                round_makespan_pipelined: cross_sync_seconds,
                traffic_mb: self.traffic.total_megabytes(),
                participants: 0,
                total_batch: 0,
                cohort_kl: plan.cohort_kl,
                fleet_registered: self.config.fleet_size(),
                fleet_active: plan.records_touched,
                shards: Vec::new(),
                topology: self.server.topology(),
                exchange_bytes: 0.0,
                cross_sync_seconds,
                server_gflops: self.cluster.profile().server_gflops,
                server_critical_fraction: self.cluster.profile().server_critical_fraction,
                staleness: self.config.staleness,
                version_lag: Vec::new(),
                pool_pages: pool.pages as usize,
                pool_bytes: pool.bytes as usize,
                pool_hit_rate: pool.since(&pool_mark).hit_rate(),
            });
            return;
        }

        // --- Fleet mode: state collection and worker materialization touch only the
        // cohort. The selected members' device state feeds the estimator for the *next*
        // round's plan (the classic event-driven trade: estimates lag one round for
        // never-polled clients), and their training state is built on demand — per-round
        // memory and compute scale with the cohort, not the registered fleet.
        if fleet_mode {
            for &w in &plan.selected {
                let state = self.cluster.worker_state(w);
                self.control.observe_worker(
                    w,
                    state.bottom_compute_per_sample,
                    state.transfer_per_sample,
                );
            }
        }
        if fleet_mode {
            self.materialize_cohort(&plan.selected, round);
        }

        // --- Training module. ---
        let lr = self.lr_schedule.at_round(round);
        let reference_batch = (plan.total_batch() / plan.selected.len().max(1)).max(1);
        // With feature merging the top model takes ONE step per iteration on the merged
        // batch (normalised by Σ d_i), whereas typical SFL takes one step per worker (each
        // normalised by d_i). The merged step keeps the base learning rate: scaling it with
        // the number of merged mini-batches (the linear-scaling rule) was measured to
        // destabilise early rounds at quick scale — gradient spikes on the merged batch
        // saturate the top model before clipping can help. The merged update therefore
        // trades raw step count for the unbiased direction merging provides (Fig. 4).
        self.server.set_lr(lr);

        // --- Worker training, optionally fanned out across threads. The block scopes the
        // mutable borrows of `self.workers` so the timing/eval sections below can use
        // `&self` methods again. Parallel and sequential fan-out are bit-identical: every
        // worker owns its derived-seed RNG, uploads and gradient applications are always
        // handled in cohort (plan) order, and the server-side reduction processes
        // iterations strictly in order — parallelism only changes scheduling, never
        // arithmetic order. `RunConfig::pipeline` plays no part here: it selects the
        // simulated clock's schedule, not how the round executes.
        let parallel = self.config.parallel;
        let merging = self.strategy.feature_merging;
        let total_batch = plan.total_batch();
        let iteration = IterationParams {
            lr,
            total_batch,
            reference_batch,
            merging,
            parallel,
        };
        let loss_sum: f32;
        {
            let train = &self.train;
            let server = &mut self.server;
            let traffic = &mut self.traffic;
            let feature_bytes = self.cluster.profile().feature_bytes_per_sample;
            // Pull `&mut` references to the cohort's workers out in plan order, each
            // borrowed at most once so they can fan out to threads. Fleet mode trains
            // the re-targeted cohort slots; the dense path borrows the persistent workers.
            let mut cohort: Vec<&mut SflWorker> = if fleet_mode {
                self.workers.iter_mut().collect()
            } else {
                crate::util::select_disjoint_mut(&mut self.workers, &plan.selected)
            };

            // Broadcast the latest global bottom model to the selected workers.
            let global = server.global_bottom().to_vec();
            for worker in cohort.iter_mut() {
                worker.load_bottom(&global);
                traffic.record(TrafficCategory::BottomModel, self.bottom_param_bytes);
            }

            loss_sum = run_iterations(
                cohort.as_mut_slice(),
                train,
                server,
                traffic,
                feature_bytes,
                &plan,
                tau,
                &iteration,
            );

            // Bottom-model aggregation (Eq. 17 with batch-size weights, Eq. 4 otherwise).
            let states: Vec<Vec<f32>> = cohort.iter().map(|w| w.bottom_state()).collect();
            let weights: Vec<f32> = if self.strategy.weighted_aggregation {
                plan.batch_sizes.iter().map(|&d| d as f32).collect()
            } else {
                vec![1.0; plan.selected.len()]
            };
            server.aggregate_bottoms(&states, &weights);
            for state in states {
                mergesfl_nn::pool::recycle(state);
            }
            for _ in &plan.selected {
                traffic.record(TrafficCategory::BottomModel, self.bottom_param_bytes);
            }
        }
        self.control.record_participation(&plan.selected);

        // --- Server-plane accounting at the round boundary. Replicated topology:
        // periodically average the shard top models (weighted by samples each shard
        // processed since the last sync) and charge the state exchange — a single shard
        // or the partitioned topology makes this a no-op (partitioned shards never hold
        // divergent state). Output-partitioned topology: charge the per-iteration
        // activation exchange (feature all-gather + split-gradient all-reduce) the
        // round's iterations performed instead.
        let synced = self.server.end_round(round);
        let cross_sync_seconds = if synced {
            self.cluster
                .profile()
                .cross_shard_sync_seconds(self.server.num_shards())
        } else {
            0.0
        };
        if synced {
            let sync_bytes = self
                .cluster
                .profile()
                .cross_shard_sync_bytes(self.server.num_shards());
            self.traffic
                .record(TrafficCategory::ServerExchange, sync_bytes);
        }
        let exchange_bytes = match self.server.topology() {
            ShardTopology::OutputPartitioned => {
                tau as f64
                    * self
                        .cluster
                        .profile()
                        .partitioned_exchange_bytes(self.server.num_shards(), plan.total_batch())
            }
            ShardTopology::Replicated => 0.0,
        };
        if exchange_bytes > 0.0 {
            self.traffic
                .record(TrafficCategory::ServerExchange, exchange_bytes);
        }

        // --- Simulated timing (Eq. 7–8, plus the per-shard stage breakdown for the
        // pipelined makespan). The clock advances by the schedule the run is configured
        // for; both makespans are recorded so one run reports the pipeline's win.
        let (timing, shard_breakdown) = self.round_timing(&plan, tau, cross_sync_seconds);
        self.clock.advance_round(&timing);

        // --- Evaluation and bookkeeping. ---
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
            train_loss: loss_sum / tau as f32,
            avg_waiting_time: timing.average_waiting_time(),
            round_makespan_barrier: timing.barrier_completion_time(),
            round_makespan_pipelined: timing.pipelined_completion_time(),
            traffic_mb: self.traffic.total_megabytes(),
            participants: plan.selected.len(),
            total_batch: plan.total_batch(),
            cohort_kl: plan.cohort_kl,
            fleet_registered: self.config.fleet_size(),
            fleet_active: plan.records_touched,
            shards: shard_breakdown,
            topology: self.server.topology(),
            exchange_bytes,
            cross_sync_seconds,
            server_gflops: self.cluster.profile().server_gflops,
            server_critical_fraction: self.cluster.profile().server_critical_fraction,
            staleness: self.config.staleness,
            version_lag: self.server.take_lag_counts(),
            pool_pages: pool.pages as usize,
            pool_bytes: pool.bytes as usize,
            pool_hit_rate: pool.since(&pool_mark).hit_rate(),
        });
    }

    /// Points the fleet's cohort slots at this round's selected clients: slot `k` trains
    /// client `selected[k]`, nothing exists for the other `fleet - cohort` registered
    /// clients. Client `c` trains data shard `c % W` (the Dirichlet partition stays over
    /// `W = num_workers` shards — the fleet axis multiplies clients, not data), and its
    /// loader stream is derived per (client, round) under [`FLEET_LOADER_TAG`] so a
    /// client resumes a reproducible sequence no matter which rounds it happens to be
    /// selected into. A slot keeps its bottom replica across rounds: every cohort member
    /// loads the global bottom (which overwrites each parameter and resets the
    /// optimizer) before training, and bottom models draw no randomness, so a reused
    /// slot trains exactly as a freshly built one. Slots are built only when the cohort
    /// grows and dropped when it shrinks.
    fn materialize_cohort(&mut self, selected: &[usize], round: usize) {
        let shards = self.partition.indices.len();
        self.workers.truncate(selected.len());
        for (k, &c) in selected.iter().enumerate() {
            let shard = self.partition.indices[c % shards].clone();
            let client_stream = derive_seed(self.config.seed, FLEET_LOADER_TAG | c as u64);
            let seed = derive_seed(client_stream, round as u64);
            match self.workers.get_mut(k) {
                Some(slot) => slot.retarget(c, shard, seed),
                None => {
                    let model_seed = derive_seed(self.config.seed, 4);
                    let bottom =
                        zoo::build(self.spec.architecture, self.spec.num_classes, model_seed)
                            .into_split()
                            .bottom;
                    self.workers.push(SflWorker::new(c, bottom, shard, seed));
                }
            }
        }
    }

    /// Computes the simulated round timing for the selected cohort, including the
    /// per-shard stage breakdown: worker iterations, then per parameter-server shard the
    /// drain of its routed uploads through its own ingress link and its top-model step
    /// split into dispatch-critical and overlappable parts at the architecture's
    /// [`ModelProfile`] server throughput and critical fraction. Returns the timing plus
    /// the shard breakdown recorded in the round's `RoundRecord`.
    fn round_timing(
        &self,
        plan: &RoundPlan,
        tau: usize,
        cross_sync: f64,
    ) -> (RoundTiming, Vec<ShardBreakdown>) {
        let mut durations = Vec::with_capacity(plan.selected.len());
        let mut sync_overhead: f64 = 0.0;
        for (&w, &d) in plan.selected.iter().zip(&plan.batch_sizes) {
            let state = self.cluster.worker_state(w);
            durations.push(mergesfl_simnet::clock::worker_duration(
                tau,
                d,
                state.bottom_compute_per_sample,
                state.transfer_per_sample,
            ));
            // Bottom-model download + upload per round, charged at the worker's link speed.
            let sync = self
                .cluster
                .transfer_seconds(w, 2.0 * self.bottom_param_bytes);
            sync_overhead = sync_overhead.max(sync);
        }
        // Per shard: the drain of one iteration's uploads through that shard's ingress
        // link (each PS instance brings its own NIC, so sharding divides the quantity
        // Eq. 10 budgets — routed members' batches under replication, an even stripe of
        // the merged batch under output partitioning), and the shard's top-model step at
        // the profile's server throughput. Replicated shards step on their routed sub-batch;
        // output-partitioned shards each carry a `1/S` column slice of the full merged
        // step — the ideal whole-head tensor-parallel division (every top layer
        // column-partitioned; a column split computes the same numbers, so the step
        // itself runs on one top model) — plus the per-iteration activation-exchange
        // collective over the server interconnect that replaces the replicated
        // topology's periodic state sync. In the barrier schedule the slowest
        // shard's segment serialises with worker compute every iteration; pipelined,
        // early arrivals drain and the optimizer tail runs while workers are already on
        // the next iteration.
        let profile = self.cluster.profile();
        let budget = self.cluster.ps_ingress_budget().max(1.0);
        let mut shard_ingress = Vec::with_capacity(plan.num_shards);
        let mut shard_critical = Vec::with_capacity(plan.num_shards);
        let mut shard_overlap = Vec::with_capacity(plan.num_shards);
        let mut breakdown = Vec::with_capacity(plan.num_shards);
        let partitioned = plan.topology == ShardTopology::OutputPartitioned;
        let full_step = profile.server_step_seconds(plan.total_batch());
        for shard in 0..plan.num_shards {
            let batch = plan.shard_batch(shard);
            let ingress = batch as f64 * profile.feature_bytes_per_sample / budget;
            let step = if partitioned {
                full_step / plan.num_shards as f64
            } else {
                profile.server_step_seconds(batch)
            };
            let critical = profile.server_critical_fraction * step;
            let overlap = (1.0 - profile.server_critical_fraction) * step;
            shard_ingress.push(ingress);
            shard_critical.push(critical);
            shard_overlap.push(overlap);
            breakdown.push(ShardBreakdown {
                shard,
                participants: plan.shard_positions(shard).len(),
                batch,
                ingress_seconds: ingress,
                server_critical_seconds: critical,
                server_overlap_seconds: overlap,
            });
        }
        let exchange = if partitioned {
            profile.partitioned_exchange_seconds(plan.num_shards, plan.total_batch())
        } else {
            0.0
        };
        let timing = RoundTiming::with_sharded_stages(
            durations,
            sync_overhead,
            tau,
            shard_ingress,
            shard_critical,
            shard_overlap,
            cross_sync,
        )
        .with_activation_exchange(exchange);
        (timing, breakdown)
    }

    /// Evaluates the combined global model on the run's seeded test subsample, in chunks
    /// so large `eval_samples` settings never materialise one giant batch. The top side
    /// evaluates the cross-shard average (exactly shard 0 for a single-server run).
    fn evaluate_global(&mut self) -> f32 {
        self.server.load_global_bottom(&mut self.eval_bottom);
        self.server.prepare_eval();
        let mut weighted_accuracy = 0.0f64;
        let mut total = 0usize;
        for chunk in self.eval_indices.chunks(EVAL_CHUNK) {
            let (inputs, labels) = self.test.batch(chunk);
            let (_, accuracy) =
                self.server
                    .evaluate_preloaded(&mut self.eval_bottom, &inputs, &labels);
            weighted_accuracy += f64::from(accuracy) * chunk.len() as f64;
            total += chunk.len();
        }
        if total == 0 {
            return 0.0;
        }
        (weighted_accuracy / total as f64) as f32
    }

    /// The mean KL divergence of the underlying data partition (exposed for diagnostics).
    pub fn partition_divergence(&self) -> f32 {
        self.partition.mean_divergence()
    }

    /// Dataset spec this engine trains on.
    pub fn dataset_spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The evaluation subsample indices (exposed for tests of the sampling fix).
    pub fn eval_indices(&self) -> &[usize] {
        &self.eval_indices
    }
}

/// Per-iteration parameters shared by the forward and gradient-application fan-outs.
#[derive(Clone, Copy)]
struct IterationParams {
    lr: f32,
    total_batch: usize,
    reference_batch: usize,
    merging: bool,
    parallel: bool,
}

/// One iteration's worker forward passes, producing feature uploads in plan order.
fn forward_all(
    cohort: &mut [&mut SflWorker],
    train: &Dataset,
    batch_sizes: &[usize],
    parallel: bool,
) -> Vec<FeatureUpload> {
    if parallel {
        let tasks: Vec<(&mut SflWorker, usize)> = cohort
            .iter_mut()
            .map(|w| &mut **w)
            .zip(batch_sizes.iter().copied())
            .collect();
        tasks
            .into_par_iter()
            .map(|(worker, d)| worker.forward_iteration(train, d))
            .collect()
    } else {
        cohort
            .iter_mut()
            .zip(batch_sizes)
            .map(|(worker, &d)| worker.forward_iteration(train, d))
            .collect()
    }
}

/// One iteration's worker-side bottom updates from plan-ordered dispatched gradients.
/// Dispatched gradients are normalised by `Σ d_i` under merging but by `d_i` otherwise;
/// `SflWorker::apply_merged_gradient` rescales the learning rate (capped) so the two
/// modes' bottom-step magnitudes line up.
fn apply_all(
    cohort: &mut [&mut SflWorker],
    grads: Vec<Option<Tensor>>,
    batch_sizes: &[usize],
    params: &IterationParams,
) {
    let p = *params;
    if p.parallel {
        let tasks: Vec<(&mut SflWorker, Tensor, usize)> = cohort
            .iter_mut()
            .map(|w| &mut **w)
            .zip(grads)
            .zip(batch_sizes.iter().copied())
            .filter_map(|((worker, grad), d)| grad.map(|g| (worker, g, d)))
            .collect();
        tasks.into_par_iter().for_each(|(worker, grad, d)| {
            worker.apply_merged_gradient(
                &grad,
                p.lr,
                d,
                p.total_batch,
                p.reference_batch,
                p.merging,
            )
        });
    } else {
        for ((worker, grad), &d) in cohort.iter_mut().zip(grads).zip(batch_sizes) {
            if let Some(grad) = grad {
                worker.apply_merged_gradient(
                    &grad,
                    p.lr,
                    d,
                    p.total_batch,
                    p.reference_batch,
                    p.merging,
                );
            }
        }
    }
}

/// Charges the feature-upload and gradient-download traffic of one iteration's uploads.
fn record_feature_traffic(traffic: &mut TrafficMeter, uploads: &[FeatureUpload], per_sample: f64) {
    for u in uploads {
        let bytes = u.batch_size() as f64 * per_sample;
        traffic.record(TrafficCategory::Features, bytes);
        traffic.record(TrafficCategory::Gradients, bytes);
    }
}

/// The uploads of one iteration a server route group processes, in plan order.
/// Replicated topology: `uploads` is aligned with the plan's cohort, so position `p`
/// routes to `plan.shard_of[p]`. Output-partitioned topology: the single route group
/// carries the full cohort — every classifier slice participates in every merged batch.
fn routed_uploads<'a>(
    uploads: &'a [FeatureUpload],
    plan: &RoundPlan,
    group: usize,
) -> Vec<&'a FeatureUpload> {
    match plan.topology {
        ShardTopology::Replicated => uploads
            .iter()
            .zip(&plan.shard_of)
            .filter(|&(_, &s)| s == group)
            .map(|(u, _)| u)
            .collect(),
        ShardTopology::OutputPartitioned => uploads.iter().collect(),
    }
}

/// Combines per-shard iteration losses (each a mean over the shard's merged samples)
/// into the iteration's sample-weighted mean loss. A single shard passes its loss
/// through untouched, keeping single-server trajectories bit-identical.
fn combine_shard_losses(per_shard: &[(f32, usize)]) -> f32 {
    match per_shard {
        [] => 0.0,
        [(loss, _)] => *loss,
        many => {
            let total: usize = many.iter().map(|(_, n)| n).sum();
            let weighted: f32 = many.iter().map(|&(l, n)| l * n as f32).sum();
            weighted / total.max(1) as f32
        }
    }
}

/// The server side of one iteration: every route group processes its share of the
/// uploads (one merged top-model update per replicated shard — or one exact partitioned
/// step over the full cohort — or per-worker sequential updates without merging) and
/// dispatches split-layer gradients, which are reordered into plan order. Returns the
/// iteration's sample-weighted loss and the aligned gradients.
fn server_iteration(
    server: &mut ShardedServer,
    uploads: &[FeatureUpload],
    plan: &RoundPlan,
    merging: bool,
) -> (f32, Vec<Option<Tensor>>) {
    let mut gradients: Vec<(usize, Tensor)> = Vec::with_capacity(uploads.len());
    let mut shard_losses: Vec<(f32, usize)> = Vec::with_capacity(plan.route_groups());
    for shard in 0..plan.route_groups() {
        let routed = routed_uploads(uploads, plan, shard);
        if routed.is_empty() {
            continue; // A shard emptied by plan sanitising has nothing this round.
        }
        let samples: usize = routed.iter().map(|u| u.batch_size()).sum();
        let step = if merging {
            server.process_merged(shard, &routed)
        } else {
            server.process_sequential(shard, &routed)
        };
        shard_losses.push((step.loss, samples));
        gradients.extend(step.gradients);
    }
    (
        combine_shard_losses(&shard_losses),
        align_gradients(&plan.selected, gradients),
    )
}

/// The round loop: every iteration serialises worker forward → server step → gradient
/// application. Returns the summed iteration losses.
fn run_iterations(
    cohort: &mut [&mut SflWorker],
    train: &Dataset,
    server: &mut ShardedServer,
    traffic: &mut TrafficMeter,
    feature_bytes: f64,
    plan: &RoundPlan,
    tau: usize,
    params: &IterationParams,
) -> f32 {
    let mut loss_sum = 0.0f32;
    for _k in 0..tau {
        let uploads = forward_all(cohort, train, &plan.batch_sizes, params.parallel);
        record_feature_traffic(traffic, &uploads, feature_bytes);
        let (loss, grads) = server_iteration(server, &uploads, plan, params.merging);
        loss_sum += loss;
        apply_all(cohort, grads, &plan.batch_sizes, params);
    }
    loss_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_data::DatasetKind;

    fn tiny_config(non_iid: f32) -> RunConfig {
        let mut c = RunConfig::quick(DatasetKind::Har, non_iid, 42);
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
    fn merge_sfl_runs_and_records_every_round() {
        let config = tiny_config(10.0);
        let result = SflEngine::new(SflStrategy::merge_sfl(), &config).run();
        assert_eq!(result.records.len(), 4);
        assert!(result.final_accuracy() > 0.0);
        assert!(result.total_sim_time() > 0.0);
        assert!(result.total_traffic_mb() > 0.0);
        for r in &result.records {
            assert!(r.participants >= 1 && r.participants <= 4);
            assert!(r.total_batch >= r.participants);
            assert!(r.train_loss.is_finite());
        }
    }

    #[test]
    fn all_strategy_presets_run() {
        let config = tiny_config(5.0);
        for strategy in [
            SflStrategy::merge_sfl(),
            SflStrategy::merge_sfl_without_fm(),
            SflStrategy::merge_sfl_without_br(),
            SflStrategy::ada_sfl(),
            SflStrategy::locfedmix_sl(),
            SflStrategy::sfl_t(),
            SflStrategy::sfl_fm(),
            SflStrategy::sfl_br(),
        ] {
            let result = SflEngine::new(strategy, &config).run();
            assert_eq!(result.records.len(), config.rounds, "{}", strategy.name);
            assert!(result.final_accuracy() >= 0.0, "{}", strategy.name);
        }
    }

    #[test]
    fn training_improves_over_random_guessing() {
        let mut config = tiny_config(0.0);
        config.rounds = 8;
        config.local_iterations = Some(4);
        let result = SflEngine::new(SflStrategy::merge_sfl(), &config).run();
        // HAR analogue has 6 classes; random guessing is ~0.17.
        assert!(
            result.best_accuracy() > 0.3,
            "accuracy {} did not beat random guessing",
            result.best_accuracy()
        );
    }

    #[test]
    fn batch_regulation_lowers_waiting_time() {
        let config = tiny_config(0.0);
        let with_br = SflEngine::new(SflStrategy::merge_sfl(), &config).run();
        let without_br = SflEngine::new(SflStrategy::merge_sfl_without_br(), &config).run();
        assert!(
            with_br.mean_waiting_time() < without_br.mean_waiting_time(),
            "waiting with BR {} should be below without BR {}",
            with_br.mean_waiting_time(),
            without_br.mean_waiting_time()
        );
    }

    #[test]
    fn traffic_grows_monotonically() {
        let config = tiny_config(0.0);
        let result = SflEngine::new(SflStrategy::ada_sfl(), &config).run();
        let mut prev = 0.0;
        for r in &result.records {
            assert!(r.traffic_mb >= prev);
            prev = r.traffic_mb;
        }
    }

    #[test]
    fn evaluation_subsample_is_not_the_test_prefix() {
        // Regression for the eval-sampling bug: accuracy used to be measured on the first
        // `eval_samples` test samples. The subsample must be drawn from the whole set.
        let config = tiny_config(5.0);
        let engine = SflEngine::new(SflStrategy::merge_sfl(), &config);
        let indices = engine.eval_indices();
        assert_eq!(indices.len(), config.eval_samples);
        let prefix: Vec<usize> = (0..config.eval_samples).collect();
        assert_ne!(
            indices,
            prefix.as_slice(),
            "evaluation degenerated to the biased prefix"
        );
        assert!(
            indices.iter().any(|&i| i >= config.eval_samples),
            "evaluation subsample never left the first-n prefix"
        );
    }

    #[test]
    fn chunked_evaluation_handles_large_and_tiny_eval_sets() {
        // eval_samples above the chunk size exercises the chunked forward path;
        // eval_samples of 1 exercises the smallest chunk.
        for eval_samples in [1usize, 200] {
            let mut config = tiny_config(0.0);
            config.rounds = 2;
            config.eval_every = 1;
            config.eval_samples = eval_samples;
            let result = SflEngine::new(SflStrategy::merge_sfl(), &config).run();
            for r in &result.records {
                let acc = r.accuracy.expect("every round evaluates");
                assert!((0.0..=1.0).contains(&acc));
            }
        }
    }

    #[test]
    fn min_batch_boundary_round_survives() {
        // Regression for the merge-path hardening: with D = 1 every mechanism (regulation,
        // fine-tuning at min_batch == 1, budget rescale on a starved ingress budget) sits
        // on the batch-size floor. No panic, and every participant still holds >= 1 sample.
        let mut config = tiny_config(10.0);
        config.max_batch = 1;
        config.uniform_batch = 1;
        // A starved ingress budget drives the rescale path to its floor too.
        config.ps_ingress_mean_mbps = 0.01;
        for strategy in [SflStrategy::merge_sfl(), SflStrategy::locfedmix_sl()] {
            let result = SflEngine::new(strategy, &config).run();
            assert_eq!(result.records.len(), config.rounds, "{}", strategy.name);
            for r in &result.records {
                assert!(
                    r.participants >= 1,
                    "{}: empty cohort trained",
                    strategy.name
                );
                assert!(r.total_batch >= r.participants, "{}", strategy.name);
            }
        }
    }

    #[test]
    fn partition_divergence_reflects_non_iid_level() {
        let iid = SflEngine::new(SflStrategy::merge_sfl(), &tiny_config(0.0));
        let non_iid = SflEngine::new(SflStrategy::merge_sfl(), &tiny_config(10.0));
        assert!(non_iid.partition_divergence() > iid.partition_divergence());
        assert_eq!(iid.dataset_spec().name, "HAR");
    }
}
