//! The phase replay: the training round rebuilt outside the engines from public API only,
//! with a span around each call into a layer.
//!
//! The engines expose `new` and `run` and nothing in between, so the only way to see where
//! a round's wall-clock goes without editing them is to drive the same public functions in
//! the same order with the same `derive_seed` streams. [`replay_sfl`] mirrors
//! `SflEngine::{new, run_round}` (barrier loop, one server, no staleness) and
//! [`replay_fl`] mirrors `FlEngine::{new, run_round}` (round-robin selection). What the
//! replay leaves out — the traffic meter, the simulated clock, `RoundRecord` bookkeeping —
//! is what `engine.overhead_share` reports. Fidelity is checked, not assumed: the replayed
//! cohorts, batch sizes and loss bits are compared with the engine's own records
//! (`trace.replay_match`). Always runs at one thread.

use crate::span::Tracer;
use mergesfl::config::RunConfig;
use mergesfl::control::{ControlModule, ParticipationTracker, PlanOptions, StateEstimator};
use mergesfl::sfl::server::GRAD_CLIP_NORM;
use mergesfl::sfl::{
    align_gradients, merge_feature_refs, FeatureUpload, SflStrategy, SflWorker, ShardTopology,
    ShardedServer,
};
use mergesfl_data::{
    eval_subsample, partition_dirichlet, synth, Dataset, DatasetSpec, Partition, WorkerLoader,
};
use mergesfl_nn::model::weighted_average_states;
use mergesfl_nn::optim::LrSchedule;
use mergesfl_nn::rng::derive_seed;
use mergesfl_nn::zoo::{self, Architecture};
use mergesfl_nn::{pool, Sequential, Sgd, SoftmaxCrossEntropy, Tensor};
use mergesfl_simnet::{Cluster, ClusterConfig, ModelProfile};

/// `sfl::engine::FLEET_LOADER_TAG` (private there): the per-(client, round) loader stream
/// family of lazily materialised fleet cohorts.
const FLEET_LOADER_TAG: u64 = 0xF1EE_0000_0000_0000;

/// `sfl::engine::EVAL_CHUNK` (crate-private there): test samples per evaluation pass.
const EVAL_CHUNK: usize = 64;

/// Span capacity reserved per replay; the largest workload records about 2 000.
const SPAN_CAPACITY: usize = 1 << 14;

/// What one replayed round decided and computed, for the fidelity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayRound {
    pub cohort: usize,
    pub total_batch: usize,
    pub loss_bits: u32,
    pub records_touched: usize,
}

/// One complete replay of a workload.
pub struct Replay {
    pub tracer: Tracer,
    pub rounds: Vec<ReplayRound>,
    /// Every per-worker batch size planned, over all rounds.
    pub worker_batches: Vec<usize>,
    /// Bytes of the merged feature sequence (or of all per-worker uploads when the
    /// strategy does not merge), per iteration.
    pub merge_bytes: Vec<u64>,
    /// Heap allocations and bytes requested while the rounds ran (set-up excluded).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Tensor-pool checkouts, and pages minted, over the same region.
    pub pool: pool::PoolStats,
}

/// The data-plane set-up both engines share, with its two spans.
struct World {
    train: Dataset,
    test: Dataset,
    partition: Partition,
    architecture: Architecture,
    num_classes: usize,
    profile: ModelProfile,
    eval_indices: Vec<usize>,
    lr_schedule: LrSchedule,
    model_seed: u64,
}

/// The dataset spec a configuration trains on: the dataset's, with the configuration's
/// training-set size when it sets one (as both engines' `new` do).
pub fn dataset_spec(config: &RunConfig) -> DatasetSpec {
    let mut spec = config.dataset.spec();
    if let Some(train_size) = config.train_size {
        spec.train_size = train_size;
    }
    spec
}

fn build_world(config: &RunConfig, t: &mut Tracer) -> World {
    let spec = dataset_spec(config);
    let (train, test) = t.span("data.synth", |_| {
        synth::generate_default(&spec, derive_seed(config.seed, 1))
    });
    let min_per_worker = (config.max_batch * 2)
        .min(train.len() / config.num_workers)
        .max(4);
    let partition = t.span("data.partition", |_| {
        partition_dirichlet(
            &train,
            config.num_workers,
            config.non_iid_level,
            min_per_worker,
            derive_seed(config.seed, 2),
        )
    });
    let eval_indices = eval_subsample(test.len(), config.eval_samples, derive_seed(config.seed, 6));
    World {
        train,
        test,
        partition,
        architecture: spec.architecture,
        num_classes: spec.num_classes,
        profile: ModelProfile::for_architecture(spec.architecture),
        eval_indices,
        lr_schedule: LrSchedule::new(spec.initial_lr, spec.lr_decay),
        model_seed: derive_seed(config.seed, 4),
    }
}

impl World {
    fn cluster(&self, config: &RunConfig, clients: usize) -> Cluster {
        Cluster::new(
            &ClusterConfig {
                num_workers: clients,
                ps_ingress_mean_mbps: config.ps_ingress_mean_mbps,
                seed: derive_seed(config.seed, 3),
            },
            self.profile,
        )
    }

    fn model(&self) -> zoo::ArchSpec {
        zoo::build(self.architecture, self.num_classes, self.model_seed)
    }

    fn bottom(&self) -> Sequential {
        self.model().into_split().bottom
    }
}

fn evaluates(config: &RunConfig, round: usize) -> bool {
    round.is_multiple_of(config.eval_every) || round + 1 == config.rounds
}

/// Runs `rounds` with allocation and pool counters read around them.
fn counted(replay: &mut Replay, rounds: impl FnOnce(&mut Replay)) {
    let pool_mark = pool::stats();
    let (allocs, bytes) = (pool::heap_allocs(), pool::heap_bytes());
    rounds(replay);
    replay.allocs = pool::heap_allocs() - allocs;
    replay.alloc_bytes = pool::heap_bytes() - bytes;
    replay.pool = pool::stats().since(&pool_mark);
}

fn empty_replay() -> Replay {
    Replay {
        tracer: Tracer::with_capacity(SPAN_CAPACITY),
        rounds: Vec::new(),
        worker_batches: Vec::new(),
        merge_bytes: Vec::new(),
        allocs: 0,
        alloc_bytes: 0,
        pool: pool::PoolStats::default(),
    }
}

fn tensor_bytes(t: &Tensor) -> u64 {
    (t.data().len() * mergesfl_nn::F32_BYTES) as u64
}

/// Replays an SFL-family run.
pub fn replay_sfl(strategy: SflStrategy, config: &RunConfig) -> Replay {
    let mut replay = empty_replay();
    let t = &mut replay.tracer;
    let world = build_world(config, t);
    let fleet_mode = config.fleet_mode();
    let mut cluster = world.cluster(config, config.fleet_size());

    let split = world.model().into_split();
    let global_bottom = split.bottom.state();
    let eval_top = world.model().into_split().top;
    let mut server =
        ShardedServer::new(vec![split.top], eval_top, global_bottom, config.sync_every);
    server.set_staleness(config.staleness);

    let mut workers: Vec<SflWorker> = if fleet_mode {
        Vec::new()
    } else {
        world
            .partition
            .indices
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let seed = derive_seed(config.seed, 100 + i as u64);
                SflWorker::new(i, world.bottom(), shard.clone(), seed)
            })
            .collect()
    };
    let mut eval_bottom = world.bottom();

    let tau = config.tau();
    let mut control = ControlModule::new(
        world.partition.label_dists.clone(),
        config.max_batch,
        config.kl_epsilon,
        config.estimate_alpha as f64,
        world.profile.feature_bytes_per_sample,
        tau,
        derive_seed(config.seed, 5),
    );
    if fleet_mode {
        control = control.with_fleet(config.fleet_size(), config.churn_model());
    }
    let churn = config.churn_model();
    let options = PlanOptions {
        batch_regulation: strategy.batch_regulation,
        kl_selection: strategy.kl_selection,
        finetune: strategy.finetune,
        budget_rescale: strategy.budget_rescale,
        max_participants: config.participants_per_round,
        uniform_batch: config.uniform_batch,
        num_servers: server.num_shards(),
        topology: ShardTopology::Replicated,
    };

    counted(&mut replay, |replay| {
        for round in 0..config.rounds {
            replay.tracer.set_round(round);
            let outcome = replay.tracer.span("round", |t| {
                cluster.begin_round(round);
                if !fleet_mode {
                    t.span("simnet.observe", |_| {
                        for state in cluster.all_worker_states() {
                            control.observe_worker(
                                state.worker_id,
                                state.bottom_compute_per_sample,
                                state.transfer_per_sample,
                            );
                        }
                    });
                }
                let ingress = cluster.ps_ingress_budget();
                control.observe_ingress(ingress);
                let mut plan = t.span("control.plan", |_| {
                    control.plan_round(round, ingress, &options)
                });
                plan.drop_empty_participants();
                plan.drop_mid_round_departures(&churn, round);
                let records_touched = plan.records_touched;
                if plan.selected.is_empty() {
                    server.end_round(round);
                    return (plan, 0.0f32, records_touched);
                }

                let mut fleet_cohort: Vec<SflWorker> = Vec::new();
                if fleet_mode {
                    t.span("simnet.observe", |_| {
                        for &w in &plan.selected {
                            let state = cluster.worker_state(w);
                            control.observe_worker(
                                w,
                                state.bottom_compute_per_sample,
                                state.transfer_per_sample,
                            );
                        }
                    });
                    let shards = world.partition.indices.len();
                    fleet_cohort = t.span("worker.materialize", |_| {
                        plan.selected
                            .iter()
                            .map(|&c| {
                                let stream = derive_seed(config.seed, FLEET_LOADER_TAG | c as u64);
                                SflWorker::new(
                                    c,
                                    world.bottom(),
                                    world.partition.indices[c % shards].clone(),
                                    derive_seed(stream, round as u64),
                                )
                            })
                            .collect()
                    });
                }

                let lr = world.lr_schedule.at_round(round);
                let total_batch = plan.total_batch();
                let reference_batch = (total_batch / plan.selected.len().max(1)).max(1);
                server.set_lr(lr);

                // The cohort in plan order: the materialised clients, or disjoint borrows
                // of the persistent workers.
                let mut cohort: Vec<&mut SflWorker> = if fleet_mode {
                    fleet_cohort.iter_mut().collect()
                } else {
                    let mut slots: Vec<Option<&mut SflWorker>> =
                        workers.iter_mut().map(Some).collect();
                    plan.selected
                        .iter()
                        .map(|&w| slots[w].take().expect("a plan selects each worker once"))
                        .collect()
                };

                let global = server.global_bottom().to_vec();
                for worker in cohort.iter_mut() {
                    t.span("worker.load_bottom", |_| worker.load_bottom(&global));
                }

                let mut loss_sum = 0.0f32;
                for _ in 0..tau {
                    let uploads: Vec<FeatureUpload> = cohort
                        .iter_mut()
                        .zip(&plan.batch_sizes)
                        .map(|(worker, &d)| {
                            t.span("worker.forward", |_| {
                                worker.forward_iteration(&world.train, d)
                            })
                        })
                        .collect();
                    let routed: Vec<&FeatureUpload> = uploads.iter().collect();
                    let step = if strategy.feature_merging {
                        let merged = t.span("merge.merge", |_| merge_feature_refs(&routed));
                        replay.merge_bytes.push(tensor_bytes(&merged.features));
                        let step = t.span("server.begin_step", |_| server.begin_step(0, &merged));
                        t.span("server.finish_step", |_| server.finish_step(0));
                        step
                    } else {
                        replay
                            .merge_bytes
                            .push(uploads.iter().map(|u| tensor_bytes(&u.features)).sum());
                        t.span("server.sequential", |_| {
                            server.process_sequential(0, &routed)
                        })
                    };
                    loss_sum += step.loss;
                    let grads = t.span("merge.align", |_| {
                        align_gradients(&plan.selected, step.gradients)
                    });
                    for ((worker, grad), &d) in cohort.iter_mut().zip(grads).zip(&plan.batch_sizes)
                    {
                        if let Some(grad) = grad {
                            t.span("worker.backward", |_| {
                                worker.apply_merged_gradient(
                                    &grad,
                                    lr,
                                    d,
                                    total_batch,
                                    reference_batch,
                                    strategy.feature_merging,
                                )
                            });
                        }
                    }
                }

                let states: Vec<Vec<f32>> = cohort
                    .iter()
                    .map(|worker| t.span("worker.state", |_| worker.bottom_state()))
                    .collect();
                let weights: Vec<f32> = if strategy.weighted_aggregation {
                    plan.batch_sizes.iter().map(|&d| d as f32).collect()
                } else {
                    vec![1.0; plan.selected.len()]
                };
                t.span("server.aggregate", |_| {
                    server.aggregate_bottoms(&states, &weights)
                });
                for state in states {
                    pool::recycle(state);
                }
                control.record_participation(&plan.selected);
                server.end_round(round);

                if evaluates(config, round) {
                    t.span("server.eval", |_| {
                        server.load_global_bottom(&mut eval_bottom);
                        server.prepare_eval();
                        for chunk in world.eval_indices.chunks(EVAL_CHUNK) {
                            let (inputs, labels) = world.test.batch(chunk);
                            std::hint::black_box(server.evaluate_preloaded(
                                &mut eval_bottom,
                                &inputs,
                                &labels,
                            ));
                        }
                    });
                }
                (plan, loss_sum / tau as f32, records_touched)
            });
            let (plan, train_loss, records_touched) = outcome;
            replay.worker_batches.extend_from_slice(&plan.batch_sizes);
            replay.rounds.push(ReplayRound {
                cohort: plan.selected.len(),
                total_batch: plan.total_batch(),
                loss_bits: train_loss.to_bits(),
                records_touched,
            });
        }
    });
    replay
}

struct FlWorker {
    model: Sequential,
    optimizer: Sgd,
    loader: WorkerLoader,
    shard_size: usize,
}

/// Replays a FedAvg run (`FlSelection::RoundRobin`).
pub fn replay_fl(config: &RunConfig) -> Replay {
    let mut replay = empty_replay();
    let world = build_world(config, &mut replay.tracer);
    let mut cluster = world.cluster(config, config.num_workers);
    let mut global_model = world.model().model.state();
    let initial_lr = world.lr_schedule.at_round(0);
    let mut workers: Vec<FlWorker> = world
        .partition
        .indices
        .iter()
        .enumerate()
        .map(|(i, shard)| FlWorker {
            model: world.model().model,
            optimizer: Sgd::new(initial_lr, 0.0, 0.0).with_max_grad_norm(GRAD_CLIP_NORM),
            loader: WorkerLoader::new(shard.clone(), derive_seed(config.seed, 200 + i as u64)),
            shard_size: shard.len(),
        })
        .collect();
    let mut eval_model = world.model().model;
    let mut estimator = StateEstimator::new(config.num_workers, config.estimate_alpha as f64);
    let mut tracker = ParticipationTracker::new(config.num_workers);
    let loss = SoftmaxCrossEntropy::new();
    let tau = config.tau();
    let batch = config.uniform_batch;

    counted(&mut replay, |replay| {
        for round in 0..config.rounds {
            replay.tracer.set_round(round);
            let (selected, train_loss) = replay.tracer.span("round", |t| {
                cluster.begin_round(round);
                t.span("simnet.observe", |_| {
                    for state in cluster.all_worker_states() {
                        estimator.observe_worker(
                            state.worker_id,
                            state.full_compute_per_sample,
                            0.0,
                        );
                    }
                });
                let selected: Vec<usize> = t.span("control.plan", |_| {
                    tracker
                        .ranked()
                        .into_iter()
                        .take(config.participants_per_round)
                        .collect()
                });
                let lr = world.lr_schedule.at_round(round);
                let weights: Vec<f32> = selected
                    .iter()
                    .map(|&i| workers[i].shard_size as f32)
                    .collect();

                let mut loss_sum = 0.0f32;
                let mut states = Vec::with_capacity(selected.len());
                for &i in &selected {
                    let worker = &mut workers[i];
                    let (state, local_loss) = t.span("fl.local_train", |_| {
                        worker.model.load_state(&global_model);
                        worker.optimizer.reset_state();
                        worker.optimizer.set_lr(lr);
                        let mut local_loss = 0.0f32;
                        for _ in 0..tau {
                            let (inputs, labels) = worker.loader.next_batch(&world.train, batch);
                            worker.model.zero_grad();
                            let logits = worker.model.forward(&inputs, true);
                            let out = loss.forward(&logits, &labels);
                            worker.model.backward(&out.grad);
                            worker.optimizer.step(&mut worker.model);
                            local_loss += out.loss;
                        }
                        (worker.model.state(), local_loss)
                    });
                    states.push(state);
                    loss_sum += local_loss;
                }
                let aggregate = t.span("fl.aggregate", |_| {
                    weighted_average_states(&states, &weights)
                });
                pool::recycle(std::mem::replace(&mut global_model, aggregate));
                for state in states {
                    pool::recycle(state);
                }
                tracker.record_participation(&selected);

                if evaluates(config, round) {
                    t.span("fl.eval", |_| {
                        eval_model.load_state(&global_model);
                        for chunk in world.eval_indices.chunks(EVAL_CHUNK) {
                            let (inputs, labels) = world.test.batch(chunk);
                            let logits = eval_model.forward(&inputs, false);
                            std::hint::black_box(loss.forward(&logits, &labels).accuracy);
                        }
                    });
                }
                let train_loss = loss_sum / (tau * selected.len().max(1)) as f32;
                (selected, train_loss)
            });
            replay.worker_batches.extend(selected.iter().map(|_| batch));
            replay.merge_bytes.push(0);
            replay.rounds.push(ReplayRound {
                cohort: selected.len(),
                total_batch: batch * selected.len(),
                loss_bits: train_loss.to_bits(),
                records_touched: config.num_workers,
            });
        }
    });
    replay
}
