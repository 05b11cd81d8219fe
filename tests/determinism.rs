//! Determinism regression tests: identical seeds give bit-identical run traces, and the
//! threaded fan-out produces exactly the same records as sequential execution —
//! parallelism must never change results, only wall-clock time. `RunConfig::pipeline`
//! selects only the simulated clock's schedule: it may change the simulated time series
//! (the overlap-aware makespan instead of the barrier sum), never the model trajectory.

use mergesfl::config::{RunConfig, ShardTopology};
use mergesfl::experiment::{run, Approach};
use mergesfl::metrics::RunResult;
use mergesfl_data::DatasetKind;

/// Everything about a run except the simulated-time series: the model trajectory
/// (accuracy, loss), the traffic, the cohort decisions, and the per-round makespans of
/// *both* schedules (which depend only on the plan and cluster, not on which schedule
/// advanced the clock). Pipelined and barrier runs must agree on all of it bit for bit.
#[allow(
    clippy::type_complexity,
    reason = "a flat tuple compared with assert_eq!, never named elsewhere"
)]
fn trajectory(r: &RunResult) -> Vec<(usize, Option<f32>, f32, f64, f64, f64, usize, usize, f32)> {
    r.records
        .iter()
        .map(|x| {
            (
                x.round,
                x.accuracy,
                x.train_loss,
                x.traffic_mb,
                x.round_makespan_barrier,
                x.round_makespan_pipelined,
                x.participants,
                x.total_batch,
                x.cohort_kl,
            )
        })
        .collect()
}

fn tiny(seed: u64) -> RunConfig {
    let mut c = RunConfig::quick(DatasetKind::Har, 5.0, seed);
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
fn repeated_runs_yield_identical_round_records() {
    let config = tiny(21);
    let a = run(Approach::MergeSfl, &config);
    let b = run(Approach::MergeSfl, &config);
    assert_eq!(
        a, b,
        "two runs with the same seed must produce identical traces"
    );
}

#[test]
fn parallel_matches_sequential_exactly_for_sfl() {
    let mut sequential = tiny(22);
    sequential.parallel = false;
    let mut parallel = tiny(22);
    parallel.parallel = true;
    let a = run(Approach::MergeSfl, &sequential);
    let b = run(Approach::MergeSfl, &parallel);
    assert_eq!(
        a, b,
        "parallel SFL execution must be bit-identical to sequential"
    );
}

#[test]
fn parallel_matches_sequential_exactly_for_fl() {
    let mut sequential = tiny(23);
    sequential.parallel = false;
    let mut parallel = tiny(23);
    parallel.parallel = true;
    let a = run(Approach::FedAvg, &sequential);
    let b = run(Approach::FedAvg, &parallel);
    assert_eq!(
        a, b,
        "parallel FL execution must be bit-identical to sequential"
    );
}

#[test]
fn parallel_matches_sequential_at_scalability_config() {
    // The fig12 scalability shape at 50 workers: the parallel fan-out must not change a
    // single record even when many workers train per round.
    let mut config = RunConfig::quick(DatasetKind::Har, 10.0, 121);
    config.num_workers = 50;
    config.rounds = 3;
    config.local_iterations = Some(2);
    config.participants_per_round = 10;
    config.train_size = Some(1000);
    config.eval_every = 3;
    config.eval_samples = 100;

    let mut sequential = config.clone();
    sequential.parallel = false;
    let mut parallel = config;
    parallel.parallel = true;
    for approach in [Approach::MergeSfl, Approach::FedAvg] {
        let a = run(approach, &sequential);
        let b = run(approach, &parallel);
        assert_eq!(
            a, b,
            "{approach:?} diverged between parallel and sequential"
        );
    }
}

#[test]
fn pipelined_matches_barrier_trajectory_bit_for_bit() {
    // The clock-schedule contract: `pipeline` picks which makespan advances the simulated
    // clock and nothing else — the trajectory never reads the schedule. Every SFL-family
    // flavour (merged and sequential top updates) and both FL baselines must produce
    // identical model trajectories, and the pipelined clock must run ahead.
    for approach in [
        Approach::MergeSfl,
        Approach::LocFedMixSl,
        Approach::FedAvg,
        Approach::PyramidFl,
    ] {
        let mut barrier = tiny(31);
        barrier.pipeline = false;
        let mut pipelined = tiny(31);
        pipelined.pipeline = true;
        let a = run(approach, &barrier);
        let b = run(approach, &pipelined);
        assert_eq!(
            trajectory(&a),
            trajectory(&b),
            "{approach:?} trajectory diverged between the barrier and pipelined schedules"
        );
        assert!(
            b.total_sim_time() < a.total_sim_time(),
            "{approach:?}: pipelined sim time {} should beat barrier {}",
            b.total_sim_time(),
            a.total_sim_time()
        );
    }
}

#[test]
fn pipelined_makespan_wins_on_the_straggler_heavy_config() {
    // The fig9 setting (p = 10, heterogeneous quick cluster): the overlap-aware makespan
    // must be strictly below the barrier sum in **every** round — the server's
    // overlappable stage and the workers' stage are both always non-empty.
    let config = RunConfig::quick(DatasetKind::Har, 10.0, 91);
    let result = run(Approach::MergeSfl, &config);
    for r in &result.records {
        assert!(
            r.round_makespan_pipelined < r.round_makespan_barrier,
            "round {}: pipelined makespan {} not below barrier {}",
            r.round,
            r.round_makespan_pipelined,
            r.round_makespan_barrier
        );
    }
    assert!(result.total_pipelined_makespan() < result.total_barrier_makespan());
}

#[test]
fn single_shard_is_bit_identical_to_the_reference_across_the_full_matrix() {
    // The sharding contract: with num_servers = 1 and sync_every = 1 the sharded server
    // must BE the single-server engine, whatever the fan-out. The reference is the
    // sequential run; parallel and sequential fan-out must agree on the full trajectory,
    // and an inert sync period must not perturb a single bit.
    let reference = {
        let mut c = tiny(41);
        c.num_servers = 1;
        c.sync_every = 1;
        c.parallel = false;
        trajectory(&run(Approach::MergeSfl, &c))
    };
    for parallel in [false, true] {
        for sync_every in [1, 3] {
            let mut c = tiny(41);
            c.num_servers = 1;
            c.sync_every = sync_every;
            c.parallel = parallel;
            let got = trajectory(&run(Approach::MergeSfl, &c));
            assert_eq!(
                got, reference,
                "num_servers=1 sync_every={sync_every} parallel={parallel} \
                 diverged from the single-server oracle"
            );
        }
    }
}

#[test]
fn sharded_trajectories_are_schedule_independent() {
    // Multi-shard runs change the trajectory (each shard steps on its routed sub-batch),
    // but they must carry the same contract as the single server: parallel fan-out never
    // changes arithmetic, only scheduling. Both merged (MergeSFL) and sequential
    // (LocFedMix-SL) top-update paths are pinned.
    for approach in [Approach::MergeSfl, Approach::LocFedMixSl] {
        let [sequential, parallel] = [false, true].map(|parallel| {
            let mut c = tiny(42);
            c.num_servers = 4;
            c.sync_every = 2;
            c.parallel = parallel;
            trajectory(&run(approach, &c))
        });
        assert_eq!(
            parallel, sequential,
            "{approach:?} 4-shard parallel run diverged from the sequential one"
        );
    }
}

#[test]
fn four_shards_report_a_strictly_smaller_pipelined_makespan() {
    // The horizontal-scaling claim of the sharded server (fig9 timing model): routing the
    // cohort across 4 PS instances shrinks every round's server segment, and the total
    // pipelined makespan — cross-shard sync costs included — is strictly below the
    // 1-shard counterpart. Plans are identical across the two runs (the control module
    // does not feed training results back), so the comparison isolates the server layout.
    let single = {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 91);
        c.num_servers = 1;
        c.sync_every = 1;
        c.topology = ShardTopology::Replicated;
        run(Approach::MergeSfl, &c)
    };
    let sharded = {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 91);
        c.num_servers = 4;
        c.sync_every = 2;
        c.topology = ShardTopology::Replicated;
        run(Approach::MergeSfl, &c)
    };
    assert!(
        sharded.total_pipelined_makespan() < single.total_pipelined_makespan(),
        "4-shard pipelined makespan {} not below 1-shard {}",
        sharded.total_pipelined_makespan(),
        single.total_pipelined_makespan()
    );
    assert!(
        sharded.total_barrier_makespan() < single.total_barrier_makespan(),
        "4-shard barrier makespan {} not below 1-shard {}",
        sharded.total_barrier_makespan(),
        single.total_barrier_makespan()
    );
    // The per-shard breakdown is recorded: multi-shard rounds report one entry per
    // shard whose batches sum to the merged batch, and sync rounds charge a sync.
    for r in &sharded.records {
        assert!(
            r.shards.len() > 1,
            "round {} lost its shard breakdown",
            r.round
        );
        let sum: usize = r.shards.iter().map(|s| s.batch).sum();
        assert_eq!(
            sum, r.total_batch,
            "round {} shard batches disagree",
            r.round
        );
    }
    assert!(
        sharded.records.iter().any(|r| r.cross_sync_seconds > 0.0),
        "no round charged a cross-shard sync"
    );
    assert!(
        sharded
            .records
            .iter()
            .any(|r| r.cross_sync_seconds == 0.0 && r.participants > 0),
        "sync_every=2 should leave sync-free rounds"
    );
}

/// The model trajectory alone — accuracy, loss and the plan columns, without the time or
/// traffic series. Output partitioning is *exact*, so this projection must match the
/// single-server run bit for bit; the simulated time and server-plane traffic legitimately
/// differ (stripe ingress, divided server step, activation-exchange cost).
fn model_trajectory(r: &RunResult) -> Vec<(usize, Option<f32>, f32, usize, usize, f32)> {
    r.records
        .iter()
        .map(|x| {
            (
                x.round,
                x.accuracy,
                x.train_loss,
                x.participants,
                x.total_batch,
                x.cohort_kl,
            )
        })
        .collect()
}

#[test]
fn output_partitioned_shards_are_bit_identical_to_the_single_server() {
    // The exactness contract of the output-partitioned topology: S classifier slices
    // exchanging partial activations compute the *same* global step as one server —
    // partial-logit all-gather, gradient-slice scatter, canonical-order trunk all-reduce
    // and the shared clip scale reproduce the unsharded arithmetic bit for bit, under
    // parallel and sequential fan-out and for both merged (MergeSFL) and sequential
    // (LocFedMix-SL) top updates.
    for approach in [Approach::MergeSfl, Approach::LocFedMixSl] {
        let reference = {
            let mut c = tiny(51);
            c.num_servers = 1;
            c.topology = ShardTopology::Replicated;
            c.parallel = false;
            model_trajectory(&run(approach, &c))
        };
        for shards in [2usize, 4] {
            for parallel in [false, true] {
                let mut c = tiny(51);
                c.num_servers = shards;
                c.topology = ShardTopology::OutputPartitioned;
                c.parallel = parallel;
                let got = run(approach, &c);
                assert_eq!(
                    model_trajectory(&got),
                    reference,
                    "{approach:?} partitioned shards={shards} parallel={parallel} \
                     diverged from the single-server oracle"
                );
                // The topology and its per-round exchange are recorded.
                for r in &got.records {
                    assert_eq!(r.topology, ShardTopology::OutputPartitioned);
                    assert!(
                        r.exchange_bytes > 0.0,
                        "round {} recorded no activation exchange",
                        r.round
                    );
                }
            }
        }
    }
}

#[test]
fn four_partitioned_shards_divide_the_server_critical_term() {
    // The scaling claim of output partitioning (fig9 timing model): slicing the
    // classifier across 4 instances divides every round's server-critical term — the
    // segment that gates gradient dispatch in *both* schedules — and, with the
    // activation exchange charged, both whole-round makespans still beat the single
    // server on the fig9 configuration.
    let single = {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 91);
        c.num_servers = 1;
        c.topology = ShardTopology::Replicated;
        run(Approach::MergeSfl, &c)
    };
    let partitioned = {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 91);
        c.num_servers = 4;
        c.topology = ShardTopology::OutputPartitioned;
        run(Approach::MergeSfl, &c)
    };
    for (s, p) in single.records.iter().zip(&partitioned.records) {
        assert_eq!(s.round, p.round);
        let single_critical = s
            .shards
            .iter()
            .map(|x| x.server_critical_seconds)
            .fold(0.0, f64::max);
        let partitioned_critical = p
            .shards
            .iter()
            .map(|x| x.server_critical_seconds)
            .fold(0.0, f64::max);
        assert_eq!(p.shards.len(), 4, "round {} lost its breakdown", p.round);
        assert!(
            partitioned_critical < single_critical,
            "round {}: partitioned critical {partitioned_critical} not below \
             single-server {single_critical}",
            p.round
        );
        // Stripe ingress: per-shard batches are an even split summing to the merged batch.
        let stripe_sum: usize = p.shards.iter().map(|x| x.batch).sum();
        assert_eq!(stripe_sum, p.total_batch, "round {}", p.round);
        assert!(
            p.round_makespan_barrier < s.round_makespan_barrier,
            "round {}: barrier {} not below single {}",
            p.round,
            p.round_makespan_barrier,
            s.round_makespan_barrier
        );
        assert!(
            p.round_makespan_pipelined < s.round_makespan_pipelined,
            "round {}: pipelined {} not below single {}",
            p.round,
            p.round_makespan_pipelined,
            s.round_makespan_pipelined
        );
        // Partitioning exchanges activations instead of syncing state.
        assert_eq!(p.cross_sync_seconds, 0.0);
        assert!(p.exchange_bytes > 0.0);
    }
}

#[test]
fn zero_staleness_is_bit_identical_to_the_barrier_oracle_across_the_matrix() {
    // The k = 0 contract of the bounded-staleness mode: with the window at zero no
    // snapshot is ever taken, so in every cell of the shards × topology matrix the
    // parallel run must reproduce the sequential one bit for bit — exactly the guarantee
    // the pre-staleness engine gave. Staleness is pinned explicitly on both sides because
    // the CI matrix may set MERGESFL_STALENESS for the whole suite.
    for (servers, topology) in [
        (1, ShardTopology::Replicated),
        (4, ShardTopology::Replicated),
        (1, ShardTopology::OutputPartitioned),
        (4, ShardTopology::OutputPartitioned),
    ] {
        let [sequential, parallel] = [false, true].map(|parallel| {
            let mut c = tiny(61);
            c.num_servers = servers;
            c.sync_every = 2;
            c.topology = topology;
            c.parallel = parallel;
            c.staleness = 0;
            run(Approach::MergeSfl, &c)
        });
        assert_eq!(
            trajectory(&parallel),
            trajectory(&sequential),
            "staleness=0 servers={servers} topology={}: the parallel run diverged from \
             the sequential one",
            topology.name()
        );
        // Synchronous rounds record no version-lag histogram.
        for got in [&sequential, &parallel] {
            assert!(got
                .records
                .iter()
                .all(|r| r.staleness == 0 && r.version_lag.is_empty()));
        }
    }
}

#[test]
fn stale_trajectories_are_schedule_independent() {
    // k > 0 deliberately changes the trajectory (gradients come from older versions),
    // but the per-group sequence of begin/finish steps is identical under either fan-out:
    // parallel execution must not change a single bit even under a positive window, for
    // both merged and sequential top-update paths.
    for approach in [Approach::MergeSfl, Approach::LocFedMixSl] {
        for (servers, sync_every) in [(1usize, 1usize), (4, 2)] {
            let [sequential, parallel] = [false, true].map(|parallel| {
                let mut c = tiny(62);
                c.num_servers = servers;
                c.sync_every = sync_every;
                c.staleness = 2;
                c.parallel = parallel;
                trajectory(&run(approach, &c))
            });
            assert_eq!(
                parallel, sequential,
                "{approach:?} staleness=2 servers={servers}: the parallel run diverged"
            );
        }
    }
}

#[test]
fn tensor_pool_is_bit_identical_across_the_execution_matrix() {
    // The pooling contract: checking buffers out of the size-classed arena changes where
    // bytes live, never their values. Parallel and sequential fan-out — under replicated
    // and output-partitioned shard layouts, which recycle merge staging and ring
    // snapshots through the pool — must each produce the same trace with the pool off and
    // on. Both runs happen inside one test because `run` flips the
    // process-wide pool switch. (`RunResult` equality already ignores the `pool_*`
    // gauges, which legitimately differ between a cold heap and a warm arena.)
    for (servers, topology) in [
        (1, ShardTopology::Replicated),
        (2, ShardTopology::Replicated),
        (2, ShardTopology::OutputPartitioned),
    ] {
        for parallel in [false, true] {
            let mut unpooled = tiny(71);
            unpooled.num_servers = servers;
            unpooled.sync_every = 2;
            unpooled.topology = topology;
            unpooled.parallel = parallel;
            unpooled.tensor_pool = false;
            let mut pooled = unpooled.clone();
            pooled.tensor_pool = true;
            let a = run(Approach::MergeSfl, &unpooled);
            let b = run(Approach::MergeSfl, &pooled);
            assert_eq!(
                a,
                b,
                "servers={servers} topology={} parallel={parallel}: \
                 pooled run diverged from the unpooled oracle",
                topology.name()
            );
        }
    }
}

#[test]
fn trivial_fleet_is_bit_identical_to_the_classic_path_across_the_matrix() {
    // The fleet axis's compatibility contract: registering exactly one client per data
    // shard (`fleet == Some(num_workers)`) with churn off must BE the classic dense
    // loop — same cluster, same plans, same loader streams, same records, bit for bit —
    // in every parallel × topology cell. Both sides pin the fleet knobs
    // explicitly because the CI matrix may export MERGESFL_FLEET for the whole suite.
    for topology in [ShardTopology::Replicated, ShardTopology::OutputPartitioned] {
        for parallel in [false, true] {
            let mut without_fleet = tiny(81);
            without_fleet.num_servers = 2;
            without_fleet.topology = topology;
            without_fleet.fleet = None;
            without_fleet.churn = false;
            without_fleet.parallel = parallel;
            let mut with_fleet = without_fleet.clone();
            with_fleet.fleet = Some(with_fleet.num_workers);
            let a = run(Approach::MergeSfl, &without_fleet);
            let b = run(Approach::MergeSfl, &with_fleet);
            assert_eq!(
                b,
                a,
                "fleet=Some(W) churn=off topology={} parallel={parallel} \
                 diverged from the fleet-less oracle",
                topology.name()
            );
        }
    }
}

#[test]
fn every_engine_is_deterministic_across_modes() {
    // One SFL-family and one FL-family approach beyond the headline pair, so a future
    // strategy-specific code path cannot silently lose determinism.
    for approach in [Approach::AdaSfl, Approach::PyramidFl] {
        let config = tiny(24);
        let a = run(approach, &config);
        let mut flipped = tiny(24);
        flipped.parallel = !config.parallel;
        let b = run(approach, &flipped);
        assert_eq!(a, b, "{approach:?} diverged between execution modes");
    }
}
