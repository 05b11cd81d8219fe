//! Cross-crate integration tests: full training runs of every approach on the quick
//! configuration, checking the qualitative claims of the paper hold end to end.

use mergesfl::config::{RunConfig, ShardTopology};
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

fn tiny(dataset: DatasetKind, p: f32, seed: u64) -> RunConfig {
    let mut c = RunConfig::quick(dataset, p, seed);
    c.num_workers = 10;
    c.rounds = 6;
    c.local_iterations = Some(3);
    c.participants_per_round = 5;
    c.train_size = Some(600);
    c.eval_every = 2;
    c.eval_samples = 150;
    c
}

#[test]
fn every_approach_variant_survives_a_two_round_quick_run() {
    // Table-driven smoke test over the full approach table — the five evaluation
    // approaches, the two ablations and the three motivation variants. Two rounds at
    // quick scale: enough to exercise selection, regulation, training, aggregation,
    // timing and metrics for every code path without slowing the suite down.
    let table: [(Approach, &str); 10] = [
        (Approach::MergeSfl, "MergeSFL"),
        (Approach::MergeSflWithoutFm, "MergeSFL w/o FM"),
        (Approach::MergeSflWithoutBr, "MergeSFL w/o BR"),
        (Approach::AdaSfl, "AdaSFL"),
        (Approach::LocFedMixSl, "LocFedMix-SL"),
        (Approach::FedAvg, "FedAvg"),
        (Approach::PyramidFl, "PyramidFL"),
        (Approach::SflT, "SFL-T"),
        (Approach::SflFm, "SFL-FM"),
        (Approach::SflBr, "SFL-BR"),
    ];
    for (approach, expected_name) in table {
        let mut config = tiny(DatasetKind::Har, 5.0, 19);
        config.rounds = 2;
        let result = run(approach, &config);
        assert_eq!(
            result.approach, expected_name,
            "{approach:?} reports the wrong name"
        );
        assert_eq!(
            result.records.len(),
            2,
            "{approach:?} did not complete both rounds"
        );
        assert!(
            result.final_accuracy() >= 0.0,
            "{approach:?} produced a bogus accuracy"
        );
        assert!(
            result.total_sim_time() > 0.0,
            "{approach:?} advanced no simulated time"
        );
        assert!(
            result.total_traffic_mb() > 0.0,
            "{approach:?} recorded no traffic"
        );
        assert!(
            result.records.iter().all(|r| r.train_loss.is_finite()),
            "{approach:?} produced a non-finite loss"
        );
    }
}

#[test]
fn every_paper_approach_trains_end_to_end() {
    let config = tiny(DatasetKind::Har, 5.0, 3);
    for approach in Approach::evaluation_set() {
        let result = run(approach, &config);
        assert_eq!(result.records.len(), config.rounds, "{:?}", approach);
        assert!(
            result.final_accuracy() > 0.0,
            "{:?} never evaluated above zero",
            approach
        );
        assert!(result.total_sim_time() > 0.0);
        assert!(result.total_traffic_mb() > 0.0);
    }
}

#[test]
fn sfl_saves_traffic_compared_to_full_model_fl() {
    // The paper's Fig. 8 shape: model splitting saves most of the traffic because only
    // bottom models and per-sample features cross the network.
    let config = tiny(DatasetKind::Cifar10, 0.0, 5);
    let merge = run(Approach::MergeSfl, &config);
    let fedavg = run(Approach::FedAvg, &config);
    assert!(
        merge.total_traffic_mb() < fedavg.total_traffic_mb(),
        "MergeSFL traffic {} should be below FedAvg traffic {}",
        merge.total_traffic_mb(),
        fedavg.total_traffic_mb()
    );
}

#[test]
fn batch_regulation_reduces_waiting_time_on_heterogeneous_cluster() {
    // The paper's Fig. 9 shape: approaches with batch regulation wait far less than
    // fixed-batch approaches. AdaSFL vs LocFedMix-SL isolates exactly that mechanism (both
    // use the same cohort selection; only the batch assignment differs).
    let config = tiny(DatasetKind::Har, 0.0, 7);
    let adasfl = run(Approach::AdaSfl, &config);
    let locfedmix = run(Approach::LocFedMixSl, &config);
    assert!(
        adasfl.mean_waiting_time() < locfedmix.mean_waiting_time(),
        "AdaSFL waiting {} should be below LocFedMix-SL waiting {}",
        adasfl.mean_waiting_time(),
        locfedmix.mean_waiting_time()
    );
}

#[test]
fn feature_merging_produces_a_distinct_training_trajectory() {
    // Regression guard for the merging path itself: with every other mechanism shared,
    // merged top-model updates (one step on the mixed batch) and sequential per-worker
    // updates must produce different loss trajectories. If `process_merged` silently
    // degenerated into sequential processing, these traces would be identical.
    let config = tiny(DatasetKind::Har, 10.0, 11);
    let merge = run(Approach::MergeSfl, &config);
    let without_fm = run(Approach::MergeSflWithoutFm, &config);
    let losses = |r: &mergesfl::metrics::RunResult| {
        r.records.iter().map(|x| x.train_loss).collect::<Vec<_>>()
    };
    assert_ne!(
        losses(&merge),
        losses(&without_fm),
        "feature merging changed nothing about training"
    );
}

#[test]
fn kl_selection_steers_the_cohort_label_mixture_toward_iid() {
    // The paper's Fig. 5 mechanism: KL-driven selection plus batch fine-tuning keep the
    // merged batch's label mixture close to the IID reference, which plain SFL with
    // heterogeneity-oblivious selection does not. (The isolated accuracy delta of the
    // w/o-FM ablation — Fig. 11 — is noise-dominated at this quick synthetic scale, so
    // the suite asserts the statistical mechanism end to end instead; the figure itself
    // is regenerated by `fig11_ablation` at larger scales.)
    let mut config = tiny(DatasetKind::Har, 10.0, 11);
    config.rounds = 8;
    let merge = run(Approach::MergeSfl, &config);
    let locfedmix = run(Approach::LocFedMixSl, &config);
    let mean_kl = |r: &mergesfl::metrics::RunResult| {
        r.records.iter().map(|x| x.cohort_kl).sum::<f32>() / r.records.len() as f32
    };
    assert!(
        mean_kl(&merge) < mean_kl(&locfedmix),
        "MergeSFL cohort KL {} should be below LocFedMix-SL's {}",
        mean_kl(&merge),
        mean_kl(&locfedmix)
    );
    // And the full system still trains: well above random guessing for 6 classes.
    assert!(
        merge.best_accuracy() > 0.3,
        "MergeSFL accuracy {} did not clear random guessing",
        merge.best_accuracy()
    );
}

#[test]
fn sharded_training_still_converges() {
    // Convergence regression for the multi-shard topology: with the top model replicated
    // across 4 PS shards (each stepping on its routed quarter of the merged batch) and
    // periodic cross-shard averaging, MergeSFL must still clear random guessing by a
    // wide margin on the quick HAR configuration — replication-with-sync trades a little
    // statistical efficiency for server scale-out, not convergence.
    let mut config = tiny(DatasetKind::Har, 0.0, 19);
    config.rounds = 8;
    config.local_iterations = Some(4);
    config.num_servers = 4;
    config.sync_every = 2;
    config.topology = ShardTopology::Replicated;
    let result = run(Approach::MergeSfl, &config);
    assert_eq!(result.records.len(), 8);
    // HAR analogue has 6 classes; random guessing is ~0.17.
    assert!(
        result.best_accuracy() > 0.3,
        "4-shard accuracy {} did not clear random guessing",
        result.best_accuracy()
    );
    for r in &result.records {
        assert!(r.train_loss.is_finite());
    }
}

#[test]
fn output_partitioning_is_exact_while_replication_trails() {
    // The topology comparison behind fig8's server-scale-out story, at S = 4 on one
    // seed: output partitioning computes the exact single-server step (its accuracy
    // series must match bit for bit), while the replicated topology's periodic averaging
    // (sync_every = 2) perturbs the trajectory — each replica steps on a skewed quarter
    // of the merged batch between syncs — and trails the exact trajectory's accuracy on
    // this non-IID configuration. Staleness is pinned to 0 because the CI matrix may set
    // MERGESFL_STALENESS for the whole suite, and the comparison is about synchronous
    // replication.
    let configure = |servers: usize, topology: ShardTopology, sync_every: usize| {
        let mut c = tiny(DatasetKind::Har, 10.0, 23);
        c.rounds = 8;
        c.local_iterations = Some(4);
        c.eval_every = 1;
        c.num_servers = servers;
        c.topology = topology;
        c.sync_every = sync_every;
        c.staleness = 0;
        c
    };
    let single = run(
        Approach::MergeSfl,
        &configure(1, ShardTopology::Replicated, 1),
    );
    let partitioned = run(
        Approach::MergeSfl,
        &configure(4, ShardTopology::OutputPartitioned, 1),
    );
    let replicated = run(
        Approach::MergeSfl,
        &configure(4, ShardTopology::Replicated, 2),
    );

    let accuracy =
        |r: &mergesfl::metrics::RunResult| r.records.iter().map(|x| x.accuracy).collect::<Vec<_>>();
    let losses = |r: &mergesfl::metrics::RunResult| {
        r.records.iter().map(|x| x.train_loss).collect::<Vec<_>>()
    };
    assert_eq!(
        accuracy(&partitioned),
        accuracy(&single),
        "partitioned accuracy series must equal the single server bit for bit"
    );
    assert_eq!(losses(&partitioned), losses(&single));
    assert_ne!(
        losses(&replicated),
        losses(&single),
        "replica averaging should perturb the trajectory between syncs"
    );
    assert!(
        replicated.best_accuracy() < partitioned.best_accuracy(),
        "replicated (sync_every=2) accuracy {} should trail the exact partitioned {}",
        replicated.best_accuracy(),
        partitioned.best_accuracy()
    );

    // Both topologies' per-round server-plane traffic is recorded for fig8: the
    // partitioned run pays a per-iteration activation exchange every round, the
    // replicated run pays periodic whole-state syncs; both roll into the traffic curve.
    for r in &partitioned.records {
        assert_eq!(r.topology, ShardTopology::OutputPartitioned);
        assert!(
            r.exchange_bytes > 0.0,
            "round {} lost its exchange",
            r.round
        );
        assert_eq!(r.cross_sync_seconds, 0.0);
    }
    assert!(replicated.records.iter().all(|r| r.exchange_bytes == 0.0));
    assert!(
        replicated
            .records
            .iter()
            .any(|r| r.cross_sync_seconds > 0.0),
        "replicated run never synced"
    );
    assert!(
        partitioned.total_traffic_mb() > single.total_traffic_mb(),
        "the activation exchange must show up in the traffic curve"
    );
    assert!(
        replicated.total_traffic_mb() > single.total_traffic_mb(),
        "the periodic state sync must show up in the traffic curve"
    );
}

#[test]
fn shard_aware_budget_rescaling_grows_the_solved_batches() {
    // The control-plane half of the scale-out: on a fig9-style configuration whose
    // ingress budget binds at one NIC, budgeting the cohort against the aggregate
    // S·B^h link capacity yields strictly larger solved batch sizes at S = 4 — visible
    // in the recorded per-round plans — without ever exceeding the per-worker cap D.
    // Seed re-probed after the bandwidth jitter streams were re-namespaced (the old
    // tag space collided at worker 0): 91's round-1 cohorts no longer bind the link.
    let configure = |servers: usize, topology: ShardTopology| {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 92);
        c.rounds = 4;
        // Starve the single link so the budget-rescale step binds below the cohort's
        // regulated batches (quick HAR: ~2 kB features/sample, regulated cohorts of
        // 40–70 samples need ~90–145 kB/iteration; 0.5 Mb/s offers at most ~75 kB).
        c.ps_ingress_mean_mbps = 0.5;
        c.num_servers = servers;
        c.topology = topology;
        c
    };
    for topology in [ShardTopology::Replicated, ShardTopology::OutputPartitioned] {
        let single = run(Approach::MergeSfl, &configure(1, topology));
        let sharded = run(Approach::MergeSfl, &configure(4, topology));
        for (s, m) in single.records.iter().zip(&sharded.records) {
            assert!(
                m.total_batch > s.total_batch,
                "{topology:?} round {}: aggregate budget did not grow the solve \
                 ({} vs {})",
                s.round,
                m.total_batch,
                s.total_batch
            );
            assert!(
                m.total_batch <= m.participants * 16,
                "{topology:?} round {}: a worker exceeded the quick-config cap D=16",
                s.round
            );
        }
    }
}

#[test]
fn runs_are_reproducible_for_a_fixed_seed() {
    let config = tiny(DatasetKind::Har, 5.0, 13);
    let a = run(Approach::MergeSfl, &config);
    let b = run(Approach::MergeSfl, &config);
    assert_eq!(a.final_accuracy(), b.final_accuracy());
    assert_eq!(a.total_sim_time(), b.total_sim_time());
    assert_eq!(a.total_traffic_mb(), b.total_traffic_mb());
}

#[test]
fn different_seeds_produce_different_trajectories() {
    let a = run(Approach::MergeSfl, &tiny(DatasetKind::Har, 5.0, 17));
    let b = run(Approach::MergeSfl, &tiny(DatasetKind::Har, 5.0, 18));
    assert_ne!(a.total_sim_time(), b.total_sim_time());
}
