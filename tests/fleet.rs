//! Fleet-scale regression tests: the event-driven control plane must keep per-round
//! memory and compute proportional to the *active cohort*, not the registered fleet.
//!
//! The binary installs `mergesfl_nn::pool::CountingAlloc` (the workspace's audited
//! allocation probe) as its global allocator so the memory claims are asserted against
//! real allocation totals, not proxies: registering 10^5 clients may only cost a compact
//! per-client record, and a 10^5-registered round must stay within an order of magnitude
//! of the classic 80-worker run in both allocated bytes and wall time. All tests
//! serialise on one mutex — the byte counter is process-global.

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl::sfl::{SflEngine, SflStrategy};
use mergesfl_data::DatasetKind;
use mergesfl_nn::pool::{heap_bytes, CountingAlloc};
use std::sync::Mutex;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serialises the tests of this binary so each measured section owns the counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// The 80-worker fig12 shape at cohort 64 on the classic dense path.
fn cohort64(seed: u64) -> RunConfig {
    let mut c = RunConfig::quick(DatasetKind::Har, 5.0, seed);
    c.num_workers = 80;
    c.participants_per_round = 64;
    c.rounds = 2;
    c.local_iterations = Some(1);
    c.train_size = Some(800);
    c.eval_every = 8;
    c.eval_samples = 60;
    c
}

#[test]
fn registering_one_hundred_thousand_clients_costs_a_compact_record_each() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dense_cfg = cohort64(17);
    let mut fleet_cfg = cohort64(17);
    fleet_cfg.fleet = Some(100_000);

    let before = heap_bytes();
    let dense = SflEngine::new(SflStrategy::merge_sfl(), &dense_cfg);
    let dense_bytes = heap_bytes() - before;

    let before = heap_bytes();
    let fleet = SflEngine::new(SflStrategy::merge_sfl(), &fleet_cfg);
    let fleet_bytes = heap_bytes() - before;

    // Everything but the registry (dataset, partition, server, eval state) is identical
    // between the two constructions, so the difference is what 99 920 extra registered
    // clients cost: the estimator slot, the participation-priority entry, and nothing
    // else — no worker state, no model replica, no per-client simulator object.
    let extra = fleet_bytes.saturating_sub(dense_bytes);
    let per_client = extra as f64 / 100_000.0;
    assert!(
        per_client <= 256.0,
        "registering 10^5 clients cost {per_client:.0} bytes each \
         (dense construction {dense_bytes} B, fleet construction {fleet_bytes} B); \
         the compact-record contract allows at most 256"
    );
    drop((dense, fleet));
}

#[test]
fn a_hundred_thousand_client_round_stays_within_ten_x_of_the_dense_run() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Dense oracle first: it also absorbs one-time process costs (thread pool, tensor
    // pool arena), which only biases the comparison *against* the fleet run.
    let dense_cfg = cohort64(18);
    let before = heap_bytes();
    let started = Instant::now();
    let dense = run(Approach::MergeSfl, &dense_cfg);
    let dense_seconds = started.elapsed().as_secs_f64();
    let dense_bytes = heap_bytes() - before;

    let mut fleet_cfg = cohort64(18);
    fleet_cfg.fleet = Some(100_000);
    let before = heap_bytes();
    let started = Instant::now();
    let fleet = run(Approach::MergeSfl, &fleet_cfg);
    let fleet_seconds = started.elapsed().as_secs_f64();
    let fleet_bytes = heap_bytes() - before;

    // The acceptance bound of the fleet tentpole: same cohort size, 1250x the
    // registered fleet, at most ~10x the time and memory. In practice both ratios sit
    // near 1.
    assert!(
        fleet_bytes as f64 <= 10.0 * dense_bytes as f64,
        "10^5-registered run allocated {fleet_bytes} B, more than 10x the dense run's {dense_bytes} B"
    );
    assert!(
        fleet_seconds <= 10.0 * dense_seconds.max(0.05),
        "10^5-registered run took {fleet_seconds:.2}s, more than 10x the dense run's {dense_seconds:.2}s"
    );

    // The state-touch gauges certify the O(cohort · log fleet) planner: every round
    // reports the full registry but touches only the candidate-pool slice of it.
    for r in &fleet.records {
        assert_eq!(r.fleet_registered, 100_000, "round {}", r.round);
        assert!(
            r.fleet_active > 0 && r.fleet_active <= 1_000,
            "round {}: touched {} records of a 10^5 registry — the planner went dense",
            r.round,
            r.fleet_active
        );
        assert!(
            r.participants >= 1 && r.participants <= 64,
            "round {}",
            r.round
        );
    }
    for r in &dense.records {
        assert_eq!(r.fleet_registered, 80, "round {}", r.round);
        assert_eq!(r.fleet_active, 80, "round {}", r.round);
    }
}

#[test]
fn churned_fleet_runs_are_deterministic_and_report_the_fleet_gauges() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut c = RunConfig::quick(DatasetKind::Har, 5.0, 19);
    c.num_workers = 16;
    c.participants_per_round = 8;
    c.rounds = 6;
    c.local_iterations = Some(1);
    c.train_size = Some(400);
    c.eval_every = 3;
    c.eval_samples = 60;
    c.fleet = Some(10_000);
    c.churn = true;
    c.churn_period = 4;
    c.churn_min_availability = 0.5;
    c.churn_dropout = 0.1;

    let a = run(Approach::MergeSfl, &c);
    let b = run(Approach::MergeSfl, &c);
    assert_eq!(
        a, b,
        "two churned fleet runs with the same seed must be bit-identical"
    );
    assert_eq!(a.records.len(), 6);
    for r in &a.records {
        assert_eq!(r.fleet_registered, 10_000, "round {}", r.round);
        assert!(
            r.fleet_active > 0 && r.fleet_active < 2_000,
            "round {}: availability filtering walked {} records",
            r.round,
            r.fleet_active
        );
        // Mid-round dropout may shrink (or empty) a cohort, never grow it.
        assert!(r.participants <= 8, "round {}", r.round);
    }
    // The churn schedule actually bites at these settings: across six rounds the
    // planner's walk is not the same length every time.
    let touches: Vec<usize> = a.records.iter().map(|r| r.fleet_active).collect();
    assert!(
        touches.windows(2).any(|w| w[0] != w[1]),
        "state touches {touches:?} never varied — churn appears inert"
    );
}
