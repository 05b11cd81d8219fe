//! "The checksum does not move": the first three rounds of a MergeSFL quick run on every
//! zoo dataset, and of one fleet-mode run, pinned to constants. A kernel or engine change that is supposed to be
//! bit-identical either leaves these values alone or is not bit-identical; a change that
//! moves the trajectory on purpose re-records them (run with `--nocapture`, the failure
//! message prints the observed rows in source form).

use mergesfl::config::RunConfig;
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

const ROUNDS: usize = 3;

/// `RunConfig::quick` cut to [`ROUNDS`] rounds.
fn pinned(dataset: DatasetKind) -> RunConfig {
    RunConfig {
        rounds: ROUNDS,
        ..RunConfig::quick(dataset, 10.0, 42)
    }
}

/// One pinned round: `(train_loss.to_bits(), total_batch, participants,
/// sim_time.to_bits(), round_makespan_pipelined.to_bits())`. The two clock columns pin
/// the simulated server's per-architecture throughput and critical fraction, which
/// the trajectory columns cannot see.
type Row = (u32, usize, usize, u64, u64);

fn check(dataset: DatasetKind, want: [Row; ROUNDS]) {
    check_config(&pinned(dataset), want);
}

fn check_config(config: &RunConfig, want: [Row; ROUNDS]) {
    let dataset = config.dataset;
    let result = run(Approach::MergeSfl, config);
    let got: Vec<Row> = result
        .records
        .iter()
        .map(|r| {
            (
                r.train_loss.to_bits(),
                r.total_batch,
                r.participants,
                r.sim_time.to_bits(),
                r.round_makespan_pipelined.to_bits(),
            )
        })
        .collect();
    let rows: Vec<String> = got
        .iter()
        .map(|(l, b, p, t, m)| format!("(0x{l:08x}, {b}, {p}, 0x{t:016x}, 0x{m:016x})"))
        .collect();
    assert_eq!(
        got,
        want,
        "{dataset:?} trajectory moved; observed [{}]",
        rows.join(", ")
    );
}

#[test]
fn har_trajectory_is_pinned() {
    check(
        DatasetKind::Har,
        [
            (0x4029ddfe, 41, 6, 0x3feb7b529929cf6f, 0x3feafdf927760562),
            (0x3fc29531, 52, 6, 0x400edec88dc0875b, 0x4007d6e909cf625e),
            (0x3fd45b3d, 40, 6, 0x4019bccc03b47b22, 0x4004823f0439b27c),
        ],
    );
}

#[test]
fn speech_trajectory_is_pinned() {
    check(
        DatasetKind::Speech,
        [
            (0x40cc0173, 47, 5, 0x400a3dee7bcc79e4, 0x400a1c895300dd8e),
            (0x40623feb, 55, 6, 0x40217d077ce75a44, 0x4015c709d18d09a9),
            (0x40590389, 67, 6, 0x402798a6aa8db5bd, 0x4008466e057e2618),
        ],
    );
}

#[test]
fn cifar10_trajectory_is_pinned() {
    check(
        DatasetKind::Cifar10,
        [
            (0x40471d2a, 59, 6, 0x402adc1c84d5c630, 0x402aa3ff8fe5cf2f),
            (0x4008b677, 56, 6, 0x404f47b8cf0bc381, 0x404882fc7017fb6b),
            (0x4010fe85, 32, 6, 0x40573524b4e43b93, 0x403e389dd5476476),
        ],
    );
}

#[test]
fn image100_trajectory_is_pinned() {
    check(
        DatasetKind::Image100,
        [
            (0x4093580b, 84, 6, 0x4082d99ecb7ea747, 0x4082d3cd2fbc03f8),
            (0x40936288, 84, 6, 0x409066c312cf0308, 0x407bdbc6e13cbed7),
            (0x40935d01, 96, 6, 0x409b85f5c0cebe66, 0x408639190d76a77e),
        ],
    );
}

/// Fleet mode (more registered clients than data shards, with churn) plans over a sampled
/// candidate set and trains an on-demand cohort; the classic pins above never reach it.
#[test]
fn har_fleet_trajectory_is_pinned() {
    let config = RunConfig {
        num_workers: 80,
        participants_per_round: 64,
        fleet: Some(100_000),
        churn: true,
        ..pinned(DatasetKind::Har)
    };
    assert!(config.fleet_mode());
    check_config(
        &config,
        [
            (0x402cbfa3, 896, 56, 0x401864dde2aa6caf, 0x40170e72ea80da99),
            (0x3fb0654c, 992, 62, 0x40281574c18cb0b2, 0x40163e904a87bdac),
            (0x3fa7a68c, 928, 58, 0x4030d50a2b41edb4, 0x40120c4d0ae9cb9e),
        ],
    );
}
