//! "The checksum does not move": the first three rounds of a MergeSFL quick run on every
//! zoo dataset, pinned to constants. A kernel or engine change that is supposed to be
//! bit-identical either leaves these values alone or is not bit-identical; a change that
//! moves the trajectory on purpose re-records them (run with `--nocapture`, the failure
//! message prints the observed rows in source form).

use mergesfl::config::{KernelBackend, RunConfig, ShardTopology, TilingOverride};
use mergesfl::experiment::{run, Approach};
use mergesfl_data::DatasetKind;

const ROUNDS: usize = 3;

/// `RunConfig::quick` with every environment-derived field set explicitly, so the CI
/// matrix cells (`MERGESFL_PIPELINE`, `_NUM_SERVERS`, `_TOPOLOGY`, `_STALENESS`,
/// `_TENSOR_POOL`, `_MICROKERNEL`, ...) all run the same configuration. Same field list as
/// `benchmark/src/workloads.rs::hermetic_quick`.
fn pinned(dataset: DatasetKind) -> RunConfig {
    let mut c = RunConfig::quick(dataset, 10.0, 42);
    c.rounds = ROUNDS;
    c.pipeline = false;
    c.kernel_backend = KernelBackend::Blocked;
    c.micro_kernel = None;
    c.tiling = TilingOverride::default();
    c.tensor_pool = true;
    c.num_servers = 1;
    c.sync_every = 1;
    c.topology = ShardTopology::Replicated;
    c.staleness = 0;
    c.fleet = None;
    c.churn = false;
    c.churn_period = 48;
    c.churn_min_availability = 0.6;
    c.churn_dropout = 0.05;
    c
}

/// One pinned round: `(train_loss.to_bits(), total_batch, participants,
/// sim_time.to_bits(), round_makespan_pipelined.to_bits())`. The two clock columns pin
/// the simulated server's per-architecture throughput and critical fraction, which
/// the trajectory columns cannot see.
type Row = (u32, usize, usize, u64, u64);

fn check(dataset: DatasetKind, want: [Row; ROUNDS]) {
    let result = run(Approach::MergeSfl, &pinned(dataset));
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
