//! The trajectory fingerprint: a PR that leaves arithmetic alone reproduces it exactly.

use mergesfl::RoundRecord;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bit pattern hashed for a round that did not evaluate; no finite or NaN accuracy the
/// engines produce shares it with probability worth caring about.
const NO_ACCURACY: u32 = 0xffff_ffff;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over each round's `train_loss` bits, `total_batch`, `participants`, `accuracy`
/// bits and `traffic_mb` bits, in round order. Simulated time and pool gauges are left
/// out: the first is a model output of its own, the second is not part of the trajectory.
pub fn trajectory_hash(records: &[RoundRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for r in records {
        hash = fnv1a(hash, &r.train_loss.to_bits().to_le_bytes());
        hash = fnv1a(hash, &(r.total_batch as u64).to_le_bytes());
        hash = fnv1a(hash, &(r.participants as u64).to_le_bytes());
        let accuracy = r.accuracy.map_or(NO_ACCURACY, f32::to_bits);
        hash = fnv1a(hash, &accuracy.to_le_bytes());
        hash = fnv1a(hash, &r.traffic_mb.to_bits().to_le_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, loss: f32, batch: usize, accuracy: Option<f32>) -> RoundRecord {
        RoundRecord {
            round,
            sim_time: round as f64 * 3.5,
            accuracy,
            train_loss: loss,
            avg_waiting_time: 0.25,
            round_makespan_barrier: 1.0,
            round_makespan_pipelined: 0.5,
            traffic_mb: 12.5 * (round + 1) as f64,
            participants: 6,
            total_batch: batch,
            cohort_kl: 0.1,
            fleet_registered: 20,
            fleet_active: 20,
            shards: Vec::new(),
            topology: Default::default(),
            exchange_bytes: 0.0,
            cross_sync_seconds: 0.0,
            server_gflops: 1.0,
            server_critical_fraction: 0.5,
            staleness: 0,
            version_lag: Vec::new(),
            pool_pages: 3,
            pool_bytes: 4096,
            pool_hit_rate: 0.9,
        }
    }

    #[test]
    fn hash_of_a_fixed_record_list_is_pinned() {
        let records = [
            record(0, 2.3125, 64, Some(0.125)),
            record(1, 2.25, 60, None),
            record(2, 1.75, 58, Some(0.5)),
        ];
        assert_eq!(trajectory_hash(&records), 0x7232_2a61_03a5_d1c9);
        assert_eq!(trajectory_hash(&[]), FNV_OFFSET);
    }

    #[test]
    fn hash_sees_trajectory_fields_and_ignores_telemetry() {
        let base = [record(0, 2.0, 64, Some(0.25)), record(1, 1.5, 64, None)];
        let mut telemetry = base.clone();
        telemetry[1].sim_time += 1.0;
        telemetry[1].pool_pages += 7;
        assert_eq!(trajectory_hash(&base), trajectory_hash(&telemetry));

        let mut loss = base.clone();
        loss[1].train_loss = f32::from_bits(loss[1].train_loss.to_bits() + 1);
        assert_ne!(trajectory_hash(&base), trajectory_hash(&loss));
        let mut evaluated = base.clone();
        evaluated[1].accuracy = Some(0.0);
        assert_ne!(trajectory_hash(&base), trajectory_hash(&evaluated));
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        assert_ne!(trajectory_hash(&base), trajectory_hash(&swapped));
    }
}
