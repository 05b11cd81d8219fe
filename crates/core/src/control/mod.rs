//! The MergeSFL control module (paper Section IV-A, Alg. 1).
//!
//! At the beginning of every communication round the control module:
//!
//! 1. estimates each worker's per-sample computing time `µ_i^h` and transmission time
//!    `β_i^h` with moving averages, plus the PS ingress budget `B^h` ([`estimate`]);
//! 2. regulates batch sizes so the fastest worker gets the default maximum batch `D` and
//!    slower workers get proportionally smaller batches ([`batch`], Eq. 9);
//! 3. ranks workers by participation-frequency priority ([`priority`], Eq. 13) and runs a
//!    genetic algorithm over the top-priority candidates to pick a cohort `S^h` whose
//!    batch-weighted label mixture is closest to the IID reference under the traffic
//!    budget ([`genetic`], Eq. 10–12);
//! 4. fine-tunes the cohort's batch sizes until `KL(Φ^h‖Φ0) ≤ ε` with minimal added
//!    waiting time ([`finetune`], Eq. 14);
//! 5. rescales batch sizes proportionally to exploit the remaining budget (Alg. 1 line 7).

pub mod batch;
pub mod estimate;
pub mod finetune;
pub mod genetic;
pub mod priority;

pub use batch::{
    predicted_durations, predicted_waiting_time, regulate_batch_sizes, rescale_to_budget,
    rescale_to_budget_capped,
};
pub use estimate::{StateEstimator, WorkerEstimate};
pub use finetune::{finetune_batches, FinetuneConfig, FinetuneOutcome};
pub use genetic::{select_workers, GeneticConfig, SelectionOutcome, SelectionProblem};
pub use priority::ParticipationTracker;

use crate::sfl::server::ShardTopology;
use mergesfl_data::LabelDistribution;
use mergesfl_nn::rng::derive_seed;
use mergesfl_simnet::ChurnModel;
use std::collections::BTreeMap;

/// Which parts of the MergeSFL decision pipeline a round plan should use. Baselines and
/// ablations are expressed by switching parts off.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Use batch-size regulation (Eq. 9). When off, every worker gets `uniform_batch`.
    pub batch_regulation: bool,
    /// Use KL-driven genetic worker selection. When off, the top-priority workers are taken.
    pub kl_selection: bool,
    /// Fine-tune batch sizes to push the cohort KL under ε (only meaningful with selection).
    pub finetune: bool,
    /// Rescale batch sizes to exploit the ingress budget (Alg. 1 line 7).
    pub budget_rescale: bool,
    /// Maximum number of selected workers per round.
    pub max_participants: usize,
    /// Batch size used when `batch_regulation` is off.
    pub uniform_batch: usize,
    /// Number of parameter-server shards the round's uploads are routed across. Under the
    /// replicated topology the planner balances the cohort over
    /// `min(num_servers, cohort size)` shards by batch size (longest-processing-time
    /// greedy), so no shard stays the single consumer of every upload. Under output
    /// partitioning every shard sees the full cohort and `num_servers` only sizes the
    /// slice layout and the aggregate ingress budget.
    pub num_servers: usize,
    /// How the top model is laid out across the shards: member→shard routing
    /// (`Replicated`) or slice assignment over the full cohort (`OutputPartitioned`).
    pub topology: ShardTopology,
}

/// The per-round decision: which workers train, with which batch sizes, and which
/// parameter-server shard each one uploads to.
#[derive(Clone, Debug)]
pub struct RoundPlan {
    /// Selected worker ids.
    pub selected: Vec<usize>,
    /// Batch size per selected worker (aligned with `selected`).
    pub batch_sizes: Vec<usize>,
    /// Parameter-server shard each selected worker is routed to (aligned with
    /// `selected`; all zeros for a single-server or output-partitioned plan, where the
    /// whole cohort flows through one route group).
    pub shard_of: Vec<usize>,
    /// Number of parameter-server instances this plan spans. Replicated: independently
    /// routed replicas. Output-partitioned: classifier slices that all see the full
    /// cohort (a single route group).
    pub num_shards: usize,
    /// Server topology the plan routes for.
    pub topology: ShardTopology,
    /// KL divergence of the cohort's batch-weighted label mixture from the IID reference.
    pub cohort_kl: f32,
    /// Predicted average waiting time of the cohort for this round (seconds).
    pub predicted_waiting: f64,
    /// How many per-client registry records the planner touched to produce this plan —
    /// the whole fleet on the classic dense path, O(pool) on the event-driven fleet path.
    /// Surfaced so scalability tests and round records can assert/report the active set.
    pub records_touched: usize,
}

/// Balances cohort members across `num_shards` parameter-server shards with the
/// longest-processing-time greedy rule: members are placed in descending batch-size order
/// (ties by cohort position) onto the currently least-loaded shard (ties by shard id).
/// Deterministic, and every shard receives at least one member whenever the cohort has
/// that many non-trivial members.
pub fn assign_shards(batch_sizes: &[usize], num_shards: usize) -> Vec<usize> {
    let shards = num_shards.max(1).min(batch_sizes.len().max(1));
    if shards <= 1 {
        return vec![0; batch_sizes.len()];
    }
    let mut order: Vec<usize> = (0..batch_sizes.len()).collect();
    order.sort_by(|&a, &b| batch_sizes[b].cmp(&batch_sizes[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; shards];
    let mut shard_of = vec![0usize; batch_sizes.len()];
    for pos in order {
        let target = (0..shards)
            .min_by_key(|&s| (load[s], s))
            .expect("at least one shard");
        shard_of[pos] = target;
        load[target] += batch_sizes[pos];
    }
    shard_of
}

impl RoundPlan {
    /// Total number of samples processed per iteration (the merged mini-batch size).
    pub fn total_batch(&self) -> usize {
        self.batch_sizes.iter().sum()
    }

    /// Number of independently routed server groups the engine iterates: one per shard
    /// under the replicated topology (each replica processes only its routed members),
    /// exactly one under output partitioning (every slice participates in the full
    /// cohort's merged step).
    pub fn route_groups(&self) -> usize {
        match self.topology {
            ShardTopology::Replicated => self.num_shards,
            ShardTopology::OutputPartitioned => 1,
        }
    }

    /// Cohort positions whose uploads shard `shard` participates in, in cohort (plan)
    /// order. Replicated shards see only their routed members; output-partitioned shards
    /// all see the full cohort.
    pub fn shard_positions(&self, shard: usize) -> Vec<usize> {
        match self.topology {
            ShardTopology::Replicated => (0..self.selected.len())
                .filter(|&p| self.shard_of[p] == shard)
                .collect(),
            ShardTopology::OutputPartitioned => (0..self.selected.len()).collect(),
        }
    }

    /// Samples per iteration drained through one shard's ingress link. Replicated: the
    /// shard's routed members' batches (its merged mini-batch). Output-partitioned: an
    /// even stripe of the full merged batch — the cohort's uploads are striped across
    /// the `S` instance NICs and re-assembled over the server interconnect, so each link
    /// carries `⌈total/S⌉` or `⌊total/S⌋` samples.
    pub fn shard_batch(&self, shard: usize) -> usize {
        match self.topology {
            ShardTopology::Replicated => self
                .batch_sizes
                .iter()
                .zip(&self.shard_of)
                .filter(|&(_, &s)| s == shard)
                .map(|(&d, _)| d)
                .sum(),
            ShardTopology::OutputPartitioned => {
                let total = self.total_batch();
                let shards = self.num_shards.max(1);
                total / shards + usize::from(shard < total % shards)
            }
        }
    }

    /// Drops participants whose assigned batch size is zero, returning how many were
    /// removed. Selection and batch fine-tuning are supposed to keep every participant at
    /// `min_batch >= 1`, but a degenerate plan must not reach the training engines: a
    /// zero-size participant would panic the mini-batch loader and the feature-merge path
    /// (`FeatureUpload` rejects empty uploads by design). Engines skip the round entirely
    /// — with a logged round record — if nothing survives. The drop is topology-aware
    /// through the plan's accessors rather than through the columns themselves: the
    /// member→shard column stays positionally aligned with the survivors (a replicated
    /// shard emptied by the drop simply processes nothing that round), and under output
    /// partitioning — where `shard_of` is a single route group and `num_shards` counts
    /// classifier slices, not member groups — the slice layout is untouched however many
    /// members drop; `shard_batch`/`shard_positions` re-derive from the surviving cohort.
    pub fn drop_empty_participants(&mut self) -> usize {
        debug_assert_eq!(self.selected.len(), self.batch_sizes.len());
        debug_assert_eq!(self.selected.len(), self.shard_of.len());
        let before = self.selected.len();
        let keep: Vec<bool> = self.batch_sizes.iter().map(|&d| d > 0).collect();
        let mut it = keep.iter();
        self.selected
            .retain(|_| *it.next().expect("keep mask aligned"));
        let mut it = keep.iter();
        self.shard_of
            .retain(|_| *it.next().expect("keep mask aligned"));
        let mut it = keep.iter();
        self.batch_sizes
            .retain(|_| *it.next().expect("keep mask aligned"));
        before - self.selected.len()
    }

    /// Removes cohort members the churn process declares mid-round dropouts, returning
    /// how many departed. A client can be online at planning time and still vanish
    /// before its round work completes; the engines apply this *before* any training
    /// state is materialized for the member, so a dropout costs nothing. Alignment is
    /// maintained exactly as in [`RoundPlan::drop_empty_participants`], and a
    /// fully-dropped cohort feeds the engines' existing degenerate-round path.
    pub fn drop_mid_round_departures(&mut self, churn: &ChurnModel, round: usize) -> usize {
        if !churn.enabled() {
            return 0;
        }
        let before = self.selected.len();
        let keep: Vec<bool> = self
            .selected
            .iter()
            .map(|&w| !churn.drops_mid_round(w, round))
            .collect();
        let mut it = keep.iter();
        self.selected
            .retain(|_| *it.next().expect("keep mask aligned"));
        let mut it = keep.iter();
        self.shard_of
            .retain(|_| *it.next().expect("keep mask aligned"));
        let mut it = keep.iter();
        self.batch_sizes
            .retain(|_| *it.next().expect("keep mask aligned"));
        before - self.selected.len()
    }
}

/// The control module state kept by the parameter server across rounds.
///
/// By default the registered fleet *is* the worker set: one client per data shard, all
/// always available. [`ControlModule::with_fleet`] switches the module into fleet mode,
/// where `fleet >= W` registered clients share the `W` data shards (client `c` holds
/// shard `c % W`) and a [`ChurnModel`] gates availability. Planning then runs on the
/// event-driven path: O(cohort · log fleet) instead of O(fleet) per round.
pub struct ControlModule {
    estimator: StateEstimator,
    tracker: ParticipationTracker,
    label_dists: Vec<LabelDistribution>,
    iid_reference: LabelDistribution,
    max_batch: usize,
    kl_epsilon: f32,
    feature_bytes_per_sample: f64,
    tau: usize,
    genetic: GeneticConfig,
    seed: u64,
    /// Registered clients. Equals `label_dists.len()` outside fleet mode.
    fleet: usize,
    /// Availability churn over the registered fleet (disabled outside fleet mode).
    churn: ChurnModel,
}

impl ControlModule {
    /// Creates the control module.
    ///
    /// `label_dists` are the per-worker label distributions `V_i` reported before training;
    /// the IID reference `Φ0` is their average, as defined in the paper.
    pub fn new(
        label_dists: Vec<LabelDistribution>,
        max_batch: usize,
        kl_epsilon: f32,
        estimate_alpha: f64,
        feature_bytes_per_sample: f64,
        tau: usize,
        seed: u64,
    ) -> Self {
        assert!(
            !label_dists.is_empty(),
            "ControlModule: need at least one worker"
        );
        assert!(max_batch > 0, "ControlModule: max batch must be positive");
        assert!(tau > 0, "ControlModule: tau must be positive");
        let refs: Vec<&LabelDistribution> = label_dists.iter().collect();
        let iid_reference = LabelDistribution::average(&refs);
        let num_workers = label_dists.len();
        Self {
            estimator: StateEstimator::new(num_workers, estimate_alpha),
            tracker: ParticipationTracker::new(num_workers),
            label_dists,
            iid_reference,
            max_batch,
            kl_epsilon,
            feature_bytes_per_sample,
            tau,
            genetic: GeneticConfig::default(),
            seed,
            fleet: num_workers,
            churn: ChurnModel::disabled(),
        }
    }

    /// Switches the module into fleet mode: `fleet` registered clients (ids
    /// `0..fleet`) share the existing data shards by `c % W`, the estimator and
    /// participation tracker are re-created at fleet size (compact per-client records:
    /// a count plus an optional moving-average estimate each), and `churn` gates which
    /// clients the planner may consider each round.
    ///
    /// With `fleet == num_workers()` and churn disabled this is a no-op: planning stays
    /// on the classic dense path, bit-identical to a module that never called this.
    pub fn with_fleet(mut self, fleet: usize, churn: ChurnModel) -> Self {
        assert!(
            fleet >= self.label_dists.len(),
            "ControlModule: fleet ({fleet}) must cover every data shard ({})",
            self.label_dists.len()
        );
        if fleet != self.fleet {
            self.estimator = StateEstimator::new(fleet, self.estimator.alpha());
            self.tracker = ParticipationTracker::new(fleet);
            self.fleet = fleet;
        }
        self.churn = churn;
        self
    }

    /// Number of workers known to the control module.
    pub fn num_workers(&self) -> usize {
        self.label_dists.len()
    }

    /// Number of registered clients (equals [`Self::num_workers`] outside fleet mode).
    pub fn fleet_size(&self) -> usize {
        self.fleet
    }

    /// Label distribution of the data shard a registered client holds.
    fn dist_of(&self, client: usize) -> &LabelDistribution {
        &self.label_dists[client % self.label_dists.len()]
    }

    /// The IID reference distribution `Φ0`.
    pub fn iid_reference(&self) -> &LabelDistribution {
        &self.iid_reference
    }

    /// Folds a worker's reported per-sample compute/transfer times into the estimator.
    pub fn observe_worker(
        &mut self,
        worker_id: usize,
        compute_per_sample: f64,
        transfer_per_sample: f64,
    ) {
        self.estimator
            .observe_worker(worker_id, compute_per_sample, transfer_per_sample);
    }

    /// Folds an observation of the PS ingress budget into the estimator.
    pub fn observe_ingress(&mut self, bytes_per_sec: f64) {
        self.estimator.observe_ingress(bytes_per_sec);
    }

    /// Records that the given workers participated in a finished round (updates `K_i`).
    pub fn record_participation(&mut self, workers: &[usize]) {
        self.tracker.record_participation(workers);
    }

    /// Current participation count of a worker.
    pub fn participation_count(&self, worker_id: usize) -> usize {
        self.tracker.count(worker_id)
    }

    /// Produces the round plan for round `round` (Alg. 1).
    pub fn plan_round(
        &mut self,
        round: usize,
        ingress_budget_fallback: f64,
        opts: &PlanOptions,
    ) -> RoundPlan {
        assert!(
            opts.max_participants > 0,
            "plan_round: max participants must be positive"
        );
        assert!(
            opts.uniform_batch > 0,
            "plan_round: uniform batch must be positive"
        );
        let n = self.fleet;
        // Shard-aware ingress budget: with S parameter-server instances each bringing
        // its own NIC, the bandwidth constraint of Eq. 10 bounds the cohort's
        // per-iteration feature traffic by the aggregate `S · B^h` under both
        // topologies. Output-partitioned shards drain even sample-level stripes of the
        // merged batch, so the full aggregate is achievable at any cohort size;
        // replicated routing is member-level, so no more links can carry traffic than
        // the cohort has members — the multiplier is capped at the cohort bound to keep
        // the solve honest about what the LPT spread can actually drain. Selection and
        // the budget-rescale step both solve against the aggregate.
        let effective_links = match opts.topology {
            ShardTopology::OutputPartitioned => opts.num_servers.max(1),
            // Both factors are asserted >= 1 (max_participants above, label_dists at
            // construction), so the cap never zeroes the budget.
            ShardTopology::Replicated => opts.num_servers.max(1).min(opts.max_participants.min(n)),
        };
        let budget = self.estimator.ingress_or(ingress_budget_fallback) * effective_links as f64;

        // Lines 1–4: cost estimation, batch regulation and priority-ranked candidate
        // pooling. Two regimes:
        //
        // * Classic dense path (fleet == worker count, no churn): costs and regulated
        //   batches are computed for *every* worker and the pool is the top-priority
        //   N/2 — exactly the paper's Alg. 1, kept byte-for-byte so existing
        //   trajectories stay bit-identical.
        // * Event-driven fleet path: the planner walks the priority structure lazily,
        //   skipping clients the churn model reports offline, and stops once the pool
        //   is full — touching O(pool / availability) of the registry. Costs and
        //   regulated batches are computed for the candidate pool only, so per-round
        //   work scales with the cohort, not the registered fleet.
        let fleet_mode = self.fleet > self.label_dists.len() || self.churn.enabled();
        let (candidates, cand_costs, cand_batches, records_touched) = if fleet_mode {
            let pool_target = (opts.max_participants * 4).max(32).min(n);
            let mut candidates: Vec<usize> = Vec::with_capacity(pool_target);
            let mut touched = 0usize;
            for w in self.tracker.ranked_iter() {
                touched += 1;
                if self.churn.is_available(w, round) {
                    candidates.push(w);
                    if candidates.len() == pool_target {
                        break;
                    }
                }
            }
            let cand_costs: Vec<f64> = candidates
                .iter()
                .map(|&i| self.estimator.worker_or_default(i).per_sample_cost())
                .collect();
            let cand_batches: Vec<usize> = if candidates.is_empty() {
                // Availability trough: nobody to regulate; the empty-plan return below
                // handles it.
                Vec::new()
            } else if opts.batch_regulation {
                regulate_batch_sizes(&cand_costs, self.max_batch).batch_sizes
            } else {
                vec![opts.uniform_batch; candidates.len()]
            };
            (candidates, cand_costs, cand_batches, touched)
        } else {
            // Per-worker cost estimates (µ_i + β_i), falling back to the population
            // mean for workers that have never reported.
            let costs: Vec<f64> = (0..n)
                .map(|i| self.estimator.worker_or_default(i).per_sample_cost())
                .collect();
            // Batch-size regulation over all workers (Eq. 9 normalises by the fastest
            // worker of the whole set).
            let all_batches: Vec<usize> = if opts.batch_regulation {
                regulate_batch_sizes(&costs, self.max_batch).batch_sizes
            } else {
                vec![opts.uniform_batch; n]
            };
            // Candidate pool of the top m = N/2 workers (at least enough to fill the
            // cohort).
            let ranked = self.tracker.ranked();
            let pool_size = (n / 2).max(opts.max_participants).min(n);
            let candidates: Vec<usize> = ranked.into_iter().take(pool_size).collect();
            let cand_costs: Vec<f64> = candidates.iter().map(|&i| costs[i]).collect();
            let cand_batches: Vec<usize> = candidates.iter().map(|&i| all_batches[i]).collect();
            (candidates, cand_costs, cand_batches, n)
        };

        if candidates.is_empty() {
            // Only reachable in fleet mode, when an availability trough leaves nobody
            // online. The engines' existing degenerate-cohort handling records an empty
            // round and moves on.
            return RoundPlan {
                selected: Vec::new(),
                batch_sizes: Vec::new(),
                shard_of: Vec::new(),
                num_shards: match opts.topology {
                    ShardTopology::Replicated => 1,
                    ShardTopology::OutputPartitioned => opts.num_servers.max(1),
                },
                topology: opts.topology,
                cohort_kl: 0.0,
                predicted_waiting: 0.0,
                records_touched,
            };
        }
        // Candidate-local lookups for everything downstream of selection: global client
        // id → position in the candidate arrays.
        let index_of: BTreeMap<usize, usize> = candidates
            .iter()
            .enumerate()
            .map(|(k, &w)| (w, k))
            .collect();

        // Line 5: cohort selection.
        let (mut selected, mut cohort_kl) = if opts.kl_selection {
            let cand_dists: Vec<&LabelDistribution> =
                candidates.iter().map(|&i| self.dist_of(i)).collect();
            let problem = SelectionProblem {
                candidates: &candidates,
                label_dists: &cand_dists,
                batch_sizes: &cand_batches,
                iid_reference: &self.iid_reference,
                feature_bytes_per_sample: self.feature_bytes_per_sample,
                budget_bytes: budget,
                max_selected: opts.max_participants,
            };
            let outcome = select_workers(
                &problem,
                &self.genetic,
                derive_seed(self.seed, round as u64),
            );
            (outcome.selected, outcome.kl)
        } else {
            let selected: Vec<usize> = candidates
                .iter()
                .copied()
                .take(opts.max_participants)
                .collect();
            let batches: Vec<usize> = selected
                .iter()
                .map(|&i| cand_batches[index_of[&i]])
                .collect();
            let kl = self.cohort_kl_with(&selected, &batches);
            (selected, kl)
        };
        if selected.is_empty() {
            selected.push(candidates[0]);
            let batches = vec![cand_batches[index_of[&candidates[0]]]];
            cohort_kl = self.cohort_kl_with(&selected, &batches);
        }

        let mut batch_sizes: Vec<usize> = selected
            .iter()
            .map(|&i| cand_batches[index_of[&i]])
            .collect();
        let sel_costs: Vec<f64> = selected.iter().map(|&i| cand_costs[index_of[&i]]).collect();

        // Line 6: batch fine-tuning under the KL constraint.
        if opts.finetune && opts.kl_selection && cohort_kl > self.kl_epsilon {
            let sel_dists: Vec<&LabelDistribution> =
                selected.iter().map(|&i| self.dist_of(i)).collect();
            let config = FinetuneConfig::new(self.kl_epsilon, 1, self.max_batch);
            let outcome = finetune_batches(
                &batch_sizes,
                &sel_dists,
                &sel_costs,
                &self.iid_reference,
                &config,
            );
            batch_sizes = outcome.batch_sizes;
            cohort_kl = outcome.kl;
        }

        // Line 7: exploit the remaining (aggregate) ingress budget. The default maximum
        // batch size D is still an upper bound per worker — scaling up is only allowed
        // to recover headroom lost to regulation/fine-tuning, not to exceed what a
        // worker can hold in memory.
        if opts.budget_rescale {
            batch_sizes = rescale_to_budget_capped(
                &batch_sizes,
                self.feature_bytes_per_sample,
                budget,
                self.max_batch,
            );
            cohort_kl = self.cohort_kl_with(&selected, &batch_sizes);
        }

        let durations = predicted_durations(&batch_sizes, &sel_costs, self.tau);
        let predicted_waiting = predicted_waiting_time(&durations);
        // Route the cohort across the parameter-server shards (Alg. 1's plan gains the
        // shard column). Replicated: balance members by batch size so no shard's ingress
        // link or top-model replica stays the single consumer of every upload.
        // Output-partitioned: routing is slice assignment, not member assignment — every
        // shard sees the full cohort, so the column collapses to one route group and
        // `num_shards` carries the slice count for timing and budget accounting.
        let (shard_of, num_shards) = match opts.topology {
            ShardTopology::Replicated => {
                let shard_of = assign_shards(&batch_sizes, opts.num_servers);
                let num_shards = shard_of.iter().copied().max().unwrap_or(0) + 1;
                (shard_of, num_shards)
            }
            ShardTopology::OutputPartitioned => {
                (vec![0; batch_sizes.len()], opts.num_servers.max(1))
            }
        };
        RoundPlan {
            selected,
            batch_sizes,
            shard_of,
            num_shards,
            topology: opts.topology,
            cohort_kl,
            predicted_waiting,
            records_touched,
        }
    }

    fn cohort_kl_with(&self, selected: &[usize], batches: &[usize]) -> f32 {
        if selected.is_empty() {
            return f32::INFINITY;
        }
        let dists: Vec<&LabelDistribution> = selected.iter().map(|&i| self.dist_of(i)).collect();
        let weights: Vec<f32> = batches.iter().map(|&d| d as f32).collect();
        LabelDistribution::mixture(&dists, &weights).kl_divergence(&self.iid_reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(class: usize, num_classes: usize) -> LabelDistribution {
        let mut v = vec![0.0f32; num_classes];
        v[class] = 1.0;
        LabelDistribution::new(v)
    }

    fn module(num_workers: usize, num_classes: usize) -> ControlModule {
        let dists: Vec<LabelDistribution> = (0..num_workers)
            .map(|i| one_hot(i % num_classes, num_classes))
            .collect();
        ControlModule::new(dists, 32, 0.05, 0.8, 1024.0, 5, 7)
    }

    fn default_opts() -> PlanOptions {
        PlanOptions {
            batch_regulation: true,
            kl_selection: true,
            finetune: true,
            budget_rescale: false,
            max_participants: 8,
            uniform_batch: 8,
            num_servers: 1,
            topology: ShardTopology::Replicated,
        }
    }

    fn observe_heterogeneous(m: &mut ControlModule) {
        let n = m.num_workers();
        for i in 0..n {
            // Worker i's per-sample cost grows with i: worker 0 is fastest.
            m.observe_worker(i, 0.01 * (i + 1) as f64, 0.005);
        }
    }

    #[test]
    fn plan_selects_within_limits() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert!(!plan.selected.is_empty());
        assert!(plan.selected.len() <= 8);
        assert_eq!(plan.selected.len(), plan.batch_sizes.len());
        assert!(plan.batch_sizes.iter().all(|&d| (1..=32).contains(&d)));
        assert!(plan.total_batch() > 0);
    }

    #[test]
    fn kl_selection_produces_near_iid_cohort() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert!(
            plan.cohort_kl < 0.1,
            "cohort KL {} too high",
            plan.cohort_kl
        );
    }

    #[test]
    fn batch_regulation_gives_faster_workers_larger_batches() {
        let mut m = module(8, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.kl_selection = false;
        opts.finetune = false;
        opts.max_participants = 8;
        let plan = m.plan_round(0, 1e9, &opts);
        // Worker 0 (fastest) must appear and carry the largest batch among the selected.
        let pos0 = plan.selected.iter().position(|&w| w == 0);
        assert!(pos0.is_some());
        let d0 = plan.batch_sizes[pos0.unwrap()];
        assert_eq!(d0, *plan.batch_sizes.iter().max().unwrap());
    }

    #[test]
    fn without_regulation_batches_are_uniform() {
        let mut m = module(8, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.batch_regulation = false;
        let plan = m.plan_round(0, 1e9, &opts);
        assert!(plan.batch_sizes.iter().all(|&d| d == opts.uniform_batch));
    }

    #[test]
    fn priority_rotation_spreads_participation() {
        let mut m = module(12, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.kl_selection = false;
        opts.max_participants = 4;
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..6 {
            let plan = m.plan_round(round, 1e9, &opts);
            m.record_participation(&plan.selected);
            seen.extend(plan.selected);
        }
        // With priority-based rotation, far more than 4 distinct workers participate.
        assert!(
            seen.len() >= 10,
            "only {} distinct workers participated",
            seen.len()
        );
    }

    #[test]
    fn regulation_reduces_predicted_waiting_time() {
        let mut with_reg = module(12, 4);
        let mut without_reg = module(12, 4);
        observe_heterogeneous(&mut with_reg);
        observe_heterogeneous(&mut without_reg);
        let mut opts_on = default_opts();
        opts_on.kl_selection = false;
        opts_on.finetune = false;
        let mut opts_off = opts_on;
        opts_off.batch_regulation = false;
        let plan_on = with_reg.plan_round(0, 1e9, &opts_on);
        let plan_off = without_reg.plan_round(0, 1e9, &opts_off);
        assert!(
            plan_on.predicted_waiting < plan_off.predicted_waiting,
            "regulated waiting {} should beat uniform waiting {}",
            plan_on.predicted_waiting,
            plan_off.predicted_waiting
        );
    }

    #[test]
    fn budget_rescale_respects_budget() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.budget_rescale = true;
        // Tight budget: 20 kB per iteration at 1 kB per sample.
        m.observe_ingress(20_000.0);
        let plan = m.plan_round(0, 20_000.0, &opts);
        let traffic = plan.total_batch() as f64 * 1024.0;
        assert!(
            traffic <= 20_000.0 * 1.05,
            "traffic {traffic} exceeds budget"
        );
    }

    #[test]
    fn budget_rescale_never_exceeds_max_batch() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.budget_rescale = true;
        // Effectively unlimited budget: batches must still be capped at D = 32.
        m.observe_ingress(1e12);
        let plan = m.plan_round(0, 1e12, &opts);
        assert!(
            plan.batch_sizes.iter().all(|&d| d <= 32),
            "batches {:?} exceed D",
            plan.batch_sizes
        );
    }

    #[test]
    fn plan_works_before_any_observation() {
        let mut m = module(8, 4);
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert!(!plan.selected.is_empty());
    }

    #[test]
    fn degenerate_plans_are_sanitised_not_panicked() {
        let mut plan = RoundPlan {
            selected: vec![3, 1, 4, 1],
            batch_sizes: vec![2, 0, 1, 0],
            shard_of: vec![0, 1, 1, 0],
            num_shards: 2,
            topology: ShardTopology::Replicated,
            cohort_kl: 0.1,
            predicted_waiting: 0.0,
            records_touched: 4,
        };
        assert_eq!(plan.drop_empty_participants(), 2);
        assert_eq!(plan.selected, vec![3, 4]);
        assert_eq!(plan.batch_sizes, vec![2, 1]);
        // Shard routing stays aligned with the survivors.
        assert_eq!(plan.shard_of, vec![0, 1]);

        let mut empty = RoundPlan {
            selected: vec![0, 1],
            batch_sizes: vec![0, 0],
            shard_of: vec![0, 0],
            num_shards: 1,
            topology: ShardTopology::Replicated,
            cohort_kl: 0.0,
            predicted_waiting: 0.0,
            records_touched: 2,
        };
        assert_eq!(empty.drop_empty_participants(), 2);
        assert!(empty.selected.is_empty() && empty.batch_sizes.is_empty());
        assert_eq!(empty.total_batch(), 0);

        let mut healthy = RoundPlan {
            selected: vec![5],
            batch_sizes: vec![1],
            shard_of: vec![0],
            num_shards: 1,
            topology: ShardTopology::Replicated,
            cohort_kl: 0.0,
            predicted_waiting: 0.0,
            records_touched: 1,
        };
        assert_eq!(healthy.drop_empty_participants(), 0);
        assert_eq!(healthy.selected, vec![5]);
    }

    #[test]
    fn single_server_plans_route_everything_to_shard_zero() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert_eq!(plan.num_shards, 1);
        assert!(plan.shard_of.iter().all(|&s| s == 0));
        assert_eq!(plan.shard_batch(0), plan.total_batch());
        assert_eq!(plan.shard_positions(0).len(), plan.selected.len());
    }

    #[test]
    fn multi_server_plans_balance_the_cohort_across_shards() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.num_servers = 4;
        let plan = m.plan_round(0, 1e9, &opts);
        assert_eq!(plan.num_shards, 4.min(plan.selected.len()));
        // Every shard takes real load and the shard column aligns with the cohort.
        assert_eq!(plan.shard_of.len(), plan.selected.len());
        let batches: Vec<usize> = (0..plan.num_shards).map(|s| plan.shard_batch(s)).collect();
        assert!(batches.iter().all(|&b| b > 0), "idle shard in {batches:?}");
        assert_eq!(batches.iter().sum::<usize>(), plan.total_batch());
        // LPT balance: no shard holds more than the lightest shard plus one member's
        // largest batch.
        let max_d = plan.batch_sizes.iter().copied().max().unwrap_or(0);
        let lightest = *batches.iter().min().unwrap();
        let heaviest = *batches.iter().max().unwrap();
        assert!(
            heaviest <= lightest + max_d,
            "imbalanced shards {batches:?} (max batch {max_d})"
        );
    }

    #[test]
    fn assign_shards_is_deterministic_and_caps_at_cohort_size() {
        let sizes = [7usize, 3, 5, 5, 2];
        assert_eq!(assign_shards(&sizes, 1), vec![0; 5]);
        let a = assign_shards(&sizes, 3);
        let b = assign_shards(&sizes, 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 3));
        // More shards than members: each member lands on its own shard.
        let solo = assign_shards(&[4, 4], 8);
        assert_eq!(solo.len(), 2);
        assert_ne!(solo[0], solo[1]);
        // Empty cohort stays empty.
        assert!(assign_shards(&[], 4).is_empty());
    }

    #[test]
    fn partitioned_plans_use_slice_assignment_over_the_full_cohort() {
        let mut m = module(16, 4);
        observe_heterogeneous(&mut m);
        let mut opts = default_opts();
        opts.num_servers = 4;
        opts.topology = ShardTopology::OutputPartitioned;
        let plan = m.plan_round(0, 1e9, &opts);
        assert_eq!(plan.topology, ShardTopology::OutputPartitioned);
        // Slice assignment: num_shards carries the instance count, but the cohort flows
        // through one route group and every shard participates in every position.
        assert_eq!(plan.num_shards, 4);
        assert_eq!(plan.route_groups(), 1);
        assert!(plan.shard_of.iter().all(|&s| s == 0));
        for shard in 0..plan.num_shards {
            assert_eq!(plan.shard_positions(shard).len(), plan.selected.len());
        }
        // Ingress striping: per-shard batches are an even split of the merged batch.
        let stripes: Vec<usize> = (0..plan.num_shards).map(|s| plan.shard_batch(s)).collect();
        assert_eq!(stripes.iter().sum::<usize>(), plan.total_batch());
        let lo = *stripes.iter().min().unwrap();
        let hi = *stripes.iter().max().unwrap();
        assert!(hi - lo <= 1, "uneven stripes {stripes:?}");
    }

    #[test]
    fn degenerate_partitioned_cohort_keeps_routing_consistent() {
        // Regression for the latent member→shard routing assumption: dropping zero-size
        // participants from an output-partitioned plan must leave the slice layout
        // intact (num_shards is the slice count, not a member-group count) and keep the
        // stripe/position accessors consistent with the surviving cohort.
        let mut plan = RoundPlan {
            selected: vec![7, 2, 9, 4],
            batch_sizes: vec![3, 0, 5, 0],
            shard_of: vec![0, 0, 0, 0],
            num_shards: 4,
            topology: ShardTopology::OutputPartitioned,
            cohort_kl: 0.1,
            predicted_waiting: 0.0,
            records_touched: 4,
        };
        assert_eq!(plan.drop_empty_participants(), 2);
        assert_eq!(plan.selected, vec![7, 9]);
        assert_eq!(plan.batch_sizes, vec![3, 5]);
        assert_eq!(plan.shard_of, vec![0, 0]);
        assert_eq!(plan.num_shards, 4, "slice layout must survive the drop");
        assert_eq!(plan.route_groups(), 1);
        let stripes: Vec<usize> = (0..4).map(|s| plan.shard_batch(s)).collect();
        assert_eq!(stripes, vec![2, 2, 2, 2]);
        for shard in 0..4 {
            assert_eq!(plan.shard_positions(shard), vec![0, 1]);
        }
        // A fully degenerate cohort still answers without panicking.
        let mut empty = plan.clone();
        empty.batch_sizes = vec![0, 0];
        assert_eq!(empty.drop_empty_participants(), 2);
        assert!(empty.selected.is_empty());
        assert_eq!(empty.shard_batch(0), 0);
        assert_eq!(empty.route_groups(), 1);
        assert!(empty.shard_positions(3).is_empty());
    }

    #[test]
    fn shard_aware_rescale_budgets_the_aggregate_ingress() {
        // A budget that starves one NIC but not four: with S shards the rescale step
        // solves against S·B^h, so the cohort's batches grow strictly.
        for topology in [ShardTopology::Replicated, ShardTopology::OutputPartitioned] {
            let solve = |servers: usize| {
                let mut m = module(16, 4);
                observe_heterogeneous(&mut m);
                let mut opts = default_opts();
                opts.budget_rescale = true;
                opts.num_servers = servers;
                opts.topology = topology;
                // 24 kB per iteration at 1 kB per sample: binding at S = 1.
                m.observe_ingress(24_000.0);
                m.plan_round(0, 24_000.0, &opts)
            };
            let single = solve(1);
            let sharded = solve(4);
            assert!(
                sharded.total_batch() > single.total_batch(),
                "{topology:?}: aggregate budget did not grow the solve \
                 ({} vs {})",
                sharded.total_batch(),
                single.total_batch()
            );
            assert!(
                sharded.batch_sizes.iter().all(|&d| d <= 32),
                "{topology:?}: per-worker cap violated"
            );
        }
    }

    #[test]
    fn participation_counts_update() {
        let mut m = module(4, 2);
        m.record_participation(&[0, 2]);
        assert_eq!(m.participation_count(0), 1);
        assert_eq!(m.participation_count(1), 0);
        assert_eq!(m.participation_count(2), 1);
    }

    /// The event-driven fleet path must plan a round by touching O(pool) registry
    /// records, not the whole registered fleet.
    #[test]
    fn fleet_mode_touches_a_sublinear_slice_of_the_registry() {
        let fleet = 50_000;
        let mut m = module(16, 4).with_fleet(fleet, ChurnModel::disabled());
        observe_heterogeneous(&mut m);
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert_eq!(m.fleet_size(), fleet);
        assert!(!plan.selected.is_empty());
        assert!(plan.selected.len() <= 8);
        assert!(plan.selected.iter().all(|&w| w < fleet));
        // With everyone available the lazy walk stops exactly at the pool target
        // (max(4 · max_participants, 32) = 32), five orders below the fleet.
        assert_eq!(plan.records_touched, 32);

        // With churn on, offline clients are skipped but the walk still stays far from
        // exhaustive: at a 0.5 availability floor the expected touch count is ~2× pool.
        let churn = ChurnModel::new(9, 48, 0.5, 0.0);
        let mut m = module(16, 4).with_fleet(fleet, churn.clone());
        let plan = m.plan_round(0, 1e9, &default_opts());
        assert!(
            plan.records_touched < 1_000,
            "touched {} records of a {fleet}-client registry",
            plan.records_touched
        );
        for &w in &plan.selected {
            assert!(churn.is_available(w, 0), "selected an offline client {w}");
        }
    }

    /// `with_fleet(num_workers, disabled)` is the trivial fleet: planning stays on the
    /// dense path and every plan column matches a module that never entered fleet mode.
    #[test]
    fn trivial_fleet_is_bit_identical_to_the_dense_path() {
        let mut dense = module(16, 4);
        let mut trivial = module(16, 4).with_fleet(16, ChurnModel::disabled());
        observe_heterogeneous(&mut dense);
        observe_heterogeneous(&mut trivial);
        for round in 0..5 {
            let a = dense.plan_round(round, 1e9, &default_opts());
            let b = trivial.plan_round(round, 1e9, &default_opts());
            assert_eq!(a.selected, b.selected);
            assert_eq!(a.batch_sizes, b.batch_sizes);
            assert_eq!(a.shard_of, b.shard_of);
            assert_eq!(a.cohort_kl.to_bits(), b.cohort_kl.to_bits());
            assert_eq!(a.predicted_waiting.to_bits(), b.predicted_waiting.to_bits());
            assert_eq!(a.records_touched, 16);
            assert_eq!(b.records_touched, 16);
            dense.record_participation(&a.selected);
            trivial.record_participation(&b.selected);
        }
    }

    /// An availability trough that leaves nobody online must produce an *empty* plan —
    /// the engines' degenerate-cohort handling takes it from there — never a panic.
    #[test]
    fn fleet_plans_only_select_available_clients_and_survive_troughs() {
        let churn = ChurnModel::new(2, 8, 0.05, 0.0);
        let mut m = module(4, 4).with_fleet(4, churn.clone());
        let mut opts = default_opts();
        opts.kl_selection = false;
        opts.finetune = false;
        opts.max_participants = 2;
        let mut saw_empty = false;
        for round in 0..64 {
            let plan = m.plan_round(round, 1e9, &opts);
            if plan.selected.is_empty() {
                saw_empty = true;
                assert!(plan.batch_sizes.is_empty() && plan.shard_of.is_empty());
                assert_eq!(plan.total_batch(), 0);
                assert_eq!(plan.records_touched, 4);
            } else {
                for &w in &plan.selected {
                    assert!(churn.is_available(w, round), "offline client {w} selected");
                }
                m.record_participation(&plan.selected);
            }
        }
        assert!(
            saw_empty,
            "a 0.05 availability floor over 4 clients should empty some round"
        );
    }

    #[test]
    #[should_panic(expected = "fleet")]
    fn fleet_smaller_than_the_shard_count_is_rejected() {
        let _ = module(8, 4).with_fleet(4, ChurnModel::disabled());
    }
}
