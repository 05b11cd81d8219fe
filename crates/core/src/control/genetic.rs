//! Genetic-algorithm worker selection (paper Alg. 1, lines 3–5).
//!
//! Given per-worker label distributions `V_i`, regulated batch sizes `d_i` and the PS
//! ingress budget `B^h`, the control module selects a worker set `S^h` whose batch-weighted
//! label mixture `Φ^h` is as close as possible (in KL divergence) to the IID reference
//! `Φ0`, subject to the per-iteration feature-traffic constraint `Σ_{i∈S} d_i · c ≤ B^h`
//! and a cap on the cohort size. Candidate sets are encoded as bit strings over the
//! priority-ranked top-`m` workers and evolved with tournament selection, uniform crossover
//! and bit-flip mutation.

use mergesfl_data::label_dist::kl_divergence;
use mergesfl_data::LabelDistribution;
use mergesfl_nn::rng::seeded;
use rand::Rng;

/// Tunable parameters of the genetic search.
#[derive(Clone, Copy, Debug)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Probability of taking a gene from the first parent during crossover.
    pub crossover_mix: f64,
    /// Penalty weight applied per byte of budget violation (scaled by the feature size).
    pub infeasibility_penalty: f64,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        Self {
            population: 24,
            generations: 40,
            mutation_rate: 0.08,
            crossover_mix: 0.5,
            infeasibility_penalty: 10.0,
        }
    }
}

/// A selection problem instance for one round.
pub struct SelectionProblem<'a> {
    /// Candidate worker ids, ordered by priority (highest first). The GA only considers
    /// these workers (the paper seeds the initial population with the top-`m` by priority).
    pub candidates: &'a [usize],
    /// Label distribution `V_i` per candidate (aligned with `candidates`).
    pub label_dists: &'a [&'a LabelDistribution],
    /// Regulated batch size `d_i` per candidate (aligned with `candidates`).
    pub batch_sizes: &'a [usize],
    /// IID reference distribution `Φ0`.
    pub iid_reference: &'a LabelDistribution,
    /// Feature bytes per sample (the constant `c` of Eq. 10).
    pub feature_bytes_per_sample: f64,
    /// Ingress budget `B^h` in bytes per iteration.
    pub budget_bytes: f64,
    /// Maximum cohort size (0 = unlimited).
    pub max_selected: usize,
}

/// Result of the genetic selection.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Selected worker ids (subset of the candidates, in candidate order).
    pub selected: Vec<usize>,
    /// KL divergence of the selected cohort's mixture from the IID reference.
    pub kl: f32,
    /// Whether the solution satisfies the traffic budget.
    pub feasible: bool,
}

/// Evaluates the KL divergence of a candidate subset's batch-weighted label mixture.
pub fn subset_kl(
    mask: &[bool],
    label_dists: &[&LabelDistribution],
    batch_sizes: &[usize],
    iid_reference: &LabelDistribution,
) -> f32 {
    let mut dists = Vec::new();
    let mut weights = Vec::new();
    for (i, &selected) in mask.iter().enumerate() {
        if selected {
            dists.push(label_dists[i]);
            weights.push(batch_sizes[i] as f32);
        }
    }
    if dists.is_empty() {
        return f32::INFINITY;
    }
    LabelDistribution::mixture(&dists, &weights).kl_divergence(iid_reference)
}

/// A candidate subset as bitset words: bit `i % 64` of word `i / 64` selects candidate `i`.
/// Bits at positions `>= n` are always clear.
type Mask = [u64];

/// The selected candidate positions of `mask`, in ascending order.
fn set_bits(mask: &Mask) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                64 * w + bit
            })
        })
    })
}

fn popcount(mask: &Mask) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Flat per-candidate tables the fitness folds over, built once per
/// [`select_workers`] call so an evaluation touches no `LabelDistribution` and
/// allocates nothing.
struct FitnessTables<'a> {
    classes: usize,
    /// Class probabilities, `n × classes`, row-major.
    probs: Vec<f32>,
    /// Mixture weight `d_i as f32` per candidate.
    weights: Vec<f32>,
    /// Feature traffic `d_i as f64 · c` per candidate.
    traffic: Vec<f64>,
    iid: &'a [f32],
    budget_bytes: f64,
    max_selected: usize,
    penalty: f64,
}

impl<'a> FitnessTables<'a> {
    fn new(problem: &SelectionProblem<'a>, config: &GeneticConfig) -> Self {
        let classes = problem.iid_reference.num_classes();
        let mut probs = Vec::with_capacity(problem.label_dists.len() * classes);
        for dist in problem.label_dists {
            assert_eq!(
                dist.num_classes(),
                classes,
                "select_workers: class count mismatch"
            );
            probs.extend_from_slice(dist.probs());
        }
        let c = problem.feature_bytes_per_sample;
        Self {
            classes,
            probs,
            weights: problem.batch_sizes.iter().map(|&d| d as f32).collect(),
            traffic: problem.batch_sizes.iter().map(|&d| d as f64 * c).collect(),
            iid: problem.iid_reference.probs(),
            budget_bytes: problem.budget_bytes,
            max_selected: problem.max_selected,
            penalty: config.infeasibility_penalty,
        }
    }

    fn traffic_bytes(&self, mask: &Mask) -> f64 {
        set_bits(mask).map(|i| self.traffic[i]).sum()
    }

    /// The KL divergence of the mask's batch-weighted mixture from the IID reference,
    /// folded into `mix` (`classes` long) with the operations and order of
    /// `LabelDistribution::mixture` followed by `kl_divergence` — [`subset_kl`] bit for
    /// bit on a non-empty mask.
    fn kl(&self, mask: &Mask, mix: &mut [f32]) -> f32 {
        let total: f32 = set_bits(mask).map(|i| self.weights[i]).sum();
        assert!(total > 0.0, "mixture: weights must sum to a positive value");
        mix.fill(0.0);
        for i in set_bits(mask) {
            let w = self.weights[i];
            let row = &self.probs[i * self.classes..(i + 1) * self.classes];
            for (p, &dp) in mix.iter_mut().zip(row) {
                *p += w * dp;
            }
        }
        for p in mix.iter_mut() {
            *p /= total;
        }
        kl_divergence(mix, self.iid)
    }

    /// Mixture KL plus the budget and cohort-size penalties, minus a small bonus per
    /// selected worker; infinite for the empty set.
    fn fitness(&self, mask: &Mask, mix: &mut [f32]) -> f64 {
        let selected = popcount(mask);
        if selected == 0 {
            return f64::INFINITY;
        }
        let kl = self.kl(mask, mix) as f64;
        let traffic = self.traffic_bytes(mask);
        let mut penalty = 0.0;
        if traffic > self.budget_bytes {
            penalty += self.penalty * (traffic / self.budget_bytes - 1.0);
        }
        if self.max_selected > 0 && selected > self.max_selected {
            penalty += self.penalty * (selected - self.max_selected) as f64;
        }
        // Prefer larger cohorts among equally IID ones: more merged features per iteration
        // means better utilisation of the budget (mirrors the paper's "collect enough
        // features" goal).
        let coverage_bonus = 1e-3 * selected as f64;
        kl + penalty - coverage_bonus
    }
}

/// Runs the genetic algorithm and returns the best worker subset found.
///
/// Masks live as bitset words in two population buffers swapped each generation, so the
/// search allocates nothing after setup. The RNG draw sequence is fixed: the random part
/// of the initial population takes one `gen_bool(0.5)` per candidate, and each child
/// takes two tournament picks (two `gen_range` each), then one crossover `gen_bool` per
/// candidate, then one mutation `gen_bool` per candidate.
pub fn select_workers(
    problem: &SelectionProblem<'_>,
    config: &GeneticConfig,
    seed: u64,
) -> SelectionOutcome {
    let n = problem.candidates.len();
    assert!(n > 0, "select_workers: no candidates");
    assert_eq!(
        problem.label_dists.len(),
        n,
        "select_workers: label distribution count mismatch"
    );
    assert_eq!(
        problem.batch_sizes.len(),
        n,
        "select_workers: batch size count mismatch"
    );
    let tables = FitnessTables::new(problem, config);
    let mut mix = vec![0.0f32; tables.classes];
    let mut rng = seeded(seed);
    let words = n.div_ceil(64);
    // The greedy prefixes below always seed at least one member.
    let size = config.population.max(1);
    let mut population = vec![0u64; size * words];
    let mut next = vec![0u64; size * words];
    let mut fits = vec![0.0f64; size];

    // Initial population: greedy prefixes of the priority ranking plus random masks.
    let cap = if problem.max_selected == 0 {
        n
    } else {
        problem.max_selected.min(n)
    };
    let prefixes = cap.min(size);
    for (k, mask) in population.chunks_exact_mut(words).enumerate() {
        if k < prefixes {
            for i in 0..=k {
                mask[i / 64] |= 1 << (i % 64);
            }
        } else {
            for i in 0..n {
                mask[i / 64] |= u64::from(rng.gen_bool(0.5)) << (i % 64);
            }
        }
    }

    let mut best = population[..words].to_vec();
    let mut best_fit = tables.fitness(&best, &mut mix);

    for _ in 0..config.generations {
        // Slot 0 holds `best`: the first prefix, then the elite carried over.
        fits[0] = best_fit;
        for (fit, mask) in fits.iter_mut().zip(population.chunks_exact(words)).skip(1) {
            *fit = tables.fitness(mask, &mut mix);
        }
        for (mask, &fit) in population.chunks_exact(words).zip(&fits) {
            if fit < best_fit {
                best_fit = fit;
                best.copy_from_slice(mask);
            }
        }
        // Tournament selection + uniform crossover + mutation.
        next[..words].copy_from_slice(&best); // elitism
        for child in next.chunks_exact_mut(words).skip(1) {
            let mut pick = || {
                let a = rng.gen_range(0..size);
                let b = rng.gen_range(0..size);
                if fits[a] <= fits[b] {
                    a
                } else {
                    b
                }
            };
            let pa = pick();
            let pb = pick();
            let a = &population[pa * words..][..words];
            let b = &population[pb * words..][..words];
            for (w, gene) in child.iter_mut().enumerate() {
                let mut from_a = 0u64;
                for bit in 0..(n - 64 * w).min(64) {
                    from_a |= u64::from(rng.gen_bool(config.crossover_mix)) << bit;
                }
                *gene = b[w] ^ ((a[w] ^ b[w]) & from_a);
            }
            for (w, gene) in child.iter_mut().enumerate() {
                let mut flips = 0u64;
                for bit in 0..(n - 64 * w).min(64) {
                    flips |= u64::from(rng.gen_bool(config.mutation_rate)) << bit;
                }
                *gene ^= flips;
            }
        }
        std::mem::swap(&mut population, &mut next);
    }

    // Final repair: drop selected workers (lowest priority first, i.e. from the back of the
    // candidate ordering) until the budget and cohort-size constraints hold.
    let mut mask = best;
    loop {
        let selected = popcount(&mask);
        let traffic = tables.traffic_bytes(&mask);
        let over_budget = traffic > problem.budget_bytes && selected > 1;
        let over_count = problem.max_selected > 0 && selected > problem.max_selected;
        if !over_budget && !over_count {
            break;
        }
        match mask.iter().rposition(|&w| w != 0) {
            Some(w) => mask[w] &= !(1 << (63 - mask[w].leading_zeros())),
            None => break,
        }
    }
    if popcount(&mask) == 0 {
        mask[0] = 1;
    }

    let kl = tables.kl(&mask, &mut mix);
    let traffic = tables.traffic_bytes(&mask);
    SelectionOutcome {
        selected: set_bits(&mask).map(|i| problem.candidates[i]).collect(),
        kl,
        feasible: traffic <= problem.budget_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn traffic_bytes(mask: &[bool], batch_sizes: &[usize], feature_bytes: f64) -> f64 {
        mask.iter()
            .zip(batch_sizes)
            .filter(|(&m, _)| m)
            .map(|(_, &d)| d as f64 * feature_bytes)
            .sum()
    }

    /// The fitness as first written, over `LabelDistribution`s: the oracle the table
    /// fitness must match bit for bit.
    fn oracle_fitness(
        problem: &SelectionProblem<'_>,
        config: &GeneticConfig,
        mask: &[bool],
    ) -> f64 {
        let selected = mask.iter().filter(|&&m| m).count();
        if selected == 0 {
            return f64::INFINITY;
        }
        let kl = subset_kl(
            mask,
            problem.label_dists,
            problem.batch_sizes,
            problem.iid_reference,
        ) as f64;
        let traffic = traffic_bytes(mask, problem.batch_sizes, problem.feature_bytes_per_sample);
        let mut penalty = 0.0;
        if traffic > problem.budget_bytes {
            penalty += config.infeasibility_penalty * (traffic / problem.budget_bytes - 1.0);
        }
        if problem.max_selected > 0 && selected > problem.max_selected {
            penalty += config.infeasibility_penalty * (selected - problem.max_selected) as f64;
        }
        let coverage_bonus = 1e-3 * selected as f64;
        kl + penalty - coverage_bonus
    }

    fn to_words(mask: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; mask.len().div_ceil(64)];
        for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_fitness_matches_the_oracle_bit_for_bit(
            n in 1usize..301,
            classes in 2usize..101,
            seed in 0usize..1_000_000,
            density in 0.0f64..1.0,
            cap in 0usize..301,
            budget_share in 0.0f64..1.5,
        ) {
            let (dists, batch_sizes) = random_candidates(n, classes, seed as u64);
            let refs: Vec<&LabelDistribution> = dists.iter().collect();
            let candidates: Vec<usize> = (0..n).collect();
            let phi0 = LabelDistribution::average(&refs);
            let all_traffic: f64 = batch_sizes.iter().map(|&d| d as f64 * 96.0).sum();
            let problem = SelectionProblem {
                candidates: &candidates,
                label_dists: &refs,
                batch_sizes: &batch_sizes,
                iid_reference: &phi0,
                feature_bytes_per_sample: 96.0,
                budget_bytes: budget_share * all_traffic,
                max_selected: cap.min(n),
            };
            let config = GeneticConfig::default();
            let tables = FitnessTables::new(&problem, &config);
            let mut mix = vec![0.0f32; classes];
            let mut rng = seeded(seed as u64 ^ 0x5eed);
            let random: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            for mask in [random, vec![false; n], vec![true; n]] {
                let want = oracle_fitness(&problem, &config, &mask);
                let got = tables.fitness(&to_words(&mask), &mut mix);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "n {} mask {:?}", n, mask);
                if mask.contains(&true) {
                    let kl = subset_kl(&mask, &refs, &batch_sizes, &phi0);
                    prop_assert_eq!(tables.kl(&to_words(&mask), &mut mix).to_bits(), kl.to_bits());
                }
            }
        }
    }

    /// Skewed per-candidate label distributions over `classes` classes and batch sizes in
    /// `1..=32`, drawn from `seed`.
    fn random_candidates(
        n: usize,
        classes: usize,
        seed: u64,
    ) -> (Vec<LabelDistribution>, Vec<usize>) {
        let mut rng = seeded(seed);
        let dists = (0..n)
            .map(|_| {
                let v = (0..classes)
                    .map(|_| rng.gen::<f32>().powi(3) + 1e-3)
                    .collect();
                LabelDistribution::new(v)
            })
            .collect();
        let batches = (0..n).map(|_| rng.gen_range(1..33usize)).collect();
        (dists, batches)
    }

    fn one_hot(class: usize, num_classes: usize) -> LabelDistribution {
        let mut v = vec![0.0f32; num_classes];
        v[class] = 1.0;
        LabelDistribution::new(v)
    }

    #[test]
    fn selects_complementary_workers_under_non_iid() {
        // Four workers each holding one of four classes: the only way to reach KL ≈ 0 is to
        // select all four with equal batch sizes.
        let dists: Vec<LabelDistribution> = (0..4).map(|c| one_hot(c, 4)).collect();
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let batch_sizes = vec![8usize; 4];
        let candidates = vec![0, 1, 2, 3];
        let phi0 = LabelDistribution::uniform(4);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 1.0,
            budget_bytes: 1e9,
            max_selected: 0,
        };
        let outcome = select_workers(&problem, &GeneticConfig::default(), 1);
        assert_eq!(outcome.selected.len(), 4);
        assert!(outcome.kl < 1e-3, "KL {} should be ~0", outcome.kl);
        assert!(outcome.feasible);
    }

    #[test]
    fn respects_traffic_budget() {
        let dists: Vec<LabelDistribution> = (0..6).map(|c| one_hot(c % 3, 3)).collect();
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let batch_sizes = vec![10usize; 6];
        let candidates: Vec<usize> = (0..6).collect();
        let phi0 = LabelDistribution::uniform(3);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 100.0,
            // Budget only allows three workers' worth of features (3 * 10 * 100).
            budget_bytes: 3000.0,
            max_selected: 0,
        };
        let outcome = select_workers(&problem, &GeneticConfig::default(), 2);
        assert!(outcome.selected.len() <= 3);
        assert!(outcome.feasible);
    }

    #[test]
    fn respects_max_selected() {
        let dists: Vec<LabelDistribution> = (0..8).map(|_| LabelDistribution::uniform(2)).collect();
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let batch_sizes = vec![4usize; 8];
        let candidates: Vec<usize> = (10..18).collect();
        let phi0 = LabelDistribution::uniform(2);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 1.0,
            budget_bytes: 1e9,
            max_selected: 3,
        };
        let outcome = select_workers(&problem, &GeneticConfig::default(), 3);
        assert!(outcome.selected.len() <= 3);
        assert!(!outcome.selected.is_empty());
        // Returned ids come from the candidate list, not positional indices.
        assert!(outcome.selected.iter().all(|id| (10..18).contains(id)));
    }

    #[test]
    fn ga_beats_or_matches_random_prefix_selection() {
        // Workers with skewed two-class distributions; the GA should find a mixture closer
        // to uniform than simply taking the first k candidates.
        let dists: Vec<LabelDistribution> = vec![
            LabelDistribution::new(vec![0.9, 0.1]),
            LabelDistribution::new(vec![0.8, 0.2]),
            LabelDistribution::new(vec![0.85, 0.15]),
            LabelDistribution::new(vec![0.1, 0.9]),
            LabelDistribution::new(vec![0.2, 0.8]),
        ];
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let batch_sizes = vec![8usize; 5];
        let candidates: Vec<usize> = (0..5).collect();
        let phi0 = LabelDistribution::uniform(2);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 1.0,
            budget_bytes: 1e9,
            max_selected: 0,
        };
        let outcome = select_workers(&problem, &GeneticConfig::default(), 4);
        let prefix_mask = vec![true, true, true, false, false];
        let prefix_kl = subset_kl(&prefix_mask, &refs, &batch_sizes, &phi0);
        assert!(
            outcome.kl <= prefix_kl + 1e-6,
            "GA KL {} worse than naive prefix {}",
            outcome.kl,
            prefix_kl
        );
    }

    #[test]
    fn subset_kl_of_empty_mask_is_infinite() {
        let d = LabelDistribution::uniform(2);
        let kl = subset_kl(&[false], &[&d], &[4], &d);
        assert!(kl.is_infinite());
    }

    #[test]
    fn selection_is_deterministic_given_seed() {
        let dists: Vec<LabelDistribution> = (0..5).map(|c| one_hot(c % 2, 2)).collect();
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let batch_sizes = vec![4usize; 5];
        let candidates: Vec<usize> = (0..5).collect();
        let phi0 = LabelDistribution::uniform(2);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 1.0,
            budget_bytes: 1e9,
            max_selected: 4,
        };
        let a = select_workers(&problem, &GeneticConfig::default(), 9);
        let b = select_workers(&problem, &GeneticConfig::default(), 9);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn selection_is_pinned_on_the_fleet_shape() {
        // The fleet planner's shape: 256 candidates, 6 classes, a cohort cap of 64 and a
        // budget that binds near the cap.
        let (dists, batch_sizes) = random_candidates(256, 6, 42);
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let candidates: Vec<usize> = (0..256).map(|i| 1000 + 3 * i).collect();
        let phi0 = LabelDistribution::uniform(6);
        let problem = SelectionProblem {
            candidates: &candidates,
            label_dists: &refs,
            batch_sizes: &batch_sizes,
            iid_reference: &phi0,
            feature_bytes_per_sample: 256.0,
            budget_bytes: 64.0 * 16.0 * 256.0,
            max_selected: 64,
        };
        let outcome = select_workers(&problem, &GeneticConfig::default(), 11);
        // Candidate positions of the selected ids (id = 1000 + 3 * position).
        let positions: Vec<usize> = outcome.selected.iter().map(|id| (id - 1000) / 3).collect();
        let want: [usize; 61] = [
            0, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14, 20, 22, 23, 24, 31, 41, 50, 52, 65, 69, 72, 73,
            78, 81, 82, 83, 95, 99, 106, 107, 111, 112, 114, 116, 123, 126, 127, 140, 141, 148,
            150, 160, 174, 186, 192, 195, 196, 201, 203, 207, 208, 213, 214, 216, 217, 225, 228,
            244, 247, 252,
        ];
        assert_eq!(positions, want);
        assert_eq!(outcome.kl.to_bits(), 0x3ba06561);
        assert!(outcome.feasible);
    }
}
