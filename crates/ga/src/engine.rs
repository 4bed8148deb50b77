//! The generational loop.
//!
//! Faithful to the paper's description (§3.2): "Initially a random set of
//! chromosomes is created for the population. The chromosomes are
//! evaluated … and the best ones are chosen to be parents. The parents
//! recombine to produce children, simulating sexual crossover, and
//! occasionally a mutation may arise … The children are ranked based on
//! the evaluation function, and the best subset of the children is chosen
//! to be the parents of the next generation … The generational loop ends
//! after some stopping condition is met; we chose to end after 50
//! generations had passed."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::permutation::Permutation;

/// Configuration of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size per generation.
    pub population: usize,
    /// Number of generations (the paper uses 50).
    pub generations: usize,
    /// Number of top-ranked individuals kept as parents each generation.
    pub parents: usize,
    /// Probability that a child undergoes one mutation.
    pub mutation_rate: f64,
    /// Number of best individuals copied unchanged into the next
    /// generation (elitism) so the incumbent never regresses.
    pub elites: usize,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
}

impl GaConfig {
    /// The paper's configuration: 50 generations; the remaining knobs use
    /// conventional defaults (population 32, 8 parents, 20 % mutation,
    /// 2 elites).
    #[must_use]
    pub fn paper() -> Self {
        GaConfig {
            population: 32,
            generations: 50,
            parents: 8,
            mutation_rate: 0.2,
            elites: 2,
            seed: 0x9a,
        }
    }

    fn validate(&self) {
        assert!(self.population >= 2, "population must be at least 2");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(
            (1..=self.population).contains(&self.parents),
            "parents must be within 1..=population"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation rate must be within [0, 1]"
        );
        assert!(self.elites <= self.parents, "elites cannot exceed parents");
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::paper()
    }
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// The best permutation found across all generations.
    pub best: Permutation,
    /// Its fitness.
    pub best_fitness: f64,
    /// Best fitness per generation (monotone non-decreasing thanks to
    /// elitism) — useful for convergence plots.
    pub history: Vec<f64>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
}

/// Maximizes `fitness` over permutations of `0..len` with a genetic
/// algorithm.
///
/// Fitness must be finite; higher is better. Deterministic given
/// `config.seed`.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (see [`GaConfig`] field
/// docs) or if `fitness` returns NaN.
///
/// # Examples
///
/// Recover a known target ordering:
///
/// ```
/// use ivdss_ga::engine::{optimize_permutation, GaConfig};
///
/// // Fitness: number of items at their identity position.
/// let result = optimize_permutation(6, &GaConfig::paper(), |p| {
///     p.iter().enumerate().filter(|&(i, x)| i == x).count() as f64
/// });
/// assert_eq!(result.best_fitness, 6.0);
/// ```
pub fn optimize_permutation<F>(len: usize, config: &GaConfig, fitness: F) -> GaResult
where
    F: Fn(&Permutation) -> f64,
{
    config.validate();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut evaluations = 0usize;
    let mut evaluate_all = |generation: &[Permutation]| -> Vec<f64> {
        evaluations += generation.len();
        let fits: Vec<f64> = generation.iter().map(&fitness).collect();
        assert!(fits.iter().all(|f| !f.is_nan()), "fitness must not be NaN");
        fits
    };

    // Initial random population (plus the identity, a sensible incumbent
    // for scheduling problems: FIFO order).
    let mut genomes: Vec<Permutation> = Vec::with_capacity(config.population);
    genomes.push(Permutation::identity(len));
    while genomes.len() < config.population {
        genomes.push(Permutation::random(len, &mut rng));
    }
    let fits = evaluate_all(&genomes);
    let mut population: Vec<(Permutation, f64)> = genomes.into_iter().zip(fits).collect();
    rank(&mut population);

    let mut best = population[0].clone();
    let mut history = Vec::with_capacity(config.generations);

    for _ in 0..config.generations {
        let parents: Vec<Permutation> = population
            .iter()
            .take(config.parents)
            .map(|(p, _)| p.clone())
            .collect();

        let mut next: Vec<(Permutation, f64)> =
            population.iter().take(config.elites).cloned().collect();

        // Breed the whole generation first, then evaluate it.
        let mut children: Vec<Permutation> = Vec::with_capacity(config.population - next.len());
        while next.len() + children.len() < config.population {
            let i = rng.random_range(0..parents.len());
            let j = rng.random_range(0..parents.len());
            let mut child = Permutation::order_crossover(&parents[i], &parents[j], &mut rng);
            if rng.random::<f64>() < config.mutation_rate {
                if rng.random::<bool>() {
                    child.swap_mutate(&mut rng);
                } else {
                    child.insert_mutate(&mut rng);
                }
            }
            children.push(child);
        }
        let fits = evaluate_all(&children);
        next.extend(children.into_iter().zip(fits));
        rank(&mut next);
        population = next;

        if population[0].1 > best.1 {
            best = population[0].clone();
        }
        history.push(best.1);
    }

    GaResult {
        best: best.0,
        best_fitness: best.1,
        history,
        evaluations,
    }
}

fn rank(population: &mut [(Permutation, f64)]) {
    population.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("fitness is never NaN"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fitness rewarding ascending order (count of adjacent ascending
    /// pairs) — unique optimum is the identity.
    fn ascending_fitness(p: &Permutation) -> f64 {
        p.as_slice().windows(2).filter(|w| w[0] < w[1]).count() as f64
    }

    #[test]
    fn finds_identity_ordering() {
        let result = optimize_permutation(8, &GaConfig::paper(), ascending_fitness);
        assert_eq!(result.best_fitness, 7.0);
        assert_eq!(result.best, Permutation::identity(8));
    }

    #[test]
    fn history_is_monotone_with_elitism() {
        let result = optimize_permutation(10, &GaConfig::paper(), ascending_fitness);
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0], "elitism must prevent regression");
        }
        assert_eq!(result.history.len(), 50);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = optimize_permutation(9, &GaConfig::paper(), ascending_fitness);
        let b = optimize_permutation(9, &GaConfig::paper(), ascending_fitness);
        assert_eq!(a, b);
        let other = GaConfig {
            seed: 123,
            ..GaConfig::paper()
        };
        let c = optimize_permutation(9, &other, ascending_fitness);
        // Same optimum but (almost surely) different evaluation counts.
        assert_eq!(c.best_fitness, a.best_fitness);
    }

    #[test]
    fn beats_random_sampling_on_budget() {
        // With the same number of evaluations, the GA should do at least as
        // well as pure random search on a rugged fitness.
        let rugged = |p: &Permutation| {
            p.iter()
                .enumerate()
                .map(|(i, x)| if (i + x) % 3 == 0 { 1.0 } else { 0.0 })
                .sum::<f64>()
                + ascending_fitness(p)
        };
        let ga = optimize_permutation(12, &GaConfig::paper(), rugged);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let mut best_random = f64::NEG_INFINITY;
        for _ in 0..ga.evaluations {
            let p = Permutation::random(12, &mut rng);
            best_random = best_random.max(rugged(&p));
        }
        assert!(
            ga.best_fitness >= best_random,
            "GA {} < random {best_random}",
            ga.best_fitness
        );
    }

    #[test]
    fn single_element_problem() {
        let result = optimize_permutation(1, &GaConfig::paper(), |_| 42.0);
        assert_eq!(result.best_fitness, 42.0);
        assert_eq!(result.best.len(), 1);
    }

    #[test]
    fn evaluations_counted() {
        let cfg = GaConfig {
            population: 10,
            generations: 5,
            parents: 4,
            elites: 2,
            ..GaConfig::paper()
        };
        let result = optimize_permutation(5, &cfg, ascending_fitness);
        // Initial 10 + 5 generations × 8 children.
        assert_eq!(result.evaluations, 10 + 5 * 8);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let cfg = GaConfig {
            population: 1,
            ..GaConfig::paper()
        };
        let _ = optimize_permutation(3, &cfg, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_fitness_rejected() {
        let _ = optimize_permutation(3, &GaConfig::paper(), |_| f64::NAN);
    }
}
