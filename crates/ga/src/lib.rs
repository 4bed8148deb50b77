//! # ivdss-ga — genetic algorithm for workload ordering
//!
//! The paper's multi-query optimizer (§3.2) searches the space of workload
//! execution orders with a genetic algorithm: chromosomes are
//! "permutations of unique integers", recombination is order crossover,
//! and "the generational loop ends … after 50 generations". This crate
//! provides that machinery, decoupled from the DSS domain:
//!
//! * [`permutation::Permutation`] — validated permutation genomes with
//!   order crossover (OX) and swap/insert mutation;
//! * [`engine::optimize_permutation`] — the elitist generational loop.
//!
//! # Example
//!
//! ```
//! use ivdss_ga::{optimize_permutation, GaConfig};
//!
//! // Maximize the number of adjacent ascending pairs → identity order.
//! let result = optimize_permutation(7, &GaConfig::paper(), |p| {
//!     p.as_slice().windows(2).filter(|w| w[0] < w[1]).count() as f64
//! });
//! assert_eq!(result.best_fitness, 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod permutation;

pub use engine::{optimize_permutation, GaConfig, GaResult};
pub use permutation::Permutation;
