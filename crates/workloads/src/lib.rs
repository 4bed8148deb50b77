//! # ivdss-workloads — the paper's evaluation workloads
//!
//! Reproduces the two data/query sets of §4.1:
//!
//! * [`tpch`] — the 22 TPC-H queries as footprints over the 12-table
//!   catalog (LineItem split into 5 partitions), plus the Fig. 6/7
//!   "neither too cheap nor too expensive" 15-query selection;
//! * [`synthetic`] — 120 random queries touching 1–10 of up to 300
//!   tables (Fig. 8) and overlap-rate-controlled workloads (Fig. 9a);
//! * [`stream`] — exponential arrival streams and the paper's Fq:Fs
//!   frequency ratios (1:0.1 … 1:20).
//!
//! # Example
//!
//! ```
//! use ivdss_workloads::stream::{ArrivalStream, FrequencyRatio};
//! use ivdss_workloads::tpch::tpch_query_specs;
//!
//! let ratio = FrequencyRatio::one_to(10.0);
//! let mut arrivals = ArrivalStream::new(tpch_query_specs(), 20.0, 7);
//! let requests = arrivals.take_requests(100);
//! assert_eq!(requests.len(), 100);
//! // Syncs are 10× as frequent as queries at 1:10.
//! assert_eq!(ratio.sync_period(20.0), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stream;
pub mod synthetic;
pub mod tpch;

pub use stream::{ArrivalStream, FrequencyRatio};
pub use synthetic::{
    measured_overlap, overlapping_queries, random_queries, OverlapConfig, RandomQueryConfig,
};
pub use tpch::{mid_cost_query_specs, tpch_query_specs, TpchQuery, TPCH_QUERIES};
