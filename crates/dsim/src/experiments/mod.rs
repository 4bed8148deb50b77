//! Experiment drivers — one module per figure of the paper's §4.
//!
//! Each `run_figN` function returns a structured result with a
//! `to_table()` renderer; the `ivdss-bench` crate wraps them in binaries
//! (`cargo run -p ivdss-bench --release --bin figN`).

pub mod adaptive_sync;
pub mod calibration;
pub mod cluster;
pub mod common;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod fig9;
pub mod scenarios;

pub use adaptive_sync::{run_adaptive_point, AdaptiveSyncConfig, AdaptiveSyncPoint};
pub use calibration::{
    run_calibration, run_calibration_traced, CalibrationConfig, CalibrationResults,
};
pub use cluster::{run_cluster_point, ClusterScalingConfig, ClusterScalingPoint, SHARD_COUNTS};
pub use common::{method_setups, synthetic_hybrid, tpch_hybrid, Method, MethodSetup};
pub use fig4::{fig4_setup, run_fig4, Fig4Results, Fig4Setup};
pub use fig5::{fig5_rate_configs, run_fig5, Fig5Cell, Fig5Config, Fig5Results};
pub use fig67::{run_fig6, run_fig7, Fig67Config, Fig6Results, Fig7Results};
pub use fig8::{run_fig8, Fig8Config, Fig8Point, Fig8Results};
pub use fig9::{run_fig9, Fig9Config, Fig9Point, Fig9Results};
pub use scenarios::{run_scenario, run_scenario_traced, ScenarioPoint, TenantPoint};
