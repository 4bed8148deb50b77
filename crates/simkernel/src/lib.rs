//! # ivdss-simkernel — discrete-event simulation kernel
//!
//! A minimal, deterministic discrete-event simulation (DES) kernel, the Rust
//! equivalent of the JavaSim package the ICDCS 2009 paper *Information
//! Value-driven Near Real-Time Decision Support Systems* used for its
//! experimental evaluation.
//!
//! The kernel provides:
//!
//! * [`time`] — validated [`time::SimTime`] / [`time::SimDuration`] newtypes;
//! * [`events`] — a stable priority [`events::EventQueue`] and the
//!   [`events::Engine`] dispatch loop;
//! * [`rng`] — reproducible random streams, including the
//!   [`rng::ExponentialStream`] the paper uses for query arrivals and table
//!   synchronization, plus a [`rng::SeedFactory`] for common-random-number
//!   experiments;
//! * [`stats`] — online moments, time-weighted gauges and exact quantiles
//!   for collecting experiment outputs;
//! * [`facility`] — the [`facility::Calendar`] server model used both by
//!   the simulator and by the planners when they estimate queuing delay.
//!
//! # Example
//!
//! A small simulation with an exponential arrival stream:
//!
//! ```
//! use ivdss_simkernel::events::Engine;
//! use ivdss_simkernel::rng::{ExponentialStream, Stream};
//! use ivdss_simkernel::stats::OnlineStats;
//! use ivdss_simkernel::time::SimTime;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival(u32) }
//!
//! let mut arrivals = ExponentialStream::new(2.0, 7);
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO, Ev::Arrival(0));
//! let mut gaps = OnlineStats::new();
//! let mut last = SimTime::ZERO;
//! engine.run(|eng, Ev::Arrival(n)| {
//!     gaps.record((eng.now() - last).value());
//!     last = eng.now();
//!     if n < 99 {
//!         eng.schedule(eng.now() + arrivals.next_duration(), Ev::Arrival(n + 1));
//!     }
//! });
//! assert_eq!(gaps.count(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod facility;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{Engine, EventQueue};
pub use facility::{Calendar, ServiceWindow};
pub use rng::{ExponentialStream, SeedFactory, Stream, UniformStream};
pub use stats::{OnlineStats, SampleSet, TimeWeighted};
pub use time::{SimDuration, SimTime};
