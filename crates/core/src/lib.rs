//! # fiveg-core
//!
//! The facade crate of the `fiveg` workspace: a simulation reproduction
//! of *"Understanding Operational 5G: A First Measurement Study on Its
//! Coverage, Performance and Energy Consumption"* (SIGCOMM 2020).
//!
//! Everything the paper measures has a counterpart here:
//!
//! * [`scenario`] — the canonical measurement scenario: the synthetic
//!   campus, the NSA deployment, day/night regimes, seeds.
//! * [`calib`] — the paper's published numbers (tables/figures), kept in
//!   one place so experiments can print paper-vs-measured.
//! * [`experiments`] — one function per table and figure of the paper's
//!   evaluation; each returns a typed result that renders to text and
//!   serialises to JSON.
//! * [`report`] — tiny text-rendering helpers shared by the experiment
//!   outputs.
//! * [`scenario_run`] — the scenario DSL runner: interprets declarative
//!   scenario files (`fiveg-scenario`) into survey or UE-fleet
//!   simulations with fault injection, runnable as campaign jobs.
//!
//! ## Quickstart
//!
//! ```
//! use fiveg_core::scenario::Scenario;
//! use fiveg_phy::Tech;
//! use fiveg_geo::Point;
//!
//! // Build the paper's campus and take one KPI sample, as the paper's
//! // XCAL rig would.
//! let sc = Scenario::paper(2020);
//! let kpi = sc
//!     .env
//!     .kpi_sample(Point::new(250.0, 460.0), Tech::Nr, 1.0)
//!     .expect("NR is deployed");
//! assert!(kpi.serving.rsrp.value() > -140.0);
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod calib;
pub mod experiments;
pub mod jobs;
pub mod par;
pub mod report;
pub mod scenario;
pub mod scenario_run;

pub use scenario::{Fidelity, Scenario};

// Re-export the component crates so downstream users need one dependency.
pub use fiveg_apps as apps;
pub use fiveg_campaign as campaign;
pub use fiveg_energy as energy;
pub use fiveg_geo as geo;
pub use fiveg_net as net;
pub use fiveg_phy as phy;
pub use fiveg_ran as ran;
pub use fiveg_scenario as scenario_dsl;
pub use fiveg_simcore as simcore;
pub use fiveg_transport as transport;
