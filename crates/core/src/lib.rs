//! # fiveg-core
//!
//! The facade crate of the `fiveg` workspace: a simulation reproduction
//! of *"Understanding Operational 5G: A First Measurement Study on Its
//! Coverage, Performance and Energy Consumption"* (SIGCOMM 2020).
//!
//! Everything the paper measures has a counterpart here:
//!
//! * [`Scenario`] — the canonical measurement scenario: the synthetic
//!   campus, the NSA deployment, day/night regimes, seeds, at a
//!   [`Fidelity`].
//! * [`calib`] — the paper's published numbers (tables/figures), kept in
//!   one place so experiments can print paper-vs-measured.
//! * [`table1`], [`fig2a`], …, [`table4`] — one function per table and
//!   figure of the paper's evaluation; each returns a typed result that
//!   renders to text and serialises to JSON. [`jobs`] registers them as
//!   the campaign's paper suite.
//! * [`scenario_run`] — the scenario DSL runner: interprets declarative
//!   scenario files (`fiveg-scenario`) into survey or UE-fleet
//!   simulations with fault injection, runnable as campaign jobs.
//! * [`par_map_with`] — the order-preserving parallel map the sweeps
//!   run on, in chunks of [`CHUNK`] items.
//!
//! ## Quickstart
//!
//! ```
//! use fiveg_core::Scenario;
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
mod experiments;
pub mod jobs;
mod par;
mod report;
mod scenario;
pub mod scenario_run;

pub use experiments::{
    fig10, fig11, fig13, fig14, fig15, fig17, fig21, fig22, fig23, fig2a, fig2b, fig3, fig4, fig7,
    fig8, fig9, table1, table2, table3, table4, video_study, Fig10, Fig11, Fig13, Fig14, Fig15,
    Fig17, Fig21, Fig22, Fig23, Fig2a, Fig2b, Fig3, Fig4, Fig7, Fig8, Fig9, Table1, Table2, Table3,
    Table4, VideoStudy,
};
pub use par::{par_map_with, CHUNK};
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
