//! # fiveg-energy
//!
//! Smartphone energy model — the pwrStrip analogue (paper Sec. 6).
//!
//! * [`params`] — the operator's RRC/DRX timer values (paper Tab. 7),
//!   per-state radio power draws and non-radio component powers,
//!   calibrated to the paper's Fig. 21 breakdown (5G radio ≈55 % of the
//!   budget, 2–3× the 4G radio, 1.8× the screen).
//! * [`machine`] — the RRC + DRX radio state machine (paper Fig. 25):
//!   idle paging, promotion (with the NSA double-promotion through LTE),
//!   continuous reception, inactivity window, C-DRX tail, release.
//!   Replays a traffic trace into a power time-series and total energy.
//! * [`profile`] — application-session power breakdowns (Fig. 21) and
//!   the energy-per-bit sweep (Fig. 22).
//! * [`sched`] — the Tab. 4 power-management strategies: LTE-only,
//!   NR NSA, NR Oracle (perfect sleep) and the paper's dynamic 4G/5G
//!   switching heuristic.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod machine;
pub mod params;
pub mod profile;
pub mod sched;

pub use machine::{Burst, EnergyTrace, RadioStateMachine};
pub use params::{ComponentPower, DrxParams, RadioModel, RadioPower};
pub use profile::{app_session_breakdown, energy_per_bit, AppKind, PowerBreakdown};
pub use sched::{replay_energy, Strategy, TrafficTrace};
