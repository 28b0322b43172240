//! # fiveg-energy
//!
//! Smartphone energy model — the pwrStrip analogue (paper Sec. 6).
//!
//! * [`RadioModel`] — the operator's RRC/DRX timer values
//!   ([`DrxParams`], paper Tab. 7), per-state [`RadioPower`] draws and
//!   non-radio [`ComponentPower`]s, calibrated to the paper's Fig. 21
//!   breakdown (5G radio ≈55 % of the budget, 2–3× the 4G radio, 1.8×
//!   the screen).
//! * [`RadioStateMachine`] — the RRC + DRX radio state machine (paper
//!   Fig. 25, [`RadioState`]): idle paging, promotion (with the NSA
//!   double-promotion through LTE), continuous reception, inactivity
//!   window, C-DRX tail, release. Replays [`Burst`]s into an
//!   [`EnergyTrace`]: a power time-series and total energy.
//! * [`app_session_breakdown`] ([`AppKind`], [`PowerBreakdown`]) —
//!   application-session power breakdowns (Fig. 21), and
//!   [`energy_per_bit_sweep`], the energy-per-bit sweep (Fig. 22).
//! * [`replay_energy`] — the Tab. 4 power-management [`Strategy`]s
//!   replayed over a [`TrafficTrace`]: LTE-only, NR NSA, NR Oracle
//!   (perfect sleep) and the paper's dynamic 4G/5G switching heuristic.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod machine;
mod params;
mod profile;
mod sched;

pub use machine::{Burst, EnergyTrace, RadioState, RadioStateMachine};
pub use params::{ComponentPower, DrxParams, RadioModel, RadioPower};
pub use profile::{app_session_breakdown, energy_per_bit_sweep, AppKind, PowerBreakdown};
pub use sched::{replay_energy, Strategy, TrafficTrace};
