//! # fiveg-phy
//!
//! Radio physical-layer substrate for the fiveg workspace.
//!
//! Models everything the paper's XCAL-Mobile probe *observed* at the
//! PHY/MAC boundary, from first principles:
//!
//! * [`carrier`] — carrier configurations: LTE band 3 (1.85 GHz FDD,
//!   20 MHz) and NR band n78 (3.5 GHz TDD 3:1, 100 MHz), Tab. 1 of the
//!   paper.
//! * [`pathloss`] — log-distance urban propagation with LoS/NLoS branches
//!   and a frequency-dependent street-clutter term, plus deterministic
//!   spatially-correlated shadowing fields. Constants are calibrated so
//!   the paper's observed cell radii (≈230 m for 5G, ≈520 m for 4G,
//!   Sec. 3.2) emerge from the model.
//! * [`penetration`] — per-material, per-frequency exterior-wall loss
//!   (brick/concrete campus walls; Sec. 3.3).
//! * [`antenna`] — 3GPP-style sectorised antenna pattern (fan-shaped gain,
//!   narrow FoV — the cause of the paper's coverage defects at locations
//!   B/C of Fig. 2b).
//! * [`mcs`] — SINR → CQI → MCS → spectral efficiency mapping and the
//!   BLER model that drives HARQ in `fiveg-ran`.
//! * [`cell`] — a physical transmitter (one sector).
//! * [`mod@env`] — the radio environment: per-location measurement of every
//!   cell (RSRP/RSRQ/SINR/CQI/MCS/bitrate), serving-cell selection; the
//!   XCAL-Mobile analogue.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod antenna;
pub mod carrier;
pub mod cell;
pub mod env;
pub mod mcs;
pub mod pathloss;
pub mod penetration;

pub use antenna::SectorAntenna;
pub use carrier::{Carrier, Duplex, Tech};
pub use cell::CellPhy;
pub use env::{CellMeasurement, KpiSample, MeasureScratch, RadioEnv, Survey};
pub use mcs::{bler, cqi_from_sinr, mcs_from_cqi, spectral_efficiency};
pub use pathloss::{PropagationParams, ShadowingField};
