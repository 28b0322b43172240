//! # fiveg-phy
//!
//! Radio physical-layer substrate for the fiveg workspace.
//!
//! Models everything the paper's XCAL-Mobile probe *observed* at the
//! PHY/MAC boundary, from first principles:
//!
//! * [`Carrier`] — carrier configurations ([`Tech`], [`Duplex`]): LTE
//!   band 3 (1.85 GHz FDD, 20 MHz) and NR band n78 (3.5 GHz TDD 3:1,
//!   100 MHz), Tab. 1 of the paper.
//! * [`PropagationParams`] — log-distance urban propagation with
//!   LoS/NLoS branches and a frequency-dependent street-clutter term,
//!   plus deterministic spatially-correlated [`ShadowingField`]s.
//!   Constants are calibrated so the paper's observed cell radii
//!   (≈230 m for 5G, ≈520 m for 4G, Sec. 3.2) emerge from the model.
//!   Exterior walls add a per-material, per-frequency loss
//!   (brick/concrete campus walls; Sec. 3.3).
//! * [`SectorAntenna`], [`VerticalPattern`] — 3GPP-style sectorised
//!   antenna pattern (fan-shaped gain, narrow FoV — the cause of the
//!   paper's coverage defects at locations B/C of Fig. 2b) and
//!   electrical downtilt.
//! * [`cqi_from_sinr`], [`select_mcs`], [`spectral_efficiency`],
//!   [`rate_fraction`], [`bler`] — SINR → CQI → MCS → spectral
//!   efficiency mapping and the BLER model that drives HARQ in
//!   `fiveg-ran`.
//! * [`CellPhy`] — a physical transmitter (one sector).
//! * [`RadioEnv`] — the radio environment: per-location measurement of
//!   every cell ([`CellMeasurement`], [`KpiSample`]: RSRP/RSRQ/SINR/CQI/
//!   MCS/bitrate) through a reusable [`MeasureScratch`] and a
//!   [`Survey`], and serving-cell selection; the XCAL-Mobile analogue.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod antenna;
mod carrier;
mod cell;
mod env;
mod mcs;
mod pathloss;
mod penetration;

pub use antenna::{SectorAntenna, VerticalPattern};
pub use carrier::{Carrier, Duplex, Tech};
pub use cell::CellPhy;
pub use env::{CellMeasurement, KpiSample, MeasureScratch, RadioEnv, Survey};
pub use mcs::{
    bler, cqi_from_sinr, mcs_sinr_requirement_db, rate_fraction, select_mcs, spectral_efficiency,
    CQI_SINR_THRESHOLD_DB,
};
pub use pathloss::{PropagationParams, ShadowingField};
