//! `fiveg-scenario`: the declarative scenario DSL.
//!
//! Scenarios — campus layout, interference loads, UE fleets with
//! mobility/arrival/app mixes, and fault-injection schedules — are
//! data files, not Rust code. This crate defines the data model
//! ([`ScenarioSpec`]), a strict parser built on the `fiveg-obs` JSON
//! reader ([`parse_scenario`], unknown keys rejected with `file:line`
//! locations), a canonical emitter ([`emit_scenario`], byte-stable
//! round trips), and a grid/sweep variant generator ([`expand`] over a
//! [`FamilySpec`] read by [`parse_family`]).
//!
//! `fiveg-core` interprets a parsed spec into a running simulation;
//! `fiveg-campaign` schedules scenario files as jobs next to the
//! registry; the `scen` binary checks, formats and expands scenario
//! files from the command line.
//!
//! Zero external dependencies: parsing reuses the observability
//! crate's deterministic JSON reader, keeping scenario bytes →
//! artifact bytes a closed, reproducible loop.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod emit;
mod parse;
mod spec;
mod variants;

pub use emit::emit_scenario;
pub use parse::{parse_scenario, ScenarioError};
pub use spec::{
    AppSpec, ArrivalSpec, CampusSpec, CityDslSpec, CityPreset, FaultSpec, FleetSpec, LoadSpec,
    MobilitySpec, Period, ScenarioSpec, SceneSpec, SpecError, SurveySpec, TechSpec, UeGroupSpec,
    VideoRes, WebCategory, WorkloadSpec, MIN_CAMPUS_SIDE_M,
};
pub use variants::{expand, parse_family, Axis, FamilySpec};
