//! # fiveg-geo
//!
//! Geometry and mobility substrate for the fiveg workspace.
//!
//! The paper's coverage study (Sec. 3) was conducted on a 0.5 km × 0.92 km
//! university campus with brick/concrete buildings, a road network walked
//! at 4–5 km/h, 6 NSA gNB sites and 13 LTE eNB sites. This crate provides
//! the synthetic equivalent:
//!
//! * [`Point`], [`Segment`], [`Rect`] — 2-D geometry in metres.
//! * [`Building`] — a footprint with a wall [`Material`] and
//!   segment/footprint intersection tests (wall-crossing counts drive the
//!   penetration-loss model in `fiveg-phy`).
//! * [`CampusMap`] — bounds, buildings, [`Road`]s, and the indoor and
//!   ray-blockage queries, answered through the map's [`MapIndex`]: a
//!   uniform-grid [`SpatialIndex`] that prefilters the buildings a point
//!   or ray can touch, or, at [`TILED_INDEX_THRESHOLD`] buildings and
//!   up, the tile-directory [`TiledSpatialIndex`] (same conservative
//!   query contract, O(footprint) memory).
//! * [`Campus`] — deterministic synthetic campus generator
//!   ([`CampusConfig`]) matched to the paper's dimensions and site
//!   densities, with its [`SitePlan`] of [`Site`]s.
//! * [`generate_city`] — procedural metro generator tiling the campus
//!   grammar over [`CitySpec`] footprints ([`CityPreset`]: 3GPP-style
//!   dense-urban / rural / indoor-hotspot), seeded per tile from
//!   `SimRng` substreams.
//! * [`RoadSurvey`], [`RandomWaypoint`], [`LinearTransect`] — walk/bike
//!   mobility models producing timestamped [`MobilityTrace`]s of
//!   [`TracePoint`]s.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod building;
mod campus;
mod city;
mod index;
mod map;
mod mobility;
mod point;
mod tiled;

pub use building::{Building, Material};
pub use campus::{Campus, CampusConfig, Site, SitePlan};
pub use city::{generate_city, CityPreset, CitySpec};
pub use index::SpatialIndex;
pub use map::{CampusMap, MapIndex, Road, TILED_INDEX_THRESHOLD};
pub use mobility::{LinearTransect, MobilityTrace, RandomWaypoint, RoadSurvey, TracePoint};
pub use point::{Point, Rect, Segment};
pub use tiled::TiledSpatialIndex;
