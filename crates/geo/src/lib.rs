//! # fiveg-geo
//!
//! Geometry and mobility substrate for the fiveg workspace.
//!
//! The paper's coverage study (Sec. 3) was conducted on a 0.5 km × 0.92 km
//! university campus with brick/concrete buildings, a road network walked
//! at 4–5 km/h, 6 NSA gNB sites and 13 LTE eNB sites. This crate provides
//! the synthetic equivalent:
//!
//! * [`point`] — 2-D points, segments, rectangles (metres).
//! * [`building`] — building footprints with wall materials and
//!   segment/footprint intersection tests (wall-crossing counts drive the
//!   penetration-loss model in `fiveg-phy`).
//! * [`map`] — the campus map: bounds, buildings, roads, and the indoor
//!   and ray-blockage queries, answered through the map's spatial index.
//! * [`index`] — uniform-grid spatial index that prefilters the buildings
//!   a point or ray can touch, keeping the hot propagation queries
//!   O(candidates) instead of O(buildings).
//! * [`tiled`] — hierarchical tile-directory index for city-scale maps
//!   (same conservative query contract, O(footprint) memory).
//! * [`campus`] — deterministic synthetic campus generator matched to the
//!   paper's dimensions and site densities.
//! * [`city`] — procedural metro generator tiling the campus grammar
//!   over `CitySpec` footprints (3GPP-style dense-urban / rural /
//!   indoor-hotspot presets), seeded per tile from `SimRng` substreams.
//! * [`mobility`] — walk/bike mobility models producing timestamped
//!   position traces (road survey, random waypoint, linear transects).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

pub mod building;
pub mod campus;
pub mod city;
pub mod index;
pub mod map;
pub mod mobility;
pub mod point;
pub mod tiled;

pub use building::{Building, Material};
pub use campus::{Campus, CampusConfig, SitePlan};
pub use city::{generate_city, CityPreset, CitySpec};
pub use index::SpatialIndex;
pub use map::{CampusMap, MapIndex};
pub use mobility::{LinearTransect, MobilityTrace, RandomWaypoint, RoadSurvey, TracePoint};
pub use point::{Point, Rect, Segment};
pub use tiled::TiledSpatialIndex;
