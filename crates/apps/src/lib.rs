//! # fiveg-apps
//!
//! Application workload models for the paper's Sec. 5 QoE study:
//!
//! * [`load_page`] — mobile web browsing: five page categories
//!   ([`PageCategory`], [`WebPage`]) and an image-size sweep
//!   ([`ImagePage`]), with the download/render split of Figs. 16–17
//!   ([`PageLoadResult`]).
//!   The headline finding this reproduces: 5G's 5× throughput buys only
//!   ≈5 % PLT because rendering is device-bound and short flows finish
//!   before TCP converges.
//! * [`VideoSession`] — the 360TEL UHD panoramic video-telephony system:
//!   resolution-dependent frame-rate processes ([`Resolution`], static
//!   vs dynamic [`SceneKind`]s), the H.264 pipeline latencies the paper
//!   measured ([`PipelineLatency`]: encode 160 ms, decode 50 ms,
//!   capture/splice/render ≈440 ms), uplink streaming over the
//!   calibrated paths, freeze detection and stopwatch frame delay
//!   (Figs. 18–20, [`VideoResult`]).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod video;
mod web;

pub use video::{PipelineLatency, Resolution, SceneKind, VideoResult, VideoSession};
pub use web::{load_page, ImagePage, PageCategory, PageLoadResult, WebPage};
