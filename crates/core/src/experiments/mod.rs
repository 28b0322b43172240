//! One function per table and figure of the paper's evaluation.
//!
//! Naming follows the paper: `table1`, `fig2a`, ..., `table4`. Each
//! function takes the [`crate::Scenario`] (or builds paths directly),
//! runs the corresponding campaign and returns a typed, serialisable
//! result with a `to_text()` renderer. The `repro` binary in
//! `fiveg-bench` executes all of them and writes both text and JSON.

pub(crate) mod application;
pub(crate) mod coverage;
pub(crate) mod discussion;
pub(crate) mod energy;
pub(crate) mod handoff;
pub(crate) mod latency;
pub(crate) mod throughput;

pub use application::{fig17, video_study, Fig17, VideoStudy};
pub use coverage::{fig2a, fig2b, fig3, table1, table2, Fig2a, Fig2b, Fig3, Table1, Table2};
pub use energy::{fig21, fig22, fig23, table4, Fig21, Fig22, Fig23, Table4};
pub use handoff::{fig4, Fig4};
pub use latency::{fig13, fig14, fig15, Fig13, Fig14, Fig15};
pub use throughput::{
    fig10, fig11, fig7, fig8, fig9, table3, Fig10, Fig11, Fig7, Fig8, Fig9, Table3,
};
