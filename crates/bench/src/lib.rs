//! # aigs-bench — experiment harness for the AIGS reproduction
//!
//! One module per evaluation artefact of the paper (Section V): Tables
//! II–V and Figures 4–6, plus ablations the paper mentions in passing
//! (footnote 3's heap variant, rounding on/off). The `experiments` binary
//! prints the same rows/series the paper reports. The serving stack's
//! performance is measured by the separate `perfbench` package, end to end
//! and per layer.
//!
//! Absolute numbers differ from the paper (synthetic data, Rust instead of
//! Python, different machine); the *shape* — who wins, by what factor,
//! where crossovers happen — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod config;
pub mod figures;
pub mod report;
pub mod tables;

pub use config::ExperimentConfig;
