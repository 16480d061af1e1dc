//! # udbench
//!
//! The repository's measuring stick, built from outside the simulator: it
//! calls the crates' public functions, times those calls, and reads the
//! [`updown_sim::Metrics`] each run returns. It changes no simulator code
//! and claims no gain. See `README.md` beside this crate for the metric
//! glossary, the workloads and how the layers' numbers are expected to
//! move the end-to-end ones.
//!
//! One *sample* is one process: set-up, a timed region that repeats the
//! workload for a fixed number of seconds, then verification against a
//! host oracle ([`sample`]). The runner ([`report`]) spawns samples as
//! children of itself, compares two result files, and self-checks.

pub mod host;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod sample;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Per-layer metric values keyed by metric name.
pub type Layer = std::collections::BTreeMap<&'static str, f64>;
