#![forbid(unsafe_code)]
//! Shared plumbing for the figure-regeneration binaries: tiny CLI
//! parsing, the observer gates (sanitize/race/spec/checkpoint/replay), exporters,
//! and wall-clock timing.
//!
//! The machine shapes and the graph menu standing in for the paper's
//! inputs moved to [`updown_apps::harness`] so that analysis tools
//! (`ud cost --figure9`) can reconstruct bench inputs without depending on
//! this crate; they are re-exported here so bench binaries and external
//! callers keep their spelling.

pub mod cli;
pub mod timing;

pub use cli::{Cli, Exporter, Gates, StdOpts};
pub use updown_apps::harness::{
    bench_machine, bench_machine_threads, bench_machine_topo, graph_menu, graph_menu_seeded,
    node_sweep, prepared, prepared_undirected, BENCH_ACCELS, BENCH_LANES,
};

use updown_sim::MachineConfig;

impl StdOpts {
    /// The machine the shared flags ask for: `nodes` nodes at
    /// `--threads` workers on the `--topology` network.
    pub fn machine(&self, nodes: u32) -> MachineConfig {
        bench_machine_topo(nodes, self.threads, self.topology)
    }
}
