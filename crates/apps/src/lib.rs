#![forbid(unsafe_code)]
//! # updown-apps
//!
//! The paper's graph applications on KVMSR+UDWeave: PageRank (§4.1), BFS
//! (§4.2), Triangle Counting (§4.3), streaming ingestion with TFORM and
//! Partial Match (§5.2.4) — plus host CPU baselines and sweep harness
//! helpers used by the figure-regeneration binaries.

pub mod baseline;
pub mod bfs;
pub mod exact_match;
pub mod harness;
pub mod ingest;
pub mod pagerank;
pub mod partial_match;
pub mod tc;

/// DRAMmalloc block size of the PageRank, BFS and TC graph arrays: the
/// paper's `DRAMmalloc(size, 0, NRnodes, 32KB)` (§4.1.1).
pub const GRAPH_BLOCK_BYTES: u64 = 32 * 1024;

pub use bfs::{run_bfs, BfsConfig, BfsResult};
pub use pagerank::{run_pagerank, PrConfig, PrResult};
pub use tc::{run_tc, TcConfig, TcResult};
