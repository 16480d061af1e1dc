#![forbid(unsafe_code)]
//! # updown-sim
//!
//! A deterministic discrete-event simulator for the **UpDown graph
//! supercomputer** described in *"KVMSR+UDWeave: Extreme-Scaling with
//! Fine-grained Parallelism on the UpDown Graph Supercomputer"* (SC
//! Workshops '25). It models:
//!
//! - the lane / accelerator / node hierarchy (64 lanes per accelerator,
//!   32 accelerators per node, §3 of the paper),
//! - event-driven lanes with software-managed thread contexts executing
//!   10–100 instruction tasks atomically, under the Table-2 cost model,
//! - single-cycle message sends with tiered network latency and per-node
//!   NIC injection bandwidth (PolarStar abstracted, Figure 6),
//! - a shared global address space with hardware block-cyclic translation
//!   descriptors ("swizzle masks", §2.4) and per-node DRAM channel
//!   bandwidth/latency.
//!
//! The [`udweave`](../udweave) crate layers the UDWeave programming API on
//! top; [`kvmsr`](../kvmsr) builds the map-shuffle-reduce runtime on that.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};
//!
//! let mut eng = Engine::new(MachineConfig::small(1, 1, 4));
//! let hello = eng.register("hello", Arc::new(|ctx: &mut updown_sim::EventCtx| {
//!     ctx.yield_terminate();
//! }));
//! eng.send(EventWord::new(NetworkId(0), hello), [], EventWord::IGNORE);
//! let report = eng.run();
//! assert_eq!(report.stats.events_executed, 1);
//! ```

pub mod calendar;
pub mod config;
pub mod engine;
pub mod ids;
pub mod json;
pub mod lane;
pub mod memory;
pub mod message;
pub mod network;
pub mod probe;
pub mod race;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod trace;

pub use calendar::CalendarQueue;
pub use config::{MachineConfig, MemoryConfig, NetworkConfig, OpCosts, OP_COSTS};
pub use engine::{Engine, EventCtx, Handler, ShardSlot, Snapshot, TableSlot};
pub use lane::SimState;
pub use ids::{EventLabel, EventWord, NetworkId, ThreadId};
pub use memory::{GlobalMemory, MemError, TranslationDescriptor, VAddr};
pub use message::{Message, Operands};
pub use network::{Fabric, Link, LinkId, Nics, Topology, TopologyKind};
pub use probe::{DiagKind, Diagnostic, ProbeReport, ProtocolProbe};
pub use snapshot::{
    fnv1a, ReplayCheck, ReplayRunReport, SnapField, SnapReader, SnapState, SnapWriter, SnapshotError,
    SNAP_SCHEMA,
};
pub use race::{Footprint, RaceKind, RaceProbe, RaceReport, RaceSite, RaceSpace, Region};
pub use spec::{
    Bound, Certification, EventDecl, Finding, GroupBound, ProgramSpec, SendDecl, Severity,
    ThreadDecl, Workload,
};
pub use stats::{
    Counters, FabricMetrics, HostCalendarStats, HostSchedStats, LaneMetrics, LinkMetrics, Metrics,
    NodeMetrics, SchedMetrics, UTIL_HIST_BUCKETS,
};
pub use trace::{ChromeTrace, DramStage, PhaseSpan, TraceEvent, Tracer};
