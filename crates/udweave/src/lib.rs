#![forbid(unsafe_code)]
//! # udweave
//!
//! The UDWeave programming layer (§2.1 of the paper) over the
//! [`updown_sim`] machine: threads with atomically-executing events, the
//! `evw_*` intrinsics, explicit continuations, and the standard library
//! utilities the paper catalogues in Table 5 — spMalloc, the combining
//! cache (software fetch-and-add), and collective trees.
//!
//! UDWeave is a C-like DSL in the paper; here the same model is embedded in
//! Rust. A thread is a state struct; its events are closures taking
//! `(&mut EventCtx, &mut State)`; messages and continuations are explicit
//! event words exactly as in the listings.
//!
//! ```
//! use udweave::prelude::*;
//! use updown_sim::{Engine, MachineConfig};
//!
//! let mut eng = Engine::new(MachineConfig::small(1, 1, 4));
//! let e3 = simple_event(&mut eng, "e3", |ctx| ctx.yield_terminate());
//! let e2 = simple_event(&mut eng, "e2", |ctx| {
//!     ctx.send_reply([]);
//!     ctx.yield_terminate();
//! });
//! let e1 = simple_event(&mut eng, "e1", move |ctx| {
//!     let evw = evw_new(ctx.nwid().next(), e2);
//!     let ct = ctx.self_event(e3);
//!     ctx.send_event(evw, [0, 1], ct);
//! });
//! eng.send(evw_new(NetworkId(0), e1), [], IGNRCONT);
//! let r = eng.run();
//! assert_eq!(r.stats.events_executed, 3);
//! ```

pub mod collectives;
pub mod combining;
pub mod intrinsics;
pub mod program;
pub mod queue;
pub mod spmalloc;

pub use collectives::{heap_children, heap_parent, LaneSet, TreeComm, ACK_WORDS};
pub use combining::{CombiningCache, Kind};
pub use intrinsics::{evw_new, evw_update_event, IGNRCONT};
pub use program::{event, simple_event, ThreadType};
pub use queue::{QueueId, QueueLib};
pub use spmalloc::{sp_malloc, SpSlice};
pub use updown_sim::spec::{
    Bound, EventDecl, Finding, ProgramSpec, SendDecl, Severity, ThreadDecl, Workload,
};

/// Common imports for UDWeave-style programs.
pub mod prelude {
    pub use crate::collectives::{LaneSet, TreeComm};
    pub use crate::combining::{CombiningCache, Kind};
    pub use crate::intrinsics::{evw_new, evw_update_event, IGNRCONT};
    pub use crate::program::{event, simple_event, ThreadType};
    pub use crate::spmalloc::{sp_malloc, SpSlice};
    pub use updown_sim::spec::ProgramSpec;
    pub use updown_sim::{
        EventCtx, EventLabel, EventWord, NetworkId, ThreadId, VAddr,
    };
}
