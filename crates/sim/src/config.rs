//! Machine configuration: topology (§3, Figures 6/7) and cost model (Table 2).
//!
//! The defaults encode the paper's UpDown node: 32 accelerators per node,
//! 64 lanes per accelerator (2048 lanes/node), a 2 GHz clock, 0.5 µs
//! inter-node message latency, ~4 TB/s node injection bandwidth and
//! ~9.4 TB/s node memory bandwidth. All values are per-cycle at 2 GHz so one
//! simulator tick is one lane cycle.
//!
//! What the paper fixes is a constant, not a field: the Table 2 lane
//! costs ([`OP_COSTS`]), the on-node and per-hop latencies, link capacity
//! and the message header. A [`MachineConfig`] holds what a run may vary.
//!
//! The observer handles (`probe`, `race`, `replay`) never change a result;
//! a protocol spec is not a setting but checked on the probe's report after
//! the run ([`crate::spec::check_report`]).

use crate::ids::NetworkId;
use crate::network::TopologyKind;
use crate::probe::ProtocolProbe;
use crate::race::RaceProbe;

/// Per-operation lane costs in cycles (Table 2 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct OpCosts {
    /// Creating a thread context on message arrival.
    pub thread_create: u64,
    /// `yield` — exit the event, preserve thread state.
    pub yield_: u64,
    /// `yield_terminate` — exit the event and deallocate the thread.
    pub thread_dealloc: u64,
    /// Scratchpad load or store.
    pub spd_access: u64,
    /// `send_event` message send.
    pub send_msg: u64,
    /// `send_dram_*` request issue.
    pub send_dram: u64,
    /// Fixed dispatch overhead charged for every executed event (operand
    /// registers are loaded directly, so this is small).
    pub event_dispatch: u64,
}

/// Table 2: what every lane operation costs. A constant of the machine
/// model, not a setting.
pub const OP_COSTS: OpCosts = OpCosts {
    thread_create: 0,
    yield_: 1,
    thread_dealloc: 1,
    spd_access: 1,
    send_msg: 2,
    send_dram: 2,
    event_dispatch: 2,
};

/// Lane-to-lane latency within one accelerator (shared scratchpad
/// crossbar), in cycles.
pub const INTRA_ACCEL_LATENCY: u64 = 4;

/// Accelerator-to-accelerator latency within one node, in cycles. DRAM
/// requests and responses between a lane and its own node's memory take
/// it too.
pub const INTRA_NODE_LATENCY: u64 = 30;

/// Per-link traversal latency for routed topologies (polar, torus,
/// dragonfly), in cycles. 400 cycles = 0.2 µs per hop @ 2 GHz, so a
/// diameter-3 route lands near the uniform model's 0.5 µs + switching.
pub const HOP_LATENCY: u64 = 400;

/// Nominal per-link capacity, bytes per cycle — the reference for
/// per-link utilization reporting (links are demand-tracked, not
/// contended; see [`crate::network::Fabric`]).
pub const LINK_BYTES_PER_CYCLE: u64 = 2048;

/// Minimum DRAM transfer granularity in bytes (one HBM access): every
/// request occupies its channel for a whole number of these.
pub const ACCESS_GRANULARITY: u64 = 64;

/// The settable part of the message model: the system-network topology,
/// its uniform remote latency, and per-node NIC injection serialization.
/// The on-node tiers ([`INTRA_ACCEL_LATENCY`], [`INTRA_NODE_LATENCY`]),
/// the routed per-hop latency ([`HOP_LATENCY`]), link capacity
/// ([`LINK_BYTES_PER_CYCLE`]) and the message header
/// ([`crate::message::MSG_HEADER_BYTES`]) are constants. The default
/// [`TopologyKind::Uniform`] abstracts the PolarStar network (diameter 3)
/// as one uniform remote latency — the pre-fabric model.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// System-network topology for inter-node transit.
    pub topology: TopologyKind,
    /// Node-to-node over the [`TopologyKind::Uniform`] network
    /// (0.5 µs = 1000 cycles @ 2 GHz). Routed topologies use
    /// [`HOP_LATENCY`] per traversed link instead.
    pub inter_node_latency: u64,
    /// NIC injection bandwidth per node, bytes per cycle (4 TB/s ≈ 2048 B/cy).
    pub nic_bytes_per_cycle: u64,
    /// Window, in cycles, over which per-link demand is bucketed for the
    /// peak-demand statistics in the metrics JSON.
    pub link_stat_window: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            topology: TopologyKind::Uniform,
            inter_node_latency: 1000,
            nic_bytes_per_cycle: 2048,
            link_stat_window: 16384,
        }
    }
}

/// DRAM model: per-node memory channel with fixed access latency and a FIFO
/// bandwidth queue (queueing delay is how data-placement contention appears,
/// Figure 12).
#[derive(Clone, Debug)]
pub struct MemoryConfig {
    /// Access latency in cycles (row activation + controller).
    pub dram_latency: u64,
    /// Node memory bandwidth in bytes per cycle (9.4 TB/s ≈ 4700 B/cy).
    pub node_bytes_per_cycle: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            dram_latency: 200,
            node_bytes_per_cycle: 4700,
        }
    }
}

/// Full machine description.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub nodes: u32,
    pub accels_per_node: u32,
    pub lanes_per_accel: u32,
    /// Clock in GHz; ticks are cycles, so this only matters when converting
    /// to wall-clock seconds for reporting.
    pub clock_ghz: f64,
    pub net: NetworkConfig,
    pub mem: MemoryConfig,
    /// Hardware thread contexts per lane; additional thread creations queue.
    pub max_threads_per_lane: u16,
    /// Scratchpad capacity per lane in 8-byte words (64 KiB default).
    pub spm_words: u32,
    /// Host worker threads executing the window loop (`1` runs it
    /// inline). The machine is always sharded one node per shard, so
    /// results are byte-identical for every thread count; this only
    /// selects how many OS threads execute the shards.
    pub threads: u32,
    /// Optional protocol recording shared with the caller; see
    /// [`ProtocolProbe`]: the engine publishes its shards' merged record
    /// there after every run. Recording has zero observer effect. Attaching
    /// one also arms the runtime sanitizer (`--sanitize` on the bench
    /// bins): event-protocol violations — sends to dead threads or
    /// unregistered labels are dropped, out-of-range operand/scratchpad
    /// accesses read zero — become probe diagnostics instead of panics.
    /// For a violation-free program that changes nothing (results stay
    /// byte-identical).
    pub probe: Option<ProtocolProbe>,
    /// Optional happens-before race recording (`--race` on the bench
    /// bins); see [`RaceProbe`]. Recording has zero observer effect.
    pub race: Option<RaceProbe>,
    /// Checkpoint cadence in scheduler windows (`0` = off). Every
    /// `checkpoint_every` windows the engine pauses at a window boundary,
    /// takes an in-memory [`Snapshot`](crate::Snapshot), round-trips it
    /// (restore + self-check) and continues — proving mid-run that the
    /// run is resumable. Results stay byte-identical with it on or off.
    pub checkpoint_every: u64,
    /// Write an `updown-snapshot/v2` file here at the *first* checkpoint
    /// boundary (requires `checkpoint_every > 0`). `--checkpoint` on the
    /// bench bins.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Resume from an `updown-snapshot/v2` file: the engine re-drives the
    /// same deterministic workload and swaps in the decoded machine state
    /// when it reaches the snapshot's window, making the remainder of the
    /// run byte-identical to one that never stopped. `--restore` on the
    /// bench bins. Requires `checkpoint_every > 0` (the pause cadence is
    /// how the engine lands on the snapshot's window boundary).
    pub restore_path: Option<std::path::PathBuf>,
    /// Self-verifying replay (`--replay` on `repro`): every scheduler
    /// invocation of [`Engine::run`](crate::Engine::run) records each
    /// shard's per-window cross-shard schedule and execution stream, then
    /// replays every shard in isolation before the run goes on and pushes
    /// one verdict to the shared [`ReplayCheck`](crate::ReplayCheck)
    /// handle.
    pub replay: Option<crate::snapshot::ReplayCheck>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            nodes: 1,
            accels_per_node: 32,
            lanes_per_accel: 64,
            clock_ghz: 2.0,
            net: NetworkConfig::default(),
            mem: MemoryConfig::default(),
            max_threads_per_lane: 512,
            spm_words: 8192,
            threads: 1,
            probe: None,
            race: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            restore_path: None,
            replay: None,
        }
    }
}

impl MachineConfig {
    /// Panic on a machine no run can use: no node, no lane, or a clock
    /// that is not a positive number (it would print every Chrome `ts`
    /// and the metrics `seconds` as `null`). [`crate::Engine::new`] checks
    /// every machine it is given.
    pub(crate) fn check(&self) {
        assert!(self.nodes >= 1, "machine needs at least one node");
        assert!(
            self.accels_per_node >= 1 && self.lanes_per_accel >= 1,
            "machine needs at least one lane"
        );
        assert!(
            self.clock_ghz.is_finite() && self.clock_ghz > 0.0,
            "clock must be finite and above 0 GHz, got {}",
            self.clock_ghz
        );
    }

    /// A full-size UpDown node count with default node internals.
    pub fn with_nodes(nodes: u32) -> MachineConfig {
        MachineConfig { nodes, ..MachineConfig::default() }
    }

    /// A reduced machine for unit tests: `nodes × accels × lanes`.
    pub fn small(nodes: u32, accels_per_node: u32, lanes_per_accel: u32) -> MachineConfig {
        MachineConfig {
            nodes,
            accels_per_node,
            lanes_per_accel,
            ..MachineConfig::default()
        }
    }

    /// Scale per-node memory and NIC bandwidth to the configured lane
    /// count so bytes-per-cycle-per-lane matches the full 2048-lane node.
    /// Call after setting the node shape; a shrunken node with full-node
    /// bandwidth is never bandwidth-bound, which hides placement effects.
    pub fn scaled_bandwidth(mut self) -> MachineConfig {
        let full = MachineConfig::default();
        let factor = self.lanes_per_node() as f64 / full.lanes_per_node() as f64;
        self.mem.node_bytes_per_cycle =
            ((full.mem.node_bytes_per_cycle as f64 * factor) as u64).max(64);
        self.net.nic_bytes_per_cycle =
            ((full.net.nic_bytes_per_cycle as f64 * factor) as u64).max(64);
        self
    }

    #[inline]
    pub fn lanes_per_node(&self) -> u32 {
        self.accels_per_node * self.lanes_per_accel
    }

    #[inline]
    pub fn total_lanes(&self) -> u32 {
        self.nodes * self.lanes_per_node()
    }

    #[inline]
    pub fn node_of(&self, nwid: NetworkId) -> u32 {
        nwid.0 / self.lanes_per_node()
    }

    /// Global accelerator index of a lane.
    #[inline]
    pub fn accel_of(&self, nwid: NetworkId) -> u32 {
        nwid.0 / self.lanes_per_accel
    }

    /// Compose a network ID from (node, accelerator-in-node, lane-in-accel).
    #[inline]
    pub fn nwid(&self, node: u32, accel: u32, lane: u32) -> NetworkId {
        debug_assert!(node < self.nodes);
        debug_assert!(accel < self.accels_per_node);
        debug_assert!(lane < self.lanes_per_accel);
        NetworkId(node * self.lanes_per_node() + accel * self.lanes_per_accel + lane)
    }

    /// Convert simulated ticks to seconds at the configured clock.
    #[inline]
    pub fn ticks_to_seconds(&self, ticks: u64) -> f64 {
        ticks as f64 / (self.clock_ghz * 1e9)
    }

    /// Latency between two lanes **on the same node** (the on-node tiers:
    /// shared-scratchpad crossbar within an accelerator, node fabric
    /// between accelerators). Cross-node transit is the fabric's business:
    /// see [`crate::Engine::topology`] and [`crate::network::Topology`].
    #[inline]
    pub fn local_msg_latency(&self, src: NetworkId, dst: NetworkId) -> u64 {
        debug_assert_eq!(
            self.node_of(src),
            self.node_of(dst),
            "local_msg_latency is for on-node pairs; cross-node transit goes through the fabric"
        );
        if self.accel_of(src) != self.accel_of(dst) {
            INTRA_NODE_LATENCY
        } else {
            INTRA_ACCEL_LATENCY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_arithmetic() {
        let cfg = MachineConfig::small(4, 32, 64);
        assert_eq!(cfg.lanes_per_node(), 2048);
        assert_eq!(cfg.total_lanes(), 8192);
        let w = cfg.nwid(2, 5, 17);
        assert_eq!(cfg.node_of(w), 2);
        assert_eq!(cfg.accel_of(w), 2 * 32 + 5);
    }

    #[test]
    fn latency_tiers() {
        let cfg = MachineConfig::small(2, 2, 4);
        let a = cfg.nwid(0, 0, 0);
        let b = cfg.nwid(0, 0, 3);
        let c = cfg.nwid(0, 1, 0);
        assert_eq!(cfg.local_msg_latency(a, b), INTRA_ACCEL_LATENCY);
        assert_eq!(cfg.local_msg_latency(a, c), INTRA_NODE_LATENCY);
        assert_eq!(cfg.local_msg_latency(a, a), INTRA_ACCEL_LATENCY);
    }

    #[test]
    fn tick_conversion_matches_artifact_formula() {
        // The artifact converts ticks via time = ticks / 2e9.
        let cfg = MachineConfig::default();
        let t = cfg.ticks_to_seconds(10_582_600 - 15_000);
        assert!((t - 0.0052838).abs() < 1e-6);
    }

    #[test]
    fn default_is_one_full_node() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.total_lanes(), 2048);
    }

    /// A zero or NaN clock would make every Chrome timestamp and the
    /// metrics' `seconds` print `null`. `Engine::new` is the one place a
    /// clock is checked.
    #[test]
    fn builder_refuses_a_clock_that_is_not_a_positive_number() {
        for ghz in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let mut cfg = MachineConfig::small(2, 2, 4);
            cfg.clock_ghz = ghz;
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| crate::Engine::new(cfg)));
            assert!(built.is_err(), "clock {ghz} was accepted");
        }
        let mut cfg = MachineConfig::small(2, 2, 4);
        cfg.clock_ghz = 1.6;
        assert_eq!(crate::Engine::new(cfg).metrics().clock_ghz, 1.6);
    }

    /// The fields are public, so `Engine::new` refuses a machine no run
    /// can use: no clock, no node, or no lane to run on.
    #[test]
    fn engine_refuses_directly_assigned_fields_the_builder_would() {
        let bad: [fn(&mut MachineConfig); 5] = [
            |c| c.clock_ghz = 0.0,
            |c| c.clock_ghz = f64::NAN,
            |c| c.nodes = 0,
            |c| c.accels_per_node = 0,
            |c| c.lanes_per_accel = 0,
        ];
        for (i, set) in bad.iter().enumerate() {
            let mut cfg = MachineConfig::small(2, 2, 4);
            set(&mut cfg);
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| crate::Engine::new(cfg)));
            assert!(built.is_err(), "assignment {i} was accepted");
        }
    }

    #[test]
    fn scaled_bandwidth_preserves_per_lane_ratio() {
        let full = MachineConfig::default();
        let cfg = MachineConfig::small(4, 4, 32).scaled_bandwidth();
        let r_full = full.mem.node_bytes_per_cycle as f64 / full.lanes_per_node() as f64;
        let r_cfg = cfg.mem.node_bytes_per_cycle as f64 / cfg.lanes_per_node() as f64;
        assert!((r_full - r_cfg).abs() / r_full < 0.05);
    }
}
