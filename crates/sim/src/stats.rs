//! The unified metrics API: machine-wide [`Counters`], the hierarchical
//! per-node / per-lane breakdown, phase spans, and the [`Metrics`] report
//! returned by [`crate::Engine::run`] with a stable JSON export
//! (`updown-metrics/v1`).

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::trace::PhaseSpan;

/// Machine-wide monotone counters: event counts, message traffic by tier,
/// memory traffic, and simulator health numbers.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub events_executed: u64,
    pub threads_created: u64,
    pub threads_terminated: u64,
    pub msgs_intra_accel: u64,
    pub msgs_intra_node: u64,
    pub msgs_inter_node: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_read_bytes: u64,
    pub dram_write_bytes: u64,
    pub dram_remote_accesses: u64,
    /// Messages parked because a lane's thread table was full.
    pub thread_table_stalls: u64,
    /// Peak number of **logical pending calendar entries** (simulator
    /// health metric). A scheduled action — message delivery, lane
    /// dispatch, DRAM pipeline stage — counts from the moment it is
    /// scheduled until it is popped for execution, *regardless of which
    /// physical structure holds it*: the bucketed calendar's ring, its
    /// same-tick fast lane, its far-future overflow rung, and the arena
    /// slots behind them are all one logical queue. Messages sitting in a
    /// lane inbox and messages parked on a full thread table are **not**
    /// calendar entries and are excluded (they are represented by at most
    /// one pending `LaneRun`). Sampled after every `schedule()`; with the
    /// sharded engine this is the sum of per-shard peaks, which keeps it
    /// byte-identical across thread counts.
    pub peak_calendar: usize,
    /// Messages actually delivered to a lane inbox. Equals
    /// `total_msgs() + msgs_dropped` conservation-wise: on a completed run
    /// every sent message is delivered; on `stop()` the in-flight remainder
    /// is counted in `msgs_dropped`.
    pub msgs_delivered: u64,
    /// Messages discarded in flight by a graceful `stop()` drain.
    pub msgs_dropped: u64,
    /// Conservative time windows (barrier rounds) executed by the
    /// scheduler. Identical at every thread count.
    pub windows: u64,
}

impl Counters {
    /// Field-wise accumulate `o` into `self` (shard-merge rule: every
    /// counter is a sum; `windows` is engine-level and stays caller-set).
    pub fn merge_from(&mut self, o: &Counters) {
        self.events_executed += o.events_executed;
        self.threads_created += o.threads_created;
        self.threads_terminated += o.threads_terminated;
        self.msgs_intra_accel += o.msgs_intra_accel;
        self.msgs_intra_node += o.msgs_intra_node;
        self.msgs_inter_node += o.msgs_inter_node;
        self.dram_reads += o.dram_reads;
        self.dram_writes += o.dram_writes;
        self.dram_read_bytes += o.dram_read_bytes;
        self.dram_write_bytes += o.dram_write_bytes;
        self.dram_remote_accesses += o.dram_remote_accesses;
        self.thread_table_stalls += o.thread_table_stalls;
        self.peak_calendar += o.peak_calendar;
        self.msgs_delivered += o.msgs_delivered;
        self.msgs_dropped += o.msgs_dropped;
        self.windows += o.windows;
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs_intra_accel + self.msgs_intra_node + self.msgs_inter_node
    }

    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Number of buckets in the per-node lane-utilization histogram.
pub const UTIL_HIST_BUCKETS: usize = 10;

/// Aggregates for one node.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    pub node: u32,
    pub lanes: u64,
    /// Lanes on this node that executed at least one event.
    pub active_lanes: u64,
    /// Sum of busy cycles over this node's lanes.
    pub busy: u64,
    /// Events executed on this node.
    pub events: u64,
    /// Bytes serviced by this node's DRAM channels.
    pub dram_served_bytes: u64,
    /// Bytes injected into the network by this node's NIC.
    pub nic_injected_bytes: u64,
    /// Busy cycles of this node's busiest lane.
    pub max_lane_busy: u64,
    /// Histogram of per-lane utilization (busy / final_tick): bucket `i`
    /// covers `[i/10, (i+1)/10)`, with 1.0 landing in the last bucket.
    pub lane_util_hist: [u64; UTIL_HIST_BUCKETS],
}

impl NodeMetrics {
    /// Mean utilization of this node's lanes over the run (0..1).
    pub fn utilization(&self, final_tick: u64) -> f64 {
        if final_tick == 0 || self.lanes == 0 {
            return 0.0;
        }
        self.busy as f64 / (final_tick as f64 * self.lanes as f64)
    }
}

/// One lane's totals, used for the top-K hot-lane report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneMetrics {
    pub lane: u32,
    pub node: u32,
    pub busy: u64,
    pub events: u64,
}

/// One directed fabric link's totals, used for the top-K link report
/// (see [`FabricMetrics::top_links`]). `src`/`dst` are node indices; for
/// the uniform topology the crossbar appears as pseudo-node `nodes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    pub src: u32,
    pub dst: u32,
    /// Total bytes carried over the run.
    pub bytes: u64,
    /// Message traversals (flits) carried over the run.
    pub flits: u64,
    /// Bytes in the link's busiest demand window
    /// ([`FabricMetrics::stat_window`] cycles wide).
    pub peak_window_bytes: u64,
}

impl LinkMetrics {
    /// Peak demand of this link in GB/s at the given clock.
    pub fn peak_gbps(&self, stat_window: u64, clock_ghz: f64) -> f64 {
        self.peak_window_bytes as f64 / stat_window.max(1) as f64 * clock_ghz
    }
}

/// System-network fabric rollup: which topology ran, its per-directed-link
/// traffic totals, and the peak windowed link demand. Per-link counters
/// are attributed by the *injecting* shard and sum-merged, so the whole
/// section is byte-identical across `--threads` values (see
/// [`crate::network`]).
#[derive(Clone, Debug)]
pub struct FabricMetrics {
    /// Topology name (`uniform`, `polar`, `torus`, `dragonfly`).
    pub topology: String,
    /// Per-link traversal latency in cycles (for `uniform`: the
    /// end-to-end `inter_node_latency`).
    pub hop_latency: u64,
    /// Longest minimal route, in hops.
    pub diameter: u32,
    /// Width in cycles of the per-link demand windows behind
    /// `peak_window_bytes`.
    pub stat_window: u64,
    /// Nominal per-link capacity (bytes/cycle), the utilization reference.
    pub link_bytes_per_cycle: u64,
    /// Directed links in the topology.
    pub links_total: u64,
    /// Directed links that carried at least one byte.
    pub links_used: u64,
    /// Bytes carried summed over every directed link (multi-hop routes
    /// count each traversed link).
    pub link_bytes_total: u64,
    /// Bytes injected at the NICs, summed over nodes (single-hop total).
    pub nic_injected_bytes: u64,
    /// Bytes in the busiest (link, window) cell — the congestion
    /// hot spot. Convert to GB/s via [`FabricMetrics::peak_gbps`].
    pub peak_window_bytes: u64,
    /// The busiest links by total bytes, descending (ties by src, dst).
    pub top_links: Vec<LinkMetrics>,
}

impl FabricMetrics {
    /// Peak per-link demand in GB/s at the given clock
    /// (`bytes / window-cycles x cycles-per-second / 1e9`).
    pub fn peak_gbps(&self, clock_ghz: f64) -> f64 {
        self.peak_window_bytes as f64 / self.stat_window.max(1) as f64 * clock_ghz
    }

    /// Peak link utilization against the nominal per-link capacity (0..).
    pub fn peak_link_utilization(&self) -> f64 {
        self.peak_window_bytes as f64
            / (self.stat_window.max(1) as f64 * self.link_bytes_per_cycle.max(1) as f64)
    }
}

impl Default for FabricMetrics {
    fn default() -> FabricMetrics {
        FabricMetrics {
            topology: "uniform".to_string(),
            hop_latency: 0,
            diameter: 0,
            stat_window: 1,
            link_bytes_per_cycle: 1,
            links_total: 0,
            links_used: 0,
            link_bytes_total: 0,
            nic_injected_bytes: 0,
            peak_window_bytes: 0,
            top_links: Vec::new(),
        }
    }
}

/// Deterministic scheduler-level aggregates: per-window load imbalance,
/// derived purely from the simulated event stream. Part of the
/// byte-compared metrics JSON — identical across thread counts and
/// scheduler modes by the same argument as every other counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedMetrics {
    /// Sum over windows of the max per-shard event count in that window.
    /// `window_max_events_sum / windows` is the mean per-window peak;
    /// compared against `events_executed / windows` (the mean per-window
    /// *load*), the gap is the skew a static schedule would serialize on.
    pub window_max_events_sum: u64,
    /// Largest per-shard event count observed in any single window.
    pub window_max_events_peak: u64,
}

impl SchedMetrics {
    /// Mean over windows of the heaviest shard's event count.
    pub fn mean_window_max(&self, windows: u64) -> f64 {
        self.window_max_events_sum as f64 / windows.max(1) as f64
    }

    /// Load-imbalance factor: mean per-window peak over mean per-window
    /// per-shard load (1.0 = perfectly balanced; N = one shard does
    /// everything on an N-shard machine).
    pub fn imbalance(&self, events: u64, windows: u64, shards: u64) -> f64 {
        let mean_shard = events as f64 / windows.max(1) as f64 / shards.max(1) as f64;
        if mean_shard == 0.0 {
            return 1.0;
        }
        self.mean_window_max(windows) / mean_shard
    }
}

/// Host-side scheduler diagnostics. These depend on thread timing (how
/// many shards each worker happened to claim, how long it spun at the
/// barrier), so they are **not** serialized into the byte-compared
/// metrics JSON — they ride on [`Metrics`] for tools like `repro par`
/// to print alongside wall-clock numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSchedStats {
    /// Shard claims executed outside the claiming worker's static home
    /// range (0 when single-threaded).
    pub steals: u64,
    /// Always 0. Its only reader is `benchmark/src/workloads.rs`, which
    /// publishes it as `sim.engine.batched_windows`; the two go together.
    pub batched_windows: u64,
    /// Cumulative barrier spin/yield iterations over all workers — a
    /// clock-free proxy for worker idle time (0 when single-threaded).
    pub idle_spins: u64,
    /// Barrier rounds executed (= [`Counters::windows`]).
    pub barrier_rounds: u64,
}

/// Host-side shape of the per-shard calendar queues since the engine was
/// built or last restored ([`Metrics::host_calendar`]). Describes the
/// simulator's own data structure, not the simulated machine, so it is
/// **not** part of the metrics JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCalendarStats {
    /// Pushes that missed every shard's ring and took the binary-heap
    /// overflow rung, summed over shards.
    pub rung_pushes: u64,
    /// Widest ring any shard's calendar has grown to, in ticks.
    pub ring_width: usize,
    /// Capacity, in entries, of the observer side tables: the per-shard
    /// tags beside the pending-event slab and the tag vectors beside the
    /// cross-shard buffers. 0 unless a tracer or a race probe was attached.
    pub observer_tags: usize,
}

/// Final report of a simulation run: the machine-wide [`Counters`] plus
/// lane/node utilization, phase spans, and runtime-defined custom
/// counters. Returned by [`crate::Engine::run`]; exportable as stable
/// JSON via [`Metrics::to_json`].
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Tick at which the last event completed (or `stop()` was called).
    pub final_tick: u64,
    /// Lane clock, for converting ticks to seconds.
    pub clock_ghz: f64,
    pub stats: Counters,
    /// Sum of busy cycles over all lanes.
    pub total_busy: u64,
    /// Number of lanes that executed at least one event.
    pub active_lanes: u64,
    pub total_lanes: u64,
    /// Per-node breakdown, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Top lanes by busy cycles, descending (serialization hot spots).
    pub hot_lanes: Vec<LaneMetrics>,
    /// Phase spans recorded via `phase_begin`/`phase_end`, in begin order.
    /// Open spans are clamped to `final_tick` at report time.
    pub phases: Vec<PhaseSpan>,
    /// Runtime-defined counters (`EventCtx::bump` / `EventCtx::peak`).
    pub custom: BTreeMap<&'static str, u64>,
    /// System-network fabric rollup (topology, per-link traffic, peak
    /// windowed demand).
    pub fabric: FabricMetrics,
    /// Deterministic per-window load-imbalance aggregates (serialized).
    pub sched: SchedMetrics,
    /// Host-side scheduler diagnostics (thread-timing dependent — **not**
    /// serialized; see [`HostSchedStats`]).
    pub host_sched: HostSchedStats,
    /// Host-side shape of the calendar queues (**not** serialized; see
    /// [`HostCalendarStats`]).
    pub host_calendar: HostCalendarStats,
}

impl Metrics {
    /// Mean utilization of all lanes over the run (0..1).
    pub fn utilization(&self) -> f64 {
        if self.final_tick == 0 || self.total_lanes == 0 {
            return 0.0;
        }
        self.total_busy as f64 / (self.final_tick as f64 * self.total_lanes as f64)
    }

    /// Simulated wall time of the run.
    pub fn seconds(&self) -> f64 {
        self.final_tick as f64 / (self.clock_ghz * 1e9)
    }

    /// Total cycles per phase name (spans with the same name accumulate).
    pub fn phase_cycles(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for p in &self.phases {
            *m.entry(p.name.clone()).or_insert(0) += p.cycles(self.final_tick);
        }
        m
    }

    /// Stable JSON export (schema `updown-metrics/v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema").string("updown-metrics/v1");
        w.key("final_tick").u64(self.final_tick);
        w.key("clock_ghz").f64(self.clock_ghz);
        w.key("seconds").f64(self.seconds());
        w.key("utilization").f64(self.utilization());
        w.key("total_busy").u64(self.total_busy);
        w.key("active_lanes").u64(self.active_lanes);
        w.key("total_lanes").u64(self.total_lanes);

        w.key("counters").begin_obj();
        let c = &self.stats;
        w.key("events_executed").u64(c.events_executed);
        w.key("threads_created").u64(c.threads_created);
        w.key("threads_terminated").u64(c.threads_terminated);
        w.key("msgs_intra_accel").u64(c.msgs_intra_accel);
        w.key("msgs_intra_node").u64(c.msgs_intra_node);
        w.key("msgs_inter_node").u64(c.msgs_inter_node);
        w.key("total_msgs").u64(c.total_msgs());
        w.key("dram_reads").u64(c.dram_reads);
        w.key("dram_writes").u64(c.dram_writes);
        w.key("dram_read_bytes").u64(c.dram_read_bytes);
        w.key("dram_write_bytes").u64(c.dram_write_bytes);
        w.key("dram_remote_accesses").u64(c.dram_remote_accesses);
        w.key("thread_table_stalls").u64(c.thread_table_stalls);
        w.key("peak_calendar").u64(c.peak_calendar as u64);
        w.key("msgs_delivered").u64(c.msgs_delivered);
        w.key("msgs_dropped").u64(c.msgs_dropped);
        w.key("windows").u64(c.windows);
        w.end_obj();

        w.key("custom").begin_obj();
        for (k, v) in &self.custom {
            w.key(k).u64(*v);
        }
        w.end_obj();

        w.key("phases").begin_arr();
        for p in &self.phases {
            let end = p.end.min(self.final_tick);
            w.begin_obj()
                .key("name")
                .string(&p.name)
                .key("start")
                .u64(p.start)
                .key("end")
                .u64(end)
                .key("cycles")
                .u64(p.cycles(self.final_tick))
                .end_obj();
        }
        w.end_arr();

        w.key("phase_cycles").begin_obj();
        for (name, cycles) in self.phase_cycles() {
            w.key(&name).u64(cycles);
        }
        w.end_obj();

        w.key("nodes").begin_arr();
        for n in &self.nodes {
            w.begin_obj()
                .key("node")
                .u64(n.node as u64)
                .key("lanes")
                .u64(n.lanes)
                .key("active_lanes")
                .u64(n.active_lanes)
                .key("busy")
                .u64(n.busy)
                .key("events")
                .u64(n.events)
                .key("dram_served_bytes")
                .u64(n.dram_served_bytes)
                .key("nic_injected_bytes")
                .u64(n.nic_injected_bytes)
                .key("max_lane_busy")
                .u64(n.max_lane_busy)
                .key("utilization")
                .f64(n.utilization(self.final_tick));
            w.key("lane_util_hist").begin_arr();
            for b in n.lane_util_hist {
                w.u64(b);
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();

        w.key("hot_lanes").begin_arr();
        for l in &self.hot_lanes {
            w.begin_obj()
                .key("lane")
                .u64(l.lane as u64)
                .key("node")
                .u64(l.node as u64)
                .key("busy")
                .u64(l.busy)
                .key("events")
                .u64(l.events)
                .end_obj();
        }
        w.end_arr();

        let f = &self.fabric;
        w.key("fabric").begin_obj();
        w.key("topology").string(&f.topology);
        w.key("hop_latency").u64(f.hop_latency);
        w.key("diameter").u64(f.diameter as u64);
        w.key("stat_window").u64(f.stat_window);
        w.key("link_bytes_per_cycle").u64(f.link_bytes_per_cycle);
        w.key("links_total").u64(f.links_total);
        w.key("links_used").u64(f.links_used);
        w.key("link_bytes_total").u64(f.link_bytes_total);
        w.key("nic_injected_bytes").u64(f.nic_injected_bytes);
        w.key("peak_window_bytes").u64(f.peak_window_bytes);
        w.key("peak_link_gbps").f64(f.peak_gbps(self.clock_ghz));
        w.key("peak_link_utilization").f64(f.peak_link_utilization());
        w.key("top_links").begin_arr();
        for l in &f.top_links {
            w.begin_obj()
                .key("src")
                .u64(l.src as u64)
                .key("dst")
                .u64(l.dst as u64)
                .key("bytes")
                .u64(l.bytes)
                .key("flits")
                .u64(l.flits)
                .key("peak_window_bytes")
                .u64(l.peak_window_bytes)
                .key("peak_gbps")
                .f64(l.peak_gbps(f.stat_window, self.clock_ghz))
                .end_obj();
        }
        w.end_arr();
        w.end_obj();

        // Deterministic scheduler aggregates only — HostSchedStats is
        // thread-timing dependent and deliberately absent.
        let s = &self.sched;
        w.key("sched").begin_obj();
        w.key("window_max_events_sum").u64(s.window_max_events_sum);
        w.key("window_max_events_peak").u64(s.window_max_events_peak);
        w.key("mean_window_max").f64(s.mean_window_max(c.windows));
        w.key("imbalance").f64(s.imbalance(
            c.events_executed,
            c.windows,
            self.nodes.len() as u64,
        ));
        w.end_obj();

        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample() -> Metrics {
        Metrics {
            final_tick: 1000,
            clock_ghz: 2.0,
            stats: Counters {
                events_executed: 10,
                ..Counters::default()
            },
            total_busy: 500,
            active_lanes: 2,
            total_lanes: 4,
            nodes: vec![NodeMetrics {
                node: 0,
                lanes: 4,
                active_lanes: 2,
                busy: 500,
                events: 10,
                lane_util_hist: [2, 0, 1, 0, 0, 1, 0, 0, 0, 0],
                ..NodeMetrics::default()
            }],
            hot_lanes: vec![LaneMetrics {
                lane: 1,
                node: 0,
                busy: 400,
                events: 7,
            }],
            phases: vec![
                PhaseSpan {
                    name: "map".into(),
                    start: 0,
                    end: 600,
                },
                PhaseSpan {
                    name: "reduce".into(),
                    start: 600,
                    end: u64::MAX,
                },
            ],
            custom: BTreeMap::from([("kvmsr.map_tasks", 64u64)]),
            fabric: FabricMetrics {
                topology: "torus".to_string(),
                hop_latency: 400,
                diameter: 2,
                stat_window: 16384,
                link_bytes_per_cycle: 2048,
                links_total: 8,
                links_used: 2,
                link_bytes_total: 288,
                nic_injected_bytes: 144,
                peak_window_bytes: 144,
                top_links: vec![LinkMetrics {
                    src: 0,
                    dst: 1,
                    bytes: 216,
                    flits: 3,
                    peak_window_bytes: 144,
                }],
            },
            sched: SchedMetrics {
                window_max_events_sum: 8,
                window_max_events_peak: 3,
            },
            host_sched: HostSchedStats::default(),
            host_calendar: HostCalendarStats::default(),
        }
    }

    #[test]
    fn utilization_and_seconds() {
        let m = sample();
        assert_eq!(m.utilization(), 500.0 / 4000.0);
        assert_eq!(m.seconds(), 1000.0 / 2e9);
    }

    #[test]
    fn phase_cycles_clamp_open_spans() {
        let m = sample();
        let pc = m.phase_cycles();
        assert_eq!(pc["map"], 600);
        assert_eq!(pc["reduce"], 400); // clamped to final_tick 1000
    }

    #[test]
    fn json_has_stable_schema() {
        let m = sample();
        let v = JsonValue::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("updown-metrics/v1")
        );
        assert_eq!(v.get("final_tick").unwrap().as_u64(), Some(1000));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("events_executed")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        assert_eq!(
            v.get("custom")
                .unwrap()
                .get("kvmsr.map_tasks")
                .unwrap()
                .as_u64(),
            Some(64)
        );
        assert_eq!(
            v.get("phase_cycles")
                .unwrap()
                .get("reduce")
                .unwrap()
                .as_u64(),
            Some(400)
        );
        let node = &v.get("nodes").unwrap().as_arr().unwrap()[0];
        let hist = node.get("lane_util_hist").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), UTIL_HIST_BUCKETS);
        assert_eq!(hist[0].as_u64(), Some(2));
        let hot = &v.get("hot_lanes").unwrap().as_arr().unwrap()[0];
        assert_eq!(hot.get("busy").unwrap().as_u64(), Some(400));
    }

    #[test]
    fn fabric_section_round_trips() {
        let m = sample();
        let v = JsonValue::parse(&m.to_json()).expect("valid JSON");
        let f = v.get("fabric").unwrap();
        assert_eq!(f.get("topology").unwrap().as_str(), Some("torus"));
        assert_eq!(f.get("hop_latency").unwrap().as_u64(), Some(400));
        assert_eq!(f.get("diameter").unwrap().as_u64(), Some(2));
        assert_eq!(f.get("links_total").unwrap().as_u64(), Some(8));
        assert_eq!(f.get("links_used").unwrap().as_u64(), Some(2));
        assert_eq!(f.get("link_bytes_total").unwrap().as_u64(), Some(288));
        assert_eq!(f.get("nic_injected_bytes").unwrap().as_u64(), Some(144));
        assert_eq!(f.get("peak_window_bytes").unwrap().as_u64(), Some(144));
        // 144 bytes over a 16384-cycle window at 2 GHz.
        let gbps = f.get("peak_link_gbps").unwrap().as_f64().unwrap();
        assert!((gbps - 144.0 / 16384.0 * 2.0).abs() < 1e-12);
        let link = &f.get("top_links").unwrap().as_arr().unwrap()[0];
        assert_eq!(link.get("src").unwrap().as_u64(), Some(0));
        assert_eq!(link.get("dst").unwrap().as_u64(), Some(1));
        assert_eq!(link.get("bytes").unwrap().as_u64(), Some(216));
        assert_eq!(link.get("flits").unwrap().as_u64(), Some(3));
        assert!(link.get("peak_gbps").unwrap().as_f64().is_some());
    }
}
