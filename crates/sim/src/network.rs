//! The system network: a route-aware fabric under a per-node NIC
//! injection serializer.
//!
//! The paper's UpDown machine uses a PolarStar system network (diameter 3,
//! 32 PB/s bisection, 4 TB/s per-node injection). Two resources matter:
//!
//! - the **injection port** — modeled by [`Nics`], a per-node byte-rate
//!   serializer that queues sustained overload,
//! - the **fabric** — modeled by a [`Topology`] (which directed links
//!   exist and which ordered sequence a message traverses between two
//!   nodes) plus a per-shard [`Fabric`] that advances each in-flight
//!   message hop-by-hop, attributing its bytes to every directed link at
//!   that link's traversal time.
//!
//! Links are *demand-tracked, not contended*: per-link byte/flit counters
//! and windowed peak demand expose where a topology concentrates traffic,
//! while transit latency stays `hops x hop_latency` (the paper's network
//! is provisioned so the injection port, not the fabric, is the contended
//! resource). This keeps every topology deterministic and byte-identical
//! across `--threads` values: all fabric state lives in the *source*
//! shard, and per-hop times are fixed at injection.
//!
//! [`TopologyKind::Uniform`] reproduces the pre-fabric model exactly —
//! one uniform `inter_node_latency` through an ideal crossbar — and is
//! the default.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::config::NetworkConfig;

/// Index of a directed link in [`Topology::links`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// One directed link of the fabric: an ordered (source node, destination
/// node) pair. For [`TopologyKind::Uniform`] the ideal crossbar itself
/// appears as pseudo-node `nodes()` (every node has an up-link into it
/// and a down-link out of it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Link {
    pub src: u32,
    pub dst: u32,
}

/// The selectable system-network topologies (`--topology` on the bench
/// binaries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TopologyKind {
    /// The pre-fabric model: every remote pair is one uniform
    /// `inter_node_latency` through an ideal crossbar. Deterministic fast
    /// path and the default.
    #[default]
    Uniform,
    /// PolarStar-flavored low-diameter direct network, realized as a 2D
    /// HyperX (complete graph per row and per column): diameter <= 2,
    /// within the real PolarStar's diameter-3 bound.
    Polar,
    /// 2D torus (rows x cols with wraparound), dimension-order routing.
    Torus,
    /// Dragonfly: all-to-all groups of ~sqrt(N) nodes, one global link
    /// per ordered group pair landing on rotating gateways; diameter <= 3.
    Dragonfly,
}

impl TopologyKind {
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Uniform,
        TopologyKind::Polar,
        TopologyKind::Torus,
        TopologyKind::Dragonfly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Uniform => "uniform",
            TopologyKind::Polar => "polar",
            TopologyKind::Torus => "torus",
            TopologyKind::Dragonfly => "dragonfly",
        }
    }

    /// Instantiate this topology for `nodes` nodes with `net`'s latencies.
    pub fn build(self, nodes: u32, net: &NetworkConfig) -> Arc<Topology> {
        let n = nodes.max(1);
        let hop = net.hop_latency.max(1);
        Arc::new(match self {
            TopologyKind::Uniform => Topology::uniform(n, net.inter_node_latency.max(1)),
            TopologyKind::Polar => Topology::polar(n, hop),
            TopologyKind::Torus => Topology::torus(n, hop),
            TopologyKind::Dragonfly => Topology::dragonfly(n, hop),
        })
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TopologyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TopologyKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(TopologyKind::Uniform),
            "polar" | "polarstar" => Ok(TopologyKind::Polar),
            "torus" => Ok(TopologyKind::Torus),
            "dragonfly" => Ok(TopologyKind::Dragonfly),
            other => Err(format!(
                "unknown topology '{other}' (expected uniform, polar, torus or dragonfly)"
            )),
        }
    }
}

/// A system-network topology: the directed-link set and, for every ordered
/// node pair, the fixed minimal route a message traverses. The kinds differ
/// only in this data, which is fixed at construction; the engine shares one
/// instance across shards.
pub struct Topology {
    kind: TopologyKind,
    nodes: u32,
    /// Cycles per link; for the uniform crossbar, its whole transit.
    hop: u64,
    links: Vec<Link>,
    routes: Routes,
    min_transit: u64,
    diameter: u32,
}

impl Topology {
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Node count the topology was built for (the uniform crossbar
    /// pseudo-node is *not* counted).
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// All directed links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The ordered directed links a message traverses from `src` to
    /// `dst`; empty iff `src == dst`.
    pub fn route(&self, src: u32, dst: u32) -> &[LinkId] {
        self.routes.get(src, dst)
    }

    /// Cycles to traverse one link.
    pub fn hop_latency(&self) -> u64 {
        self.hop
    }

    /// End-to-end transit latency `src -> dst`, excluding NIC injection
    /// serialization.
    pub fn latency(&self, src: u32, dst: u32) -> u64 {
        self.route_latency(self.route(src, dst).len())
    }

    /// Latency of a route of `hops` links: a routed message arrives one
    /// hop after it enters its last link, while the uniform crossbar's
    /// up-link and down-link together cost one `inter_node_latency`.
    fn route_latency(&self, hops: usize) -> u64 {
        let charged = match self.kind {
            TopologyKind::Uniform => hops.saturating_sub(1),
            _ => hops,
        };
        charged as u64 * self.hop
    }

    /// Traversal time of hop `k` for a message departing at `depart`:
    /// monotone in `k` and never after `depart + latency`. The uniform
    /// crossbar's up-link is traversed at depart, its down-link at arrival.
    pub fn hop_time(&self, depart: u64, k: usize) -> u64 {
        depart + k as u64 * self.hop
    }

    /// Minimum time by which any cross-node effect can trail the moment it
    /// is injected — the scheduler's conservative lookahead bound.
    pub fn min_transit(&self) -> u64 {
        self.min_transit
    }

    /// Longest minimal route, in hops.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// The pre-fabric model: an ideal crossbar with one up-link and one
    /// down-link per node (pseudo-node `n` is the crossbar). Every remote
    /// pair costs exactly `inter_node_latency`, so simulated timing is
    /// byte-identical to the historical uniform model; the diameter is its
    /// two links, even on one node.
    fn uniform(n: u32, inter_node_latency: u64) -> Topology {
        // Node i's up-link is LinkId(2i), its down-link LinkId(2i + 1).
        let links: Vec<Link> = (0..n)
            .flat_map(|i| [Link { src: i, dst: n }, Link { src: n, dst: i }])
            .collect();
        let routes = Routes::build(n, &links, |cur, dst| if cur == n { dst } else { n });
        Topology {
            kind: TopologyKind::Uniform,
            nodes: n,
            hop: inter_node_latency,
            links,
            routes,
            min_transit: inter_node_latency,
            diameter: 2,
        }
    }

    /// A routed topology: `links`, each `hop` cycles, and the next-hop rule
    /// `next(cur, dst)`. The lookahead is the shortest route's latency
    /// (one hop and diameter 0 on a single node).
    fn routed(
        kind: TopologyKind,
        n: u32,
        hop: u64,
        links: Vec<Link>,
        next: impl Fn(u32, u32) -> u32,
    ) -> Topology {
        let routes = Routes::build(n, &links, next);
        let (min_hops, diameter) = routes.hop_bounds();
        Topology {
            kind,
            nodes: n,
            hop,
            links,
            routes,
            min_transit: hop * u64::from(min_hops),
            diameter,
        }
    }

    /// PolarStar-flavored low-diameter network as a 2D HyperX: nodes on a
    /// `rows x cols` grid, complete graph within every row and every
    /// column. One hop fixes the column, one fixes the row: diameter <= 2.
    fn polar(n: u32, hop: u64) -> Topology {
        let (_rows, cols) = grid_dims(n);
        let mut links = Vec::new();
        for u in 0..n {
            let (ur, uc) = (u / cols, u % cols);
            for v in 0..n {
                let (vr, vc) = (v / cols, v % cols);
                if u != v && (ur == vr || uc == vc) {
                    links.push(Link { src: u, dst: v });
                }
            }
        }
        Topology::routed(TopologyKind::Polar, n, hop, links, |cur, dst| {
            let (cr, cc) = (cur / cols, cur % cols);
            let (dr, dc) = (dst / cols, dst % cols);
            if cc != dc {
                cr * cols + dc // row hop to the target column
            } else {
                dr * cols + cc // column hop to the target row
            }
        })
    }

    /// 2D torus with dimension-order (column-first) routing; each step
    /// takes the shorter wraparound direction, ties broken toward +1.
    fn torus(n: u32, hop: u64) -> Topology {
        let (rows, cols) = grid_dims(n);
        let mut set = BTreeSet::new();
        for u in 0..n {
            let (ur, uc) = (u / cols, u % cols);
            if cols > 1 {
                set.insert((u, ur * cols + (uc + 1) % cols));
                set.insert((u, ur * cols + (uc + cols - 1) % cols));
            }
            if rows > 1 {
                set.insert((u, ((ur + 1) % rows) * cols + uc));
                set.insert((u, ((ur + rows - 1) % rows) * cols + uc));
            }
        }
        let links = set.into_iter().map(|(src, dst)| Link { src, dst }).collect();
        // One wraparound-shortest step along a ring of length `len`.
        let step = |pos: u32, target: u32, len: u32| -> u32 {
            let fwd = (target + len - pos) % len;
            if fwd <= len - fwd {
                (pos + 1) % len
            } else {
                (pos + len - 1) % len
            }
        };
        Topology::routed(TopologyKind::Torus, n, hop, links, |cur, dst| {
            let (cr, cc) = (cur / cols, cur % cols);
            let (dr, dc) = (dst / cols, dst % cols);
            if cc != dc {
                cr * cols + step(cc, dc, cols)
            } else {
                step(cr, dr, rows) * cols + cc
            }
        })
    }

    /// Dragonfly: groups of `g = ceil(sqrt(n))` nodes, complete graph
    /// within each group, one directed global link per ordered group pair
    /// whose endpoints rotate over group members (`gw(a, b) = a*g + b %
    /// size(a)`), spreading gateway load. Routes are local-global-local:
    /// diameter <= 3.
    fn dragonfly(n: u32, hop: u64) -> Topology {
        let g = ((n as f64).sqrt().ceil() as u32).max(1);
        let groups = n.div_ceil(g);
        let size = |a: u32| -> u32 { g.min(n - a * g) };
        let gw = |a: u32, b: u32| -> u32 { a * g + b % size(a) };
        let mut set = BTreeSet::new();
        for u in 0..n {
            let gu = u / g;
            for v in (gu * g)..(gu * g + size(gu)) {
                if v != u {
                    set.insert((u, v));
                }
            }
        }
        for a in 0..groups {
            for b in 0..groups {
                if a != b {
                    set.insert((gw(a, b), gw(b, a)));
                }
            }
        }
        let links = set.into_iter().map(|(src, dst)| Link { src, dst }).collect();
        Topology::routed(TopologyKind::Dragonfly, n, hop, links, |cur, dst| {
            let (ga, gd) = (cur / g, dst / g);
            if ga == gd {
                dst
            } else {
                let exit = gw(ga, gd);
                if cur == exit {
                    gw(gd, ga)
                } else {
                    exit
                }
            }
        })
    }
}

/// Flattened per-pair route table: CSR over `(src * n + dst)`.
struct Routes {
    n: u32,
    offsets: Vec<u32>,
    hops: Vec<LinkId>,
}

impl Routes {
    fn get(&self, src: u32, dst: u32) -> &[LinkId] {
        let i = (src * self.n + dst) as usize;
        &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Walk `next(cur, dst)` for every ordered pair over the enumerated
    /// `links`, asserting every step uses an enumerated link and that no
    /// route exceeds `n` hops.
    fn build(n: u32, links: &[Link], next: impl Fn(u32, u32) -> u32) -> Routes {
        let idx: BTreeMap<(u32, u32), LinkId> = links
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.src, l.dst), LinkId(i as u32)))
            .collect();
        let mut offsets = Vec::with_capacity((n as usize * n as usize) + 1);
        offsets.push(0u32);
        let mut hops = Vec::new();
        for s in 0..n {
            for d in 0..n {
                let mut cur = s;
                let mut steps = 0u32;
                while cur != d {
                    let nx = next(cur, d);
                    let l = idx
                        .get(&(cur, nx))
                        .unwrap_or_else(|| panic!("route {s}->{d} uses missing link {cur}->{nx}"));
                    hops.push(*l);
                    cur = nx;
                    steps += 1;
                    assert!(steps <= n, "routing loop on {s}->{d}");
                }
                offsets.push(hops.len() as u32);
            }
        }
        Routes { n, offsets, hops }
    }

    /// (min, max) route length over all cross-node pairs; (1, 0) when
    /// there are none (single-node machine).
    fn hop_bounds(&self) -> (u32, u32) {
        let (mut min, mut max) = (u32::MAX, 0u32);
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                let len = self.get(s, d).len() as u32;
                min = min.min(len);
                max = max.max(len);
            }
        }
        if min == u32::MAX {
            (1, 0)
        } else {
            (min, max)
        }
    }
}

/// Row/column factorization shared by the polar and torus topologies:
/// `rows x cols = n` with `rows` the largest divisor `<= sqrt(n)`
/// (prime `n` degenerates to `1 x n`).
fn grid_dims(n: u32) -> (u32, u32) {
    let mut rows = 1;
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            rows = i;
        }
        i += 1;
    }
    (rows, n / rows)
}

/// Per-shard fabric state: byte/flit counters and windowed demand per
/// directed link, for traffic *injected by this shard*. Shards never share
/// fabric state; the engine sum-merges the per-shard counters at metrics
/// time (and element-wise sums the demand windows before taking the peak),
/// which keeps every figure byte-identical across `--threads` values.
///
/// A shard sends over few of the machine's links, so it keeps counters for
/// those only: a link it never used reads as zero, and costs nothing.
#[derive(Clone)]
pub struct Fabric {
    n_links: usize,
    stat_window: u64,
    /// 1 + the index in `used` of each link this shard has sent over, 0
    /// for the rest; grown to the highest link id used.
    slot: Vec<u32>,
    /// Counters of the links used, in first-use order.
    used: Vec<LinkTraffic>,
}

/// One link's traffic from one shard.
#[derive(Clone)]
pub(crate) struct LinkTraffic {
    pub(crate) link: LinkId,
    pub(crate) bytes: u64,
    /// Traversals.
    pub(crate) flits: u64,
    /// Bytes per `stat_window`-cycle bucket (bucket `i` covers
    /// `[i * stat_window, (i + 1) * stat_window)`). Grown on demand.
    pub(crate) demand: Vec<u64>,
}

impl Fabric {
    pub fn new(n_links: usize, stat_window: u64) -> Fabric {
        Fabric {
            n_links,
            stat_window: stat_window.max(1),
            slot: Vec::new(),
            used: Vec::new(),
        }
    }

    /// Attribute one link traversal of `bytes` at `time`; returns the
    /// link's cumulative byte count (for trace counters).
    pub fn record(&mut self, link: LinkId, time: u64, bytes: u64) -> u64 {
        let l = link.0 as usize;
        assert!(l < self.n_links, "link {l} of a {}-link fabric", self.n_links);
        if l >= self.slot.len() {
            self.slot.resize(l + 1, 0);
        }
        if self.slot[l] == 0 {
            self.used.push(LinkTraffic { link, bytes: 0, flits: 0, demand: Vec::new() });
            self.slot[l] = self.used.len() as u32;
        }
        let t = &mut self.used[self.slot[l] as usize - 1];
        t.bytes += bytes;
        t.flits += 1;
        let bucket = (time / self.stat_window) as usize;
        if t.demand.len() <= bucket {
            t.demand.resize(bucket + 1, 0);
        }
        t.demand[bucket] += bytes;
        t.bytes
    }

    /// Advance one in-flight message hop-by-hop across `topo`'s route,
    /// attributing its bytes to every directed link at that link's
    /// traversal time. Returns the arrival time at `dst`. This is the one
    /// route walk: the engine sends every cross-node message through it.
    pub fn transit(&mut self, topo: &Topology, depart: u64, src: u32, dst: u32, bytes: u64) -> u64 {
        let route = topo.route(src, dst);
        for (k, &l) in route.iter().enumerate() {
            self.record(l, topo.hop_time(depart, k), bytes);
        }
        depart + topo.route_latency(route.len())
    }

    /// The traffic of `link`; `None` if this shard never sent over it.
    fn link(&self, link: LinkId) -> Option<&LinkTraffic> {
        let i = *self.slot.get(link.0 as usize)?;
        i.checked_sub(1).map(|i| &self.used[i as usize])
    }

    /// Cumulative bytes over `link`.
    pub fn bytes(&self, link: LinkId) -> u64 {
        self.link(link).map_or(0, |t| t.bytes)
    }

    /// Traversals (flits) of `link`.
    pub fn flits(&self, link: LinkId) -> u64 {
        self.link(link).map_or(0, |t| t.flits)
    }

    /// Demand buckets of `link` (bytes per `stat_window` cycles).
    pub fn demand(&self, link: LinkId) -> &[u64] {
        self.link(link).map_or(&[], |t| &t.demand)
    }

    /// The links this shard has sent over, in first-use order.
    pub(crate) fn used(&self) -> &[LinkTraffic] {
        &self.used
    }

    pub fn stat_window(&self) -> u64 {
        self.stat_window
    }

    /// Snapshot counters + demand windows (the link table is rebuilt from
    /// config, only the accumulated traffic needs serializing): bytes and
    /// flits of every link, then every link's demand buckets, in link
    /// order, zero and empty for the links never used.
    pub(crate) fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        let ids = || (0..self.n_links as u32).map(LinkId);
        for field in [Fabric::bytes, Fabric::flits] {
            w.usize(self.n_links);
            for l in ids() {
                w.u64(field(self, l));
            }
        }
        w.usize(self.n_links);
        for l in ids() {
            let d = self.demand(l);
            w.usize(d.len());
            for &v in d {
                w.u64(v);
            }
        }
    }

    pub(crate) fn load_into(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{SnapField, SnapshotError};
        let bytes = Vec::<u64>::take(r)?;
        let flits = Vec::<u64>::take(r)?;
        let nd = r.len(8)?;
        if bytes.len() != self.n_links || flits.len() != self.n_links || nd != self.n_links {
            return Err(SnapshotError::Incompatible(
                "fabric link count mismatch".to_string(),
            ));
        }
        let mut fabric = Fabric::new(self.n_links, self.stat_window);
        for (l, (bytes, flits)) in bytes.into_iter().zip(flits).enumerate() {
            let demand = Vec::<u64>::take(r)?;
            if flits != 0 || bytes != 0 || !demand.is_empty() {
                fabric.slot.resize(l + 1, 0);
                let link = LinkId(l as u32);
                fabric.used.push(LinkTraffic { link, bytes, flits, demand });
                fabric.slot[l] = fabric.used.len() as u32;
            }
        }
        *self = fabric;
        Ok(())
    }
}

/// Per-node NIC injection serialization for inter-node traffic: the
/// injection port (4 TB/s per node) is the contended network resource at
/// simulated node counts.
#[derive(Clone)]
pub struct Nics {
    /// Pipeline occupancy in byte-units (1 cycle = `bytes_per_cycle`
    /// units): many small messages inject per cycle, sustained overload
    /// queues at the port.
    busy_units: Vec<u64>,
    bytes_per_cycle: u64,
    /// Total injected bytes per node (stats).
    pub injected_bytes: Vec<u64>,
}

impl Nics {
    pub fn new(nodes: u32, cfg: &NetworkConfig) -> Nics {
        Nics {
            busy_units: vec![0; nodes as usize],
            bytes_per_cycle: cfg.nic_bytes_per_cycle.max(1),
            injected_bytes: vec![0; nodes as usize],
        }
    }

    /// Serialize an inter-node injection of `bytes` from `node` at `ready`;
    /// returns the departure time (add fabric transit for arrival).
    pub fn inject(&mut self, node: u32, ready: u64, bytes: u64) -> u64 {
        let n = node as usize;
        let start_units = (ready * self.bytes_per_cycle).max(self.busy_units[n]);
        self.busy_units[n] = start_units + bytes.max(1);
        self.injected_bytes[n] += bytes;
        self.busy_units[n].div_ceil(self.bytes_per_cycle)
    }

    pub(crate) fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        use crate::snapshot::SnapField;
        self.busy_units.put(w);
        self.injected_bytes.put(w);
    }

    pub(crate) fn load_into(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{SnapField, SnapshotError};
        let busy = Vec::<u64>::take(r)?;
        let injected = Vec::<u64>::take(r)?;
        if busy.len() != self.busy_units.len() || injected.len() != self.injected_bytes.len() {
            return Err(SnapshotError::Incompatible(
                "NIC node count mismatch".to_string(),
            ));
        }
        self.busy_units = busy;
        self.injected_bytes = injected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE_COUNTS: &[u32] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 32];

    fn all_topos(n: u32) -> Vec<Arc<Topology>> {
        let net = NetworkConfig::default();
        TopologyKind::ALL.iter().map(|k| k.build(n, &net)).collect()
    }

    #[test]
    fn routes_chain_from_src_to_dst_over_enumerated_links() {
        for &n in NODE_COUNTS {
            for topo in all_topos(n) {
                let links = topo.links();
                for s in 0..n {
                    for d in 0..n {
                        let route = topo.route(s, d);
                        if s == d {
                            assert!(route.is_empty(), "{}: self-route {s}", topo.kind());
                            continue;
                        }
                        assert!(!route.is_empty(), "{}: empty route {s}->{d}", topo.kind());
                        let mut cur = s;
                        for &l in route {
                            let link = links[l.0 as usize];
                            assert_eq!(
                                link.src,
                                cur,
                                "{} n={n}: route {s}->{d} breaks at {cur}",
                                topo.kind()
                            );
                            cur = link.dst;
                        }
                        assert_eq!(cur, d, "{} n={n}: route {s}->{d} ends elsewhere", topo.kind());
                    }
                }
            }
        }
    }

    #[test]
    fn link_enumeration_is_consistent() {
        for &n in NODE_COUNTS {
            for topo in all_topos(n) {
                let links = topo.links();
                let mut sorted: Vec<Link> = links.to_vec();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), links.len(), "{}: duplicate links", topo.kind());
                for l in links {
                    assert_ne!(l.src, l.dst, "{}: self-link", topo.kind());
                    let limit = if topo.kind() == TopologyKind::Uniform {
                        n + 1 // the crossbar pseudo-node
                    } else {
                        n
                    };
                    assert!(l.src < limit && l.dst < limit, "{}: out of range", topo.kind());
                }
            }
        }
    }

    #[test]
    fn diameter_bounds_hold() {
        for &n in NODE_COUNTS {
            if n < 2 {
                continue;
            }
            let net = NetworkConfig::default();
            for topo in all_topos(n) {
                // `diameter()` is exactly the longest minimal route.
                let longest = (0..n)
                    .flat_map(|s| (0..n).map(move |d| (s, d)))
                    .filter(|(s, d)| s != d)
                    .map(|(s, d)| topo.route(s, d).len() as u32)
                    .max()
                    .unwrap();
                if topo.kind() != TopologyKind::Uniform {
                    assert_eq!(topo.diameter(), longest, "{} n={n}", topo.kind());
                }
                match topo.kind() {
                    TopologyKind::Uniform => assert_eq!(longest, 2),
                    TopologyKind::Polar => assert!(topo.diameter() <= 2, "n={n}"),
                    TopologyKind::Dragonfly => assert!(topo.diameter() <= 3, "n={n}"),
                    TopologyKind::Torus => {
                        let (rows, cols) = grid_dims(n);
                        assert_eq!(topo.diameter(), rows / 2 + cols / 2, "n={n}");
                    }
                }
            }
            // Routed lookahead bound: one hop (some pair is adjacent).
            let net_hop = net.hop_latency.max(1);
            for k in [TopologyKind::Polar, TopologyKind::Torus, TopologyKind::Dragonfly] {
                assert_eq!(k.build(n, &net).min_transit(), net_hop, "{k} n={n}");
            }
        }
    }

    /// Pins every table a topology exposes — the link numbering, each
    /// ordered route, per-hop traversal times, end-to-end latency, the
    /// lookahead bound and the diameter — for every kind at 1..=17, 32 and
    /// 64 nodes. Hop times are read back through `Fabric::transit` at a
    /// one-cycle demand window: a minimal route never repeats a link, so a
    /// link's last demand bucket is the cycle it was traversed.
    #[test]
    fn topology_tables_are_pinned() {
        const DEPART: u64 = 3;
        let net = NetworkConfig::default();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for n in (1..=17).chain([32, 64]) {
            for kind in TopologyKind::ALL {
                let topo = kind.build(n, &net);
                put(topo.min_transit());
                put(u64::from(topo.diameter()));
                put(topo.hop_latency());
                for l in topo.links() {
                    put(u64::from(l.src));
                    put(u64::from(l.dst));
                }
                for s in 0..n {
                    for d in 0..n {
                        let route = topo.route(s, d);
                        put(route.len() as u64);
                        put(topo.latency(s, d));
                        let mut f = Fabric::new(topo.links().len(), 1);
                        put(f.transit(topo.as_ref(), DEPART, s, d, 1));
                        for &l in route {
                            put(u64::from(l.0));
                            put(f.demand(l).len() as u64 - 1);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0x45fd_aff3_9632_be67, "topology tables moved: {h:#018x}");
    }

    #[test]
    fn uniform_latency_matches_pre_fabric_model() {
        let net = NetworkConfig::default();
        let topo = TopologyKind::Uniform.build(4, &net);
        assert_eq!(topo.latency(0, 3), net.inter_node_latency);
        assert_eq!(topo.latency(2, 2), 0);
        assert_eq!(topo.min_transit(), net.inter_node_latency);
        // Up-link at depart, down-link at arrival.
        assert_eq!(topo.hop_time(100, 0), 100);
        assert_eq!(topo.hop_time(100, 1), 100 + net.inter_node_latency);
    }

    #[test]
    fn torus_prime_node_count_degenerates_to_ring() {
        let topo = Topology::torus(7, 10);
        assert_eq!(topo.diameter(), 3); // 1 x 7 ring
        assert_eq!(topo.links().len(), 14);
        assert_eq!(topo.latency(0, 3), 30);
        assert_eq!(topo.latency(0, 4), 30, "wraps the short way");
    }

    #[test]
    fn kind_parses_case_insensitive() {
        assert_eq!("Torus".parse::<TopologyKind>().unwrap(), TopologyKind::Torus);
        assert_eq!("DRAGONFLY".parse::<TopologyKind>().unwrap(), TopologyKind::Dragonfly);
        assert_eq!("polarstar".parse::<TopologyKind>().unwrap(), TopologyKind::Polar);
        assert!("mesh".parse::<TopologyKind>().is_err());
        for k in TopologyKind::ALL {
            assert_eq!(k.name().parse::<TopologyKind>().unwrap(), k);
        }
    }

    #[test]
    fn fabric_tracks_cumulative_and_windowed_demand() {
        let mut f = Fabric::new(3, 100);
        assert_eq!(f.record(LinkId(1), 50, 64), 64);
        assert_eq!(f.record(LinkId(1), 250, 8), 72);
        assert_eq!(f.bytes(LinkId(1)), 72);
        assert_eq!(f.flits(LinkId(1)), 2);
        assert_eq!(f.demand(LinkId(1)), &[64, 0, 8]);
        assert_eq!(f.demand(LinkId(0)), &[] as &[u64]);
    }

    #[test]
    fn fabric_transit_attributes_every_hop() {
        let topo = Topology::torus(4, 10); // 2 x 2
        let mut f = Fabric::new(topo.links().len(), 100);
        let arrival = f.transit(&topo, 1000, 0, 3, 72);
        assert_eq!(arrival, 1020, "two hops at 10 cycles each");
        let links = || (0..topo.links().len() as u32).map(LinkId);
        let used: u64 = links().map(|l| f.flits(l)).sum();
        assert_eq!(used, 2);
        assert_eq!(links().map(|l| f.bytes(l)).sum::<u64>(), 144);
    }

    #[test]
    fn nic_serializes_injections() {
        let cfg = NetworkConfig { nic_bytes_per_cycle: 64, ..NetworkConfig::default() };
        let mut nics = Nics::new(2, &cfg);
        assert_eq!(nics.inject(0, 10, 64), 11);
        assert_eq!(nics.inject(0, 10, 64), 12, "second message queues");
        assert_eq!(nics.inject(1, 10, 64), 11, "other node independent");
        assert_eq!(nics.injected_bytes[0], 128);
    }

    #[test]
    fn nic_pipelines_small_messages() {
        let cfg = NetworkConfig { nic_bytes_per_cycle: 2048, ..NetworkConfig::default() };
        let mut nics = Nics::new(1, &cfg);
        // 28 x 72-byte messages fit within one cycle of port bandwidth.
        for _ in 0..28 {
            assert_eq!(nics.inject(0, 0, 72), 1);
        }
        // Sustained overload queues: after ~2048/72 more, departures slip.
        for _ in 0..28 {
            nics.inject(0, 0, 72);
        }
        assert!(nics.inject(0, 0, 72) >= 2);
    }
}
