//! Topology conformance: every selectable system network must keep the
//! engine's core guarantee — byte-identical results across thread counts
//! — and the routed topologies must actually change what the fabric
//! measures (multi-hop routes inflate per-link traffic vs the uniform
//! crossbar).

use udcheck::apps::{case, Outcome};
use updown_sim::json::JsonValue;
use updown_sim::{MachineConfig, TopologyKind};

/// Thread counts pinned by the issue's acceptance criteria.
const THREADS: &[u32] = &[1, 2, 4];

/// The two apps (with the seed each runs at) every topology is checked on.
const PR: (&str, u64) = ("pagerank", 10);
const BFS: (&str, u64) = ("bfs", 11);

fn machine(nodes: u32, threads: u32, topo: TopologyKind) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m.net.topology = topo;
    m
}

/// `app`'s conformance case on four nodes of `topo`.
fn run((app, seed): (&str, u64), threads: u32, topo: TopologyKind) -> Outcome {
    case(app, seed, machine(4, threads, topo)).run()
}

/// Every topology, two apps: results and the full metrics JSON (fabric
/// section included) are byte-identical at threads {1, 2, 4}.
#[test]
fn every_topology_is_byte_identical_across_threads() {
    for topo in TopologyKind::ALL {
        for app in [PR, BFS] {
            let base = run(app, THREADS[0], topo);
            let json = base.metrics().to_json();
            for &t in &THREADS[1..] {
                let out = run(app, t, topo);
                let label = format!("{} {topo} threads={t}", app.0);
                assert_eq!(base.fingerprint(), out.fingerprint(), "{label}: result diverged");
                assert_eq!(json, out.metrics().to_json(), "{label}: metrics JSON diverged");
            }
        }
    }
}

/// The explicit `--topology uniform` selection is the default model: a
/// config that never mentions topology and one that selects Uniform
/// produce byte-identical metrics JSON.
#[test]
fn uniform_selection_matches_default_model() {
    let default = run(PR, 1, TopologyKind::default());
    let uniform = run(PR, 1, TopologyKind::Uniform);
    assert_eq!(default.fingerprint(), uniform.fingerprint());
    assert_eq!(default.metrics().to_json(), uniform.metrics().to_json());
}

/// The fabric section of the exported JSON is consistent with the
/// in-memory metrics and with the per-node NIC counters.
#[test]
fn fabric_json_round_trips_and_matches_nic_counters() {
    for &topo in &[TopologyKind::Uniform, TopologyKind::Torus] {
        let out = run(PR, 1, topo);
        let m = out.metrics();
        let v = JsonValue::parse(&m.to_json()).expect("valid JSON");
        let f = v.get("fabric").unwrap();
        assert_eq!(f.get("topology").unwrap().as_str(), Some(topo.name()));
        // NIC totals round-trip: fabric.nic_injected_bytes is the sum of
        // the per-node nic_injected_bytes values already in the document.
        let per_node: u64 = v
            .get("nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|n| n.get("nic_injected_bytes").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(
            f.get("nic_injected_bytes").unwrap().as_u64(),
            Some(per_node),
            "{topo}: fabric NIC total disagrees with per-node counters"
        );
        assert!(per_node > 0, "{topo}: cross-node app must inject bytes");
        assert_eq!(
            f.get("link_bytes_total").unwrap().as_u64(),
            Some(m.fabric.link_bytes_total)
        );
        assert_eq!(
            f.get("peak_window_bytes").unwrap().as_u64(),
            Some(m.fabric.peak_window_bytes)
        );
        assert!(f.get("peak_link_gbps").unwrap().as_f64().is_some());
        let links_used = f.get("links_used").unwrap().as_u64().unwrap();
        assert!(links_used > 0, "{topo}: traffic must touch links");
        assert!(links_used <= f.get("links_total").unwrap().as_u64().unwrap());
        let top = f.get("top_links").unwrap().as_arr().unwrap();
        assert!(!top.is_empty());
        assert!(top[0].get("peak_gbps").unwrap().as_f64().is_some());
    }
}

/// Same app, same scale, two topologies: the fabric must measure a
/// congestion difference. The workloads are near-identical at the NIC
/// (within a few permille — combining effects are timing-dependent), so
/// a materially different peak-window demand is the topology's doing:
/// routed links carry through-traffic the crossbar's dedicated
/// up/down segments never see.
#[test]
fn topologies_show_a_congestion_difference() {
    let uniform = run(PR, 1, TopologyKind::Uniform);
    let torus = run(PR, 1, TopologyKind::Torus);
    let (u, t) = (&uniform.metrics().fabric, &torus.metrics().fabric);
    // Same workload, to within combining noise.
    let nic_delta = u.nic_injected_bytes.abs_diff(t.nic_injected_bytes);
    assert!(
        nic_delta * 50 < u.nic_injected_bytes,
        "workloads drifted too far apart to compare ({} vs {})",
        u.nic_injected_bytes,
        t.nic_injected_bytes
    );
    assert!(u.peak_window_bytes > 0 && t.peak_window_bytes > 0);
    // The congestion signal: the hot-spot windows differ by far more
    // than the workload difference could explain.
    let peak_delta = u.peak_window_bytes.abs_diff(t.peak_window_bytes);
    assert!(
        peak_delta * 10 > u.peak_window_bytes.min(t.peak_window_bytes),
        "peak demand should differ materially between topologies \
         (uniform {} vs torus {})",
        u.peak_window_bytes,
        t.peak_window_bytes
    );
}

/// Routed transit is visible in simulated time: a diameter-2 topology
/// with 400-cycle hops must finish a cross-node-heavy app in a different
/// final tick than the 1000-cycle uniform model (the paper's ablation
/// axis), while uniform matches the historical model exactly.
#[test]
fn routed_topologies_change_transit_times() {
    let uniform = run(BFS, 1, TopologyKind::Uniform);
    let polar = run(BFS, 1, TopologyKind::Polar);
    assert_ne!(
        uniform.metrics().final_tick,
        polar.metrics().final_tick,
        "routed hops should shift end-to-end latency"
    );
}
