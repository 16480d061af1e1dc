//! Byte pins of the Chrome `trace_event` export: the document every app
//! writes at conformance scale hashes to the value this test produced at
//! commit c71d3ab, when each row went through `JsonWriter`'s builder chain
//! and each timestamp through `{}`. Both host thread counts give the same
//! bytes; a routed topology covers multi-hop `Link` rows, and two more
//! clocks cover a timestamp divisor with six fraction digits and one that
//! is not of the form 2^a·5^b. With a race probe attached as well, each
//! trace keeps its bytes and the race report keeps the `udrace/v1` pin.

use integration_tests::fnv1a;
use udcheck::apps::ALL_APPS;
use udcheck::{render_race_document, RaceAnalysis};
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::partial_match::{run_partial_match, PmConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::Csr;
use updown_sim::{MachineConfig, ProtocolProbe, RaceProbe, TopologyKind};

const SEED: u64 = 10;

fn machine(nodes: u32, threads: u32) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m
}

/// The Chrome trace of one app on `m`, over the inputs `repro check` runs
/// (`udcheck::apps`, seed 10).
fn trace_of(app: &str, m: MachineConfig) -> String {
    let nodes = m.nodes;
    let doc = match app {
        "pagerank" => {
            let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), SEED)));
            let mut cfg = PrConfig::new(nodes);
            cfg.machine = m;
            cfg.iterations = 2;
            cfg.trace = true;
            run_pagerank(&split_in_out(&g, 64), &cfg).trace_json
        }
        "bfs" => {
            let g = Csr::from_edges(&dedup_sort(
                rmat(8, RmatParams::default(), SEED).symmetrize(),
            ));
            let mut cfg = BfsConfig::new(nodes, 0);
            cfg.machine = m;
            cfg.trace = true;
            run_bfs(&g, &cfg).trace_json
        }
        "tc" => {
            let mut g = Csr::from_edges(&dedup_sort(
                rmat(7, RmatParams::default(), SEED).symmetrize(),
            ));
            g.sort_neighbors();
            let mut cfg = TcConfig::new(nodes);
            cfg.machine = m;
            cfg.trace = true;
            run_tc(&g, &cfg).trace_json
        }
        "ingest" => {
            let mut cfg = IngestConfig::new(nodes);
            cfg.machine = m;
            cfg.trace = true;
            run_ingest(&datagen::generate(250, 120, SEED), &cfg).trace_json
        }
        "partial_match" => {
            let mut cfg = PmConfig::new(8, vec![1, 2]);
            cfg.machine = m;
            cfg.batch = 16;
            cfg.interval = 200;
            cfg.feeders = 2;
            cfg.trace = true;
            run_partial_match(&datagen::generate(200, 60, SEED).records, &cfg).trace_json
        }
        other => panic!("unknown app '{other}'"),
    };
    doc.expect("cfg.trace was set")
}

const PINS: [(&str, u64); 5] = [
    ("pagerank", 0x9A53_2E57_8CC0_A67B),
    ("bfs", 0x60E4_BE51_5D24_DEE6),
    ("tc", 0x1BFF_1ACD_66EC_D3CC),
    ("ingest", 0x1EE8_7784_10CB_0A1E),
    ("partial_match", 0x5527_273D_481E_F165),
];

#[test]
fn chrome_documents_of_the_five_apps_are_those_of_the_builder_chain() {
    for (app, pin) in PINS {
        for threads in [1, 4] {
            let doc = trace_of(app, machine(2, threads));
            assert_eq!(
                fnv1a(doc.as_bytes()),
                pin,
                "{app} threads={threads}: {} bytes, hash {:#018X}",
                doc.len(),
                fnv1a(doc.as_bytes())
            );
        }
    }
}

/// On a 4-node torus some messages take two hops, so the injecting shard
/// records `Link` rows for links that do not start at its own node.
#[test]
fn chrome_document_on_a_torus_has_multi_hop_link_rows_and_the_same_bytes() {
    for threads in [1, 4] {
        let mut m = machine(4, threads);
        m.net.topology = TopologyKind::Torus;
        let doc = trace_of("pagerank", m);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            0xF9A8_F86B_75F1_88CA,
            "threads={threads}: {} bytes, hash {:#018X}",
            doc.len(),
            fnv1a(doc.as_bytes())
        );
        // `{"name":"link n<src>->n<dst> B",…,"pid":<injecting node + 1>,…`
        let second_hop = doc.split("{\"name\":\"link n").skip(1).any(|row| {
            let src = row.split("->").next().unwrap_or("");
            let pid = row.split("\"pid\":").nth(1).and_then(|r| r.split(',').next());
            pid.and_then(|p| p.parse::<u64>().ok()) != src.parse::<u64>().ok().map(|s| s + 1)
        });
        assert!(second_hop, "threads={threads}: no multi-hop link row");
    }
}

/// 1.6 GHz divides ticks by 1600 = 2^6·5^2 (six fraction digits); 3.0 GHz
/// by 3000, which has no finite decimal expansion.
#[test]
fn chrome_document_bytes_at_other_clocks() {
    for (ghz, pin) in [(1.6, 0x237A_55B1_2324_BE18u64), (3.0, 0xC420_8AF9_5D3D_8E39)] {
        let mut m = machine(2, 1);
        m.clock_ghz = ghz;
        let doc = trace_of("bfs", m);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            pin,
            "clock {ghz}: {} bytes, hash {:#018X}",
            doc.len(),
            fnv1a(doc.as_bytes())
        );
    }
}

/// Trace and race probe on one run: both observers keep their per-entry
/// data in the same side tables, and neither disturbs the other. Every
/// app's Chrome document hashes to its pin above, and the five race
/// reports render the `udrace/v1` document `tests/tests/udrace.rs` pins
/// (`repro race`'s probes: a protocol probe for the flow graph, and the race
/// probe).
#[test]
fn traced_race_runs_keep_both_pinned_documents() {
    const UDRACE_GOLDEN: u64 = 0x536E_9A13_D479_A379;
    for threads in [1, 4] {
        let mut analyses = Vec::new();
        for ((app, pin), canon) in PINS.iter().zip(ALL_APPS) {
            assert_eq!(app, canon);
            let (flow, race) = (ProtocolProbe::new(), RaceProbe::new());
            let mut m = machine(2, threads);
            m.probe = Some(flow.clone());
            m.race = Some(race.clone());
            let doc = trace_of(app, m);
            assert_eq!(
                fnv1a(doc.as_bytes()),
                *pin,
                "{app} threads={threads}: trace moved"
            );
            analyses.push(RaceAnalysis::with_flow(app, &race, &flow));
        }
        let doc = render_race_document(&analyses);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            UDRACE_GOLDEN,
            "threads={threads}: race document moved:\n{doc}"
        );
    }
}
