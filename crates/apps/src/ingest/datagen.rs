//! Synthetic record-stream generator: the stand-in for the artifact's
//! AGILE WF2 CSV datasets (see DESIGN.md). Produces a CSV text stream of
//! typed vertex and edge records with skewed (RMAT-style) endpoints, plus
//! the `data <m>` size multipliers the paper sweeps in Figure 10.

use std::io::Write;

use updown_graph::rng::Rng;

use super::tform::RawRecord;

/// A generated dataset: the CSV bytes and the expected parse.
pub struct Dataset {
    pub csv: Vec<u8>,
    pub records: Vec<RawRecord>,
}

/// Generate `n_records` records over a universe of `n_entities` vertex
/// ids. Roughly 1/4 vertex records, 3/4 edges; endpoints skewed toward
/// low ids (social-network-like).
pub fn generate(n_records: usize, n_entities: u64, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut csv = Vec::with_capacity(n_records * 16);
    let mut records = Vec::with_capacity(n_records);
    let skewed = |rng: &mut Rng| -> u64 {
        // Square a uniform draw: density ~ 1/sqrt(id), a heavy head.
        let u: f64 = rng.f64();
        ((u * u) * n_entities as f64) as u64
    };
    for _ in 0..n_records {
        if rng.below_u64(4) == 0 {
            let id = skewed(&mut rng);
            let vt = 1 + rng.below_u64(4);
            writeln!(csv, "V,{id},{vt}").expect("a Vec takes every byte");
            records.push(RawRecord::vertex(id, vt));
        } else {
            let src = skewed(&mut rng);
            let dst = rng.below_u64(n_entities);
            let et = 1 + rng.below_u64(3);
            writeln!(csv, "E,{src},{dst},{et}").expect("a Vec takes every byte");
            records.push(RawRecord::edge(src, dst, et));
        }
    }
    Dataset { csv, records }
}

/// The paper's `data <m>` naming: multiplier applied to a base record
/// count.
pub fn sized(base_records: usize, multiplier: f64, n_entities: u64, seed: u64) -> Dataset {
    generate(
        ((base_records as f64) * multiplier).round() as usize,
        n_entities,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::tform::Transducer;

    #[test]
    fn generated_csv_parses_back_exactly() {
        let d = generate(500, 1000, 3);
        let parsed = Transducer::parse_all(&d.csv);
        assert_eq!(parsed, d.records);
    }

    #[test]
    fn multiplier_scales_count() {
        assert_eq!(sized(100, 0.1, 50, 1).records.len(), 10);
        assert_eq!(sized(100, 2.0, 50, 1).records.len(), 200);
    }

    #[test]
    fn endpoints_are_skewed() {
        let d = generate(4000, 10_000, 9);
        let low = d
            .records
            .iter()
            .filter(|r| r.rtype == 1 && r.fields[0] < 5000)
            .count();
        let edges = d.records.iter().filter(|r| r.rtype == 1).count();
        // u^2 < 0.5 with probability ~0.707: well above a uniform 50%.
        assert!(low * 3 > edges * 2, "sources skewed low: {low}/{edges}");
    }
}
