//! Synthetic record-stream generator: the stand-in for the artifact's
//! AGILE WF2 CSV datasets (see DESIGN.md). Produces a CSV text stream of
//! typed vertex and edge records with skewed (RMAT-style) endpoints, plus
//! the `data <m>` size multipliers the paper sweeps in Figure 10.

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
            push_record(&mut csv, b'V', &[id, vt]);
            records.push(RawRecord::vertex(id, vt));
        } else {
            let src = skewed(&mut rng);
            let dst = rng.below_u64(n_entities);
            let et = 1 + rng.below_u64(3);
            push_record(&mut csv, b'E', &[src, dst, et]);
            records.push(RawRecord::edge(src, dst, et));
        }
    }
    Dataset { csv, records }
}

/// Append one CSV line, `kind` then each field in decimal. The digits are
/// written by hand: `core::fmt` took about twice as long on the benchmark's
/// datasets, for the same bytes.
fn push_record(csv: &mut Vec<u8>, kind: u8, fields: &[u64]) {
    csv.push(kind);
    for &f in fields {
        csv.push(b',');
        let mut digits = [0u8; 20];
        let (mut at, mut v) = (digits.len(), f);
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        csv.extend_from_slice(&digits[at..]);
    }
    csv.push(b'\n');
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
    use updown_sim::fnv1a;

    #[test]
    fn generated_csv_parses_back_exactly() {
        let d = generate(500, 1000, 3);
        let parsed = Transducer::parse_all(&d.csv);
        assert_eq!(parsed, d.records);
    }

    /// The benchmark's two `ingest_pm` datasets at seed 0 (ingestion, then
    /// partial match), pinned byte for byte: the CSV text must not drift.
    #[test]
    fn benchmark_datasets_are_pinned() {
        let ingest = sized(25_000, 1.0, 25_000 / 4, 13);
        let pm = generate(40_000, 40_000 / 8, 21);
        let got = [ingest.csv.len() as u64, fnv1a(&ingest.csv), pm.csv.len() as u64, fnv1a(&pm.csv)];
        assert_eq!(got, [301_227, 0x3703_cded_ba9a_b26a, 477_679, 0x9b28_6e06_7e63_eb39]);
        let mut line = Vec::new();
        push_record(&mut line, b'E', &[0, 7, u64::MAX]);
        assert_eq!(line, b"E,0,7,18446744073709551615\n");
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
