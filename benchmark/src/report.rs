//! The runner around [`crate::sample`]: rounds of samples (each a fresh
//! child process of this program), the printed report, the results file,
//! `compare` and `--self-check`.
//!
//! Closed loop, one driver process: the runner starts one sample, waits
//! for it, and starts the next; a sample never runs more than two
//! simulator threads. Each round runs every workload once, in an order
//! rotated by the round number so that machine drift spreads evenly.

use crate::metrics::{is_exact, Better, Clock, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use updown_sim::json::{JsonValue, JsonWriter};

pub const RESULTS_SCHEMA: &str = "udbench-results/v1";

#[derive(Clone, Debug, Default)]
pub struct WorkloadResults {
    pub attempted: u64,
    pub failed: u64,
    /// One digest per round; they must all be equal.
    pub digests: Vec<String>,
    /// End-to-end metric name → one value per round.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric name → value from the traced pass, if one ran.
    pub per_layer: BTreeMap<String, f64>,
}

#[derive(Clone, Debug)]
pub struct Results {
    pub host_cores: u64,
    pub git_rev: String,
    pub seed: u64,
    pub rounds: u64,
    pub run_seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResults>,
}

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub rounds: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one child sample printed.
struct ChildSample {
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<(String, f64)>,
    stdout: String,
}

fn run_child(workload: &str, o: &RunOpts, trace: bool) -> Result<ChildSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("UDBENCH_OUT", &o.out_dir)
        .output()
        .map_err(|e| format!("starting sample {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "sample {workload} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("sample {workload} printed nothing"))?;
    let v = JsonValue::parse(last).map_err(|e| format!("sample {workload}: result line: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("sample {workload}: no '{k}'"))
    };
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.def.name).collect()
    };
    let mut metrics = Vec::new();
    for name in names {
        let value = v
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("sample {workload}: metric '{name}' missing"))?;
        metrics.push((name.to_string(), value));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or("")
        .to_string();
    Ok(ChildSample {
        attempted: field("attempted")?,
        failed: field("failed")?,
        digest,
        metrics,
        stdout,
    })
}

fn git_rev(dir: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run `rounds` rounds of all workloads (and the traced pass if asked).
pub fn run_all(o: &RunOpts) -> Result<Results, String> {
    let mut res = Results {
        host_cores: crate::host::host_cores() as u64,
        git_rev: git_rev(Path::new(env!("CARGO_MANIFEST_DIR"))),
        seed: o.seed,
        rounds: o.rounds,
        run_seconds: o.seconds,
        workloads: WORKLOADS
            .iter()
            .map(|w| (w.to_string(), WorkloadResults::default()))
            .collect(),
    };
    for round in 0..o.rounds {
        for i in 0..WORKLOADS.len() {
            let name = WORKLOADS[(i + round as usize) % WORKLOADS.len()];
            eprintln!("udbench: round {}/{} {name}", round + 1, o.rounds);
            let s = run_child(name, o, false)?;
            let w = res.workloads.get_mut(name).expect("initialized above");
            w.attempted += s.attempted;
            w.failed += s.failed;
            // A run whose digest differs between rounds is a failed run.
            if w.digests.first().is_some_and(|d| *d != s.digest) {
                w.failed += 1;
            }
            w.digests.push(s.digest);
            for (name, value) in s.metrics {
                w.samples.entry(name).or_default().push(value);
            }
        }
    }
    if o.trace {
        for name in WORKLOADS {
            eprintln!("udbench: traced pass {name}");
            let s = run_child(name, o, true)?;
            let w = res.workloads.get_mut(name).expect("initialized above");
            w.attempted += s.attempted;
            w.failed += s.failed;
            if w.digests.first().is_some_and(|d| *d != s.digest) {
                eprintln!("udbench: {name}: traced pass digest differs from the untraced rounds");
                w.failed += 1;
            }
            w.per_layer = s.metrics.into_iter().collect();
            for line in s
                .stdout
                .lines()
                .filter(|l| l.starts_with("self_time ") || l.starts_with("trace "))
            {
                println!("{name}: {line}");
            }
        }
    }
    Ok(res)
}

impl Results {
    pub fn failed(&self) -> u64 {
        self.workloads.values().map(|w| w.failed).sum()
    }

    /// Every metric by name with its unit and clock.
    pub fn print(&self) {
        println!(
            "udbench: seed {} rounds {} run_seconds {} host_cores {} git {}",
            self.seed, self.rounds, self.run_seconds, self.host_cores, self.git_rev
        );
        for name in WORKLOADS {
            let Some(w) = self.workloads.get(name) else {
                continue;
            };
            println!(
                "\n== {name}: runs_failed/runs_attempted {}/{}",
                w.failed, w.attempted
            );
            println!(
                "{:<20} {:>14} {:>14} {:>14} {:>3} {:>8}  {:<6} {:<5}",
                "end-to-end", "median", "q1", "q3", "n", "spread", "unit", "clock"
            );
            for m in END_TO_END {
                let Some(xs) = w.samples.get(m.def.name) else {
                    continue;
                };
                let q = quartiles_or_point(xs);
                let sp = (q[2] - q[0]) / q[1].abs();
                println!(
                    "{:<20} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>7.2}%  {:<6} {:<5}",
                    m.def.name,
                    q[1],
                    q[0],
                    q[2],
                    xs.len(),
                    sp * 100.0,
                    m.def.unit,
                    clock_str(m.def.clock)
                );
            }
            if !w.per_layer.is_empty() {
                println!(
                    "{:<44} {:>18}  {:<6} {:<5}",
                    "per-layer (traced pass)", "value", "unit", "clock"
                );
                for d in PER_LAYER {
                    if let Some(v) = w.per_layer.get(d.name) {
                        println!(
                            "{:<44} {:>18.6}  {:<6} {:<5}",
                            d.name,
                            v,
                            d.unit,
                            clock_str(d.clock)
                        );
                    }
                }
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema").string(RESULTS_SCHEMA);
        w.key("host_cores").u64(self.host_cores);
        w.key("git_rev").string(&self.git_rev);
        w.key("seed").u64(self.seed);
        w.key("rounds").u64(self.rounds);
        w.key("run_seconds").f64(self.run_seconds);
        w.key("workloads").begin_obj();
        for (name, r) in &self.workloads {
            w.key(name).begin_obj();
            w.key("attempted").u64(r.attempted);
            w.key("failed").u64(r.failed);
            w.key("digests").begin_arr();
            for d in &r.digests {
                w.string(d);
            }
            w.end_arr();
            w.key("samples").begin_obj();
            for (m, xs) in &r.samples {
                w.key(m).begin_arr();
                for &x in xs {
                    w.f64(x);
                }
                w.end_arr();
            }
            w.end_obj();
            w.key("spread").begin_obj();
            for (m, xs) in &r.samples {
                if xs.len() >= 2 {
                    w.key(m).f64(spread(xs));
                }
            }
            w.end_obj();
            w.key("per_layer").begin_obj();
            for (m, v) in &r.per_layer {
                w.key(m).f64(*v);
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let v = JsonValue::parse(text)?;
        if v.get("schema").and_then(|s| s.as_str()) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a {RESULTS_SCHEMA} document"));
        }
        let num = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing '{k}'"))
        };
        let JsonValue::Obj(ws) = v.get("workloads").ok_or("missing 'workloads'")? else {
            return Err("'workloads' is not an object".into());
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in ws {
            let mut r = WorkloadResults {
                attempted: w.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0),
                failed: w.get("failed").and_then(|x| x.as_u64()).unwrap_or(0),
                ..WorkloadResults::default()
            };
            if let Some(ds) = w.get("digests").and_then(|d| d.as_arr()) {
                r.digests = ds
                    .iter()
                    .filter_map(|d| d.as_str().map(String::from))
                    .collect();
            }
            if let Some(JsonValue::Obj(samples)) = w.get("samples") {
                for (m, xs) in samples {
                    let xs = xs
                        .as_arr()
                        .ok_or_else(|| format!("{name}.{m}: not an array"))?;
                    r.samples
                        .insert(m.clone(), xs.iter().filter_map(|x| x.as_f64()).collect());
                }
            }
            if let Some(JsonValue::Obj(layers)) = w.get("per_layer") {
                for (m, x) in layers {
                    if let Some(x) = x.as_f64() {
                        r.per_layer.insert(m.clone(), x);
                    }
                }
            }
            workloads.insert(name.clone(), r);
        }
        Ok(Results {
            host_cores: num("host_cores")? as u64,
            git_rev: v
                .get("git_rev")
                .and_then(|s| s.as_str())
                .unwrap_or("unknown")
                .to_string(),
            seed: num("seed")? as u64,
            rounds: num("rounds")? as u64,
            run_seconds: num("run_seconds")?,
            workloads,
        })
    }
}

fn clock_str(c: Clock) -> &'static str {
    match c {
        Clock::Host => "host",
        Clock::Sim => "sim",
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// Run-to-run spread of either side is wider than the bound.
    Unresolved,
    /// An exact metric that is not equal on both sides.
    Differs,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// Judge `b` against `a` for one metric. A timing is `worse` when its
/// median moved the wrong way by more than the bound, `better` when it
/// moved the right way by more than `a`'s own interquartile range, and
/// `unresolved` when either side's spread exceeds the bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    let (qa, qb) = (quartiles_or_point(a), quartiles_or_point(b));
    if exact {
        return if a.iter().chain(b).all(|x| *x == a[0]) {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    // Positive = b is worse than a, as a share of a's median.
    let worse_by = match better {
        Better::Lower => (qb[1] - qa[1]) / qa[1].abs(),
        Better::Higher => (qa[1] - qb[1]) / qa[1].abs(),
    };
    let spread_of = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    if worse_by > bound {
        Verdict::Worse
    } else if spread_of(qa) > bound || spread_of(qb) > bound {
        Verdict::Unresolved
    } else if -worse_by > spread_of(qa) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn quartiles_or_point(xs: &[f64]) -> [f64; 3] {
    if xs.len() >= 2 {
        quartiles(xs)
    } else {
        [xs[0]; 3]
    }
}

/// Print the comparison table; returns true when nothing is `worse`, no
/// exact metric differs and `b` has no more failed runs than `a`.
pub fn compare(a: &Results, b: &Results) -> bool {
    let same_inputs = a.seed == b.seed;
    println!(
        "compare: A git {} seed {} rounds {} cores {} | B git {} seed {} rounds {} cores {}",
        a.git_rev, a.seed, a.rounds, a.host_cores, b.git_rev, b.seed, b.rounds, b.host_cores
    );
    if !same_inputs {
        println!("compare: seeds differ, so exact metrics are compared like timings");
    }
    let mut ok = true;
    for name in WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(name), b.workloads.get(name)) else {
            continue;
        };
        println!(
            "\n== {name}: runs_failed/runs_attempted A {}/{} B {}/{}",
            wa.failed, wa.attempted, wb.failed, wb.attempted
        );
        if wb.failed > wa.failed {
            println!("   new failed runs in B");
            ok = false;
        }
        println!(
            "{:<20} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
            "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "bound"
        );
        for m in END_TO_END {
            let (Some(xa), Some(xb)) = (wa.samples.get(m.def.name), wb.samples.get(m.def.name))
            else {
                continue;
            };
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let exact = same_inputs && is_exact(m.def.name);
            let v = judge(xa, xb, m.def.better, m.bound, exact);
            let (qa, qb) = (quartiles_or_point(xa), quartiles_or_point(xb));
            println!(
                "{:<20} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>+7.2}% {:>5.0}%  {}",
                m.def.name,
                qa[0],
                qa[1],
                qa[2],
                qb[0],
                qb[1],
                qb[2],
                (qb[1] - qa[1]) / qa[1].abs() * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
            ok &= !matches!(v, Verdict::Worse | Verdict::Differs);
        }
        if same_inputs {
            if wa.digests.first() != wb.digests.first() {
                println!("   result digests differ between A and B");
                ok = false;
            }
            for d in PER_LAYER.iter().filter(|d| d.exact) {
                if let (Some(x), Some(y)) = (wa.per_layer.get(d.name), wb.per_layer.get(d.name)) {
                    if x != y {
                        println!("   exact per-layer metric {} differs: {x} vs {y}", d.name);
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "\ncompare: {}",
        if ok {
            "no metric worse, exact metrics equal"
        } else {
            "REGRESSION"
        }
    );
    ok
}

pub fn write_results(res: &Results, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, res.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn read_results(path: &Path) -> Result<Results, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Results::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&a, &a, Better::Lower, 0.10, false), Verdict::Same);
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &slow, Better::Lower, 0.10, false), Verdict::Worse);
        assert_eq!(
            judge(&a, &slow, Better::Higher, 0.10, false),
            Verdict::Better
        );
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&a, &fast, Better::Lower, 0.10, false),
            Verdict::Better
        );
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.7];
        assert_eq!(
            judge(&a, &noisy, Better::Lower, 0.10, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[5.0, 5.0], &[5.0], Better::Lower, 0.0, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&[5.0, 5.0], &[6.0], Better::Lower, 0.0, true),
            Verdict::Differs
        );
    }

    #[test]
    fn results_round_trip() {
        let mut w = WorkloadResults {
            attempted: 9,
            failed: 1,
            ..WorkloadResults::default()
        };
        w.digests = vec!["ab".into(), "ab".into()];
        w.samples.insert("wall_s".into(), vec![1.5, 1.25]);
        w.per_layer.insert("sim.engine.events".into(), 42.0);
        let r = Results {
            host_cores: 2,
            git_rev: "deadbeef".into(),
            seed: 3,
            rounds: 2,
            run_seconds: 10.0,
            workloads: [("pr_1n".to_string(), w)].into_iter().collect(),
        };
        let back = Results::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.seed, 3);
        let w = &back.workloads["pr_1n"];
        assert_eq!((w.attempted, w.failed), (9, 1));
        assert_eq!(w.samples["wall_s"], vec![1.5, 1.25]);
        assert_eq!(w.per_layer["sim.engine.events"], 42.0);
        assert_eq!(w.digests.len(), 2);
    }
}
