//! The benchmark checking itself at `--tiny` scale: `BENCHMARK.json` and
//! the metric tables agree, every named metric is printed exactly once
//! per workload, exact metrics repeat bit for bit, and a failing oracle is
//! counted. Run with `cargo test --release` to reuse the release build.

use std::collections::BTreeMap;
use std::process::Command;
use udbench::metrics::{is_exact, END_TO_END, PER_LAYER};
use udbench::sample::{self, SampleOpts, RUN_SECONDS};
use udbench::workloads::WORKLOADS;
use updown_sim::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(|x| x.as_str())
        .unwrap_or_else(|| panic!("string '{key}'"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_tables_and_the_contract() {
    let doc = benchmark_json();
    let JsonValue::Obj(top) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let command: Vec<&str> = doc
        .get("command")
        .and_then(|c| c.as_arr())
        .unwrap()
        .iter()
        .filter_map(|s| s.as_str())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(|c| c.as_arr())
        .unwrap()
        .iter()
        .filter_map(|s| s.as_str())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    assert_eq!(
        doc.get("run_seconds").and_then(|s| s.as_f64()),
        Some(RUN_SECONDS)
    );

    let workloads = doc.get("workloads").and_then(|w| w.as_arr()).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    assert!(names.len() <= 5);
    for w in workloads {
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {}",
            str_of(w, "name")
        );
    }

    let e2e = doc.get("end_to_end").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    assert!(e2e.len() <= 7);
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(str_of(j, "name"), m.def.name);
        assert_eq!(str_of(j, "unit"), m.def.unit);
        assert_eq!(str_of(j, "better"), m.def.better.as_str());
        assert_eq!(
            j.get("bound").and_then(|b| b.as_f64()),
            Some(m.bound),
            "{}",
            m.def.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.def.name, setup.def.unit, setup.def.better.as_str()),
        ("setup_s", "s", "lower")
    );
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = doc.get("per_layer").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() < 128);
    for (j, d) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_of(j, "name"), d.name);
        assert_eq!(str_of(j, "unit"), d.unit);
        assert_eq!(str_of(j, "better"), d.better.as_str());
    }

    let mut seen = std::collections::BTreeSet::new();
    for name in names
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.def.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
    {
        assert!(valid_name(name), "name '{name}'");
        assert!(seen.insert(name), "name '{name}' used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.def.unit)
        .chain(PER_LAYER.iter().map(|d| d.unit))
    {
        assert!(valid_unit(unit), "unit '{unit}'");
    }
}

/// What one run of the program printed: `metric` lines by name (with how
/// often each appeared), the digest, and the parsed result line.
struct Printed {
    values: BTreeMap<String, f64>,
    times_printed: BTreeMap<String, usize>,
    digest: String,
    result: JsonValue,
}

fn run_program(workload: &str, trace: bool) -> Printed {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("udbench-out");
    let out = Command::new(env!("CARGO_BIN_EXE_udbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("UDBENCH_OUT", &out_dir)
        .output()
        .expect("start udbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut p = Printed {
        values: BTreeMap::new(),
        times_printed: BTreeMap::new(),
        digest: String::new(),
        result: JsonValue::parse(stdout.lines().last().expect("a result line"))
            .expect("result line parses"),
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["metric", name, value, _unit, _clock] => {
                p.values
                    .insert(name.to_string(), value.parse().expect("numeric metric"));
                *p.times_printed.entry(name.to_string()).or_default() += 1;
            }
            ["digest", d] => p.digest = d.to_string(),
            _ => {}
        }
    }
    if trace {
        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        let doc =
            JsonValue::parse(&std::fs::read_to_string(&trace_file).expect("trace file written"))
                .expect("trace file is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents");
        assert!(events.len() > 10, "{workload}: {} spans", events.len());
        // Parent links point at earlier spans that enclose the child.
        for e in events {
            let args = e.get("args").expect("args");
            assert_eq!(
                args.get("workload").and_then(|w| w.as_str()),
                Some(workload)
            );
            if let Some(parent) = args.get("parent").and_then(|p| p.as_u64()) {
                let parent = &events[parent as usize];
                let (ts, dur) = (
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("dur").unwrap().as_f64().unwrap(),
                );
                let (pts, pdur) = (
                    parent.get("ts").unwrap().as_f64().unwrap(),
                    parent.get("dur").unwrap().as_f64().unwrap(),
                );
                assert!(
                    pts <= ts && ts + dur <= pts + pdur + 1e-3,
                    "{workload}: child outside its parent"
                );
            }
        }
    }
    p
}

fn check_printed(workload: &str, trace: bool, names: &[&str]) {
    let (a, b) = (run_program(workload, trace), run_program(workload, trace));
    let metrics = a.result.get("metrics").expect("metrics");
    let JsonValue::Obj(keys) = &a.result else {
        panic!("result line is not an object")
    };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    let JsonValue::Obj(in_result) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        in_result.len(),
        names.len(),
        "{workload} trace {trace}: metrics in the result line"
    );
    assert_eq!(
        a.times_printed.len(),
        names.len(),
        "{workload} trace {trace}: metric lines"
    );
    for &name in names {
        assert_eq!(
            a.times_printed.get(name),
            Some(&1),
            "{workload}: '{name}' printed once"
        );
        let v = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64());
        assert_eq!(
            v,
            Some(a.values[name]),
            "{workload}: '{name}' in the result line"
        );
        if is_exact(name) {
            assert_eq!(
                a.values[name].to_bits(),
                b.values[name].to_bits(),
                "{workload}: exact '{name}' repeats"
            );
        }
    }
    assert_eq!(
        a.result.get("failed").and_then(|f| f.as_u64()),
        Some(0),
        "{workload}"
    );
    assert_eq!(
        a.result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert!(a.result.get("attempted").and_then(|f| f.as_u64()).unwrap() >= 1);
    assert!(
        !a.digest.is_empty() && a.digest == b.digest,
        "{workload}: digest repeats"
    );
    if !trace {
        for &name in names {
            assert!(
                a.values[name] > 0.0,
                "{workload}: end-to-end '{name}' is never 0"
            );
        }
    }
}

#[test]
fn every_metric_is_printed_once_and_exact_ones_repeat() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.def.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for workload in WORKLOADS {
        check_printed(workload, false, &e2e);
        check_printed(workload, true, &layers);
    }
}

#[test]
fn a_corrupted_oracle_is_counted_as_failed_runs() {
    for workload in WORKLOADS {
        let s = sample::run(&SampleOpts {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace: false,
            tiny: true,
            corrupt_oracle: true,
        })
        .expect("known workload");
        assert!(
            s.failed > 0 && s.failed <= s.attempted,
            "{workload}: {}/{}",
            s.failed,
            s.attempted
        );
        assert!(s.result_line().contains("\"correct\":false"), "{workload}");
    }
    assert!(sample::run(&SampleOpts {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: true,
        corrupt_oracle: false,
    })
    .is_err());
}
