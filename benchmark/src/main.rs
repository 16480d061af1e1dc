//! `udbench` — see `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one sample (what BENCHMARK.json's command runs)
//! run.sh [--seed S] [--rounds K] [--seconds S] [--trace] [--out F]   all workloads, K rounds
//! run.sh compare A.json B.json                           judge B against A
//! run.sh --self-check [--seed S] [--rounds K]            two full sets of this build must agree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use udbench::report::{self, RunOpts};
use udbench::sample::{self, SampleOpts, RUN_SECONDS};

const ROUNDS: u64 = 5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1\n\
         \x20      run.sh [--seed S] [--rounds K] [--seconds S] [--trace] [--out FILE]\n\
         \x20      run.sh compare A.json B.json\n\
         \x20      run.sh --self-check [--seed S] [--rounds K] [--seconds S]\n\
         workloads: {}",
        udbench::workloads::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// Where traces and result files go: `benchmark/out`, which `run.sh`
/// passes in; a bare `cargo run` falls back to the current directory.
fn out_dir() -> PathBuf {
    std::env::var_os("UDBENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    rounds: u64,
    seconds: f64,
    /// `--trace` alone (runner) or `--trace 1` (sample).
    trace: bool,
    self_check: bool,
    tiny: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: 0,
        rounds: ROUNDS,
        seconds: RUN_SECONDS,
        trace: false,
        self_check: false,
        tiny: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(it.next()?.clone()),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--rounds" => a.rounds = it.next()?.parse().ok().filter(|&k| k >= 1)?,
            "--seconds" => {
                a.seconds = it
                    .next()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)?
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--self-check" => a.self_check = true,
            "--tiny" => a.tiny = true,
            "--out" => a.out = Some(PathBuf::from(it.next()?)),
            s if s.starts_with("--") => return None,
            _ => a.positional.push(arg.clone()),
        }
    }
    Some(a)
}

fn one_sample(a: &Args, workload: &str) -> Result<ExitCode, String> {
    let s = sample::run(&SampleOpts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        tiny: a.tiny,
        corrupt_oracle: false,
    })?;
    println!(
        "udbench: {} seed {} {} sample, {} reps in the timed region, host_cores {}",
        s.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        s.reps,
        udbench::host::host_cores()
    );
    let clock = |name: &str| {
        if udbench::metrics::is_exact(name) {
            "sim"
        } else {
            "host"
        }
    };
    for &(name, value, unit) in &s.metrics {
        println!("metric {name} {value} {unit} {}", clock(name));
    }
    for &(name, value) in &s.raw {
        println!("raw {name} {value}");
    }
    if let Some(doc) = &s.chrome_trace {
        let dir = out_dir();
        let path = dir.join(format!("trace-{}.json", s.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace {}", path.display());
        let total: f64 = s.self_seconds.values().sum();
        let mut own: Vec<_> = s.self_seconds.iter().collect();
        own.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, secs) in own {
            println!("self_time {name} {secs:.6} s {:.2}%", secs / total * 100.0);
        }
    }
    println!("digest {:016x}", s.digest);
    println!("runs_failed/runs_attempted {}/{}", s.failed, s.attempted);
    println!("{}", s.result_line());
    Ok(ExitCode::SUCCESS)
}

fn run(a: &Args) -> Result<ExitCode, String> {
    if let Some(workload) = &a.workload {
        return one_sample(a, workload);
    }
    if a.positional.first().map(String::as_str) == Some("compare") {
        let [_, pa, pb] = a.positional.as_slice() else {
            return Ok(usage());
        };
        let (ra, rb) = (
            report::read_results(pa.as_ref())?,
            report::read_results(pb.as_ref())?,
        );
        return Ok(if report::compare(&ra, &rb) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if !a.positional.is_empty() {
        return Ok(usage());
    }
    let opts = RunOpts {
        seed: a.seed,
        rounds: a.rounds,
        seconds: a.seconds,
        trace: a.trace,
        out_dir: out_dir(),
    };
    if a.self_check {
        let first = report::run_all(&opts)?;
        report::write_results(&first, &opts.out_dir.join("selfcheck-a.json"))?;
        let second = report::run_all(&opts)?;
        report::write_results(&second, &opts.out_dir.join("selfcheck-b.json"))?;
        let agree = report::compare(&first, &second);
        let clean = first.failed() == 0 && second.failed() == 0;
        println!(
            "self-check: {}",
            if agree && clean { "ok" } else { "FAILED" }
        );
        return Ok(if agree && clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let res = report::run_all(&opts)?;
    res.print();
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("results.json"));
    report::write_results(&res, &path)?;
    println!("\nresults -> {}", path.display());
    if res.failed() > 0 {
        eprintln!("udbench: {} run(s) failed verification", res.failed());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(a) = parse(&args) else {
        return usage();
    };
    match run(&a) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("udbench: {e}");
            ExitCode::FAILURE
        }
    }
}
