//! Command line of the layer-ledger benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <runs> [--workload <name|all>] [--seconds <s>]
//! perfbench --emit-manifest
//! ```
//!
//! A run prints its notes (host, placement, sample counts, checks) as
//! `# ` lines, one `metric <name> <value> <unit>` line per metric, and as
//! its last line the JSON result. `--steady` repeats each workload in
//! fresh processes with seeds 1..=runs and prints each end-to-end
//! metric's median and quartile spread, flagging spreads above a tenth.
//! `--population <n>` overrides a workload's live population (for quick
//! looks; results are not comparable across populations).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::stats::{median, quartiles, spread};
use perfbench::workload::{workload, Workload, WORKLOADS};
use perfbench::{manifest, run, Config, END_TO_END, RUN_SECONDS};

/// The spread above which `--steady` flags an end-to-end metric.
const STEADY_LIMIT: f64 = 0.1;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    manifest: bool,
    work: PathBuf,
    twin: Option<String>,
    population: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        steady: None,
        manifest: false,
        work: PathBuf::from(".bench_work"),
        twin: None,
        population: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-manifest" {
            args.manifest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![workload(&value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            "--steady" => {
                args.steady = Some(
                    value
                        .parse()
                        .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?,
                )
            }
            "--work" => args.work = PathBuf::from(value),
            // Internal: a traced run measures each twin engine in a child.
            "--twin" => args.twin = Some(value),
            "--population" => {
                args.population = Some(
                    value
                        .parse()
                        .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() && !args.manifest {
        if args.steady.is_none() {
            return Err("--workload is required".into());
        }
        args.workloads = WORKLOADS.to_vec();
    }
    Ok(args)
}

fn run_one(args: &Args, w: Workload) -> bool {
    let cfg = Config {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: args.work.clone(),
        population: args.population,
        flip: false,
        exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perfbench")),
        twin: args.twin.clone(),
    };
    match run(&cfg) {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            for (name, value, unit) in &out.metrics {
                println!("metric {name} {value} {unit}");
            }
            println!("{}", out.json());
            true
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            false
        }
    }
}

/// Repeats each workload in fresh processes and reports spreads.
fn steady(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in &args.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .arg("--work")
                .arg(&args.work)
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success()
                || !text
                    .lines()
                    .last()
                    .is_some_and(|l| l.contains("\"correct\": true"))
            {
                return Err(format!(
                    "{} seed {seed} failed: {}",
                    w.name,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            for line in text.lines().filter_map(|l| l.strip_prefix("metric ")) {
                let mut parts = line.split(' ');
                if let (Some(name), Some(Ok(v))) = (parts.next(), parts.next().map(str::parse)) {
                    values.entry(name.to_string()).or_default().push(v);
                }
            }
        }
        println!("steady {} over {runs} runs (seeds 1..={runs}):", w.name);
        for def in END_TO_END {
            let v = values.get(def.name).map_or(&[][..], Vec::as_slice);
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            let s = spread(v).unwrap_or(f64::NAN);
            let flag = if s.is_nan() || s > STEADY_LIMIT {
                "  <-- does not repeat within a tenth"
            } else {
                ""
            };
            println!(
                "  {:<20} median {:>14.4} q1 {:>14.4} q3 {:>14.4} spread {:>7.4} (bound {}){flag}",
                def.name,
                median(v).unwrap_or(f64::NAN),
                q1,
                q3,
                s,
                def.bound.unwrap_or(0.0)
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = args.steady {
        return match steady(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut ok = true;
    for w in args.workloads.clone() {
        ok &= run_one(&args, w);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
