//! Layer-ledger benchmark of the AIGS serving stack.
//!
//! One closed-loop client drives an engine — in process, or through a
//! loopback wire server — through one of four workloads, checks every
//! outcome, and reports end-to-end metrics (`--trace 0`) or per-layer
//! self times measured from outside the program (`--trace 1`). See
//! `README.md` in this directory for the metrics and what each should move.

pub mod alloc;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use aigs_service::telemetry::{HistSnapshot, Op, TelemetrySnapshot, TIERS};
use aigs_service::{EngineStats, SearchEngine};

use crate::stats::{deepest_supported, median, Hist};
use crate::trace::Shadow;
use crate::workload::{setup, Client, Inputs, Knobs, Rig, Window, Workload, QPS_SESSIONS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Round-robin passes over the population made during set-up, so
/// measurement starts from a population spread across search depths.
const ADVANCE_PASSES: usize = 3;
/// Sessions the traced run admits to measure heap bytes per live session
/// (at least; the population when larger).
const PROBE_SESSIONS: usize = 1024;
/// Untraced and traced blocks the traced run alternates.
const TRACE_BLOCKS: usize = 4;
/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 5;

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by `--trace 0`.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("sessions_per_s", "1/s", "higher", 0.25),
    e2e("step_p50_us", "us", "lower", 0.25),
    e2e("step_p90_us", "us", "lower", 0.25),
    e2e("open_p50_us", "us", "lower", 0.25),
    e2e("open_p90_us", "us", "lower", 0.25),
    e2e("queries_per_session", "count", "lower", 0.05),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

/// Per-layer metrics, reported by `--trace 1`. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 18] = [
    layer("wire.self_us", "us", "lower"),
    layer("engine.self_ns", "ns", "lower"),
    layer("engine.telemetry_ns", "ns", "lower"),
    layer("engine.idle_ns", "ns", "lower"),
    layer("engine.open_ns", "ns", "lower"),
    layer("engine.pool_hit_ratio", "ratio", "higher"),
    layer("engine.compiled_hit_ratio", "ratio", "higher"),
    layer("engine.bytes_per_live", "bytes", "lower"),
    layer("core.select_ns", "ns", "lower"),
    layer("core.observe_ns", "ns", "lower"),
    layer("core.cursor_ns", "ns", "lower"),
    layer("core.compile_ms", "ms", "lower"),
    layer("graph.reach_query_ns", "ns", "lower"),
    layer("graph.reach_build_ms", "ms", "lower"),
    layer("wal.append_ns", "ns", "lower"),
    layer("wal.bytes_per_op", "bytes", "lower"),
    layer("wal.fsyncs_per_s", "1/s", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// How long one run measures, in whole seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 28;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the traffic (targets, abandons, cancels).
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Directory for WAL files.
    pub work: PathBuf,
    /// Overrides the workload's live population (tests run tiny ones).
    pub population: Option<usize>,
    /// Flip one answer, which the correctness gate must reject.
    pub flip: bool,
    /// The benchmark executable, which a traced run re-invokes to measure
    /// each twin engine in a fresh process.
    pub exe: PathBuf,
    /// Set in such a child: the twin to measure.
    pub twin: Option<String>,
}

/// What one run works from: its settings, its inputs, and the CPUs its
/// windows rotate over (the affinity mask it started with).
struct Ctx<'a> {
    cfg: &'a Config,
    inputs: Arc<Inputs>,
    population: usize,
    cpus: Vec<usize>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (refusals included).
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host, placement, sample counts and checks, one line each.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `BENCHMARK.json` this benchmark is defined by.
pub fn manifest() -> String {
    let workloads: Vec<String> = workload::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metrics = |defs: &[MetricDef]| -> String {
        defs.iter()
            .map(|m| match m.bound {
                Some(b) => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                    m.name, m.unit, m.better
                ),
                None => format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                ),
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER)
    )
}

/// The population and its client, dropped before the rig they use.
struct Live {
    client: Client,
    rig: Rig,
    /// CPUs the measurement windows rotate over.
    cpus: Vec<usize>,
    next_cpu: usize,
}

impl Live {
    fn engine(&self) -> &SearchEngine {
        self.rig.engine.as_deref().expect("rig holds its engine")
    }

    /// Measures `n` windows of `each` seconds. Before each window every
    /// thread (the client's, and the wire server's or the WAL's) moves to
    /// the next CPU in turn, so slowdowns that one CPU suffers from outside
    /// the process (interrupts, a busy neighbour on a shared host) fall on
    /// a share of the windows instead of on whole runs.
    fn measure(&mut self, n: usize, each: f64) -> Result<Vec<Window>, String> {
        let mut wins = Vec::with_capacity(n);
        for _ in 0..n {
            let cpu = self.cpus[self.next_cpu % self.cpus.len()];
            self.next_cpu += 1;
            host::pin_process(cpu).map_err(|e| format!("pinning to cpu {cpu}: {e}"))?;
            wins.extend(self.client.measure(1, each));
        }
        Ok(wins)
    }
}

/// `(count, secs each)` of the measurement windows for `secs` seconds:
/// half-second windows, at least four.
fn windows(secs: f64) -> (usize, f64) {
    let n = ((secs * 2.0).round() as usize).max(4);
    (n, secs / n as f64)
}

/// Whole-run figures of a set of windows: rates over the total measured
/// time; each percentile (ns) the mean over the windows of that window's
/// percentile. The host switches between a fast and a slow state within
/// a second (windows of one `wire-compiled` run read ~18 or ~27 us), so
/// the percentile of every sample merged is a step function of the share
/// of slow windows and jumps between the two modes from run to run when
/// that share is near a half; the mean over windows moves in proportion
/// to the share, like the rates, and counts every window equally.
struct Summary {
    ops_per_s: f64,
    sessions_per_s: f64,
    step_p50: f64,
    step_p90: f64,
    open_p50: f64,
    open_p90: f64,
    step: Hist,
    open: Hist,
    secs: f64,
    ops: u64,
}

fn summarize(wins: &[Window]) -> Summary {
    let mut step = Hist::default();
    let mut open = Hist::default();
    for w in wins {
        step.merge(&w.step);
        open.merge(&w.open);
    }
    let secs: f64 = wins.iter().map(|w| w.secs).sum();
    let ops: u64 = wins.iter().map(|w| w.ops).sum();
    let sessions: u64 = wins.iter().map(|w| w.sessions).sum();
    let q = |pick: fn(&Window) -> &Hist, q| {
        let per: Vec<f64> = wins.iter().filter_map(|w| pick(w).quantile(q)).collect();
        per.iter().sum::<f64>() / per.len().max(1) as f64
    };
    Summary {
        ops_per_s: ops as f64 / secs,
        sessions_per_s: sessions as f64 / secs,
        step_p50: q(|w| &w.step, 0.5),
        step_p90: q(|w| &w.step, 0.9),
        open_p50: q(|w| &w.open, 0.5),
        open_p90: q(|w| &w.open, 0.9),
        step,
        open,
        secs,
        ops,
    }
}

/// The sample counts behind a latency and its deepest supported tail.
fn sample_note(name: &str, wins: &[Window], merged: &Hist, pick: fn(&Window) -> &Hist) -> String {
    let per_window = wins.iter().map(|w| pick(w).count()).min().unwrap_or(0);
    let tail = deepest_supported(merged.count()).map_or_else(
        || "no tail percentile supported".to_string(),
        |q| {
            format!(
                "p{} = {:.3} us",
                q * 100.0,
                merged.quantile(q).unwrap_or(0.0) / 1e3
            )
        },
    );
    let p50s: Vec<String> = wins
        .iter()
        .map(|w| format!("{:.3}", pick(w).quantile(0.5).unwrap_or(0.0) / 1e3))
        .collect();
    format!(
        "samples {name}: {} total, >= {per_window} per window x {} windows (window p50s [{}] \
         us); p99 = {:.3} us; deepest supported {tail}",
        merged.count(),
        wins.len(),
        p50s.join(" "),
        merged.quantile(0.99).unwrap_or(0.0) / 1e3,
    )
}

/// Correctness bookkeeping summed over every client of a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    wrong_targets: u64,
    replayed: usize,
    replay_mismatches: u64,
    shadow_mismatches: u64,
    twin_failures: u64,
    errors: Vec<String>,
}

impl Checks {
    fn absorb(&mut self, client: &mut Client, replay: bool) {
        let t = &client.tally;
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.wrong_targets += t.wrong_targets;
        self.errors.extend(t.errors.iter().cloned());
        if replay {
            let (n, bad) = client.replay_samples();
            self.replayed += n;
            self.replay_mismatches += bad;
        }
    }

    fn correct(&self) -> bool {
        self.wrong_targets == 0
            && self.replay_mismatches == 0
            && self.shadow_mismatches == 0
            && self.twin_failures == 0
    }

    fn note(&self) -> String {
        format!(
            "checks: {} ops attempted, {} failed {:?}; {} wrong targets; {} transcripts replayed \
             inline, {} mismatched; {} shadow-step mismatches; {} twin processes incorrect",
            self.attempted,
            self.failed,
            self.errors,
            self.wrong_targets,
            self.replayed,
            self.replay_mismatches,
            self.shadow_mismatches,
            self.twin_failures
        )
    }
}

/// Runs one workload as `cfg` says.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let h = host::Host::probe();
    let cpus = host::allowed_cpus();
    let cpu = *cpus.first().ok_or("no CPU in the affinity mask")?;
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    // `peak_rss_mib` is this workload's own peak, also when another ran
    // earlier in the process (`--workload all`).
    host::reset_peak_rss().map_err(|e| format!("resetting the peak resident set: {e}"))?;
    let mut notes = vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            w.name,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!(
            "host: nproc {}, cpu {:?}, kernel {}, {}",
            h.nproc, h.cpu, h.kernel, h.rustc
        ),
        format!(
            "placement: allowed cpus {cpus:?}; set-up pinned to cpu {cpu}, then each measured \
             window pinned to the next of {cpus:?} in turn, all threads on one cpu; engine shards \
             {}; wal dir filesystem {}",
            workload::SHARDS,
            if w.wal {
                host::fs_type(&cfg.work)
            } else {
                "n/a (WAL off)".into()
            }
        ),
    ];
    let ctx = Ctx {
        cfg,
        inputs: Arc::new(Inputs::generate(&w, cfg.seed)),
        population: cfg.population.unwrap_or(w.population),
        cpus,
    };
    let mut checks = Checks::default();
    let metrics = if cfg.trace {
        traced(&ctx, &mut checks, &mut notes)
    } else {
        untraced(&ctx, &mut checks, &mut notes)
    };
    // The next workload in the process starts from the mask this one did.
    host::unpin_process(&ctx.cpus).map_err(|e| format!("unpinning: {e}"))?;
    let metrics = metrics?;
    notes.push(checks.note());
    Ok(Outcome {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        notes,
    })
}

/// Builds a rig on the first CPU — every set-up runs where the first did,
/// whichever CPU the previous measurement window ended on.
fn build(ctx: &Ctx, knobs: Knobs) -> Result<(Live, f64), String> {
    let cfg = ctx.cfg;
    let cpu = ctx.cpus[0];
    host::pin_process(cpu).map_err(|e| format!("pinning to cpu {cpu}: {e}"))?;
    let b = setup(
        &cfg.workload,
        knobs,
        &ctx.inputs,
        ctx.population,
        ADVANCE_PASSES,
        &cfg.work,
    )?;
    Ok((
        Live {
            client: b.client,
            rig: b.rig,
            cpus: ctx.cpus.clone(),
            next_cpu: 0,
        },
        b.secs,
    ))
}

fn warm_secs(secs: f64) -> f64 {
    (secs * 0.1).clamp(0.05, 1.0)
}

fn untraced(
    ctx: &Ctx,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cfg = ctx.cfg;
    // The measured engine is the process's first, so its heap layout
    // does not depend on how many set-ups ran before it; the remaining
    // set-ups are timed afterwards.
    let (mut live, first) = build(ctx, cfg.workload.knobs())?;
    let mut setup_secs = vec![first];
    if cfg.flip {
        live.client.flip_next_answer();
    }
    live.measure(1, warm_secs(cfg.seconds))?;
    let (n, each) = windows(cfg.seconds);
    let wins = live.measure(n, each)?;
    let s = summarize(&wins);
    live.client.drain_first();
    let tally = &live.client.tally;
    let queries = tally.first_queries as f64 / tally.first_sessions.max(1) as f64;
    let st = live.engine().stats();
    let qps_note = format!(
        "engine: opened {}, finished {}, cancelled {}, evicted {}, pool hits {}, compiled hits \
         {}, WAL records {}; queries_per_session over the {} finished sessions among the first \
         {QPS_SESSIONS} opened ({} of which have ended)",
        st.opened,
        st.finished,
        st.cancelled,
        st.evicted,
        st.pool_hits,
        st.compiled_hits,
        st.wal_records,
        tally.first_sessions,
        tally.first_ended
    );
    checks.absorb(&mut live.client, true);
    drop(live);
    for _ in 1..SETUPS {
        let (mut again, secs) = build(ctx, cfg.workload.knobs())?;
        setup_secs.push(secs);
        checks.absorb(&mut again.client, false);
    }
    notes.push(sample_note("step", &wins, &s.step, |w| &w.step));
    notes.push(sample_note("open", &wins, &s.open, |w| &w.open));
    notes.push(format!(
        "{qps_note}; setup_s is the median of {} set-ups {setup_secs:?}; {} ops in {:.3} s measured",
        setup_secs.len(),
        s.ops,
        s.secs
    ));
    let peak = host::peak_rss_kib().unwrap_or(0.0) / 1024.0;
    Ok(vec![
        ("ops_per_s", s.ops_per_s, "1/s"),
        ("sessions_per_s", s.sessions_per_s, "1/s"),
        ("step_p50_us", s.step_p50 / 1e3, "us"),
        ("step_p90_us", s.step_p90 / 1e3, "us"),
        ("open_p50_us", s.open_p50 / 1e3, "us"),
        ("open_p90_us", s.open_p90 / 1e3, "us"),
        ("queries_per_session", queries, "count"),
        ("setup_s", median(&setup_secs).unwrap_or(0.0), "s"),
        ("peak_rss_mib", peak, "MiB"),
    ])
}

/// The twin engines of a workload: one layer switched per twin.
fn twins(w: &Workload) -> Vec<(&'static str, Knobs)> {
    let base = w.knobs();
    let mut out = Vec::new();
    if w.wire {
        out.push((
            "local",
            Knobs {
                wire: false,
                ..base
            },
        ));
        out.push((
            "local-notel",
            Knobs {
                wire: false,
                telemetry: false,
                ..base
            },
        ));
    } else {
        out.push((
            "notel",
            Knobs {
                telemetry: false,
                ..base
            },
        ));
    }
    if w.idle_eviction {
        out.push((
            "noidle",
            Knobs {
                idle: false,
                ..base
            },
        ));
    }
    if w.wal {
        out.push(("nowal", Knobs { wal: false, ..base }));
    }
    out
}

/// A twin's pass, run in a child process (`--twin <label>`) so its heap
/// starts as fresh as the measured engine's.
fn twin_pass(
    ctx: &Ctx,
    label: &str,
    checks: &mut Checks,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cfg = ctx.cfg;
    let (_, knobs) = twins(&cfg.workload)
        .into_iter()
        .find(|(l, _)| *l == label)
        .ok_or(format!("{} has no twin {label:?}", cfg.workload.name))?;
    let (mut live, _) = build(ctx, knobs)?;
    live.measure(1, warm_secs(cfg.seconds))?;
    let (n, each) = windows(cfg.seconds);
    let s = summarize(&live.measure(n, each)?);
    checks.absorb(&mut live.client, false);
    Ok(vec![
        ("twin.step_p50_ns", s.step_p50, "ns"),
        ("twin.step_mean_ns", s.step.mean().unwrap_or(0.0), "ns"),
        ("twin.open_p50_ns", s.open_p50, "ns"),
        ("twin.steps", s.step.count() as f64, "count"),
    ])
}

/// The value of `"key": <number>` in a result line.
fn json_number(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Runs twin `label` in a child process and returns its `twin.*` metrics.
fn spawn_twin(
    cfg: &Config,
    label: &str,
    secs: f64,
    checks: &mut Checks,
) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new(&cfg.exe);
    cmd.args([
        "--workload",
        cfg.workload.name,
        "--seed",
        &cfg.seed.to_string(),
    ])
    .args([
        "--seconds",
        &secs.to_string(),
        "--trace",
        "1",
        "--twin",
        label,
    ])
    .arg("--work")
    .arg(&cfg.work);
    if let Some(p) = cfg.population {
        cmd.args(["--population", &p.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("twin {label}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "twin {label} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    checks.attempted += json_number(last, "attempted").unwrap_or(0);
    checks.failed += json_number(last, "failed").unwrap_or(0);
    if !last.starts_with("{\"correct\": true") {
        checks.twin_failures += 1;
    }
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix("metric ")?.split(' ');
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every sample of `op` the engine timed itself, over all tiers.
fn served(tel: &TelemetrySnapshot, op: Op) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for tier in TIERS {
        h.merge(tel.op_tier(op, tier));
    }
    h
}

/// Heap bytes per admitted session: net allocations, on every thread,
/// while a fresh rig with the workload's configuration admits `n`
/// sessions.
fn bytes_per_live(ctx: &Ctx, n: usize) -> Result<f64, String> {
    let w = ctx.cfg.workload;
    let b = setup(&w, w.knobs(), &ctx.inputs, n, 0, &ctx.cfg.work)?;
    Ok(b.admitted_bytes as f64 / n as f64)
}

fn traced(
    ctx: &Ctx,
    checks: &mut Checks,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (cfg, inputs) = (ctx.cfg, &ctx.inputs);
    let w = cfg.workload;
    if let Some(label) = &cfg.twin {
        return twin_pass(ctx, label, checks);
    }
    let timer_ns = trace::timer_cost_ns();
    let twin_list = twins(&w);
    let main_secs = cfg.seconds * 0.6;
    // Capped: without eviction the `noidle` twin accumulates abandoned
    // sessions and would reach the admission limit in a long run.
    let twin_secs = (cfg.seconds * 0.4 / twin_list.len() as f64).min(5.0);

    // Untraced and traced blocks alternate on one engine, so drift over
    // the run falls on both sides alike.
    let (mut live, _) = build(ctx, w.knobs())?;
    live.measure(1, warm_secs(main_secs))?;
    let (n, each) = windows(main_secs / 2.0);
    let blocks = TRACE_BLOCKS.min(n);
    let mut shadow = Shadow::new(inputs.clone(), w.kind, w.compiled, ctx.population, timer_ns);
    let (mut plain_wins, mut traced_wins) = (Vec::new(), Vec::new());
    let stats0: EngineStats = live.engine().stats();
    let tel0 = live.engine().telemetry();
    // The engine's own timers over the untraced blocks.
    let (mut answer, mut next) = (HistSnapshot::default(), HistSnapshot::default());
    let mut compactions = 0;
    for b in 0..blocks {
        let per = n / blocks + usize::from(b < n % blocks);
        let before = live.engine().telemetry();
        plain_wins.extend(live.measure(per, each)?);
        let during = live.engine().telemetry().minus(&before);
        answer.merge(&served(&during, Op::Answer));
        next.merge(&served(&during, Op::Next));
        compactions += during.wal.compactions;
        live.client.attach_shadow(shadow);
        traced_wins.extend(live.measure(per, each)?);
        shadow = live.client.detach_shadow().expect("shadow attached above");
    }
    let stats1 = live.engine().stats();
    let tel = live.engine().telemetry().minus(&tel0);
    checks.shadow_mismatches += shadow.mismatches;
    checks.absorb(&mut live.client, true);
    drop(live);
    let plain = summarize(&plain_wins);
    let traced_sum = summarize(&traced_wins);
    let all_secs = plain.secs + traced_sum.secs;
    let all_ops = (plain.ops + traced_sum.ops).max(1);

    // Twin processes inherit the affinity mask: give them the whole one.
    host::unpin_process(&ctx.cpus).map_err(|e| format!("unpinning: {e}"))?;
    let mut twin = BTreeMap::new();
    for (label, _) in &twin_list {
        let m = spawn_twin(cfg, label, twin_secs, checks)?;
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        notes.push(format!(
            "twin {label}: step p50 {:.1} ns over {} steps, open p50 {:.1} ns (fresh process)",
            get("twin.step_p50_ns"),
            get("twin.steps"),
            get("twin.open_p50_ns")
        ));
        twin.insert(
            *label,
            (
                get("twin.step_p50_ns"),
                get("twin.step_mean_ns"),
                get("twin.open_p50_ns"),
            ),
        );
    }
    let twin = |label: &str| twin.get(label).copied().unwrap_or((0.0, 0.0, 0.0));

    let p50 = |h: &Hist| h.quantile(0.5).unwrap_or(0.0);
    let mean = |h: &Hist| h.mean().unwrap_or(0.0);
    let (select, observe, cursor) = (
        p50(&shadow.select),
        p50(&shadow.observe),
        p50(&shadow.cursor),
    );
    // The layers of one step, each measured on its own: the core spans
    // by the benchmark's replicas, the engine op by the engine's own
    // timers (`answer` + `next_question`, untraced blocks), the step as
    // the client saw it by the client. The engine's histograms are log2,
    // exact only in their sums, so the ledger works in means.
    let core = mean(&shadow.select) + mean(&shadow.observe) + mean(&shadow.cursor);
    let engine_step = answer.mean() + next.mean();
    let engine_self = engine_step - core;
    let client_step = mean(&plain.step);
    let (local_step, local_mean, local_open) = twin("local");
    let (wire_self_us, base, open_ns) = if w.wire {
        ((client_step - engine_step) / 1e3, local_step, local_open)
    } else {
        (0.0, plain.step_p50, plain.open_p50)
    };
    let telemetry_ns = base - twin(if w.wire { "local-notel" } else { "notel" }).0;
    let idle_ns = if w.idle_eviction {
        plain.step_p50 - twin("noidle").0
    } else {
        0.0
    };
    let wal_ns = if w.wal {
        plain.step_p50 - twin("nowal").0
    } else {
        0.0
    };
    let core_note = format!(
        "core spans {core:.1} (select {:.1} + observe {:.1} + cursor {:.1}) + engine self \
         {engine_self:.1} = engine-timed op {engine_step:.1}",
        mean(&shadow.select),
        mean(&shadow.observe),
        mean(&shadow.cursor),
    );
    notes.push(if w.wire {
        format!(
            "ledger: mean ns per step: wire self {:.1} + [{core_note}] = the round trip \
             {client_step:.1} by definition of wire self (what the engine's timers leave of it)",
            wire_self_us * 1e3
        )
    } else {
        format!(
            "ledger: mean ns per step: {core_note} against the client-timed untraced step \
             {client_step:.1}: ratio {:.3} (untraced step p50 {:.1})",
            engine_step / client_step,
            plain.step_p50
        )
    });
    // What the parts leave unexplained, with the candidates named.
    notes.push(if w.wire {
        format!(
            "ledger remainder: the engine-timed op served over the wire, {engine_step:.1} ns, \
             against the in-process twin's client-timed step {local_mean:.1} ns: ratio {:.3}",
            engine_step / local_mean
        )
    } else {
        format!(
            "ledger remainder: {:.1} ns per step ({:.1}%) lies outside the engine's own op \
             timers: the call, the timers' own recording, and inline WAL auto-compaction \
             ({compactions} during the untraced blocks); twin differences for reference \
             (step p50s): telemetry {telemetry_ns:.1}, idle {idle_ns:.1}, wal {wal_ns:.1}",
            client_step - engine_step,
            (client_step - engine_step) / client_step * 100.0
        )
    });
    notes.push(format!(
        "trace: {} traced steps ({} shadowed) in {blocks} blocks alternating with untraced ones; \
         timer cost {timer_ns} ns subtracted from core spans; traced step p50 {:.1} ns against \
         untraced {:.1} ns",
        traced_sum.step.count(),
        shadow.steps,
        traced_sum.step_p50,
        plain.step_p50
    ));
    Ok(vec![
        ("wire.self_us", wire_self_us, "us"),
        ("engine.self_ns", engine_self, "ns"),
        ("engine.telemetry_ns", telemetry_ns, "ns"),
        ("engine.idle_ns", idle_ns, "ns"),
        ("engine.open_ns", open_ns, "ns"),
        (
            "engine.pool_hit_ratio",
            ratio(
                stats1.pool_hits - stats0.pool_hits,
                stats1.opened - stats0.opened,
            ),
            "ratio",
        ),
        (
            "engine.compiled_hit_ratio",
            ratio(
                stats1.compiled_hits - stats0.compiled_hits,
                stats1.steps - stats0.steps,
            ),
            "ratio",
        ),
        (
            "engine.bytes_per_live",
            bytes_per_live(ctx, ctx.population.max(PROBE_SESSIONS))?,
            "bytes",
        ),
        ("core.select_ns", select, "ns"),
        ("core.observe_ns", observe, "ns"),
        ("core.cursor_ns", cursor, "ns"),
        (
            "core.compile_ms",
            if w.compiled {
                trace::compile_ms(inputs, w.kind)
            } else {
                0.0
            },
            "ms",
        ),
        (
            "graph.reach_query_ns",
            shadow.reach_query_ns().unwrap_or(0.0),
            "ns",
        ),
        ("graph.reach_build_ms", trace::reach_build_ms(inputs), "ms"),
        ("wal.append_ns", wal_ns, "ns"),
        (
            "wal.bytes_per_op",
            tel.wal.append_bytes as f64 / all_ops as f64,
            "bytes",
        ),
        (
            "wal.fsyncs_per_s",
            tel.wal.fsync_ns.count() as f64 / all_secs,
            "1/s",
        ),
        (
            "trace.overhead_pct",
            (traced_sum.step_p50 / plain.step_p50 - 1.0) * 100.0,
            "%",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_weight_every_window_alike() {
        // One fast window with many samples and one slow window with few:
        // the merged p50 would sit in the fast mode, the run's p50 lies
        // halfway between the two windows' p50s.
        let window = |ns: u64, n: usize| {
            let mut w = Window {
                secs: 0.5,
                ops: n as u64,
                ..Window::default()
            };
            for _ in 0..n {
                w.step.record(ns);
            }
            w
        };
        let s = summarize(&[window(1000, 300), window(3000, 100)]);
        assert!((s.step_p50 / 2000.0 - 1.0).abs() < 0.02, "{}", s.step_p50);
        assert!((s.ops_per_s - 400.0).abs() < 1e-9);
        assert_eq!(s.step.count(), 400);
        assert_eq!(s.open_p50, 0.0);
    }
}
