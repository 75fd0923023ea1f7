//! Mixed-traffic load generator for the sharded engine's wire protocol.
//!
//! Boots a [`WireServer`] on a loopback port, then drives it from several
//! client threads with the traffic mix a crowd deployment sees: session
//! opens, truthful answers, abandons (sessions dropped without a cancel,
//! left to idle-evict), explicit cancels, and reconnects (a client drops
//! its socket mid-session and a fresh connection continues the same id).
//! Every operation's wall-clock latency is recorded; the run ends with
//! per-op percentiles and the engine's aggregate counters.
//!
//! Correctness is checked on the way through, not assumed: each thread
//! records the full transcript of a sample of its sessions and verifies
//! them bit-identically against the inline [`run_session`] loop on the
//! same plan artifacts — the wire front-end must never change what a
//! session asks or charges.
//!
//! ```text
//! cargo run --release --example loadgen [sessions-per-thread] [threads]
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use aigs::core::{run_session, NodeWeights, SearchContext, TargetOracle, TranscriptOracle};
use aigs::core::{SearchOutcome, SessionStep};
use aigs::data::{amazon_like, sample_targets, Scale};
use aigs::graph::{Dag, NodeId};
use aigs::service::wire::{WireClient, WireError, WireFault, WireServer};
use aigs::service::{EngineConfig, PlanId, PlanSpec, PolicyKind, SearchEngine};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Latency samples for one operation type, in nanoseconds.
#[derive(Default)]
struct Lat(Vec<u64>);

impl Lat {
    fn record(&mut self, start: Instant) {
        self.0.push(start.elapsed().as_nanos() as u64);
    }
    fn percentile(&self, sorted: &[u64], p: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx] as f64 / 1_000.0 // µs
    }
    fn report(&self, name: &str) {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        println!(
            "  {name:<14} {:>9}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}",
            sorted.len(),
            self.percentile(&sorted, 0.50),
            self.percentile(&sorted, 0.90),
            self.percentile(&sorted, 0.99),
            self.percentile(&sorted, 1.0),
        );
    }
}

#[derive(Default)]
struct Thread {
    lat: HashMap<&'static str, Lat>,
    verified: usize,
    abandoned: usize,
    reconnects: usize,
}

/// One recorded session: what the wire asked and returned.
struct Sample {
    kind: PolicyKind,
    target: NodeId,
    transcript: Vec<(NodeId, bool)>,
    outcome: SearchOutcome,
}

fn drive(
    client: &mut WireClient,
    id: aigs::service::SessionId,
    dag: &Dag,
    target: NodeId,
    lat: &mut HashMap<&'static str, Lat>,
) -> Result<(Vec<(NodeId, bool)>, SearchOutcome), WireError> {
    let mut transcript = Vec::new();
    loop {
        let t = Instant::now();
        let step = client.next_question(id)?;
        lat.entry("next_question").or_default().record(t);
        match step {
            SessionStep::Resolved(_) => {
                let t = Instant::now();
                let out = client.finish(id)?;
                lat.entry("finish").or_default().record(t);
                return Ok((transcript, out));
            }
            SessionStep::Ask(q) => {
                let yes = dag.reaches(q, target);
                transcript.push((q, yes));
                let t = Instant::now();
                client.answer(id, yes)?;
                lat.entry("answer").or_default().record(t);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    addr: std::net::SocketAddr,
    plan: PlanId,
    dag: Arc<Dag>,
    weights: Arc<NodeWeights>,
    sessions: usize,
    thread_seed: u64,
) -> Thread {
    let mut rng = ChaCha8Rng::seed_from_u64(thread_seed);
    let mut out = Thread::default();
    let mut client = WireClient::connect(addr).expect("connect");
    let targets = sample_targets(&weights, sessions, &mut rng);
    let kinds = [
        PolicyKind::TopDown,
        PolicyKind::GreedyDag,
        PolicyKind::Wigs,
        PolicyKind::CostSensitive,
    ];

    for (i, &target) in targets.iter().enumerate() {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let t = Instant::now();
        let id = match client.open(plan, kind) {
            Ok(id) => {
                out.lat.entry("open").or_default().record(t);
                id
            }
            Err(WireError::Fault(WireFault::AtCapacity { .. })) => continue,
            Err(e) => panic!("open failed: {e}"),
        };

        match i % 10 {
            // 10%: abandon with partial progress — no cancel, no finish;
            // idle eviction is the only thing that reclaims these.
            3 => {
                if let Ok(SessionStep::Ask(q)) = client.next_question(id) {
                    let _ = client.answer(id, dag.reaches(q, target));
                }
                out.abandoned += 1;
            }
            // 10%: explicit cancel mid-flight.
            7 => {
                let _ = client.next_question(id);
                let t = Instant::now();
                client.cancel(id).expect("cancel");
                out.lat.entry("cancel").or_default().record(t);
            }
            // 10%: reconnect — drop the socket mid-session, continue the
            // same id on a fresh connection.
            5 => {
                if let Ok(SessionStep::Ask(q)) = client.next_question(id) {
                    let _ = client.answer(id, dag.reaches(q, target));
                }
                client = WireClient::connect(addr).expect("reconnect");
                out.reconnects += 1;
                let (_, o) = drive(&mut client, id, &dag, target, &mut out.lat).expect("drive");
                assert_eq!(o.target, target, "wrong target after reconnect");
            }
            // 10%: drive to the end AND verify the transcript inline.
            0 => {
                let (transcript, outcome) =
                    drive(&mut client, id, &dag, target, &mut out.lat).expect("drive");
                verify(
                    &dag,
                    &weights,
                    Sample {
                        kind,
                        target,
                        transcript,
                        outcome,
                    },
                );
                out.verified += 1;
            }
            // The rest: plain full sessions.
            _ => {
                let (_, o) = drive(&mut client, id, &dag, target, &mut out.lat).expect("drive");
                assert_eq!(o.target, target, "wrong target");
            }
        }
    }
    let t = Instant::now();
    client.stats().expect("stats");
    out.lat.entry("stats").or_default().record(t);
    out
}

/// The wire transcript must be bit-identical to the inline loop.
fn verify(dag: &Dag, weights: &NodeWeights, sample: Sample) {
    let ctx = SearchContext::new(dag, weights);
    let mut policy = sample.kind.build();
    let mut oracle = TranscriptOracle::new(TargetOracle::new(dag, sample.target));
    let want = run_session(policy.as_mut(), &ctx, &mut oracle, None).expect("inline run");
    assert_eq!(
        sample.transcript, oracle.transcript,
        "{:?}: wire transcript diverged from inline",
        sample.kind
    );
    assert_eq!(sample.outcome.target, want.target);
    assert_eq!(sample.outcome.queries, want.queries);
    assert_eq!(
        sample.outcome.price.to_bits(),
        want.price.to_bits(),
        "{:?}: price diverged",
        sample.kind
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sessions: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let dataset = amazon_like(Scale::Small, 11);
    let weights = Arc::new(dataset.empirical_weights());
    let dag = Arc::new(dataset.dag);
    let engine = Arc::new(SearchEngine::new(EngineConfig {
        idle_ticks: Some(50_000),
        ..EngineConfig::default()
    }));
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights.clone()))
        .unwrap();
    let server = WireServer::bind(Arc::clone(&engine), "127.0.0.1:0", threads).unwrap();
    let addr = server.local_addr();
    println!(
        "loadgen: {} threads x {} sessions against {} ({} shards) on {addr}\n",
        threads,
        sessions,
        dag.stats(),
        engine.stats().shards
    );

    let start = Instant::now();
    let results: Vec<Thread> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (dag, weights) = (dag.clone(), weights.clone());
                scope.spawn(move || worker(addr, plan, dag, weights, sessions, 0xC0FFEE + t as u64))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut merged: HashMap<&'static str, Lat> = HashMap::new();
    let (mut verified, mut abandoned, mut reconnects) = (0, 0, 0);
    for t in results {
        for (op, lat) in t.lat {
            merged.entry(op).or_default().0.extend(lat.0);
        }
        verified += t.verified;
        abandoned += t.abandoned;
        reconnects += t.reconnects;
    }
    let total_ops: usize = merged.values().map(|l| l.0.len()).sum();
    println!(
        "  {:<14} {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "op", "count", "p50 µs", "p90 µs", "p99 µs", "max µs"
    );
    for op in [
        "open",
        "next_question",
        "answer",
        "finish",
        "cancel",
        "stats",
    ] {
        if let Some(lat) = merged.get(op) {
            lat.report(op);
        }
    }
    // The same operations as seen from inside the engine: the telemetry
    // histograms the server exposes over `metrics` / `GET /metrics`.
    // Client-side numbers above include the TCP round-trip; the gap
    // between the two tables is the wire's cost. The engine times about
    // one op in `SAMPLE_MEAN_GAP` per thread, so the server-side
    // quantiles come from the `timed` sample of the exact `count`; they
    // are read from log2 buckets, so they are upper bounds with ≤2x
    // resolution.
    let snap = engine.telemetry();
    if snap.enabled {
        use aigs::service::telemetry::{HistSnapshot, Op, TIERS};
        println!(
            "\n  {:<14} {:>9}  {:>9}  {:>9}  {:>9}  {:>9}   server-side (telemetry, sampled)",
            "op", "count", "timed", "p50 µs", "p90 µs", "p99 µs"
        );
        for op in [Op::Open, Op::Next, Op::Answer, Op::Finish, Op::Cancel] {
            let mut h = HistSnapshot::default();
            let mut count = 0;
            for tier in TIERS {
                h.merge(snap.op_tier(op, tier));
                count += snap.op_count(op, tier);
            }
            if count == 0 {
                continue;
            }
            println!(
                "  {:<14} {:>9}  {:>9}  {:>9.1}  {:>9.1}  {:>9.1}",
                op.name(),
                count,
                h.count(),
                h.quantile(0.50) as f64 / 1_000.0,
                h.quantile(0.90) as f64 / 1_000.0,
                h.quantile(0.99) as f64 / 1_000.0,
            );
        }
        let slow = engine.drain_slow_ops();
        if !slow.is_empty() {
            let worst = slow.iter().map(|s| s.duration_ns).max().unwrap_or(0);
            println!(
                "  slow-op journal: {} entries over threshold (worst {:.1} µs)",
                slow.len(),
                worst as f64 / 1_000.0
            );
        }
    }

    let stats = engine.stats();
    println!(
        "\n  {total_ops} ops in {:.2?} ({:.0} ops/s); {verified} transcripts verified \
         against the inline loop, {abandoned} abandoned, {reconnects} reconnects",
        wall,
        total_ops as f64 / wall.as_secs_f64()
    );
    println!(
        "  engine: opened {} finished {} cancelled {} evicted {} live {} (peak {}) \
         steps {} pool hits {}",
        stats.opened,
        stats.finished,
        stats.cancelled,
        stats.evicted,
        stats.live,
        stats.peak_live,
        stats.steps,
        stats.pool_hits
    );
    server.shutdown();
}
