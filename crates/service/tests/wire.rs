//! Loopback integration tests for the wire protocol: a [`WireServer`] on
//! an ephemeral port, driven by [`WireClient`]s and, for the malformed
//! cases, raw sockets. The core property mirrors `transcripts.rs`: a
//! session stepped over TCP asks bit-identically to the inline loop.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use aigs_core::{run_session, SearchContext, SessionStep, TargetOracle, TranscriptOracle};
use aigs_graph::NodeId;
use aigs_service::wire::{WireClient, WireError, WireFault, WireServer};
use aigs_service::{EngineConfig, PlanId, PolicyKind, SearchEngine};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights};
use common::env_reach_choice;

const N: usize = 15;
const SEED: u64 = 0x31E;

fn serve(shards: usize, max_sessions: usize) -> (Arc<SearchEngine>, PlanId, WireServer) {
    let engine = Arc::new(SearchEngine::new(EngineConfig {
        shards,
        max_sessions,
        ..common::engine_config()
    }));
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let weights = Arc::new(generic_weights(N, SEED));
    let costs = Arc::new(generic_prices(N, SEED));
    let plan = engine
        .register_plan(
            aigs_service::PlanSpec::new(dag, weights)
                .with_costs(costs)
                .with_reach(env_reach_choice()),
        )
        .unwrap();
    let server = WireServer::bind(Arc::clone(&engine), "127.0.0.1:0", 2).unwrap();
    (engine, plan, server)
}

/// Drives a session over the wire with truthful answers, returning the
/// transcript and outcome.
fn drive_wire(
    client: &mut WireClient,
    id: aigs_service::SessionId,
    dag: &aigs_graph::Dag,
    target: NodeId,
) -> (Vec<(NodeId, bool)>, aigs_core::SearchOutcome) {
    let mut transcript = Vec::new();
    loop {
        match client.next_question(id).unwrap() {
            SessionStep::Resolved(_) => return (transcript, client.finish(id).unwrap()),
            SessionStep::Ask(q) => {
                let yes = dag.reaches(q, target);
                transcript.push((q, yes));
                client.answer(id, yes).unwrap();
            }
        }
    }
}

/// One session per policy kind over TCP equals the inline loop, bit for
/// bit; stats flow back over the same connection.
#[test]
fn wire_sessions_match_inline() {
    let (_engine, plan, server) = serve(2, 64);
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let weights = Arc::new(generic_weights(N, SEED));
    let costs = Arc::new(generic_prices(N, SEED));
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    for (i, kind) in [
        PolicyKind::TopDown,
        PolicyKind::Migs,
        PolicyKind::Wigs,
        PolicyKind::GreedyDag,
        PolicyKind::CostSensitive,
        PolicyKind::Random { seed: 0xfeed },
    ]
    .into_iter()
    .enumerate()
    {
        let target = NodeId::new((i * 4 + 1) % N);
        let ctx = SearchContext::new(&dag, &weights).with_costs(&costs);
        let mut policy = kind.build();
        let mut oracle = TranscriptOracle::new(TargetOracle::new(&dag, target));
        let want = run_session(policy.as_mut(), &ctx, &mut oracle, None).unwrap();

        let id = client.open(plan, kind).unwrap();
        let (transcript, got) = drive_wire(&mut client, id, &dag, target);
        assert_eq!(transcript, oracle.transcript, "{kind:?}: wire vs inline");
        assert_eq!(got.target, want.target);
        assert_eq!(got.queries, want.queries);
        assert_eq!(got.price.to_bits(), want.price.to_bits(), "{kind:?}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.opened, 6);
    assert_eq!(stats.finished, 6);
    assert_eq!(stats.live, 0);
    assert_eq!(stats.shards, 2);
    server.shutdown();
}

/// A session opened on one connection is addressable from another — the
/// id, not the socket, is the session's identity (reconnects work).
#[test]
fn sessions_survive_reconnect() {
    let (_engine, plan, server) = serve(2, 64);
    let dag = dag_from_seed(N, 0.3, SEED);
    let target = NodeId::new(6);

    let mut first = WireClient::connect(server.local_addr()).unwrap();
    let id = first.open(plan, PolicyKind::GreedyDag).unwrap();
    if let SessionStep::Ask(q) = first.next_question(id).unwrap() {
        first.answer(id, dag.reaches(q, target)).unwrap();
    }
    drop(first); // client vanishes mid-session

    let mut second = WireClient::connect(server.local_addr()).unwrap();
    let (_, out) = drive_wire(&mut second, id, &dag, target);
    assert_eq!(out.target, target);
    server.shutdown();
}

/// Service refusals arrive as typed faults, not transport errors.
#[test]
fn faults_are_typed() {
    let (_engine, plan, server) = serve(1, 2);
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let a = client.open(plan, PolicyKind::TopDown).unwrap();
    let _b = client.open(plan, PolicyKind::TopDown).unwrap();
    match client.open(plan, PolicyKind::TopDown) {
        Err(WireError::Fault(WireFault::AtCapacity { live, limit, .. })) => {
            assert_eq!(live, 2);
            assert_eq!(limit, 2);
        }
        other => panic!("expected AtCapacity fault, got {other:?}"),
    }

    client.cancel(a).unwrap();
    match client.next_question(a) {
        Err(WireError::Fault(WireFault::UnknownSession)) => {}
        other => panic!("expected UnknownSession fault, got {other:?}"),
    }
    // A plan id minted by a *different* engine carries the wrong engine
    // nonce, so this server has never heard of it.
    let stranger = SearchEngine::new(common::engine_config());
    let foreign: PlanId = stranger
        .register_plan(
            aigs_service::PlanSpec::new(
                Arc::new(dag_from_seed(N, 0.3, SEED)),
                Arc::new(generic_weights(N, SEED)),
            )
            .with_reach(env_reach_choice()),
        )
        .unwrap();
    match client.open(foreign, PolicyKind::TopDown) {
        Err(WireError::Fault(WireFault::UnknownPlan)) => {}
        other => panic!("expected UnknownPlan fault, got {other:?}"),
    }
    server.shutdown();
}

fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Malformed requests get a BAD_REQUEST answer; an unframeable length
/// prefix closes the connection without one.
#[test]
fn malformed_requests_are_rejected() {
    let (_engine, _plan, server) = serve(1, 8);
    let addr = server.local_addr();

    // Unknown opcode → status 0x08 + UTF-8 detail.
    let body = raw_roundtrip(addr, &[0xEE]).unwrap();
    assert_eq!(body[0], 0x08);
    assert!(std::str::from_utf8(&body[1..]).unwrap().contains("opcode"));

    // Truncated OPEN body → BAD_REQUEST, not a hang or a crash.
    let body = raw_roundtrip(addr, &[0x01, 1, 2, 3]).unwrap();
    assert_eq!(body[0], 0x08);

    // Oversized length prefix → connection closed with no response frame.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 16]).unwrap();
    let mut buf = [0u8; 1];
    let got = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(got, 0, "oversized frame must close, not answer");
    server.shutdown();
}

/// Shutdown unblocks the accept threads and joins them even with an idle
/// client connected; the port stops answering afterwards.
#[test]
fn shutdown_is_prompt() {
    let (_engine, _plan, server) = serve(1, 8);
    let addr = server.local_addr();
    let _idle = TcpStream::connect(addr).unwrap();
    server.shutdown(); // must not hang on the idle connection
                       // A fresh connect may be accepted by the OS backlog, but no thread
                       // serves it: a request sees EOF (or a refused connect) instead of a
                       // response.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(&1u32.to_le_bytes());
        let _ = stream.write_all(&[0x06]);
        let mut buf = [0u8; 1];
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        match stream.read(&mut buf) {
            Ok(0) => {} // EOF: nothing serving
            Err(e) => assert!(e.kind() != std::io::ErrorKind::InvalidData, "{e}"),
            Ok(_) => panic!("server answered after shutdown"),
        }
    }
}

/// The extended STATS body, SHARD_STATS, and METRICS (full + delta)
/// round-trip over the wire and reconcile with each other.
#[test]
fn stats_shard_stats_and_metrics_over_wire() {
    use aigs_service::telemetry::{Op, Tier};

    let (engine, plan, server) = serve(2, 64);
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    for v in dag.nodes().take(5) {
        let id = client.open(plan, PolicyKind::GreedyDag).unwrap();
        drive_wire(&mut client, id, &dag, v);
    }

    // Extended stats: healthy engine → degraded fields empty.
    let stats = client.stats().unwrap();
    assert_eq!(stats.opened, 5);
    assert!(!stats.degraded);
    assert_eq!(stats.degraded_since, None);
    assert_eq!(stats.degraded_reason, None);

    // Per-shard rows sum to the aggregate.
    let shards = client.stats_per_shard().unwrap();
    assert_eq!(shards.len(), stats.shards);
    assert_eq!(shards.iter().map(|s| s.opened).sum::<u64>(), stats.opened);
    assert_eq!(shards.iter().map(|s| s.steps).sum::<u64>(), stats.steps);
    assert_eq!(
        shards.iter().map(|s| s.finished).sum::<u64>(),
        stats.finished
    );

    // Full metrics snapshot decodes and matches the in-process one.
    let full = client.metrics(false).unwrap();
    let local = engine.telemetry();
    assert_eq!(full.enabled, local.enabled);
    for op in aigs_service::telemetry::OPS {
        assert_eq!(full.op_total(op), local.op_total(op), "{op:?} over wire");
        for tier in aigs_service::telemetry::TIERS {
            assert_eq!(
                full.op_count(op, tier),
                local.op_count(op, tier),
                "{op:?}/{tier:?} over wire"
            );
        }
    }
    assert_eq!(
        full.op_tier(Op::Next, Tier::Live).sum,
        local.op_tier(Op::Next, Tier::Live).sum
    );
    assert_eq!(full.plans.len(), local.plans.len());

    // Delta mode: new traffic shows up, and only the new traffic.
    let before_opens = full.op_total(Op::Open);
    let id = client.open(plan, PolicyKind::GreedyDag).unwrap();
    drive_wire(&mut client, id, &dag, aigs_graph::NodeId::new(1));
    let delta = client.metrics(true).unwrap();
    assert_eq!(delta.op_total(Op::Open), 1, "delta after one open");
    let open_by_tier: u64 = aigs_service::telemetry::TIERS
        .into_iter()
        .map(|tier| delta.op_count(Op::Open, tier))
        .sum();
    assert_eq!(open_by_tier, 1, "exact per-tier delta after one open");
    assert!(delta.op_total(Op::Open) < before_opens + 1 || before_opens == 0);
    // An immediate second delta is empty of operations.
    let quiet = client.metrics(true).unwrap();
    for op in aigs_service::telemetry::OPS {
        assert_eq!(quiet.op_total(op), 0, "{op:?} in a quiet delta");
    }
    server.shutdown();
}

/// SLOW_OPS drains the per-shard slow-op rings over the wire: with a 1 ns
/// threshold every operation journals, entries decode to the in-process
/// [`aigs_service::telemetry::SlowOp`] shape, and the drain is
/// destructive.
#[test]
fn slow_ops_drain_over_wire() {
    let engine = Arc::new(SearchEngine::new(EngineConfig {
        shards: 2,
        max_sessions: 64,
        telemetry: Some(true),
        slow_op_ns: 1,
        ..common::engine_config()
    }));
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let weights = Arc::new(generic_weights(N, SEED));
    let plan = engine
        .register_plan(
            aigs_service::PlanSpec::new(Arc::clone(&dag), weights).with_reach(env_reach_choice()),
        )
        .unwrap();
    let server = WireServer::bind(Arc::clone(&engine), "127.0.0.1:0", 2).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    for v in dag.nodes().take(4) {
        let id = client.open(plan, PolicyKind::GreedyDag).unwrap();
        drive_wire(&mut client, id, &dag, v);
    }

    let slow = client.slow_ops().unwrap();
    assert!(!slow.is_empty(), "1 ns threshold should flag everything");
    for entry in &slow {
        assert!((entry.shard as usize) < 2);
        assert_eq!(entry.kind, PolicyKind::GreedyDag);
        assert!(entry.duration_ns >= 1);
    }
    // Some entry must be a session step, not just opens.
    assert!(slow
        .iter()
        .any(|e| matches!(e.op, aigs_service::telemetry::Op::Next)));
    // Draining is destructive: a quiet engine has nothing new.
    assert!(client.slow_ops().unwrap().is_empty());
    server.shutdown();
}

/// Pointing a plain HTTP client at the wire port serves the Prometheus
/// exposition on `/metrics` and a 404 elsewhere.
#[test]
fn http_get_serves_prometheus_exposition() {
    let (_engine, plan, server) = serve(1, 16);
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.open(plan, PolicyKind::GreedyDag).unwrap();
    drive_wire(&mut client, id, &dag, aigs_graph::NodeId::new(2));

    let http = |req: &str| -> String {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    };

    let ok = http("GET /metrics HTTP/1.1\r\nhost: test\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    assert!(
        ok.contains("content-type: text/plain; version=0.0.4"),
        "{ok}"
    );
    assert!(ok.contains("aigs_live_sessions"), "{ok}");
    assert!(ok.contains("aigs_ops_total{op=\"open\""), "{ok}");
    assert!(
        !ok.contains("# EOF"),
        "classic format has no terminator: {ok}"
    );

    // An OpenMetrics-capable scraper negotiates the 1.0.0 media type and
    // gets the spec's mandatory `# EOF` terminator.
    let om = http(
        "GET /metrics HTTP/1.1\r\nhost: test\r\n\
         Accept: application/openmetrics-text; version=1.0.0\r\n\r\n",
    );
    assert!(om.starts_with("HTTP/1.1 200"), "{om}");
    assert!(
        om.contains("content-type: application/openmetrics-text; version=1.0.0; charset=utf-8"),
        "{om}"
    );
    assert!(om.contains("aigs_live_sessions"), "{om}");
    assert!(om.ends_with("# EOF\n"), "{om}");

    let missing = http("GET / HTTP/1.1\r\nhost: test\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    server.shutdown();
}
