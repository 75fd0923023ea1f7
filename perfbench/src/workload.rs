//! The four workloads, their seeded inputs, and the closed-loop client
//! that drives an engine (in process or over the wire) through them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aigs_core::{
    fresh_cache_token, run_session, CompiledConfig, NodeWeights, SearchContext, SearchOutcome,
    SessionStep, TargetOracle, TranscriptOracle,
};
use aigs_data::{amazon_like, imagenet_like, sample_targets, Scale};
use aigs_graph::{Dag, NodeId, ReachIndex};
use aigs_service::wire::{WireClient, WireError, WireFault, WireServer};
use aigs_service::{
    CompiledTier, DurabilityConfig, EngineConfig, PlanId, PlanSpec, PolicyKind, SearchEngine,
    ServiceError, SessionId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::Hist;
use crate::trace::Shadow;

/// The hierarchy is fixed across seeds — the seed varies the traffic
/// (targets, abandons, cancels), so the spread between seeds measures
/// the program, not differences between generated hierarchies.
const HIERARCHY_SEED: u64 = 11;
/// Length of the seeded target/fate tables; sessions cycle through them.
const TRAFFIC_LEN: usize = 1 << 16;
/// Every this-many-th session records its transcript for inline replay.
const SAMPLE_EVERY: u64 = 61;
/// At most this many transcripts are replayed per run.
const MAX_SAMPLES: usize = 256;
/// `queries_per_session` averages the sessions among the first this-many
/// opened that run to the end. Which sessions those are, and so the mean,
/// depends only on the seed — not on how fast they finish.
pub const QPS_SESSIONS: u64 = 8192;

/// Which synthetic hierarchy a workload searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hierarchy {
    /// `amazon_like`, Small scale: a 3 000-node tree.
    AmazonTree,
    /// `imagenet_like`, Small scale: a 3 000-node DAG.
    ImagenetDag,
}

/// One workload: a traffic mix against one engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// The hierarchy searched.
    pub hierarchy: Hierarchy,
    /// The policy every session runs.
    pub kind: PolicyKind,
    /// Whether the plan opts into the compiled tier.
    pub compiled: bool,
    /// Sessions kept live by the client, visited round-robin.
    pub population: usize,
    /// Percent of sessions dropped mid-search without a cancel.
    pub abandon_pct: u32,
    /// Percent of sessions cancelled mid-search.
    pub cancel_pct: u32,
    /// Idle eviction on (reclaims the abandoned sessions).
    pub idle_eviction: bool,
    /// Write-ahead log on, at default fsync batching.
    pub wal: bool,
    /// Traffic crosses a loopback `WireServer` instead of calling the
    /// engine in process.
    pub wire: bool,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-compiled",
        why: "one loopback wire client, 1024 live compiled greedy-tree sessions round-robin, \
              one request in flight: isolates frame codec, syscalls and thread hand-off",
        hierarchy: Hierarchy::AmazonTree,
        kind: PolicyKind::GreedyTree,
        compiled: true,
        population: 1024,
        abandon_pct: 0,
        cancel_pct: 0,
        idle_eviction: false,
        wal: false,
        wire: true,
    },
    // 1 024 live sessions, not 10 000: at 10 000 the step is bound by
    // cache misses and ten runs spread by 28% as neighbours' memory traffic
    // came and went; at 1 024 the working set stays cached and the
    // wrapper's own work is what is timed.
    Workload {
        name: "engine-compiled",
        why: "1024 live compiled sessions in process, 10% abandoned and idle-evicted: \
              the engine wrapper (locate, slot lock, clock, idle, telemetry) dominates",
        hierarchy: Hierarchy::AmazonTree,
        kind: PolicyKind::GreedyTree,
        compiled: true,
        population: 1024,
        abandon_pct: 10,
        cancel_pct: 0,
        idle_eviction: true,
        wal: false,
        wire: false,
    },
    // 64 live sessions, not 1 024: at 1 024 (~200 MB) the step waits on
    // memory, and when neighbours on the host loaded it the step p50 went
    // from 2.8 to 6.6 us within minutes, so ten runs spread by 68%; at 64
    // (~22 MB) the same change moved it from 1.9 to 3.0 us.
    Workload {
        name: "engine-greedy-dag",
        why: "64 live greedy-dag sessions on a DAG with warm-pool opens: policy \
              select/observe and ReachIndex dominate; wrapper changes should barely move it",
        hierarchy: Hierarchy::ImagenetDag,
        kind: PolicyKind::GreedyDag,
        compiled: false,
        population: 64,
        abandon_pct: 0,
        cancel_pct: 0,
        idle_eviction: false,
        wal: false,
        wire: false,
    },
    Workload {
        name: "engine-durable",
        why: "10k live top-down sessions with the WAL on and 10% cancels: the engine's \
              durable write path (append, group commit, compaction)",
        hierarchy: Hierarchy::AmazonTree,
        kind: PolicyKind::TopDown,
        compiled: false,
        population: 10_000,
        abandon_pct: 0,
        cancel_pct: 10,
        idle_eviction: false,
        wal: true,
        wire: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The engine configuration a rig runs: the workload's own, or a twin
/// with one layer switched to isolate that layer's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Serve through a loopback `WireServer`.
    pub wire: bool,
    /// Engine telemetry recording.
    pub telemetry: bool,
    /// Idle eviction.
    pub idle: bool,
    /// Write-ahead log.
    pub wal: bool,
}

impl Workload {
    /// The workload's own configuration.
    pub fn knobs(&self) -> Knobs {
        Knobs {
            wire: self.wire,
            telemetry: true,
            idle: self.idle_eviction,
            wal: self.wal,
        }
    }
}

/// What the client does with a session once it is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Answer until resolved, then finish.
    Finish,
    /// Stop visiting after this many answers; no cancel.
    Abandon(u32),
    /// Cancel after this many answers.
    Cancel(u32),
}

/// The seeded inputs of one run, generated before any timing starts.
pub struct Inputs {
    /// The hierarchy.
    pub dag: Arc<Dag>,
    /// The target distribution (empirical object counts).
    pub weights: Arc<NodeWeights>,
    /// Ancestor bitsets, `words` u64s per node: bit `q` of row `z` says
    /// whether `q` reaches `z`. The client's truthful answers are table
    /// lookups, computed independently of the program's own indexes.
    ancestors: Vec<u64>,
    words: usize,
    /// Target of the i-th opened session (cyclic).
    pub targets: Vec<NodeId>,
    /// Fate of the i-th opened session (cyclic).
    pub fates: Vec<Fate>,
}

impl Inputs {
    /// Generates the hierarchy and the seeded traffic for `w`.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let dataset = match w.hierarchy {
            Hierarchy::AmazonTree => amazon_like(Scale::Small, HIERARCHY_SEED),
            Hierarchy::ImagenetDag => imagenet_like(Scale::Small, HIERARCHY_SEED),
        };
        let weights = dataset.empirical_weights();
        let dag = dataset.dag;
        let n = dag.node_count();
        let words = n.div_ceil(64);
        let mut ancestors = vec![0u64; n * words];
        let mut row = vec![0u64; words];
        for &v in dag.topo_order() {
            let z = v.index();
            row.fill(0);
            row[z / 64] |= 1 << (z % 64);
            for &p in dag.parents(v) {
                let parent = &ancestors[p.index() * words..(p.index() + 1) * words];
                for (a, b) in row.iter_mut().zip(parent) {
                    *a |= b;
                }
            }
            ancestors[z * words..(z + 1) * words].copy_from_slice(&row);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let targets = sample_targets(&weights, TRAFFIC_LEN, &mut rng);
        let fates = (0..TRAFFIC_LEN)
            .map(|_| {
                let roll = rng.gen_range(0..100u32);
                let after = rng.gen_range(1..4u32);
                if roll < w.abandon_pct {
                    Fate::Abandon(after)
                } else if roll < w.abandon_pct + w.cancel_pct {
                    Fate::Cancel(after)
                } else {
                    Fate::Finish
                }
            })
            .collect();
        Inputs {
            dag: Arc::new(dag),
            weights: Arc::new(weights),
            ancestors,
            words,
            targets,
            fates,
        }
    }

    /// Whether `q` reaches `target` (the truthful answer).
    pub fn truth(&self, q: NodeId, target: NodeId) -> bool {
        let q = q.index();
        self.ancestors[target.index() * self.words + q / 64] >> (q % 64) & 1 == 1
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub enum OpError {
    /// Admission refused at the live-session limit.
    AtCapacity,
    /// Any other error, rendered.
    Other(String),
}

impl From<ServiceError> for OpError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::AtCapacity { .. } => OpError::AtCapacity,
            e => OpError::Other(e.to_string()),
        }
    }
}

impl From<WireError> for OpError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Fault(WireFault::AtCapacity { .. }) => OpError::AtCapacity,
            e => OpError::Other(e.to_string()),
        }
    }
}

/// The client's view of the service: the engine in process, or a wire
/// connection to it.
pub enum Api {
    /// Direct calls on the engine.
    Local(Arc<SearchEngine>),
    /// Round trips over a loopback connection.
    Remote(WireClient),
}

impl Api {
    fn open(&mut self, plan: PlanId, kind: PolicyKind) -> Result<SessionId, OpError> {
        match self {
            Api::Local(e) => Ok(e.open_session(plan, kind)?.id()),
            Api::Remote(c) => Ok(c.open(plan, kind)?),
        }
    }
    fn next(&mut self, id: SessionId) -> Result<SessionStep, OpError> {
        match self {
            Api::Local(e) => Ok(e.next_question(id)?),
            Api::Remote(c) => Ok(c.next_question(id)?),
        }
    }
    fn answer(&mut self, id: SessionId, yes: bool) -> Result<(), OpError> {
        match self {
            Api::Local(e) => Ok(e.answer(id, yes)?),
            Api::Remote(c) => Ok(c.answer(id, yes)?),
        }
    }
    fn finish(&mut self, id: SessionId) -> Result<SearchOutcome, OpError> {
        match self {
            Api::Local(e) => Ok(e.finish(id)?),
            Api::Remote(c) => Ok(c.finish(id)?),
        }
    }
    fn cancel(&mut self, id: SessionId) -> Result<(), OpError> {
        match self {
            Api::Local(e) => Ok(e.cancel(id)?),
            Api::Remote(c) => Ok(c.cancel(id)?),
        }
    }
}

/// Client-side measurements of one time window.
#[derive(Clone, Default)]
pub struct Window {
    /// One question turn: `answer(prev)` + `next_question`.
    pub step: Hist,
    /// Admission: `open`.
    pub open: Hist,
    /// Operations that succeeded.
    pub ops: u64,
    /// Sessions finished.
    pub sessions: u64,
    /// Wall time of the window.
    pub secs: f64,
}

/// Whole-run bookkeeping of a client: attempts, failures, and the
/// correctness evidence.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error (refusals included).
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Finished sessions whose target differed from the sampled one.
    pub wrong_targets: u64,
    /// Query total over the finished sessions among the first
    /// [`QPS_SESSIONS`] opened.
    pub first_queries: u64,
    /// How many sessions `first_queries` covers.
    pub first_sessions: u64,
    /// How many of the first [`QPS_SESSIONS`] opened have ended in any
    /// way; once all have, `first_queries` is final.
    pub first_ended: u64,
    /// Recorded transcripts awaiting inline replay.
    pub samples: Vec<Sample>,
}

/// One recorded session: what the service asked and returned.
pub struct Sample {
    target: NodeId,
    transcript: Vec<(NodeId, bool)>,
    outcome: SearchOutcome,
}

struct Slot {
    id: Option<SessionId>,
    serial: u64,
    target: NodeId,
    fate: Fate,
    pending: Option<NodeId>,
    /// Answers given so far, so a shadow can join mid-session.
    answers: Vec<bool>,
    log: Option<Vec<(NodeId, bool)>>,
}

/// A closed-loop client: keeps `population` sessions open and visits them
/// round-robin. Each visit performs one question turn, or finishes,
/// abandons or cancels a session and opens its replacement. Truthful
/// answers are table lookups made between timed calls.
pub struct Client {
    api: Api,
    plan: PlanId,
    kind: PolicyKind,
    inputs: Arc<Inputs>,
    slots: Vec<Slot>,
    cursor: usize,
    serial: u64,
    flip: Option<u64>,
    /// Attempts, failures and correctness evidence.
    pub tally: Tally,
    /// Shadow replicas of sampled sessions, in traced passes.
    pub shadow: Option<Shadow>,
}

impl Client {
    fn new(api: Api, plan: PlanId, w: &Workload, inputs: Arc<Inputs>, population: usize) -> Self {
        let slots = (0..population)
            .map(|_| Slot {
                id: None,
                serial: 0,
                target: NodeId::new(0),
                fate: Fate::Finish,
                pending: None,
                answers: Vec::new(),
                log: None,
            })
            .collect();
        Client {
            tally: Tally::default(),
            api,
            plan,
            kind: w.kind,
            inputs,
            slots,
            cursor: 0,
            serial: 0,
            flip: None,
            shadow: None,
        }
    }

    /// Makes the client answer the first question of the next session
    /// meant to finish wrongly — the fault the correctness gate must catch.
    pub fn flip_next_answer(&mut self) {
        let len = self.inputs.fates.len() as u64;
        self.flip = (self.serial..self.serial + len)
            .find(|&s| self.inputs.fates[(s % len) as usize] == Fate::Finish);
    }

    fn fail(&mut self, e: OpError) {
        self.tally.failed += 1;
        if self.tally.errors.len() < 4 {
            self.tally.errors.push(format!("{e:?}"));
        }
    }

    /// Opens the session for slot `i` and fetches its first question.
    fn open_into(&mut self, i: usize, win: &mut Window) {
        let serial = self.serial;
        let len = self.inputs.targets.len() as u64;
        let (target, fate) = (
            self.inputs.targets[(serial % len) as usize],
            self.inputs.fates[(serial % len) as usize],
        );
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let opened = self.api.open(self.plan, self.kind);
        win.open.record(t0.elapsed().as_nanos() as u64);
        let id = match opened {
            Ok(id) => id,
            Err(e) => {
                self.slots[i].id = None;
                return self.fail(e);
            }
        };
        self.serial += 1;
        win.ops += 1;
        let slot = &mut self.slots[i];
        slot.id = Some(id);
        slot.serial = serial;
        slot.target = target;
        slot.fate = fate;
        slot.pending = None;
        slot.answers.clear();
        slot.log = (serial.is_multiple_of(SAMPLE_EVERY)
            && fate == Fate::Finish
            && self.tally.samples.len() < MAX_SAMPLES)
            .then(Vec::new);
        if let Some(shadow) = &mut self.shadow {
            shadow.attach(i, serial, target, &[]);
        }
        self.tally.attempted += 1;
        match self.api.next(id) {
            Ok(step) => {
                win.ops += 1;
                self.after_step(i, step, win);
            }
            Err(e) => {
                self.drop_slot(i);
                self.fail(e);
            }
        }
    }

    fn drop_slot(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if slot.id.take().is_some() && slot.serial < QPS_SESSIONS {
            self.tally.first_ended += 1;
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.close(i);
        }
    }

    fn after_step(&mut self, i: usize, step: SessionStep, win: &mut Window) {
        match step {
            SessionStep::Ask(q) => self.slots[i].pending = Some(q),
            SessionStep::Resolved(_) => self.finish(i, win),
        }
    }

    fn finish(&mut self, i: usize, win: &mut Window) {
        let id = self.slots[i].id.expect("finish on an open slot");
        self.tally.attempted += 1;
        let finished = self.api.finish(id);
        self.drop_slot(i);
        let outcome = match finished {
            Ok(o) => o,
            Err(e) => return self.fail(e),
        };
        win.ops += 1;
        win.sessions += 1;
        let slot = &mut self.slots[i];
        let tally = &mut self.tally;
        if outcome.target != slot.target {
            tally.wrong_targets += 1;
        }
        if slot.serial < QPS_SESSIONS {
            tally.first_sessions += 1;
            tally.first_queries += u64::from(outcome.queries);
        }
        if let Some(transcript) = slot.log.take() {
            tally.samples.push(Sample {
                target: slot.target,
                transcript,
                outcome,
            });
        }
    }

    /// One visit of the next slot in round-robin order.
    pub fn visit(&mut self, win: &mut Window) {
        let i = self.cursor;
        self.cursor = (i + 1) % self.slots.len();
        let slot = &self.slots[i];
        let (Some(id), Some(q)) = (slot.id, slot.pending) else {
            return self.open_into(i, win);
        };
        match slot.fate {
            Fate::Abandon(k) if slot.answers.len() >= k as usize => {
                self.drop_slot(i);
                return self.open_into(i, win);
            }
            Fate::Cancel(k) if slot.answers.len() >= k as usize => {
                self.tally.attempted += 1;
                match self.api.cancel(id) {
                    Ok(()) => win.ops += 1,
                    Err(e) => self.fail(e),
                }
                self.drop_slot(i);
                return self.open_into(i, win);
            }
            _ => {}
        }
        let mut yes = self.inputs.truth(q, slot.target);
        if self.flip == Some(slot.serial) && slot.answers.is_empty() {
            yes = !yes;
        }
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let step = match self.api.answer(id, yes) {
            Ok(()) => {
                self.tally.attempted += 1;
                self.api.next(id)
            }
            Err(e) => Err(e),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let slot = &mut self.slots[i];
        slot.pending = None;
        slot.answers.push(yes);
        if let Some(log) = &mut slot.log {
            log.push((q, yes));
        }
        match step {
            Ok(step) => {
                win.step.record(ns);
                win.ops += 2;
                if let Some(shadow) = &mut self.shadow {
                    shadow.step(i, yes, step);
                }
                self.after_step(i, step, win);
            }
            Err(e) => {
                self.drop_slot(i);
                self.fail(e);
            }
        }
    }

    /// Starts shadowing: every sampled session, including those already
    /// mid-search, gets a replica brought level by replaying its answers.
    pub fn attach_shadow(&mut self, mut shadow: Shadow) {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.id.is_some() && slot.pending.is_some() {
                shadow.attach(i, slot.serial, slot.target, &slot.answers);
            }
        }
        self.shadow = Some(shadow);
    }

    /// Stops shadowing and returns the shadow with its spans.
    pub fn detach_shadow(&mut self) -> Option<Shadow> {
        let mut shadow = self.shadow.take()?;
        shadow.clear();
        Some(shadow)
    }

    /// Admits the population: one open per slot.
    fn admit(&mut self) {
        let mut unmeasured = Window::default();
        for i in 0..self.slots.len() {
            self.open_into(i, &mut unmeasured);
        }
    }

    /// Runs `passes` round-robin passes over the population unmeasured.
    pub fn advance(&mut self, passes: usize) {
        let mut unmeasured = Window::default();
        for _ in 0..passes * self.slots.len() {
            self.visit(&mut unmeasured);
        }
    }

    /// Drives every session among the first [`QPS_SESSIONS`] opened that
    /// is still open to its end, unmeasured, so `queries_per_session`
    /// covers the same sessions however fast the run went.
    pub fn drain_first(&mut self) {
        let end = self.serial.min(QPS_SESSIONS);
        let mut unmeasured = Window::default();
        for i in 0..self.slots.len() {
            while self.slots[i].id.is_some() && self.slots[i].serial < end {
                self.cursor = i;
                self.visit(&mut unmeasured);
            }
        }
    }

    /// Drives traffic for `windows` consecutive windows of `secs` each.
    pub fn measure(&mut self, windows: usize, secs: f64) -> Vec<Window> {
        (0..windows)
            .map(|_| {
                let mut win = Window::default();
                let start = Instant::now();
                let end = start + std::time::Duration::from_secs_f64(secs);
                loop {
                    for _ in 0..16 {
                        self.visit(&mut win);
                    }
                    let now = Instant::now();
                    if now >= end {
                        win.secs = (now - start).as_secs_f64();
                        break win;
                    }
                }
            })
            .collect()
    }

    /// Replays every recorded transcript through the inline `run_session`
    /// loop and counts the ones that differ in any question, answer,
    /// query count or price bit.
    pub fn replay_samples(&mut self) -> (usize, u64) {
        let dag = &self.inputs.dag;
        let reach = (!dag.is_tree()).then(|| ReachIndex::auto(dag));
        let mut ctx =
            SearchContext::new(dag, &self.inputs.weights).with_cache_token(fresh_cache_token());
        if let Some(reach) = &reach {
            ctx = ctx.with_reach(reach);
        }
        let mut policy = self.kind.build();
        let mut bad = 0;
        for s in &self.tally.samples {
            let mut oracle = TranscriptOracle::new(TargetOracle::new(dag, s.target));
            let same = match run_session(policy.as_mut(), &ctx, &mut oracle, None) {
                Ok(want) => {
                    oracle.transcript == s.transcript
                        && want.target == s.outcome.target
                        && want.queries == s.outcome.queries
                        && want.price.to_bits() == s.outcome.price.to_bits()
                }
                Err(_) => false,
            };
            bad += u64::from(!same);
        }
        (self.tally.samples.len(), bad)
    }
}

/// An engine configured for one workload, plus its optional wire server
/// and WAL directory, torn down in that order.
pub struct Rig {
    server: Option<WireServer>,
    /// The engine under test.
    pub engine: Option<Arc<SearchEngine>>,
    wal_dir: Option<PathBuf>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        drop(self.engine.take());
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The plan's compiled-tier configuration.
pub fn compiled_config() -> CompiledConfig {
    CompiledConfig::default()
}

/// Engine shards for every workload: one, so placement and the lock
/// pattern are the same on every host.
pub const SHARDS: usize = 1;

/// A built rig and its client, with the set-up measurements.
pub struct Built {
    /// The engine, server and WAL directory.
    pub rig: Rig,
    /// The client, population admitted and advanced.
    pub client: Client,
    /// The program's set-up time in seconds: engine construction, plan
    /// registration, server bind and connect, admission and the advance.
    /// Input generation is excluded.
    pub secs: f64,
    /// Net heap bytes allocated by admission (all threads).
    pub admitted_bytes: i64,
}

/// Builds a rig and a client with its population admitted and advanced
/// by `passes` round-robin passes.
pub fn setup(
    w: &Workload,
    knobs: Knobs,
    inputs: &Arc<Inputs>,
    population: usize,
    passes: usize,
    work: &Path,
) -> Result<Built, String> {
    let wal_dir = knobs.wal.then(|| {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        work.join(format!("wal-{}-{}-{k}", w.name, std::process::id()))
    });
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let slack = if knobs.idle { population / 10 + 64 } else { 0 };
    let config = EngineConfig {
        max_sessions: if knobs.idle {
            population + slack
        } else {
            aigs_service::DEFAULT_MAX_SESSIONS.max(population + 1024)
        },
        idle_ticks: knobs.idle.then_some(8 * population as u64 + 64),
        shards: SHARDS,
        durability: wal_dir.as_ref().map(DurabilityConfig::new),
        compiled: CompiledTier::PerPlan,
        telemetry: Some(knobs.telemetry),
        ..EngineConfig::default()
    };
    let mut spec = PlanSpec::new(inputs.dag.clone(), inputs.weights.clone());
    if w.compiled {
        spec = spec.with_compiled(compiled_config());
    }

    let start = Instant::now();
    let engine = Arc::new(SearchEngine::try_new(config).map_err(|e| e.to_string())?);
    let mut rig = Rig {
        server: None,
        engine: Some(engine.clone()),
        wal_dir,
    };
    let plan = engine.register_plan(spec).map_err(|e| e.to_string())?;
    let api = if knobs.wire {
        let server =
            WireServer::bind(engine.clone(), "127.0.0.1:0", 1).map_err(|e| e.to_string())?;
        let client = WireClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        rig.server = Some(server);
        Api::Remote(client)
    } else {
        Api::Local(engine.clone())
    };
    let mut client = Client::new(api, plan, w, inputs.clone(), population);
    let (admitted_bytes, ()) = crate::alloc::net_bytes(|| client.admit());
    client.advance(passes);
    let secs = start.elapsed().as_secs_f64();
    Ok(Built {
        rig,
        client,
        secs,
        admitted_bytes,
    })
}
