//! The traced run: per-layer self times measured from outside the
//! program. Spans wrap calls into the public layer APIs — the engine (or
//! the wire client), and shadow replicas of sampled sessions stepped
//! through `SessionStepper` + `Policy` or `CompiledCursor` with the same
//! answers. Twin engines with one layer switched off isolate telemetry,
//! idle eviction, the WAL and the wire.

use std::sync::Arc;
use std::time::Instant;

use aigs_core::{
    fresh_cache_token, CompiledCursor, CompiledPlan, Policy, SearchContext, SessionStep,
    SessionStepper,
};
use aigs_graph::{NodeId, ReachIndex};
use aigs_service::PolicyKind;

use crate::stats::{median, Hist};
use crate::workload::{compiled_config, Inputs};

/// Every this-many-th session gets a shadow replica.
const SHADOW_EVERY: u64 = 16;
/// Question/target pairs kept for timing reachability queries.
const MAX_PAIRS: usize = 4096;

/// The cost of one `Instant::now()` + `elapsed()` pair, in ns: the median
/// of many back-to-back empty spans. Subtracted from the shadow spans,
/// whose layers (an 8 ns cursor step) are near the timer's own cost.
pub fn timer_cost_ns() -> u64 {
    let mut h = Hist::default();
    for _ in 0..20_000 {
        let t = Instant::now();
        h.record(t.elapsed().as_nanos() as u64);
    }
    h.quantile(0.5).unwrap_or(0.0) as u64
}

/// The search context shadows step in: the plan's artifacts with the
/// benchmark's own reachability index and cache token.
fn ctx<'a>(inputs: &'a Inputs, reach: Option<&'a ReachIndex>, token: u64) -> SearchContext<'a> {
    let base = SearchContext::new(&inputs.dag, &inputs.weights).with_cache_token(token);
    match reach {
        Some(r) => base.with_reach(r),
        None => base,
    }
}

enum Replica {
    Live {
        policy: Box<dyn Policy + Send>,
        stepper: SessionStepper,
    },
    Compiled(CompiledCursor),
}

/// Shadow replicas of a sample of the client's sessions, and the spans
/// recorded while stepping them.
pub struct Shadow {
    inputs: Arc<Inputs>,
    kind: PolicyKind,
    reach: Option<ReachIndex>,
    token: u64,
    compiled: Option<CompiledPlan>,
    pool: Vec<Box<dyn Policy + Send>>,
    /// Replica, target, and whether its steps are timed: not the first
    /// after a mid-search replay, which rebuilds state the service's
    /// session carries over from its previous step.
    replicas: Vec<Option<(Replica, NodeId, bool)>>,
    timer_ns: u64,
    /// Steps shadowed.
    pub steps: u64,
    /// `SessionStepper::answer` → `Policy::observe`.
    pub observe: Hist,
    /// `SessionStepper::next_question` → `Policy::select`.
    pub select: Hist,
    /// `CompiledCursor::answer` + `next_question`.
    pub cursor: Hist,
    /// (question, target) pairs asked of shadowed sessions.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Steps where the replica's next question differed from the
    /// service's.
    pub mismatches: u64,
}

impl Shadow {
    /// Shadows for a client of `population` slots running `kind`.
    pub fn new(
        inputs: Arc<Inputs>,
        kind: PolicyKind,
        compiled: bool,
        population: usize,
        timer_ns: u64,
    ) -> Shadow {
        let reach = (!inputs.dag.is_tree()).then(|| ReachIndex::auto(&inputs.dag));
        let token = fresh_cache_token();
        let compiled = compiled.then(|| {
            let mut policy = kind.build();
            CompiledPlan::compile(
                policy.as_mut(),
                &ctx(&inputs, reach.as_ref(), token),
                &compiled_config(),
            )
            .expect("the workload's plan compiles")
        });
        Shadow {
            inputs,
            kind,
            reach,
            token,
            compiled,
            pool: Vec::new(),
            replicas: (0..population).map(|_| None).collect(),
            timer_ns,
            steps: 0,
            observe: Hist::default(),
            select: Hist::default(),
            cursor: Hist::default(),
            pairs: Vec::new(),
            mismatches: 0,
        }
    }

    /// Session `serial` in slot `i`, searching for `target`, has been
    /// given `answers` so far and awaits its next one. Sampled sessions
    /// get a replica replayed to the same point (untimed).
    pub fn attach(&mut self, i: usize, serial: u64, target: NodeId, answers: &[bool]) {
        self.close(i);
        if !serial.is_multiple_of(SHADOW_EVERY) {
            return;
        }
        let ctx = ctx(&self.inputs, self.reach.as_ref(), self.token);
        let replica = match &self.compiled {
            Some(plan) => {
                let mut cursor = plan.replay(&ctx, None, answers).expect("compiled replay");
                cursor.next_question(plan).expect("compiled question");
                Replica::Compiled(cursor)
            }
            None => {
                let mut policy = self.pool.pop().unwrap_or_else(|| self.kind.build());
                let mut stepper = SessionStepper::replay(policy.as_mut(), &ctx, None, answers)
                    .expect("shadow replay");
                stepper
                    .next_question(policy.as_mut(), &ctx)
                    .expect("shadow question");
                Replica::Live { policy, stepper }
            }
        };
        self.replicas[i] = Some((replica, target, answers.is_empty()));
    }

    /// Drops every replica, returning live policies to the pool.
    pub fn clear(&mut self) {
        for i in 0..self.replicas.len() {
            self.close(i);
        }
    }

    /// Slot `i`'s session ended.
    pub fn close(&mut self, i: usize) {
        if let Some((Replica::Live { policy, .. }, _, _)) = self.replicas[i].take() {
            self.pool.push(policy);
        }
    }

    /// Slot `i` answered `yes` and the service replied `service`. Steps
    /// the replica with the same answer, timing each layer, and checks it
    /// asks the same next question.
    pub fn step(&mut self, i: usize, yes: bool, service: SessionStep) {
        let Some((replica, target, timed)) = &mut self.replicas[i] else {
            return;
        };
        let ctx = ctx(&self.inputs, self.reach.as_ref(), self.token);
        let t = self.timer_ns;
        let mine = match replica {
            Replica::Live { policy, stepper } => {
                let t0 = Instant::now();
                let answered = stepper.answer(policy.as_mut(), &ctx, yes);
                let t1 = Instant::now();
                let next = stepper.next_question(policy.as_mut(), &ctx);
                let t2 = Instant::now();
                if *timed {
                    self.observe
                        .record(((t1 - t0).as_nanos() as u64).saturating_sub(t));
                    self.select
                        .record(((t2 - t1).as_nanos() as u64).saturating_sub(t));
                }
                answered.and(next)
            }
            Replica::Compiled(cursor) => {
                let plan = self.compiled.as_ref().expect("compiled replica has a plan");
                let t0 = Instant::now();
                let answered = cursor.answer(plan, &ctx, yes);
                let next = cursor.next_question(plan);
                let ns = t0.elapsed().as_nanos() as u64;
                if *timed {
                    self.cursor.record(ns.saturating_sub(t));
                }
                answered.and(next)
            }
        };
        *timed = true;
        self.steps += 1;
        if mine.as_ref().ok() != Some(&service) {
            self.mismatches += 1;
        }
        if let Ok(SessionStep::Ask(q)) = mine {
            if self.pairs.len() < MAX_PAIRS {
                self.pairs.push((q, *target));
            }
        }
    }

    /// Mean ns of one `ReachIndex::reaches` on the recorded pairs, with the
    /// benchmark's copy of the index the plan builds (`None` on trees,
    /// where plans build no index).
    pub fn reach_query_ns(&self) -> Option<f64> {
        let reach = self.reach.as_ref()?;
        if self.pairs.is_empty() {
            return None;
        }
        let dag = &self.inputs.dag;
        let mut rounds = Vec::new();
        for _ in 0..5 {
            let mut hits = 0usize;
            let mut calls = 0usize;
            let start = Instant::now();
            while start.elapsed().as_millis() < 20 {
                for &(q, z) in &self.pairs {
                    hits += usize::from(reach.reaches(dag, std::hint::black_box(q), z));
                }
                calls += self.pairs.len();
            }
            std::hint::black_box(hits);
            rounds.push(start.elapsed().as_nanos() as f64 / calls as f64);
        }
        median(&rounds)
    }
}

/// Median ms of three timed runs of `f`.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs).expect("three runs")
}

/// Median ms to build the reachability index the plan builds (DAG plans
/// only).
pub fn reach_build_ms(inputs: &Inputs) -> f64 {
    if inputs.dag.is_tree() {
        return 0.0;
    }
    time_ms(|| drop(std::hint::black_box(ReachIndex::auto(&inputs.dag))))
}

/// Median ms to compile the plan's decision tree for `kind`, from a cold
/// policy instance.
pub fn compile_ms(inputs: &Inputs, kind: PolicyKind) -> f64 {
    let reach = (!inputs.dag.is_tree()).then(|| ReachIndex::auto(&inputs.dag));
    time_ms(|| {
        let mut policy = kind.build();
        let ctx = ctx(inputs, reach.as_ref(), fresh_cache_token());
        let plan = CompiledPlan::compile(policy.as_mut(), &ctx, &compiled_config());
        drop(std::hint::black_box(plan));
    })
}
