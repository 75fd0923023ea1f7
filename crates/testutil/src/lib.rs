//! Shared test scaffolding for the AIGS workspace.
//!
//! Every suite that checks policy behaviour needs the same three things:
//! deterministic random hierarchies (seeded trees and DAGs with generic,
//! tie-free weights), a handful of small named fixtures (the diamond DAG,
//! the paper's Fig. 2(a) tree), and a way to drive a policy against a
//! target while recording the **transcript** — the exact (question, answer)
//! sequence — so two implementations can be compared bit-for-bit. Before
//! this crate existed those helpers were duplicated across the greedy-DAG
//! unit tests, `crates/core/tests/properties.rs` and
//! `crates/service/tests/transcripts.rs`; they now live here once.
//!
//! The reachability-backend helpers honour the `AIGS_TEST_BACKEND`
//! environment variable (`closure` | `interval` | `bfs` | `none`): when
//! set, [`backends`] returns only that backend, which is how CI runs the
//! property suites once per backend without multiplying wall-clock inside
//! a single job.

pub mod failpoints;

use aigs_core::{NodeWeights, Policy, QueryCosts, SearchContext, SearchOutcome};
use aigs_graph::generate::{random_dag, random_tree, DagConfig, TreeConfig};
use aigs_graph::{dag_from_edges, Dag, NodeId, ReachIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A recorded session transcript: the (question, answer) sequence in order.
pub type Transcript = Vec<(NodeId, bool)>;

/// Small named hierarchies used across suites.
pub mod fixtures {
    use super::*;

    /// The 6-node diamond DAG: `0 → {1,2}; {1,2} → 3; 3 → 4; 2 → 5`.
    /// Node 3 has two parents, node 4 is shared transitively — the smallest
    /// hierarchy exercising shared-descendant bookkeeping.
    pub fn diamond() -> Dag {
        dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap()
    }

    /// The paper's Fig. 2(a) vehicle tree (7 nodes).
    pub fn fig2a() -> Dag {
        dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap()
    }
}

/// A bushy random tree of `n` nodes, deterministic in `seed`.
pub fn tree_from_seed(n: usize, seed: u64) -> Dag {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    random_tree(&TreeConfig::bushy(n), &mut rng)
}

/// A bushy random DAG grown from `n` nodes with extra-edge fraction `frac`,
/// deterministic in `seed`.
pub fn dag_from_seed(n: usize, frac: f64, seed: u64) -> Dag {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    random_dag(&DagConfig::bushy(n, frac), &mut rng)
}

/// Generic continuous weights — ties occur with probability zero, which is
/// what makes fast-vs-naive greedy equivalences exact on trees and keeps
/// rounded middle points stable.
pub fn generic_weights(n: usize, seed: u64) -> NodeWeights {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    NodeWeights::from_masses((0..n).map(|_| rng.gen_range(0.01..1.0)).collect()).unwrap()
}

/// Generic heterogeneous per-node query prices.
pub fn generic_prices(n: usize, seed: u64) -> QueryCosts {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc057);
    QueryCosts::PerNode((0..n).map(|_| rng.gen_range(0.5..4.0)).collect())
}

/// The backend forced by `AIGS_TEST_BACKEND`, if any. Unknown values panic
/// so a typo in a CI matrix fails loudly instead of silently testing
/// nothing.
pub fn forced_backend() -> Option<&'static str> {
    match std::env::var("AIGS_TEST_BACKEND") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "closure" => Some("closure"),
            "interval" => Some("interval"),
            "bfs" => Some("bfs"),
            "none" => Some("none"),
            other => panic!("unknown AIGS_TEST_BACKEND {other:?}"),
        },
    }
}

/// The compiled-tier mode forced by `AIGS_COMPILED`, if any: `false` for
/// `0` (tier off), `true` for `1` (compile everything). Unknown values
/// panic so a typo in a CI matrix fails loudly instead of silently testing
/// nothing.
pub fn forced_compiled() -> Option<bool> {
    match std::env::var("AIGS_COMPILED") {
        Err(_) => None,
        Ok(v) => match v.trim() {
            "0" => Some(false),
            "1" => Some(true),
            other => panic!("unknown AIGS_COMPILED {other:?} (expected 0 or 1)"),
        },
    }
}

/// The engine shard count forced by `AIGS_SHARDS`, if any. Anything but a
/// positive integer panics, for the same reason as [`forced_compiled`].
pub fn forced_shards() -> Option<usize> {
    std::env::var("AIGS_SHARDS").ok().map(|v| parse_shards(&v))
}

fn parse_shards(v: &str) -> usize {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => panic!("unknown AIGS_SHARDS {v:?} (expected a positive integer)"),
    }
}

/// Every reachability backend a DAG policy must be transcript-invariant
/// over, as `(label, index)` pairs (`None` = no shared index at all).
/// Restricted to the one named by `AIGS_TEST_BACKEND` when that is set.
pub fn backends(dag: &Dag, seed: u64) -> Vec<(&'static str, Option<ReachIndex>)> {
    let all: Vec<(&'static str, Option<ReachIndex>)> = vec![
        ("closure", Some(ReachIndex::closure_for(dag))),
        (
            "interval",
            Some(ReachIndex::interval_for(dag, 2, seed ^ 0xbeef)),
        ),
        ("bfs", Some(ReachIndex::Bfs)),
        ("none", None),
    ];
    match forced_backend() {
        None => all,
        Some(want) => all.into_iter().filter(|(name, _)| *name == want).collect(),
    }
}

/// Drives `policy` to resolution with truthful answers for `target`,
/// recording the transcript and accounting queries/price exactly as a
/// session would. Panics (with `label` in the message) if the policy
/// resolves to a different node or exceeds the `4·n + 64` safety cap.
pub fn drive_transcript(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    target: NodeId,
    label: &str,
) -> (Transcript, SearchOutcome) {
    policy
        .try_reset(ctx)
        .unwrap_or_else(|e| panic!("{label}: reset failed: {e}"));
    let cap = 4 * ctx.dag.node_count() + 64;
    let mut transcript = Transcript::new();
    let mut price = 0.0f64;
    loop {
        if let Some(found) = policy.resolved() {
            assert_eq!(
                found, target,
                "{label}: resolved to {found}, expected {target}"
            );
            let outcome = SearchOutcome {
                target: found,
                queries: transcript.len() as u32,
                price,
            };
            return (transcript, outcome);
        }
        assert!(
            transcript.len() < cap,
            "{label}: exceeded the query cap searching for {target}"
        );
        let q = policy.select(ctx);
        let yes = ctx.dag.reaches(q, target);
        price += ctx.costs.price(q);
        transcript.push((q, yes));
        policy.observe(ctx, q, yes);
    }
}

/// Asserts two transcripts are identical, rendering the first divergence
/// (position, question and answer on both sides) when they are not.
pub fn assert_transcripts_equal(want: &Transcript, got: &Transcript, label: &str) {
    if want == got {
        return;
    }
    let at = want
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.len().min(got.len()));
    panic!(
        "{label}: transcripts diverge at step {at}: \
         expected {:?}, got {:?} (lengths {} vs {})",
        want.get(at),
        got.get(at),
        want.len(),
        got.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aigs_core::policy::GreedyNaivePolicy;

    #[test]
    fn generators_are_deterministic() {
        let a = dag_from_seed(30, 0.2, 7);
        let b = dag_from_seed(30, 0.2, 7);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let t = tree_from_seed(12, 3);
        assert!(t.is_tree());
        assert_eq!(generic_weights(5, 9).as_slice(), {
            let again = generic_weights(5, 9);
            &again.as_slice().to_vec()[..]
        });
    }

    #[test]
    fn backend_list_honours_forced_backend() {
        // The env var is process-global: only assert the unforced shape
        // here plus the label set; the CI matrix exercises the forcing.
        let g = fixtures::diamond();
        let labels: Vec<&str> = backends(&g, 1).iter().map(|(l, _)| *l).collect();
        match forced_backend() {
            None => assert_eq!(labels, vec!["closure", "interval", "bfs", "none"]),
            Some(want) => assert_eq!(labels, vec![want]),
        }
    }

    #[test]
    fn compiled_knob_parses_strictly() {
        // Same env-var caveat as above: assert agreement with whatever the
        // process was launched with; the CI matrix exercises both values.
        match std::env::var("AIGS_COMPILED").as_deref().map(str::trim) {
            Err(_) => assert_eq!(forced_compiled(), None),
            Ok("0") => assert_eq!(forced_compiled(), Some(false)),
            Ok("1") => assert_eq!(forced_compiled(), Some(true)),
            Ok(_) => {} // would panic; not constructible from a green matrix
        }
    }

    #[test]
    fn shards_knob_parses_strictly() {
        // Same env-var caveat for the variable itself; the parser it
        // applies is checked directly.
        match std::env::var("AIGS_SHARDS") {
            Err(_) => assert_eq!(forced_shards(), None),
            Ok(v) => assert_eq!(forced_shards(), Some(parse_shards(&v))),
        }
        assert_eq!(parse_shards("4"), 4);
        assert_eq!(parse_shards(" 1 "), 1);
        for bad in ["0", "-1", "four", ""] {
            let refused = std::panic::catch_unwind(|| parse_shards(bad)).is_err();
            assert!(refused, "{bad:?} must not parse as a shard count");
        }
    }

    #[test]
    fn transcript_driver_matches_policy_contract() {
        let g = fixtures::fig2a();
        let w = generic_weights(7, 11);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyNaivePolicy::new();
        for z in g.nodes() {
            let (t, out) = drive_transcript(&mut p, &ctx, z, "naive");
            assert_eq!(out.target, z);
            assert_eq!(out.queries as usize, t.len());
            assert_eq!(out.price, t.len() as f64, "uniform costs bill 1/query");
            assert_transcripts_equal(&t, &t, "self");
        }
    }
}
