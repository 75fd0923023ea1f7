//! Pinned GreedyDAG transcripts.
//!
//! The differential suites compare implementations with each other:
//! incremental against `reference()`, backend against backend. A change
//! that moves both sides the same way — a tie-break, or an edit to
//! `rebuild_frontier`, which the reference mode shares — passes all of
//! them. This test pins the transcripts themselves: one FNV-1a digest over
//! every target's (question, answer) sequence on `imagenet_like` Small
//! with its empirical prior, equal to one committed constant under every
//! reachability backend. A change that moves any transcript must update
//! the constant and say why.

use aigs_core::policy::GreedyDagPolicy;
use aigs_core::{fresh_cache_token, SearchContext};
use aigs_data::{imagenet_like, Scale};
use aigs_testutil::{backends, drive_transcript};

/// The digest of every target's transcript, in target order.
const GREEDY_DAG_IMAGENET_SMALL: u64 = 0x38be_9958_734c_5fa9;

/// 64-bit FNV-1a, fed little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn greedy_dag_transcripts_match_the_pinned_digest() {
    let data = imagenet_like(Scale::Small, 41317);
    let weights = data.empirical_weights();
    for (backend, index) in backends(&data.dag, 41317) {
        let base = SearchContext::new(&data.dag, &weights).with_cache_token(fresh_cache_token());
        let ctx = match &index {
            Some(ix) => base.with_reach(ix),
            None => base,
        };
        // One instance for every target, as a warm pool serves them.
        let mut policy = GreedyDagPolicy::new();
        let mut hash = Fnv1a::new();
        for target in data.dag.nodes() {
            let label = format!("{backend}, target {target}");
            let (transcript, _) = drive_transcript(&mut policy, &ctx, target, &label);
            // The length delimits one target's transcript from the next.
            hash.write_u32(transcript.len() as u32);
            for (q, yes) in transcript {
                hash.write_u32(q.0);
                hash.write_u32(u32::from(yes));
            }
        }
        assert_eq!(
            hash.0, GREEDY_DAG_IMAGENET_SMALL,
            "greedy-dag transcripts moved under the {backend} backend: {:#018x}",
            hash.0
        );
    }
}
