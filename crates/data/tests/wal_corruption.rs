//! Property tests for the WAL reader's corruption tolerance.
//!
//! The durability contract is: whatever happens to the file tail — torn
//! writes, truncation, flipped bits — the reader returns a **strict
//! prefix** of the events that were written (never a phantom event, never
//! an out-of-order or altered one) plus a typed corruption describing why
//! it stopped, and it never panics. These tests generate random event
//! logs, then attack them with truncation at *every* byte offset and a
//! bit flip at every byte offset.

use aigs_data::wal::{
    decode_wal, encode_record_bytes, CompiledPayload, KindCode, PlanPayload, WalEvent, WAL_VERSION,
};
use proptest::prelude::*;

/// Deterministically expands op tuples into a WAL event sequence. Semantic
/// coherence (plans existing before sessions, etc.) is irrelevant to the
/// codec; variety of shapes and sizes is what matters.
fn events_from_ops(ops: &[(u8, u32, bool)]) -> Vec<WalEvent> {
    let mut events = vec![WalEvent::EngineMeta {
        version: WAL_VERSION,
        engine_id: 77,
    }];
    for &(op, x, flag) in ops {
        let ev = match op {
            0 => WalEvent::EngineMeta {
                version: WAL_VERSION,
                engine_id: x,
            },
            1 => {
                let n = 1 + (x % 5);
                WalEvent::PlanRegistered {
                    plan: x % 3,
                    payload: PlanPayload {
                        nodes: n,
                        edges: (1..n).map(|c| (c - 1, c)).collect(),
                        weights: (0..n).map(|i| (i + 1) as f64 * 0.117).collect(),
                        costs: flag.then(|| (0..n).map(|i| 0.5 + i as f64).collect()),
                        reach_tag: (x % 4) as u8,
                        reach_labelings: x % 7,
                        reach_seed: u64::from(x) * 31,
                        compiled: flag.then_some(CompiledPayload {
                            max_depth: x % 17,
                            min_mass: f64::from(x % 11) * 1e-4,
                            max_nodes: u64::from(x) * 3,
                        }),
                    },
                }
            }
            2 => WalEvent::SessionOpened {
                index: x % 9,
                generation: x / 9,
                plan: x % 3,
                kind: KindCode {
                    tag: (x % 9) as u8,
                    seed: if flag { u64::from(x) } else { 0 },
                },
            },
            3 => WalEvent::Answered {
                index: x % 9,
                generation: x / 9,
                seq: x % 13,
                yes: flag,
            },
            4 => WalEvent::Finished {
                index: x % 9,
                generation: x / 9,
            },
            5 => {
                if flag {
                    WalEvent::Cancelled {
                        index: x % 9,
                        generation: x / 9,
                    }
                } else {
                    WalEvent::Evicted {
                        index: x % 9,
                        generation: x / 9,
                    }
                }
            }
            6 => WalEvent::ShardMeta {
                shard: x % 8,
                shards: 1 + x % 8,
            },
            7 => WalEvent::SlotRetired {
                index: x % 9,
                generation: x / 9,
            },
            // Histories of 0..=40 answers cover empty, partial-byte and
            // whole-byte bitmaps.
            _ => WalEvent::SessionSnapshot {
                index: x % 9,
                generation: x / 9,
                plan: x % 3,
                kind: KindCode {
                    tag: (x % 9) as u8,
                    seed: if flag { u64::from(x) } else { 0 },
                },
                answers: (0..x % 41)
                    .map(|i| (x >> (i % 8)) & 1 == u32::from(flag))
                    .collect(),
            },
        };
        events.push(ev);
    }
    events
}

/// Encodes `events`, returning the image plus each record's end offset.
fn encode_all(events: &[WalEvent]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for e in events {
        bytes.extend_from_slice(&encode_record_bytes(e));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Asserts `got` is a (not necessarily proper) prefix of `want`, value by
/// value — the no-phantom, no-reorder, no-mutation property.
fn assert_strict_prefix(
    want: &[WalEvent],
    got: &[WalEvent],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        got.len() <= want.len(),
        "{what}: decoded {} events from a log of {}",
        got.len(),
        want.len()
    );
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(w, g, "{}: event {} mutated", what, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_at_every_offset_recovers_a_strict_prefix(
        ops in prop::collection::vec((0u8..9, 0u32..200, prop::bool::ANY), 1..20),
    ) {
        let events = events_from_ops(&ops);
        let (bytes, ends) = encode_all(&events);
        for cut in 0..=bytes.len() {
            let read = decode_wal(&bytes[..cut]);
            assert_strict_prefix(&events, &read.events, &format!("cut at {cut}"))?;
            // Exactly the records that fit before the cut survive.
            let fitting = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(
                read.events.len(),
                fitting,
                "cut at {}: wrong prefix length",
                cut
            );
            let on_boundary = cut == 0 || ends.contains(&cut);
            prop_assert_eq!(
                read.corruption.is_none(),
                on_boundary,
                "cut at {}: corruption flag does not match record boundaries",
                cut
            );
            if let Some(c) = &read.corruption {
                // The corruption points at the start of the torn record.
                let expect_off = ends[..fitting].last().copied().unwrap_or(0);
                prop_assert_eq!(c.offset, expect_off as u64, "cut at {}", cut);
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_or_fabricate_events(
        ops in prop::collection::vec((0u8..9, 0u32..200, prop::bool::ANY), 1..16),
        bit in 0u8..8,
    ) {
        let events = events_from_ops(&ops);
        let (bytes, ends) = encode_all(&events);
        for pos in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[pos] ^= 1 << bit;
            let read = decode_wal(&evil);
            // Records wholly before the flipped byte must survive intact;
            // the record containing the flip must not decode to a phantom
            // (CRC-32 catches every single-bit error within a record).
            let intact = ends.iter().filter(|&&e| e <= pos).count();
            assert_strict_prefix(
                &events[..intact],
                &read.events,
                &format!("flip bit {bit} at byte {pos}"),
            )?;
            prop_assert!(
                read.corruption.is_some(),
                "flip bit {} at byte {}: single-bit error went undetected",
                bit,
                pos
            );
        }
    }

    #[test]
    fn appended_garbage_cannot_survive_the_checksum(
        ops in prop::collection::vec((0u8..9, 0u32..200, prop::bool::ANY), 1..10),
        junk in prop::collection::vec(0u8..255, 1..64),
    ) {
        // A crash may leave arbitrary bytes past the last intact record
        // (preallocated space, a torn record of a dying writer). The intact
        // records must all decode; nothing in the junk may become an event
        // unless it happens to be a byte-exact valid record — which random
        // junk is not, thanks to the CRC.
        let events = events_from_ops(&ops);
        let (mut bytes, _) = encode_all(&events);
        bytes.extend_from_slice(&junk);
        let read = decode_wal(&bytes);
        assert_strict_prefix(&events, &read.events, "junk tail")?;
        prop_assert_eq!(read.events.len(), events.len(), "intact records lost");
        prop_assert!(read.corruption.is_some(), "junk tail accepted as clean");
    }
}
