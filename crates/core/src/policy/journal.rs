//! `StepJournal` — the delta-undo subsystem behind every policy's
//! `observe`/`unobserve` pair.
//!
//! # Why
//!
//! `FrameworkIGS` (Alg. 1) needs rollback in two places: the decision-tree
//! builder backtracks from the *yes* branch of a query to the *no* branch,
//! and exhaustive evaluation resets a policy once per target. Snapshotting
//! full weight vectors or candidate bitsets per query makes both O(n) in
//! time *and* allocation, which dominates the per-query cost on large
//! hierarchies. A search step only ever touches O(Δ) entries (the eliminated
//! subgraph and its alive ancestors), so recording `(index, old value)`
//! deltas makes rollback O(Δ) and allocation-free once buffers are warm.
//!
//! # The contract for `Policy` implementors
//!
//! 1. At the top of `observe`, call [`StepJournal::begin`] with a `Copy`
//!    payload capturing the step's **scalar** state (previous root, binary
//!    search bounds, candidate count, …).
//! 2. Before overwriting any **array** entry, log its old value with
//!    [`StepJournal::log_u64`] / [`StepJournal::log_f64`] /
//!    [`StepJournal::log_u32`]; record boolean toggles with
//!    [`StepJournal::log_flip`] (a slot must flip at most once per step) or,
//!    when a step toggles many bits of one bitset, whole 64-bit words with
//!    [`StepJournal::log_word`]; stash variable-length state (e.g. a heavy
//!    chain about to be rebuilt) with [`StepJournal::spill_nodes`].
//! 3. In `unobserve`, call [`StepJournal::pop_with`], the journal's single
//!    pop: it replays the entry logs of the most recent step **in reverse
//!    logging order** (so a slot logged twice in one step ends at its
//!    first-logged value), hands the spill slice to a callback, truncates
//!    the step, and returns the payload. Restoration is bit-exact — floats
//!    come back as the identical bit pattern, with no `-=`/`+=` drift.
//! 4. In `reset`, when [`crate::SearchContext::cache_token`] matches the
//!    previous session's token, unwind the journal to depth zero instead of
//!    re-deriving (or cloning) the per-instance base state: a full unwind
//!    provably lands on the exact post-reset state, in time proportional to
//!    the *previous session's* deltas rather than O(n).
//!
//! Everything a step mutates must go through the journal (or be derivable
//! from the payload); state mutated outside it — scratch queues, memo
//! caches validated against journalled state — must be semantically
//! transparent to rollback. A memo may also *replay* a step instead of
//! computing it: `GreedyDagPolicy`'s opening book keeps, for its first
//! rounds, each answer's writes as `(slot, new value)` pairs read off
//! [`StepJournal::top`] at build time, and a replayed step logs the current
//! value of every slot before writing the stored one, exactly as a computed
//! step would. Undo, a cache-token reset and crash recovery therefore
//! cannot tell the two apart.

use aigs_graph::NodeId;

/// Offsets of one step's first entry in each log, plus the caller payload.
#[derive(Debug, Clone, Copy)]
struct Mark<S> {
    u64s: u32,
    u32s: u32,
    flips: u32,
    spill: u32,
    words: u32,
    payload: S,
}

/// The `(slot, old value)` logs of one step, borrowed from the journal
/// (see [`StepJournal::top`]).
#[derive(Debug, Clone, Copy)]
pub struct StepLogs<'a> {
    /// 64-bit entries ([`StepJournal::log_u64`]/[`StepJournal::log_f64`]).
    pub u64s: &'a [(u32, u64)],
    /// 32-bit entries ([`StepJournal::log_u32`]).
    pub u32s: &'a [(u32, u32)],
    /// Bitset words ([`StepJournal::log_word`]).
    pub words: &'a [(u32, u64)],
}

/// A LIFO delta journal over typed entry logs. `S` is the per-step scalar
/// payload (a small `Copy` struct defined by each policy).
#[derive(Debug, Clone)]
pub struct StepJournal<S> {
    /// `(slot, old value)` for 64-bit entries; `f64` old values are stored
    /// as raw bits.
    u64s: Vec<(u32, u64)>,
    /// `(slot, old value)` for 32-bit entries.
    u32s: Vec<(u32, u32)>,
    /// Slots whose boolean flag flipped this step.
    flips: Vec<u32>,
    /// Variable-length spill area (chain snapshots and the like).
    spill: Vec<u32>,
    /// `(word index, old word)` for word-granular bitset journaling: one
    /// entry restores 64 membership bits at once, so a step that kills a
    /// whole subgraph logs O(|subgraph|/64) entries instead of one flip per
    /// node.
    words: Vec<(u32, u64)>,
    steps: Vec<Mark<S>>,
}

impl<S: Copy> StepJournal<S> {
    /// An empty journal.
    pub fn new() -> Self {
        StepJournal {
            u64s: Vec::new(),
            u32s: Vec::new(),
            flips: Vec::new(),
            spill: Vec::new(),
            words: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Number of undoable steps.
    #[inline]
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// True when no step is recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Discards all steps (keeps buffer capacity).
    pub fn clear(&mut self) {
        self.u64s.clear();
        self.u32s.clear();
        self.flips.clear();
        self.spill.clear();
        self.words.clear();
        self.steps.clear();
    }

    /// Opens a new step; subsequent `log_*`/`spill_*` calls belong to it.
    pub fn begin(&mut self, payload: S) {
        self.steps.push(Mark {
            u64s: self.u64s.len() as u32,
            u32s: self.u32s.len() as u32,
            flips: self.flips.len() as u32,
            spill: self.spill.len() as u32,
            words: self.words.len() as u32,
            payload,
        });
    }

    /// Records the old value of a 64-bit slot about to change.
    #[inline]
    pub fn log_u64(&mut self, slot: usize, old: u64) {
        debug_assert!(!self.steps.is_empty(), "log outside a step");
        self.u64s.push((slot as u32, old));
    }

    /// Records the old value of an `f64` slot about to change (bit-exact).
    #[inline]
    pub fn log_f64(&mut self, slot: usize, old: f64) {
        self.log_u64(slot, old.to_bits());
    }

    /// Records the old value of a 32-bit slot about to change.
    #[inline]
    pub fn log_u32(&mut self, slot: usize, old: u32) {
        debug_assert!(!self.steps.is_empty(), "log outside a step");
        self.u32s.push((slot as u32, old));
    }

    /// Records that a boolean slot flipped (at most once per step).
    #[inline]
    pub fn log_flip(&mut self, slot: usize) {
        debug_assert!(!self.steps.is_empty(), "log outside a step");
        self.flips.push(slot as u32);
    }

    /// Records the old value of a whole 64-bit **bitset word** about to
    /// change (log each word at most once per step): the word-granular
    /// counterpart of [`StepJournal::log_flip`] for steps that toggle many
    /// membership bits at once.
    #[inline]
    pub fn log_word(&mut self, word_index: usize, old: u64) {
        debug_assert!(!self.steps.is_empty(), "log outside a step");
        self.words.push((word_index as u32, old));
    }

    /// Stashes a node sequence (e.g. the heavy chain a `select` rebuild is
    /// about to overwrite) into the step's spill area.
    ///
    /// Like the `log_*` calls this appends to the **most recent** step —
    /// which is also how state clobbered *between* two observes (a chain
    /// rebuild inside `select`) is journalled: it belongs to the step whose
    /// undo must revert it, i.e. the one already on top.
    pub fn spill_nodes(&mut self, nodes: &[NodeId]) {
        debug_assert!(!self.steps.is_empty(), "spill outside a step");
        self.spill.extend(nodes.iter().map(|u| u.0));
    }

    /// Mutable access to the most recent step's payload, for amending it
    /// after `begin` (e.g. flagging a later spill).
    pub fn last_payload_mut(&mut self) -> Option<&mut S> {
        self.steps.last_mut().map(|m| &mut m.payload)
    }

    /// The value logs of the most recent step, in logging order (`None` on
    /// an empty journal): the slots a step wrote, for a caller that keeps a
    /// *redo* copy of the step by reading each slot's new value.
    pub fn top(&self) -> Option<StepLogs<'_>> {
        let mark = self.steps.last()?;
        Some(StepLogs {
            u64s: &self.u64s[mark.u64s as usize..],
            u32s: &self.u32s[mark.u32s as usize..],
            words: &self.words[mark.words as usize..],
        })
    }

    /// Pops the most recent step: replays its `u64`, `u32`, flip and word
    /// logs, each in reverse logging order, through the callbacks, hands the
    /// (possibly empty) spill slice to `on_spill`, truncates the step and
    /// returns its payload. `None` when the journal is empty.
    pub fn pop_with(
        &mut self,
        mut on_u64: impl FnMut(usize, u64),
        mut on_u32: impl FnMut(usize, u32),
        mut on_flip: impl FnMut(usize),
        mut on_word: impl FnMut(usize, u64),
        on_spill: impl FnOnce(&[u32]),
    ) -> Option<S> {
        let mark = self.steps.pop()?;
        for &(slot, old) in self.u64s[mark.u64s as usize..].iter().rev() {
            on_u64(slot as usize, old);
        }
        for &(slot, old) in self.u32s[mark.u32s as usize..].iter().rev() {
            on_u32(slot as usize, old);
        }
        for &slot in self.flips[mark.flips as usize..].iter().rev() {
            on_flip(slot as usize);
        }
        for &(word, old) in self.words[mark.words as usize..].iter().rev() {
            on_word(word as usize, old);
        }
        on_spill(&self.spill[mark.spill as usize..]);
        self.u64s.truncate(mark.u64s as usize);
        self.u32s.truncate(mark.u32s as usize);
        self.flips.truncate(mark.flips as usize);
        self.spill.truncate(mark.spill as usize);
        self.words.truncate(mark.words as usize);
        Some(mark.payload)
    }
}

impl<S: Copy> Default for StepJournal<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct P(u32);

    #[test]
    fn lifo_replay_restores_first_logged_values() {
        let mut j: StepJournal<P> = StepJournal::new();
        let mut arr = [10u64, 20, 30];

        j.begin(P(1));
        j.log_u64(0, arr[0]);
        arr[0] = 11;
        j.log_u64(0, arr[0]); // same slot twice in one step
        arr[0] = 12;
        j.log_u64(2, arr[2]);
        arr[2] = 31;

        j.begin(P(2));
        j.log_u64(1, arr[1]);
        arr[1] = 21;

        assert_eq!(j.depth(), 2);
        let p = j
            .pop_with(|s, old| arr[s] = old, |_, _| {}, |_| {}, |_, _| {}, |_| {})
            .unwrap();
        assert_eq!(p, P(2));
        assert_eq!(arr, [12, 20, 31]);

        let p = j
            .pop_with(|s, old| arr[s] = old, |_, _| {}, |_| {}, |_, _| {}, |_| {})
            .unwrap();
        assert_eq!(p, P(1));
        assert_eq!(arr, [10, 20, 30], "reverse replay restores first-logged");
        assert!(j.is_empty());
        assert!(j
            .pop_with(|_, _| {}, |_, _| {}, |_| {}, |_, _| {}, |_| {})
            .is_none());
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        let mut j: StepJournal<P> = StepJournal::new();
        let original = 0.1f64 + 0.2; // an inexact value
        let mut x = original;
        j.begin(P(0));
        j.log_f64(0, x);
        x = 999.0;
        j.pop_with(
            |_, old| x = f64::from_bits(old),
            |_, _| {},
            |_| {},
            |_, _| {},
            |_| {},
        )
        .unwrap();
        assert_eq!(x.to_bits(), original.to_bits());
    }

    #[test]
    fn flips_and_spill() {
        let mut j: StepJournal<P> = StepJournal::new();
        let mut flags = [false, true, false];
        let chain = [NodeId::new(4), NodeId::new(7)];

        j.begin(P(9));
        j.log_flip(0);
        flags[0] = true;
        j.log_flip(1);
        flags[1] = false;
        j.spill_nodes(&chain);

        let mut restored = Vec::new();
        j.pop_with(
            |_, _| {},
            |_, _| {},
            |s| flags[s] = !flags[s],
            |_, _| {},
            |spill| restored.extend(spill.iter().map(|&v| NodeId(v))),
        )
        .unwrap();
        assert_eq!(flags, [false, true, false]);
        assert_eq!(restored, chain);
    }

    #[test]
    fn word_logs_restore_bitset_words() {
        let mut j: StepJournal<P> = StepJournal::new();
        let mut words = [0xffff_ffff_ffff_ffffu64, 0x0f0f];
        j.begin(P(1));
        j.log_word(0, words[0]);
        words[0] = 0;
        j.log_word(1, words[1]);
        words[1] = 0;
        j.begin(P(2));
        j.log_word(0, words[0]);
        words[0] = 7;
        j.pop_with(
            |_, _| {},
            |_, _| {},
            |_| {},
            |w, old| words[w] = old,
            |_| {},
        )
        .unwrap();
        assert_eq!(words, [0, 0]);
        j.pop_with(
            |_, _| {},
            |_, _| {},
            |_| {},
            |w, old| words[w] = old,
            |_| {},
        )
        .unwrap();
        assert_eq!(words, [0xffff_ffff_ffff_ffff, 0x0f0f]);
    }

    #[test]
    fn clear_discards_everything() {
        let mut j: StepJournal<P> = StepJournal::new();
        j.begin(P(0));
        j.log_u32(5, 55);
        j.clear();
        assert!(j.is_empty());
        assert!(j
            .pop_with(|_, _| {}, |_, _| {}, |_| {}, |_, _| {}, |_| {})
            .is_none());
    }
}
