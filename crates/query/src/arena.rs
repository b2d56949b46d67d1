//! The **RouterArena**: pooled per-shard routing state, built once and
//! reset per pass.
//!
//! At short streams the per-round router build (pair-index inserts,
//! pooled-slot vectors) rivals the feed cost itself (ROADMAP
//! "Indexed-pass build cost"). The arena kills the rebuild *allocation*
//! half of that bill: each shard owns one [`QueryRouter`] plus the
//! sub-batch / slot-map / answer scratch the sharded executors need, all
//! reused round over round via [`QueryRouter::rebuild`] and `Vec::clear`.
//! After a warm-up run every per-round *router* rebuild is
//! allocation-free, and the arena proves it with a growth counter:
//! [`RouterArena::heap_bytes`] is sampled after every round, and any
//! increase while the arena is warm increments
//! [`RouterArena::growth_events_after_warmup`] (asserted zero by the
//! `sharded_equivalence` suite). Scope: the counter covers the pooled
//! routing state (routers, sub-batches, slot maps, answer scratch,
//! driver scratch) — the executors' model-specific sampler state
//! (reservoirs, ℓ₀ banks) is deliberately rebuilt per pass, because each
//! pass seeds it afresh and its cost is dominated by sketch updates, not
//! allocation.
//!
//! The arena also records per-shard feed durations for each pass —
//! the measurement `benches/sharded.rs` uses to report critical-path
//! (max-shard) wall clock, i.e. the pass latency of a deployment with one
//! core per shard.

use crate::query::{Answer, Query};
use crate::router::QueryRouter;

/// Pooled state for one feed shard.
#[derive(Default)]
pub(crate) struct ShardSlot {
    /// This shard's slice of the round's batch (vertex/edge-keyed
    /// queries whose routing key hashes here).
    pub(crate) sub_batch: Vec<Query>,
    /// `sub_batch` index → global batch slot.
    pub(crate) slot_map: Vec<u32>,
    /// The shard-private router over `sub_batch`.
    pub(crate) router: QueryRouter,
    /// Shard-local answer scratch, scattered through `slot_map` at merge.
    pub(crate) answers: Vec<Answer>,
    /// Nanoseconds this shard spent feeding its buffer, per pass of the
    /// current run (cleared by [`RouterArena::begin_run`]).
    pub(crate) pass_nanos: Vec<u64>,
}

impl ShardSlot {
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sub_batch.capacity() * size_of::<Query>()
            + self.slot_map.capacity() * size_of::<u32>()
            + self.router.heap_bytes()
            + self.answers.capacity() * size_of::<Answer>()
            + self.pass_nanos.capacity() * size_of::<u64>()
    }
}

/// Reusable routing state for a sharded (or single-shard) executor run:
/// build once, reset per pass, reuse across runs.
#[derive(Default)]
pub struct RouterArena {
    pub(crate) slots: Vec<ShardSlot>,
    /// Driver-side pooled scratch: `EdgeCount` slots, `RandomEdge` slots,
    /// and the centrally drawn `f1` position targets of the current pass.
    pub(crate) scratch_count: Vec<u32>,
    pub(crate) scratch_edge: Vec<u32>,
    pub(crate) scratch_targets: Vec<(u64, u32)>,
    /// Peak heap footprint observed so far.
    high_water: usize,
    /// Set once a full run has completed through this arena.
    warm: bool,
    /// Rounds whose rebuild grew the heap while the arena was warm.
    growth_after_warm: usize,
}

impl RouterArena {
    /// A fresh, cold arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure `shards` slots exist (never shrinks — a pool keeps its
    /// warmed buffers).
    pub(crate) fn ensure_shards(&mut self, shards: usize) {
        if self.slots.len() < shards {
            self.slots.resize_with(shards, ShardSlot::default);
        }
    }

    /// Start a run: clears per-run telemetry, leaves pooled buffers (and
    /// warm-up state) intact.
    pub(crate) fn begin_run(&mut self) {
        for s in &mut self.slots {
            s.pass_nanos.clear();
        }
    }

    /// Note the end of one round: samples the heap footprint and counts
    /// a growth event if a warm arena grew.
    pub(crate) fn note_round(&mut self) {
        let bytes = self.heap_bytes();
        if bytes > self.high_water {
            if self.warm {
                self.growth_after_warm += 1;
            }
            self.high_water = bytes;
        }
    }

    /// Note the end of a full run: the arena is warm from here on, and
    /// any later per-round growth on a same-shaped workload is a pooling
    /// regression.
    pub(crate) fn end_run(&mut self) {
        self.warm = true;
    }

    /// Total bytes of backing storage across every pooled buffer.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.iter().map(ShardSlot::heap_bytes).sum::<usize>()
            + self.scratch_count.capacity() * size_of::<u32>()
            + self.scratch_edge.capacity() * size_of::<u32>()
            + self.scratch_targets.capacity() * size_of::<(u64, u32)>()
    }

    /// Whether a full run has completed through this arena.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Rounds that grew the heap after the arena was warm. Zero for
    /// repeated same-shaped workloads — the debug counter behind the
    /// arena's no-per-round-allocation claim. (Growing is *legal* when a
    /// warm arena meets a genuinely bigger workload; the equivalence
    /// suite asserts zero for repeat runs.)
    pub fn growth_events_after_warmup(&self) -> usize {
        self.growth_after_warm
    }

    /// Per-shard feed nanoseconds of the most recent run, one inner
    /// vector per shard, one entry per pass. The critical-path wall
    /// clock of a one-core-per-shard deployment is
    /// `Σ_pass max_shard nanos[shard][pass]`; `benches/sharded.rs`
    /// reports exactly that.
    pub fn shard_pass_nanos(&self) -> Vec<Vec<u64>> {
        self.slots.iter().map(|s| s.pass_nanos.clone()).collect()
    }

    /// Drain the recorded per-shard pass durations, resetting them —
    /// what `benches/sharded.rs` calls between its warm-up and timed
    /// phases so critical-path numbers cover only timed iterations.
    pub fn take_shard_pass_nanos(&mut self) -> Vec<Vec<u64>> {
        self.slots
            .iter_mut()
            .map(|s| std::mem::take(&mut s.pass_nanos))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Model;
    use sgs_graph::VertexId;

    #[test]
    fn arena_tracks_growth_only_after_warmup() {
        let mut arena = RouterArena::new();
        arena.ensure_shards(2);
        let batch: Vec<Query> = (0..50u32).map(|i| Query::Degree(VertexId(i))).collect();

        // Cold run: growth is expected and not counted.
        arena.begin_run();
        arena.slots[0].router.rebuild(&batch, Model::Insertion);
        arena.note_round();
        arena.end_run();
        assert!(arena.is_warm());
        assert_eq!(arena.growth_events_after_warmup(), 0);
        let warmed = arena.heap_bytes();

        // Warm run, same shape: no growth events.
        arena.begin_run();
        arena.slots[0].router.rebuild(&batch, Model::Insertion);
        arena.note_round();
        arena.end_run();
        assert_eq!(arena.growth_events_after_warmup(), 0);
        assert_eq!(arena.heap_bytes(), warmed);

        // Warm run, much bigger shape: growth is counted.
        let big: Vec<Query> = (0..5000u32).map(|i| Query::Degree(VertexId(i))).collect();
        arena.begin_run();
        arena.slots[0].router.rebuild(&big, Model::Insertion);
        arena.note_round();
        assert_eq!(arena.growth_events_after_warmup(), 1);
    }

    #[test]
    fn ensure_shards_never_shrinks() {
        let mut arena = RouterArena::new();
        arena.ensure_shards(4);
        arena.slots[3].sub_batch.reserve(100);
        let bytes = arena.heap_bytes();
        arena.ensure_shards(2);
        assert_eq!(arena.slots.len(), 4);
        assert_eq!(arena.heap_bytes(), bytes);
    }
}
