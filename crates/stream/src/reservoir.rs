//! Reservoir sampling — the `f1` (uniform random edge) emulator for
//! insertion-only streams (Theorem 9) and the relaxed-`f3` neighbor
//! sampler of the insertion executors.
//!
//! A size-1 reservoir keeps each stream item with probability `1/t` at the
//! `t`-th arrival, so after a full pass every item is retained with
//! probability exactly `1/len`. This costs `O(log n)` bits per sampler,
//! which is where Theorem 9's `O(q log n)` total comes from (one sampler
//! per `f1` query in the round's batch).
//!
//! ## Per-offer vs skip-ahead
//!
//! The textbook loop ([`ReservoirMode::Offer`]) draws one coin per offer:
//! a pass over `m` items through a `k`-sampler bank costs `Θ(k·m)` RNG
//! draws, which is what left blocked insertion passes at parity in the
//! feed-path rework (reservoir offers dominated). But for a size-1
//! reservoir the *gap to the next acceptance* has a closed form: after an
//! acceptance at offer `t`, the probability that the next `j` offers all
//! lose is `∏_{i=t+1}^{t+j} (1 - 1/i) = t/(t+j)`, so one open-interval
//! uniform `u` inverts it exactly — the next winning offer is
//! `t + floor(t/u) - t + 1 = floor(t/u) + 1` (integer inverse transform,
//! no `ln`, no rejection). [`ReservoirMode::Skip`] precomputes that
//! `next_accept` index and turns every non-winning offer into a countdown
//! compare; a sampler draws only `O(log m)` coins per pass (the expected
//! number of acceptances over `m` offers is the harmonic number `H_m`).
//!
//! The two modes consume *different* RNG sequences, so they are
//! distribution-equivalent rather than byte-identical — the winning index
//! is uniform either way (pinned by chi-square tests here and in
//! `tests/reservoir_equivalence.rs`), and `seen()` accounting is exact in
//! both. The per-offer mode is kept as the statistical oracle
//! (`sgs-query`'s `PassOpts` threads the choice end to end).
//!
//! [`ReservoirBank`] stores its samplers struct-of-arrays — contiguous
//! `next_accept` / `seen` / `current` planes, mirroring the ℓ₀ bank's SoA
//! design — so the router-fed hot path ([`ReservoirBank::offer_range`])
//! walks a contiguous lane range per delivery and the whole-bank block
//! path ([`ReservoirBank::offer_batch`]) is `O(k + accepts)` per block
//! instead of `O(k · block)`. Lanes that always receive offers together
//! (one pooled vertex group of the query router) can further be bound as
//! a **cohort** ([`ReservoirBank::bind_cohorts`]): the bank caches the
//! minimum pending `next_accept` per cohort, so a whole pooled range's
//! offer ([`ReservoirBank::offer_cohort`]) is a single clock-vs-minimum
//! compare — zero per-lane plane traffic until some lane is actually due,
//! which is what takes a router-fed pass from `O(k·m)` draws *and*
//! `O(k·m)` lane walks down to `O(m + accepts·cohort)` total work. The
//! cohort path is byte-identical to the per-lane skip walk (pure
//! bookkeeping; pinned by a unit test), so equivalence arguments only
//! ever compare the two acceptance schemes.
//!
//! ## Per-lane modes
//!
//! Lanes are independent, so one bank may mix modes
//! ([`ReservoirBank::from_lanes`]): each lane draws exactly the coins a
//! single-mode bank in its mode would. This is how one multiplexed pass
//! serves jobs that asked for different schemes. Binding splits each
//! pooled range only where the mode changes, so a range offer walks the
//! same-mode cohorts that tile it; an offer-mode cohort draws one coin
//! per lane on every offer. A bank whose lanes share one mode is a
//! uniform bank, with the single-mode path and persisted bytes.

use crate::hash::split_seed;
use crate::hash::FastRng;
use crate::persist::{
    frame, read_frame_of, Decoder, Encoder, PersistItem, PersistResult, KIND_RESERVOIR,
};

/// How a reservoir decides acceptances.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReservoirMode {
    /// One RNG draw per offer (`gen_range(0..seen) == 0`): the textbook
    /// loop and the repo's statistical oracle.
    Offer,
    /// One RNG draw per *acceptance*: the next winning offer index is
    /// precomputed by the exact integer inverse transform, every other
    /// offer is a countdown compare. Distribution-equivalent to `Offer`,
    /// `O(log m)` draws per pass instead of `O(m)`.
    #[default]
    Skip,
}

/// Exact skip-ahead gap: number of consecutive losing offers after an
/// acceptance at offer `t`, sampled by inverting `P(gap ≥ j) = t/(t+j)`
/// with one open-interval uniform: `gap = floor(t/u) - t`.
///
/// `u ∈ (0,1)` structurally ([`FastRng::gen_unit_f64`]), so the division
/// is always finite; the `f64 → u64` cast saturates, so a tiny `u` at a
/// huge `t` yields an effectively-infinite `next_accept` rather than
/// wrapping (the sampler simply never accepts again this pass, which is
/// exactly what such a draw means).
#[inline]
fn skip_gap(t: u64, u: f64) -> u64 {
    debug_assert!(u > 0.0 && u < 1.0, "u = {u} outside (0,1)");
    // t < 2^53 everywhere this workspace reaches, so `t as f64` is exact.
    ((t as f64 / u) as u64).saturating_sub(t)
}

/// Draw one coin and schedule the offer index of the next acceptance
/// after an acceptance at offer `t` — the single definition every skip
/// path (scalar sampler, range walk, cohort walk, whole-bank batch)
/// reschedules through, so the transform can never de-synchronize
/// between them. Consumes exactly one draw from `rng`; bank callers
/// count it in their `draws` tally.
#[inline]
fn schedule_next(t: u64, rng: &mut FastRng) -> u64 {
    t.saturating_add(skip_gap(t, rng.gen_unit_f64()))
        .saturating_add(1)
}

/// A single-item reservoir sampler over items of type `T`.
#[derive(Clone, Debug)]
pub struct ReservoirSampler<T> {
    rng: FastRng,
    mode: ReservoirMode,
    seen: u64,
    /// Skip mode: 1-based offer index of the next acceptance.
    next_accept: u64,
    current: Option<T>,
}

impl<T: Copy> ReservoirSampler<T> {
    /// Create an empty per-offer sampler with its own random stream.
    ///
    /// Stays [`ReservoirMode::Offer`] so the frozen reference executors
    /// (`sgs_query::reference`) keep their pre-skip RNG consumption
    /// byte-for-byte; new code picks explicitly via
    /// [`ReservoirSampler::with_mode`].
    pub fn new(seed: u64) -> Self {
        Self::with_mode(seed, ReservoirMode::Offer)
    }

    /// Create an empty sampler in the given mode.
    pub fn with_mode(seed: u64, mode: ReservoirMode) -> Self {
        ReservoirSampler {
            rng: FastRng::seed_from_u64(seed),
            mode,
            seen: 0,
            // The first offer is accepted with probability 1 in both
            // modes; skip mode encodes that directly and draws its first
            // gap only on that acceptance.
            next_accept: 1,
            current: None,
        }
    }

    /// Offer the next stream item.
    #[inline]
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        match self.mode {
            ReservoirMode::Offer => {
                if self.rng.gen_range(0..self.seen) == 0 {
                    self.current = Some(item);
                }
            }
            ReservoirMode::Skip => {
                if self.seen == self.next_accept {
                    self.current = Some(item);
                    self.next_accept = schedule_next(self.seen, &mut self.rng);
                }
            }
        }
    }

    /// The sampled item, uniform over everything offered (None if nothing
    /// was offered).
    pub fn sample(&self) -> Option<T> {
        self.current
    }

    /// How many items were offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// A contiguous lane range whose samplers always receive offers
/// together (one pooled vertex group of the router), plus the shared
/// offer clock and the minimum pending `next_accept` across its lanes.
/// The pair is what makes a cohort offer O(1): one compare against
/// `min_next`, no per-lane plane traffic until some lane is actually
/// due.
#[derive(Clone, Copy, Debug)]
struct Cohort {
    start: u32,
    end: u32,
    seen: u64,
    min_next: u64,
}

/// A bank of `k` independent single-item reservoirs filled in one pass —
/// the paper's "parallel" query batches (`k` independent `f1` queries
/// answered in the same pass) and the pooled relaxed-`f3` neighbor
/// samplers of the insertion executors.
///
/// Struct-of-arrays: the per-lane `next_accept`, `seen`, and `current`
/// planes are contiguous, so the countdown compares of
/// [`ReservoirBank::offer_range`] / [`ReservoirBank::offer_batch`] walk
/// adjacent memory and only accepting lanes touch their RNG state. For
/// router-fed pools, [`ReservoirBank::bind_cohorts`] +
/// [`ReservoirBank::offer_cohort`] collapse a whole pooled range's offer
/// to a single clock-vs-minimum compare.
#[derive(Clone, Debug)]
pub struct ReservoirBank<T> {
    /// Every lane's mode in a uniform bank (`lane_modes` empty).
    mode: ReservoirMode,
    /// A mixed bank's per-lane modes; empty when every lane runs `mode`.
    lane_modes: Vec<ReservoirMode>,
    rngs: Vec<FastRng>,
    seen: Vec<u64>,
    /// Skip mode: per-lane 1-based offer index of the next acceptance.
    /// Offer mode leaves the plane at its init value and never reads it.
    next_accept: Vec<u64>,
    current: Vec<Option<T>>,
    /// Cohorts (sorted by `start`, disjoint); empty unless
    /// [`ReservoirBank::bind_cohorts`] was called. Lanes inside a cohort
    /// keep their logical offer count in `Cohort::seen`; a skip-mode
    /// cohort's slots in the `seen` plane are not maintained per offer.
    cohorts: Vec<Cohort>,
    /// Lane start index → cohort id (`u32::MAX` = unbound).
    cohort_of_start: Vec<u32>,
    /// RNG draws consumed so far — *counted*, not estimated, so the bench
    /// and the acceptance criteria can report exact draws-per-pass.
    draws: u64,
}

impl<T: Copy> ReservoirBank<T> {
    /// `k` independent samplers, seeds derived from `seed`, default mode
    /// ([`ReservoirMode::Skip`]).
    pub fn new(k: usize, seed: u64) -> Self {
        Self::with_mode(k, seed, ReservoirMode::default())
    }

    /// `k` independent samplers in an explicit mode.
    pub fn with_mode(k: usize, seed: u64, mode: ReservoirMode) -> Self {
        Self::from_seeds((0..k).map(|i| split_seed(seed, i as u64)), mode)
    }

    /// One lane per seed, in iteration order. The executors seed lanes by
    /// *global batch slot* (`split_seed(pass_seed, slot)`), which is what
    /// keeps sharded and single-stream passes on identical coins — this
    /// constructor is that seam.
    pub fn from_seeds(seeds: impl IntoIterator<Item = u64>, mode: ReservoirMode) -> Self {
        Self::from_lanes(seeds.into_iter().map(|s| (s, mode)), mode)
    }

    /// One lane per `(seed, mode)`, in iteration order. When every lane
    /// runs one mode the bank is uniform in it — exactly
    /// [`ReservoirBank::from_seeds`]; `mode` is the mode of an empty bank.
    pub fn from_lanes(
        lanes: impl IntoIterator<Item = (u64, ReservoirMode)>,
        mut mode: ReservoirMode,
    ) -> Self {
        let (rngs, mut lane_modes): (Vec<FastRng>, Vec<ReservoirMode>) = lanes
            .into_iter()
            .map(|(seed, m)| (FastRng::seed_from_u64(seed), m))
            .unzip();
        if let Some(&first) = lane_modes.first() {
            if lane_modes.iter().all(|&m| m == first) {
                mode = first;
                lane_modes = Vec::new();
            }
        }
        let k = rngs.len();
        ReservoirBank {
            mode,
            lane_modes,
            rngs,
            seen: vec![0; k],
            next_accept: vec![1; k],
            current: vec![None; k],
            cohorts: Vec::new(),
            cohort_of_start: Vec::new(),
            draws: 0,
        }
    }

    /// Declare disjoint contiguous lane ranges that will only ever be
    /// offered items *together*, via [`ReservoirBank::offer_cohort`] with
    /// exactly these bounds (the router-fed shape: one range per vertex
    /// group). Each range becomes one cohort per maximal same-mode run of
    /// its lanes — one cohort in a uniform bank. Must be called on a fresh
    /// bank, before any offers.
    ///
    /// In skip mode a cohort offer is then O(1) — bump the cohort clock,
    /// compare against the cached minimum `next_accept` — and the
    /// per-lane planes are touched only when some lane is due
    /// (`O(cohort + accepts)` over a pass instead of
    /// `O(cohort · offers)`). In offer mode cohorts change nothing (the
    /// oracle's coins are per-offer by definition): a mixed bank's
    /// offer-mode cohorts take the per-lane oracle walk on every offer.
    pub fn bind_cohorts(&mut self, ranges: impl IntoIterator<Item = (u32, u32)>) {
        if self.lane_modes.is_empty() && self.mode != ReservoirMode::Skip {
            // Offer mode has no fast path to feed (every offer draws by
            // definition), so keep the bank cohort-free: offers go
            // through the per-lane oracle walk and `seen()` reads the
            // per-lane plane it maintains.
            return;
        }
        debug_assert!(
            self.seen.iter().all(|&s| s == 0) && self.cohorts.is_empty(),
            "cohorts must be bound before any offers"
        );
        self.cohort_of_start = vec![u32::MAX; self.len()];
        for (start, end) in ranges {
            debug_assert!((end as usize) <= self.len());
            debug_assert!(
                self.cohorts.last().is_none_or(|c| c.end <= start),
                "cohorts must arrive in ascending, disjoint order"
            );
            let mut s = start;
            while s < end {
                let mut e = end;
                if !self.lane_modes.is_empty() {
                    let m = self.lane_modes[s as usize];
                    e = s + 1;
                    while e < end && self.lane_modes[e as usize] == m {
                        e += 1;
                    }
                }
                self.cohort_of_start[s as usize] = self.cohorts.len() as u32;
                self.cohorts.push(Cohort {
                    start: s,
                    end: e,
                    seen: 0,
                    // All lanes start with next_accept = 1.
                    min_next: 1,
                });
                s = e;
            }
        }
    }

    /// Offer an item to the bound cohorts tiling exactly `start..end`.
    /// Falls back to [`ReservoirBank::offer_range`] when no cohort starts
    /// at `start` (an unbound range, or a uniform offer-mode bank, whose
    /// per-offer coin sequence is the oracle contract).
    #[inline]
    pub fn offer_cohort(&mut self, start: usize, end: usize, item: T) {
        let Some(&c) = self.cohort_of_start.get(start) else {
            return self.offer_range(start, end, item);
        };
        if c == u32::MAX {
            return self.offer_range(start, end, item);
        }
        let mut c = c as usize;
        loop {
            let co = &mut self.cohorts[c];
            debug_assert!(
                co.end as usize <= end,
                "offer_cohort({start}..{end}) splits a cohort"
            );
            co.seen += 1;
            let (lo, hi, t, min_next) = (co.start as usize, co.end as usize, co.seen, co.min_next);
            if self.lane_mode(lo) == ReservoirMode::Offer {
                // Per-lane `seen` advances in step with the cohort clock,
                // so these are the coins of `offer_range`.
                self.offer_lanes(ReservoirMode::Offer, lo, hi, item);
            } else {
                debug_assert!(t <= min_next, "cohort clock ran past min_next");
                if t == min_next {
                    self.cohort_walk(c, item);
                }
            }
            if hi >= end {
                return;
            }
            c += 1;
        }
    }

    /// Slow path of a skip-mode cohort offer: at least one lane's
    /// `next_accept` is due at the current cohort clock. Walk the lanes
    /// once — accept and reschedule the due ones, recompute the cached
    /// minimum.
    #[cold]
    fn cohort_walk(&mut self, c: usize, item: T) {
        let Cohort {
            start,
            end,
            seen: t,
            ..
        } = self.cohorts[c];
        let mut min_next = u64::MAX;
        for lane in start as usize..end as usize {
            if self.next_accept[lane] == t {
                self.current[lane] = Some(item);
                self.draws += 1;
                self.next_accept[lane] = schedule_next(t, &mut self.rngs[lane]);
            }
            min_next = min_next.min(self.next_accept[lane]);
        }
        self.cohorts[c].min_next = min_next;
    }

    /// Lane `lane`'s acceptance mode.
    #[inline]
    pub fn lane_mode(&self, lane: usize) -> ReservoirMode {
        if self.lane_modes.is_empty() {
            self.mode
        } else {
            self.lane_modes[lane]
        }
    }

    /// Slow path of a skip-mode acceptance: record the win, redraw the
    /// gap. Out of line so the countdown loops stay a compare + add per
    /// lane.
    #[cold]
    fn accept(&mut self, lane: usize, item: T) {
        self.current[lane] = Some(item);
        let t = self.seen[lane];
        self.draws += 1;
        self.next_accept[lane] = schedule_next(t, &mut self.rngs[lane]);
    }

    /// Offer an item to the contiguous lane range `start..end` — the
    /// router-fed hot path (one pooled vertex group per delivery). Skip
    /// mode pays a countdown compare per lane; only lanes whose
    /// `next_accept` is due take the acceptance slow path.
    #[inline]
    pub fn offer_range(&mut self, start: usize, end: usize, item: T) {
        // Cohort-bound lanes keep their clock in the cohort, not the
        // per-lane `seen` plane — offering them through the per-lane
        // path would schedule acceptances against a stale clock and
        // silently bias the sampler. Make the contract violation loud
        // (debug builds; cohort counts are small in every test).
        debug_assert!(
            self.cohorts
                .iter()
                .all(|c| end <= c.start as usize || c.end as usize <= start),
            "offer_range({start}..{end}) overlaps a bound cohort — use offer_cohort"
        );
        if !self.lane_modes.is_empty() {
            for lane in start..end {
                self.offer_lanes(self.lane_modes[lane], lane, lane + 1, item);
            }
            return;
        }
        self.offer_lanes(self.mode, start, end, item);
    }

    /// [`ReservoirBank::offer_range`] over lanes that all run `mode`.
    #[inline]
    fn offer_lanes(&mut self, mode: ReservoirMode, start: usize, end: usize, item: T) {
        match mode {
            ReservoirMode::Offer => {
                for lane in start..end {
                    let s = self.seen[lane] + 1;
                    self.seen[lane] = s;
                    self.draws += 1;
                    if self.rngs[lane].gen_range(0..s) == 0 {
                        self.current[lane] = Some(item);
                    }
                }
            }
            ReservoirMode::Skip => {
                // Two-phase countdown: a branchless increment+compare
                // scan over the contiguous planes (autovectorizes — no
                // call, no branch, an OR-reduction for "anyone due"),
                // then a fix-up walk only when some lane actually
                // accepts. Late in a pass acceptances are ~1/seen per
                // lane, so the fix-up is rare and the common case is the
                // pure lane scan.
                let seen = &mut self.seen[start..end];
                let next = &self.next_accept[start..end];
                let mut any_due = false;
                for (s, &na) in seen.iter_mut().zip(next) {
                    *s += 1;
                    any_due |= *s == na;
                }
                if any_due {
                    for lane in start..end {
                        if self.seen[lane] == self.next_accept[lane] {
                            self.accept(lane, item);
                        }
                    }
                }
            }
        }
    }

    /// Offer an item to a single lane.
    #[inline]
    pub fn offer_one(&mut self, lane: usize, item: T) {
        self.offer_range(lane, lane + 1, item);
    }

    /// Offer an item to every sampler.
    #[inline]
    pub fn offer(&mut self, item: T) {
        self.offer_range(0, self.len(), item);
    }

    /// Offer a whole block of items to every sampler — the Theorem-9
    /// `f1`-bank fast path. Skip mode is `O(k + accepts)` per block: a
    /// lane whose `next_accept` lands past the block costs one compare
    /// and one add for the *entire* block; only winning lanes index into
    /// `items`. Offer mode replays the per-offer oracle lane-outer
    /// (lanes own independent RNG streams, so lane-outer and item-outer
    /// orders consume identical coins per lane).
    pub fn offer_batch(&mut self, items: &[T]) {
        // See offer_range: whole-bank offers and cohort clocks don't mix.
        debug_assert!(
            self.cohorts.is_empty(),
            "offer_batch on a cohort-bound bank — use offer_cohort per pooled range"
        );
        debug_assert!(
            self.lane_modes.is_empty(),
            "offer_batch on a mixed-mode bank"
        );
        let l = items.len() as u64;
        match self.mode {
            ReservoirMode::Offer => {
                for lane in 0..self.rngs.len() {
                    let mut s = self.seen[lane];
                    for &item in items {
                        s += 1;
                        self.draws += 1;
                        if self.rngs[lane].gen_range(0..s) == 0 {
                            self.current[lane] = Some(item);
                        }
                    }
                    self.seen[lane] = s;
                }
            }
            ReservoirMode::Skip => {
                for lane in 0..self.rngs.len() {
                    let base = self.seen[lane];
                    let end = base + l;
                    let mut na = self.next_accept[lane];
                    while na <= end {
                        self.current[lane] = Some(items[(na - base - 1) as usize]);
                        self.draws += 1;
                        na = schedule_next(na, &mut self.rngs[lane]);
                    }
                    self.next_accept[lane] = na;
                    self.seen[lane] = end;
                }
            }
        }
    }

    /// Lane `lane`'s sampled item.
    pub fn sample(&self, lane: usize) -> Option<T> {
        self.current[lane]
    }

    /// Borrowing view of all samples, one per reservoir in lane order —
    /// no allocation, unlike [`ReservoirBank::samples`].
    pub fn samples_iter(&self) -> impl Iterator<Item = Option<T>> + '_ {
        self.current.iter().copied()
    }

    /// Samples, one per reservoir (allocates; prefer
    /// [`ReservoirBank::samples_iter`] on hot paths).
    pub fn samples(&self) -> Vec<Option<T>> {
        self.samples_iter().collect()
    }

    /// How many items lane `lane` has been offered. Cohort-bound lanes
    /// read their cohort's shared clock (their slot in the per-lane
    /// plane is not maintained per offer).
    pub fn seen(&self, lane: usize) -> u64 {
        if !self.cohorts.is_empty() {
            // Cohorts are sorted by start; find the last starting <= lane.
            let i = self.cohorts.partition_point(|c| c.start as usize <= lane);
            if i > 0 {
                let co = &self.cohorts[i - 1];
                if (lane as u32) < co.end {
                    return co.seen;
                }
            }
        }
        self.seen[lane]
    }

    /// Every lane's offer count, in lane order (cohort clocks expanded).
    pub fn seen_counts(&self) -> Vec<u64> {
        (0..self.len()).map(|lane| self.seen(lane)).collect()
    }

    /// RNG draws consumed so far (offer mode: one per offer; skip mode:
    /// one per acceptance).
    pub fn rng_draws(&self) -> u64 {
        self.draws
    }

    /// Number of samplers.
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// Whether the bank has no samplers.
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }

    /// Serialize the bank's evolving state as one framed, checksummed
    /// record: per-lane RNG state, offer clocks, pending acceptances and
    /// kept items, plus the cohort clocks and the draw tally. Lane
    /// *geometry* (count, mode, cohort bounds) is encoded too, but only
    /// as a cross-check: restore applies onto a freshly constructed and
    /// cohort-bound bank and rejects any mismatch.
    ///
    /// Only uniform banks are snapshotted: the format holds one mode, and
    /// the one pass that mixes modes — a multiplexed round — is never
    /// checkpointed.
    pub fn to_persist_bytes(&self) -> Vec<u8>
    where
        T: PersistItem,
    {
        debug_assert!(
            self.lane_modes.is_empty(),
            "mixed-mode banks are never snapshotted"
        );
        let mut enc = Encoder::new();
        enc.u8(match self.mode {
            ReservoirMode::Offer => 0,
            ReservoirMode::Skip => 1,
        });
        enc.u64(self.len() as u64);
        for lane in 0..self.len() {
            for w in self.rngs[lane].state() {
                enc.u64(w);
            }
            enc.u64(self.seen[lane]);
            enc.u64(self.next_accept[lane]);
            match self.current[lane] {
                Some(item) => {
                    enc.u8(1);
                    item.encode_item(&mut enc);
                }
                None => enc.u8(0),
            }
        }
        enc.u64(self.cohorts.len() as u64);
        for c in &self.cohorts {
            enc.u32(c.start);
            enc.u32(c.end);
            enc.u64(c.seen);
            enc.u64(c.min_next);
        }
        enc.u64(self.draws);
        frame(KIND_RESERVOIR, &enc.into_bytes())
    }

    /// Restore state written by [`ReservoirBank::to_persist_bytes`] onto
    /// `self`, which must be a bank of identical geometry (same lane
    /// count, mode, and cohort bounds — i.e. constructed and bound the
    /// way the snapshotted bank was). Corrupt input or a geometry
    /// mismatch errors without modifying lane invariants it has already
    /// validated past; it never panics.
    pub fn restore_from_persist_bytes(&mut self, bytes: &[u8]) -> PersistResult<()>
    where
        T: PersistItem,
    {
        let f = read_frame_of(bytes, 0, KIND_RESERVOIR)?;
        let mut dec = Decoder::new(f.payload);
        let mode = match dec.u8("reservoir mode")? {
            0 => ReservoirMode::Offer,
            1 => ReservoirMode::Skip,
            m => return Err(dec.corrupt(format!("unknown reservoir mode {m}"))),
        };
        if mode != self.mode {
            return Err(dec.corrupt(format!(
                "snapshot mode {mode:?} does not match bank mode {:?}",
                self.mode
            )));
        }
        let lanes = dec.count(4 * 8 + 8 + 8 + 1, "lane count")?;
        if lanes != self.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {lanes} lanes, bank has {}",
                self.len()
            )));
        }
        let mut rngs = Vec::with_capacity(lanes);
        let mut seen = Vec::with_capacity(lanes);
        let mut next_accept = Vec::with_capacity(lanes);
        let mut current = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let mut state = [0u64; 4];
            for w in &mut state {
                *w = dec.u64("rng state word")?;
            }
            if state == [0; 4] {
                return Err(dec.corrupt(format!("lane {lane}: all-zero RNG state")));
            }
            rngs.push(FastRng::from_state(state));
            seen.push(dec.u64("seen clock")?);
            next_accept.push(dec.u64("next_accept")?);
            current.push(match dec.u8("item tag")? {
                0 => None,
                1 => Some(T::decode_item(&mut dec)?),
                t => return Err(dec.corrupt(format!("unknown item tag {t}"))),
            });
        }
        let ncoh = dec.count(4 + 4 + 8 + 8, "cohort count")?;
        if ncoh != self.cohorts.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {ncoh} cohorts, bank has {}",
                self.cohorts.len()
            )));
        }
        let mut cohorts = Vec::with_capacity(ncoh);
        for (i, bound) in self.cohorts.iter().enumerate() {
            let (start, end) = (dec.u32("cohort start")?, dec.u32("cohort end")?);
            if start != bound.start || end != bound.end {
                return Err(dec.corrupt(format!(
                    "cohort {i} bounds {start}..{end} do not match bank bounds {}..{}",
                    bound.start, bound.end
                )));
            }
            cohorts.push(Cohort {
                start,
                end,
                seen: dec.u64("cohort seen")?,
                min_next: dec.u64("cohort min_next")?,
            });
        }
        let draws = dec.u64("draw tally")?;
        dec.finish()?;
        self.rngs = rngs;
        self.seen = seen;
        self.next_accept = next_accept;
        self.current = current;
        self.cohorts = cohorts;
        self.draws = draws;
        Ok(())
    }

    /// Semantic per-pass footprint: RNG state + the three SoA planes,
    /// plus a mixed bank's mode plane and the cohort clocks when bound.
    pub fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        self.len() * (size_of::<FastRng>() + 2 * size_of::<u64>() + size_of::<Option<T>>())
            + self.lane_modes.len() * size_of::<ReservoirMode>()
            + self.cohorts.len() * size_of::<Cohort>()
            + self.cohort_of_start.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reservoir_returns_none() {
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let r: ReservoirSampler<u32> = ReservoirSampler::with_mode(1, mode);
            assert!(r.sample().is_none());
        }
    }

    #[test]
    fn single_item_always_kept() {
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let mut r = ReservoirSampler::with_mode(2, mode);
            r.offer(7u32);
            assert_eq!(r.sample(), Some(7), "{mode:?}");
            assert_eq!(r.seen(), 1);
        }
    }

    #[test]
    fn distribution_is_close_to_uniform_both_modes() {
        // 10 items, many independent samplers: each item should win
        // ~1/10 of the time — in the per-offer oracle AND the skip-ahead
        // rework (whose RNG sequence is entirely different).
        let n_items = 10u32;
        let trials = 20_000;
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let mut wins = vec![0u32; n_items as usize];
            for t in 0..trials {
                let mut r = ReservoirSampler::with_mode(split_seed(0xabc, t), mode);
                for i in 0..n_items {
                    r.offer(i);
                }
                wins[r.sample().unwrap() as usize] += 1;
            }
            let expect = trials as f64 / n_items as f64;
            for (i, &w) in wins.iter().enumerate() {
                let dev = (w as f64 - expect).abs() / expect;
                assert!(dev < 0.15, "{mode:?} item {i}: {w} wins vs {expect}");
            }
        }
    }

    #[test]
    fn skip_winner_chi_square_uniform() {
        // Stronger than the per-item deviation check: an aggregate
        // chi-square statistic over the winning index. 40 cells, 40k
        // trials → E[chi2] = 39; 99.9th percentile ≈ 73.
        let n_items = 40usize;
        let trials = 40_000u64;
        let mut wins = vec![0u64; n_items];
        for t in 0..trials {
            let mut r = ReservoirSampler::with_mode(split_seed(0x5c1, t), ReservoirMode::Skip);
            for i in 0..n_items as u32 {
                r.offer(i);
            }
            wins[r.sample().unwrap() as usize] += 1;
        }
        let expect = trials as f64 / n_items as f64;
        let chi2: f64 = wins
            .iter()
            .map(|&w| {
                let d = w as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 73.0, "chi2 {chi2:.1} over {n_items} cells");
    }

    #[test]
    fn offer_mode_bank_matches_scalar_samplers_byte_for_byte() {
        // The SoA bank in offer mode must consume exactly the coins the
        // old Vec<ReservoirSampler> did — that is what keeps the
        // `--reservoir offer` oracle path byte-identical to the frozen
        // reference executors.
        let seeds: Vec<u64> = (0..17).map(|i| split_seed(0xb0b, i)).collect();
        let mut bank: ReservoirBank<u32> =
            ReservoirBank::from_seeds(seeds.iter().copied(), ReservoirMode::Offer);
        let mut scalars: Vec<ReservoirSampler<u32>> =
            seeds.iter().map(|&s| ReservoirSampler::new(s)).collect();
        for i in 0..300u32 {
            if i % 3 == 0 {
                bank.offer(i);
                for s in &mut scalars {
                    s.offer(i);
                }
            } else {
                // Partial-range offers (the router-fed shape).
                let (a, b) = ((i as usize * 5) % 17, 17);
                bank.offer_range(a.min(b), b, i);
                for s in &mut scalars[a.min(b)..b] {
                    s.offer(i);
                }
            }
        }
        for (lane, s) in scalars.iter().enumerate() {
            assert_eq!(bank.sample(lane), s.sample(), "lane {lane}");
            assert_eq!(bank.seen(lane), s.seen(), "lane {lane}");
        }
    }

    #[test]
    fn seen_accounting_identical_across_modes_at_every_prefix() {
        let mut offer: ReservoirBank<u32> = ReservoirBank::with_mode(8, 3, ReservoirMode::Offer);
        let mut skip: ReservoirBank<u32> = ReservoirBank::with_mode(8, 3, ReservoirMode::Skip);
        for i in 0..500u32 {
            let lane = (i as usize * 7) % 8;
            offer.offer_one(lane, i);
            skip.offer_one(lane, i);
            assert_eq!(offer.seen_counts(), skip.seen_counts(), "prefix {i}");
        }
    }

    #[test]
    fn offer_batch_matches_offer_loop_exactly_per_mode() {
        // Within a fixed mode, the blocked path must be byte-identical to
        // the scalar loop (it only restructures when coins are drawn per
        // lane, never which lane draws or how many).
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let items: Vec<u32> = (0..997).collect();
            let mut scalar: ReservoirBank<u32> = ReservoirBank::with_mode(64, 9, mode);
            let mut blocked: ReservoirBank<u32> = ReservoirBank::with_mode(64, 9, mode);
            for &it in &items {
                scalar.offer(it);
            }
            for chunk in items.chunks(37) {
                blocked.offer_batch(chunk);
            }
            assert_eq!(scalar.samples(), blocked.samples(), "{mode:?}");
            assert_eq!(scalar.seen_counts(), blocked.seen_counts(), "{mode:?}");
            assert_eq!(scalar.rng_draws(), blocked.rng_draws(), "{mode:?}");
        }
    }

    #[test]
    fn skip_mode_draw_count_is_logarithmic() {
        let m = 100_000u32;
        let k = 16usize;
        let mut offer: ReservoirBank<u32> = ReservoirBank::with_mode(k, 4, ReservoirMode::Offer);
        let mut skip: ReservoirBank<u32> = ReservoirBank::with_mode(k, 4, ReservoirMode::Skip);
        let items: Vec<u32> = (0..m).collect();
        offer.offer_batch(&items);
        skip.offer_batch(&items);
        assert_eq!(offer.rng_draws(), k as u64 * m as u64, "oracle draws k·m");
        // E[draws per lane] = H_m ≈ ln(m) + γ ≈ 12.1; allow 3× headroom.
        let per_lane = skip.rng_draws() as f64 / k as f64;
        let h_m = (m as f64).ln() + 0.5772;
        assert!(
            per_lane < 3.0 * h_m,
            "skip draws/lane {per_lane:.1} vs H_m {h_m:.1}"
        );
        assert!(per_lane >= 1.0, "at least the first acceptance per lane");
    }

    #[test]
    fn acceptance_count_distribution_matches_oracle() {
        // The number of acceptances over m offers has mean H_m in both
        // modes (it is the same acceptance-set law); compare empirical
        // means across many independently seeded lanes.
        let m = 2_000u32;
        let lanes = 400usize;
        let items: Vec<u32> = (0..m).collect();
        let mean_accepts = |mode| {
            let mut bank: ReservoirBank<u32> = ReservoirBank::with_mode(lanes, 0xacc, mode);
            bank.offer_batch(&items);
            // Offer mode draws every offer; count acceptances by replay
            // instead: infer from draws only in skip mode. For a
            // mode-agnostic count, re-run scalar samplers and count
            // sample *changes* — cheap at this size.
            let mut accepts = 0u64;
            for lane in 0..lanes {
                let mut r: ReservoirSampler<u32> =
                    ReservoirSampler::with_mode(split_seed(0xacc, lane as u64), mode);
                let mut last = None;
                for &it in &items {
                    r.offer(it);
                    // Count an acceptance whenever the kept item changes;
                    // items are distinct, so every acceptance changes it.
                    if r.sample() != last {
                        accepts += 1;
                        last = r.sample();
                    }
                }
                assert_eq!(r.sample(), bank.sample(lane), "lane {lane} {mode:?}");
            }
            accepts as f64 / lanes as f64
        };
        let h_m: f64 = (1..=m as u64).map(|i| 1.0 / i as f64).sum();
        let offer = mean_accepts(ReservoirMode::Offer);
        let skip = mean_accepts(ReservoirMode::Skip);
        // Std of the per-lane count is ~sqrt(H_m) ≈ 2.9, so the mean of
        // 400 lanes has std ≈ 0.15; 4σ gates.
        assert!(
            (offer - h_m).abs() < 0.6,
            "offer mean {offer:.2} vs {h_m:.2}"
        );
        assert!((skip - h_m).abs() < 0.6, "skip mean {skip:.2} vs {h_m:.2}");
    }

    #[test]
    fn bank_samplers_are_independent() {
        let mut bank = ReservoirBank::new(64, 5);
        for i in 0..100u32 {
            bank.offer(i);
        }
        let samples: Vec<u32> = bank.samples_iter().map(Option::unwrap).collect();
        // With 64 samplers over 100 items, at least two differ almost surely.
        assert!(samples.iter().any(|&s| s != samples[0]));
        assert_eq!(bank.len(), 64);
        assert_eq!(bank.samples(), bank.samples_iter().collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_given_seed() {
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let run = |seed| {
                let mut r = ReservoirSampler::with_mode(seed, mode);
                for i in 0..50u32 {
                    r.offer(i);
                }
                r.sample()
            };
            assert_eq!(run(9), run(9), "{mode:?}");
        }
    }

    #[test]
    fn duplicate_heavy_and_single_update_streams() {
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            // All offers identical: the sample must be that item and seen
            // must count every duplicate.
            let mut r = ReservoirSampler::with_mode(11, mode);
            for _ in 0..1000 {
                r.offer(42u32);
            }
            assert_eq!(r.sample(), Some(42), "{mode:?}");
            assert_eq!(r.seen(), 1000);
            // Single-offer bank.
            let mut bank: ReservoirBank<u32> = ReservoirBank::with_mode(5, 12, mode);
            bank.offer_batch(&[9]);
            assert!(bank.samples_iter().all(|s| s == Some(9)), "{mode:?}");
            assert!(bank.seen_counts().iter().all(|&s| s == 1));
        }
    }

    #[test]
    fn cohort_fast_path_is_byte_identical_to_lane_ranges() {
        // The cohort short-circuit is pure bookkeeping: per-lane
        // next_accept scheduling, draw times, and draw order are exactly
        // those of the per-lane skip walk, so a cohort-fed bank must
        // match a range-fed bank bit for bit (samples, seen, and draw
        // counts) — and in offer mode offer_cohort must fall back to the
        // per-offer oracle unchanged.
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            // Three cohorts of different sizes plus an unbound tail lane.
            let cohorts = [(0u32, 5u32), (5, 6), (6, 14)];
            let mut by_cohort: ReservoirBank<u32> = ReservoirBank::with_mode(15, 0xc0, mode);
            let mut by_range: ReservoirBank<u32> = ReservoirBank::with_mode(15, 0xc0, mode);
            by_cohort.bind_cohorts(cohorts.iter().copied());
            for i in 0..4000u32 {
                let (s, e) = cohorts[(i % 3) as usize];
                by_cohort.offer_cohort(s as usize, e as usize, i);
                by_range.offer_range(s as usize, e as usize, i);
                if i % 7 == 0 {
                    // The unbound lane goes through the plain path in
                    // both banks (offer_cohort falls back).
                    by_cohort.offer_cohort(14, 15, i);
                    by_range.offer_range(14, 15, i);
                }
            }
            assert_eq!(by_cohort.samples(), by_range.samples(), "{mode:?}");
            assert_eq!(by_cohort.seen_counts(), by_range.seen_counts(), "{mode:?}");
            assert_eq!(by_cohort.rng_draws(), by_range.rng_draws(), "{mode:?}");
        }
    }

    #[test]
    fn mixed_mode_bank_matches_single_mode_banks_lane_for_lane() {
        // Lanes are independent: a mixed bank fed through offer_cohort
        // must reproduce, lane for lane, single-mode banks holding the
        // same lanes and fed the same offers. The groups mix modes, so
        // binding splits them into same-mode cohorts; the last range is
        // left unbound and goes through the per-lane fallback.
        use ReservoirMode::{Offer, Skip};
        let modes = [
            Offer, Offer, Skip, Skip, Skip, Offer, Skip, Offer, Offer, Skip, Skip, Skip, Skip,
            Offer,
        ];
        let ranges = [(0u32, 5u32), (5, 8), (8, 12), (12, 14)];
        let groups = &ranges[..3];
        let seed = |lane: usize| split_seed(0x31d, lane as u64);
        let mut mixed: ReservoirBank<u32> =
            ReservoirBank::from_lanes((0..modes.len()).map(|l| (seed(l), modes[l])), Skip);
        mixed.bind_cohorts(groups.iter().copied());
        // Single-mode banks: each mode's lanes in lane order; `index[l]`
        // is lane `l`'s position in its own mode's bank.
        let lanes_of = |m| (0..modes.len()).filter(move |&l| modes[l] == m);
        let mut index = vec![0usize; modes.len()];
        for m in [Offer, Skip] {
            for (i, l) in lanes_of(m).enumerate() {
                index[l] = i;
            }
        }
        let sub = |m, (s, e): (u32, u32)| {
            let v: Vec<usize> = (s as usize..e as usize)
                .filter(|&l| modes[l] == m)
                .collect();
            v.first().map(|&a| (index[a], index[a] + v.len()))
        };
        let mut single: Vec<ReservoirBank<u32>> = [Offer, Skip]
            .into_iter()
            .map(|m| ReservoirBank::from_seeds(lanes_of(m).map(seed), m))
            .collect();
        single[1].bind_cohorts(
            groups
                .iter()
                .filter_map(|&g| sub(Skip, g))
                .map(|(a, b)| (a as u32, b as u32)),
        );
        for i in 0..3000u32 {
            let g = ranges[(i as usize * 7) % 4];
            mixed.offer_cohort(g.0 as usize, g.1 as usize, i);
            for (bank, m) in single.iter_mut().zip([Offer, Skip]) {
                if let Some((a, b)) = sub(m, g) {
                    bank.offer_cohort(a, b, i);
                }
            }
        }
        for (l, &m) in modes.iter().enumerate() {
            let bank = &single[(m == Skip) as usize];
            assert_eq!(mixed.lane_mode(l), m);
            assert_eq!(mixed.sample(l), bank.sample(index[l]), "lane {l}");
            assert_eq!(mixed.seen(l), bank.seen(index[l]), "lane {l}");
        }
        assert_eq!(
            mixed.rng_draws(),
            single[0].rng_draws() + single[1].rng_draws()
        );
        // A bank whose lanes share one mode is the uniform bank: same
        // bytes as `from_seeds`, whatever the empty-bank mode says.
        for m in [Offer, Skip] {
            let seeds = || (0..5).map(seed);
            let uniform: ReservoirBank<u64> =
                ReservoirBank::from_lanes(seeds().map(|s| (s, m)), Offer);
            let plain: ReservoirBank<u64> = ReservoirBank::from_seeds(seeds(), m);
            assert_eq!(
                uniform.to_persist_bytes(),
                plain.to_persist_bytes(),
                "{m:?}"
            );
        }
    }

    #[test]
    fn skip_gap_saturates_instead_of_wrapping() {
        // A tiny u at a huge t must push next_accept toward "never",
        // not wrap around to an early offer.
        let g = skip_gap(1 << 52, 0.5 * (1.0 / (1u64 << 53) as f64));
        assert!(g > 1 << 60, "gap {g} did not saturate high");
    }
}
