//! Multi-query multiplexing: one shared pass serves many concurrent
//! queries.
//!
//! Every executor so far owns its passes — N concurrent round-adaptive
//! algorithms cost N full replays of the stream per round. But nothing a
//! pass computes couples one query to another: the router's FlatIndex is
//! query-agnostic, `f1` targets are drawn from per-pass coins, and every
//! sampler lane is seeded by its own batch slot. So a [`QuerySet`]
//! admission-batches arriving jobs (different patterns, trial counts,
//! reservoir modes, seeds) into **rounds**, concatenates each round's
//! per-job batches into one merged batch, builds ONE shared
//! QueryRouter/FlatIndex pass per round, and fans each delivery out to
//! every active job's sampler banks. N queries now cost `max_j rounds_j`
//! shared passes instead of `Σ_j rounds_j` private ones.
//!
//! **Per-job answers are byte-identical to solo runs** — at any shard
//! count, block size, and schedule — because the shared pass is the solo
//! shard pass ([`crate::sharded::ShardPass`]) over one seed run per
//! participant, which replays each job's private coin chain exactly:
//!
//! * a job's pass seed is `split_seed(job_seed, job_passes)` where
//!   `job_passes` counts only the rounds *this job* participates in —
//!   the same chain [`crate::sharded::run_sharded`] walks;
//! * `f1` targets are drawn per job from `FastRng(job_pass_seed)` in the
//!   job's own batch order — the exact coin sequence of its solo pass —
//!   then merged across jobs by position for cursor matching (hits
//!   scatter to disjoint slots, so merge order cannot leak between
//!   jobs);
//! * every sampler lane (reservoir or ℓ₀) is seeded by
//!   `split_seed(job_pass_seed, job_slot)` with `job_slot` the query's
//!   index in the **job's own** batch — solo seeding verbatim;
//! * every reservoir lane runs its job's own [`ReservoirMode`] inside one
//!   shared bank: per-lane reservoir state depends only on the lane
//!   seed, the lane's mode and the lane's offer sequence (never on
//!   bank-global lane order or on which lanes share a cohort —
//!   `reservoir.rs` pins this), and every lane of a shared vertex group
//!   is offered each delivery to that vertex, exactly as in its solo
//!   pass;
//! * turnstile ℓ₀-samplers are per-lane independent linear sketches, so
//!   the shared pass keeps flat banks aligned with the merged slot lists
//!   and merges across shards exactly like the solo sharded pass.
//!
//! `tests/multiplex_equivalence.rs` pins all of this (shards 1/2/4 ×
//! mixed query sets × insertion/turnstile × blocked/scalar × reservoir
//! offer/skip) against solo runs, which are themselves pinned to the
//! frozen reference executors.
//!
//! **Diagnostics.** Shared passes make one slow query everyone's
//! problem, so every run returns an [`AdmissionReport`]: per-round
//! participant lists and critical-path pass nanos (via the
//! [`RouterArena`]'s existing per-shard timing), per-job accumulated
//! pass nanos / lane counts, and — on the ring engine — the broadcast
//! producer's [`StallEvent`]s, so a stalled round names the consumer it
//! was blocked on.

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::broadcast::{drive_ring, BroadcastOpts};
use crate::exec::{PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::Model;
use crate::sharded::{run_shards, PassCtx, SeedRun, ShardPass};
use sgs_stream::broadcast::Broadcast;
use sgs_stream::hash::split_seed;
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::sharded::ShardedFeed;
use std::time::Duration;

pub use sgs_stream::broadcast::StallEvent;

/// Producer stalls longer than this are recorded as [`StallEvent`]s on
/// the ring engine — long enough to ignore scheduler jitter, short
/// enough to catch a consumer that is actually wedged.
const MUX_STALL_THRESHOLD: Duration = Duration::from_millis(10);

/// One admitted job: a round-adaptive algorithm plus the private
/// execution knobs a solo run would have owned.
struct MuxJob<A: RoundAdaptive> {
    alg: A,
    seed: u64,
    reservoir: ReservoirMode,
    /// Passes *this job* has participated in (its private pass chain).
    passes: u64,
    /// Answers to the job's previous batch, awaiting its next round.
    answers: Vec<Answer>,
    done: bool,
    report: ExecReport,
}

/// Per-round multiplexing stats: who rode the shared pass and what it
/// cost on the critical path.
#[derive(Clone, Debug)]
pub struct MuxRoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Job ids that contributed a batch to this round.
    pub participants: Vec<u32>,
    /// Merged batch length across all participants.
    pub batch_len: usize,
    /// Critical-path pass time: max over shards of the shard's feed
    /// nanos for this round (the arena's existing per-shard timing).
    pub pass_nanos: u64,
}

/// Per-job multiplexing stats — the "name the slow query" half of the
/// admission report.
#[derive(Clone, Debug, Default)]
pub struct MuxJobStats {
    /// The job id [`QuerySet::admit`] returned.
    pub job: u32,
    /// Rounds this job participated in.
    pub rounds: usize,
    /// Total queries the job asked.
    pub queries: usize,
    /// Sum of the critical-path nanos of every shared pass this job
    /// rode: the job's share of the serving bill. A job that keeps
    /// rounds alive after everyone else finished accumulates the
    /// difference here.
    pub pass_nanos: u64,
    /// `RandomNeighbor` sampler lanes the job asked for, summed over
    /// rounds.
    pub sampler_lanes: usize,
    /// `RandomEdge` position targets the job drew, summed over rounds.
    pub f1_targets: usize,
}

/// What one [`QuerySet`] run observed: per-round and per-job timing plus
/// any producer stalls the ring engine recorded.
#[derive(Clone, Debug, Default)]
pub struct AdmissionReport {
    /// One entry per shared round, in execution order.
    pub rounds: Vec<MuxRoundStats>,
    /// One entry per admitted job, indexed by job id.
    pub jobs: Vec<MuxJobStats>,
    /// Ring-engine producer stalls (empty on the sharded engine): each
    /// names the consumer the producer sat blocked on past the
    /// threshold.
    pub stalls: Vec<StallEvent>,
}

impl AdmissionReport {
    /// The job with the largest accumulated critical-path share — the
    /// query to evict (or re-batch) first when a shared round is slow.
    pub fn slowest_job(&self) -> Option<u32> {
        self.jobs.iter().max_by_key(|j| j.pass_nanos).map(|j| j.job)
    }
}

/// Everything a [`QuerySet`] run returns: per-job outputs and solo-shaped
/// execution reports (indexed by job id), plus the admission report.
pub struct MuxOutput<O> {
    /// Per-job algorithm outputs.
    pub outputs: Vec<O>,
    /// Per-job reports. `rounds`/`passes`/`queries`/`answer_bytes` match
    /// the job's solo run exactly; `max_pass_space_bytes` is the
    /// **shared** pass footprint of the rounds the job rode (the space
    /// actually in play while it was served), so it is not comparable to
    /// a solo figure.
    pub reports: Vec<ExecReport>,
    /// Multiplexing diagnostics for the whole run.
    pub admission: AdmissionReport,
}

/// An admission batch of concurrent round-adaptive jobs, executed with
/// one shared pass per round. See the module docs for the equivalence
/// argument; see [`MuxOutput`] for what comes back.
pub struct QuerySet<A: RoundAdaptive> {
    jobs: Vec<MuxJob<A>>,
}

impl<A: RoundAdaptive> Default for QuerySet<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: RoundAdaptive> QuerySet<A> {
    /// An empty admission batch.
    pub fn new() -> Self {
        QuerySet { jobs: Vec::new() }
    }

    /// Admit one job with its private seed and reservoir mode; returns
    /// the job id that indexes every per-job vector in [`MuxOutput`].
    /// The job's answers will be byte-identical to running `alg` alone
    /// through the solo executor with the same `seed` and mode.
    pub fn admit(&mut self, alg: A, seed: u64, reservoir: ReservoirMode) -> usize {
        self.jobs.push(MuxJob {
            alg,
            seed,
            reservoir,
            passes: 0,
            answers: Vec::new(),
            done: false,
            report: ExecReport::default(),
        });
        self.jobs.len() - 1
    }

    /// Number of admitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs were admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// [`QuerySet::run`] in the insertion model on the scoped-thread
    /// sharded engine. Kept by name because `perfbench/src/traced.rs`
    /// calls it.
    pub fn run_insertion(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        policy: ExecPolicy,
    ) -> MuxOutput<A::Output> {
        self.run(Model::Insertion, feed, arena, opts, Engine::Sharded(policy))
    }

    /// [`QuerySet::run`] in the turnstile model on the sharded engine.
    pub fn run_turnstile(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        policy: ExecPolicy,
    ) -> MuxOutput<A::Output> {
        self.run(Model::Turnstile, feed, arena, opts, Engine::Sharded(policy))
    }

    /// [`QuerySet::run`] in the insertion model riding the broadcast ring.
    pub fn run_insertion_broadcast(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
    ) -> MuxOutput<A::Output> {
        self.run(Model::Insertion, feed, arena, opts, Engine::Ring(bcast))
    }

    /// [`QuerySet::run`] in the turnstile model riding the broadcast ring.
    pub fn run_turnstile_broadcast(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
    ) -> MuxOutput<A::Output> {
        self.run(Model::Turnstile, feed, arena, opts, Engine::Ring(bcast))
    }

    /// Run every job to completion over shared passes in `model` on the
    /// chosen delivery [`Engine`]. `opts.block <= 1` is the scalar feed
    /// path; answers are identical for any block size, policy, and
    /// engine. `opts.reservoir` is ignored — each job's admitted
    /// reservoir mode governs its own lanes; `opts.l0` selects the ℓ₀
    /// bank feed path for every lane of a turnstile pass.
    pub fn run(
        mut self,
        model: Model,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        engine: Engine,
    ) -> MuxOutput<A::Output> {
        let shards = feed.num_shards();
        let mut admission = AdmissionReport {
            rounds: Vec::new(),
            jobs: (0..self.jobs.len())
                .map(|j| MuxJobStats {
                    job: j as u32,
                    ..MuxJobStats::default()
                })
                .collect(),
            stalls: Vec::new(),
        };
        arena.begin_run();
        let mut round_no = 0usize;
        loop {
            // Admission: collect each active job's next batch into one
            // merged batch, advancing only the participants' pass chains.
            let mut plan = RoundPlan::default();
            for (j, job) in self.jobs.iter_mut().enumerate() {
                if job.done {
                    continue;
                }
                let batch = job.alg.next_round(&job.answers);
                if batch.is_empty() {
                    job.done = true;
                    job.answers = Vec::new();
                    continue;
                }
                job.passes += 1;
                job.report.rounds += 1;
                job.report.passes += 1;
                job.report.queries += batch.len();
                job.report.answer_bytes += batch.len() * ANSWER_BYTES;
                plan.participants.push(j as u32);
                plan.runs.push(SeedRun {
                    start: plan.concat.len() as u32,
                    pass_seed: split_seed(job.seed, job.passes),
                    reservoir: job.reservoir,
                });
                let js = &mut admission.jobs[j];
                for q in &batch {
                    match q {
                        Query::RandomEdge => js.f1_targets += 1,
                        Query::RandomNeighbor(_) => js.sampler_lanes += 1,
                        _ => {}
                    }
                }
                plan.concat.extend(batch);
            }
            if plan.concat.is_empty() {
                break;
            }
            round_no += 1;
            let batch_len = plan.concat.len();
            let (answers, space) = mux_pass(
                model,
                &mut plan,
                feed,
                arena,
                opts,
                engine,
                &mut admission.stalls,
            );
            // Critical-path pass time via the arena's per-shard timing.
            let round_nanos = arena.slots[..shards]
                .iter()
                .filter_map(|s| s.pass_nanos.last().copied())
                .max()
                .unwrap_or(0);
            for (p, &j) in plan.participants.iter().enumerate() {
                let a = plan.runs[p].start as usize;
                let b = plan.runs.get(p + 1).map_or(batch_len, |r| r.start as usize);
                let job = &mut self.jobs[j as usize];
                job.answers.clear();
                job.answers.extend_from_slice(&answers[a..b]);
                job.report.max_pass_space_bytes = job.report.max_pass_space_bytes.max(space);
                let js = &mut admission.jobs[j as usize];
                js.rounds += 1;
                js.queries += b - a;
                js.pass_nanos += round_nanos;
            }
            admission.rounds.push(MuxRoundStats {
                round: round_no,
                participants: plan.participants,
                batch_len,
                pass_nanos: round_nanos,
            });
            arena.note_round();
        }
        arena.end_run();
        let outputs = self.jobs.iter_mut().map(|j| j.alg.output()).collect();
        let reports = self.jobs.iter().map(|j| j.report).collect();
        MuxOutput {
            outputs,
            reports,
            admission,
        }
    }
}

/// Which delivery engine drives a [`QuerySet`]'s shared passes.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// Scoped-thread shard workers over the feed's private buffers.
    Sharded(ExecPolicy),
    /// One broadcast ring: a single producer, one cursor per shard.
    Ring(BroadcastOpts),
}

/// One shared round, planned: the merged batch plus each participant's
/// seed run, which replays its private coins.
#[derive(Default)]
struct RoundPlan {
    /// The concatenation of every participant's batch, in job order.
    concat: Vec<Query>,
    /// Participant index → job id.
    participants: Vec<u32>,
    /// Participant index → the job's seed run: where its batch starts in
    /// `concat`, its private pass seed for this round, its reservoir mode.
    runs: Vec<SeedRun>,
}

/// One shared pass over the whole merged batch, which it takes out of
/// `plan` (a one-shard split moves it instead of copying): the solo
/// shard pass machine over one seed run per participant, on the chosen
/// engine. On the ring the producer runs with a stall threshold;
/// recorded stalls are appended to `stalls` so the admission report can
/// name the consumer a slow round was blocked on.
fn mux_pass(
    model: Model,
    plan: &mut RoundPlan,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: Engine,
    stalls: &mut Vec<StallEvent>,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    let batch = std::mem::take(&mut plan.concat);
    let ctx = PassCtx::begin(model, batch, feed, plan.runs.clone(), arena);
    let slots = &mut arena.slots[..shards];
    let outcomes = match engine {
        Engine::Sharded(policy) => run_shards(model, feed, &ctx, slots, opts, policy),
        Engine::Ring(bcast) => {
            let passes = slots
                .iter_mut()
                .map(|slot| ShardPass::new(model, slot, &ctx, opts))
                .collect::<Vec<_>>();
            let ring = Broadcast::with_stall_threshold(bcast.ring_capacity, MUX_STALL_THRESHOLD);
            let outcomes = drive_ring(feed, &ring, passes, bcast, &mut []);
            stalls.extend(ring.stall_events());
            outcomes
        }
    };
    ctx.finish(model, feed, arena, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{run_insertion_sharded_with_exec, run_turnstile_sharded_with_exec};
    use crate::PassOpts;
    use sgs_graph::{gen, VertexId};
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// A small round-adaptive fixture with data-dependent rounds: walks
    /// `depth` RandomNeighbor hops from a start vertex, asking a mixed
    /// batch each round, so different jobs genuinely have different
    /// round counts and query mixes.
    struct Walker {
        start: u32,
        depth: usize,
        round: usize,
        trace: Vec<Answer>,
    }

    impl Walker {
        fn new(start: u32, depth: usize) -> Self {
            Walker {
                start,
                depth,
                round: 0,
                trace: Vec::new(),
            }
        }
    }

    impl RoundAdaptive for Walker {
        type Output = Vec<Answer>;
        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            self.trace.extend_from_slice(answers);
            if self.round >= self.depth {
                return Vec::new();
            }
            self.round += 1;
            let v = VertexId(self.start.wrapping_add(self.round as u32) % 16);
            vec![
                Query::EdgeCount,
                Query::RandomEdge,
                Query::Degree(v),
                Query::RandomNeighbor(v),
                Query::RandomEdge,
                Query::Adjacent(v, VertexId((v.0 + 1) % 16)),
            ]
        }
        fn output(&mut self) -> Vec<Answer> {
            std::mem::take(&mut self.trace)
        }
    }

    fn solo_insertion(
        feed: &ShardedFeed,
        start: u32,
        depth: usize,
        seed: u64,
        mode: ReservoirMode,
        block: usize,
    ) -> Vec<Answer> {
        let mut arena = RouterArena::new();
        let opts = PassOpts::with_block(block).reservoir(mode);
        let (out, _) = run_insertion_sharded_with_exec(
            Walker::new(start, depth),
            feed,
            seed,
            &mut arena,
            opts,
            ExecPolicy::serial(),
        );
        out
    }

    #[test]
    fn mux_insertion_matches_solo_runs() {
        let g = gen::gnm(16, 48, 41);
        let ins = InsertionStream::from_graph(&g, 42);
        for shards in [1usize, 3] {
            let feed = ShardedFeed::partition(&ins, shards);
            for block in [0usize, 64] {
                let mut set = QuerySet::new();
                let specs = [
                    (0u32, 2usize, 100u64, ReservoirMode::Offer),
                    (5, 4, 200, ReservoirMode::Skip),
                    (9, 1, 300, ReservoirMode::Skip),
                ];
                for &(start, depth, seed, mode) in &specs {
                    set.admit(Walker::new(start, depth), seed, mode);
                }
                let mut arena = RouterArena::new();
                let out = set.run_insertion(
                    &feed,
                    &mut arena,
                    PassOpts::with_block(block),
                    ExecPolicy::serial(),
                );
                for (j, &(start, depth, seed, mode)) in specs.iter().enumerate() {
                    let solo = solo_insertion(&feed, start, depth, seed, mode, block);
                    assert_eq!(
                        out.outputs[j], solo,
                        "job {j}, {shards} shards, block {block}"
                    );
                    assert_eq!(out.reports[j].rounds, depth);
                    assert_eq!(out.reports[j].passes, depth);
                }
                assert_eq!(out.admission.rounds.len(), 4, "max depth over jobs");
                assert_eq!(out.admission.rounds[0].participants, vec![0, 1, 2]);
                assert_eq!(out.admission.rounds[3].participants, vec![1]);
            }
        }
    }

    #[test]
    fn mux_jobs_sharing_a_vertex_group_match_solo_runs() {
        // Same start vertex: every round, all four jobs ask Degree and
        // RandomNeighbor of the same vertex, so one router vertex group
        // holds lanes of every job and the shared bank splits it into
        // same-mode cohorts Skip | Offer | Skip+Skip (the last shared by
        // two jobs).
        let g = gen::gnm(16, 60, 51);
        let ins = InsertionStream::from_graph(&g, 52);
        let specs = [
            (3u32, 3usize, 110u64, ReservoirMode::Skip),
            (3, 2, 120, ReservoirMode::Offer),
            (3, 3, 130, ReservoirMode::Skip),
            (3, 1, 140, ReservoirMode::Skip),
        ];
        for shards in [1usize, 3] {
            let feed = ShardedFeed::partition(&ins, shards);
            for block in [0usize, 64] {
                let mut set = QuerySet::new();
                for &(start, depth, seed, mode) in &specs {
                    set.admit(Walker::new(start, depth), seed, mode);
                }
                let mut arena = RouterArena::new();
                let out = set.run_insertion(
                    &feed,
                    &mut arena,
                    PassOpts::with_block(block),
                    ExecPolicy::serial(),
                );
                for (j, &(start, depth, seed, mode)) in specs.iter().enumerate() {
                    let solo = solo_insertion(&feed, start, depth, seed, mode, block);
                    assert_eq!(
                        out.outputs[j], solo,
                        "job {j}, {shards} shards, block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn mux_turnstile_matches_solo_runs() {
        let g = gen::gnm(16, 48, 43);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 44);
        let feed = ShardedFeed::partition(&tst, 2);
        let specs = [(1u32, 3usize, 500u64), (7, 2, 600)];
        let mut set = QuerySet::new();
        for &(start, depth, seed) in &specs {
            set.admit(Walker::new(start, depth), seed, ReservoirMode::Offer);
        }
        let mut arena = RouterArena::new();
        let out = set.run_turnstile(
            &feed,
            &mut arena,
            PassOpts::with_block(32),
            ExecPolicy::serial(),
        );
        for (j, &(start, depth, seed)) in specs.iter().enumerate() {
            let mut solo_arena = RouterArena::new();
            let (solo, _) = run_turnstile_sharded_with_exec(
                Walker::new(start, depth),
                &feed,
                seed,
                &mut solo_arena,
                PassOpts::with_block(32),
                ExecPolicy::serial(),
            );
            assert_eq!(out.outputs[j], solo, "job {j}");
        }
    }

    #[test]
    fn ring_engine_matches_sharded_engine() {
        let g = gen::gnm(16, 48, 45);
        let ins = InsertionStream::from_graph(&g, 46);
        let feed = ShardedFeed::partition(&ins, 3);
        let build = |two_jobs: bool| {
            let mut set = QuerySet::new();
            set.admit(Walker::new(2, 3), 700, ReservoirMode::Skip);
            if two_jobs {
                set.admit(Walker::new(11, 2), 800, ReservoirMode::Offer);
            }
            set
        };
        let mut arena = RouterArena::new();
        let sharded = build(true).run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(16),
            ExecPolicy::serial(),
        );
        for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
            let mut ring_arena = RouterArena::new();
            let ringed = build(true).run_insertion_broadcast(
                &feed,
                &mut ring_arena,
                PassOpts::with_block(16),
                BroadcastOpts::with_policy(policy),
            );
            assert_eq!(ringed.outputs, sharded.outputs, "{policy:?}");
        }
    }

    #[test]
    fn admission_report_names_the_long_job() {
        let g = gen::gnm(16, 48, 47);
        let ins = InsertionStream::from_graph(&g, 48);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut set = QuerySet::new();
        set.admit(Walker::new(0, 1), 900, ReservoirMode::Offer);
        let long = set.admit(Walker::new(3, 5), 901, ReservoirMode::Offer);
        let mut arena = RouterArena::new();
        let out = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial(),
        );
        assert_eq!(out.admission.slowest_job(), Some(long as u32));
        assert_eq!(out.admission.jobs[long].rounds, 5);
        assert_eq!(out.admission.jobs[0].rounds, 1);
        assert!(out.admission.jobs[long].pass_nanos >= out.admission.jobs[0].pass_nanos);
        assert_eq!(out.admission.jobs[long].f1_targets, 2 * 5);
        assert_eq!(out.admission.jobs[long].sampler_lanes, 5);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let set: QuerySet<Walker> = QuerySet::new();
        let out = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial(),
        );
        assert!(out.outputs.is_empty());
        assert!(out.admission.rounds.is_empty());
        assert_eq!(feed.logical_passes(), 0);
    }

    #[test]
    fn shared_rounds_count_one_logical_pass_each() {
        let g = gen::gnm(16, 48, 49);
        let ins = InsertionStream::from_graph(&g, 50);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut set = QuerySet::new();
        for j in 0..10u64 {
            set.admit(Walker::new(j as u32, 3), 1000 + j, ReservoirMode::Skip);
        }
        let mut arena = RouterArena::new();
        let _ = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        );
        assert_eq!(
            feed.logical_passes(),
            3,
            "10 jobs × 3 rounds = 3 shared passes"
        );
    }
}
