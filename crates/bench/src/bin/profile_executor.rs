//! Phase-level timing breakdown of the insertion executors — a quick
//! diagnostic companion to `benches/executor.rs` (not an experiment).
//!
//! Usage: `cargo run --release -p sgs-bench --bin profile_executor [trials]`

use sgs_core::fgp::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::{answer_batch, run_insertion};
use sgs_query::reference::{answer_insertion_batch_reference, run_insertion_reference};
use sgs_query::sharded::answer_batch_sharded;
use sgs_query::{ExecPolicy, Model, Parallel, PassOpts, QueryRouter, RoundAdaptive, RouterArena};
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bank(trials: usize, seed: u64) -> Parallel<SubgraphSampler> {
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(
                    plan.clone(),
                    SamplerMode::Indexed,
                    split_seed(seed, i as u64),
                )
            })
            .collect(),
    )
}

const REPS: usize = 20;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|x| x.parse().ok())
        .unwrap_or(8000);
    let g = gen::gnm(2000, 48_000, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let feed = ShardedFeed::partition(&stream, 1);
    let mut arena = RouterArena::new();

    // Capture the real protocol batches, then time each phase warm
    // (minimum of REPS runs).
    let mut par = bank(trials, 7);
    let mut answers = Vec::new();
    let mut pass = 0u64;
    loop {
        let batch = par.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        pass += 1;
        let pass_seed = split_seed(5, pass);

        let mut build_time = Duration::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(QueryRouter::build(&batch, Model::Insertion));
            build_time = build_time.min(t.elapsed());
        }
        let mut feed_time = Duration::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            let mut r = QueryRouter::build(&batch, Model::Insertion);
            let mut h = 0u64;
            stream.replay(&mut |u| r.feed(u, |s, e| h += (e - s) as u64));
            black_box(h);
            feed_time = feed_time.min(t.elapsed());
        }
        let mut whole_time = Duration::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(answer_batch_sharded(
                Model::Insertion,
                batch.clone(),
                &feed,
                pass_seed,
                &mut arena,
                PassOpts::default(),
                ExecPolicy::serial(),
            ));
            whole_time = whole_time.min(t.elapsed());
        }
        let mut ref_time = Duration::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(answer_insertion_batch_reference(&batch, &stream, pass_seed));
            ref_time = ref_time.min(t.elapsed());
        }
        println!(
            "round {pass}: batch={} build={build_time:?} build+feed={feed_time:?} \
             whole={whole_time:?} reference={ref_time:?}",
            batch.len()
        );
        let (real, _) = answer_batch(
            Model::Insertion,
            &batch,
            &stream,
            pass_seed,
            PassOpts::default(),
        );
        answers = real;
    }

    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(run_insertion(bank(trials, 7), &stream, 5));
        let a = t0.elapsed();
        let t0 = Instant::now();
        black_box(run_insertion_reference(bank(trials, 7), &stream, 5));
        println!("full run_insertion: {a:?}  reference: {:?}", t0.elapsed());
    }
}
