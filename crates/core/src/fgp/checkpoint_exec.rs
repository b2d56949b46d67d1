//! The checkpointed estimator entry point: a durable `#H` estimate.
//!
//! [`estimate_checkpointed`] wraps the FGP trial bank (the same
//! [`sgs_query::Parallel`] bank every other executor drives) in
//! `sgs-query`'s checkpointed driver: the input stream is made durable
//! in a write-ahead log before estimation starts, estimator state is
//! snapshotted at delivery-block boundaries, and a crashed run resumes
//! from the latest snapshot to the **byte-identical** estimate the
//! uninterrupted run produces — same estimate bits, hits, `m`, and
//! report, at any shard count, in both stream models.
//! `tests/crash_recovery.rs` sweeps every crash point.
//!
//! The sibling of [`crate::fgp::parallel_exec`]: same spec/bank/seed
//! plumbing, with a [`CheckpointSession`] threaded through.

use crate::fgp::counter::{CountEstimate, QuerySpec};
use sgs_query::{run_checkpointed, CheckpointSession, Model, PassOpts, RouterArena};
use sgs_stream::persist::PersistResult;
use sgs_stream::ShardedFeed;

/// Estimate `spec`'s `#H` from `feed` in `model` under a checkpoint
/// session. Returns `Ok(None)` when the pattern has no sampler plan or
/// when the session's simulated crash point fires; otherwise the same
/// [`CountEstimate`] the uninterrupted executors produce. Resumes
/// transparently when the session carries snapshot state.
/// `spec.reservoir` sets the reservoir mode; leave `opts.reservoir` at
/// its default (debug builds assert it).
pub fn estimate_checkpointed(
    spec: &QuerySpec,
    model: Model,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    session: &mut CheckpointSession,
) -> PersistResult<Option<CountEstimate>> {
    let Some((par, rho)) = spec.bank(model) else {
        return Ok(None);
    };
    let opts = spec.pass_opts(opts);
    let run = run_checkpointed(model, par, feed, spec.run_seed(), arena, opts, session)?;
    Ok(run.map(|(outcomes, report)| CountEstimate::from_outcomes(outcomes, rho, report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::parallel_exec::estimate_on_feed;
    use sgs_graph::{gen, Pattern};
    use sgs_query::ExecPolicy;
    use sgs_stream::{EdgeStream, InsertionStream, TurnstileStream};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sgs-core-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The checkpointed and the plain estimate of `spec` over `stream`.
    fn both(
        tag: &str,
        spec: &QuerySpec,
        model: Model,
        stream: &impl EdgeStream,
        shards: usize,
    ) -> (CountEstimate, CountEstimate) {
        let feed = ShardedFeed::partition(stream, shards);
        let dir = tmp_dir(tag);
        let mut session = CheckpointSession::create(&dir, &feed, 4, 32).unwrap();
        let opts = PassOpts::default();
        let ckpt = estimate_checkpointed(
            spec,
            model,
            &feed,
            &mut RouterArena::new(),
            opts,
            &mut session,
        )
        .unwrap()
        .unwrap();
        let plain = estimate_on_feed(
            spec,
            model,
            &feed,
            &mut RouterArena::new(),
            opts,
            ExecPolicy::default(),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (ckpt, plain)
    }

    #[test]
    fn checkpointed_estimate_matches_plain_insertion() {
        let g = gen::gnm(30, 140, 51);
        let stream = InsertionStream::from_graph(&g, 52);
        let spec = QuerySpec::new(Pattern::triangle(), 300, 53);
        for shards in [1usize, 2] {
            let tag = format!("ins-{shards}");
            let (ckpt, plain) = both(&tag, &spec, Model::Insertion, &stream, shards);
            assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
            assert_eq!(ckpt.hits, plain.hits);
            assert_eq!(ckpt.m, plain.m);
            assert_eq!(ckpt.trials, plain.trials);
        }
    }

    #[test]
    fn checkpointed_estimate_matches_plain_turnstile() {
        let g = gen::gnm(24, 100, 55);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.7, 56);
        let spec = QuerySpec::new(Pattern::triangle(), 200, 57);
        let (ckpt, plain) = both("tst", &spec, Model::Turnstile, &tst, 2);
        assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(ckpt.hits, plain.hits);
        assert_eq!(ckpt.m, plain.m);
    }
}
