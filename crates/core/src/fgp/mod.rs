//! The FGP subgraph sampler and counter (§4 of the paper).
//!
//! * [`plan`] — per-pattern precomputation (decomposition, `ρ`, `f_T`),
//! * [`sampler`] — the 3-round-adaptive `SampleSubgraph` (Algorithms 1, 5,
//!   and 9),
//! * [`assemble`] — the piece-to-copy assembly and acceptance machinery,
//! * [`counter`] — the parallel-trials estimator (Theorems 1 and 17) and
//!   [`QuerySpec`], the one estimate description every engine takes,
//! * [`parallel_exec`], [`broadcast_exec`], [`serve_exec`],
//!   [`checkpoint_exec`], [`multi_exec`] — one estimator entry point per
//!   engine (sharded, broadcast ring, persistent runtime, checkpointed,
//!   multiplexed), each taking the stream [`sgs_query::Model`] as a value.

pub mod assemble;
pub mod broadcast_exec;
pub mod checkpoint_exec;
pub mod counter;
pub mod multi_exec;
pub mod parallel_exec;
pub mod plan;
pub mod sampler;
pub mod search;
pub mod serve_exec;
pub mod uniform;

pub use assemble::FoundCopy;
pub use broadcast_exec::{estimate_broadcast, triest_seed, BroadcastEstimate, ConsumerSet};
pub use checkpoint_exec::estimate_checkpointed;
pub use counter::{
    estimate_insertion, estimate_oracle, estimate_turnstile, practical_trials, theory_trials,
    CountEstimate, QuerySpec,
};
pub use multi_exec::{estimate_multi, estimate_multi_broadcast};
pub use parallel_exec::estimate_on_feed;
pub use plan::SamplerPlan;
pub use sampler::{SamplerMode, SamplerOutcome, SubgraphSampler};
pub use search::{distinguish_insertion, search_count_insertion, GapDecision, SearchResult};
pub use serve_exec::estimate_on_runtime;
pub use uniform::{sample_uniform_insertion, sample_uniform_turnstile, uniform_trials};
