//! The ERS low-degeneracy clique counter (§5 of the paper; Theorem 2).
//!
//! Streaming version of Eden–Ron–Seshadhri's sublinear clique counter,
//! simplified for the augmented general graph model (uniform edge samples
//! replace the vertex-sampling stage, §5.1) and organized into `O(r)`
//! query rounds (Theorem 20) so the Theorem 9 transformation yields a
//! `≤ 5r`-pass insertion-only streaming algorithm with
//! `m·λ^{r-2}/#K_r · poly(log n, 1/ε, r^r)` space — resolving the
//! Bera–Seshadhri conjecture.
//!
//! * [`params`] — Algorithm 2's parameters, in `Theory` and `Practical`
//!   regimes (the module docs give the substitution rationale),
//! * [`chain`] — the `StreamSet` sampling-chain primitive (Algorithm 4),
//! * [`act`] — `StrAct` prefix-activity estimation (Algorithm 18),
//! * [`approx`] — `StreamApproxClique` (Algorithm 3) with the
//!   `StrIsAssigned` phase (Algorithm 17),
//! * [`count`] — `StreamCountClique` median amplification (Algorithm 2).

pub mod act;
pub mod approx;
pub mod chain;
pub mod count;
pub mod params;
pub mod search;

pub use approx::{ErsApproxClique, ErsOutcome};
pub use count::{count_cliques_insertion, count_cliques_oracle, ErsEstimate};
pub use params::{ErsParams, ParamMode};
pub use search::{search_count_cliques_insertion, ErsSearchResult};
