//! Experiment implementations, one module per experiment: `eN_<topic>`
//! is experiment EN, and its module docs name the claim it checks.

pub mod e10_example;
pub mod e11_ablation_ft;
pub mod e12_ablation_l0;
pub mod e1_sampler_prob;
pub mod e2_accuracy;
pub mod e3_l0;
pub mod e4_turnstile;
pub mod e5_passes;
pub mod e6_space;
pub mod e7_ers;
pub mod e8_rho;
pub mod e9_baselines;
