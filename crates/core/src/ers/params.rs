//! Parameters of the ERS low-degeneracy clique counter.
//!
//! Algorithm 2 fixes `γ = ε/(8r·r!)`, `β = 1/(6r)`,
//! `τ_t = r^{4r}/(β^r γ²) · λ^{r-t}` and per-level sample sizes
//! `s_{t+1} = ⌈dg(R_t)·τ_{t+1}/ω̃_t · 3ln(2/β)/γ²⌉`. These constants
//! exist to make union bounds over all `n^r` prefixes go through; they are
//! astronomically conservative (for `r = 4`, `τ_2 > 10^{12}`), so the
//! library also provides a **practical** mode with the *same functional
//! form* — sample sizes still scale as `m·λ^{r-2}/#K_r`, which is the
//! content of Theorem 2 and what experiment E7 verifies — but calibrated
//! leading constants. The substitution changes constants only, never the
//! functional form, so every scaling claim of the paper stays testable.

/// Leading-constant regime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamMode {
    /// Verbatim paper constants (feasible only for toy inputs).
    Theory,
    /// Same functional form, calibrated constants.
    Practical {
        /// Replaces `3ln(2/β)/γ²` as the per-level oversampling factor
        /// (divided by `ε²`).
        confidence: f64,
        /// Replaces `r^{4r}/(β^r γ²)` as the activity-budget multiplier.
        tau_scale: f64,
    },
}

impl Default for ParamMode {
    fn default() -> Self {
        ParamMode::Practical {
            confidence: 3.0,
            tau_scale: 16.0,
        }
    }
}

/// Full parameter set for one ERS run.
#[derive(Clone, Debug)]
pub struct ErsParams {
    /// Clique size `r >= 3`.
    pub r: usize,
    /// Degeneracy bound `λ` of the input (a promise, as in Theorem 2).
    pub lambda: usize,
    /// Target accuracy `ε`.
    pub epsilon: f64,
    /// Lower bound `L_r <= #K_r` (the standard parameterization; Lemma 21
    /// lifts it via geometric search).
    pub lower_bound: f64,
    /// Constant regime.
    pub mode: ParamMode,
    /// StrAct repetitions (the paper's `q = 12·ln(n^{r+10})`; small in
    /// practical mode).
    pub q_act: usize,
    /// Abort threshold multiplier for sample sizes (Algorithm 3 line 13);
    /// `None` disables the abort (useful when `λ` is only a guess).
    pub cap_scale: Option<f64>,
}

impl ErsParams {
    /// Practical defaults for a given instance.
    pub fn practical(r: usize, lambda: usize, epsilon: f64, lower_bound: f64) -> Self {
        assert!(r >= 3, "ERS requires r >= 3");
        assert!(epsilon > 0.0 && lower_bound >= 1.0);
        ErsParams {
            r,
            lambda: lambda.max(1),
            epsilon,
            lower_bound,
            mode: ParamMode::default(),
            q_act: 3,
            cap_scale: None,
        }
    }

    /// Verbatim paper constants (Algorithm 2); `n` sizes the StrAct
    /// repetition count.
    pub fn theory(r: usize, lambda: usize, epsilon: f64, lower_bound: f64, n: usize) -> Self {
        assert!(r >= 3);
        ErsParams {
            r,
            lambda: lambda.max(1),
            epsilon,
            lower_bound,
            mode: ParamMode::Theory,
            q_act: (12.0 * ((n.max(2)) as f64).ln() * (r as f64 + 10.0)).ceil() as usize,
            cap_scale: Some(1.0),
        }
    }

    fn gamma(&self) -> f64 {
        match self.mode {
            ParamMode::Theory => self.epsilon / (8.0 * self.r as f64 * factorial(self.r)),
            ParamMode::Practical { .. } => self.epsilon / (2.0 * self.r as f64),
        }
    }

    fn beta(&self) -> f64 {
        1.0 / (6.0 * self.r as f64)
    }

    /// The activity budget `τ_t` for prefix length `t ∈ [2, r-1]`.
    pub fn tau(&self, t: usize) -> f64 {
        debug_assert!(t >= 2 && t < self.r);
        let lam_pow = (self.lambda as f64).powi((self.r - t) as i32);
        match self.mode {
            ParamMode::Theory => {
                let g = self.gamma();
                let b = self.beta();
                (self.r as f64).powi(4 * self.r as i32) / (b.powi(self.r as i32) * g * g) * lam_pow
            }
            ParamMode::Practical { tau_scale, .. } => tau_scale * factorial(self.r - t) * lam_pow,
        }
    }

    /// The per-level oversampling factor (`3ln(2/β)/γ²` in theory mode).
    pub fn confidence(&self) -> f64 {
        match self.mode {
            ParamMode::Theory => {
                let g = self.gamma();
                3.0 * (2.0 / self.beta()).ln() / (g * g)
            }
            ParamMode::Practical { confidence, .. } => confidence / (self.epsilon * self.epsilon),
        }
    }

    /// Initial weight guess `ω̃ = (1 - ε/2)·L_r` (Algorithm 3, line 2).
    pub fn omega_init(&self) -> f64 {
        (1.0 - self.epsilon / 2.0) * self.lower_bound
    }

    /// The `(1-γ)` decay of the weight recurrence (Algorithm 3, line 12).
    pub fn omega_decay(&self) -> f64 {
        1.0 - self.gamma()
    }

    /// Sample-size abort cap for level `t+1` (Algorithm 3, line 13):
    /// `4m·λ^{t-1}·τ_{t+1}/L_r · (r!)²·3ln(2/β)/(β^t γ²)`, scaled.
    pub fn sample_cap(&self, m: usize, t_next: usize) -> Option<f64> {
        let scale = self.cap_scale?;
        let lam_pow = (self.lambda as f64).powi((t_next - 2) as i32);
        let tau = if t_next < self.r {
            self.tau(t_next)
        } else {
            1.0
        };
        Some(scale * 4.0 * m as f64 * lam_pow * tau / self.lower_bound * self.confidence())
    }

    /// Activity threshold for prefix length `t`: active iff `ĉ <= τ_t/4`.
    pub fn activity_threshold(&self, t: usize) -> f64 {
        self.tau(t) / 4.0
    }
}

/// `x!` as f64 (x small).
pub fn factorial(x: usize) -> f64 {
    (1..=x).map(|i| i as f64).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_tau_scales_with_lambda_power() {
        let a = ErsParams::practical(4, 2, 0.2, 10.0);
        let b = ErsParams::practical(4, 4, 0.2, 10.0);
        // tau_2 ~ lambda^{r-2}: doubling lambda multiplies by 4 for r=4.
        let ratio = b.tau(2) / a.tau(2);
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn theory_constants_dominate_practical() {
        let t = ErsParams::theory(3, 2, 0.2, 10.0, 100);
        let p = ErsParams::practical(3, 2, 0.2, 10.0);
        assert!(t.tau(2) > p.tau(2) * 1e3);
        assert!(t.confidence() > p.confidence());
        assert!(t.q_act > p.q_act);
    }

    #[test]
    fn confidence_scales_inverse_epsilon_squared() {
        let a = ErsParams::practical(3, 2, 0.1, 10.0);
        let b = ErsParams::practical(3, 2, 0.2, 10.0);
        let ratio = a.confidence() / b.confidence();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn factorial_small_values() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(1), 1.0);
        assert_eq!(factorial(5), 120.0);
    }

    #[test]
    fn omega_init_below_lower_bound() {
        let p = ErsParams::practical(3, 2, 0.5, 100.0);
        assert!(p.omega_init() < 100.0);
        assert!(p.omega_init() > 0.0);
    }
}
