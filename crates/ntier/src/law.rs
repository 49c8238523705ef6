//! The multi-threading service-time law (paper §III-B, Eq. 5–7).
//!
//! A server processing `N` concurrent requests pays two overheads on top of
//! the single-threaded service time `S⁰`:
//!
//! * **thread contention** — linear in `N` (fine-grained multi-threading
//!   interleaves instruction streams round-robin): `α·(N−1)`;
//! * **crosstalk / coherency penalty** — quadratic, from invalidation
//!   traffic on shared state: `β·N·(N−1)`.
//!
//! giving the adjusted per-request time `S*(N) = S⁰ + α(N−1) + βN(N−1)` and
//! the effective service time `S(N) = S*(N)/N` — throughput rises with `N`
//! (pipelining) until the quadratic term wins, producing the concurrency
//! "dome" of the paper's Fig. 2(a) with its knee at
//! `N* = √((S⁰−α)/β)`.
//!
//! The simulated servers use this law as ground truth; the model-fitting in
//! `dcm-model` must then *recover* it from noisy measurements, closing the
//! same loop the paper closes against real hardware.

/// Ground-truth concurrency law for one server: `S*(N) = s0 + α(N−1) + βN(N−1)`.
///
/// # Examples
///
/// ```
/// use dcm_ntier::law::ServiceLaw;
///
/// // The paper's fitted MySQL parameters (Table I).
/// let mysql = ServiceLaw::new(7.19e-3, 5.04e-3, 1.65e-6);
/// assert_eq!(mysql.optimal_concurrency(), 36);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceLaw {
    s0: f64,
    alpha: f64,
    beta: f64,
    /// Concurrency past which the thrash term engages.
    thrash_threshold: f64,
    /// Coefficient of the quadratic thrash term.
    thrash_coeff: f64,
}

impl ServiceLaw {
    /// Creates a law from single-threaded service time `s0`, contention
    /// coefficient `alpha`, and crosstalk coefficient `beta` (all seconds).
    ///
    /// # Panics
    ///
    /// Panics if `s0 <= 0`, any parameter is negative/non-finite, or
    /// `alpha >= s0` (which would put the optimum at zero threads).
    pub fn new(s0: f64, alpha: f64, beta: f64) -> Self {
        assert!(s0.is_finite() && s0 > 0.0, "s0 must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        assert!(beta.is_finite() && beta >= 0.0, "beta must be >= 0");
        assert!(alpha < s0, "alpha must be < s0 for a meaningful optimum");
        ServiceLaw {
            s0,
            alpha,
            beta,
            thrash_threshold: f64::INFINITY,
            thrash_coeff: 0.0,
        }
    }

    /// Adds a super-quadratic **thrash term** past `threshold` concurrent
    /// threads: `S*(N) += coeff·(N−threshold)²` for `N > threshold`.
    ///
    /// Real servers degrade faster past saturation than the paper's
    /// quadratic model family can express (buffer-pool contention, context
    /// switching, lock convoys): the paper's own Table I MySQL fit is
    /// nearly flat past its knee, while its measured Fig. 2(a)/2(b) shows
    /// dramatic loss. A thrash term makes the *ground truth* realistic
    /// while keeping the model family (which cannot represent it — just as
    /// in the paper) as the controller's approximation.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 1` or `coeff < 0` or either is NaN.
    pub fn with_thrash(mut self, threshold: f64, coeff: f64) -> Self {
        assert!(threshold >= 1.0, "thrash threshold must be >= 1");
        assert!(
            coeff.is_finite() && coeff >= 0.0,
            "thrash coeff must be >= 0"
        );
        self.thrash_threshold = threshold;
        self.thrash_coeff = coeff;
        self
    }

    /// A law with no multi-threading penalty (ideal linear scaling); useful
    /// for pass-through tiers like the Apache web server in the paper's
    /// browse-only workload.
    pub fn frictionless(s0: f64) -> Self {
        ServiceLaw::new(s0, 0.0, 0.0)
    }

    /// Single-threaded service time `S⁰`.
    pub fn s0(&self) -> f64 {
        self.s0
    }

    /// Linear contention coefficient `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Quadratic crosstalk coefficient `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Adjusted per-request service time `S*(N)` with `n` concurrent
    /// threads (Eq. 5). `n = 0` is treated as 1 (an idle server processes
    /// its next request single-threaded).
    pub fn adjusted_service_time(&self, n: u32) -> f64 {
        let n = f64::from(n.max(1));
        let excess = (n - self.thrash_threshold).max(0.0);
        self.s0
            + self.alpha * (n - 1.0)
            + self.beta * n * (n - 1.0)
            + self.thrash_coeff * excess * excess
    }

    /// Effective per-request service time `S(N) = S*(N)/N` (Eq. 6).
    pub fn effective_service_time(&self, n: u32) -> f64 {
        self.adjusted_service_time(n) / f64::from(n.max(1))
    }

    /// Work-inflation factor `f(N) = S*(N)/S⁰ ≥ 1`: how much longer a unit
    /// of work takes under concurrency `n` than alone.
    pub fn inflation(&self, n: u32) -> f64 {
        self.adjusted_service_time(n) / self.s0
    }

    /// Per-thread progress speed `1/f(N)` in work-seconds per second; the
    /// CPU scheduler advances every active burst at this speed.
    pub fn progress_speed(&self, n: u32) -> f64 {
        1.0 / self.inflation(n)
    }

    /// Saturated-server throughput at concurrency `n`: `N/S*(N)` requests
    /// per second (Eq. 7 with `γ·K = 1`).
    pub fn saturated_throughput(&self, n: u32) -> f64 {
        f64::from(n.max(1)) / self.adjusted_service_time(n)
    }

    /// The continuous optimum of the quadratic part, `N* = √((s0−α)/β)`;
    /// infinite when `β = 0`. Ignores any thrash term (which only engages
    /// past its threshold).
    pub fn optimal_concurrency_f64(&self) -> f64 {
        if self.beta == 0.0 {
            f64::INFINITY
        } else {
            ((self.s0 - self.alpha) / self.beta).sqrt()
        }
    }

    /// The integer concurrency maximizing [`ServiceLaw::saturated_throughput`],
    /// capped at `u32::MAX` for frictionless laws. With a thrash term the
    /// argmax is found numerically.
    pub fn optimal_concurrency(&self) -> u32 {
        let n_star = self.optimal_concurrency_f64();
        if !n_star.is_finite() && self.thrash_coeff == 0.0 {
            return u32::MAX;
        }
        if self.thrash_coeff == 0.0 {
            let lo = (n_star.floor() as u32).max(1);
            let hi = lo + 1;
            return if self.saturated_throughput(hi) > self.saturated_throughput(lo) {
                hi
            } else {
                lo
            };
        }
        // Thrash terms can pull the argmax below the analytic knee; the
        // search space is tiny, so scan.
        let upper = if n_star.is_finite() {
            (n_star.ceil() as u32).saturating_add(self.thrash_threshold as u32)
        } else {
            self.thrash_threshold as u32 + 4096
        }
        .clamp(2, 1 << 20);
        (1..=upper)
            .max_by(|&a, &b| {
                self.saturated_throughput(a)
                    .partial_cmp(&self.saturated_throughput(b))
                    .expect("finite throughput")
            })
            .expect("non-empty range")
    }

    /// Throughput at the optimal concurrency (per server, `γ = 1`).
    pub fn peak_throughput(&self) -> f64 {
        self.saturated_throughput(self.optimal_concurrency())
    }
}

/// Reference laws from the paper's Table I, used as simulator ground truth.
pub mod reference {
    use super::ServiceLaw;

    /// Tomcat application server, calibrated so the *system-level* fitted
    /// knee lands at the paper's `N_b = 20`.
    ///
    /// The paper's Table I knee is fitted from ⟨Tomcat concurrency, system
    /// throughput⟩ pairs, so it reflects the whole request path: time spent
    /// in Apache and in the MySQL queries shifts the measured optimum above
    /// the tier-local `√((S⁰−α)/β)`. These constants were solved
    /// numerically (together with the MySQL law) so the measured 1/1/1
    /// dome peaks at 20 with roughly the paper's +30 % optimal-vs-default
    /// margin (tier-local knee ≈ 17).
    pub fn tomcat() -> ServiceLaw {
        ServiceLaw::new(2.84e-2, 1.6e-2, 7.0e-5)
    }

    /// MySQL database server (per query): knee `N* = 36` as in Table I,
    /// **plus a thrash term** past 60 concurrent queries.
    ///
    /// The thrash term reconciles the paper's model family with its
    /// measurements: a fitted quadratic curve is nearly flat past the knee,
    /// which cannot reproduce the measured Fig. 2(a) collapse or the
    /// Fig. 2(b) crossover where the scaled-out 1/2/1 system performs
    /// *worse* than 1/1/1 (real MySQL degrades super-quadratically once
    /// buffer-pool and lock contention set in).
    pub fn mysql() -> ServiceLaw {
        // Knee at 36 with peak ≈ 169 q/s (= 85 req/s at V₃ = 2): clearly
        // above one Tomcat's ~56 req/s and clearly below two Tomcats'
        // ~112 req/s, giving the paper's bottleneck structure (Tomcat-bound
        // at 1/1/1, MySQL-bound at 1/2/1). The rising flank is strong
        // (single-query throughput is 20 % of peak), matching the measured
        // Fig. 2(a) left side. The thrash cliff past 60
        // concurrent queries makes query time blow up once the connection
        // pools flood — the runaway that produces the measured Fig. 2(b)
        // crossover (a scaled-out 1/2/1 system *worse* than 1/1/1) and the
        // Fig. 5 EC2-AutoScale incidents.
        ServiceLaw::new(2.95501e-2, 4.53985e-3, 1.9298e-5).with_thrash(60.0, 2.0e-4)
    }

    /// Apache web server: cheap pass-through that is never the bottleneck
    /// in the browse-only workload (its pool is fixed at 1000 in every
    /// experiment of the paper).
    pub fn apache() -> ServiceLaw {
        ServiceLaw::new(6.0e-4, 1.0e-5, 1.0e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_recovers_s0() {
        let law = ServiceLaw::new(0.02, 0.005, 1e-5);
        assert_eq!(law.adjusted_service_time(1), 0.02);
        assert_eq!(law.effective_service_time(1), 0.02);
        assert_eq!(law.inflation(1), 1.0);
        // n=0 treated as 1
        assert_eq!(law.adjusted_service_time(0), 0.02);
    }

    #[test]
    fn ground_truth_optima() {
        // Tier-local knees of the calibrated laws; the *measured* system
        // knees (including downstream time) land at the paper's 20/36.
        let tc = reference::tomcat().optimal_concurrency();
        assert!((13..=14).contains(&tc), "tomcat local knee {tc}");
        assert_eq!(reference::mysql().optimal_concurrency(), 36);
    }

    #[test]
    fn peak_throughput_scale() {
        // Per-server tier-local peaks (γ=1).
        let tc = reference::tomcat().peak_throughput();
        assert!((tc - 56.2).abs() < 1.5, "tomcat peak {tc}");
        let my = reference::mysql().peak_throughput();
        assert!((my - 169.2).abs() < 2.0, "mysql peak {my}");
    }

    #[test]
    fn mysql_thrash_reproduces_measured_degradation() {
        // The shapes Fig. 2(a)/2(b) hinge on: reasonable from 20–80,
        // substantial loss at 160 (the flooded scaled-out case), severe
        // loss at 600, and a real (if modest) rising flank.
        let law = reference::mysql();
        let peak = law.peak_throughput();
        let ratio = |n: u32| law.saturated_throughput(n) / peak;
        assert!(ratio(20) > 0.85, "r20 {}", ratio(20));
        assert!(ratio(80) > 0.75, "r80 {}", ratio(80));
        assert!(ratio(160) < 0.65, "r160 {}", ratio(160));
        assert!(ratio(600) < 0.25, "r600 {}", ratio(600));
        // Tomcat carries the strong rising flank (its dome is what Fig. 4(a)
        // sweeps); MySQL's fitted family is flat-rising like Table I.
        assert!(ratio(1) < 0.25, "mysql rising flank: {}", ratio(1));
        let tc = reference::tomcat();
        assert!(
            tc.saturated_throughput(1) < 0.70 * tc.peak_throughput(),
            "tomcat rising flank"
        );
    }

    #[test]
    fn thrash_term_only_engages_past_threshold() {
        let base = ServiceLaw::new(0.01, 0.001, 1e-5);
        let thrash = base.with_thrash(50.0, 1e-4);
        for n in [1, 10, 50] {
            assert_eq!(
                base.adjusted_service_time(n),
                thrash.adjusted_service_time(n)
            );
        }
        assert!(thrash.adjusted_service_time(100) > base.adjusted_service_time(100));
        let extra = thrash.adjusted_service_time(100) - base.adjusted_service_time(100);
        assert!((extra - 1e-4 * 50.0 * 50.0).abs() < 1e-12);
    }

    #[test]
    fn thrash_can_move_the_argmax_below_the_analytic_knee() {
        // Aggressive thrash right past 10 pulls the optimum down.
        let law = ServiceLaw::new(0.01, 0.0, 1e-6).with_thrash(10.0, 1e-2);
        let n = law.optimal_concurrency();
        assert!(n <= 13, "argmax {n}");
        // And it is a true argmax.
        let x = law.saturated_throughput(n);
        assert!(x >= law.saturated_throughput(n + 1));
        assert!(x >= law.saturated_throughput(n.saturating_sub(1).max(1)));
    }

    #[test]
    fn throughput_dome_shape() {
        let law = reference::mysql();
        let n_star = law.optimal_concurrency();
        // Rising flank, peak, falling flank.
        assert!(law.saturated_throughput(5) < law.saturated_throughput(20));
        assert!(law.saturated_throughput(20) < law.saturated_throughput(n_star));
        assert!(law.saturated_throughput(n_star) > law.saturated_throughput(100));
        assert!(law.saturated_throughput(100) > law.saturated_throughput(600));
    }

    #[test]
    fn optimum_beats_neighbours() {
        for law in [reference::tomcat(), reference::mysql()] {
            let n = law.optimal_concurrency();
            let x = law.saturated_throughput(n);
            assert!(x >= law.saturated_throughput(n - 1));
            assert!(x >= law.saturated_throughput(n + 1));
        }
    }

    #[test]
    fn frictionless_law_scales_linearly() {
        let law = ServiceLaw::frictionless(0.001);
        assert_eq!(law.inflation(100), 1.0);
        assert_eq!(law.optimal_concurrency(), u32::MAX);
        assert!((law.saturated_throughput(50) - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn progress_speed_is_inverse_inflation() {
        let law = reference::tomcat();
        for n in [1, 5, 20, 100] {
            let expected = 1.0 / law.inflation(n);
            assert!((law.progress_speed(n) - expected).abs() < 1e-12);
        }
        assert!(law.progress_speed(100) < law.progress_speed(10));
    }

    #[test]
    #[should_panic(expected = "alpha must be < s0")]
    fn rejects_alpha_exceeding_s0() {
        let _ = ServiceLaw::new(0.001, 0.002, 1e-6);
    }

    #[test]
    #[should_panic(expected = "s0 must be positive")]
    fn rejects_non_positive_s0() {
        let _ = ServiceLaw::new(0.0, 0.0, 0.0);
    }
}
