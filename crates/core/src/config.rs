//! Protocol parameters: the `τ` thresholds, `τ′`, `k`, and the
//! overestimation factor.
//!
//! Two parameterizations matter:
//!
//! * [`DscConfig::empirical`] — the constants of the paper's §5 evaluation:
//!   `τ1 = 6, τ2 = 4, τ3 = 2, τ′ = 20, k = 16`, with the reported estimate
//!   being `max{u.max, u.lastMax}` "without the overestimation applied".
//!   The paper's plots (estimates ≈ log n, round length ≈ τ1·M parallel
//!   time) are only consistent with the stored values not carrying the
//!   `20(k+1)` factor either, so the empirical configuration disables it.
//! * [`DscConfig::theory`] — the proof constants of Lemma 4.5:
//!   `τ1 = 1140k, τ2 = 1119k, τ3 = 454k, τ′ = 4350k` with the `20(k+1)`
//!   overestimation of Algorithm 2 enabled. The paper notes these were
//!   "chosen for mere convenience" and that "the protocol works well with
//!   much smaller constants" — which the empirical configuration and our
//!   experiments confirm.

use std::error::Error;
use std::fmt;

/// Largest `τ1` whose countdown `τ1·max` fits `i64` for every `u32` maximum.
const TAU1_MAX: u64 = i64::MAX as u64 / u32::MAX as u64;

/// Parameters of the dynamic size counting protocol (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DscConfig {
    /// Phase threshold `τ1`: a reset rewinds `time` to `τ1·max`.
    pub tau1: u64,
    /// Phase threshold `τ2`: the exchange phase is `time ≥ τ2·max`.
    pub tau2: u64,
    /// Phase threshold `τ3`: the hold phase is `τ3·max ≤ time < τ2·max`;
    /// below is the reset phase.
    pub tau3: u64,
    /// Backup-GRV threshold `τ′`: an agent with more than
    /// `τ′·max{max, lastMax}` interactions since its last reset draws a
    /// backup GRV (Algorithm 2, lines 7–10).
    pub tau_prime: u64,
    /// Number of GRVs per sample (`GRV(k)`, Algorithm 3) and the error
    /// exponent of the w.h.p. guarantees.
    pub k: u32,
    /// Scale factor applied to stored maxima (`20(k+1)` in Algorithm 2);
    /// `1` disables overestimation (the empirical configuration).
    pub overestimate: u64,
}

impl DscConfig {
    /// The paper's empirical configuration (§5): `τ1 = 6, τ2 = 4, τ3 = 2,
    /// τ′ = 20, k = 16`, overestimation disabled.
    pub fn empirical() -> Self {
        DscConfig {
            tau1: 6,
            tau2: 4,
            tau3: 2,
            tau_prime: 20,
            k: 16,
            overestimate: 1,
        }
    }

    /// The proof constants of Lemma 4.5 for a given `k ≥ 2`, with the
    /// `20(k+1)` overestimation of Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (the analysis requires `k ≥ 2`).
    pub fn theory(k: u32) -> Self {
        assert!(k >= 2, "Lemma 4.5 requires k >= 2, got {k}");
        let k64 = u64::from(k);
        DscConfig {
            tau1: 1140 * k64,
            tau2: 1119 * k64,
            tau3: 454 * k64,
            tau_prime: 4350 * k64,
            k,
            overestimate: 20 * (u64::from(k) + 1),
        }
    }

    /// Returns the config with a different `τ` triple (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if the triple violates `τ1 > τ2 > τ3 ≥ 1` or `τ1` exceeds
    /// `i64::MAX / u32::MAX`.
    pub fn with_taus(mut self, tau1: u64, tau2: u64, tau3: u64) -> Self {
        self.tau1 = tau1;
        self.tau2 = tau2;
        self.tau3 = tau3;
        self.validate().expect("invalid tau triple");
        self
    }

    /// Returns the config with a different backup threshold `τ′`.
    pub fn with_tau_prime(mut self, tau_prime: u64) -> Self {
        self.tau_prime = tau_prime;
        self
    }

    /// Returns the config with a different sample count `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_k(mut self, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Returns the config with a different overestimation factor
    /// (`1` disables).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn with_overestimate(mut self, factor: u64) -> Self {
        assert!(factor >= 1, "overestimation factor must be at least 1");
        self.overestimate = factor;
        self
    }

    /// Checks the parameter constraints: `τ1 > τ2 > τ3 ≥ 1`, `τ′ ≥ 1`,
    /// `k ≥ 1`, `overestimate ≥ 1`, and the width bounds
    /// `overestimate, τ′ ≤ u32::MAX` and `τ1 ≤ i64::MAX / u32::MAX`.
    ///
    /// The width bounds keep every transition product exact: a scaled
    /// maximum (`overestimate` times a `u32` GRV) and a backup threshold
    /// (`τ′` times a `u32` maximum) fit `u64`, so the packed-width check
    /// sees every out-of-range maximum, and a countdown (`τ1` times a `u32`
    /// maximum) fits `i64`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tau3 < 1 {
            return Err(ConfigError("tau3 must be at least 1"));
        }
        if self.tau2 <= self.tau3 {
            return Err(ConfigError("tau2 must exceed tau3"));
        }
        if self.tau1 <= self.tau2 {
            return Err(ConfigError("tau1 must exceed tau2"));
        }
        if self.tau_prime < 1 {
            return Err(ConfigError("tau_prime must be at least 1"));
        }
        if self.k < 1 {
            return Err(ConfigError("k must be at least 1"));
        }
        if self.overestimate < 1 {
            return Err(ConfigError("overestimate factor must be at least 1"));
        }
        if self.overestimate > u64::from(u32::MAX) {
            return Err(ConfigError("overestimate factor must be at most u32::MAX"));
        }
        if self.tau_prime > u64::from(u32::MAX) {
            return Err(ConfigError("tau_prime must be at most u32::MAX"));
        }
        if self.tau1 > TAU1_MAX {
            return Err(ConfigError("tau1 must be at most i64::MAX / u32::MAX"));
        }
        Ok(())
    }

    /// The §4.1 *synchronized population* estimate band for population `n`:
    /// `max, lastMax ∈ [0.5·log2 n, 40(k+1)²·log2 n]`, in descaled estimate
    /// units.
    ///
    /// Convergence/holding-time experiments test membership in this band
    /// (or a tighter one — the theory band is extremely generous).
    pub fn valid_band(&self, n: usize) -> (f64, f64) {
        let log_n = (n.max(2) as f64).log2();
        let k = f64::from(self.k);
        (0.5 * log_n, 40.0 * (k + 1.0) * (k + 1.0) * log_n)
    }
}

impl Default for DscConfig {
    /// The empirical configuration (the paper's §5 constants).
    fn default() -> Self {
        Self::empirical()
    }
}

/// A constraint violation in a [`DscConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid protocol configuration: {}", self.0)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empirical_matches_paper_section_5() {
        let c = DscConfig::empirical();
        assert_eq!((c.tau1, c.tau2, c.tau3), (6, 4, 2));
        assert_eq!(c.tau_prime, 20);
        assert_eq!(c.k, 16);
        assert_eq!(c.overestimate, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn theory_matches_lemma_4_5() {
        let c = DscConfig::theory(2);
        assert_eq!((c.tau1, c.tau2, c.tau3), (2280, 2238, 908));
        assert_eq!(c.tau_prime, 8700);
        assert_eq!(c.overestimate, 60);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn theory_requires_k_at_least_two() {
        let _ = DscConfig::theory(1);
    }

    #[test]
    fn default_is_empirical() {
        assert_eq!(DscConfig::default(), DscConfig::empirical());
    }

    #[test]
    fn validation_catches_bad_taus() {
        let mut c = DscConfig::empirical();
        c.tau2 = 6;
        assert!(c.validate().is_err());
        c = DscConfig::empirical();
        c.tau3 = 0;
        assert!(c.validate().is_err());
        c = DscConfig::empirical();
        c.tau3 = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid tau triple")]
    fn with_taus_panics_on_violation() {
        let _ = DscConfig::empirical().with_taus(4, 4, 2);
    }

    #[test]
    fn error_displays_reason() {
        let e = DscConfig::empirical().with_k(16); // fine
        assert_eq!(e.k, 16);
        let mut c = DscConfig::empirical();
        c.tau1 = 4;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("tau1"));
    }

    #[test]
    fn valid_band_brackets_log_n() {
        let c = DscConfig::empirical();
        let (lo, hi) = c.valid_band(1 << 20);
        assert!((lo - 10.0).abs() < 1e-9);
        assert!(hi > 20.0 * 40.0);
    }

    proptest! {
        #[test]
        fn validated_builders_accept_valid_triples(
            t3 in 1u64..50, d2 in 1u64..50, d1 in 1u64..50
        ) {
            let c = DscConfig::empirical().with_taus(t3 + d2 + d1, t3 + d2, t3);
            prop_assert!(c.validate().is_ok());
        }
    }
}
