//! Probability distributions used by the radio, traffic and latency models.
//!
//! Implemented here (rather than pulling in `rand_distr`) to keep the
//! dependency set minimal and the sampling algorithms under our control —
//! the exact draw sequence is part of the reproducibility contract.

use crate::rng::SimRng;
use serde::Serialize;

/// Standard normal draw via the Marsaglia polar method.
///
/// The polar method consumes a variable number of uniforms, which is fine:
/// determinism comes from the seeded stream, not a fixed draw count.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = rng.range_f64(-1.0, 1.0);
        let v = rng.range_f64(-1.0, 1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal draw with the given mean and standard deviation.
pub fn normal(rng: &mut SimRng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Log-normal draw parameterised by the *underlying* normal's `mu`/`sigma`.
pub fn log_normal(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Exponential draw with the given mean (`1/lambda`). A zero or negative
/// mean returns 0.
pub fn exponential(rng: &mut SimRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    // Inverse CDF; 1 - U avoids ln(0).
    -mean * (1.0 - rng.f64()).ln()
}

/// Pareto draw with scale `x_min > 0` and shape `alpha > 0`; used for
/// heavy-tailed web object sizes.
pub fn pareto(rng: &mut SimRng, x_min: f64, alpha: f64) -> f64 {
    assert!(x_min > 0.0 && alpha > 0.0, "invalid Pareto parameters");
    x_min / (1.0 - rng.f64()).powf(1.0 / alpha)
}

/// A distribution that can be described in configuration and sampled later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Normal with mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Normal truncated below at `min` (re-draws are not used; the sample
    /// is clamped, which keeps draw counts fixed).
    NormalClamped {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
        /// Lower clamp.
        min: f64,
    },
    /// Log-normal with underlying `mu` and `sigma`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean (`1/lambda`).
        mean: f64,
    },
    /// Pareto with scale and shape.
    Pareto {
        /// Scale (minimum value).
        x_min: f64,
        /// Shape (tail index).
        alpha: f64,
    },
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => rng.range_f64(lo, hi),
            Dist::Normal { mean, std_dev } => normal(rng, mean, std_dev),
            Dist::NormalClamped { mean, std_dev, min } => normal(rng, mean, std_dev).max(min),
            Dist::LogNormal { mu, sigma } => log_normal(rng, mu, sigma),
            Dist::Exponential { mean } => exponential(rng, mean),
            Dist::Pareto { x_min, alpha } => pareto(rng, x_min, alpha),
        }
    }

    /// Analytical mean of the distribution (clamping ignored for
    /// `NormalClamped`; callers use it for sanity checks only).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Normal { mean, .. } => mean,
            Dist::NormalClamped { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Exponential { mean } => mean,
            Dist::Pareto { x_min, alpha } => {
                if alpha > 1.0 {
                    alpha * x_min / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;

    fn sample_stats(d: Dist, n: usize, seed: u64) -> OnlineStats {
        let mut rng = SimRng::new(seed);
        let mut s = OnlineStats::new();
        for _ in 0..n {
            s.push(d.sample(&mut rng));
        }
        s
    }

    #[test]
    fn normal_moments() {
        let s = sample_stats(
            Dist::Normal {
                mean: 10.0,
                std_dev: 2.0,
            },
            50_000,
            1,
        );
        assert!((s.mean() - 10.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "std {}", s.std_dev());
    }

    #[test]
    fn exponential_moments() {
        let s = sample_stats(Dist::Exponential { mean: 3.0 }, 50_000, 2);
        assert!((s.mean() - 3.0).abs() < 0.1);
        assert!((s.std_dev() - 3.0).abs() < 0.15);
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let d = Dist::LogNormal {
            mu: 0.5,
            sigma: 0.4,
        };
        let s = sample_stats(d, 100_000, 3);
        assert!((s.mean() - d.mean()).abs() / d.mean() < 0.02);
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            assert!(pareto(&mut rng, 2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn clamped_normal_never_below_min() {
        let d = Dist::NormalClamped {
            mean: 0.0,
            std_dev: 5.0,
            min: 0.0,
        };
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SimRng::new(6);
        assert_eq!(Dist::Constant(7.5).sample(&mut rng), 7.5);
        assert_eq!(Dist::Constant(7.5).mean(), 7.5);
    }

    #[test]
    fn exponential_degenerate_mean() {
        let mut rng = SimRng::new(7);
        assert_eq!(exponential(&mut rng, 0.0), 0.0);
        assert_eq!(exponential(&mut rng, -1.0), 0.0);
    }
}
