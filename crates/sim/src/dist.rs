//! Workload distributions.
//!
//! The paper's workloads are open-loop Poisson arrivals (§5.4), Zipfian key
//! popularity with skew 0.99 and 0.9999 (§5.6, the MICA/YCSB convention), and
//! service times that we model as exponential, lognormal, or bimodal
//! mixtures. All samplers draw from the deterministic [`Rng`].

use crate::rng::Rng;

/// Exponential distribution with the given mean.
///
/// # Example
///
/// ```
/// use dagger_sim::{dist::Exp, Rng};
/// let exp = Exp::with_mean(100.0);
/// let mut rng = Rng::new(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Exp { mean }
    }

    /// Creates an exponential distribution with rate `rate` (events per
    /// time unit).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self::with_mean(1.0 / rate)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; guard against ln(0).
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        -self.mean * u.ln()
    }
}

/// Lognormal distribution parameterized by the *linear-space* median and the
/// shape `sigma` (standard deviation of the underlying normal).
///
/// Used for service-time models: medians are easy to read off the paper's
/// plots, and the right tail produced by `sigma` controls p99 inflation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with the given linear-space `median` and shape
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive or `sigma` is negative.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(
            median > 0.0 && median.is_finite(),
            "median must be positive"
        );
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draws one sample (Box–Muller transform).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// A two-point service-time mixture: value `a` with probability `p_a`,
/// otherwise `b`. Models tiers with a fast path and a slow path (the
/// mechanism behind Table 4's threading-model gap).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bimodal {
    /// Probability of drawing `a`.
    pub p_a: f64,
    /// The common (usually fast) value.
    pub a: f64,
    /// The rare (usually slow) value.
    pub b: f64,
}

impl Bimodal {
    /// Creates a bimodal mixture.
    ///
    /// # Panics
    ///
    /// Panics if `p_a` is outside `[0, 1]`.
    pub fn new(p_a: f64, a: f64, b: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_a), "p_a must be a probability");
        Bimodal { p_a, a, b }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        if rng.chance(self.p_a) {
            self.a
        } else {
            self.b
        }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.p_a * self.a + (1.0 - self.p_a) * self.b
    }
}

/// Zipf distribution over `{0, 1, ..., n-1}` with exponent `s`, sampled by
/// rejection-inversion (Hörmann & Derflinger 1996, as used by Apache Commons
/// and `rand_distr`): O(1) per sample with no O(n) setup table — required for
/// the paper's 200 M-key MICA dataset (§5.6).
///
/// Rank 0 is the most popular item.
///
/// # Example
///
/// ```
/// use dagger_sim::{dist::Zipf, Rng};
/// let zipf = Zipf::new(1_000_000, 0.99);
/// let mut rng = Rng::new(42);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1_000_000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    rejection_s: f64,
}

/// `log(1 + x) / x`, continuous at zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 + x * x / 3.0
    }
}

/// `(exp(x) - 1) / x`, continuous at zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 * (1.0 + x / 3.0)
    }
}

impl Zipf {
    /// Creates a Zipf distribution over `n` items with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not in `(0, 20]`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(s > 0.0 && s <= 20.0, "s must be in (0, 20]");
        let mut z = Zipf {
            n,
            s,
            h_integral_x1: 0.0,
            h_integral_n: 0.0,
            rejection_s: 0.0,
        };
        z.h_integral_x1 = z.h_integral(1.5) - 1.0;
        z.h_integral_n = z.h_integral(n as f64 + 0.5);
        z.rejection_s = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn skew(&self) -> f64 {
        self.s
    }

    /// `H(x) = integral of x^-s` (up to a constant), stable near `s = 1`.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            t = -1.0;
        }
        (helper1(t) * x).exp()
    }

    /// Draws a rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_integral_n + rng.next_f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let mut k = (x + 0.5) as i64;
            if k < 1 {
                k = 1;
            } else if k as u64 > self.n {
                k = self.n as i64;
            }
            let kf = k as f64;
            if kf - x <= self.rejection_s || u >= self.h_integral(kf + 0.5) - self.h(kf) {
                return (k - 1) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_mean_converges() {
        let exp = Exp::with_mean(250.0);
        let mut rng = Rng::new(1);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn exp_with_rate_matches_mean() {
        let a = Exp::with_rate(0.01);
        assert!((a.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_median_converges() {
        let ln = LogNormal::with_median(1000.0, 0.5);
        let mut rng = Rng::new(3);
        let mut samples: Vec<f64> = (0..50_001).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[25_000];
        assert!((median - 1000.0).abs() / 1000.0 < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_has_right_tail() {
        let ln = LogNormal::with_median(1000.0, 0.7);
        let mut rng = Rng::new(4);
        let mut samples: Vec<f64> = (0..50_000).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = samples[49_500 - 1];
        assert!(p99 > 3.0 * 1000.0, "p99 {p99}");
    }

    #[test]
    fn bimodal_mean_and_values() {
        let b = Bimodal::new(0.9, 10.0, 1000.0);
        assert!((b.mean() - 109.0).abs() < 1e-9);
        let mut rng = Rng::new(5);
        let n = 100_000;
        let slow = (0..n)
            .filter(|_| (b.sample(&mut rng) - 1000.0).abs() < 1e-9)
            .count();
        let frac = slow as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "slow fraction {frac}");
    }

    #[test]
    fn zipf_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(6);
        for _ in 0..50_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(7);
        let mut counts = [0u64; 10];
        let mut total_top10 = 0u64;
        let n = 200_000;
        for _ in 0..n {
            let k = z.sample(&mut rng);
            if k < 10 {
                counts[k as usize] += 1;
                total_top10 += 1;
            }
        }
        // Rank 0 strictly dominates and top-10 captures a large share.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[5]);
        assert!(total_top10 as f64 / n as f64 > 0.2);
    }

    #[test]
    fn zipf_frequency_matches_theory() {
        // P(rank 0) / P(rank 1) should be ~2^s.
        let s = 0.99;
        let z = Zipf::new(100_000, s);
        let mut rng = Rng::new(8);
        let (mut c0, mut c1) = (0u64, 0u64);
        for _ in 0..500_000 {
            match z.sample(&mut rng) {
                0 => c0 += 1,
                1 => c1 += 1,
                _ => {}
            }
        }
        let ratio = c0 as f64 / c1 as f64;
        let expect = 2f64.powf(s);
        assert!(
            (ratio - expect).abs() / expect < 0.1,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn zipf_higher_skew_more_concentrated() {
        let mut rng = Rng::new(9);
        let frac_top1 = |s: f64, rng: &mut Rng| {
            let z = Zipf::new(100_000, s);
            let n = 200_000;
            (0..n).filter(|_| z.sample(rng) == 0).count() as f64 / n as f64
        };
        let low = frac_top1(0.9, &mut rng);
        let high = frac_top1(1.2, &mut rng);
        assert!(high > low, "top-1 share: skew 1.2 {high} <= skew 0.9 {low}");
    }

    #[test]
    fn zipf_huge_n_works_without_table() {
        // 200 M keys like the paper's MICA dataset; construction must be O(1).
        let z = Zipf::new(200_000_000, 0.9999);
        let mut rng = Rng::new(10);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 200_000_000);
        }
    }

    #[test]
    fn zipf_single_item() {
        let z = Zipf::new(1, 0.99);
        let mut rng = Rng::new(11);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_s_equal_one_is_stable() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(12);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }
}
