//! Adversary removals on count vectors, shared by the count backends.
//!
//! [`CountSimulator`](crate::CountSimulator),
//! [`BatchedCountSimulator`](crate::BatchedCountSimulator) and
//! [`JumpSimulator`](crate::JumpSimulator) store a
//! configuration as one counter per state, so the Doty–Eftekhari
//! adversary's two removal modes become operations on that vector:
//!
//! * **uniform removal** ([`remove_uniform_counts`]) — `count` of the `n`
//!   agents chosen uniformly without replacement. The per-state shares of
//!   such a removal follow the multivariate hypergeometric distribution,
//!   drawn here one state at a time from its univariate conditionals
//!   ([`sample_hypergeometric`]). Cost is O(#occupied states) with at most
//!   one RNG word per occupied state, independent of `count` and `n`, and
//!   the result is exact in distribution at every population size;
//! * **targeted removal** ([`largest_estimate_removals`]) — the poacher
//!   that empties the highest-estimate states first. Deterministic: it
//!   draws no randomness.
//!
//! Both backends call the same routines from the same RNG state, so their
//! exact-regime trajectories stay identical across adversary events.

use pp_model::{FiniteProtocol, SizeEstimator};
use rand::{Rng, RngExt};

/// Removes `count` of the `n` agents described by `counts` uniformly at
/// random without replacement, subtracting each state's share in place.
///
/// Walks the occupied states in index order. With `rest` agents in this
/// and the later states and `left` still to remove, state `i` loses
/// `h_i ~ Hypergeometric(rest, c_i, left)`; the last occupied state takes
/// whatever is left without a draw. The sequence of conditionals is
/// exactly the multivariate hypergeometric law of a uniform removal.
///
/// Costs at most one RNG word per occupied state except the last, and
/// none for states whose share is forced.
///
/// # Panics
///
/// Panics if `count > n`. `n` must equal the sum of `counts`.
pub(crate) fn remove_uniform_counts<R: Rng + ?Sized>(
    rng: &mut R,
    counts: &mut [u64],
    n: u64,
    count: u64,
) {
    assert!(count <= n, "cannot remove {count} of {n} agents");
    debug_assert_eq!(counts.iter().sum::<u64>(), n, "n must be the total count");
    let mut rest = n;
    let mut left = count;
    for c in counts.iter_mut() {
        if left == 0 {
            break;
        }
        if *c == 0 {
            continue;
        }
        let share = if *c == rest {
            left
        } else {
            sample_hypergeometric(rng, rest, *c, left)
        };
        rest -= *c;
        *c -= share;
        left -= share;
    }
    debug_assert_eq!(left, 0, "shares must add up to the removal");
}

/// Samples `Hypergeometric(population, successes, draws)`: the number of
/// successes among `draws` items taken without replacement from
/// `population` items of which `successes` are successes.
///
/// Mode-centred inversion: one uniform word `u` is compared against the
/// pmf at the mode, then against the pmf values met walking outward from
/// the mode (one step down, one step up, …) via the ratio recurrence, and
/// the value at which the running sum passes `u` is returned. Exact in
/// distribution up to f64 rounding of the pmf, with an expected walk of
/// O(standard deviation) steps. A degenerate support (`lo == hi`) returns
/// its one value without consuming any randomness.
///
/// # Panics
///
/// Panics if `successes` or `draws` exceeds `population`.
pub(crate) fn sample_hypergeometric<R: Rng + ?Sized>(
    rng: &mut R,
    population: u64,
    successes: u64,
    draws: u64,
) -> u64 {
    assert!(
        successes <= population && draws <= population,
        "Hypergeometric({population}, {successes}, {draws}) is undefined"
    );
    let failures = population - successes;
    let lo = draws.saturating_sub(failures);
    let hi = successes.min(draws);
    if lo == hi {
        return lo;
    }
    let mode = hypergeometric_mode(population, successes, draws).clamp(lo, hi);
    let (n, k, m) = (population as f64, successes as f64, draws as f64);
    let mut u: f64 = rng.random();
    let p_mode = hypergeometric_ln_pmf(population, successes, draws, mode).exp();
    u -= p_mode;
    if u < 0.0 {
        return mode;
    }
    // Walk outward from the mode. A side stops at the support's end or
    // once its pmf underflows; if rounding leaves `u` unspent after both
    // sides stop, the leftover mass (~1e-16) goes to the mode.
    let (mut down, mut p_down) = (mode, p_mode);
    let (mut up, mut p_up) = (mode, p_mode);
    loop {
        let can_down = down > lo && p_down > 0.0;
        let can_up = up < hi && p_up > 0.0;
        if !can_down && !can_up {
            return mode;
        }
        if can_down {
            // P(x − 1) / P(x) = x (N − K − m + x) / ((K − x + 1)(m − x + 1)).
            let x = down as f64;
            p_down *= x * (n - k - m + x) / ((k - x + 1.0) * (m - x + 1.0));
            down -= 1;
            u -= p_down;
            if u < 0.0 {
                return down;
            }
        }
        if can_up {
            // P(x + 1) / P(x) = (K − x)(m − x) / ((x + 1)(N − K − m + x + 1)).
            let x = up as f64;
            p_up *= (k - x) * (m - x) / ((x + 1.0) * (n - k - m + x + 1.0));
            up += 1;
            u -= p_up;
            if u < 0.0 {
                return up;
            }
        }
    }
}

/// The mode `⌊(m + 1)(K + 1) / (N + 2)⌋` of `Hypergeometric(N, K, m)`,
/// in u128 so the product cannot overflow.
fn hypergeometric_mode(population: u64, successes: u64, draws: u64) -> u64 {
    let num = (u128::from(draws) + 1) * (u128::from(successes) + 1);
    (num / (u128::from(population) + 2)) as u64
}

/// `ln P(X = x)` for `X ~ Hypergeometric(N, K, m)` with `lo < hi`.
///
/// Evaluating `ln C(K, x) + ln C(N − K, m − x) − ln C(N, m)` through ln Γ
/// directly would subtract terms of size N·ln N (≈ 10¹¹ at N = 2³²) and
/// lose most of the f64 mantissa. Instead the pmf is factored as
/// `b(x; K, p) · b(m − x; N − K, p) / b(m; N, p)` with binomial pmfs at
/// `p = m/N` (the `p^m q^(N−m)` factors cancel exactly), and each binomial
/// is evaluated in Loader's saddle-point form, whose large terms cancel
/// analytically rather than numerically: only the Stirling remainders
/// [`stirling_error`] and the deviances [`deviance`] remain, all O(1) or
/// computed without cancellation.
fn hypergeometric_ln_pmf(population: u64, successes: u64, draws: u64, x: u64) -> f64 {
    let n = population as f64;
    let p = draws as f64 / n;
    let q = (population - draws) as f64 / n;
    ln_binomial_pmf(x, successes, p, q) + ln_binomial_pmf(draws - x, population - successes, p, q)
        - ln_binomial_pmf(draws, population, p, q)
}

/// `ln [C(n, x) p^x q^(n−x)]` for `0 < p, q < 1`, in Loader's form.
fn ln_binomial_pmf(x: u64, n: u64, p: f64, q: f64) -> f64 {
    let nf = n as f64;
    if x == 0 {
        return if p < 0.1 {
            -deviance(nf, nf * q) - nf * p
        } else {
            nf * q.ln()
        };
    }
    if x == n {
        return if q < 0.1 {
            -deviance(nf, nf * p) - nf * q
        } else {
            nf * p.ln()
        };
    }
    let xf = x as f64;
    let y = (n - x) as f64;
    let lc = stirling_error(n)
        - stirling_error(x)
        - stirling_error(n - x)
        - deviance(xf, nf * p)
        - deviance(y, nf * q);
    let lf = std::f64::consts::TAU.ln() + xf.ln() + (-xf / nf).ln_1p();
    lc - 0.5 * lf
}

/// The Stirling remainder `δ(n) = ln n! − [(n + ½) ln n − n + ½ ln 2π]`,
/// the hand-rolled part of ln Γ(n + 1) this module needs.
///
/// Small `n` subtract from the exact factorial (exact in f64 up to 18!);
/// larger `n` sum the asymptotic series `1/(12n) − 1/(360n³) + …`, truncated
/// where the next term is below f64 resolution of `δ(n)`.
fn stirling_error(n: u64) -> f64 {
    const S0: f64 = 1.0 / 12.0;
    const S1: f64 = 1.0 / 360.0;
    const S2: f64 = 1.0 / 1260.0;
    const S3: f64 = 1.0 / 1680.0;
    const S4: f64 = 1.0 / 1188.0;
    if n <= 15 {
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        let ln_factorial = ((1..=n).product::<u64>() as f64).ln();
        let half_ln_tau = 0.5 * std::f64::consts::TAU.ln();
        return ln_factorial - (nf + 0.5) * nf.ln() + nf - half_ln_tau;
    }
    let nf = n as f64;
    let nn = nf * nf;
    if n > 500 {
        (S0 - S1 / nn) / nf
    } else if n > 80 {
        (S0 - (S1 - S2 / nn) / nn) / nf
    } else if n > 35 {
        (S0 - (S1 - (S2 - S3 / nn) / nn) / nn) / nf
    } else {
        (S0 - (S1 - (S2 - (S3 - S4 / nn) / nn) / nn) / nn) / nf
    }
}

/// The binomial deviance `x ln(x / np) + np − x`, summed as a series in
/// `v = (x − np)/(x + np)` when `x` is near `np` (where the closed form
/// cancels catastrophically).
fn deviance(x: f64, np: f64) -> f64 {
    if (x - np).abs() < 0.1 * (x + np) {
        let v = (x - np) / (x + np);
        let v2 = v * v;
        let mut sum = (x - np) * v;
        let mut term = 2.0 * x * v;
        for j in 1..1000 {
            term *= v2;
            let next = sum + term / f64::from(2 * j + 1);
            if next == sum {
                return next;
            }
            sum = next;
        }
        return sum;
    }
    x * (x / np).ln() + np - x
}

/// The targeted adversary on a count vector: the `(state, new_count)`
/// updates that remove `count` agents highest estimate first (agents
/// without an estimate sort lowest and go last), mirroring
/// `Simulator::remove_largest_estimates`. Each count backend applies them
/// with its own `set_count`. Draws no randomness.
///
/// # Panics
///
/// Panics if `count` exceeds the total of `counts`.
pub(crate) fn largest_estimate_removals<P>(
    protocol: &P,
    counts: &[u64],
    count: u64,
) -> Vec<(usize, u64)>
where
    P: FiniteProtocol + SizeEstimator,
{
    let n: u64 = counts.iter().sum();
    assert!(count <= n, "cannot remove {count} of {n} agents");
    let estimate = |i: usize| protocol.estimate_log2(&protocol.state_from_index(i));
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        estimate(b)
            .partial_cmp(&estimate(a))
            .expect("non-NaN estimates")
    });
    let mut left = count;
    let mut updates = Vec::new();
    for i in order {
        if left == 0 {
            break;
        }
        let take = counts[i].min(left);
        if take > 0 {
            updates.push((i, counts[i] - take));
            left -= take;
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// An RNG wrapper counting the 64-bit words drawn through it.
    struct CountingRng {
        inner: SmallRng,
        words: u64,
    }

    impl CountingRng {
        fn seeded(seed: u64) -> Self {
            CountingRng {
                inner: SmallRng::seed_from_u64(seed),
                words: 0,
            }
        }
    }

    impl Rng for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// The exact pmf over `[lo, hi]` of `Hypergeometric(N, K, m)`, computed
    /// independently of [`hypergeometric_ln_pmf`]: ratio-recurrence weights
    /// relative to the mode, normalized by their sum. Windows wider than
    /// 12 standard deviations around the mode are cut there (the mass
    /// beyond is below 1e-30). Returns `(first value, pmf)`.
    fn reference_pmf(population: u64, successes: u64, draws: u64) -> (u64, Vec<f64>) {
        let (n, k, m) = (population as f64, successes as f64, draws as f64);
        let lo = draws.saturating_sub(population - successes);
        let hi = successes.min(draws);
        let mode = hypergeometric_mode(population, successes, draws).clamp(lo, hi);
        let var = m * (k / n) * (1.0 - k / n) * (n - m) / (n - 1.0).max(1.0);
        let reach = (12.0 * var.sqrt()) as u64 + 30;
        let (first, last) = (lo.max(mode.saturating_sub(reach)), hi.min(mode + reach));
        let mut w = vec![0.0f64; (last - first + 1) as usize];
        w[(mode - first) as usize] = 1.0;
        for x in (first + 1..=mode).rev() {
            let xf = x as f64;
            let ratio = xf * (n - k - m + xf) / ((k - xf + 1.0) * (m - xf + 1.0));
            w[(x - 1 - first) as usize] = w[(x - first) as usize] * ratio;
        }
        for x in mode..last {
            let xf = x as f64;
            let ratio = (k - xf) * (m - xf) / ((xf + 1.0) * (n - k - m + xf + 1.0));
            w[(x + 1 - first) as usize] = w[(x - first) as usize] * ratio;
        }
        let total: f64 = w.iter().sum();
        w.iter_mut().for_each(|p| *p /= total);
        (first, w)
    }

    /// Pearson's χ² of `samples` against `pmf` (starting at value
    /// `first`), over bins merged left to right until each expects at
    /// least 20 hits; values outside the window fall into the end bins.
    /// Returns the statistic and its degrees of freedom.
    fn chi_square(samples: &[u64], first: u64, pmf: &[f64]) -> (f64, usize) {
        let draws = samples.len() as f64;
        let mut edges = Vec::new(); // exclusive upper value of each bin
        let mut expected = Vec::new();
        let mut acc = 0.0;
        for (j, &p) in pmf.iter().enumerate() {
            acc += p;
            if acc * draws >= 20.0 {
                edges.push(first + j as u64 + 1);
                expected.push(acc * draws);
                acc = 0.0;
            }
        }
        if let Some(e) = expected.last_mut() {
            *e += acc * draws;
        }
        let bins = expected.len();
        let mut observed = vec![0u64; bins];
        for &x in samples {
            let b = edges.partition_point(|&edge| edge <= x).min(bins - 1);
            observed[b] += 1;
        }
        let stat = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum();
        (stat, bins.saturating_sub(1))
    }

    /// Upper 0.1% point of χ²(df), by the Wilson–Hilferty cube
    /// approximation (accurate to a few percent from df = 3 on).
    fn chi_square_critical(df: usize) -> f64 {
        let df = df.max(1) as f64;
        let a = 2.0 / (9.0 * df);
        df * (1.0 - a + 3.09 * a.sqrt()).powi(3)
    }

    /// Goodness of fit of the univariate sampler against the exact pmf,
    /// over a grid of shapes: a single success (K = 1), all but one item
    /// drawn (m = N − 1), skewed and symmetric supports, and populations
    /// just above 2³² where the ln-Γ terms are ~10¹¹. Each case is a χ²
    /// test at 0.1% false alarm; with the seeds pinned the outcome is
    /// deterministic, and a real sampler bias (a wrong pmf at the mode
    /// shifts mass between centre and tails) fails by orders of magnitude.
    #[test]
    fn hypergeometric_sampler_fits_the_exact_pmf() {
        let big = (1u64 << 32) + 7;
        let cases: [(u64, u64, u64); 11] = [
            (10, 1, 5),
            (10, 1, 9),
            (50, 20, 49),
            (40, 15, 12),
            (1_000, 500, 500),
            (1_000, 990, 600),
            (1_000_000, 300_000, 10_000),
            (big, big / 3, 10_000),
            (big, 1 << 31, big - 5_000),
            (big, 40, 1 << 31),
            (big, big - 3, 1 << 31),
        ];
        let draws = 20_000;
        for (case, &(n, k, m)) in cases.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(1_000 + case as u64);
            let samples: Vec<u64> = (0..draws)
                .map(|_| sample_hypergeometric(&mut rng, n, k, m))
                .collect();
            let lo = m.saturating_sub(n - k);
            let hi = k.min(m);
            assert!(
                samples.iter().all(|&x| (lo..=hi).contains(&x)),
                "Hypergeometric({n}, {k}, {m}) left its support"
            );
            let (first, pmf) = reference_pmf(n, k, m);
            let (stat, df) = chi_square(&samples, first, &pmf);
            assert!(df >= 1, "Hypergeometric({n}, {k}, {m}): too few bins");
            let crit = chi_square_critical(df);
            assert!(
                stat < crit,
                "Hypergeometric({n}, {k}, {m}): chi-square {stat:.1} >= {crit:.1} at df {df}"
            );
        }
    }

    /// The ln-Γ evaluation at the mode matches the normalized recurrence
    /// to 1e-9 relative, including wide supports whose sampling would be
    /// too slow for the χ² test and populations far above 2³².
    #[test]
    fn hypergeometric_pmf_at_the_mode_is_accurate() {
        let big = (1u64 << 32) + 7;
        for &(n, k, m) in &[
            (10u64, 3u64, 4u64),
            (17, 16, 1),
            (1_000, 500, 500),
            (big, 3_000_000_000, 2_000_000_000),
            (1 << 40, 1 << 39, 1 << 38),
            (1 << 40, 5, 1 << 39),
        ] {
            let lo = m.saturating_sub(n - k);
            let mode = hypergeometric_mode(n, k, m).clamp(lo, k.min(m));
            let (first, pmf) = reference_pmf(n, k, m);
            let want = pmf[(mode - first) as usize];
            let got = hypergeometric_ln_pmf(n, k, m, mode).exp();
            assert!(
                ((got - want) / want).abs() < 1e-9,
                "Hypergeometric({n}, {k}, {m}) at mode {mode}: {got} vs {want}"
            );
        }
    }

    /// A degenerate support (`lo == hi`) has one value and draws nothing.
    #[test]
    fn hypergeometric_degenerate_supports_draw_no_words() {
        let mut rng = CountingRng::seeded(3);
        assert_eq!(sample_hypergeometric(&mut rng, 12, 12, 5), 5); // K = N
        assert_eq!(sample_hypergeometric(&mut rng, 12, 0, 5), 0); // K = 0
        assert_eq!(sample_hypergeometric(&mut rng, 20, 7, 0), 0); // m = 0
        assert_eq!(sample_hypergeometric(&mut rng, 20, 7, 20), 7); // m = N
        assert_eq!(rng.words, 0, "a forced value needs no randomness");
        let x = sample_hypergeometric(&mut rng, 20, 13, 13); // support 6..=13
        assert!((6..=13).contains(&x));
        assert_eq!(rng.words, 1, "a real draw takes exactly one word");
    }

    /// The word budget of a uniform removal: one word per occupied state
    /// except the last, whatever the population and removal size.
    #[test]
    fn uniform_removal_draws_at_most_one_word_per_occupied_state() {
        // Two states at n = 2²⁴, 30% removed: one draw, the second state
        // takes the rest.
        let n = 1u64 << 24;
        let mut counts = vec![n / 2 + 12_345, n / 2 - 12_345];
        let count = n * 3 / 10;
        let mut rng = CountingRng::seeded(4);
        remove_uniform_counts(&mut rng, &mut counts, n, count);
        assert_eq!(rng.words, 1);
        assert_eq!(counts.iter().sum::<u64>(), n - count);

        // 401 states, all occupied (the lemmas' CHVP width).
        let mut counts: Vec<u64> = (0..401u64).map(|i| 1 + (i * 7_919) % 5_000).collect();
        let n: u64 = counts.iter().sum();
        let mut rng = CountingRng::seeded(5);
        remove_uniform_counts(&mut rng, &mut counts, n, n / 3);
        assert!(rng.words <= 400, "drew {} words for 401 states", rng.words);
        assert_eq!(counts.iter().sum::<u64>(), n - n / 3);
    }

    /// The multivariate shares of random removals sum to the removal and
    /// never exceed a state's count.
    #[test]
    fn uniform_removal_shares_sum_to_count_and_respect_every_state() {
        let mut rng = SmallRng::seed_from_u64(6);
        for trial in 0..500u64 {
            let states = 1 + (trial % 13) as usize;
            let before: Vec<u64> = (0..states)
                .map(|_| match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => rng.random_range(1..4),
                    _ => rng.random_range(1..1_000_000),
                })
                .collect();
            let n: u64 = before.iter().sum();
            let count = if n == 0 { 0 } else { rng.random_range(0..=n) };
            let mut after = before.clone();
            remove_uniform_counts(&mut rng, &mut after, n, count);
            let mut total = 0;
            for i in 0..states {
                assert!(after[i] <= before[i], "trial {trial}: state {i} grew");
                total += before[i] - after[i];
            }
            assert_eq!(
                total, count,
                "trial {trial}: shares must sum to the removal"
            );
        }
    }

    /// The sequential conditionals give every state its hypergeometric
    /// marginal — the last state's share, which takes "what is left"
    /// without a draw of its own, included.
    #[test]
    fn uniform_removal_marginals_are_hypergeometric() {
        let before = [30u64, 0, 50, 20];
        let (n, count) = (100u64, 40u64);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut last_shares = Vec::new();
        let mut first_shares = Vec::new();
        for _ in 0..20_000 {
            let mut counts = before;
            remove_uniform_counts(&mut rng, &mut counts, n, count);
            first_shares.push(before[0] - counts[0]);
            last_shares.push(before[3] - counts[3]);
        }
        for (state, shares) in [(0, &first_shares), (3, &last_shares)] {
            let (first, pmf) = reference_pmf(n, before[state], count);
            let (stat, df) = chi_square(shares, first, &pmf);
            let crit = chi_square_critical(df);
            assert!(
                stat < crit,
                "state {state}: chi-square {stat:.1} >= {crit:.1}"
            );
        }
    }
}
