//! The random scheduler.
//!
//! In the population protocol model, each configuration `C_{i+1}` is produced
//! from `C_i` by selecting an ordered pair of distinct agents uniformly at
//! random (paper §2). [`random_ordered_pair`] draws one such pair from one
//! RNG word, and the agent-array simulator steps through it.

use rand::Rng;

/// Number of ordered pairs of distinct agents among `n`: `n·(n−1)`.
///
/// The domain size of one [`random_ordered_pair`] draw; hot loops hoist it
/// out of the per-interaction path via [`ordered_pair_from_draw`].
#[inline]
pub fn ordered_pair_span(n: usize) -> u64 {
    (n as u64) * (n as u64 - 1)
}

/// Decodes a uniform draw `r ∈ [0, n·(n−1))` into the `r`-th ordered pair
/// of distinct indices: `i = r / (n−1)` and `j = r mod (n−1)` shifted up by
/// one when `j ≥ i` — a bijection between `[0, n(n−1))` and
/// `{(i, j) : i ≠ j}`, so a single uniform draw yields a uniform pair.
#[inline]
pub fn ordered_pair_from_draw(r: u64, n: usize) -> (usize, usize) {
    let m = n as u64 - 1;
    let i = (r / m) as usize;
    let mut j = (r % m) as usize;
    if j >= i {
        j += 1;
    }
    (i, j)
}

/// Draws an ordered pair of distinct agent indices uniformly from
/// `{(i, j) : i ≠ j, 0 ≤ i, j < n}` with a *single* RNG word per pair
/// (one Lemire multiply-shift rejection sample from `[0, n·(n−1))`),
/// halving the RNG cost of the previous two-draw scheme.
///
/// The draw `r` is decomposed into `(r / (n−1), shifted r mod (n−1))`
/// without a hardware division: multiplying the random word by `n` yields
/// the quotient in the high 64 bits, and re-multiplying the low (fractional)
/// bits by `n−1` yields the remainder — the nested products satisfy
/// `⌊w·n·(n−1)/2⁶⁴⌋ = i·(n−1) + j` exactly, so the result (and the Lemire
/// rejection rule on the low bits of the total product) is bit-identical to
/// dividing the single range draw, at two multiplies per pair. A 64-bit
/// divide costs ~10× a multiply and sat directly on the simulator's hot
/// path ([`ordered_pair_from_draw`] remains the readable reference
/// implementation; tests pin the equivalence).
///
/// # Panics
///
/// Panics if `n < 2` (no pair exists) or `n ≥ 2³²` (the pair domain
/// `n·(n−1)` must fit one 64-bit draw; agent arrays that size are beyond
/// addressable memory anyway).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let (i, j) = pp_model::random_ordered_pair(10, &mut rng);
/// assert!(i != j && i < 10 && j < 10);
/// ```
#[inline]
pub fn random_ordered_pair<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (usize, usize) {
    assert!(
        n >= 2,
        "an interaction needs at least two agents, got n={n}"
    );
    assert!(
        (n as u128) < (1u128 << 32),
        "pair sampling needs n·(n−1) < 2^64, got n={n}"
    );
    let n64 = n as u64;
    let m = n64 - 1;
    // i = ⌊w·n/2⁶⁴⌋, j = ⌊frac·m/2⁶⁴⌋ where frac is the low half of w·n;
    // then i·m + j = ⌊w·n·m/2⁶⁴⌋ and lo is the low half of w·n·m.
    #[inline]
    fn decompose(w: u64, n64: u64, m: u64) -> (u64, u64, u64) {
        let t1 = u128::from(w) * u128::from(n64);
        let t2 = (t1 as u64 as u128) * u128::from(m);
        ((t1 >> 64) as u64, (t2 >> 64) as u64, t2 as u64)
    }
    let span = n64 * m;
    let (mut i, mut j, lo) = decompose(rng.next_u64(), n64, m);
    if lo < span {
        // Lemire rejection: discard draws whose low bits fall below
        // 2⁶⁴ mod span, exactly as `RngExt::random_range` would.
        let threshold = span.wrapping_neg() % span;
        let mut lo = lo;
        while lo < threshold {
            (i, j, lo) = decompose(rng.next_u64(), n64, m);
        }
    }
    let i = i as usize;
    let mut j = j as usize;
    if j >= i {
        j += 1;
    }
    (i, j)
}

/// Fills `out` with independent uniform ordered pairs — the bulk variant
/// of [`random_ordered_pair`], drawing the same word stream in the same
/// order.
///
/// Simulator hot loops draw a chunk of pairs ahead of applying them: the
/// draw loop is a tight RNG-only dependency chain, and the apply loop reads
/// its agent indices from a small local buffer, so the CPU can overlap the
/// (cache-missing) agent-state loads of many upcoming interactions instead
/// of serializing address generation behind each transition. (The
/// gather/scatter engine in `pp-sim` interleaves [`random_ordered_pair`]
/// calls with its read-gather pass instead — same word stream, same
/// trajectory — and uses this helper for cache-resident populations.)
///
/// # Panics
///
/// Panics if `n < 2` or `n ≥ 2³²` (see [`random_ordered_pair`]).
#[inline]
pub fn fill_random_ordered_pairs<R: Rng + ?Sized>(
    n: usize,
    rng: &mut R,
    out: &mut [(usize, usize)],
) {
    for slot in out.iter_mut() {
        *slot = random_ordered_pair(n, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let (i, j) = random_ordered_pair(7, &mut rng);
            assert_ne!(i, j);
            assert!(i < 7 && j < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_population_of_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = random_ordered_pair(1, &mut rng);
    }

    #[test]
    fn n_equals_two_alternates_both_pairs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 2];
        for _ in 0..100 {
            let (i, j) = random_ordered_pair(2, &mut rng);
            assert_ne!(i, j);
            seen[i] = true;
        }
        assert!(seen[0] && seen[1], "both orderings must occur");
    }

    /// The multiply-chain fast path must match the readable reference —
    /// one `random_range` draw from `[0, n(n−1))` decomposed by division —
    /// word for word and pair for pair on the same RNG stream.
    #[test]
    fn fast_path_matches_division_reference() {
        use rand::RngExt;
        for n in [2usize, 3, 7, 100, 4_096] {
            let mut fast_rng = SmallRng::seed_from_u64(0xFA57);
            let mut ref_rng = SmallRng::seed_from_u64(0xFA57);
            for _ in 0..2_000 {
                let fast = random_ordered_pair(n, &mut fast_rng);
                let r = ref_rng.random_range(0..ordered_pair_span(n));
                assert_eq!(fast, ordered_pair_from_draw(r, n), "n={n}");
            }
            // Same rejection behavior ⇒ the generators stay in lockstep.
            assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());
        }
    }

    #[test]
    fn draw_decoding_is_a_bijection() {
        // Every r in [0, n(n-1)) maps to a distinct valid ordered pair.
        for n in 2..=8usize {
            let mut seen = std::collections::HashSet::new();
            for r in 0..ordered_pair_span(n) {
                let (i, j) = ordered_pair_from_draw(r, n);
                assert_ne!(i, j, "n={n} r={r} produced a self-pair");
                assert!(i < n && j < n, "n={n} r={r} out of range: ({i}, {j})");
                assert!(seen.insert((i, j)), "n={n} r={r} duplicates ({i}, {j})");
            }
            assert_eq!(seen.len() as u64, ordered_pair_span(n));
        }
    }

    /// Chi-square goodness of fit of the single-draw sampler against the
    /// uniform distribution over all `n(n−1)` ordered pairs.
    ///
    /// With `n = 5` there are 20 pair cells (19 degrees of freedom); with
    /// 200k samples the statistic is chi-square(19)-distributed under H0.
    /// We accept below 43.82, the 0.1% critical value, so a correct sampler
    /// fails with probability ~1e-3 per seed — and the seed is fixed, so
    /// the test is deterministic.
    #[test]
    fn pair_distribution_chi_square_uniform() {
        let n = 5usize;
        let mut rng = SmallRng::seed_from_u64(4);
        let trials = 200_000u64;
        let mut counts = vec![vec![0u64; n]; n];
        for _ in 0..trials {
            let (i, j) = random_ordered_pair(n, &mut rng);
            counts[i][j] += 1;
        }
        let expected = trials as f64 / ordered_pair_span(n) as f64;
        let mut chi2 = 0.0;
        for (i, row) in counts.iter().enumerate() {
            assert_eq!(row[i], 0, "self-pair must never occur");
            for (j, &count) in row.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = count as f64 - expected;
                chi2 += d * d / expected;
            }
        }
        assert!(
            chi2 < 43.82,
            "chi-square statistic {chi2:.2} above the 0.1% critical value \
             for 19 degrees of freedom; counts: {counts:?}"
        );
    }

    /// Regression guard for the randomness budget: one ordered pair costs
    /// one 64-bit word. Lemire rejection could in principle retry, but its
    /// per-draw probability is `n(n−1)/2^64` and the seed is fixed, so the
    /// count is deterministic. Failure after an engine change means pair
    /// selection consumes a different amount of randomness — which breaks
    /// every recorded trace — so account for it deliberately.
    #[test]
    fn pair_draw_consumes_exactly_one_rng_word() {
        struct CountingRng {
            inner: SmallRng,
            words: u64,
        }
        impl rand::Rng for CountingRng {
            fn next_u64(&mut self) -> u64 {
                self.words += 1;
                self.inner.next_u64()
            }
        }
        let mut rng = CountingRng {
            inner: SmallRng::seed_from_u64(6),
            words: 0,
        };
        let draws = 10_000u64;
        for _ in 0..draws {
            let _ = random_ordered_pair(1_000, &mut rng);
        }
        assert_eq!(rng.words, draws, "one Lemire draw per ordered pair");
    }

    proptest! {
        #[test]
        fn always_valid_for_any_n(n in 2usize..10_000, seed: u64) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (i, j) = random_ordered_pair(n, &mut rng);
            prop_assert!(i != j);
            prop_assert!(i < n && j < n);
        }
    }
}
