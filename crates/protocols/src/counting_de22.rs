//! The Doty–Eftekhari (SAND 2022) dynamic size counting baseline.
//!
//! The paper's main comparator. Doty & Eftekhari's protocol keeps the
//! max-GRV idea but detects when the estimate went stale: agents
//! continuously re-sample GRVs and run the *detection* protocol of Alistarh
//! et al. on each value, estimating `log n` as the **first missing value** —
//! the smallest GRV value nobody has sampled recently. Their agents store a
//! list of `O(log n)` per-value detection timers of `O(log log n)` bits each,
//! for `O(log n · log log n)` bits — the memory the paper's protocol improves
//! to `O(log log n)`.
//!
//! ## What is reproduced, and what is approximated
//!
//! We do not possess the full SAND 2022 construction; per DESIGN.md §5 this
//! module preserves the comparator's load-bearing properties:
//!
//! * **mechanism** — continuous GRV re-sampling (one per interaction by the
//!   initiator) + per-value detection timers aged by own interactions and
//!   spread by min-propagation + first-missing-value readout;
//! * **dynamics** — the estimate adapts both up and down under population
//!   changes, with no global phase structure;
//! * **memory shape** — `Θ(#tracked values × bits per timer)`
//!   ≈ `Θ(log n · log log n)` bits, strictly more than the paper's protocol
//!   after convergence.
//!
//! The exact convergence constants of the original (notably the
//! `O(log log n̂)` dependence on an overestimate `n̂`) are *not* claimed;
//! EXPERIMENTS.md marks the comparisons that rely only on the preserved
//! properties.
//!
//! ## Timer semantics
//!
//! `timers[i]` tracks the time since (transitively) hearing of a sampled GRV
//! of value `> i` — entry `i` covers value `i + 1`. Sampling `g` zeroes
//! entries `0..g`; every interaction ages all entries by one and takes the
//! elementwise min with the responder. Entry `i` saturates at
//! `threshold(i + 1) = c·(i+1) + c0`; a saturated entry means "value
//! missing". The estimate is `first_missing − 1`.

use pp_model::arena::{LineRun, PayloadArena};
use pp_model::{bit_len, grv, InlineVec, MemoryFootprint, Protocol, SizeEstimator};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// Inline capacity of the tracked-value list. The list length stays near
/// `log2 n + window` (pruning, tested below at ≤ 40); a single entry per
/// tracked GRV value means 96 entries would correspond to a population of
/// ~2⁸⁶ agents, far beyond anything an agent array can hold. Inline
/// storage removes the per-agent heap pointer and the allocation on every
/// list extension.
///
/// Without arena backing, values above this capacity are recorded *as*
/// the capacity — an approximation at probability `2^-96` per sample.
/// [`De22Counting::with_arena`] lifts the clamp: timers beyond the inline
/// prefix spill into a [`PayloadArena`] run, so larger capacities run
/// without bias and without per-step allocation.
pub const DE22_MAX_VALUES: usize = 96;

/// State of a Doty–Eftekhari agent: the per-value detection timers.
///
/// Timers up to the inline capacity (or the arena mode's configured
/// inline limit) live in `timers`; the overflow tail lives in an arena
/// run addressed by `spill`/`spill_len`. Without arena backing both spill
/// fields stay zero and the state behaves exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct De22State {
    /// `timers[i]`: own-interaction-aged detection timer for value `i + 1`.
    pub timers: InlineVec<u32, DE22_MAX_VALUES>,
    /// Arena run holding the overflow tail ([`LineRun::EMPTY`] = no spill
    /// allocated). The run is retained across prune/shrink cycles and
    /// returned to the arena's free list by
    /// [`Protocol::retire_state`] when the agent leaves the population.
    pub spill: LineRun,
    /// Timers currently stored in `spill` (continuing after the inline
    /// prefix).
    pub spill_len: u32,
}

impl De22State {
    /// Total tracked values: inline prefix plus spilled tail.
    pub fn tracked_values(&self) -> usize {
        self.timers.len() + self.spill_len as usize
    }
}

/// Shared arena backing for [`De22Counting`]'s overflow mode.
///
/// Holds the [`PayloadArena`] of spilled timer tails plus two
/// preallocated materialization buffers, behind one mutex (one lock per
/// interaction; `Arc` keeps the protocol `Clone + Send + Sync` for the
/// sweep engine). Every spill run is allocated at the fixed quantum
/// `capacity − inline_limit` lines, so the arena's exact-fit free list
/// always satisfies steady-state churn — after
/// [`De22Backing::new`]'s prefunding (and
/// [`De22Backing::reserve_additional`] at adversary growth events), the
/// arena never touches the heap mid-step.
#[derive(Debug)]
pub struct De22Backing {
    /// Total tracked-value capacity (inline prefix + spill tail).
    capacity: usize,
    /// Values kept inline before spilling (≤ [`DE22_MAX_VALUES`]).
    inline_limit: usize,
    heap: Mutex<De22Heap>,
}

#[derive(Debug)]
struct De22Heap {
    arena: PayloadArena<u32>,
    u_buf: Vec<u32>,
    v_buf: Vec<u32>,
}

impl De22Backing {
    /// Creates a backing with total `capacity` tracked values per agent,
    /// an inline prefix of `inline_limit` values, and spill runs
    /// prefunded for `expected_agents` agents (the init-time heap growth;
    /// see `pp_model::arena`'s allocation contract).
    ///
    /// # Panics
    ///
    /// Panics if `inline_limit > DE22_MAX_VALUES`, `capacity <=
    /// inline_limit`, or the spill quantum exceeds one arena block
    /// (8192 `u32` slots).
    pub fn new(capacity: usize, inline_limit: usize, expected_agents: usize) -> Arc<Self> {
        assert!(
            inline_limit <= DE22_MAX_VALUES,
            "inline limit {inline_limit} exceeds the inline capacity {DE22_MAX_VALUES}"
        );
        assert!(
            capacity > inline_limit,
            "arena backing needs capacity {capacity} > inline limit {inline_limit} \
             (otherwise nothing ever spills; run without backing instead)"
        );
        let quantum = capacity - inline_limit;
        let mut arena = PayloadArena::new();
        arena.reserve_runs(expected_agents, quantum);
        Arc::new(De22Backing {
            capacity,
            inline_limit,
            heap: Mutex::new(De22Heap {
                arena,
                u_buf: Vec::with_capacity(capacity),
                v_buf: Vec::with_capacity(capacity),
            }),
        })
    }

    /// Total tracked-value capacity per agent.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inline prefix length before spilling.
    pub fn inline_limit(&self) -> usize {
        self.inline_limit
    }

    /// Prefunds spill runs for `agents` additional agents — call at
    /// adversary growth events so the steady-state `alloc` path stays
    /// heap-free.
    pub fn reserve_additional(&self, agents: usize) {
        let quantum = self.capacity - self.inline_limit;
        self.heap
            .lock()
            .expect("arena lock")
            .arena
            .reserve_runs(agents, quantum);
    }

    /// Number of blocks the arena has ever acquired from the heap
    /// (steady-state stepping must leave this constant).
    pub fn growth_events(&self) -> u64 {
        self.heap.lock().expect("arena lock").arena.growth_events()
    }

    /// Spill runs currently parked on the arena's free list (grows as
    /// retired agents return their runs).
    pub fn free_runs(&self) -> usize {
        self.heap.lock().expect("arena lock").arena.free_runs()
    }
}

/// The Doty–Eftekhari 2022 baseline protocol.
///
/// # Examples
///
/// ```
/// use pp_model::{Protocol, SizeEstimator};
/// use pp_protocols::De22Counting;
///
/// let p = De22Counting::new();
/// let mut u = p.initial_state();
/// let mut v = p.initial_state();
/// p.interact(&mut u, &mut v, &mut rand::rng());
/// assert!(p.estimate_log2(&u).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct De22Counting {
    /// Per-value slope of the expiry threshold.
    threshold_slope: u32,
    /// Constant offset of the expiry threshold.
    threshold_offset: u32,
    /// Entries kept beyond the first missing value (list pruning).
    window: u32,
    /// Arena overflow mode: timers beyond the backing's inline limit
    /// spill into its arena instead of clamping at the inline capacity.
    backing: Option<Arc<De22Backing>>,
}

impl Default for De22Counting {
    fn default() -> Self {
        Self::new()
    }
}

impl De22Counting {
    /// Creates the protocol with default thresholds (`6·i + 16`) and a
    /// pruning window of 10 values past the first missing one.
    pub fn new() -> Self {
        De22Counting {
            threshold_slope: 6,
            threshold_offset: 16,
            window: 10,
            backing: None,
        }
    }

    /// Customizes the expiry threshold `slope·value + offset`.
    ///
    /// # Panics
    ///
    /// Panics if `slope == 0`.
    pub fn with_threshold(mut self, slope: u32, offset: u32) -> Self {
        assert!(slope > 0, "threshold slope must be positive");
        self.threshold_slope = slope;
        self.threshold_offset = offset;
        self
    }

    /// Switches the protocol to arena overflow mode: timers beyond the
    /// backing's inline limit spill into its [`PayloadArena`], and the
    /// geometric sample clamps at the backing's `capacity` instead of the
    /// inline cap — removing the clamp's estimate bias for capacities
    /// above [`DE22_MAX_VALUES`].
    ///
    /// With `capacity == DE22_MAX_VALUES` and a reduced `inline_limit`,
    /// arena mode consumes the identical RNG stream as inline mode and
    /// tracks the identical timer lists (pinned by
    /// `arena_overflow_matches_inline_below_cap` below) — only the
    /// storage layout moves.
    pub fn with_arena(mut self, backing: Arc<De22Backing>) -> Self {
        self.backing = Some(backing);
        self
    }

    /// The arena backing, when arena overflow mode is active.
    pub fn backing(&self) -> Option<&Arc<De22Backing>> {
        self.backing.as_ref()
    }

    /// Expiry threshold for a GRV `value` (1-based).
    pub fn threshold(&self, value: u32) -> u32 {
        self.threshold_slope * value + self.threshold_offset
    }

    /// First missing value over a materialized timer list.
    fn first_missing_in(&self, timers: &[u32]) -> u32 {
        for (i, &t) in timers.iter().enumerate() {
            let value = i as u32 + 1;
            if t >= self.threshold(value) {
                return value;
            }
        }
        timers.len() as u32 + 1
    }

    /// The first missing value (1-based): the smallest value whose timer is
    /// saturated, or one past the list when all tracked values are live.
    /// Reads the spilled tail through the arena when one exists.
    pub fn first_missing(&self, s: &De22State) -> u32 {
        let inline_len = s.timers.len() as u32;
        let fm = self.first_missing_in(&s.timers);
        if fm <= inline_len || s.spill_len == 0 {
            return fm;
        }
        let backing = self
            .backing
            .as_ref()
            .expect("spilled state without arena backing");
        let heap = backing.heap.lock().expect("arena lock");
        let spill = heap.arena.slice(s.spill, s.spill_len as usize);
        for (k, &t) in spill.iter().enumerate() {
            let value = inline_len + k as u32 + 1;
            if t >= self.threshold(value) {
                return value;
            }
        }
        inline_len + s.spill_len + 1
    }

    /// The full timer list, materialized (inline prefix plus spilled
    /// tail). O(len) copy; for tests and readouts, not the hot path.
    pub fn timers_vec(&self, s: &De22State) -> Vec<u32> {
        let mut out = s.timers.to_vec();
        if s.spill_len > 0 {
            let backing = self
                .backing
                .as_ref()
                .expect("spilled state without arena backing");
            let heap = backing.heap.lock().expect("arena lock");
            out.extend_from_slice(heap.arena.slice(s.spill, s.spill_len as usize));
        }
        out
    }

    /// The arena-mode transition: materialize into the backing's scratch
    /// buffers, run the identical age/min/sample/prune algorithm at the
    /// backing's capacity, and write back as inline prefix + spilled tail.
    ///
    /// The spill run is allocated once per agent at the fixed quantum
    /// (`capacity − inline_limit` values) and kept across prune cycles;
    /// one-way semantics plus the simulator's hazard scan guarantee a
    /// single live writer per run.
    fn interact_arena<R: Rng + ?Sized>(
        &self,
        backing: &De22Backing,
        u: &mut De22State,
        v: &De22State,
        rng: &mut R,
    ) {
        let cap = backing.capacity;
        let inline_limit = backing.inline_limit;
        let mut guard = backing.heap.lock().expect("arena lock");
        let De22Heap {
            arena,
            u_buf,
            v_buf,
        } = &mut *guard;

        u_buf.clear();
        u_buf.extend_from_slice(&u.timers);
        if u.spill_len > 0 {
            u_buf.extend_from_slice(arena.slice(u.spill, u.spill_len as usize));
        }
        v_buf.clear();
        v_buf.extend_from_slice(&v.timers);
        if v.spill_len > 0 {
            v_buf.extend_from_slice(arena.slice(v.spill, v.spill_len as usize));
        }

        // Age and min-propagate (identical to the inline path, at `cap`).
        let new_len = u_buf.len().max(v_buf.len());
        for i in u_buf.len()..new_len {
            u_buf.push(self.threshold(i as u32 + 1));
        }
        for (i, t) in u_buf.iter_mut().enumerate() {
            let thr = self.threshold_slope * (i as u32 + 1) + self.threshold_offset;
            let vt = v_buf.get(i).copied().unwrap_or(thr);
            *t = ((*t).min(vt) + 1).min(thr);
        }

        // Continuous re-sampling, clamped at the *arena* capacity — the
        // inline cap no longer biases the sample distribution.
        let g = (grv::geometric(rng) as usize).min(cap);
        if u_buf.len() < g {
            u_buf.resize(g, 0);
        }
        for t in u_buf.iter_mut().take(g) {
            *t = 0;
        }

        // Prune beyond first missing + window.
        let keep = (self.first_missing_in(u_buf) + self.window) as usize;
        if u_buf.len() > keep {
            u_buf.truncate(keep);
        }

        // Write back: inline prefix, spilled tail.
        let il = u_buf.len().min(inline_limit);
        u.timers = InlineVec::from_slice(&u_buf[..il]);
        let tail_len = u_buf.len() - il;
        if tail_len == 0 {
            // Keep the run (if any) for the next overflow — allocation
            // churn would otherwise defeat the free list's exact fit.
            u.spill_len = 0;
        } else {
            if u.spill.is_empty() {
                u.spill = arena.alloc(cap - inline_limit);
            }
            arena
                .slice_mut(u.spill, tail_len)
                .copy_from_slice(&u_buf[il..]);
            u.spill_len = tail_len as u32;
        }
    }
}

impl Protocol for De22Counting {
    // One-way (paper model): `interact` never mutates the responder.
    const ONE_WAY: bool = true;

    type State = De22State;

    fn initial_state(&self) -> De22State {
        De22State::default()
    }

    fn interact<R: Rng + ?Sized>(&self, u: &mut De22State, v: &mut De22State, rng: &mut R) {
        if let Some(backing) = &self.backing {
            return self.interact_arena(backing, u, v, rng);
        }
        // Age and min-propagate: v's knowledge of "value seen recently"
        // flows to u; entries beyond either list count as expired.
        let new_len = u.timers.len().max(v.timers.len());
        for i in u.timers.len()..new_len {
            u.timers.push(self.threshold(i as u32 + 1));
        }
        for (i, t) in u.timers.iter_mut().enumerate() {
            let thr = self.threshold_slope * (i as u32 + 1) + self.threshold_offset;
            let vt = v.timers.get(i).copied().unwrap_or(thr);
            *t = ((*t).min(vt) + 1).min(thr);
        }

        // Continuous re-sampling: one fresh GRV per interaction. Samples
        // beyond the inline capacity (probability 2^-96) clamp to it —
        // arena mode routes them through the spill path instead.
        let g = (grv::geometric(rng) as usize).min(DE22_MAX_VALUES);
        if u.timers.len() < g {
            u.timers.resize(g, 0);
        }
        for t in u.timers.iter_mut().take(g) {
            *t = 0;
        }

        // Prune the list beyond the first missing value plus a window: those
        // values are missing either way (dropping ≡ saturated).
        let keep = (self.first_missing(u) + self.window) as usize;
        if u.timers.len() > keep {
            u.timers.truncate(keep);
        }
    }

    /// Returns a departing agent's spill run to the arena's free list.
    /// Exact-fit reuse there is what keeps adversary churn allocation-free
    /// after prefunding.
    fn retire_state(&self, state: &De22State) {
        if let Some(backing) = &self.backing {
            if !state.spill.is_empty() {
                backing
                    .heap
                    .lock()
                    .expect("arena lock")
                    .arena
                    .free(state.spill);
            }
        }
    }
}

impl SizeEstimator for De22Counting {
    /// `first missing value − 1 ≈ log2 n`; `None` until the agent has any
    /// live value.
    fn estimate_log2(&self, state: &De22State) -> Option<f64> {
        let fm = self.first_missing(state);
        (fm > 1).then(|| f64::from(fm - 1))
    }
}

impl MemoryFootprint for De22State {
    fn memory_bits(&self) -> u32 {
        // The list of timers, each stored in binary. Counts the inline
        // prefix only: `MemoryFootprint` has no access to the arena, and
        // every memory experiment runs the default (inline) protocol,
        // where the prefix is the whole list.
        self.timers.iter().map(|&t| bit_len(u64::from(t))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::Simulator;

    #[test]
    fn fresh_agent_has_no_estimate() {
        let p = De22Counting::new();
        assert_eq!(p.estimate_log2(&p.initial_state()), None);
        assert_eq!(p.first_missing(&p.initial_state()), 1);
    }

    #[test]
    fn sampling_extends_and_zeroes() {
        let p = De22Counting::new();
        let mut u = p.initial_state();
        let mut v = p.initial_state();
        p.interact(&mut u, &mut v, &mut rand::rng());
        assert!(!u.timers.is_empty(), "one sample arrived");
        assert_eq!(u.timers[0], 0, "value 1 was just seen");
    }

    #[test]
    fn estimate_tracks_log_n() {
        let n = 2_048; // log2 = 11
        let log_n = (n as f64).log2();
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 41);
        sim.run_parallel_time(200.0);
        let s = sim.estimate_stats().unwrap();
        assert!(
            s.median >= 0.5 * log_n && s.median <= 2.5 * log_n,
            "median estimate {} outside band around log n = {log_n}",
            s.median
        );
        // Derived spread bound (widened from the empirical 6.0 per
        // ROADMAP's flaky-test policy): Doty & Eftekhari bound each
        // agent's estimate within O(1) of log2 n only w.h.p. *per
        // instant*. A GRV of value log2 n + c is sampled somewhere in the
        // population roughly every 2^c time units, and the detection
        // timers keep it alive for threshold(v) = Θ(v) = Θ(log n) time
        // while min-propagation carries it around — so at any instant the
        // live values straddle the base estimate's ±2 fluctuation plus a
        // lingering-spike window of ~log2(threshold) ≈ log2(log2 n) extra
        // units on top. 2 + 2·log2(log2 n) ≈ 8.9 at n = 2048 covers that;
        // a materially larger spread signals a detection-timer bug, not
        // statistics.
        let spread_bound = 2.0 + 2.0 * log_n.log2();
        assert!(
            s.max - s.min <= spread_bound,
            "estimates should agree closely, spread [{}, {}]",
            s.min,
            s.max
        );
    }

    /// The headline property: unlike the static baseline, the estimate
    /// *decreases* after the adversary removes most of the population.
    #[test]
    fn estimate_adapts_downward_after_shrink() {
        let n = 4_096; // log2 = 12
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 42);
        sim.run_parallel_time(200.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(32); // log2 = 5
        sim.run_parallel_time(600.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(
            after < before,
            "estimate must drop after shrink: {before} -> {after}"
        );
        assert!(
            after <= 15.0,
            "estimate {after} should approach log2(32) = 5 within factor 3"
        );
    }

    #[test]
    fn estimate_adapts_upward_after_growth() {
        let n = 64;
        let mut sim = Simulator::with_seed(De22Counting::new(), n, 43);
        sim.run_parallel_time(150.0);
        let before = sim.estimate_stats().unwrap().median;
        sim.resize_to(8_192);
        sim.run_parallel_time(150.0);
        let after = sim.estimate_stats().unwrap().median;
        assert!(
            after > before,
            "estimate must grow after expansion: {before} -> {after}"
        );
    }

    /// Memory grows like Θ(log n · log log n): strictly more bits than a
    /// pair of Θ(log log n) counters (the paper's footprint) at any real n.
    #[test]
    fn memory_footprint_scales_with_list_length() {
        let p = De22Counting::new();
        let mut sim = Simulator::with_seed(p, 1_024, 44);
        sim.run_parallel_time(100.0);
        let bits: Vec<u32> = sim.states().iter().map(|s| s.memory_bits()).collect();
        let mean = bits.iter().map(|&b| f64::from(b)).sum::<f64>() / bits.len() as f64;
        // log2(1024) = 10 values × ~5-bit timers ⇒ several dozen bits.
        assert!(
            mean > 30.0,
            "DE22 memory should be tens of bits at n = 1024, got {mean}"
        );
    }

    #[test]
    fn pruning_bounds_list_length() {
        let p = De22Counting::new();
        let mut sim = Simulator::with_seed(p, 1_024, 45);
        sim.run_parallel_time(200.0);
        let max_len = sim.states().iter().map(|s| s.timers.len()).max().unwrap();
        assert!(
            max_len <= 40,
            "timer lists should stay near log n + window, got {max_len}"
        );
    }

    #[test]
    fn threshold_is_affine() {
        let p = De22Counting::new().with_threshold(4, 8);
        assert_eq!(p.threshold(1), 12);
        assert_eq!(p.threshold(10), 48);
    }

    #[test]
    #[should_panic(expected = "slope must be positive")]
    fn zero_slope_rejected() {
        let _ = De22Counting::new().with_threshold(0, 8);
    }

    /// Arena overflow mode at the inline capacity consumes the identical
    /// RNG stream and tracks the identical timer lists — only the storage
    /// layout moves (inline prefix + spilled tail vs. all inline). With
    /// `inline_limit = 6` nearly every agent's list spills, so this
    /// exercises materialize, write-back, and run reuse on every
    /// interaction.
    #[test]
    fn arena_overflow_matches_inline_below_cap() {
        let n = 256;
        let inline = De22Counting::new();
        let backing = De22Backing::new(DE22_MAX_VALUES, 6, n);
        let arena = De22Counting::new().with_arena(backing);
        let mut a = Simulator::with_seed(inline, n, 77);
        let mut b = Simulator::with_seed(arena.clone(), n, 77);
        a.run_parallel_time(80.0);
        b.run_parallel_time(80.0);
        assert!(
            b.states().iter().any(|s| s.spill_len > 0),
            "an inline limit of 6 must force spills at n = 256"
        );
        for (i, (sa, sb)) in a.states().iter().zip(b.states()).enumerate() {
            assert_eq!(
                sa.timers.to_vec(),
                arena.timers_vec(sb),
                "agent {i} diverged between inline and arena storage"
            );
        }
    }

    /// The satellite regression: a capacity clamp below `log2 n` pins the
    /// estimate at the clamp (first_missing can never exceed capacity+1),
    /// silently biasing the readout low. Routing overflow through the
    /// arena restores headroom and the estimate tracks `log2 n` again.
    #[test]
    fn arena_overflow_removes_the_clamp_bias() {
        let n = 2_048; // log2 = 11
        let run = |capacity: usize| {
            let p = De22Counting::new().with_arena(De22Backing::new(capacity, 4, n));
            let mut sim = Simulator::with_seed(p, n, 91);
            sim.run_parallel_time(150.0);
            sim.estimate_stats().unwrap().median
        };
        // Clamped comparator: capacity 6 < log2 n — no sampled value can
        // exceed 6, so the estimate cannot reach 11.
        let clamped = run(6);
        assert!(
            clamped <= 6.0,
            "a capacity-6 clamp must pin the estimate at ≤ 6, got {clamped}"
        );
        // Full-capacity arena: same protocol with headroom.
        let routed = run(DE22_MAX_VALUES);
        assert!(
            routed > clamped,
            "arena routing must lift the clamp bias ({clamped} vs {routed})"
        );
        // Same band as estimate_tracks_log_n (median within [0.5, 2.5]·log n).
        assert!(
            (6.0..=27.0).contains(&routed),
            "routed estimate {routed} should track log2 n = 11"
        );
    }

    /// Departing agents return their spill runs to the arena's free list
    /// (via `retire_state`), so adversary churn recycles lines instead of
    /// growing the arena.
    #[test]
    fn retired_spills_return_to_the_free_list() {
        let n = 128;
        let backing = De22Backing::new(DE22_MAX_VALUES, 2, n);
        let p = De22Counting::new().with_arena(backing.clone());
        let mut sim = Simulator::with_seed(p, n, 55);
        sim.run_parallel_time(40.0);
        assert!(
            sim.states().iter().any(|s| !s.spill.is_empty()),
            "an inline limit of 2 must force spills"
        );
        let free_before = backing.free_runs();
        let growth_before = backing.growth_events();
        sim.remove_uniform(n / 2);
        assert!(
            backing.free_runs() > free_before,
            "retired agents must return their runs"
        );
        // Churn within the prefunded population never grows the arena.
        sim.resize_to(n);
        sim.run_parallel_time(20.0);
        assert_eq!(backing.growth_events(), growth_before);
    }
}
