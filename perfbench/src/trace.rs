//! In-memory spans for the traced replay, and the self-time arithmetic the
//! per-layer metrics are computed from.
//!
//! Every span wraps one call the benchmark makes into a layer's public
//! function (`Simulator::run_parallel_time`, `Simulator::estimate_stats`,
//! an adversary method, a count backend's stepping, the CSV writer …) or
//! one of the benchmark's own glue scopes (pass, grid, run). Spans stay in
//! memory while the pass runs and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole replayed pass (glue).
    Pass,
    /// One grid of the pass (glue).
    Grid,
    /// One run of a grid: its construction, drive loop and result (glue).
    Run,
    /// Building a run's simulator and initial population.
    Build,
    /// `Simulator::run_parallel_time` on the agent array.
    Step,
    /// `Simulator::estimate_stats`, the per-snapshot scan.
    Scan,
    /// Estimate summary of a count vector at a snapshot.
    CountSummary,
    /// One adversary population event.
    Adversary,
    /// `BatchedCountSimulator::run_parallel_time`.
    Batched,
    /// `CountSimulator::run_parallel_time`.
    Count,
    /// `JumpSimulator::step_event`, grouped per snapshot interval.
    Jump,
    /// Direct GRV sampling (Lemma 4.1).
    Grv,
    /// Pooling the runs into rows and writing the CSV files.
    Analysis,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Grid => "grid",
            Layer::Run => "sweep.run",
            Layer::Build => "simulator.build",
            Layer::Step => "simulator.step",
            Layer::Scan => "snapshot.scan",
            Layer::CountSummary => "snapshot.count_summary",
            Layer::Adversary => "adversary.event",
            Layer::Batched => "batched.step",
            Layer::Count => "count.step",
            Layer::Jump => "jump.step",
            Layer::Grv => "grv.sample",
            Layer::Analysis => "analysis.csv",
        }
    }

    /// Whether the span is the benchmark's own scope rather than a call
    /// into a layer; glue self time is what `trace.coverage` leaves out.
    pub fn is_glue(self) -> bool {
        matches!(self, Layer::Pass | Layer::Grid | Layer::Run)
    }
}

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer timed.
    pub layer: Layer,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Population (or state count) the call worked on.
    pub n: u64,
    /// Work the call did: interactions, agents changed, events, rows.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Interactions the jump backend advanced, skipped no-ops included.
    pub jump_interactions: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            jump_interactions: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, layer: Layer, n: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
            n,
            work: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32, work: u64) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Times `f` as one leaf span; `f` returns its result and its work.
    pub fn leaf<T>(&mut self, layer: Layer, n: u64, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.enter(layer, n);
        let (out, work) = f();
        self.exit(id, work);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line under a header.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tstart_ns\tend_ns\tn\twork")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.n,
                s.work
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part its direct children
/// cover (children never overlap, since one thread records them in order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Totals of one layer over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Summed span durations.
    pub ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed work.
    pub work: u64,
    /// Summed `n`.
    pub n: u64,
}

/// Per-layer totals over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<Layer, LayerTotals> {
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.ns += s.dur_ns();
        t.self_ns += self_ns;
        t.work += s.work;
        t.n += s.n;
    }
    out
}

/// Agent-array stepping time and interactions, keyed by the population the
/// call stepped.
pub fn step_by_population(spans: &[Span]) -> BTreeMap<u64, (u64, u64)> {
    let mut out: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == Layer::Step) {
        let e = out.entry(s.n).or_default();
        e.0 += s.dur_ns();
        e.1 += s.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
            n: 10,
            work: 1,
        }
    }

    /// pass [0, 100] ⊃ run [10, 90] ⊃ {step [20, 50], scan [50, 60],
    /// step [60, 85] ⊃ adversary [70, 75]}; analysis [90, 98] under pass.
    fn tree() -> Vec<Span> {
        vec![
            span(Layer::Pass, ROOT, 0, 100),
            span(Layer::Run, 0, 10, 90),
            span(Layer::Step, 1, 20, 50),
            span(Layer::Scan, 1, 50, 60),
            span(Layer::Step, 1, 60, 85),
            span(Layer::Adversary, 4, 70, 75),
            span(Layer::Analysis, 0, 90, 98),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![12, 15, 30, 10, 20, 5, 8]);
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = tree();
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn totals_group_by_layer() {
        let t = totals(&tree());
        let step = t[&Layer::Step];
        assert_eq!(
            (step.spans, step.ns, step.self_ns, step.work),
            (2, 55, 50, 2)
        );
        assert_eq!(t[&Layer::Pass].self_ns, 12);
        let by_n = step_by_population(&tree());
        assert_eq!(by_n[&10], (55, 2));
    }

    #[test]
    fn tracer_nests_and_checks_order() {
        let mut tr = Tracer::new();
        let outer = tr.enter(Layer::Pass, 0);
        let x = tr.leaf(Layer::Step, 5, || (7, 3));
        tr.exit(outer, 0);
        assert_eq!(x, 7);
        assert_eq!(tr.spans()[1].parent, outer);
        assert_eq!(tr.spans()[1].work, 3);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        let self_ns = self_times(tr.spans());
        assert_eq!(self_ns[0] + self_ns[1], tr.spans()[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tr = Tracer::new();
        let a = tr.enter(Layer::Pass, 0);
        let _b = tr.enter(Layer::Run, 0);
        tr.exit(a, 0);
    }
}
