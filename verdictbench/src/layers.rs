//! Timing wrappers around the solver's public backend traits, and the
//! in-memory span recorder of the traced run.
//!
//! The same wrappers sit in the untraced stack with no recorder: they
//! then only forward, and count at `load` and on drop, so both stacks run
//! identical solver code and report identical program counters.

use absolver_core::backends::{LinearBackendStats, NonlinearBackendStats};
use absolver_core::{
    AbProblem, BooleanSolver, CdclBoolean, LinearBackend, NonlinearBackend, Preprocessed,
    ProblemPreprocessor,
};
use absolver_linear::{AssertionStack, Feasibility, LinearConstraint};
use absolver_logic::{Assignment, Cnf, Lit};
use absolver_nonlinear::{NlProblem, NlVerdict};
use absolver_sat::SolverStats;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The layers spans are recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One instance, from problem text to verdict (the root span).
    Instance,
    /// `parser::parse`.
    Parse,
    /// `Orchestrator::solve`: the control loop and everything it calls.
    Solve,
    /// `ProblemPreprocessor::preprocess` (the analyze crate).
    Analyze,
    /// Every `BooleanSolver` call (the CDCL engine).
    Sat,
    /// `NonlinearBackend::solve` (the interval/penalty cascade).
    Nonlinear,
    /// `Server::submit` (parse, analysis-cache lookup, enqueue).
    Submit,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The instance this span belongs to.
    pub instance: u32,
}

#[derive(Debug, Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
    instance: u32,
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Spans>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Spans> {
        self.inner.lock().expect("no span holder panics")
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with `instance`.
    pub fn set_instance(&self, instance: u32) {
        self.lock().instance = instance;
    }

    /// Opens a span closed when the guard drops.
    pub fn span(&self, layer: Layer) -> SpanGuard<'_> {
        let start = self.now();
        let mut inner = self.lock();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let instance = inner.instance;
        inner.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            instance,
        });
        inner.open.push(index);
        SpanGuard {
            recorder: self,
            index,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON line to
    /// `verdictbench/trace/<name>.jsonl` and returns the path.
    pub fn write(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        use std::io::Write;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"instance\":{}}}",
                s.layer, s.start, s.end, s.instance
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now();
        let mut inner = self.recorder.lock();
        inner.spans[self.index].end = end;
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(self.index), "spans nest");
    }
}

/// Opens a span when a recorder is present.
fn span(recorder: &Option<Arc<Recorder>>, layer: Layer) -> Option<SpanGuard<'_>> {
    recorder.as_ref().map(|r| r.span(layer))
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut by_layer: Vec<(Layer, u64)> = Vec::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end - s.start).saturating_sub(children);
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += own,
            None => by_layer.push((s.layer, own)),
        }
    }
    by_layer.sort();
    by_layer
}

/// Counters the wrappers collect beyond `Orchestrator::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// CDCL engine counters, summed over every engine `load` replaced.
    pub cdcl: SolverStatsSum,
    /// `BooleanSolver::next_model` calls.
    pub sat_calls: u64,
    /// `NonlinearBackend::solve` calls.
    pub nonlinear_calls: u64,
    /// Boxes the nonlinear backend explored.
    pub nonlinear_boxes: u64,
}

/// The CDCL counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStatsSum {
    /// Decisions.
    pub decisions: u64,
    /// Propagated literals.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts.
    pub restarts: u64,
}

impl SolverStatsSum {
    fn add(&mut self, s: SolverStats) {
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.conflicts += s.conflicts;
        self.restarts += s.restarts;
    }
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.cdcl.decisions += other.cdcl.decisions;
        self.cdcl.propagations += other.cdcl.propagations;
        self.cdcl.conflicts += other.cdcl.conflicts;
        self.cdcl.restarts += other.cdcl.restarts;
        self.sat_calls += other.sat_calls;
        self.nonlinear_calls += other.nonlinear_calls;
        self.nonlinear_boxes += other.nonlinear_boxes;
    }
}

/// Where the wrappers of one stack report: an optional recorder and the
/// shared counters they flush into when dropped.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Span recorder of the traced stack; `None` in the untraced stack.
    pub recorder: Option<Arc<Recorder>>,
    /// Counters flushed by the wrappers.
    pub counts: Arc<Mutex<Counts>>,
}

impl Probe {
    /// A probe with fresh counters.
    pub fn new(recorder: Option<Arc<Recorder>>) -> Probe {
        Probe {
            recorder,
            counts: Arc::new(Mutex::new(Counts::default())),
        }
    }

    fn flush(&self, local: &Counts) {
        self.counts
            .lock()
            .expect("no counter holder panics")
            .add(local);
    }

    /// Takes and resets the counters.
    pub fn take(&self) -> Counts {
        std::mem::take(&mut *self.counts.lock().expect("no counter holder panics"))
    }
}

/// [`CdclBoolean`] behind a span and counter wrapper.
#[derive(Debug)]
pub struct ProbeBoolean {
    inner: CdclBoolean,
    probe: Probe,
    local: Counts,
}

impl ProbeBoolean {
    /// Wraps a fresh CDCL engine.
    pub fn new(probe: Probe) -> ProbeBoolean {
        ProbeBoolean {
            inner: CdclBoolean::new(),
            probe,
            local: Counts::default(),
        }
    }
}

impl BooleanSolver for ProbeBoolean {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn load(&mut self, cnf: &Cnf) {
        let _span = span(&self.probe.recorder, Layer::Sat);
        // `load` replaces the engine and zeroes its counters.
        self.local.cdcl.add(self.inner.stats());
        self.inner.load(cnf);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let _span = span(&self.probe.recorder, Layer::Sat);
        self.inner.add_clause(lits)
    }

    fn next_model(&mut self) -> Option<Assignment> {
        let _span = span(&self.probe.recorder, Layer::Sat);
        self.local.sat_calls += 1;
        self.inner.next_model()
    }

    fn set_assumptions(&mut self, lits: &[Lit]) -> bool {
        self.inner.set_assumptions(lits)
    }

    fn reserve_vars(&mut self, n: usize) {
        let _span = span(&self.probe.recorder, Layer::Sat);
        self.inner.reserve_vars(n);
    }
}

impl Drop for ProbeBoolean {
    fn drop(&mut self) {
        self.local.cdcl.add(self.inner.stats());
        self.probe.flush(&self.local);
    }
}

/// A linear backend behind a forwarding wrapper. The theory layer works
/// on the backend's assertion stack, whose time and pivots
/// `Orchestrator::stats()` reports, so there is nothing to time here.
#[derive(Debug)]
pub struct ProbeLinear<L>(pub L);

impl<L: LinearBackend> LinearBackend for ProbeLinear<L> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn check(&mut self, constraints: &[LinearConstraint]) -> Feasibility {
        self.0.check(constraints)
    }

    fn stats(&self) -> LinearBackendStats {
        self.0.stats()
    }

    fn make_stack(&self, num_vars: usize) -> Option<AssertionStack> {
        self.0.make_stack(num_vars)
    }
}

/// A nonlinear backend behind a span and counter wrapper.
#[derive(Debug)]
pub struct ProbeNonlinear<N: NonlinearBackend> {
    inner: N,
    probe: Probe,
    local: Counts,
}

impl<N: NonlinearBackend> ProbeNonlinear<N> {
    /// Wraps `inner`.
    pub fn new(inner: N, probe: Probe) -> ProbeNonlinear<N> {
        ProbeNonlinear {
            inner,
            probe,
            local: Counts::default(),
        }
    }
}

impl<N: NonlinearBackend> NonlinearBackend for ProbeNonlinear<N> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(&mut self, problem: &NlProblem) -> NlVerdict {
        let _span = span(&self.probe.recorder, Layer::Nonlinear);
        self.local.nonlinear_calls += 1;
        self.inner.solve(problem)
    }

    fn set_interrupt(&mut self, cancel: Option<Arc<AtomicBool>>, deadline: Option<Instant>) {
        self.inner.set_interrupt(cancel, deadline);
    }

    fn stats(&self) -> NonlinearBackendStats {
        self.inner.stats()
    }
}

impl<N: NonlinearBackend> Drop for ProbeNonlinear<N> {
    fn drop(&mut self) {
        self.local.nonlinear_boxes = self.inner.stats().boxes_explored;
        self.probe.flush(&self.local);
    }
}

/// A preprocessing pass behind a span wrapper.
#[derive(Debug)]
pub struct ProbePreprocessor<P> {
    inner: P,
    recorder: Option<Arc<Recorder>>,
}

impl<P: ProblemPreprocessor> ProbePreprocessor<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, recorder: Option<Arc<Recorder>>) -> ProbePreprocessor<P> {
        ProbePreprocessor { inner, recorder }
    }
}

impl<P: ProblemPreprocessor> ProblemPreprocessor for ProbePreprocessor<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn preprocess(&self, problem: &AbProblem) -> Preprocessed {
        let _span = span(&self.recorder, Layer::Analyze);
        self.inner.preprocess(problem)
    }
}
