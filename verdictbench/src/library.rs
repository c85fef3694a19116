//! Library workloads: each instance goes from problem text through
//! `parser::parse` and a fresh `Orchestrator::custom(..)` stack to a
//! checked verdict.

use crate::corpus::{Corpus, Instance};
use crate::layers::{
    self_times, Counts, Layer, Probe, ProbeBoolean, ProbeLinear, ProbeNonlinear, ProbePreprocessor,
    Recorder,
};
use crate::oracle::{judge, Judgement, Verdict};
use absolver_analyze::Simplifier;
use absolver_core::{
    parser, CascadeNonlinear, Orchestrator, OrchestratorOptions, OrchestratorStats, Outcome,
    SimplexLinear,
};
use std::time::{Duration, Instant};

/// One solved instance.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the corpus.
    pub index: usize,
    /// Problem text to verdict, parse included.
    pub elapsed: Duration,
    /// The answer.
    pub verdict: Verdict,
    /// What the oracle made of it.
    pub judgement: Judgement,
    /// `Orchestrator::stats()` after the solve.
    pub stats: OrchestratorStats,
    /// Wrapper counters of this instance.
    pub counts: Counts,
}

impl Sample {
    /// The time the sample counts with: undecided and failed instances
    /// count at least at the limit.
    pub fn charged(&self, limit: Duration) -> Duration {
        match self.judgement {
            Judgement::Decided => self.elapsed,
            _ => self.elapsed.max(limit),
        }
    }

    /// A checked verdict within the limit.
    pub fn within(&self, limit: Duration) -> bool {
        self.judgement == Judgement::Decided && self.elapsed <= limit
    }

    /// The hit the time limit: its counters depend on the clock.
    pub fn timed_out(&self) -> bool {
        self.stats.timed_out || matches!(self.verdict, Verdict::Unknown)
    }
}

/// The default solver stack, built from its parts so every backend sits
/// behind a wrapper: CDCL, minimising simplex, interval + penalty
/// cascade, and the analyze pass.
fn stack(limit: Duration, probe: &Probe) -> Orchestrator {
    Orchestrator::custom(Box::new(ProbeBoolean::new(probe.clone())))
        .with_linear(Box::new(ProbeLinear(SimplexLinear::new())))
        .with_nonlinear(Box::new(ProbeNonlinear::new(
            CascadeNonlinear::default(),
            probe.clone(),
        )))
        .with_preprocessor(Box::new(ProbePreprocessor::new(
            Simplifier::new(),
            probe.recorder.clone(),
        )))
        .with_options(OrchestratorOptions {
            time_limit: Some(limit),
            ..OrchestratorOptions::default()
        })
}

/// Solves one instance from its text and checks the answer.
pub fn solve(index: usize, instance: &Instance, limit: Duration, probe: &Probe) -> Sample {
    let recorder = probe.recorder.clone();
    if let Some(r) = &recorder {
        r.set_instance(index as u32);
    }
    let started = Instant::now();
    let root = recorder.as_ref().map(|r| r.span(Layer::Instance));
    let parsed = {
        let _span = recorder.as_ref().map(|r| r.span(Layer::Parse));
        parser::parse(&instance.text)
    };
    let (verdict, stats) = match parsed {
        Err(e) => (
            Verdict::Error(format!("parse: {e}")),
            OrchestratorStats::default(),
        ),
        Ok(problem) => {
            let mut orchestrator = stack(limit, probe);
            let outcome = {
                let _span = recorder.as_ref().map(|r| r.span(Layer::Solve));
                orchestrator.solve(&problem)
            };
            let stats = orchestrator.stats();
            drop(orchestrator);
            let verdict = match outcome {
                Ok(Outcome::Sat(model)) => Verdict::Sat(model),
                Ok(Outcome::Unsat) => Verdict::Unsat,
                Ok(Outcome::Unknown) => Verdict::Unknown,
                Err(e) => Verdict::Error(e.to_string()),
            };
            (verdict, stats)
        }
    };
    drop(root);
    let elapsed = started.elapsed();
    let judgement = judge(instance, &verdict);
    Sample {
        index,
        elapsed,
        verdict,
        judgement,
        stats,
        counts: probe.take(),
    }
}

/// Solves every instance of one round, in corpus order.
pub fn pass(corpus: &Corpus, probe: &Probe) -> Vec<Sample> {
    corpus
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| solve(i, inst, corpus.limit, probe))
        .collect()
}

/// The program counters parity and determinism are judged on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `OrchestratorStats::boolean_iterations`.
    pub boolean_iterations: u64,
    /// `OrchestratorStats::simplex_pivots`.
    pub simplex_pivots: u64,
    /// `OrchestratorStats::hc4_contractions`.
    pub hc4_contractions: u64,
    /// CDCL conflicts summed over the instance.
    pub cdcl_conflicts: u64,
}

impl Fingerprint {
    /// The counters of `sample`.
    pub fn of(sample: &Sample) -> Fingerprint {
        Fingerprint {
            boolean_iterations: sample.stats.boolean_iterations,
            simplex_pivots: sample.stats.simplex_pivots,
            hc4_contractions: sample.stats.hc4_contractions,
            cdcl_conflicts: sample.counts.cdcl.conflicts,
        }
    }
}

/// Compares two passes over the same corpus: verdicts must agree, and so
/// must the counters of every instance that finished before the limit in
/// both (a timed-out search stops wherever the clock caught it). Returns
/// one message per mismatch and the number of instances compared.
pub fn compare(corpus: &Corpus, a: &[Sample], b: &[Sample]) -> (Vec<String>, usize) {
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for (x, y) in a.iter().zip(b) {
        let name = &corpus.instances[x.index].name;
        if x.timed_out() || y.timed_out() {
            continue;
        }
        compared += 1;
        if x.verdict.name() != y.verdict.name() {
            mismatches.push(format!(
                "{name}: verdict {} vs {}",
                x.verdict.name(),
                y.verdict.name()
            ));
        }
        let (fx, fy) = (Fingerprint::of(x), Fingerprint::of(y));
        if fx != fy {
            mismatches.push(format!("{name}: counters {fx:?} vs {fy:?}"));
        }
    }
    (mismatches, compared)
}

/// Per-layer figures of one traced pass, per verdict where a mean.
pub fn layer_metrics(
    corpus: &Corpus,
    traced: &[Sample],
    recorder: &Recorder,
    elapsed: Duration,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let n = traced.len().max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per = |x: f64| x / n;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let spans = recorder.spans();
    let selves = self_times(&spans);
    let self_ns = |layer: Layer| {
        selves
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns)
    };
    let mut stats = OrchestratorStats::default();
    let mut counts = Counts::default();
    for s in traced {
        stats.accumulate(&s.stats);
        counts.add(&s.counts);
    }
    let linear_ns = stats.linear_time.as_nanos() as u64;
    let solve_self = self_ns(Layer::Solve);
    if linear_ns > solve_self {
        return Err(format!(
            "linear time {linear_ns} ns exceeds the control loop's self time {solve_self} ns"
        ));
    }
    let sum_ns: u64 = selves.iter().map(|(_, ns)| ns).sum();
    if sum_ns > elapsed.as_nanos() as u64 {
        return Err(format!(
            "layer self times sum to {sum_ns} ns, more than the {} ns elapsed",
            elapsed.as_nanos()
        ));
    }

    let bytes: usize = traced
        .iter()
        .map(|s| corpus.instances[s.index].text.len())
        .sum();
    let parse_s = self_ns(Layer::Parse) as f64 / 1e9;
    let overshoot: Vec<f64> = traced
        .iter()
        .filter(|s| s.stats.timed_out)
        .map(|s| ms(s.elapsed.saturating_sub(corpus.limit)))
        .collect();
    let nsms = |ns: u64| ns as f64 / 1e6;
    Ok(vec![
        ("parse.ms", per(nsms(self_ns(Layer::Parse))), "ms"),
        (
            "parse.mb_per_s",
            if parse_s > 0.0 {
                bytes as f64 / 1e6 / parse_s
            } else {
                0.0
            },
            "MB/s",
        ),
        ("analyze.ms", per(nsms(self_ns(Layer::Analyze))), "ms"),
        (
            "analyze.clauses_eliminated",
            per(stats.pre_clauses_eliminated as f64),
            "count",
        ),
        ("analyze.static_unsat", stats.static_unsat as f64, "count"),
        (
            "partition.components",
            per(stats.components as f64),
            "count",
        ),
        ("sat.ms", per(nsms(self_ns(Layer::Sat))), "ms"),
        ("sat.calls", per(counts.sat_calls as f64), "count"),
        ("sat.decisions", per(counts.cdcl.decisions as f64), "count"),
        (
            "sat.propagations",
            per(counts.cdcl.propagations as f64),
            "count",
        ),
        ("sat.conflicts", per(counts.cdcl.conflicts as f64), "count"),
        ("sat.restarts", per(counts.cdcl.restarts as f64), "count"),
        ("linear.ms", per(ms(stats.linear_time)), "ms"),
        (
            "linear.conflict_min_ms",
            per(ms(stats.conflict_min_time)),
            "ms",
        ),
        ("linear.checks", per(stats.theory_checks as f64), "count"),
        ("linear.pivots", per(stats.simplex_pivots as f64), "count"),
        (
            "linear.conflict_literals",
            per(stats.conflict_literals as f64),
            "count",
        ),
        ("nonlinear.ms", per(nsms(self_ns(Layer::Nonlinear))), "ms"),
        (
            "nonlinear.calls",
            per(counts.nonlinear_calls as f64),
            "count",
        ),
        (
            "nonlinear.boxes",
            per(counts.nonlinear_boxes as f64),
            "count",
        ),
        ("nonlinear.hc4", per(stats.hc4_contractions as f64), "count"),
        ("nonlinear.bc3", per(stats.bc3_contractions as f64), "count"),
        (
            "nonlinear.newton",
            per(stats.newton_contractions as f64),
            "count",
        ),
        (
            "nonlinear.cache_hit_rate",
            ratio(
                stats.contraction_cache_hits,
                stats.contraction_cache_hits + stats.contraction_cache_misses,
            ),
            "share",
        ),
        (
            "nonlinear.overshoot_ms",
            if overshoot.is_empty() {
                0.0
            } else {
                overshoot.iter().sum::<f64>() / overshoot.len() as f64
            },
            "ms",
        ),
        (
            "orchestrator.self_ms",
            per(nsms(solve_self - linear_ns)),
            "ms",
        ),
        (
            "orchestrator.iterations",
            per(stats.boolean_iterations as f64),
            "count",
        ),
        (
            "orchestrator.theory_cache_hit_rate",
            ratio(
                stats.theory_cache_hits,
                stats.theory_cache_hits + stats.theory_cache_misses,
            ),
            "share",
        ),
        ("model.convert_ms", corpus.convert.map_or(0.0, ms), "ms"),
    ])
}
