//! Percentiles, the result line, and process memory.

use crate::oracle::Judgement;
use std::time::Duration;

/// Every per-layer metric of a traced run, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.ms", "ms"),
    ("parse.mb_per_s", "MB/s"),
    ("analyze.ms", "ms"),
    ("analyze.clauses_eliminated", "count"),
    ("analyze.static_unsat", "count"),
    ("partition.components", "count"),
    ("sat.ms", "ms"),
    ("sat.calls", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.restarts", "count"),
    ("linear.ms", "ms"),
    ("linear.conflict_min_ms", "ms"),
    ("linear.checks", "count"),
    ("linear.pivots", "count"),
    ("linear.conflict_literals", "count"),
    ("nonlinear.ms", "ms"),
    ("nonlinear.calls", "count"),
    ("nonlinear.boxes", "count"),
    ("nonlinear.hc4", "count"),
    ("nonlinear.bc3", "count"),
    ("nonlinear.newton", "count"),
    ("nonlinear.cache_hit_rate", "share"),
    ("nonlinear.overshoot_ms", "ms"),
    ("orchestrator.self_ms", "ms"),
    ("orchestrator.iterations", "count"),
    ("orchestrator.theory_cache_hit_rate", "share"),
    ("model.convert_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p90", "ms"),
    ("service.solve_ms_p50", "ms"),
    ("service.problem_hit_share", "share"),
    ("service.session_hit_share", "share"),
    ("service.contraction_resumes", "count"),
    ("service.generator_lag_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (instances solved or requests sent).
    pub attempted: u64,
    /// Failed operations: wrong verdicts, invalid models, unreferenced
    /// unsat answers, errors.
    pub failed: u64,
    /// Failed operations that were wrong answers rather than refusals.
    pub wrong: u64,
    /// Failure messages, for standard error.
    pub failures: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports every per-layer metric this run did not measure as 0: a
    /// library workload never reaches the service, and the service
    /// workload's solver stack is not the benchmark's to wrap.
    pub fn fill_per_layer(&mut self) {
        for &(name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.push(name, 0.0, unit);
            }
        }
    }

    /// Records a refused or errored operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Records a wrong answer: a failed operation that makes the run
    /// incorrect.
    pub fn wrong(&mut self, message: String) {
        self.wrong += 1;
        self.fail(message);
    }

    /// Accounts one checked answer.
    pub fn judge(&mut self, name: &str, judgement: &Judgement) {
        self.attempted += 1;
        match judgement {
            Judgement::Wrong(why) => self.wrong(format!("{name}: {why}")),
            Judgement::Refused(why) => self.fail(format!("{name}: {why}")),
            Judgement::Decided | Judgement::Undecided => {}
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`, in milliseconds.
pub fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [Duration]) -> Duration {
    values.sort_unstable();
    values[values.len() / 2]
}

/// Adds the timing metrics every workload reports from its samples.
pub fn latency_metrics(
    report: &mut Report,
    mut charged: Vec<Duration>,
    timed: Duration,
    within: usize,
) -> usize {
    charged.sort_unstable();
    let n = charged.len();
    report.push("verdict_ms_p50", percentile_ms(&charged, 0.5), "ms");
    report.push("verdict_ms_p90", percentile_ms(&charged, 0.9), "ms");
    report.push("verdicts_per_s", n as f64 / timed.as_secs_f64(), "1/s");
    report.push(
        "within_limit_share",
        within as f64 / report.attempted.max(1) as f64,
        "share",
    );
    // Samples strictly beyond the p90 rank.
    n - ((0.9 * n as f64).ceil() as usize).min(n)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
