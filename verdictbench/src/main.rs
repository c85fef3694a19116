//! Time-to-verdict benchmark for ABsolver.
//!
//! ```text
//! cargo run --release --offline --manifest-path verdictbench/Cargo.toml -- \
//!     --workload linear-bmc --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the untraced stack;
//! `--trace 1` runs the traced stack next to the untraced one and prints
//! the per-layer metrics. `--self-test` checks that the verdict oracle
//! catches a flipped verdict and a corrupted model; `--parity` checks
//! that traced and untraced stacks, and two traced passes, agree on every
//! verdict and program counter. The last line of standard output is the
//! result object. See `README.md` in this directory.

mod corpus;
mod layers;
mod library;
mod oracle;
mod report;
mod service;

use corpus::{Corpus, Library, Rng};
use layers::{self_times, Layer, Probe, Recorder};
use library::Sample;
use report::{latency_metrics, median, peak_rss_mb, Report};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups made before and after the timed phase; `setup_s` is the
/// median of all of them. Splitting them puts the median across two
/// moments of the machine instead of one.
pub const SETUPS_BEFORE: usize = 5;
pub const SETUPS_AFTER: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    SelfTest,
    Parity,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.mode = Mode::SelfTest,
            "--parity" => args.mode = Mode::Parity,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn library_workload(name: &str) -> Option<Library> {
    match name {
        "linear-bmc" => Some(Library::LinearBmc),
        "nonlinear-hybrid" => Some(Library::NonlinearHybrid),
        "cnf-heavy" => Some(Library::CnfHeavy),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.mode, library_workload(&args.workload)) {
        (Mode::Run, Some(w)) => Ok(run_library(w, &args)),
        (Mode::Run, None) if args.workload == "service-mixed" => {
            service::run(args.seed, Duration::from_secs(args.seconds), args.trace)
        }
        (Mode::SelfTest, _) => return self_test(args.seed),
        (Mode::Parity, Some(w)) => return parity(w, args.seed),
        _ => Err(format!("unknown workload `{}`", args.workload)),
    };
    match outcome {
        Ok(report) => {
            for f in report.failures.iter().take(20) {
                eprintln!("FAILED {f}");
            }
            println!("{}", report.json());
            if report.wrong == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("verdictbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs `make` `n` times; returns the last result and every duration.
pub fn timed_setups<T>(n: usize, mut make: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let started = Instant::now();
        last = Some(make());
        times.push(started.elapsed());
    }
    (last.expect("at least one set-up"), times)
}

fn print_corpus(corpus: &Corpus) {
    println!(
        "corpus: {} instances, limit {} ms, hash {:016x}",
        corpus.instances.len(),
        corpus.limit.as_millis(),
        corpus.hash()
    );
}

/// The solve order of round `round`: the corpus order first, then seeded
/// reshuffles.
fn round_order(corpus: &Corpus, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..corpus.instances.len()).collect();
    if round > 0 {
        Rng::new(seed, 100 + round).shuffle(&mut order);
    }
    order
}

/// Solves `jobs` (corpus indices) on `corpus.threads` threads, each with
/// its own untraced stack.
fn solve_all(corpus: &Corpus, jobs: &[usize]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..corpus.threads {
            scope.spawn(|| {
                let probe = Probe::new(None);
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = jobs.get(job) else { break };
                    let sample = library::solve(i, &corpus.instances[i], corpus.limit, &probe);
                    samples
                        .lock()
                        .expect("no sample holder panics")
                        .push(sample);
                }
            });
        }
    });
    samples.into_inner().expect("no sample holder panics")
}

fn account(report: &mut Report, corpus: &Corpus, samples: &[Sample]) -> usize {
    let mut within = 0;
    for s in samples {
        report.judge(&corpus.instances[s.index].name, &s.judgement);
        if s.within(corpus.limit) {
            within += 1;
        }
    }
    within
}

fn print_counts(corpus: &Corpus, samples: &[Sample]) {
    let count = |v: &str| samples.iter().filter(|s| s.verdict.name() == v).count();
    println!(
        "samples: {} ({} sat, {} unsat, {} unknown, {} error) over {} distinct instances",
        samples.len(),
        count("sat"),
        count("unsat"),
        count("unknown"),
        count("error"),
        corpus.instances.len()
    );
}

/// Median time per instance, slowest first.
fn print_instances(corpus: &Corpus, samples: &[Sample]) {
    let mut rows: Vec<(Duration, &str, &str, usize)> = Vec::new();
    for (i, inst) in corpus.instances.iter().enumerate() {
        let mut times: Vec<Duration> = samples
            .iter()
            .filter(|s| s.index == i)
            .map(|s| s.elapsed)
            .collect();
        let verdict = samples
            .iter()
            .find(|s| s.index == i)
            .map_or("-", |s| s.verdict.name());
        let n = times.len();
        if n > 0 {
            rows.push((median(&mut times), &inst.name, verdict, n));
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.0));
    for (t, name, verdict, n) in rows {
        println!(
            "  {name:<28} {verdict:<7} {:>9.2} ms median of {n}",
            t.as_secs_f64() * 1e3
        );
    }
}

fn run_library(workload: Library, args: &Args) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs(args.seconds);
    let build = || corpus::build(workload, args.seed);
    if !args.trace {
        let (corpus, mut setups) = timed_setups(SETUPS_BEFORE, build);
        print_corpus(&corpus);
        // A fixed number of whole rounds: every run solves the same
        // multiset of instances, at least a hundred of them.
        let by_time = (budget.as_secs_f64() / corpus.nominal_round.as_secs_f64()).ceil();
        let by_count = (100.0 / corpus.instances.len() as f64).ceil();
        let rounds = by_time.max(by_count) as u64;
        let jobs: Vec<usize> = (0..rounds)
            .flat_map(|r| round_order(&corpus, args.seed, r))
            .collect();
        let started = Instant::now();
        let samples = solve_all(&corpus, &jobs);
        let timed = started.elapsed();
        print_counts(&corpus, &samples);
        print_instances(&corpus, &samples);
        let within = account(&mut report, &corpus, &samples);
        let charged: Vec<Duration> = samples.iter().map(|s| s.charged(corpus.limit)).collect();
        let beyond = latency_metrics(&mut report, charged, timed, within);
        println!(
            "rounds: {rounds} on {} thread(s), samples beyond p90: {beyond}",
            corpus.threads
        );
        // Read the high-water mark before the later set-ups can raise it.
        let peak = peak_rss_mb();
        setups.extend(timed_setups(SETUPS_AFTER, build).1);
        report.push("setup_s", median(&mut setups).as_secs_f64(), "s");
        report.push("peak_rss_mb", peak, "MB");
        return report;
    }

    // Traced run: alternate an untraced and a traced pass over the same
    // round, so parity is checked and the tracing overhead measured.
    let corpus = build();
    print_corpus(&corpus);
    let started = Instant::now();
    let mut untraced_time = Duration::ZERO;
    let mut traced_time = Duration::ZERO;
    let mut traced_samples = Vec::new();
    let recorder = Arc::new(Recorder::new());
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < budget {
        // Alternate which pass goes first, so neither always meets the
        // colder caches.
        let untraced_pass = |time: &mut Duration| {
            let t = Instant::now();
            let samples = library::pass(&corpus, &Probe::new(None));
            *time += t.elapsed();
            samples
        };
        let traced_pass = |time: &mut Duration| {
            let t = Instant::now();
            let samples = library::pass(&corpus, &Probe::new(Some(recorder.clone())));
            *time += t.elapsed();
            samples
        };
        let (plain, traced) = if rounds % 2 == 0 {
            let plain = untraced_pass(&mut untraced_time);
            (plain, traced_pass(&mut traced_time))
        } else {
            let traced = traced_pass(&mut traced_time);
            (untraced_pass(&mut untraced_time), traced)
        };
        let (mismatches, compared) = library::compare(&corpus, &plain, &traced);
        println!(
            "parity: {compared} instances compared, {} mismatches",
            mismatches.len()
        );
        for m in mismatches {
            report.wrong(format!("traced/untraced parity: {m}"));
        }
        account(&mut report, &corpus, &traced);
        traced_samples.extend(traced);
        rounds += 1;
    }
    print_counts(&corpus, &traced_samples);
    match recorder.write(&format!("{}-seed{}", args.workload, args.seed)) {
        Ok(path) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("verdictbench: could not write spans: {e}"),
    }
    match library::layer_metrics(&corpus, &traced_samples, &recorder, traced_time) {
        Ok(metrics) => {
            print_self_times(&recorder, &traced_samples, traced_time);
            for (name, value, unit) in metrics {
                report.push(name, value, unit);
            }
        }
        Err(e) => report.wrong(format!("per-layer accounting: {e}")),
    }
    report.push(
        "trace.overhead_share",
        traced_time.as_secs_f64() / untraced_time.as_secs_f64() - 1.0,
        "share",
    );
    report.fill_per_layer();
    report
}

fn print_self_times(recorder: &Recorder, samples: &[Sample], elapsed: Duration) {
    let linear: Duration = samples.iter().map(|s| s.stats.linear_time).sum();
    println!("layer self time over {} traced verdicts:", samples.len());
    let total = elapsed.as_secs_f64() * 1e3;
    for (layer, ns) in self_times(&recorder.spans()) {
        let mut ms = ns as f64 / 1e6;
        let name = match layer {
            Layer::Instance => "solver stack set-up and drop",
            Layer::Parse => "parse",
            Layer::Solve => {
                println!(
                    "  {:<40} {:>10.1} ms {:>5.1}%",
                    "linear",
                    linear.as_secs_f64() * 1e3,
                    100.0 * linear.as_secs_f64() * 1e3 / total
                );
                ms -= linear.as_secs_f64() * 1e3;
                "orchestrator"
            }
            Layer::Analyze => "analyze (+ partition)",
            Layer::Sat => "sat",
            Layer::Nonlinear => "nonlinear",
            Layer::Submit => "service submit",
        };
        println!("  {name:<40} {ms:>10.1} ms {:>5.1}%", 100.0 * ms / total);
    }
    println!("  {:<40} {total:>10.1} ms", "elapsed");
}

/// `--self-test`: solve the first sat and the first unsat instance of
/// every library workload, then show the oracle a flipped verdict and a
/// corrupted model.
fn self_test(seed: u64) -> ExitCode {
    let mut all_caught = true;
    for workload in [
        Library::LinearBmc,
        Library::NonlinearHybrid,
        Library::CnfHeavy,
    ] {
        let corpus = corpus::build(workload, seed);
        let probe = Probe::new(None);
        let mut seen = Vec::new();
        for (i, inst) in corpus.instances.iter().enumerate() {
            let sample = library::solve(i, inst, corpus.limit, &probe);
            let kind = sample.verdict.name();
            if (kind == "sat" || kind == "unsat") && !seen.contains(&kind) {
                seen.push(kind);
                for (check, ok) in oracle::self_test(inst, &sample.verdict) {
                    println!("{} {check}", if ok { "ok  " } else { "FAIL" });
                    all_caught &= ok;
                }
            }
            if seen.len() == 2 {
                break;
            }
        }
    }
    all_caught &= service::self_test();
    println!(
        "self-test: {}",
        if all_caught { "passed" } else { "FAILED" }
    );
    if all_caught {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--parity`: an untraced pass and two traced passes over one round must
/// agree on every verdict and program counter.
fn parity(workload: Library, seed: u64) -> ExitCode {
    let corpus = corpus::build(workload, seed);
    println!("corpus hash for seed {seed}: {:016x}", corpus.hash());
    let plain = library::pass(&corpus, &Probe::new(None));
    let recorder = Arc::new(Recorder::new());
    let traced_a = library::pass(&corpus, &Probe::new(Some(recorder.clone())));
    let traced_b = library::pass(&corpus, &Probe::new(Some(recorder)));
    let mut ok = true;
    for (label, a, b) in [
        ("untraced vs traced", &plain, &traced_a),
        ("traced vs traced", &traced_a, &traced_b),
    ] {
        let (mismatches, compared) = library::compare(&corpus, a, b);
        println!(
            "{label}: {compared} of {} instances compared, {} mismatches",
            corpus.instances.len(),
            mismatches.len()
        );
        for m in &mismatches {
            println!("  {m}");
        }
        ok &= mismatches.is_empty();
    }
    for s in &plain {
        println!(
            "  {:<28} {:<7} {:>9.2} ms {:?}",
            corpus.instances[s.index].name,
            s.verdict.name(),
            s.elapsed.as_secs_f64() * 1e3,
            library::Fingerprint::of(s)
        );
    }
    println!("parity: {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
