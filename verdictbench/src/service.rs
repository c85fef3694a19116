//! The `service-mixed` workload: an in-process `Server` with one worker,
//! driven open loop by one generator thread at a fixed rate.
//!
//! Requests come in blocks of twenty with a fixed class mix, shuffled
//! within the block by the seed:
//!
//! | class    | per block | tier reached        | answer            |
//! |----------|-----------|---------------------|-------------------|
//! | cold     | 5         | fresh declarations  | `fischer_mutex`   |
//! | session  | 9         | pooled warm session | threshold + curve |
//! | problem  | 4         | verdict cache       | byte-identical    |
//! | analysis | 2         | static-unsat cache  | repeated body     |
//!
//! About 30% of the requests are answered from a cache, so neither the
//! median nor the 90th percentile sits on the boundary between cache
//! replays and solves.

use crate::corpus::{mutex, Domain, Expect, Instance, Rng};
use crate::layers::{Layer, Recorder};
use crate::oracle::{self, judge, Judgement, Verdict};
use crate::report::{latency_metrics, median, peak_rss_mb, percentile_ms, Report};
use absolver_core::{parser, AbProblem, VarKind};
use absolver_linear::CmpOp;
use absolver_nonlinear::Expr;
use absolver_num::Rational;
use absolver_service::{CacheTier, Priority, Response, Server, ServerOptions, SolveFrame};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Offered load, in requests per second: about a third of what one
/// worker sustains on this mix.
pub const RATE_PER_S: f64 = 100.0;

/// A request counts within the limit when its checked answer arrives
/// this soon after it was due.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);

/// Deadline sent with every request, well past the latency limit, so
/// late answers still arrive and get checked.
const REQUEST_TIMEOUT_MS: u64 = 5_000;

/// Arithmetic variables of the shared-declaration family.
const M: usize = 14;

/// Class of each slot of a block, before shuffling.
const BLOCK: [Class; 20] = {
    use Class::*;
    [
        Cold, Cold, Cold, Cold, Cold, Session, Session, Session, Session, Session, Session,
        Session, Session, Session, Problem, Problem, Problem, Problem, Analysis, Analysis,
    ]
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Session,
    Problem,
    Analysis,
}

/// One planned request.
#[derive(Debug, Clone)]
struct Request {
    class: Class,
    instance: Instance,
}

/// Plans `count` requests from `seed`.
fn plan(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 7);
    let mut out: Vec<Request> = Vec::with_capacity(count);
    let mut used_variants = std::collections::HashSet::new();
    let mut used_mutex = std::collections::HashSet::new();
    let statics: Vec<Instance> = (0..3).map(|_| static_unsat(&mut rng)).collect();
    while out.len() < count {
        let mut block = BLOCK;
        rng.shuffle(&mut block);
        for class in block {
            if out.len() == count {
                break;
            }
            let instance = match class {
                Class::Cold => loop {
                    assert!(used_mutex.len() < 3 * 61 * 8, "mutex parameters exhausted");
                    let n = rng.range(2, 4);
                    let a = rng.range(n, n + 60);
                    let b = a + rng.range(1, 8);
                    if used_mutex.insert((n, a, b)) {
                        break mutex(n as usize, a, b);
                    }
                },
                Class::Session => loop {
                    let bits = rng.next_u64() & ((1 << M) - 1);
                    if used_variants.insert(bits) {
                        break variant(bits);
                    }
                },
                // Resubmit a solved request old enough to be answered and
                // recent enough to still be in the verdict cache.
                Class::Problem => {
                    let solved: Vec<&Request> = out
                        .iter()
                        .rev()
                        .skip(20)
                        .take(100)
                        .filter(|r| matches!(r.class, Class::Cold | Class::Session))
                        .collect();
                    match solved.get(rng.next_u64() as usize % solved.len().max(1)) {
                        Some(r) => r.instance.clone(),
                        // Nothing old enough yet: the first block warms up.
                        None => variant(rng.next_u64() & ((1 << M) - 1)),
                    }
                }
                Class::Analysis => statics[rng.next_u64() as usize % statics.len()].clone(),
            };
            out.push(Request { class, instance });
        }
    }
    out
}

fn instance(name: String, problem: &AbProblem, expect: Expect) -> Instance {
    let text = parser::write(problem);
    let reference = parser::parse(&text).expect("rendered problems parse back");
    Instance {
        name,
        text,
        reference,
        expect,
        domain: Domain::None,
    }
}

/// A member of the shared-declaration family: `M` integers in {-1,0,1}
/// whose sum reaches 55% of `M`, the coupling x0² + x1² ≤ 2, and the
/// free atoms `xᵢ ≥ 1` set by `bits` required true. Always satisfiable.
fn variant(bits: u64) -> Instance {
    let mut b = AbProblem::builder();
    let vars: Vec<usize> = (0..M)
        .map(|i| b.arith_var(&format!("x{i}"), VarKind::Int))
        .collect();
    let mut frees = Vec::new();
    for &v in &vars {
        frees.push(b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1)));
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
        b.require(hi.positive());
    }
    let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
    let target = (M * 55).div_ceil(100) as i64;
    let reach = b.atom(sum, CmpOp::Ge, Rational::from_int(target));
    b.require(reach.positive());
    let curve = b.atom(
        Expr::var(vars[0]) * Expr::var(vars[0]) + Expr::var(vars[1]) * Expr::var(vars[1]),
        CmpOp::Le,
        Rational::from_int(2),
    );
    b.require(curve.positive());
    for (i, &a) in frees.iter().enumerate() {
        if bits & (1 << i) != 0 {
            b.require(a.positive());
        }
    }
    instance(format!("variant-{bits:04x}"), &b.build(), Expect::Sat)
}

/// Two unit atoms `x ≥ hi` and `x ≤ lo` with `lo < hi`: refuted by the
/// interval dataflow before any solving.
fn static_unsat(rng: &mut Rng) -> Instance {
    let lo = rng.range(-50, 50);
    let hi = lo + rng.range(1, 20);
    let text = format!(
        "p cnf 2 2\n1 0\n2 0\nc def real 1 x >= {hi}\nc def real 2 x <= {lo}\nc range x -1000 1000\n"
    );
    Instance {
        name: format!("static-unsat-{lo}-{hi}"),
        reference: parser::parse(&text).expect("static-unsat body parses"),
        text,
        expect: Expect::Unsat(format!("unit atoms x >= {hi} and x <= {lo} contradict")),
        domain: Domain::None,
    }
}

/// What came back for one request.
#[derive(Debug, Clone)]
struct Outcome {
    /// From due time to response arrival.
    latency: Duration,
    judgement: Judgement,
    tier: Option<CacheTier>,
    wait_us: u64,
    solve_us: u64,
}

/// Everything one open-loop run measured.
struct LoopRun {
    outcomes: Vec<Option<Outcome>>,
    lag: Vec<Duration>,
    elapsed: Duration,
    contraction_resumes: u64,
}

fn server() -> Server {
    Server::new(ServerOptions {
        workers: 1,
        ..ServerOptions::default()
    })
}

fn verdict_of(instance: &Instance, response: &Response) -> (Verdict, Option<CacheTier>, u64, u64) {
    match response {
        Response::Ok {
            verdict,
            cache,
            wait_us,
            solve_us,
            model,
            ..
        } => {
            let v = match *verdict {
                "sat" => match oracle::model_from_pairs(&instance.reference, model) {
                    Some(m) => Verdict::Sat(Box::new(m)),
                    // A sat reply whose model does not name every
                    // variable: an empty model, which the check rejects.
                    None => Verdict::Sat(Box::new(absolver_core::AbModel {
                        boolean: absolver_logic::Assignment::new(0),
                        arith: absolver_core::ArithModel::Exact(Vec::new()),
                    })),
                },
                "unsat" | "static-unsat" => Verdict::Unsat,
                "unknown" => Verdict::Unknown,
                other => Verdict::Error(format!("unexpected verdict `{other}`")),
            };
            (v, Some(*cache), *wait_us, *solve_us)
        }
        Response::Err { code, message, .. } => (
            Verdict::Error(format!("err code={} {message}", code.as_str())),
            None,
            0,
            0,
        ),
        other => (
            Verdict::Error(format!("unexpected reply {}", other.render())),
            None,
            0,
            0,
        ),
    }
}

/// Sends `requests` open loop at `RATE_PER_S`, timing each from its due
/// time, and collects every response.
fn open_loop(requests: &[Request], recorder: Option<&Recorder>) -> LoopRun {
    let server = server();
    let (tx, rx) = mpsc::channel::<Response>();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
    let mut lag = Vec::with_capacity(requests.len());
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let started = Instant::now();
    let due = |i: usize| started + interval * i as u32;
    let record = |response: Response, at: Instant, outcomes: &mut [Option<Outcome>]| {
        let id = match &response {
            Response::Ok { id, .. } => Some(*id),
            Response::Err { id, .. } => *id,
            _ => None,
        };
        let Some(i) = id.map(|id| id as usize).filter(|&i| i < requests.len()) else {
            return;
        };
        let request = &requests[i];
        let (verdict, tier, wait_us, solve_us) = verdict_of(&request.instance, &response);
        let judgement = match judge(&request.instance, &verdict) {
            Judgement::Wrong(why) => {
                let mut line = response.render();
                line.truncate(300);
                Judgement::Wrong(format!("{why}; reply: {line}"))
            }
            other => other,
        };
        outcomes[i] = Some(Outcome {
            latency: at.saturating_duration_since(due(i)),
            judgement,
            tier,
            wait_us,
            solve_us,
        });
    };
    for (i, request) in requests.iter().enumerate() {
        // Take responses as they arrive until this request is due.
        loop {
            let now = Instant::now();
            if now >= due(i) {
                break;
            }
            match rx.recv_timeout(due(i) - now) {
                Ok(response) => record(response, Instant::now(), &mut outcomes),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
            }
        }
        lag.push(Instant::now().saturating_duration_since(due(i)));
        let frame = SolveFrame {
            id: i as u64,
            timeout_ms: Some(REQUEST_TIMEOUT_MS),
            priority: Priority::Normal,
            text: request.instance.text.clone(),
        };
        // Every outcome, an `overload` rejection included, arrives as a
        // reply on the channel.
        let _span = recorder.map(|r| r.span(Layer::Submit));
        server.submit(frame, tx.clone());
    }
    let last_due = due(requests.len());
    let drain_until = last_due + Duration::from_millis(REQUEST_TIMEOUT_MS) * 2;
    while outcomes.iter().any(Option::is_none) {
        let now = Instant::now();
        if now >= drain_until {
            break;
        }
        match rx.recv_timeout(drain_until - now) {
            Ok(response) => record(response, Instant::now(), &mut outcomes),
            Err(_) => break,
        }
    }
    let elapsed = started.elapsed();
    let contraction_resumes = server
        .stats()
        .contraction_resumes
        .load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    LoopRun {
        outcomes,
        lag,
        elapsed,
        contraction_resumes,
    }
}

/// One set-up: plans the requests and starts (and stops) a server.
fn set_up(seed: u64, count: usize) -> Vec<Request> {
    let requests = plan(seed, count);
    server().shutdown();
    requests
}

fn account(report: &mut Report, requests: &[Request], run: &LoopRun) -> (Vec<Duration>, usize) {
    let mut charged = Vec::with_capacity(requests.len());
    let mut within = 0;
    for (request, outcome) in requests.iter().zip(&run.outcomes) {
        match outcome {
            Some(o) => {
                report.judge(&request.instance.name, &o.judgement);
                let ok = o.judgement == Judgement::Decided;
                if ok && o.latency <= LATENCY_LIMIT {
                    within += 1;
                }
                charged.push(if ok {
                    o.latency
                } else {
                    o.latency.max(LATENCY_LIMIT)
                });
            }
            None => {
                report.judge(
                    &request.instance.name,
                    &Judgement::Refused("no response".into()),
                );
                charged.push(run.elapsed.max(LATENCY_LIMIT));
            }
        }
    }
    (charged, within)
}

fn print_tiers(requests: &[Request], run: &LoopRun) {
    let mut tiers = [0usize; 5];
    for o in run.outcomes.iter().flatten() {
        let slot = match o.tier {
            Some(CacheTier::Problem) => 0,
            Some(CacheTier::Analysis) => 1,
            Some(CacheTier::Session) => 2,
            Some(CacheTier::Cold) => 3,
            None => 4,
        };
        tiers[slot] += 1;
    }
    println!(
        "requests: {} at {RATE_PER_S} per s; tiers: {} problem, {} analysis, {} session, {} cold, {} err; {} unanswered",
        requests.len(),
        tiers[0],
        tiers[1],
        tiers[2],
        tiers[3],
        tiers[4],
        run.outcomes.iter().filter(|o| o.is_none()).count()
    );
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    let count = (budget.as_secs_f64() * RATE_PER_S).round().max(1.0) as usize;
    let mut report = Report::default();
    if !trace {
        let (requests, mut setups) =
            crate::timed_setups(crate::SETUPS_BEFORE, || set_up(seed, count));
        let run = open_loop(&requests, None);
        print_tiers(&requests, &run);
        let busy: u64 = run.outcomes.iter().flatten().map(|o| o.solve_us).sum();
        println!(
            "worker busy share: {:.3}",
            busy as f64 / 1e6 / run.elapsed.as_secs_f64()
        );
        let (charged, within) = account(&mut report, &requests, &run);
        let beyond = latency_metrics(&mut report, charged, run.elapsed, within);
        println!("samples beyond p90: {beyond}");
        // Read the high-water mark before the later set-ups can raise it.
        let peak = peak_rss_mb();
        setups.extend(crate::timed_setups(crate::SETUPS_AFTER, || set_up(seed, count)).1);
        report.push("setup_s", median(&mut setups).as_secs_f64(), "s");
        report.push("peak_rss_mb", peak, "MB");
        return Ok(report);
    }

    // Traced run: the same plan twice, untraced then traced, each on a
    // fresh server and for half the budget.
    let half = (count / 2).max(1);
    let requests = set_up(seed, half);
    let plain = open_loop(&requests, None);
    let recorder = Recorder::new();
    let traced = open_loop(&requests, Some(&recorder));
    print_tiers(&requests, &traced);
    account(&mut report, &requests, &plain);
    account(&mut report, &requests, &traced);

    match recorder.write(&format!("service-mixed-seed{seed}")) {
        Ok(path) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("verdictbench: could not write spans: {e}"),
    }
    let answered: Vec<&Outcome> = traced.outcomes.iter().flatten().collect();
    let n = answered.len().max(1) as f64;
    let submit: Vec<Duration> = recorder
        .spans()
        .iter()
        .map(|s| Duration::from_nanos(s.end - s.start))
        .collect();
    let mut waits: Vec<Duration> = answered
        .iter()
        .map(|o| Duration::from_micros(o.wait_us))
        .collect();
    waits.sort_unstable();
    let mut solves: Vec<Duration> = answered
        .iter()
        .filter(|o| matches!(o.tier, Some(CacheTier::Session | CacheTier::Cold)))
        .map(|o| Duration::from_micros(o.solve_us))
        .collect();
    solves.sort_unstable();
    let tier_share =
        |t: CacheTier| answered.iter().filter(|o| o.tier == Some(t)).count() as f64 / n;
    let mean_ms = |xs: &[Duration]| {
        xs.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / xs.len().max(1) as f64
    };
    let mean_latency = |run: &LoopRun| {
        let xs: Vec<Duration> = run.outcomes.iter().flatten().map(|o| o.latency).collect();
        mean_ms(&xs)
    };
    report.push("service.submit_ms", mean_ms(&submit), "ms");
    report.push("service.wait_ms_p50", percentile_ms(&waits, 0.5), "ms");
    report.push("service.wait_ms_p90", percentile_ms(&waits, 0.9), "ms");
    report.push("service.solve_ms_p50", percentile_ms(&solves, 0.5), "ms");
    report.push(
        "service.problem_hit_share",
        tier_share(CacheTier::Problem),
        "share",
    );
    report.push(
        "service.session_hit_share",
        tier_share(CacheTier::Session),
        "share",
    );
    report.push(
        "service.contraction_resumes",
        traced.contraction_resumes as f64,
        "count",
    );
    report.push("service.generator_lag_ms", mean_ms(&traced.lag), "ms");
    report.push(
        "trace.overhead_share",
        mean_latency(&traced) / mean_latency(&plain) - 1.0,
        "share",
    );
    report.fill_per_layer();
    Ok(report)
}

/// The service half of `--self-test`: a wrong service answer and a
/// corrupted service model must be caught.
pub fn self_test() -> bool {
    let mut rng = Rng::new(1, 7);
    let sat = variant(0b101);
    let unsat = static_unsat(&mut rng);
    let server = server();
    let (tx, rx) = mpsc::channel();
    let mut ok = true;
    for (i, inst) in [&sat, &unsat].into_iter().enumerate() {
        server.submit(
            SolveFrame {
                id: i as u64,
                timeout_ms: Some(REQUEST_TIMEOUT_MS),
                priority: Priority::Normal,
                text: inst.text.clone(),
            },
            tx.clone(),
        );
        let response = rx.recv().expect("the server answers");
        let (verdict, ..) = verdict_of(inst, &response);
        for (check, passed) in oracle::self_test(inst, &verdict) {
            println!("{} service {check}", if passed { "ok  " } else { "FAIL" });
            ok &= passed;
        }
        // A reply whose values were tampered with on the wire.
        if let Response::Ok { model, .. } = &response {
            if !model.is_empty() {
                let mut bad = model.clone();
                bad[0].1 = "7".to_string();
                let tampered = Response::Ok {
                    id: i as u64,
                    verdict: "sat",
                    cache: CacheTier::Cold,
                    wait_us: 0,
                    solve_us: 0,
                    model: bad,
                };
                let (v, ..) = verdict_of(inst, &tampered);
                let caught = matches!(judge(inst, &v), Judgement::Wrong(_));
                println!(
                    "{} service {}: a model value out of range on the wire is caught",
                    if caught { "ok  " } else { "FAIL" },
                    inst.name
                );
                ok &= caught;
            }
        }
    }
    server.shutdown();
    ok
}
