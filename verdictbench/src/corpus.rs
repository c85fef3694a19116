//! Seeded problem corpora for the four workloads.
//!
//! Every problem is generated here, rendered to the extended DIMACS text
//! the solver reads, and parsed back once as the reference the verdict
//! oracle checks models against. The timed phase only ever hands the
//! rendered text to the program.

use absolver_bench::fischer::{fischer, fischer_mutex, FischerConfig};
use absolver_bench::sudoku::{self, Difficulty, Grid};
use absolver_bench::table1;
use absolver_bench::workloads::{decomposable_problem, threshold_problem};
use absolver_core::{parser, AbProblem};
use absolver_model::{diagram_to_ab, steering_diagram, steering_options};
use std::time::{Duration, Instant};

/// The answer an instance must get, known before it is solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Satisfiable: a sat answer must carry a model that checks.
    Sat,
    /// Unsatisfiable for the stated reason.
    Unsat(String),
    /// No reference: `sat` is accepted with a checked model, `unknown`
    /// is a miss, and `unsat` is a failed operation.
    Open,
}

/// A domain-level check applied to a sat model on top of
/// `AbModel::satisfies`.
#[derive(Debug, Clone)]
pub enum Domain {
    /// No domain check.
    None,
    /// The model must decode to a valid grid extending this puzzle.
    Sudoku(Box<Grid>),
    /// Simulating the steering diagram on the model's sensor values must
    /// drive the `safe` monitor false.
    Steering,
}

/// One problem of a workload.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Stable name, unique within the corpus.
    pub name: String,
    /// Problem text handed to the program.
    pub text: String,
    /// `text` parsed once during set-up: the oracle's reference.
    pub reference: AbProblem,
    /// Known answer.
    pub expect: Expect,
    /// Extra domain check for sat answers.
    pub domain: Domain,
}

impl Instance {
    fn new(name: String, problem: &AbProblem, expect: Expect, domain: Domain) -> Instance {
        let text = parser::write(problem);
        let reference = parser::parse(&text).expect("rendered problems parse back");
        Instance {
            name,
            text,
            reference,
            expect,
            domain,
        }
    }
}

/// A workload's problems plus its per-instance time limit.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// One round of the workload, in solve order.
    pub instances: Vec<Instance>,
    /// Per-instance wall-clock limit.
    pub limit: Duration,
    /// Solver threads of the timed run.
    pub threads: usize,
    /// Wall time of one timed round on a 2-vCPU machine; a run makes
    /// enough rounds to fill its seconds.
    pub nominal_round: Duration,
    /// Median time of one `diagram_to_ab` conversion, when the workload
    /// converts a model.
    pub convert: Option<Duration>,
}

impl Corpus {
    /// FNV-1a over every instance name and text: equal hashes mean the
    /// same inputs.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for i in &self.instances {
            h.write(i.name.as_bytes());
            h.write(&[0]);
            h.write(i.text.as_bytes());
            h.write(&[0]);
        }
        h.finish()
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The library workloads (the service workload builds its own requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// Table 2 FISCHER, the `fischer_mutex` sweep and threshold problems.
    LinearBmc,
    /// Table 1 and the steering test-generation targets.
    NonlinearHybrid,
    /// Table 3 Sudoku and a pigeonhole ladder.
    CnfHeavy,
}

/// Builds one round of `workload` from `seed`.
pub fn build(workload: Library, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let ms = Duration::from_millis;
    let (mut instances, limit, threads, nominal_round, convert) = match workload {
        Library::LinearBmc => (linear_bmc(&mut rng), ms(5000), 1, ms(4000), None),
        // A single-threaded round takes about 20 s, too long to give a
        // hundred samples per run: two threads solve side by side.
        Library::NonlinearHybrid => {
            let (instances, convert) = nonlinear_hybrid(&mut rng);
            (instances, HYBRID_LIMIT, 2, ms(11000), Some(convert))
        }
        Library::CnfHeavy => (cnf_heavy(&mut rng), ms(5000), 1, ms(650), None),
    };
    rng.shuffle(&mut instances);
    Corpus {
        instances,
        limit,
        threads,
        nominal_round,
        convert,
    }
}

/// Per-instance limit of `nonlinear-hybrid`; it sits in the gap between
/// the slowest decided target and the undecided ones.
pub const HYBRID_LIMIT: Duration = Duration::from_millis(1200);

fn linear_bmc(rng: &mut Rng) -> Vec<Instance> {
    let mut out = Vec::new();
    for n in 1..=11 {
        out.push(Instance::new(
            format!("fischer{n}"),
            &fischer(n),
            Expect::Sat,
            Domain::None,
        ));
    }
    // The mutex sweep: one instance per process count, with a seeded
    // deadline a ≥ n and a wait b > a, so the protocol is safe and the
    // query unsat. (b ≤ a does not make it sat: b = a, or too little
    // room for the other processes, is unsat as well.) Up to five
    // processes every sweep instance solves faster than the median
    // instance, so the seed moves no percentile.
    for n in [2, 3, 3, 4, 4, 5, 5, 5] {
        let a = rng.range(n as i64, n as i64 + 3);
        let b = a + rng.range(1, 3);
        out.push(mutex(n, a, b));
    }
    // A dense ladder: neighbouring rungs differ by about 10% in solve
    // time, so no percentile sits on a wide gap.
    for m in (24..=60).step_by(3) {
        out.push(Instance::new(
            format!("threshold{m}"),
            &threshold_problem(m),
            Expect::Sat,
            Domain::None,
        ));
    }
    for copies in 2..=4 {
        let m = 16;
        out.push(Instance::new(
            format!("threshold{m}x{copies}"),
            &decomposable_problem(copies, m),
            Expect::Sat,
            Domain::None,
        ));
    }
    out
}

/// Undecided targets per run, drawn by the seed: each costs the full
/// limit, so which ones are drawn does not change the run's timing.
const OPEN_PER_RUN: usize = 8;

/// The expectation of every `nonlinear-hybrid` instance, from
/// `steering.expected`.
fn steering_expectations() -> Vec<(String, Expect)> {
    include_str!("../steering.expected")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.splitn(3, ' ');
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default();
            let reason = parts.next().unwrap_or_default().trim();
            let expect = match kind {
                "sat" => Expect::Sat,
                "open" => Expect::Open,
                "unsat" if !reason.is_empty() && reason != "-" => Expect::Unsat(reason.to_string()),
                _ => panic!("steering.expected: bad line `{line}`"),
            };
            (name, expect)
        })
        .collect()
}

/// `fischer_mutex` with `b > a`: processes 0 and 1 cannot both enter.
pub fn mutex(n: usize, a: i64, b: i64) -> Instance {
    assert!(b > a, "the mutex query is only known unsat for b > a");
    Instance::new(
        format!("mutex-n{n}-a{a}-b{b}"),
        &fischer_mutex(FischerConfig { processes: n, a, b }),
        Expect::Unsat(format!("fischer_mutex is safe because b={b} > a={a}")),
        Domain::None,
    )
}

fn nonlinear_hybrid(rng: &mut Rng) -> (Vec<Instance>, Duration) {
    // The model conversion is part of set-up; time it on its own.
    let diagram = steering_diagram();
    let options = steering_options();
    let mut times = Vec::new();
    let mut steering = None;
    for _ in 0..5 {
        let started = Instant::now();
        let problem = diagram_to_ab(&diagram, &options).expect("steering model converts");
        times.push(started.elapsed());
        steering = Some(problem);
    }
    times.sort_unstable();
    let steering = steering.expect("converted at least once");

    let mut problems = vec![("steering".to_string(), steering.clone(), Domain::Steering)];
    for (name, problem) in table1::table1_suite().into_iter().skip(1) {
        problems.push((name, problem, Domain::None));
    }
    // Sec. 6 test-generation targets: each decision atom that no unit
    // clause forces, required to each polarity.
    let forced: Vec<usize> = steering
        .cnf()
        .clauses()
        .iter()
        .filter(|c| c.len() == 1)
        .map(|c| c.lits()[0].var().index())
        .collect();
    for (var, _) in steering.defs() {
        if forced.contains(&var.index()) {
            continue;
        }
        for (lit, tag) in [(var.positive(), 't'), (var.negative(), 'f')] {
            problems.push((
                format!("target-v{}-{tag}", var.index() + 1),
                steering.with_clause([lit]),
                Domain::Steering,
            ));
        }
    }

    let expected = steering_expectations();
    let mut decided = Vec::new();
    let mut open = Vec::new();
    for (name, problem, domain) in problems {
        let expect = expected
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e.clone())
            .unwrap_or_else(|| panic!("steering.expected has no entry for {name}"));
        let bucket = if expect == Expect::Open {
            &mut open
        } else {
            &mut decided
        };
        bucket.push(Instance::new(name, &problem, expect, domain));
    }
    rng.shuffle(&mut open);
    decided.extend(open.into_iter().take(OPEN_PER_RUN));
    (decided, times[times.len() / 2])
}

fn cnf_heavy(rng: &mut Rng) -> Vec<Instance> {
    let mut out = Vec::new();
    let sudoku = |name: String, puzzle: Grid| {
        Instance::new(
            name,
            &sudoku::encode_mixed(&puzzle),
            Expect::Sat,
            Domain::Sudoku(Box::new(puzzle)),
        )
    };
    for (name, puzzle) in sudoku::table3_suite() {
        out.push(sudoku(name, puzzle));
    }
    for i in 0..6 {
        let difficulty = if i % 2 == 0 {
            Difficulty::Hard
        } else {
            Difficulty::Easy
        };
        let puzzle_seed = rng.next_u64();
        let (puzzle, _) = sudoku::generate(puzzle_seed, difficulty);
        out.push(sudoku(format!("sudoku-{puzzle_seed:016x}"), puzzle));
    }
    for holes in PHP_LADDER {
        let text = pigeonhole(holes + 1, holes);
        let reference = parser::parse(&text).expect("pigeonhole text parses");
        out.push(Instance {
            name: format!("php{}-{holes}", holes + 1),
            text,
            reference,
            expect: Expect::Unsat(format!("{} pigeons cannot sit in {holes} holes", holes + 1)),
            domain: Domain::None,
        });
    }
    out
}

/// Hole counts of the pigeonhole ladder.
const PHP_LADDER: [usize; 7] = [5, 6, 7, 7, 7, 7, 7];

/// PHP(p, h) as plain DIMACS: every pigeon in some hole, no two pigeons
/// in one hole.
fn pigeonhole(pigeons: usize, holes: usize) -> String {
    let var = |p: usize, h: usize| p * holes + h + 1;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        let row: Vec<String> = (0..holes).map(|h| var(p, h).to_string()).collect();
        clauses.push(format!("{} 0", row.join(" ")));
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                clauses.push(format!("-{} -{} 0", var(p, h), var(q, h)));
            }
        }
    }
    format!(
        "p cnf {} {}\n{}\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\n")
    )
}
