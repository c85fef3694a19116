//! The verdict oracle: every answer is checked before it counts.
//!
//! A sat answer must carry a model that satisfies the parsed original
//! problem (`AbModel::satisfies`) and passes the workload's domain check.
//! An unsat answer is accepted only where unsatisfiability is known by
//! construction or listed with a reason in `steering.expected`.

use crate::corpus::{Domain, Expect, Instance};
use absolver_bench::sudoku;
use absolver_core::{AbModel, AbProblem, ArithModel};
use absolver_logic::Assignment;
use absolver_model::steering_diagram;
use absolver_num::Rational;

/// Tolerance of the model check, as used by the solver's own tests.
const TOL: f64 = 1e-6;

/// An answer, before checking.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Satisfiable, with a model.
    Sat(Box<AbModel>),
    /// Unsatisfiable.
    Unsat,
    /// Undecided within the limit.
    Unknown,
    /// The program reported an error, refused or failed.
    Error(String),
}

impl Verdict {
    /// The verdict's name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Sat(_) => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
            Verdict::Error(_) => "error",
        }
    }
}

/// What checking an answer found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Judgement {
    /// A checked sat or unsat.
    Decided,
    /// No verdict within the limit: a miss, not a failure.
    Undecided,
    /// An error or refusal: a failed operation and a miss, but not a
    /// wrong answer.
    Refused(String),
    /// A wrong verdict, an invalid model or an unreferenced unsat: a
    /// failed operation that makes the run incorrect.
    Wrong(String),
}

/// Checks `verdict` against what is known about `instance`.
pub fn judge(instance: &Instance, verdict: &Verdict) -> Judgement {
    match (verdict, &instance.expect) {
        (Verdict::Sat(_), Expect::Unsat(reason)) => {
            Judgement::Wrong(format!("sat, but known unsat: {reason}"))
        }
        (Verdict::Sat(model), _) => check_model(instance, model),
        (Verdict::Unsat, Expect::Unsat(_)) => Judgement::Decided,
        (Verdict::Unsat, Expect::Sat) => Judgement::Wrong("unsat, but known sat".into()),
        (Verdict::Unsat, Expect::Open) => Judgement::Wrong("unsat with no reference".into()),
        (Verdict::Unknown, _) => Judgement::Undecided,
        (Verdict::Error(e), _) => Judgement::Refused(e.clone()),
    }
}

fn check_model(instance: &Instance, model: &AbModel) -> Judgement {
    let problem = &instance.reference;
    if !model.satisfies(problem, TOL) {
        return Judgement::Wrong("model does not satisfy the problem".into());
    }
    match &instance.domain {
        Domain::None => Judgement::Decided,
        Domain::Sudoku(puzzle) => match sudoku::decode(problem, model) {
            Some(grid) if sudoku::extends(puzzle, &grid) && sudoku::is_valid_solution(&grid) => {
                Judgement::Decided
            }
            Some(_) => Judgement::Wrong("decoded grid is not a solution of the puzzle".into()),
            None => Judgement::Wrong("model does not decode to a grid".into()),
        },
        Domain::Steering => {
            let diagram = steering_diagram();
            let mut inputs = Vec::new();
            for (_, name, _, _) in diagram.inports() {
                let value = problem
                    .arith_var(name)
                    .and_then(|v| model.arith.value_f64(v));
                match value {
                    Some(v) => inputs.push(v),
                    None => return Judgement::Wrong(format!("model lacks sensor `{name}`")),
                }
            }
            if diagram.simulate(&inputs) == [false] {
                Judgement::Decided
            } else {
                Judgement::Wrong("simulated monitor stays safe on the witness".into())
            }
        }
    }
}

/// Rebuilds a full model from the `name=value` pairs of a service `ok`
/// line: each atom's truth value is the value of its definition at that
/// point, within the model check's tolerance. The values are kept as
/// `f64`, because the nonlinear path reports integers only up to
/// rounding (`-0.00000000000000011` for 0).
pub fn model_from_pairs(problem: &AbProblem, pairs: &[(String, String)]) -> Option<AbModel> {
    let vars = problem.arith_vars();
    if pairs.len() != vars.len() {
        return None;
    }
    let mut point = vec![f64::NAN; vars.len()];
    for (name, value) in pairs {
        let v = problem.arith_var(name)?;
        point[v] = value.parse::<Rational>().ok()?.to_f64();
    }
    let mut truth = vec![false; problem.cnf().num_vars()];
    for (var, def) in problem.defs() {
        truth[var.index()] = def.constraints.iter().all(|c| c.eval_with_tol(&point, TOL));
    }
    Some(AbModel {
        boolean: Assignment::from_bools(truth),
        arith: ArithModel::Numeric(point),
    })
}

/// The verdict oracle must catch a flipped verdict and a corrupted model
/// on every checkable instance. Returns one line per check made.
pub fn self_test(instance: &Instance, verdict: &Verdict) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let name = &instance.name;
    match verdict {
        Verdict::Sat(model) => {
            out.push((
                format!("{name}: the genuine sat answer passes"),
                judge(instance, verdict) == Judgement::Decided,
            ));
            out.push((
                format!("{name}: sat flipped to unsat is caught"),
                matches!(judge(instance, &Verdict::Unsat), Judgement::Wrong(_)),
            ));
            let mut flipped = model.clone();
            for v in 0..instance.reference.cnf().num_vars() {
                let var = absolver_logic::Var::new(v as u32);
                let value = flipped.boolean.value(var);
                flipped.boolean.set(var, !value);
            }
            out.push((
                format!("{name}: a model with every Boolean value flipped is caught"),
                matches!(judge(instance, &Verdict::Sat(flipped)), Judgement::Wrong(_)),
            ));
            let mut shifted = model.clone();
            shifted.arith = match &model.arith {
                ArithModel::Exact(v) => {
                    ArithModel::Exact(v.iter().map(|x| x + &Rational::from_int(1000)).collect())
                }
                ArithModel::Numeric(v) => {
                    ArithModel::Numeric(v.iter().map(|x| x + 1000.0).collect())
                }
            };
            if !instance.reference.arith_vars().is_empty() {
                out.push((
                    format!("{name}: a model with every number shifted by 1000 is caught"),
                    matches!(judge(instance, &Verdict::Sat(shifted)), Judgement::Wrong(_)),
                ));
            }
        }
        Verdict::Unsat => {
            out.push((
                format!("{name}: the genuine unsat answer passes"),
                judge(instance, verdict) == Judgement::Decided,
            ));
            let bogus = AbModel {
                boolean: Assignment::new(instance.reference.cnf().num_vars()),
                arith: ArithModel::Numeric(vec![0.0; instance.reference.arith_vars().len()]),
            };
            out.push((
                format!("{name}: unsat flipped to sat is caught"),
                matches!(
                    judge(instance, &Verdict::Sat(Box::new(bogus))),
                    Judgement::Wrong(_)
                ),
            ));
        }
        Verdict::Unknown | Verdict::Error(_) => {}
    }
    out
}
