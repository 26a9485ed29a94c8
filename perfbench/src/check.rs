//! The correctness gate. References are computed in the parent process
//! before any replay starts, and responses are judged after each replay
//! has ended, so no check runs inside a timed interval.
//!
//! * Exact answers (`exact_cold`, `warm_mixed`) must equal a serial
//!   split-driver, scalar-kernel reference at wire precision (`cost=`
//!   and `card=` strings), their plan must re-cost to that cost (which
//!   also proves a permuted request got its plan in its own numbering),
//!   and at n ≤ 8 the cost must agree with the brute-force oracle
//!   within the 1e-4 relative tolerance the repository's oracle tests
//!   use. The memo-free oracle grows by an order of magnitude per
//!   relation (about 1 ms at n = 6, 50 ms at n = 7, 1.2 s at n = 8), so
//!   it checks every distinct query up to n = 6 and the first few at
//!   n = 7 and 8 (see [`oracle_quota`]).
//! * Ladder answers (`ladder_big`) must cost no more than GOO, and
//!   their cost must equal `BigSpec::plan_cost` of the returned plan.

use crate::workload::{greedy_cost, with_model, Kind, Lists, Query, WithModel};
use blitz_baselines::best_bushy;
use blitz_core::{
    optimize_join_threshold_into_with, CostModel, DriveOptions, DriverChoice, HotColdTable,
    KernelChoice, NoStats, Plan, ThresholdSchedule,
};
use blitz_service::server::response_field;
use std::collections::HashMap;

/// Distinct queries of `n` relations per list the oracle checks.
fn oracle_quota(n: usize) -> usize {
    match n {
        0..=6 => usize::MAX,
        7 => 32,
        8 => 2,
        _ => 0,
    }
}

/// What one request's answer must satisfy.
pub struct Reference {
    /// GOO cost: the basis of `plan_cost_vs_greedy`, and the ceiling for
    /// ladder answers.
    pub greedy: f32,
    /// Wire-precision `cost=`/`card=` of the split reference (exact
    /// workloads only).
    pub exact: Option<(String, String)>,
    /// Brute-force optimum (exact workloads, n ≤ 8, see [`oracle_quota`]).
    pub oracle: Option<f32>,
}

struct SplitReference<'a>(&'a Query, ThresholdSchedule);

impl WithModel<(f32, f64)> for SplitReference<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> (f32, f64) {
        let options = DriveOptions::serial()
            .with_driver(DriverChoice::Split)
            .with_kernel(KernelChoice::Scalar);
        let (_, out) = optimize_join_threshold_into_with::<HotColdTable, M, NoStats, true>(
            &self.0.spec(),
            model,
            self.1,
            options,
            &mut NoStats,
        );
        (out.optimized.cost, out.optimized.card)
    }
}

struct Oracle<'a>(&'a Query);

impl WithModel<f32> for Oracle<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> f32 {
        let spec = self.0.spec();
        best_bushy(&spec, model, spec.all_rels()).1
    }
}

struct Recost<'a>(&'a Query, &'a Plan);

impl WithModel<f32> for Recost<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> f32 {
        if self.0.n() > blitz_core::MAX_RELS {
            self.0.big().plan_cost(self.1, model).1
        } else {
            self.1.cost(&self.0.spec(), model).1
        }
    }
}

/// References for every timed request of `lists`, computed before any
/// replay starts, on two threads: once per distinct line, and the
/// oracle once per underlying query (the optimum does not depend on the
/// numbering).
pub fn references(kind: Kind, lists: &Lists, schedule: ThresholdSchedule) -> Vec<Reference> {
    let mut first: HashMap<&str, usize> = HashMap::new();
    let mut oracle_for: HashMap<usize, usize> = HashMap::new();
    let mut checked = [0usize; 9];
    for (i, q) in lists.timed.iter().enumerate() {
        first.entry(q.line.as_str()).or_insert(i);
        let n = q.n().min(8);
        if kind != Kind::LadderBig
            && checked[n] < oracle_quota(q.n())
            && !oracle_for.contains_key(&q.base)
        {
            checked[n] += 1;
            oracle_for.insert(q.base, i);
        }
    }
    // GOO cost and the split reference at wire precision, per line.
    let reference = |q: &Query| {
        let exact = (kind != Kind::LadderBig).then(|| {
            let (cost, card) = with_model(q.model, SplitReference(q, schedule));
            (format!("{cost:.6e}"), format!("{card:.6e}"))
        });
        (greedy_cost(q), exact)
    };
    let mut distinct: Vec<usize> = first.values().copied().collect();
    distinct.sort_unstable();
    let refs = on_two_threads(&distinct, |&i| reference(&lists.timed[i]));
    let computed: HashMap<usize, _> = distinct.into_iter().zip(refs).collect();
    let mut bases: Vec<(usize, usize)> = oracle_for.into_iter().collect();
    bases.sort_unstable();
    let optima = on_two_threads(&bases, |&(_, i)| {
        with_model(lists.timed[i].model, Oracle(&lists.timed[i]))
    });
    let oracles: HashMap<usize, f32> = bases.iter().map(|&(b, _)| b).zip(optima).collect();
    lists
        .timed
        .iter()
        .map(|q| {
            let (greedy, exact) = &computed[&first[q.line.as_str()]];
            Reference {
                greedy: *greedy,
                exact: exact.clone(),
                oracle: oracles.get(&q.base).copied(),
            }
        })
        .collect()
}

/// `f` over `items` on two threads (alternate items each), in order.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = |parity: usize| {
        items
            .iter()
            .skip(parity)
            .step_by(2)
            .map(&f)
            .collect::<Vec<R>>()
    };
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| half(1));
        (half(0), odd.join().expect("reference thread panicked"))
    });
    let mut odd = odd.into_iter();
    let mut out = Vec::with_capacity(items.len());
    for e in even {
        out.push(e);
        out.extend(odd.next());
    }
    out
}

/// The judgement on one response.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Verdict {
    /// `OK` and every check passed.
    pub success: bool,
    /// `source=` carries the workload's expected provenance.
    pub expected_source: bool,
    /// The answer's cost over its GOO cost, when the answer passed.
    pub ratio_vs_greedy: Option<f64>,
}

/// Judge `line`, the response to `q`.
pub fn judge(kind: Kind, q: &Query, r: &Reference, line: &str) -> Verdict {
    let expected_source =
        response_field(line, "source").is_some_and(|s| s.starts_with(kind.expected_source()));
    let success = line.starts_with("OK ") && passes(q, r, line);
    let ratio_vs_greedy = if success {
        response_field(line, "cost")
            .and_then(|c| c.parse::<f64>().ok())
            .map(|c| c / f64::from(r.greedy))
    } else {
        None
    };
    Verdict {
        success,
        expected_source,
        ratio_vs_greedy,
    }
}

fn passes(q: &Query, r: &Reference, line: &str) -> bool {
    let (Some(cost), Some(plan)) = (response_field(line, "cost"), response_field(line, "plan"))
    else {
        return false;
    };
    let Some(plan) = parse_plan(plan, q.n()) else {
        return false;
    };
    let recost = with_model(q.model, Recost(q, &plan));
    match &r.exact {
        Some((ref_cost, ref_card)) => {
            let Ok(cost_value) = cost.parse::<f32>() else {
                return false;
            };
            cost == ref_cost
                && response_field(line, "card") == Some(ref_card.as_str())
                && within_oracle_tolerance(recost, cost_value)
                && r.oracle
                    .is_none_or(|o| within_oracle_tolerance(cost_value, o))
        }
        None => format!("{recost:.6e}") == cost && recost <= r.greedy,
    }
}

/// The repository's oracle-test tolerance: 1e-4 relative plus 1e-4.
fn within_oracle_tolerance(a: f32, b: f32) -> bool {
    (a - b).abs() <= b.abs() * 1e-4 + 1e-4
}

/// Parse a wire plan expression (`((R0 x R2) x R1)`) over `n`
/// relations; `None` unless every relation appears exactly once.
pub fn parse_plan(expr: &str, n: usize) -> Option<Plan> {
    fn node(s: &[u8], at: &mut usize, seen: &mut [bool]) -> Option<Plan> {
        match *s.get(*at)? {
            b'R' => {
                *at += 1;
                let start = *at;
                while s.get(*at).is_some_and(u8::is_ascii_digit) {
                    *at += 1;
                }
                let rel: usize = std::str::from_utf8(&s[start..*at]).ok()?.parse().ok()?;
                let slot = seen.get_mut(rel)?;
                if std::mem::replace(slot, true) {
                    return None;
                }
                Some(Plan::scan(rel))
            }
            b'(' => {
                *at += 1;
                let left = node(s, at, seen)?;
                if !s[*at..].starts_with(b" x ") {
                    return None;
                }
                *at += 3;
                let right = node(s, at, seen)?;
                if s.get(*at) != Some(&b')') {
                    return None;
                }
                *at += 1;
                Some(Plan::join(left, right))
            }
            _ => None,
        }
    }
    let bytes = expr.trim_end().as_bytes();
    let mut seen = vec![false; n];
    let mut at = 0;
    let plan = node(bytes, &mut at, &mut seen)?;
    (at == bytes.len() && seen.iter().all(|&s| s)).then_some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_expressions_round_trip() {
        let plan = Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(3)),
            Plan::join(Plan::scan(1), Plan::scan(2)),
        );
        assert_eq!(parse_plan(&plan.to_expr(), 4), Some(plan));
    }

    #[test]
    fn malformed_or_incomplete_plans_are_rejected() {
        assert_eq!(parse_plan("(R0 x R1)", 3), None, "R2 missing");
        assert_eq!(parse_plan("(R0 x R0)", 2), None, "R0 twice");
        assert_eq!(parse_plan("(R0 x R5)", 2), None, "R5 out of range");
        assert_eq!(parse_plan("(R0 x R1", 2), None, "unbalanced");
        assert_eq!(parse_plan("(R0 x R1) junk", 2), None, "trailing input");
    }
}
