//! The oracle: certain answers computed before the timed window, against
//! which every `200` body and every cell's rendered answers are checked.
//!
//! The chase ([`obda::chase::certain_answers_budgeted`]) is the ground
//! truth. Where it trips its budget — as it does for the `4.ttl s1:6`
//! cells — the Tw rewriting is evaluated by the independent reference
//! evaluator ([`obda::ndl::reference::evaluate_reference`]) instead.

use crate::inputs::Omq;
use obda::budget::BudgetSpec;
use obda::datagen::sequences::word_query;
use obda::ndl::eval::EvalOptions;
use obda::ndl::reference::evaluate_reference;
use obda::owlql::abox::{ConstId, DataInstance};
use obda::{ObdaSystem, Strategy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Renders answer tuples the way `obda serve` and `obda answer` do: one
/// `(a, b)` line per tuple, in the given order.
pub fn render<'a>(answers: &[Vec<ConstId>], name: impl Fn(ConstId) -> &'a str) -> String {
    let mut out = String::new();
    for tuple in answers {
        let names: Vec<&str> = tuple.iter().map(|&c| name(c)).collect();
        out.push('(');
        out.push_str(&names.join(", "));
        out.push_str(")\n");
    }
    out
}

/// The expected answers of one (dataset, OMQ) pair.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The rendered certain answers.
    pub body: String,
    /// Number of certain answers.
    pub answers: usize,
    /// Whether the chase produced them (else the reference evaluator).
    pub by_chase: bool,
}

impl Expected {
    /// Whether `body` renders exactly the certain answers: byte-equal, or
    /// the same lines in another order.
    pub fn matches(&self, body: &str) -> bool {
        if body == self.body {
            return true;
        }
        sorted_lines(body) == sorted_lines(&self.body)
    }

    /// Drops one expected answer line (or invents one when there are
    /// none), so a correct system must now fail the check.
    pub fn tamper(&mut self) {
        self.body = match self.body.split_once('\n') {
            Some((_, rest)) if !self.body.is_empty() => rest.to_owned(),
            _ => "(tampered, tampered)\n".to_owned(),
        };
    }
}

fn sorted_lines(s: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = s.lines().collect();
    lines.sort_unstable();
    lines
}

/// One oracle question: the certain answers of `word` over `data`.
pub struct Job<'a> {
    /// The instance (as parsed from its ABox text).
    pub data: &'a DataInstance,
    /// The query.
    pub omq: &'a Omq,
    /// Wall time the chase may take before the reference fallback.
    pub chase_budget: Duration,
}

/// Oracle results, index-aligned with the jobs, plus the wall time spent.
pub struct Oracle {
    /// Expected answers per job.
    pub expected: Vec<Expected>,
    /// Wall time of the whole computation.
    pub seconds: f64,
}

impl Oracle {
    /// Jobs answered by the chase (the rest fell back to the reference
    /// evaluator).
    pub fn by_chase(&self) -> usize {
        self.expected.iter().filter(|e| e.by_chase).count()
    }
}

/// Computes every job's certain answers on `threads` workers.
///
/// Jobs sharing a (data, word) pair are computed once: certain answers do
/// not depend on the strategy the system is asked to use.
pub fn compute(system: &ObdaSystem, jobs: &[Job<'_>], threads: usize) -> Result<Oracle, String> {
    let start = Instant::now();
    // Index of the first job of each distinct (data, word) pair, and the
    // pair each job maps to.
    let mut distinct: Vec<usize> = Vec::new();
    let key_of: Vec<usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let same = |d: &usize| {
                std::ptr::eq(jobs[*d].data, job.data) && jobs[*d].omq.word == job.omq.word
            };
            distinct.iter().position(same).unwrap_or_else(|| {
                distinct.push(i);
                distinct.len() - 1
            })
        })
        .collect();
    // The largest instances first, so the workers finish together.
    let mut run_order: Vec<usize> = (0..distinct.len()).collect();
    run_order.sort_by_key(|&k| std::cmp::Reverse(jobs[distinct[k]].data.num_atoms()));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<Expected, String>>>> =
        Mutex::new(vec![None; distinct.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                while let Some(&k) = run_order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let answer = certain(system, &jobs[distinct[k]]);
                    results.lock().expect("oracle results lock is never poisoned")[k] =
                        Some(answer);
                }
            });
        }
    });
    let results = results.into_inner().map_err(|_| "oracle worker panicked".to_owned())?;
    let distinct_expected: Vec<Expected> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("oracle job not run".to_owned())))
        .collect::<Result<_, _>>()?;
    Ok(Oracle {
        expected: key_of.iter().map(|&k| distinct_expected[k].clone()).collect(),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Guard rails of the reference fallback: a blow-up fails the run with a
/// typed error instead of exhausting memory.
const REFERENCE_LIMITS: EvalOptions =
    EvalOptions { timeout: Some(Duration::from_secs(60)), max_tuples: Some(20_000_000) };

fn certain(system: &ObdaSystem, job: &Job<'_>) -> Result<Expected, String> {
    let query = word_query(system.ontology(), &job.omq.word);
    let spec = BudgetSpec { timeout: Some(job.chase_budget), ..BudgetSpec::unlimited() };
    let (tuples, by_chase) =
        match system.certain_answers_budgeted(&query, job.data, &mut spec.start()) {
            Ok(ans) => (ans.tuples(), true),
            Err(e) if e.is_budget() => {
                let rewriting = system
                    .rewrite(&query, Strategy::Tw)
                    .map_err(|e| format!("oracle: rewriting of {}: {e}", job.omq.word))?;
                let res =
                    evaluate_reference(&rewriting, job.data, &REFERENCE_LIMITS).map_err(|e| {
                        format!("oracle: reference evaluation of {}: {e}", job.omq.word)
                    })?;
                (res.answers, false)
            }
            Err(e) => return Err(format!("oracle: chase of {}: {e}", job.omq.word)),
        };
    Ok(Expected {
        body: render(&tuples, |c| job.data.constant_name(c)),
        answers: tuples.len(),
        by_chase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampering_breaks_the_match() {
        let mut e = Expected { body: "(a, b)\n(c, d)\n".into(), answers: 2, by_chase: true };
        assert!(e.matches("(c, d)\n(a, b)\n"));
        e.tamper();
        assert!(!e.matches("(a, b)\n(c, d)\n"));
        let mut empty = Expected { body: String::new(), answers: 0, by_chase: true };
        empty.tamper();
        assert!(!empty.matches(""));
    }
}
