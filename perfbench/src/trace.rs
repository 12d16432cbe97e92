//! The traced run: the same seeded operations replayed in-process through
//! each layer's public entry point, one call at a time, so the time of
//! one operation splits into layer self times.
//!
//! Per operation the calls are, in order: `Snapshot::open`,
//! `parse_query`, `classify`, `rewrite` (with the `analyze` pass
//! `prepare` runs), `prune_for_goal`, `plan_query`, engine evaluation and
//! answer rendering. That is exactly what `PreparedOmq` execution does,
//! plus the Figure-1 `classify` that `obda classify`/`/explain` run (the
//! `/query` path does not). Every round is run twice — with a timer
//! around each call and with one timer around the whole round — so the
//! cost of the timers themselves is measured, not assumed.

use crate::inputs::Omq;
use crate::oracle::{render, Expected};
use obda::budget::BudgetSpec;
use obda::ndl::analysis::analyze;
use obda::ndl::engine::{evaluate_pruned_planned_on_traced, EngineConfig};
use obda::ndl::planner::{plan_query, QueryPlan};
use obda::ndl::relevance::{prune_for_goal, PrunedQuery};
use obda::{ObdaSystem, QueryService, RetryPolicy, ServiceConfig, Snapshot, Strategy, Telemetry};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One replayed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Snapshot (index into [`Replay::paths`]).
    pub db: usize,
    /// Query (index into [`Replay::omqs`]); also indexes the expected
    /// answers.
    pub omq: usize,
    /// Open the snapshot afresh (batch) instead of reusing the open one.
    pub open: bool,
    /// Prepare afresh (cache miss) instead of reusing this query's
    /// earlier preparation (cache hit).
    pub prepare: bool,
}

/// Self time and work counts per layer, summed over timed rounds.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Snapshot::open`.
    pub open: Duration,
    /// `ObdaSystem::parse_query`.
    pub parse: Duration,
    /// `ObdaSystem::classify`.
    pub classify: Duration,
    /// `ObdaSystem::rewrite_budgeted` + `analyze`.
    pub rewrite: Duration,
    /// `prune_for_goal`.
    pub prune: Duration,
    /// `plan_query`.
    pub plan: Duration,
    /// Engine evaluation (includes lazy hydration of touched columns).
    pub exec: Duration,
    /// Rendering answers through the snapshot dictionary.
    pub render: Duration,
    /// Operations replayed.
    pub ops: u64,
    /// Snapshots opened.
    pub opens: u64,
    /// Sum over opened snapshots of touched bytes / file bytes.
    pub touched_frac_sum: f64,
    /// Clauses of the rewritings produced.
    pub clauses: u64,
    /// Clauses before and after relevance pruning.
    pub clauses_before: u64,
    /// See [`Layers::clauses_before`].
    pub clauses_after: u64,
    /// Tuples the engine materialised.
    pub generated: u64,
    /// Answers the engine returned.
    pub answers: u64,
}

impl Layers {
    /// Sum of all layer self times.
    pub fn attributed(&self) -> Duration {
        self.open
            + self.parse
            + self.classify
            + self.rewrite
            + self.prune
            + self.plan
            + self.exec
            + self.render
    }
}

/// Runs `f`, adding its wall time to `slot` when `timed`.
fn step<T>(timed: bool, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !timed {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// A replay: the inputs, the operations, and the engine settings.
pub struct Replay<'a> {
    /// The OBDA system (Example 11 ontology).
    pub system: &'a ObdaSystem,
    /// Snapshot files.
    pub paths: &'a [PathBuf],
    /// Query texts and strategies.
    pub omqs: &'a [Omq],
    /// Certain answers per query index.
    pub expected: &'a [Expected],
    /// The operations, in order.
    pub ops: Vec<Op>,
    /// Engine settings of the workload.
    pub engine: EngineConfig,
    /// Per-operation deadline (the budget of each call chain).
    pub deadline: Duration,
}

/// What one round produced per operation, checked after the round.
struct Produced {
    body: String,
    generated: usize,
}

/// The traced replay's results.
pub struct Traced {
    /// Layer self times and counts over the timed rounds.
    pub layers: Layers,
    /// Wall time of the timed rounds.
    pub traced: Duration,
    /// Wall time of the untimed rounds.
    pub untraced: Duration,
    /// Operations whose answers differed from the oracle or from
    /// `PreparedOmq` execution.
    pub wrong: u64,
    /// Operations replayed (over all rounds).
    pub attempted: u64,
    /// Timed rounds run.
    pub rounds: usize,
}

impl Replay<'_> {
    /// Runs `rounds` pairs of untimed and timed rounds, then checks every
    /// produced answer set against the oracle and each distinct
    /// (snapshot, query) pair against `PreparedOmq` execution.
    pub fn run(&self, rounds: usize) -> Result<Traced, String> {
        let mut layers = Layers::default();
        let mut traced = Duration::ZERO;
        let mut untraced = Duration::ZERO;
        let mut wrong = 0;
        let mut first: Option<Vec<Produced>> = None;
        // Untimed and timed rounds alternate as ABBA pairs, so warm-up
        // and drift fall on both sides alike.
        for r in 0..rounds {
            let order = if r % 2 == 0 { [false, true] } else { [true, false] };
            for timed in order {
                let start = Instant::now();
                let produced = self.round(timed, &mut layers)?;
                let wall = start.elapsed();
                if timed {
                    traced += wall;
                } else {
                    untraced += wall;
                }
                wrong += self
                    .ops
                    .iter()
                    .zip(&produced)
                    .filter(|(op, p)| !self.expected[op.omq].matches(&p.body))
                    .count() as u64;
                first.get_or_insert(produced);
            }
        }
        if let Some(first) = &first {
            wrong += self.check_against_prepared(first)?;
        }
        let attempted = (2 * rounds * self.ops.len()) as u64;
        Ok(Traced { layers, traced, untraced, wrong, attempted, rounds })
    }

    fn round(&self, timed: bool, layers: &mut Layers) -> Result<Vec<Produced>, String> {
        let vocab = self.system.ontology().vocab();
        let mut snaps: Vec<Option<Snapshot>> = self.paths.iter().map(|_| None).collect();
        let mut prepared: Vec<Option<(PrunedQuery, QueryPlan)>> =
            self.omqs.iter().map(|_| None).collect();
        let mut produced = Vec::with_capacity(self.ops.len());
        let mut scratch = Layers::default();
        let l = if timed { &mut *layers } else { &mut scratch };
        for op in &self.ops {
            if op.open || snaps[op.db].is_none() {
                if let Some(old) = snaps[op.db].take() {
                    l.touched_frac_sum += touched_frac(&old);
                }
                let snap = step(timed, &mut l.open, || Snapshot::open(&self.paths[op.db], vocab))
                    .map_err(|e| format!("open snapshot: {e}"))?;
                l.opens += 1;
                snaps[op.db] = Some(snap);
            }
            let snap = snaps[op.db].as_ref().expect("opened above");
            let mut budget =
                BudgetSpec { timeout: Some(self.deadline), ..BudgetSpec::unlimited() }.start();
            if op.prepare || prepared[op.omq].is_none() {
                let omq = &self.omqs[op.omq];
                let query = step(timed, &mut l.parse, || self.system.parse_query(&omq.text))
                    .map_err(|e| format!("parse {}: {e}", omq.text))?;
                black_box(step(timed, &mut l.classify, || self.system.classify(&query)));
                let rewriting = step(timed, &mut l.rewrite, || {
                    let rw = self.system.rewrite_budgeted(&query, omq.strategy, &mut budget)?;
                    black_box(analyze(&rw));
                    Ok::<_, obda::ObdaError>(rw)
                })
                .map_err(|e| format!("rewrite {}: {e}", omq.text))?;
                l.clauses += rewriting.program.num_clauses() as u64;
                let pruned = step(timed, &mut l.prune, || prune_for_goal(&rewriting));
                l.clauses_before += pruned.stats.clauses_before as u64;
                l.clauses_after += pruned.stats.clauses_after as u64;
                let plan = step(timed, &mut l.plan, || plan_query(&pruned.query, snap.database()));
                prepared[op.omq] = Some((pruned, plan));
            }
            let (pruned, plan) = prepared[op.omq].as_ref().expect("prepared above");
            let res = step(timed, &mut l.exec, || {
                evaluate_pruned_planned_on_traced(
                    pruned,
                    snap.database(),
                    &mut budget,
                    &self.engine,
                    Some(plan),
                    Telemetry::disabled(),
                )
            })
            .map_err(|e| format!("evaluate {}: {e}", self.omqs[op.omq].text))?;
            let body =
                step(timed, &mut l.render, || render(&res.answers, |c| snap.constant_name(c)));
            l.ops += 1;
            l.generated += res.stats.generated_tuples as u64;
            l.answers += res.stats.num_answers as u64;
            produced.push(Produced { body, generated: res.stats.generated_tuples });
        }
        for snap in snaps.iter().flatten() {
            l.touched_frac_sum += touched_frac(snap);
        }
        Ok(produced)
    }

    /// The decomposed call sequence must give the same answers and tuple
    /// counts as `PreparedOmq` execution; returns the operations that do
    /// not.
    fn check_against_prepared(&self, produced: &[Produced]) -> Result<u64, String> {
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut wrong = 0;
        for (op, got) in self.ops.iter().zip(produced) {
            if seen.contains(&(op.db, op.omq)) {
                continue;
            }
            seen.push((op.db, op.omq));
            let (body, generated) = crate::answer_cell(
                self.system,
                &self.paths[op.db],
                &self.omqs[op.omq],
                &self.engine,
                self.deadline,
            )?;
            if body != got.body || generated != got.generated {
                wrong += 1;
            }
        }
        Ok(wrong)
    }
}

fn touched_frac(snap: &Snapshot) -> f64 {
    snap.bytes_touched() as f64 / snap.info().file_bytes.max(1) as f64
}

/// The fixed deadline probe: `RRRRRRRSR` under `Adaptive` through the
/// query service (the `obda answer --db --timeout-secs` path, one engine
/// thread) against `deadline`. Returns the elapsed time and whether the
/// run tripped its budget.
pub fn deadline_probe(
    system: &ObdaSystem,
    snapshot: &Snapshot,
    deadline: Duration,
) -> Result<(Duration, bool), String> {
    let service = QueryService::new(
        obda_bench::paper_system(),
        ServiceConfig {
            max_concurrency: 1,
            max_queue: 0,
            budget: BudgetSpec { timeout: Some(deadline), ..BudgetSpec::unlimited() },
            retry: RetryPolicy::default(),
            engine: Some(EngineConfig { threads: 1, ..EngineConfig::default() }),
            overload: obda::OverloadConfig::default(),
        },
    );
    let query = system
        .parse_query(&crate::inputs::word_text(PROBE_WORD))
        .map_err(|e| format!("parse probe: {e}"))?;
    let start = Instant::now();
    let outcome = service.answer_backend(&query, snapshot, Strategy::Adaptive);
    let elapsed = start.elapsed();
    let tripped = match outcome {
        Ok(report) => report.final_error().is_some_and(|e| e.is_budget()),
        Err(e) => e.is_budget(),
    };
    Ok((elapsed, tripped))
}

/// The probe's query word.
pub const PROBE_WORD: &str = "RRRRRRRSR";
