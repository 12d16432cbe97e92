//! Parallel, goal-directed bottom-up evaluation.
//!
//! This engine layers three optimisations over the faithful
//! materialising evaluator of [`crate::eval`]:
//!
//! 1. **Relevance pruning** ([`crate::relevance`]): the program is
//!    rewritten goal-directedly before evaluation, eliminating renaming
//!    predicates, used-once views, copy clauses and dead columns, so
//!    strictly fewer tuples are materialised.
//! 2. **Stratum scheduling**: the topological order is partitioned into
//!    *strata* — level sets of the longest-path layering of the
//!    dependency DAG — whose predicates are mutually independent. All
//!    clauses of a stratum, with large outer scans split into row-range
//!    chunks, form a task queue drained by a scoped-thread worker pool
//!    (`std::thread::scope`; no external dependencies). Clauses whose
//!    body references an already-known-empty relation are skipped
//!    without running their joins.
//! 3. **Shared budgets** ([`obda_budget::SharedBudget`]): the pool
//!    races one atomic allowance; the first deadline/step/tuple trip
//!    poisons every worker, and the engine reports the same typed
//!    [`EvalError`] taxonomy as the sequential evaluator.
//!
//! Concurrency model: relations of *completed* strata (and the EDB
//! [`Database`]) are only read — their lazy `OnceLock` column indexes
//! make concurrent probing safe — while the current stratum's output
//! relations are mutated behind per-predicate mutexes that workers only
//! take to merge a finished task's buffered rows. Statistics are
//! deterministic across thread counts: every relation is deduplicated
//! exactly, so per-predicate counts equal the relation sizes, and
//! answers are sorted.

use crate::analysis::topological_order;
use crate::eval::{
    error_stats, eval_clause_into, halt_from_panic, halt_to_error, reachable_from_goal, relation,
    EvalError, EvalOptions, EvalResult, EvalStats, Halt, JoinCounters,
};
use crate::planner::{plan_query, syntactic_query_plan, JoinPlan, PlannedAccess, QueryPlan};
use crate::program::{BodyAtom, Clause, NdlQuery, PredId, PredKind};
use crate::relevance::{prune_for_goal, PrunedQuery};
use crate::storage::{Database, Relation};
use obda_budget::{Budget, BudgetOps, SharedBudget, WorkerBudget};
use obda_owlql::abox::ConstId;
use obda_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Tuning knobs for the parallel, goal-directed engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` = one per available CPU, `1` = run the same
    /// pruned, stratum-scheduled plan inline without spawning.
    pub threads: usize,
    /// Run the [`crate::relevance`] pruning pass first.
    pub prune: bool,
    /// Minimum relation size before a clause's outer scan is split into
    /// per-worker row ranges. Tests lower this to exercise chunking on
    /// small data.
    pub chunk_min_rows: usize,
    /// Use the cost-based [`crate::planner`] (`true`, the default) or
    /// fall back to syntactic join order. Answers are identical either
    /// way; this knob exists for benchmarking and differential tests.
    pub plan: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 1, prune: true, chunk_min_rows: 1024, plan: true }
    }
}

impl EngineConfig {
    /// A config with the given thread count and pruning enabled.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads, ..EngineConfig::default() }
    }

    /// Resolves `threads = 0` to the available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// Evaluates `(Π, G)` over a pre-built [`Database`] with the parallel,
/// goal-directed engine.
pub fn evaluate_engine_on(
    query: &NdlQuery,
    db: &Database,
    opts: &EvalOptions,
    cfg: &EngineConfig,
) -> Result<EvalResult, EvalError> {
    evaluate_engine_on_budgeted(query, db, &mut opts.to_budget(), cfg)
}

/// Like [`evaluate_engine_on`], but drawing on a caller-supplied
/// [`Budget`] shared with other pipeline stages.
pub fn evaluate_engine_on_budgeted(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
) -> Result<EvalResult, EvalError> {
    evaluate_engine_on_traced(query, db, budget, cfg, Telemetry::disabled())
}

/// Like [`evaluate_engine_on_budgeted`], recording spans and metrics
/// through `telem`: a `prune` span (clause counts before/after), then an
/// `eval` span whose children are `stratum-schedule`, per-stratum
/// `stratum` spans and per-task `clause_task` spans with join counters.
/// With a registry, the engine adds to the `ndl_tuples_generated`,
/// `ndl_join_bindings_total`, `ndl_budget_ticks`,
/// `engine_tasks_executed` and `engine_clauses_skipped` counters.
pub fn evaluate_engine_on_traced(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    if cfg.prune {
        let span = telem.span("prune");
        let pruned = prune_for_goal(query);
        span.attr("clauses_before", pruned.stats.clauses_before as u64);
        span.attr("clauses_after", pruned.stats.clauses_after as u64);
        span.attr("preds_before", pruned.stats.preds_before as u64);
        span.attr("preds_after", pruned.stats.preds_after as u64);
        span.end();
        evaluate_pruned_on_traced(&pruned, db, budget, cfg, telem)
    } else {
        run(query, None, query.program.num_preds(), db, budget, cfg, None, telem)
    }
}

/// Evaluates an already-pruned query (callers that cache the
/// [`prune_for_goal`] result across executions, e.g. `PreparedOmq`).
/// Statistics are reported against the *original* program's predicate
/// ids via [`PrunedQuery::origin`].
pub fn evaluate_pruned_on_budgeted(
    pruned: &PrunedQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
) -> Result<EvalResult, EvalError> {
    evaluate_pruned_on_traced(pruned, db, budget, cfg, Telemetry::disabled())
}

/// Like [`evaluate_pruned_on_budgeted`], recording spans and metrics
/// through `telem`.
pub fn evaluate_pruned_on_traced(
    pruned: &PrunedQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    evaluate_pruned_planned_on_traced(pruned, db, budget, cfg, None, telem)
}

/// Like [`evaluate_pruned_on_traced`], but optionally reusing a
/// [`QueryPlan`] computed earlier for the *pruned* program (callers such
/// as `PreparedOmq` cache plans per database alongside the pruned query,
/// amortising planning across repeated executions). With `qplan = None`
/// the engine plans per [`EngineConfig::plan`].
pub fn evaluate_pruned_planned_on_traced(
    pruned: &PrunedQuery,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    // Hydrate exactly the EDB relations the pruned program mentions, so a
    // lazily loaded snapshot faults in only the columns this query joins
    // (already-hydrated slots and parse-path databases cost nothing).
    let program = &pruned.query.program;
    let relevant = program
        .pred_ids()
        .map(|p| program.pred(p).kind)
        .filter(|k| matches!(k, PredKind::EdbClass(_) | PredKind::EdbProp(_)));
    let (relations, columns) = db.prefetch(relevant);
    if relations > 0 {
        let span = telem.span("hydrate");
        span.attr("relations", relations);
        span.attr("columns", columns);
        span.end();
    }
    let orig = pruned.origin.iter().map(|p| p.0 as usize + 1).max().unwrap_or(0);
    run(&pruned.query, Some(&pruned.origin), orig, db, budget, cfg, qplan, telem)
}

/// One unit of stratum work: a clause (optionally restricted to a row
/// range of its outer scan) whose derived rows merge into the clause
/// head's output relation.
struct Task<'p> {
    clause: &'p Clause,
    plan: &'p JoinPlan,
    range: Option<(usize, usize)>,
    /// Index into the stratum's output slots.
    slot: usize,
}

/// Evaluates one task into `buf`, then merges the buffer into the
/// task's output slot, charging newly inserted tuples. Returns the
/// number of fresh (previously unseen) rows this task contributed.
/// Generic over [`BudgetOps`] so the inline path (exclusive [`Budget`])
/// and the worker pool ([`WorkerBudget`]) run identical code.
#[allow(clippy::too_many_arguments)] // mirrors eval_clause_into
fn eval_task<B: BudgetOps>(
    query: &NdlQuery,
    db: &Database,
    idb: &[Relation],
    budget: &mut B,
    task: &Task<'_>,
    outs: &[Mutex<(Relation, usize)>],
    buf: &mut Vec<u32>,
    join: &mut JoinCounters,
) -> Result<usize, Halt> {
    crate::fault::inject(crate::fault::site::ENGINE_CLAUSE_TASK);
    // Derived rows are buffered flat (head-arity strided) so the hot
    // emit path is a memcpy, not a per-row heap allocation.
    let arity = task.clause.head_args.len();
    buf.clear();
    let mut rows = 0u64;
    eval_clause_into(
        &query.program,
        db,
        idb,
        budget,
        task.clause,
        task.plan,
        task.range,
        join,
        &mut |row, budget| {
            rows += 1;
            budget.check_tuple_headroom(rows)?;
            buf.extend_from_slice(row);
            Ok(())
        },
    )?;
    if rows == 0 {
        return Ok(0);
    }
    let mut guard = outs[task.slot].lock().unwrap_or_else(PoisonError::into_inner);
    let (rel, fresh) = &mut *guard;
    let mut new = 0usize;
    let mut merge = |rel: &mut Relation, row: &[u32]| -> Result<(), Halt> {
        if rel.insert_if_new(row) {
            *fresh += 1;
            new += 1;
            budget.charge_tuples(1)?;
        }
        Ok(())
    };
    if arity == 0 {
        // Boolean heads buffer no columns; every derived row is the
        // empty tuple, so a single merge settles all of them.
        merge(rel, &[])?;
    } else {
        for row in buf.chunks_exact(arity) {
            merge(rel, row)?;
        }
    }
    Ok(new)
}

/// Runs one task behind a panic-isolation boundary: an unwind out of the
/// join kernel — an injected fault or a genuine bug — is converted into a
/// typed [`Halt`] instead of tearing down `std::thread::scope` (which
/// would re-raise the panic at the join and take the process down with no
/// typed error). `AssertUnwindSafe` is sound here because a halted task's
/// partial state is discarded: the budget only ever undercounts, the
/// output relations are merged row-at-a-time behind their mutex (whose
/// poison every lock site clears), and the whole attempt is abandoned.
#[allow(clippy::too_many_arguments)] // mirrors eval_task
fn eval_task_isolated<B: BudgetOps>(
    query: &NdlQuery,
    db: &Database,
    idb: &[Relation],
    budget: &mut B,
    task: &Task<'_>,
    outs: &[Mutex<(Relation, usize)>],
    buf: &mut Vec<u32>,
    bindings: &AtomicU64,
    telem: &Telemetry<'_>,
) -> Result<(), Halt> {
    let span = telem.tracer.enabled().then(|| telem.span("clause_task"));
    let mut join = JoinCounters::default();
    let result = match catch_unwind(AssertUnwindSafe(|| {
        eval_task(query, db, idb, budget, task, outs, buf, &mut join)
    })) {
        Ok(result) => result,
        Err(payload) => Err(halt_from_panic("ndl::engine::clause_task", payload)),
    };
    bindings.fetch_add(join.bindings, Ordering::Relaxed);
    if let Some(span) = &span {
        span.attr_str("head", &query.program.pred(task.clause.head).name);
        if let Some((lo, hi)) = task.range {
            span.attr("range_lo", lo as u64);
            span.attr("range_hi", hi as u64);
        }
        span.attr("rows_scanned", join.scanned);
        span.attr("index_hits", join.index_hits);
        span.attr("bindings", join.bindings);
        span.attr("rows_emitted", join.emitted);
        if task.plan.costed {
            span.attr("est_rows", task.plan.est_out.round().max(0.0) as u64);
            span.attr("actual_rows", join.emitted);
        }
        match &result {
            Ok(new) => span.attr("tuples", *new as u64),
            Err(halt) => span.error(&format!("{halt:?}")),
        }
    }
    result.map(|_| ())
}

/// Scheduling observability: how many tasks actually ran, how many
/// clauses were skipped because a body relation was known empty, and
/// how many intermediate bindings the tasks' joins kept (a statistic
/// summed by the workers; it publishes nothing, hence `Relaxed`).
#[derive(Default)]
struct SchedStats {
    executed: u64,
    skipped: u64,
    bindings: AtomicU64,
}

#[allow(clippy::too_many_arguments)] // internal driver; bundling would just rename the args
fn run(
    query: &NdlQuery,
    origin: Option<&[PredId]>,
    orig_num_preds: usize,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    let span = telem.span("eval");
    span.attr_str("engine", "parallel");
    span.attr("threads", cfg.effective_threads() as u64);
    let ticks_before = budget.spent_steps();
    let mut sched = SchedStats::default();
    let result = run_inner(
        query,
        origin,
        orig_num_preds,
        db,
        budget,
        cfg,
        qplan,
        telem.under(&span),
        &mut sched,
    );
    let tuples = match &result {
        Ok(res) => res.stats.generated_tuples,
        Err(e) => error_stats(e).map_or(0, |s| s.generated_tuples),
    };
    match &result {
        Ok(res) => {
            span.attr("tuples", tuples as u64);
            span.attr("answers", res.stats.num_answers as u64);
        }
        Err(e) => span.error(&e.to_string()),
    }
    span.attr("tasks_executed", sched.executed);
    span.attr("clauses_skipped", sched.skipped);
    if let Some(metrics) = telem.metrics {
        metrics.counter("ndl_tuples_generated").add(tuples as u64);
        metrics.counter("ndl_join_bindings_total").add(sched.bindings.load(Ordering::Relaxed));
        metrics.counter("ndl_budget_ticks").add(budget.spent_steps().saturating_sub(ticks_before));
        metrics.counter("engine_tasks_executed").add(sched.executed);
        metrics.counter("engine_clauses_skipped").add(sched.skipped);
    }
    result
}

#[allow(clippy::too_many_arguments)] // internal driver; bundling would just rename the args
fn run_inner(
    query: &NdlQuery,
    origin: Option<&[PredId]>,
    orig_num_preds: usize,
    db: &Database,
    budget: &mut Budget,
    cfg: &EngineConfig,
    qplan: Option<&QueryPlan>,
    telem: Telemetry<'_>,
    sched: &mut SchedStats,
) -> Result<EvalResult, EvalError> {
    let start = Instant::now();
    let program = &query.program;
    let num_preds = program.num_preds();
    let order = topological_order(program).ok_or(EvalError::Recursive)?;
    let reachable = reachable_from_goal(query);
    let threads = cfg.effective_threads().max(1);
    // Resolve the query plan: a caller-cached plan wins; otherwise plan
    // here (cost-based by default, syntactic when `cfg.plan` is off).
    let computed;
    let qplan = match qplan {
        Some(p) => p,
        None => {
            computed = if cfg.plan { plan_query(query, db) } else { syntactic_query_plan(query) };
            &computed
        }
    };

    // Longest-path layering: EDB relations sit at level 0, an IDB
    // predicate one level above its deepest body predicate. Predicates
    // in the same level never depend on one another, so a level is a
    // stratum the pool can evaluate concurrently.
    let sched_span = telem.span("stratum-schedule");
    let mut level = vec![0usize; num_preds];
    let mut num_levels = 1;
    for &p in &order {
        if !reachable[p.0 as usize] || !program.is_idb(p) {
            continue;
        }
        let mut lv = 1;
        for clause in program.clauses_for(p) {
            for atom in &clause.body {
                if let BodyAtom::Pred(q, _) = atom {
                    if program.is_idb(*q) {
                        lv = lv.max(level[q.0 as usize] + 1);
                    }
                }
            }
        }
        level[p.0 as usize] = lv;
        num_levels = num_levels.max(lv + 1);
    }
    let mut strata: Vec<Vec<PredId>> = vec![Vec::new(); num_levels];
    for &p in &order {
        if reachable[p.0 as usize] && program.is_idb(p) {
            strata[level[p.0 as usize]].push(p);
        }
    }
    sched_span.attr("strata", strata.iter().filter(|s| !s.is_empty()).count() as u64);
    sched_span.attr("preds", strata.iter().map(|s| s.len()).sum::<usize>() as u64);
    sched_span.end();

    let mut idb: Vec<Relation> = program
        .pred_ids()
        .map(|p| match program.pred(p).kind {
            PredKind::Idb => Relation::new(program.pred(p).arity),
            _ => Relation::new(0),
        })
        .collect();
    // Known-empty relations let whole clauses be skipped before their
    // joins run; IDB entries are updated as strata complete.
    let mut empty: Vec<bool> = program
        .pred_ids()
        .map(|p| match program.pred(p).kind {
            PredKind::Idb => true,
            kind => db.relation(kind).is_empty(),
        })
        .collect();

    let mut per_pred = vec![0usize; num_preds];
    let map_stats = |per_pred: &[usize], num_answers: usize| {
        let mut mapped = vec![0usize; orig_num_preds];
        for (i, &n) in per_pred.iter().enumerate() {
            let o = origin.map_or(i, |m| m[i].0 as usize);
            mapped[o] += n;
        }
        EvalStats {
            generated_tuples: per_pred.iter().sum(),
            num_answers,
            duration: start.elapsed(),
            per_predicate: mapped,
        }
    };

    for (lv, stratum) in strata.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let stratum_span = telem.tracer.enabled().then(|| {
            let s = telem.span("stratum");
            s.attr("level", lv as u64);
            s.attr("preds", stratum.len() as u64);
            s
        });
        let stratum_telem = match &stratum_span {
            Some(s) => telem.under(s),
            None => telem,
        };
        let outs: Vec<Mutex<(Relation, usize)>> = stratum
            .iter()
            .map(|&p| Mutex::new((Relation::new(program.pred(p).arity), 0)))
            .collect();
        let mut tasks: Vec<Task<'_>> = Vec::new();
        for (slot, &p) in stratum.iter().enumerate() {
            for (ci, clause) in program.clauses().iter().enumerate() {
                if clause.head != p {
                    continue;
                }
                if clause
                    .body
                    .iter()
                    .any(|a| matches!(a, BodyAtom::Pred(q, _) if empty[q.0 as usize]))
                {
                    sched.skipped += 1;
                    continue;
                }
                let plan = qplan.clauses[ci].as_ref().map_err(|e| EvalError::Unsafe(e.clone()))?;
                // Split a large outer scan into per-worker row ranges —
                // only when the plan opens with a full scan (a probe or
                // merge first step seeds from the single empty binding).
                let outer_rows = match (plan.order.first(), plan.access.first()) {
                    (Some(&i), Some(PlannedAccess::Scan)) => match &clause.body[i] {
                        BodyAtom::Pred(q, _) => Some(relation(program, db, &idb, *q).len()),
                        _ => None,
                    },
                    _ => None,
                };
                match outer_rows {
                    Some(n) if threads > 1 && n >= cfg.chunk_min_rows.max(1) => {
                        let chunk = n.div_ceil(threads * 2).max(1);
                        let mut lo = 0;
                        while lo < n {
                            let hi = (lo + chunk).min(n);
                            tasks.push(Task { clause, plan, range: Some((lo, hi)), slot });
                            lo = hi;
                        }
                    }
                    _ => tasks.push(Task { clause, plan, range: None, slot }),
                }
            }
        }

        let halt = if threads <= 1 || tasks.len() <= 1 {
            let mut buf = Vec::new();
            let mut halt = None;
            for t in &tasks {
                sched.executed += 1;
                if let Err(h) = eval_task_isolated(
                    query,
                    db,
                    &idb,
                    budget,
                    t,
                    &outs,
                    &mut buf,
                    &sched.bindings,
                    &stratum_telem,
                ) {
                    halt = Some(h);
                    break;
                }
            }
            halt
        } else {
            let shared: SharedBudget = budget.share();
            let next = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let first_halt: Mutex<Option<Halt>> = Mutex::new(None);
            let bindings = &sched.bindings;
            std::thread::scope(|scope| {
                for _ in 0..threads.min(tasks.len()) {
                    scope.spawn(|| {
                        let mut wb = WorkerBudget::new(&shared);
                        let mut buf = Vec::new();
                        while !abort.load(Ordering::Relaxed) {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(t) else { break };
                            if let Err(h) = eval_task_isolated(
                                query,
                                db,
                                &idb,
                                &mut wb,
                                task,
                                &outs,
                                &mut buf,
                                bindings,
                                &stratum_telem,
                            ) {
                                // Budget halts already poisoned the shared
                                // budget; a caught panic has not, so cancel
                                // the pool explicitly — siblings deep in a
                                // join observe it at their next budget
                                // check. Record the halt *first* so the
                                // Cancelled trips it provokes can never be
                                // reported as the cause.
                                let cancel = matches!(h, Halt::Fault(_) | Halt::Panic { .. });
                                let mut slot =
                                    first_halt.lock().unwrap_or_else(PoisonError::into_inner);
                                slot.get_or_insert(h);
                                drop(slot);
                                if cancel {
                                    shared.cancel();
                                }
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    });
                }
            });
            budget.absorb(&shared);
            sched.executed += next.load(Ordering::Relaxed).min(tasks.len()) as u64;
            first_halt.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        // Ticks amortise their cap and clock checks, so a small stratum
        // can finish without any worker consulting them; re-check both
        // on the exclusive budget at the stratum barrier.
        let halt = halt
            .or_else(|| budget.tick().and_then(|()| budget.check_time()).err().map(Halt::Budget));

        // Merge completed (possibly partial, on halt) stratum output.
        for (slot, &p) in stratum.iter().enumerate() {
            let (rel, fresh) =
                outs[slot].lock().map(|mut g| std::mem::take(&mut *g)).unwrap_or_default();
            per_pred[p.0 as usize] += fresh;
            empty[p.0 as usize] = rel.is_empty();
            idb[p.0 as usize] = rel;
        }
        if let Some(span) = &stratum_span {
            if let Some(halt) = &halt {
                span.error(&format!("{halt:?}"));
            }
        }
        if let Some(halt) = halt {
            let goal_answers = per_pred[query.goal.0 as usize];
            return Err(halt_to_error(halt, map_stats(&per_pred, goal_answers)));
        }
    }

    let goal_rel = std::mem::replace(&mut idb[query.goal.0 as usize], Relation::new(0));
    let mut answers: Vec<Vec<ConstId>> =
        goal_rel.rows().map(|row| row.iter().copied().map(ConstId).collect()).collect();
    answers.sort();
    let stats = map_stats(&per_pred, answers.len());
    Ok(EvalResult { answers, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_on;
    use crate::program::{CVar, Program};
    use obda_budget::Resource;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use std::time::Duration;

    fn chain_query() -> (NdlQuery, obda_owlql::abox::DataInstance) {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("R(a{}, a{})\n", i, i + 1));
            text.push_str(&format!("S(a{}, b{})\n", i, i % 7));
        }
        text.push_str("A(a0)\nA(a5)\nA(a50)\n");
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let t1 = p.add_pred("T1", 2, PredKind::Idb);
        let t2 = p.add_pred("T2", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // Two independent level-1 predicates joined at the goal.
        p.add_clause(Clause {
            head: t1,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: t2,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(s, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(t1, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(t2, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        (NdlQuery::new(p, g), d)
    }

    #[test]
    fn engine_matches_sequential_at_every_thread_count() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let base = evaluate_on(&q, &db, &EvalOptions::default()).unwrap();
        for threads in [1, 2, 4, 8] {
            for prune in [false, true] {
                for plan in [false, true] {
                    let cfg = EngineConfig { threads, prune, chunk_min_rows: 16, plan };
                    let res = evaluate_engine_on(&q, &db, &EvalOptions::default(), &cfg).unwrap();
                    assert_eq!(
                        res.answers, base.answers,
                        "threads={threads} prune={prune} plan={plan}"
                    );
                    assert!(res.stats.generated_tuples <= base.stats.generated_tuples);
                    if !prune {
                        assert_eq!(res.stats.generated_tuples, base.stats.generated_tuples);
                        assert_eq!(res.stats.per_predicate, base.stats.per_predicate);
                    }
                }
            }
        }
    }

    #[test]
    fn stats_are_deterministic_across_thread_counts() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let reference = evaluate_engine_on(
            &q,
            &db,
            &EvalOptions::default(),
            &EngineConfig { threads: 1, prune: true, chunk_min_rows: 8, plan: true },
        )
        .unwrap();
        for threads in [2, 3, 4, 7] {
            let res = evaluate_engine_on(
                &q,
                &db,
                &EvalOptions::default(),
                &EngineConfig { threads, prune: true, chunk_min_rows: 8, plan: true },
            )
            .unwrap();
            assert_eq!(res.answers, reference.answers);
            assert_eq!(res.stats.generated_tuples, reference.stats.generated_tuples);
            assert_eq!(res.stats.per_predicate, reference.stats.per_predicate);
        }
    }

    #[test]
    fn shared_deadline_stops_all_workers_with_typed_error() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let opts = EvalOptions { timeout: Some(Duration::ZERO), ..Default::default() };
        let err = evaluate_engine_on(
            &q,
            &db,
            &opts,
            &EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true },
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Timeout(_)), "got {err:?}");
    }

    #[test]
    fn shared_tuple_cap_trips_the_pool() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let opts = EvalOptions { max_tuples: Some(5), ..Default::default() };
        let err = evaluate_engine_on(
            &q,
            &db,
            &opts,
            &EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true },
        )
        .unwrap_err();
        match err {
            EvalError::TupleLimit(stats) => {
                // Concurrent charges can each overshoot by the row they
                // were inserting when the pool tripped: cap + 1 per worker.
                assert!(stats.generated_tuples <= 5 + 4, "cap honoured: {stats:?}")
            }
            other => panic!("expected TupleLimit, got {other:?}"),
        }
    }

    #[test]
    fn pruned_stats_map_back_to_original_predicates() {
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let alias = p.add_pred("ALIAS", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: alias,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(alias, vec![CVar(1), CVar(0)])],
            num_vars: 2,
        });
        let q = NdlQuery::new(p, g);
        let db = Database::new(&d);
        let base = evaluate_on(&q, &db, &EvalOptions::default()).unwrap();
        assert_eq!(base.stats.generated_tuples, 4, "alias doubles the work");
        let res =
            evaluate_engine_on(&q, &db, &EvalOptions::default(), &EngineConfig::default()).unwrap();
        assert_eq!(res.answers, base.answers);
        assert_eq!(res.stats.generated_tuples, 2, "alias is pruned away");
        assert_eq!(res.stats.per_predicate.len(), q.program.num_preds());
        assert_eq!(res.stats.per_predicate[g.0 as usize], 2);
        assert_eq!(res.stats.per_predicate[alias.0 as usize], 0);
    }

    #[test]
    fn empty_relation_skips_clause_bodies() {
        let o = parse_ontology("Class A\nProperty R\nProperty S\n").unwrap();
        let d = parse_data("R(a, b)\n", &o).unwrap(); // S is empty
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        for e in [r, s] {
            p.add_clause(Clause {
                head: g,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(e, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        let q = NdlQuery::new(p, g);
        let db = Database::new(&d);
        let res =
            evaluate_engine_on(&q, &db, &EvalOptions::default(), &EngineConfig::default()).unwrap();
        assert_eq!(res.answers.len(), 1);
    }

    #[test]
    fn recursive_program_is_rejected() {
        let mut p = Program::new();
        let g = p.add_pred("G", 1, PredKind::Idb);
        let h = p.add_pred("H", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(h, vec![CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: h,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(g, vec![CVar(0)])],
            num_vars: 1,
        });
        let o = parse_ontology("Class A\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let db = Database::new(&d);
        // Pruning must not mask recursion detection.
        let err = evaluate_engine_on(
            &NdlQuery::new(p, g),
            &db,
            &EvalOptions::default(),
            &EngineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Recursive));
    }

    #[test]
    fn step_cap_maps_to_timeout_error() {
        let (q, d) = chain_query();
        let db = Database::new(&d);
        let mut budget = Budget::unlimited().max_steps(10);
        let err = evaluate_engine_on_budgeted(
            &q,
            &db,
            &mut budget,
            &EngineConfig { threads: 4, prune: false, chunk_min_rows: 8, plan: true },
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Timeout(_)));
        let _ = Resource::Steps; // taxonomy documented in eval::budget_error
    }
}
