//! Query-plan explanation: the stratum schedule and per-clause join
//! plans the engine will use.
//!
//! Three entry points at increasing fidelity (and cost):
//!
//! * [`explain_plan`] — static, database-free: the longest-path
//!   layering into strata and the *syntactic* join order of every
//!   goal-reachable clause (the seed engine's greedy order);
//! * [`explain_plan_on`] — the cost-based plan the engines actually
//!   run against a given [`Database`], with the planner's estimated
//!   batch cardinality after every step;
//! * [`explain_plan_executed`] — additionally evaluates the query,
//!   recording the *actual* batch cardinality after every step, so
//!   misestimation is visible per atom.
//!
//! Every rendering marks the steps after which the kernel projects the
//! binding batch (`project(x0, x2)`: the live variables it keeps
//! distinct).
//!
//! The CLI's `obda explain` command renders these for the rewriting and
//! for the pruned program.

use crate::eval::{evaluate_collecting, reachable_from_goal, EvalError, EvalResult, JoinCounters};
use crate::planner::{plan_query, syntactic_query_plan, JoinPlan, PlannedAccess, QueryPlan};
use crate::program::{BodyAtom, CVar, NdlQuery, PredId, PredKind, Program};
use crate::storage::Database;
use obda_budget::Budget;

/// How the join kernel reaches one body atom's candidate rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomAccess {
    /// Full scan of the atom's relation (no argument bound yet); these
    /// are the outer loops the engine chunks across workers.
    Scan,
    /// Probe of the lazy column index on the given argument position.
    Probe {
        /// The argument position whose index is probed.
        column: usize,
    },
    /// An equality atom (filter or variable binding, no relation access).
    Filter,
    /// Binary-search merge on column 0 of a relation sorted on it (no
    /// hash index build).
    SortMerge,
}

/// The planned evaluation of one clause: its join order and the access
/// path of every body atom, in execution order.
#[derive(Debug, Clone)]
pub struct ClausePlan {
    /// Head predicate.
    pub head: PredId,
    /// Body atom indices in the order the kernel joins them.
    pub order: Vec<usize>,
    /// Access path per executed atom, parallel to `order`.
    pub access: Vec<AtomAccess>,
    /// Human-readable rendering of each executed atom (`R(x0, x1)`).
    pub atoms: Vec<String>,
    /// Estimated binding-batch size after each executed atom, parallel
    /// to `order`; empty when the plan was not costed (static explain).
    pub est_rows: Vec<f64>,
    /// Observed binding-batch size after each executed atom, parallel
    /// to `order`; empty unless the query was actually evaluated
    /// ([`explain_plan_executed`]). Counted after the step's projection.
    pub actual_rows: Vec<u64>,
    /// Per executed atom, parallel to `order`: the live variables the
    /// kernel deduplicates the binding batch on after that step, or
    /// `None` when the step projects nothing away (see
    /// [`JoinPlan::project`]).
    pub project: Vec<Option<Vec<CVar>>>,
    /// The error, if the clause cannot be ordered (unsafe equality).
    pub error: Option<String>,
}

/// One stratum: predicates at the same longest-path level, mutually
/// independent and evaluated concurrently by the engine.
#[derive(Debug, Clone)]
pub struct StratumPlan {
    /// Longest-path level (1 = depends only on EDB relations).
    pub level: usize,
    /// The clause plans of this stratum, grouped by head predicate in
    /// topological order.
    pub clauses: Vec<ClausePlan>,
}

/// The full predicted plan for a query.
#[derive(Debug, Clone)]
pub struct PlanExplanation {
    /// Strata in evaluation order.
    pub strata: Vec<StratumPlan>,
    /// Goal-reachable predicates (the ones the engine materialises).
    pub reachable_preds: usize,
    /// Total clauses planned.
    pub clauses: usize,
}

fn atom_text(program: &Program, atom: &BodyAtom) -> String {
    match atom {
        BodyAtom::Pred(p, args) => {
            let args: Vec<String> = args.iter().map(|v| format!("x{}", v.0)).collect();
            format!("{}({})", program.pred(*p).name, args.join(", "))
        }
        BodyAtom::Eq(a, b) => format!("x{} = x{}", a.0, b.0),
        BodyAtom::EqConst(a, c) => format!("x{} = #{}", a.0, c.0),
    }
}

fn clause_plan_from(
    program: &Program,
    clause: &crate::program::Clause,
    plan: &Result<JoinPlan, String>,
    actual: Vec<u64>,
) -> ClausePlan {
    let jp = match plan {
        Ok(jp) => jp,
        Err(msg) => {
            return ClausePlan {
                head: clause.head,
                order: Vec::new(),
                access: Vec::new(),
                atoms: Vec::new(),
                est_rows: Vec::new(),
                actual_rows: Vec::new(),
                project: Vec::new(),
                error: Some(msg.clone()),
            };
        }
    };
    let atoms = jp.order.iter().map(|&i| atom_text(program, &clause.body[i])).collect();
    let access = jp
        .access
        .iter()
        .map(|a| match a {
            PlannedAccess::Filter => AtomAccess::Filter,
            PlannedAccess::Scan => AtomAccess::Scan,
            PlannedAccess::Probe { column } => AtomAccess::Probe { column: *column },
            PlannedAccess::SortMerge => AtomAccess::SortMerge,
        })
        .collect();
    ClausePlan {
        head: clause.head,
        order: jp.order.clone(),
        access,
        atoms,
        est_rows: jp.est_rows.clone(),
        actual_rows: actual,
        project: jp.project.clone(),
        error: None,
    }
}

/// Predicts the engine's *syntactic* plan for `query` without touching
/// any data: longest-path strata and the greedy join order plus access
/// path of every goal-reachable clause. Mirrors `engine::run` with
/// [`crate::engine::EngineConfig::plan`] disabled.
pub fn explain_plan(query: &NdlQuery) -> PlanExplanation {
    build_explanation(query, &syntactic_query_plan(query), None)
}

/// The cost-based plan the engines run for `query` against `db`,
/// including the planner's estimated cardinality after every step.
pub fn explain_plan_on(query: &NdlQuery, db: &Database) -> PlanExplanation {
    build_explanation(query, &plan_query(query, db), None)
}

/// [`explain_plan_on`] from an already-computed [`QueryPlan`] for
/// `query`, for callers that cache plans (e.g. prepared queries). The
/// plan must have been built for this `query`'s program.
pub fn explain_plan_with(query: &NdlQuery, qplan: &QueryPlan) -> PlanExplanation {
    build_explanation(query, qplan, None)
}

/// Plans *and evaluates* `query` on `db`, returning the explanation
/// with both estimated and actual per-step cardinalities, alongside the
/// evaluation result. The evaluation runs on the sequential engine
/// under `budget`.
pub fn explain_plan_executed(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
) -> Result<(PlanExplanation, EvalResult), EvalError> {
    let qplan = plan_query(query, db);
    let (result, obs) = evaluate_collecting(query, db, budget, &qplan)?;
    Ok((build_explanation(query, &qplan, Some(&obs)), result))
}

fn build_explanation(
    query: &NdlQuery,
    qplan: &QueryPlan,
    actuals: Option<&[JoinCounters]>,
) -> PlanExplanation {
    let program = &query.program;
    let num_preds = program.num_preds();
    let reachable = reachable_from_goal(query);
    let order = crate::analysis::topological_order(program).unwrap_or_default();

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

    let mut plan = PlanExplanation { strata: Vec::new(), reachable_preds: 0, clauses: 0 };
    plan.reachable_preds = (0..num_preds)
        .filter(|&i| reachable[i] && matches!(program.pred(PredId(i as u32)).kind, PredKind::Idb))
        .count();
    for (lv, stratum) in strata.iter().enumerate() {
        if stratum.is_empty() {
            continue;
        }
        let mut clauses = Vec::new();
        for &p in stratum {
            for (ci, clause) in program.clauses().iter().enumerate() {
                if clause.head != p {
                    continue;
                }
                let actual = actuals.map(|a| a[ci].atom_rows.clone()).unwrap_or_default();
                clauses.push(clause_plan_from(program, clause, &qplan.clauses[ci], actual));
            }
        }
        plan.clauses += clauses.len();
        plan.strata.push(StratumPlan { level: lv, clauses });
    }
    plan
}

/// Renders the plan for terminal output, one stratum per block.
pub struct PlanDisplay<'a> {
    plan: &'a PlanExplanation,
    program: &'a Program,
}

impl PlanExplanation {
    /// A displayable rendering resolving predicate names via `program`.
    pub fn display<'a>(&'a self, program: &'a Program) -> PlanDisplay<'a> {
        PlanDisplay { plan: self, program }
    }
}

impl std::fmt::Display for PlanDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan: {} strata, {} clauses, {} reachable predicates",
            self.plan.strata.len(),
            self.plan.clauses,
            self.plan.reachable_preds
        )?;
        for stratum in &self.plan.strata {
            writeln!(f, "stratum {} ({} clauses):", stratum.level, stratum.clauses.len())?;
            for clause in &stratum.clauses {
                let head = &self.program.pred(clause.head).name;
                if let Some(err) = &clause.error {
                    writeln!(f, "  {head} <- unsafe: {err}")?;
                    continue;
                }
                let steps: Vec<String> = clause
                    .atoms
                    .iter()
                    .zip(&clause.access)
                    .enumerate()
                    .map(|(k, (atom, access))| {
                        let mut s = match access {
                            AtomAccess::Scan => format!("scan {atom}"),
                            AtomAccess::Probe { column } => format!("probe[{column}] {atom}"),
                            AtomAccess::Filter => format!("filter {atom}"),
                            AtomAccess::SortMerge => format!("merge[0] {atom}"),
                        };
                        if let Some(est) = clause.est_rows.get(k) {
                            s.push_str(&format!(" est\u{2248}{}", est.round().max(0.0) as u64));
                        }
                        if let Some(actual) = clause.actual_rows.get(k) {
                            s.push_str(&format!(" actual={actual}"));
                        }
                        if let Some(Some(live)) = clause.project.get(k) {
                            let vars: Vec<String> =
                                live.iter().map(|v| format!("x{}", v.0)).collect();
                            s.push_str(&format!(" project({})", vars.join(", ")));
                        }
                        s
                    })
                    .collect();
                writeln!(f, "  {head} <- {}", steps.join(" ; "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Clause;

    fn sample() -> NdlQuery {
        let mut p = Program::new();
        let r = p.add_pred("R", 2, PredKind::Top);
        let t = p.add_pred("T", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(t, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        NdlQuery::new(p, g)
    }

    #[test]
    fn strata_follow_dependencies() {
        let q = sample();
        let plan = explain_plan(&q);
        assert_eq!(plan.strata.len(), 2);
        assert_eq!(plan.strata[0].level, 1);
        assert_eq!(plan.strata[1].level, 2);
        assert_eq!(plan.clauses, 2);
        assert_eq!(plan.reachable_preds, 2);
    }

    #[test]
    fn first_atom_scans_then_probes() {
        let q = sample();
        let plan = explain_plan(&q);
        let t_clause = &plan.strata[0].clauses[0];
        assert_eq!(t_clause.access[0], AtomAccess::Scan);
        assert!(matches!(t_clause.access[1], AtomAccess::Probe { .. }));
    }

    #[test]
    fn unsafe_clause_reported_not_panicked() {
        let mut p = Program::new();
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Eq(CVar(0), CVar(1))],
            num_vars: 2,
        });
        let plan = explain_plan(&NdlQuery::new(p, g));
        assert_eq!(plan.strata.len(), 1);
        assert!(plan.strata[0].clauses[0].error.is_some());
    }

    #[test]
    fn display_renders_access_paths() {
        let q = sample();
        let plan = explain_plan(&q);
        let text = plan.display(&q.program).to_string();
        assert!(text.contains("stratum 1"), "{text}");
        assert!(text.contains("scan R("), "{text}");
        assert!(text.contains("probe["), "{text}");
        // Static explain carries no cardinalities.
        assert!(!text.contains("est\u{2248}"), "{text}");
        assert!(!text.contains("actual="), "{text}");
    }

    fn sample_db() -> (NdlQuery, Database) {
        use obda_owlql::parser::{parse_data, parse_ontology};
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, d)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let t = p.add_pred("T", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: t,
            head_args: vec![CVar(0), CVar(2)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(t, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        (NdlQuery::new(p, g), Database::new(&d))
    }

    #[test]
    fn costed_explain_carries_estimates() {
        let (q, db) = sample_db();
        let plan = explain_plan_on(&q, &db);
        let t_clause = &plan.strata[0].clauses[0];
        assert_eq!(t_clause.est_rows.len(), t_clause.order.len());
        assert!(t_clause.actual_rows.is_empty());
        let text = plan.display(&q.program).to_string();
        assert!(text.contains("est\u{2248}"), "{text}");
        assert!(!text.contains("actual="), "{text}");
    }

    #[test]
    fn executed_explain_reports_est_and_actual() {
        let (q, db) = sample_db();
        let mut budget = Budget::unlimited();
        let (plan, result) = explain_plan_executed(&q, &db, &mut budget).unwrap();
        assert_eq!(result.answers.len(), 2, "a and b reach a 2-chain");
        let t_clause = &plan.strata[0].clauses[0];
        assert_eq!(t_clause.actual_rows.len(), t_clause.order.len());
        // R ⋈ R over the 3-row chain leaves 2 bindings after the probe.
        assert_eq!(t_clause.actual_rows[1], 2);
        // The probe is x1's last reader: the step projects onto the head.
        assert_eq!(t_clause.project, vec![None, Some(vec![CVar(0), CVar(2)])]);
        let text = plan.display(&q.program).to_string();
        assert!(text.contains("est\u{2248}"), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("actual=2 project(x0, x2)"), "{text}");
    }
}
