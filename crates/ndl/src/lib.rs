#![warn(missing_docs)]

//! # obda-ndl
//!
//! Nonrecursive datalog (NDL) for ontology-mediated query rewriting:
//!
//! * program representation with OWL 2 QL data-vocabulary EDB bindings
//!   ([`program`]);
//! * structural analysis — nonrecursiveness, depth, linearity, width,
//!   weight functions, skinny depth ([`analysis`], Section 3.1 of Bienvenu
//!   et al., PODS 2017);
//! * the Huffman-based skinny transformation of Lemma 5 ([`skinny`]);
//! * the `*`-transformation to arbitrary data instances and Lemma 3's
//!   linearity-preserving variant ([`star`]);
//! * a shared indexed relation storage layer ([`storage`]): columnar
//!   relations with lazy per-column hash indexes, loaded once per data
//!   instance into a [`Database`] reused across evaluations;
//! * two evaluators over that storage: a bottom-up materialising engine
//!   ([`eval`], the stand-in for RDFox in the experiments, using
//!   index-nested-loop joins) and Theorem 2's reachability-based evaluator
//!   for linear programs ([`linear_eval`]);
//! * the original per-call hash-set engine ([`mod@reference`]), kept for
//!   differential tests and as the benchmark baseline;
//! * a goal-directed relevance-pruning pass ([`relevance`]) and a
//!   parallel stratum-scheduled engine ([`engine`]) combining pruning
//!   with scoped-thread evaluation under a shared [`obda_budget`]
//!   allowance;
//! * per-relation cardinality statistics ([`stats`]) feeding a
//!   cost-based clause planner ([`planner`]) that both engines consume:
//!   greedy cost-ordered joins with a dynamic-programming refinement for
//!   small clauses, choosing per-atom access paths (scan, hash probe,
//!   sorted merge) over the columnar storage.

/// Fault-injection shim: with the `faults` feature the substrates call
/// [`obda_faults::inject`] at registered sites; without it every site is
/// an empty inline function the optimiser erases.
pub(crate) mod fault {
    #[cfg(feature = "faults")]
    pub use obda_faults::{inject, site};

    #[cfg(not(feature = "faults"))]
    #[inline(always)]
    pub fn inject(_site: &'static str) {}

    #[cfg(not(feature = "faults"))]
    pub mod site {
        pub const STORAGE_INSERT: &str = "ndl::storage::insert";
        pub const STORAGE_INDEX_BUILD: &str = "ndl::storage::index_build";
        pub const ENGINE_CLAUSE_TASK: &str = "ndl::engine::clause_task";
    }
}

pub mod analysis;
pub mod engine;
pub mod eval;
pub mod explain;
pub mod linear_eval;
pub mod planner;
pub mod program;
pub mod reference;
pub mod relevance;
mod rowset;
pub mod skinny;
pub mod star;
pub mod stats;
pub mod storage;

pub use analysis::{analyze, Analysis};
pub use engine::{
    evaluate_engine_on, evaluate_engine_on_budgeted, evaluate_engine_on_traced,
    evaluate_pruned_planned_on_traced, EngineConfig,
};
pub use eval::{
    evaluate, evaluate_on, evaluate_on_budgeted, evaluate_on_traced, EvalError, EvalOptions,
    EvalResult, EvalStats,
};
pub use explain::{
    explain_plan, explain_plan_executed, explain_plan_on, explain_plan_with, AtomAccess,
    ClausePlan, PlanExplanation, StratumPlan,
};
pub use linear_eval::{evaluate_linear, evaluate_linear_on, evaluate_linear_on_budgeted};
pub use planner::{
    plan_query, plans_built, syntactic_query_plan, JoinPlan, PlannedAccess, QueryPlan,
};
pub use program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program, ProgramDisplay};
pub use reference::evaluate_reference;
pub use relevance::{prune_for_goal, PruneStats, PrunedQuery};
pub use skinny::to_skinny;
pub use star::{linear_star_transform, star_transform};
pub use stats::RelStats;
pub use storage::{ArenaWords, ColumnIndex, Database, LazyRelation, Relation};
