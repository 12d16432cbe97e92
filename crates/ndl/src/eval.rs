//! Bottom-up evaluation of NDL queries over data instances.
//!
//! This is the workspace's stand-in for the RDFox engine used in the
//! paper's experiments: it materialises every IDB predicate in dependency
//! order, without magic sets or program optimisation, so that the relative
//! costs of different rewritings have the same cause as in the paper (the
//! number of materialised tuples). It reports both answers and the total
//! number of generated tuples, as Tables 3–5 do.
//!
//! Clauses are evaluated as bound-pattern-specialised index-nested-loop
//! joins over the shared [`Database`] of [`crate::storage`]: for every
//! predicate atom the greedy `join_order` determines which argument
//! positions are bound by the time the atom is reached, and the engine
//! probes the relation's lazy [`crate::storage::ColumnIndex`] on the first
//! bound column (falling back to a scan when no position is bound),
//! verifying the remaining positions against each candidate row. The
//! original per-call hash-set engine survives as [`crate::reference`] for
//! differential tests and benchmarks.

use crate::analysis::topological_order;
use crate::planner::{plan_query, JoinPlan, PlannedAccess, QueryPlan};
use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use crate::rowset::RowSet;
use crate::storage::{Database, Relation};
use obda_budget::{Budget, BudgetExceeded, BudgetOps, Resource};
use obda_owlql::abox::{ConstId, DataInstance};
use obda_owlql::util::FxHashSet;
use obda_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Evaluation limits. A convenience facade over [`Budget`]: callers that
/// only need a timeout and a tuple cap keep using this; callers sharing
/// a budget across pipeline stages use the `*_budgeted` entry points.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Cap on total generated tuples; `None` = unlimited.
    pub max_tuples: Option<usize>,
}

impl EvalOptions {
    /// Starts a [`Budget`] enforcing exactly these options.
    pub fn to_budget(&self) -> Budget {
        let mut b = match self.timeout {
            Some(t) => Budget::with_timeout(t),
            None => Budget::unlimited(),
        };
        if let Some(cap) = self.max_tuples {
            b = b.max_tuples(cap as u64);
        }
        b
    }
}

/// Evaluation metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Total tuples materialised across all IDB predicates.
    pub generated_tuples: usize,
    /// Number of answers (tuples in the goal relation).
    pub num_answers: usize,
    /// Wall-clock time spent evaluating.
    pub duration: Duration,
    /// Tuples materialised per predicate, indexed by [`PredId`] (zero for
    /// EDB predicates). Populated by every evaluator; on success the counts
    /// equal the distinct-tuple sizes of the materialised relations, so they
    /// are deterministic regardless of clause scheduling or thread count.
    pub per_predicate: Vec<usize>,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The wall-clock budget was exhausted; carries the partial stats at
    /// the moment evaluation was interrupted.
    Timeout(EvalStats),
    /// The tuple cap was exceeded; carries the partial stats at the moment
    /// evaluation was interrupted.
    TupleLimit(EvalStats),
    /// The program is recursive.
    Recursive,
    /// A clause cannot be range-restricted (e.g. an equality between two
    /// never-bound variables).
    Unsafe(String),
    /// A transient fault (injected via `obda-faults` or raised by a
    /// recoverable substrate hiccup) interrupted evaluation; retrying the
    /// same evaluation may succeed. Carries the originating site tag.
    Transient(&'static str),
    /// A panic escaped the evaluation kernel and was caught at an
    /// isolation boundary. Not retryable: it indicates a bug (or an
    /// injected deliberate panic exercising the isolation path).
    Internal {
        /// The isolation boundary that caught the panic.
        site: String,
        /// The panic message, when it was a string payload.
        payload: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Timeout(stats) => {
                write!(f, "evaluation timed out after {} tuples", stats.generated_tuples)
            }
            EvalError::TupleLimit(stats) => {
                write!(f, "tuple limit exceeded after {} tuples", stats.generated_tuples)
            }
            EvalError::Recursive => write!(f, "program is recursive"),
            EvalError::Unsafe(msg) => write!(f, "unsafe clause: {msg}"),
            EvalError::Transient(site) => write!(f, "transient fault at {site}"),
            EvalError::Internal { site, payload } => {
                write!(f, "internal error: panic caught at {site}: {payload}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The result of evaluating `(Π, G)` over a data instance.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The goal relation, sorted.
    pub answers: Vec<Vec<ConstId>>,
    /// Metrics.
    pub stats: EvalStats,
}

pub(crate) type Row = Vec<u32>;

pub(crate) const UNBOUND: u32 = u32::MAX;

/// Internal interruption reason raised deep inside join loops; partial
/// statistics are attached at the `evaluate_on` boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Halt {
    /// The shared [`Budget`] tripped (deadline, step cap or tuple cap).
    Budget(BudgetExceeded),
    Unsafe(String),
    /// A transient injected fault unwound out of the kernel and was
    /// downcast back to its typed payload at an isolation boundary. Only
    /// constructed when the `faults` feature compiles the injection
    /// sites in; always matched so downstream mapping stays total.
    #[cfg_attr(not(feature = "faults"), allow(dead_code))]
    Fault(&'static str),
    /// A genuine panic was caught at an isolation boundary.
    Panic {
        site: &'static str,
        payload: String,
    },
}

impl From<BudgetExceeded> for Halt {
    fn from(e: BudgetExceeded) -> Self {
        Halt::Budget(e)
    }
}

/// Renders a panic payload for error reports: string payloads verbatim,
/// anything else a placeholder.
pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Classifies a payload caught by `catch_unwind` at the isolation
/// boundary `site`: an injected transient fault becomes [`Halt::Fault`]
/// (retryable), everything else [`Halt::Panic`] (a bug).
pub(crate) fn halt_from_panic(site: &'static str, payload: Box<dyn std::any::Any + Send>) -> Halt {
    #[cfg(feature = "faults")]
    if let Some(fault) = payload.downcast_ref::<obda_faults::FaultError>() {
        return Halt::Fault(fault.site);
    }
    Halt::Panic { site, payload: describe_panic(payload.as_ref()) }
}

/// Maps a [`Halt`] onto the public [`EvalError`] taxonomy, attaching the
/// partial statistics gathered before the interruption.
pub(crate) fn halt_to_error(halt: Halt, stats: EvalStats) -> EvalError {
    match halt {
        Halt::Budget(e) => budget_error(e, stats),
        Halt::Unsafe(msg) => EvalError::Unsafe(msg),
        Halt::Fault(site) => EvalError::Transient(site),
        Halt::Panic { site, payload } => EvalError::Internal { site: site.to_owned(), payload },
    }
}

/// Maps a budget trip onto the legacy [`EvalError`] taxonomy: tuple-cap
/// trips become [`EvalError::TupleLimit`], everything else (deadline,
/// step cap) becomes [`EvalError::Timeout`].
pub(crate) fn budget_error(e: BudgetExceeded, stats: EvalStats) -> EvalError {
    match e.resource {
        Resource::Tuples => EvalError::TupleLimit(stats),
        _ => EvalError::Timeout(stats),
    }
}

/// Greedy join order for a clause body: equalities as soon as one side is
/// bound (a constant side is always bound), otherwise the predicate atom
/// with the most bound variables, preferring constant-bound variables on
/// ties.
pub(crate) fn join_order(clause: &Clause) -> Result<Vec<usize>, String> {
    let mut remaining: Vec<usize> = (0..clause.body.len()).collect();
    let mut bound: FxHashSet<CVar> = FxHashSet::default();
    // Variables pinned to a constant (directly by an `EqConst`, or
    // transitively through an applied `Eq`): probing on one touches a
    // single key, so ties between equally-bound atoms break towards them.
    let mut const_bound: FxHashSet<CVar> = FxHashSet::default();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Equality with a bound side first.
        if let Some(pos) = remaining.iter().position(|&i| match &clause.body[i] {
            BodyAtom::Eq(a, b) => bound.contains(a) || bound.contains(b),
            BodyAtom::EqConst(..) => true,
            _ => false,
        }) {
            let i = remaining.remove(pos);
            match &clause.body[i] {
                BodyAtom::EqConst(a, _) => {
                    const_bound.insert(*a);
                }
                BodyAtom::Eq(a, b) => {
                    if const_bound.contains(a) || const_bound.contains(b) {
                        const_bound.insert(*a);
                        const_bound.insert(*b);
                    }
                }
                BodyAtom::Pred(..) => {}
            }
            for v in clause.body[i].vars() {
                bound.insert(v);
            }
            order.push(i);
            continue;
        }
        // Otherwise the predicate atom with the most bound variables,
        // breaking ties towards the fewest *unbound* variables (keeps the
        // first join of a clause on a small binary relation instead of a
        // wide intermediate predicate), then towards the most
        // constant-bound variables (a constant-pinned probe touches one
        // key; a join-bound probe touches one key per binding).
        let best = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &i)| matches!(clause.body[i], BodyAtom::Pred(..)))
            .max_by_key(|&(_, &i)| {
                let vars = clause.body[i].vars();
                let bound_count = vars.iter().filter(|v| bound.contains(v)).count();
                let unbound: std::collections::BTreeSet<_> =
                    vars.iter().filter(|v| !bound.contains(v)).collect();
                let const_count = vars.iter().filter(|v| const_bound.contains(v)).count();
                (bound_count, std::cmp::Reverse(unbound.len()), const_count)
            });
        match best {
            Some((pos, _)) => {
                let i = remaining.remove(pos);
                for v in clause.body[i].vars() {
                    bound.insert(v);
                }
                order.push(i);
            }
            None => {
                return Err("equality between variables that are never bound".into());
            }
        }
    }
    Ok(order)
}

/// The relation of a predicate: EDB relations live in the database, IDB
/// relations in the engine's materialisation table.
pub(crate) fn relation<'r>(
    program: &Program,
    db: &'r Database,
    idb: &'r [Relation],
    p: PredId,
) -> &'r Relation {
    match program.pred(p).kind {
        PredKind::Idb => &idb[p.0 as usize],
        kind => db.relation(kind),
    }
}

struct Counters {
    generated: usize,
    per_pred: Vec<usize>,
    /// Intermediate bindings kept by the join kernel ([`JoinCounters::bindings`]).
    bindings: u64,
}

/// Join-kernel observability counters, accumulated per clause evaluation.
/// Always counted — a handful of `u64` adds per *batch* of candidate rows,
/// noise next to the hash probes they sit beside — and attached to the
/// clause span only when tracing is on (`experiments benchguard` holds the
/// kernel to this).
#[derive(Debug, Default, Clone)]
pub(crate) struct JoinCounters {
    /// Candidate rows examined, across scan and index-probe paths.
    pub scanned: u64,
    /// Candidate rows obtained via a column-index probe (⊆ `scanned`).
    pub index_hits: u64,
    /// Bindings kept after the predicate steps, summed over the steps:
    /// candidates that matched and, on a projecting step, were the first
    /// with their live key (the intermediate results the join carried).
    pub bindings: u64,
    /// Head rows handed to the emit callback. The last step projects
    /// onto the head variables, so these are distinct within one kernel
    /// call; rows derived by other clauses or chunk tasks are merged by
    /// the head relation's own deduplication.
    pub emitted: u64,
    /// Binding-batch size after each executed plan step, parallel to the
    /// plan's `order` (the *actual* counterpart of the plan's `est_rows`;
    /// shorter if the batch emptied early).
    pub atom_rows: Vec<u64>,
}

impl JoinCounters {
    /// Accumulates `other` (a chunk task's counters) into `self`;
    /// per-step batch sizes add element-wise.
    pub fn absorb(&mut self, other: &JoinCounters) {
        self.scanned += other.scanned;
        self.index_hits += other.index_hits;
        self.bindings += other.bindings;
        self.emitted += other.emitted;
        if self.atom_rows.len() < other.atom_rows.len() {
            self.atom_rows.resize(other.atom_rows.len(), 0);
        }
        for (a, &b) in self.atom_rows.iter_mut().zip(&other.atom_rows) {
            *a += b;
        }
    }
}

/// Partial statistics carried by an [`EvalError`], when the failure class
/// has any (budget trips carry the stats at interruption; the rest don't).
pub(crate) fn error_stats(e: &EvalError) -> Option<&EvalStats> {
    match e {
        EvalError::Timeout(stats) | EvalError::TupleLimit(stats) => Some(stats),
        _ => None,
    }
}

/// Where one word of a projection key comes from, for a candidate
/// `(binding, row)`: a binding slot, or an argument position of the row
/// (a slot the atom binds or has just checked against the binding).
#[derive(Debug, Clone, Copy)]
enum KeySrc {
    Slot(usize),
    Col(usize),
}

/// How one predicate step treats its candidate rows, derived once per
/// step from which slots the earlier steps bound (every binding of a
/// batch has the same slots bound), plus the kernel's scratch buffers,
/// reused across the steps of one clause.
#[derive(Default)]
struct StepShape {
    /// `(position, slot)`: the row must equal the binding's bound slot.
    checks: Vec<(usize, usize)>,
    /// `(position, earlier position)`: a variable repeated inside the
    /// atom, unbound before it; the two row values must agree.
    repeats: Vec<(usize, usize)>,
    /// `(position, slot)`: the row binds the slot (first occurrences).
    binds: Vec<(usize, usize)>,
    /// Sources of the projection key, one per live slot.
    key_srcs: Vec<KeySrc>,
    /// Whether the step projects (dedups on `key_srcs`).
    projects: bool,
    /// The keys of the bindings kept so far (strided by the key width)
    /// and the exact set over them.
    seen: RowSet,
    keys: Vec<u32>,
    key: Vec<u32>,
}

impl StepShape {
    /// Prepares a predicate step over `args`, given the slots bound
    /// before it and the live slots it projects onto, if any.
    fn predicate(&mut self, args: &[CVar], bound: &[bool], live: Option<&[CVar]>) {
        self.checks.clear();
        self.repeats.clear();
        self.binds.clear();
        for (k, v) in args.iter().enumerate() {
            let slot = v.0 as usize;
            if bound[slot] {
                self.checks.push((k, slot));
            } else if let Some(j) = args[..k].iter().position(|w| w == v) {
                self.repeats.push((k, j));
            } else {
                self.binds.push((k, slot));
            }
        }
        self.key_srcs.clear();
        if let Some(live) = live {
            // A live slot the atom mentions is read from the row: the
            // checks above make it equal to any bound value.
            self.key_srcs.extend(live.iter().map(|v| match args.iter().position(|a| a == v) {
                Some(k) => KeySrc::Col(k),
                None => KeySrc::Slot(v.0 as usize),
            }));
        }
        self.start_projection(live.map(<[CVar]>::len));
    }

    /// Starts a new key set of `width` words, or none.
    fn start_projection(&mut self, width: Option<usize>) {
        self.projects = width.is_some();
        if let Some(width) = width {
            self.seen.clear();
            self.keys.clear();
            self.key.clear();
            self.key.resize(width, 0);
        }
    }

    /// Records the key in `self.key`; whether it was not seen before.
    #[inline]
    fn first(&mut self) -> bool {
        let width = self.key.len();
        if !self.seen.insert(&self.keys, width, &self.key) {
            return false;
        }
        self.keys.extend_from_slice(&self.key);
        true
    }

    /// [`StepShape::first`] for the key of `binding` on the slots `live`
    /// (an equality step's projection).
    fn first_of(&mut self, binding: &[u32], live: &[CVar]) -> bool {
        for (dst, v) in self.key.iter_mut().zip(live) {
            *dst = binding[v.0 as usize];
        }
        self.first()
    }

    /// Offers candidate `row` for `binding`: every argument position is
    /// checked — bound slots must match, and repeated variables inside
    /// the atom must agree — so the kernel is correct for *any* atom
    /// order and access path the planner chooses. On a projecting step
    /// the key is formed from `binding` and `row` before anything is
    /// copied, and a binding whose key was already kept is dropped.
    #[inline]
    fn offer<B: BudgetOps>(
        &mut self,
        binding: &[u32],
        row: &[u32],
        next: &mut Vec<u32>,
        next_len: &mut usize,
        budget: &mut B,
    ) -> Result<(), Halt> {
        budget.tick()?;
        for &(k, slot) in &self.checks {
            if row[k] != binding[slot] {
                return Ok(());
            }
        }
        for &(k, j) in &self.repeats {
            if row[k] != row[j] {
                return Ok(());
            }
        }
        if self.projects {
            for (dst, src) in self.key.iter_mut().zip(&self.key_srcs) {
                *dst = match *src {
                    KeySrc::Slot(v) => binding[v],
                    KeySrc::Col(k) => row[k],
                };
            }
            if !self.first() {
                return Ok(());
            }
        }
        let base = next.len();
        next.extend_from_slice(binding);
        for &(k, slot) in &self.binds {
            next[base + slot] = row[k];
        }
        *next_len += 1;
        // Intermediate join results count against the tuple budget too — a
        // join can explode without ever reaching the head.
        budget.check_tuple_headroom(*next_len as u64)?;
        Ok(())
    }
}

/// Row `i` of a row-major arena of `arity`-word rows.
#[inline]
fn row_at(words: &[u32], arity: usize, i: usize) -> &[u32] {
    &words[i * arity..i * arity + arity]
}

/// The kernel's row sink: called once per satisfying head binding, with
/// the budget threaded through so emission can halt the join.
pub(crate) type EmitFn<'a, B> = dyn FnMut(&[u32], &mut B) -> Result<(), Halt> + 'a;

/// Evaluates one clause body batch-at-a-time along `plan`, calling
/// `emit` once per distinct head row the body derives. Bindings live in
/// a flat `num_vars`-strided arena ping-ponged between two buffers — no
/// per-row allocation — and each plan step processes the whole batch
/// against one relation: a chunked scan, a hash-index probe on the
/// planned column, or a binary-search merge on sorted column 0.
///
/// After a step that drops a bound slot (`plan.project`), only the first
/// binding per distinct key of still-live slots survives; the last step
/// keys on the head variables. Projection changes how many bindings the
/// join carries, never which head rows it derives.
///
/// When `first_range = Some((lo, hi))` and the first planned step is a
/// scan, only rows `lo..hi` of its relation seed the join — the
/// parallel engine partitions large outer loops this way. Generic over
/// [`BudgetOps`] so the sequential engine (exclusive [`Budget`]) and
/// the worker pool (`WorkerBudget` over a shared atomic allowance) run
/// the same kernel.
#[allow(clippy::too_many_arguments)] // one kernel shared by both engines
pub(crate) fn eval_clause_into<B: BudgetOps>(
    program: &Program,
    db: &Database,
    idb: &[Relation],
    budget: &mut B,
    clause: &Clause,
    plan: &JoinPlan,
    first_range: Option<(usize, usize)>,
    counters: &mut JoinCounters,
    emit: &mut EmitFn<'_, B>,
) -> Result<(), Halt> {
    // `stride` may be 0 (Boolean clauses), so the row count is explicit.
    let stride = clause.num_vars as usize;
    let mut cur: Vec<u32> = vec![UNBOUND; stride];
    let mut cur_len: usize = 1;
    let mut next: Vec<u32> = Vec::new();
    let mut shape = StepShape::default();
    // Slots bound by the steps so far — the same for every binding.
    let mut bound = vec![false; stride];
    for (oi, (&i, access)) in plan.order.iter().zip(&plan.access).enumerate() {
        if cur_len == 0 {
            break;
        }
        let live = plan.project.get(oi).and_then(Option::as_deref);
        match &clause.body[i] {
            BodyAtom::Eq(a, b) => {
                let (a, b) = (a.0 as usize, b.0 as usize);
                shape.start_projection(live.map(<[CVar]>::len));
                let mut w = 0usize;
                for r in 0..cur_len {
                    budget.tick()?;
                    let base = r * stride;
                    let va = cur[base + a];
                    let vb = cur[base + b];
                    let keep = match (va == UNBOUND, vb == UNBOUND) {
                        (false, false) => va == vb,
                        (false, true) => {
                            cur[base + b] = va;
                            true
                        }
                        (true, false) => {
                            cur[base + a] = vb;
                            true
                        }
                        (true, true) => unreachable!("join order binds one side first"),
                    };
                    let keep =
                        keep && live.is_none_or(|l| shape.first_of(&cur[base..base + stride], l));
                    if keep {
                        if w != r {
                            cur.copy_within(base..base + stride, w * stride);
                        }
                        w += 1;
                    }
                }
                cur_len = w;
                cur.truncate(cur_len * stride);
            }
            BodyAtom::EqConst(a, c) => {
                let (a, c) = (a.0 as usize, c.0);
                shape.start_projection(live.map(<[CVar]>::len));
                let mut w = 0usize;
                for r in 0..cur_len {
                    budget.tick()?;
                    let base = r * stride;
                    let va = cur[base + a];
                    let keep = if va == UNBOUND {
                        cur[base + a] = c;
                        true
                    } else {
                        va == c
                    };
                    let keep =
                        keep && live.is_none_or(|l| shape.first_of(&cur[base..base + stride], l));
                    if keep {
                        if w != r {
                            cur.copy_within(base..base + stride, w * stride);
                        }
                        w += 1;
                    }
                }
                cur_len = w;
                cur.truncate(cur_len * stride);
            }
            BodyAtom::Pred(p, args) => {
                let rel = relation(program, db, idb, *p);
                let (words, arity) = (rel.words(), rel.arity());
                shape.predicate(args, &bound, live);
                next.clear();
                let mut next_len = 0usize;
                match access {
                    PlannedAccess::Scan => {
                        let (lo, hi) = match first_range {
                            Some(range) if oi == 0 => range,
                            _ => (0, rel.len()),
                        };
                        for r in 0..cur_len {
                            budget.tick()?;
                            counters.scanned += (hi - lo) as u64;
                            let binding = &cur[r * stride..r * stride + stride];
                            for rr in lo..hi {
                                let row = row_at(words, arity, rr);
                                shape.offer(binding, row, &mut next, &mut next_len, budget)?;
                            }
                        }
                    }
                    PlannedAccess::Probe { column } => {
                        let col = *column;
                        let index = rel.column_index(col);
                        let key_var = args[col].0 as usize;
                        for r in 0..cur_len {
                            budget.tick()?;
                            let binding = &cur[r * stride..r * stride + stride];
                            let hits = index.probe(binding[key_var]);
                            counters.scanned += hits.len() as u64;
                            counters.index_hits += hits.len() as u64;
                            for &row_id in hits {
                                let row = row_at(words, arity, row_id as usize);
                                shape.offer(binding, row, &mut next, &mut next_len, budget)?;
                            }
                        }
                    }
                    PlannedAccess::SortMerge if rel.stats().sorted_col0 => {
                        // Binary-search merge on sorted column 0; the
                        // last key's range is memoised, so batches with
                        // key locality pay one search per distinct key.
                        let key_var = args[0].0 as usize;
                        let mut memo: Option<(u32, (usize, usize))> = None;
                        for r in 0..cur_len {
                            budget.tick()?;
                            let binding = &cur[r * stride..r * stride + stride];
                            let key = binding[key_var];
                            let (lo, hi) = match memo {
                                Some((k, range)) if k == key => range,
                                _ => {
                                    let range = rel.equal_range_col0(key);
                                    memo = Some((key, range));
                                    range
                                }
                            };
                            counters.scanned += (hi - lo) as u64;
                            for rr in lo..hi {
                                let row = row_at(words, arity, rr);
                                shape.offer(binding, row, &mut next, &mut next_len, budget)?;
                            }
                        }
                    }
                    // A merge planned against a relation that is no
                    // longer sorted (the plan outlived a mutation), or a
                    // filter access on a predicate atom: fall back to
                    // the always-correct probe on the first bound-able
                    // column 0 — correctness never depends on the plan.
                    PlannedAccess::SortMerge | PlannedAccess::Filter => {
                        let index = rel.column_index(0);
                        let key_var = args[0].0 as usize;
                        for r in 0..cur_len {
                            budget.tick()?;
                            let binding = &cur[r * stride..r * stride + stride];
                            let hits = index.probe(binding[key_var]);
                            counters.scanned += hits.len() as u64;
                            counters.index_hits += hits.len() as u64;
                            for &row_id in hits {
                                let row = row_at(words, arity, row_id as usize);
                                shape.offer(binding, row, &mut next, &mut next_len, budget)?;
                            }
                        }
                    }
                }
                cur_len = next_len;
                counters.bindings += cur_len as u64;
                std::mem::swap(&mut cur, &mut next);
            }
        }
        for v in clause.body[i].vars() {
            bound[v.0 as usize] = true;
        }
        counters.atom_rows.push(cur_len as u64);
    }
    let mut head_row: Row = vec![0u32; clause.head_args.len()];
    for r in 0..cur_len {
        budget.tick()?;
        counters.emitted += 1;
        let base = r * stride;
        for (j, &v) in clause.head_args.iter().enumerate() {
            let val = cur[base + v.0 as usize];
            debug_assert_ne!(val, UNBOUND, "head variable left unbound");
            head_row[j] = val;
        }
        emit(&head_row, budget)?;
    }
    Ok(())
}

/// Evaluates one clause along its plan, inserting derived head rows into
/// `out`. When tracing is on, the clause gets its own join span carrying
/// the [`JoinCounters`] plus the plan's estimated vs. actual output rows
/// (`est_rows` / `actual_rows`, for misestimation tracking).
#[allow(clippy::too_many_arguments)] // internal driver mirroring the kernel
fn eval_clause(
    program: &Program,
    db: &Database,
    idb: &[Relation],
    budget: &mut Budget,
    counters: &mut Counters,
    clause: &Clause,
    plan: &Result<JoinPlan, String>,
    out: &mut Relation,
    telem: &Telemetry<'_>,
    obs: Option<&mut JoinCounters>,
) -> Result<(), Halt> {
    let plan = plan.as_ref().map_err(|e| Halt::Unsafe(e.clone()))?;
    let span = telem.tracer.enabled().then(|| telem.span("clause"));
    let mut join = JoinCounters::default();
    let before = counters.per_pred[clause.head.0 as usize];
    let result = eval_clause_into(
        program,
        db,
        idb,
        budget,
        clause,
        plan,
        None,
        &mut join,
        &mut |row, budget| {
            if out.insert_if_new(row) {
                counters.generated += 1;
                counters.per_pred[clause.head.0 as usize] += 1;
                budget.charge_tuples(1)?;
            }
            Ok(())
        },
    );
    counters.bindings += join.bindings;
    if let Some(span) = &span {
        span.attr_str("head", &program.pred(clause.head).name);
        span.attr("rows_scanned", join.scanned);
        span.attr("index_hits", join.index_hits);
        span.attr("bindings", join.bindings);
        span.attr("rows_emitted", join.emitted);
        if plan.costed {
            span.attr("est_rows", plan.est_out.round().max(0.0) as u64);
            span.attr("actual_rows", join.emitted);
        }
        span.attr("tuples", (counters.per_pred[clause.head.0 as usize] - before) as u64);
        if let Err(halt) = &result {
            span.error(&format!("{halt:?}"));
        }
    }
    if let Some(obs) = obs {
        obs.absorb(&join);
    }
    result
}

/// The IDB predicates reachable from the goal through clause bodies.
pub(crate) fn reachable_from_goal(query: &NdlQuery) -> Vec<bool> {
    let mut reachable = vec![false; query.program.num_preds()];
    reachable[query.goal.0 as usize] = true;
    let mut stack = vec![query.goal];
    while let Some(p) = stack.pop() {
        for c in query.program.clauses_for(p) {
            for a in &c.body {
                if let BodyAtom::Pred(q, _) = a {
                    if !reachable[q.0 as usize] {
                        reachable[q.0 as usize] = true;
                        stack.push(*q);
                    }
                }
            }
        }
    }
    reachable
}

/// Evaluates `(Π, G)` over a pre-built [`Database`], materialising all
/// goal-reachable IDB predicates in dependency order (the naive strategy
/// the paper attributes to RDFox — every predicate of the program is
/// materialised in full, with no magic sets; unreachable predicates cannot
/// affect the answer and are skipped).
///
/// The database is shared: EDB column indexes built here stay cached for
/// later evaluations over the same data.
pub fn evaluate_on(
    query: &NdlQuery,
    db: &Database,
    opts: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    evaluate_on_budgeted(query, db, &mut opts.to_budget())
}

/// Like [`evaluate_on`], but draws on a caller-supplied [`Budget`] shared
/// with other pipeline stages: time, steps and tuples charged here count
/// against the same allowance as rewriting or chase construction.
pub fn evaluate_on_budgeted(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
) -> Result<EvalResult, EvalError> {
    evaluate_on_traced(query, db, budget, Telemetry::disabled())
}

/// Like [`evaluate_on_budgeted`], recording spans and metrics through
/// `telem`: one `eval` span with a `clause` child per clause evaluated
/// (join counters attached), plus `ndl_tuples_generated`,
/// `ndl_join_bindings_total` and `ndl_budget_ticks` counters when a
/// registry is present.
pub fn evaluate_on_traced(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    telem: Telemetry<'_>,
) -> Result<EvalResult, EvalError> {
    let span = telem.span("eval");
    span.attr_str("engine", "sequential");
    let ticks_before = budget.spent_steps();
    let qplan = plan_query(query, db);
    let mut bindings = 0;
    let result =
        evaluate_inner(query, db, budget, &telem.under(&span), &qplan, None, &mut bindings);
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
    if let Some(metrics) = telem.metrics {
        metrics.counter("ndl_tuples_generated").add(tuples as u64);
        metrics.counter("ndl_join_bindings_total").add(bindings);
        metrics.counter("ndl_budget_ticks").add(budget.spent_steps() - ticks_before);
    }
    result
}

/// Like [`evaluate_on_budgeted`], but also returning the accumulated
/// per-clause [`JoinCounters`] (indexed by clause position). The CLI's
/// costed `explain` uses this to print estimated vs. actual
/// cardinalities from one real evaluation.
pub(crate) fn evaluate_collecting(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    qplan: &QueryPlan,
) -> Result<(EvalResult, Vec<JoinCounters>), EvalError> {
    let mut obs = vec![JoinCounters::default(); query.program.clauses().len()];
    let res =
        evaluate_inner(query, db, budget, &Telemetry::disabled(), qplan, Some(&mut obs), &mut 0)?;
    Ok((res, obs))
}

fn evaluate_inner(
    query: &NdlQuery,
    db: &Database,
    budget: &mut Budget,
    telem: &Telemetry<'_>,
    qplan: &QueryPlan,
    mut obs: Option<&mut Vec<JoinCounters>>,
    bindings: &mut u64,
) -> Result<EvalResult, EvalError> {
    let start = Instant::now();
    let program = &query.program;
    let order = topological_order(program).ok_or(EvalError::Recursive)?;
    let reachable = reachable_from_goal(query);
    let mut idb: Vec<Relation> = program
        .pred_ids()
        .map(|p| match program.pred(p).kind {
            PredKind::Idb => Relation::new(program.pred(p).arity),
            _ => Relation::new(0),
        })
        .collect();
    let mut counters =
        Counters { generated: 0, per_pred: vec![0; program.num_preds()], bindings: 0 };
    let stats_at = |counters: &Counters, num_answers: usize, start: Instant| EvalStats {
        generated_tuples: counters.generated,
        num_answers,
        duration: start.elapsed(),
        per_predicate: counters.per_pred.clone(),
    };
    for p in order {
        if !reachable[p.0 as usize] {
            continue;
        }
        let mut out = Relation::new(program.pred(p).arity);
        for (ci, clause) in program.clauses().iter().enumerate() {
            if clause.head == p {
                if let Err(halt) = eval_clause(
                    program,
                    db,
                    &idb,
                    budget,
                    &mut counters,
                    clause,
                    &qplan.clauses[ci],
                    &mut out,
                    telem,
                    obs.as_deref_mut().map(|v| &mut v[ci]),
                ) {
                    *bindings = counters.bindings;
                    let goal_answers = counters.per_pred[query.goal.0 as usize];
                    return Err(halt_to_error(halt, stats_at(&counters, goal_answers, start)));
                }
            }
        }
        idb[p.0 as usize] = out;
    }
    *bindings = counters.bindings;
    let goal_rel = std::mem::replace(&mut idb[query.goal.0 as usize], Relation::new(0));
    let mut answers: Vec<Vec<ConstId>> =
        goal_rel.rows().map(|row| row.iter().copied().map(ConstId).collect()).collect();
    answers.sort();
    let stats = stats_at(&counters, answers.len(), start);
    Ok(EvalResult { answers, stats })
}

/// Evaluates `(Π, G)` over `data`, building a throwaway [`Database`] first.
///
/// Callers evaluating many queries over the same data should build the
/// [`Database`] once and use [`evaluate_on`], which shares the loaded
/// relations and their indexes across evaluations.
pub fn evaluate(
    query: &NdlQuery,
    data: &DataInstance,
    opts: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    let db = Database::new(data);
    evaluate_on(query, &db, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CVar, Clause};
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::Ontology;

    fn setup() -> (Ontology, DataInstance) {
        let o = parse_ontology("Class A\nClass B\nProperty R\nProperty S\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nS(c, d)\nA(b)\nA(c)\nB(d)\n", &o).unwrap();
        (o, d)
    }

    #[test]
    fn simple_join() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(x) ← R(x, y) ∧ A(y): answers a, b.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(1)])],
            num_vars: 2,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        let name = |c: ConstId| d.constant_name(c).to_owned();
        let names: Vec<String> = res.answers.iter().map(|t| name(t[0])).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(res.stats.num_answers, 2);
        assert_eq!(res.stats.generated_tuples, 2);
        assert_eq!(res.stats.per_predicate[g.0 as usize], 2);
        assert!(res.stats.duration > Duration::ZERO);
    }

    #[test]
    fn chained_idb_predicates() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let h = p.add_pred("H", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // H(x, z) ← R(x, y) ∧ R(y, z); G(x) ← H(x, z) ∧ S(z, w).
        p.add_clause(Clause {
            head: h,
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
            body: vec![
                BodyAtom::Pred(h, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(s, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers.len(), 1); // only a: R(a,b), R(b,c), S(c,d)
        assert_eq!(res.stats.generated_tuples, 2); // H(a,c) and G(a)
    }

    #[test]
    fn equality_atoms() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        // G(x, y) ← A(x) ∧ (x = y): diagonal over A.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(0), CVar(1))],
            num_vars: 2,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers.len(), 2);
        for t in &res.answers {
            assert_eq!(t[0], t[1]);
        }
    }

    #[test]
    fn top_predicate_is_active_domain() {
        let (o, d) = setup();
        let _ = o;
        let mut p = Program::new();
        let top = p.edb_top();
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(top, vec![CVar(0)])],
            num_vars: 1,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers.len(), d.num_individuals());
    }

    #[test]
    fn unsafe_equality_rejected() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(y) ← A(x) ∧ (y = z): y and z are never bound.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(1), CVar(2))],
            num_vars: 3,
        });
        let err = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::Unsafe(_)));
    }

    #[test]
    fn tuple_limit_enforced() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let opts = EvalOptions { max_tuples: Some(1), ..Default::default() };
        let err = evaluate(&NdlQuery::new(p, g), &d, &opts).unwrap_err();
        assert!(matches!(err, EvalError::TupleLimit(_)));
    }

    #[test]
    fn tuple_limit_carries_partial_stats() {
        let (o, d) = setup();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let h = p.add_pred("H", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // H copies R (2 tuples, within budget); G's join then trips the cap.
        p.add_clause(Clause {
            head: h,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(h, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let opts = EvalOptions { max_tuples: Some(3), ..Default::default() };
        let err = evaluate(&NdlQuery::new(p, g), &d, &opts).unwrap_err();
        match err {
            EvalError::TupleLimit(stats) => {
                assert_eq!(stats.generated_tuples, 2, "H was fully materialised");
                assert_eq!(stats.per_predicate[h.0 as usize], 2);
                assert_eq!(stats.per_predicate[g.0 as usize], 0);
            }
            other => panic!("expected TupleLimit, got {other:?}"),
        }
    }

    #[test]
    fn repeated_variable_in_atom() {
        let (o, _) = setup();
        let v = o.vocab();
        let d = parse_data("R(a, a)\nR(a, b)\n", &o).unwrap();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(x) ← R(x, x).
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(0)])],
            num_vars: 1,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers.len(), 1);
        assert_eq!(d.constant_name(res.answers[0][0]), "a");
    }

    #[test]
    fn shared_database_reused_across_evaluations() {
        let (o, d) = setup();
        let v = o.vocab();
        let db = Database::new(&d);
        let before = Database::build_count();
        for class in ["A", "B"] {
            let mut p = Program::new();
            let c = p.edb_class(v.get_class(class).unwrap(), v);
            let g = p.add_pred("G", 1, PredKind::Idb);
            p.add_clause(Clause {
                head: g,
                head_args: vec![CVar(0)],
                body: vec![BodyAtom::Pred(c, vec![CVar(0)])],
                num_vars: 1,
            });
            evaluate_on(&NdlQuery::new(p, g), &db, &EvalOptions::default()).unwrap();
        }
        assert_eq!(Database::build_count(), before, "evaluate_on must not rebuild");
    }

    // --- join_order edge cases -------------------------------------------

    #[test]
    fn join_order_rejects_never_bound_equality() {
        let clause = Clause {
            head: PredId(0),
            head_args: vec![],
            body: vec![BodyAtom::Eq(CVar(0), CVar(1))],
            num_vars: 2,
        };
        assert!(join_order(&clause).is_err());
    }

    #[test]
    fn join_order_counts_constants_as_bound() {
        // (x = a) seeds the bindings, so (y = x) becomes orderable.
        let clause = Clause {
            head: PredId(0),
            head_args: vec![CVar(1)],
            body: vec![BodyAtom::Eq(CVar(1), CVar(0)), BodyAtom::EqConst(CVar(0), ConstId(7))],
            num_vars: 2,
        };
        assert_eq!(join_order(&clause).unwrap(), vec![1, 0]);
    }

    #[test]
    fn join_order_prefers_constant_bound_atoms_on_ties() {
        // After the EqConst pins x and R(x, y) probes on it, P(x, u, w)
        // and Q(y, v, z) are equally bound (one bound, two unbound
        // variables each) — but P's bound variable is pinned to a
        // constant, so its probe touches a single key. The tie must
        // break towards P, not syntactic position (which would pick Q).
        let clause = Clause {
            head: PredId(3),
            head_args: vec![],
            body: vec![
                BodyAtom::EqConst(CVar(0), ConstId(1)),
                BodyAtom::Pred(PredId(0), vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(PredId(1), vec![CVar(0), CVar(2), CVar(3)]),
                BodyAtom::Pred(PredId(2), vec![CVar(1), CVar(4), CVar(5)]),
            ],
            num_vars: 6,
        };
        assert_eq!(join_order(&clause).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_order_propagates_constant_bounds_through_equalities() {
        // x0 = c, x1 = x0: x1 is constant-bound *transitively*, so the
        // ternary probing on x1 beats the equally-bound ternary probing
        // on the join-bound x2 (the old tie-break picked the later atom).
        let clause = Clause {
            head: PredId(3),
            head_args: vec![],
            body: vec![
                BodyAtom::EqConst(CVar(0), ConstId(1)),
                BodyAtom::Eq(CVar(1), CVar(0)),
                BodyAtom::Pred(PredId(0), vec![CVar(1), CVar(2)]),
                BodyAtom::Pred(PredId(1), vec![CVar(1), CVar(3), CVar(4)]),
                BodyAtom::Pred(PredId(2), vec![CVar(2), CVar(5), CVar(6)]),
            ],
            num_vars: 7,
        };
        assert_eq!(join_order(&clause).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_order_handles_all_equality_body() {
        // x = a, y = x, z = y: orderable front to back from the constant.
        let clause = Clause {
            head: PredId(0),
            head_args: vec![CVar(2)],
            body: vec![
                BodyAtom::EqConst(CVar(0), ConstId(3)),
                BodyAtom::Eq(CVar(1), CVar(0)),
                BodyAtom::Eq(CVar(2), CVar(1)),
            ],
            num_vars: 3,
        };
        assert_eq!(join_order(&clause).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn all_equality_clause_evaluates_from_constant() {
        let (o, d) = setup();
        let _ = o;
        let g_const = d.individuals().next().unwrap();
        let mut p = Program::new();
        let g = p.add_pred("G", 2, PredKind::Idb);
        // G(x, y) ← (x = a) ∧ (y = x): the single row (a, a).
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::EqConst(CVar(0), g_const), BodyAtom::Eq(CVar(1), CVar(0))],
            num_vars: 2,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers, vec![vec![g_const, g_const]]);
    }

    #[test]
    fn eq_const_filters_bound_variable() {
        let (o, d) = setup();
        let v = o.vocab();
        let b_const = d.individuals().find(|&c| d.constant_name(c) == "b").unwrap();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(x) ← A(x) ∧ (x = b): A = {b, c}, so only b survives.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::EqConst(CVar(0), b_const)],
            num_vars: 1,
        });
        let res = evaluate(&NdlQuery::new(p, g), &d, &EvalOptions::default()).unwrap();
        assert_eq!(res.answers, vec![vec![b_const]]);
    }
}
