//! Property tests for the storage-backed evaluators: the indexed engine
//! agrees with the seed hash-set reference engine on random nonrecursive
//! programs, the linear evaluator agrees with bottom-up over a single
//! shared [`Database`], and the parallel goal-directed engine agrees with
//! both at every thread count (override the counts under test with
//! `OBDA_TEST_THREADS=n1,n2,...`).

use obda_ndl::analysis::is_linear;
use obda_ndl::engine::{evaluate_engine_on, EngineConfig};
use obda_ndl::eval::{evaluate_on, EvalOptions};
use obda_ndl::explain::explain_plan_executed;
use obda_ndl::linear_eval::evaluate_linear_on;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredKind, Program};
use obda_ndl::reference::evaluate_reference;
use obda_ndl::storage::Database;
use obda_owlql::abox::DataInstance;
use obda_owlql::vocab::Vocab;
use obda_owlql::{ClassId, PropId};
use proptest::prelude::*;

const NUM_CLASSES: u32 = 3;
const NUM_PROPS: u32 = 2;
const NUM_IDB: usize = 3;

fn vocab() -> Vocab {
    let mut v = Vocab::new();
    for i in 0..NUM_CLASSES {
        v.class(&format!("A{i}"));
    }
    for i in 0..NUM_PROPS {
        v.prop(&format!("P{i}"));
    }
    v
}

fn build_data(atoms: &[(u8, u8, u8)]) -> DataInstance {
    let mut d = DataInstance::new();
    let cs: Vec<_> = (0..4).map(|i| d.constant(&format!("c{i}"))).collect();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            d.add_class_atom(ClassId((kind as u32 / 2) % NUM_CLASSES), cs[s as usize % 4]);
        } else {
            d.add_prop_atom(
                PropId((kind as u32 / 2) % NUM_PROPS),
                cs[s as usize % 4],
                cs[t as usize % 4],
            );
        }
    }
    d
}

/// One random clause: which IDB predicate it defines, its EDB atoms, an
/// optional single IDB body atom (kept strictly below the head so the
/// program is nonrecursive *and* linear by construction), and the head
/// projection.
type ClauseSpec = (u8, Vec<(u8, u8, u8)>, bool, u8, u8, u8);

/// Builds a random linear program over `A0..A2`, `P0..P1` with IDB chain
/// `G0, G1, G2` (all binary, `G2` the goal). Every variable appearing in a
/// clause occurs in a predicate atom, so every clause is safe.
fn build_program(specs: &[ClauseSpec]) -> NdlQuery {
    let v = vocab();
    let mut p = Program::new();
    let classes: Vec<_> = (0..NUM_CLASSES).map(|i| p.edb_class(ClassId(i), &v)).collect();
    let props: Vec<_> = (0..NUM_PROPS).map(|i| p.edb_prop(PropId(i), &v)).collect();
    let idbs: Vec<_> = (0..NUM_IDB)
        .map(|i| {
            if i + 1 == NUM_IDB {
                p.add_idb_with_params(format!("G{i}"), 2, 2)
            } else {
                p.add_pred(format!("G{i}"), 2, PredKind::Idb)
            }
        })
        .collect();
    for (head, edb_atoms, use_idb, idb_pick, hv1, hv2) in specs {
        let head_idx = *head as usize % NUM_IDB;
        let mut body = Vec::new();
        let mut used: Vec<u32> = Vec::new();
        let touch = |used: &mut Vec<u32>, v: u8| {
            let v = v as u32 % 4;
            if !used.contains(&v) {
                used.push(v);
            }
            CVar(v)
        };
        for &(kind, v1, v2) in edb_atoms {
            let atom = if kind % 5 < 3 {
                BodyAtom::Pred(classes[(kind % 3) as usize], vec![touch(&mut used, v1)])
            } else {
                BodyAtom::Pred(
                    props[(kind % 2) as usize],
                    vec![touch(&mut used, v1), touch(&mut used, v2)],
                )
            };
            body.push(atom);
        }
        // At most one IDB atom per clause, defined strictly earlier in the
        // chain: nonrecursive and linear by construction.
        if *use_idb && head_idx > 0 {
            let target = idbs[*idb_pick as usize % head_idx];
            body.push(BodyAtom::Pred(target, vec![touch(&mut used, *hv1), touch(&mut used, *hv2)]));
        }
        if body.is_empty() {
            continue;
        }
        // Heads project variables that occur in the body, keeping the
        // clause safe; remap the used variables to a contiguous range.
        used.sort_unstable();
        let remap: Vec<u32> = used.clone();
        let pos = |v: CVar| CVar(remap.iter().position(|&u| u == v.0).unwrap() as u32);
        for atom in &mut body {
            if let BodyAtom::Pred(_, args) = atom {
                for a in args.iter_mut() {
                    *a = pos(*a);
                }
            }
        }
        let h1 = CVar((*hv1 as usize % used.len()) as u32);
        let h2 = CVar((*hv2 as usize % used.len()) as u32);
        p.add_clause(Clause {
            head: idbs[head_idx],
            head_args: vec![h1, h2],
            body,
            num_vars: used.len() as u32,
        });
    }
    NdlQuery::new(p, idbs[NUM_IDB - 1])
}

/// One random clause for the projection tests: head pick, body atoms
/// `(kind, a, b, c)` and three head-variable picks. Kinds (mod 10): 0–1
/// a class atom, 2–4 a property atom (`a = b` repeats a variable), 5–6
/// an IDB atom of a lower predicate (repeats when picks coincide), 7–8
/// an equality `a = b`, 9 an equality with constant `#b`.
type ProjClauseSpec = (u8, Vec<(u8, u8, u8, u8)>, (u8, u8, u8));

/// Builds a random nonrecursive program over IDB predicates `H0..H3`
/// of arities `arities` (0 = Boolean; `H3` is the goal and defined by
/// the last clause), with up to five variables per clause, so
/// projections of every width occur — including the empty key of a
/// Boolean head and live sets of three slots. Equalities are kept only
/// when one side is bound, so every clause is safe.
fn build_projection_program(arities: &[usize], specs: &[ProjClauseSpec]) -> NdlQuery {
    let v = vocab();
    let mut p = Program::new();
    let classes: Vec<_> = (0..NUM_CLASSES).map(|i| p.edb_class(ClassId(i), &v)).collect();
    let props: Vec<_> = (0..NUM_PROPS).map(|i| p.edb_prop(PropId(i), &v)).collect();
    let idbs: Vec<_> = arities
        .iter()
        .enumerate()
        .map(|(i, &a)| (p.add_pred(format!("H{i}"), a, PredKind::Idb), a))
        .collect();
    let var = |x: u8| CVar(u32::from(x) % 5);
    let bind = |bound: &mut Vec<CVar>, vs: &[CVar]| {
        for &x in vs {
            if !bound.contains(&x) {
                bound.push(x);
            }
        }
    };
    for (n, (head, atoms, (h0, h1, h2))) in specs.iter().enumerate() {
        let head_idx =
            if n + 1 == specs.len() { idbs.len() - 1 } else { *head as usize % idbs.len() };
        let mut body = Vec::new();
        let mut bound: Vec<CVar> = Vec::new();
        // Predicate atoms and constant equalities bind unconditionally.
        for &(kind, a, b, c) in atoms {
            let atom = match kind % 10 {
                0..=1 => BodyAtom::Pred(classes[c as usize % classes.len()], vec![var(a)]),
                2..=4 => BodyAtom::Pred(props[c as usize % props.len()], vec![var(a), var(b)]),
                5..=6 if head_idx > 0 => {
                    let (target, arity) = idbs[c as usize % head_idx];
                    let picks = [var(a), var(b), var(a.wrapping_add(c))];
                    BodyAtom::Pred(target, picks[..arity].to_vec())
                }
                9 => BodyAtom::EqConst(var(a), obda_owlql::abox::ConstId(u32::from(b) % 5)),
                _ => continue,
            };
            bind(&mut bound, &atom.vars());
            body.push(atom);
        }
        // Variable equalities, each kept only if one side is bound.
        for &(kind, a, b, _) in atoms {
            if matches!(kind % 10, 7..=8) && (bound.contains(&var(a)) || bound.contains(&var(b))) {
                bind(&mut bound, &[var(a), var(b)]);
                body.push(BodyAtom::Eq(var(a), var(b)));
            }
        }
        let arity = idbs[head_idx].1;
        if body.is_empty() || (arity > 0 && bound.is_empty()) {
            continue;
        }
        let head_args: Vec<CVar> =
            [h0, h1, h2][..arity].iter().map(|&&h| bound[h as usize % bound.len()]).collect();
        p.add_clause(Clause { head: idbs[head_idx].0, head_args, body, num_vars: 5 });
    }
    NdlQuery::new(p, idbs[idbs.len() - 1].0)
}

/// Thread counts exercised by the differential tests: the
/// `OBDA_TEST_THREADS` environment variable (comma-separated, as set by the
/// CI matrix), or `1,2,4` by default.
fn test_threads() -> Vec<usize> {
    match std::env::var("OBDA_TEST_THREADS") {
        Ok(spec) => spec.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// A heavily skewed join column defeats the planner's uniformity
/// assumption — one hub key holds most of `P0`'s rows, so the per-key
/// estimate `rows/distinct` undershoots badly — yet the planned engine
/// still answers exactly like the syntactic order and the reference
/// engine, and the executed explain records the misestimation.
#[test]
fn skewed_columns_misestimate_but_stay_correct() {
    let v = vocab();
    let mut d = DataInstance::new();
    let hub = d.constant("hub");
    let t = d.constant("t");
    // P0 col 0: 10 distinct keys over 50 rows, 41 of them on `hub`.
    for i in 0..41 {
        let s = d.constant(&format!("s{i}"));
        d.add_prop_atom(PropId(0), hub, s);
    }
    for j in 0..9 {
        let k = d.constant(&format!("k{j}"));
        let u = d.constant(&format!("u{j}"));
        d.add_prop_atom(PropId(0), k, u);
    }
    // P1: a single row from the hub, so the plan scans P1 and probes P0
    // on its skewed first column.
    d.add_prop_atom(PropId(1), hub, t);

    let mut p = Program::new();
    let p0 = p.edb_prop(PropId(0), &v);
    let p1 = p.edb_prop(PropId(1), &v);
    let g = p.add_pred("G", 2, PredKind::Idb);
    p.add_clause(Clause {
        head: g,
        head_args: vec![CVar(1), CVar(2)],
        body: vec![
            BodyAtom::Pred(p0, vec![CVar(0), CVar(1)]),
            BodyAtom::Pred(p1, vec![CVar(0), CVar(2)]),
        ],
        num_vars: 3,
    });
    let q = NdlQuery::new(p, g);

    let db = Database::new(&d);
    let opts = EvalOptions::default();
    let reference = evaluate_reference(&q, &d, &opts).unwrap();
    assert_eq!(reference.answers.len(), 41, "all hub spokes join the single P1 row");
    for plan in [false, true] {
        let cfg = EngineConfig { threads: 2, plan, chunk_min_rows: 2, ..EngineConfig::default() };
        let res = evaluate_engine_on(&q, &db, &opts, &cfg).unwrap();
        assert_eq!(res.answers, reference.answers, "plan={plan}");
    }

    let (expl, result) =
        explain_plan_executed(&q, &db, &mut obda_budget::Budget::unlimited()).unwrap();
    assert_eq!(result.answers, reference.answers);
    let clause = &expl.strata[0].clauses[0];
    assert_eq!(clause.order.len(), 2);
    // The probe into the skewed column: estimated ~5 rows per key
    // (50 rows / 10 distinct), actually 41.
    let est = clause.est_rows[1];
    let actual = clause.actual_rows[1];
    assert_eq!(actual, 41);
    assert!(
        (actual as f64) >= 5.0 * est,
        "skew must make the uniform estimate undershoot: est={est}, actual={actual}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The parallel, goal-directed engine computes exactly the sequential
    /// indexed engine's answers (and thus the reference engine's — see
    /// `indexed_engine_agrees_with_reference`) on random programs, at every
    /// thread count, with and without relevance pruning; per-predicate
    /// statistics stay deterministic across thread counts.
    #[test]
    fn parallel_engine_agrees_with_sequential_and_reference(
        specs in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 1..4),
             any::<bool>(), 0u8..3, 0u8..4, 0u8..4),
            1..6,
        ),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..10),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let opts = EvalOptions::default();
        let sequential = evaluate_on(&q, &db, &opts).unwrap();
        let reference = evaluate_reference(&q, &data, &opts).unwrap();
        prop_assert_eq!(&sequential.answers, &reference.answers);
        for prune in [false, true] {
            let mut stats_fingerprint = None;
            for threads in test_threads() {
                let cfg = EngineConfig { threads, prune, chunk_min_rows: 2, ..EngineConfig::default() };
                let res = evaluate_engine_on(&q, &db, &opts, &cfg).unwrap();
                prop_assert_eq!(
                    &res.answers, &sequential.answers,
                    "threads={} prune={}", threads, prune
                );
                if !prune {
                    prop_assert_eq!(&res.stats.per_predicate, &sequential.stats.per_predicate);
                } else {
                    prop_assert!(res.stats.generated_tuples <= sequential.stats.generated_tuples);
                }
                let fp = (res.stats.generated_tuples, res.stats.per_predicate.clone());
                match &stats_fingerprint {
                    None => stats_fingerprint = Some(fp),
                    Some(prev) => prop_assert_eq!(
                        prev, &fp,
                        "stats must not depend on the thread count (prune={})", prune
                    ),
                }
            }
        }
    }

    /// Cost-based join planning is invisible in the results: on random
    /// programs the planned engine, the syntactic-order engine
    /// (`plan: false`) and the reference engine agree at every thread
    /// count, with identical generated-tuple accounting.
    #[test]
    fn planned_and_syntactic_engines_agree_with_reference(
        specs in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 1..4),
             any::<bool>(), 0u8..3, 0u8..4, 0u8..4),
            1..6,
        ),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..10),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let opts = EvalOptions::default();
        let reference = evaluate_reference(&q, &data, &opts).unwrap();
        for threads in test_threads() {
            let mut fingerprints = Vec::new();
            for plan in [false, true] {
                let cfg = EngineConfig {
                    threads, plan, chunk_min_rows: 2, ..EngineConfig::default()
                };
                let res = evaluate_engine_on(&q, &db, &opts, &cfg).unwrap();
                prop_assert_eq!(
                    &res.answers, &reference.answers,
                    "threads={} plan={}", threads, plan
                );
                fingerprints.push((res.stats.generated_tuples, res.stats.per_predicate.clone()));
            }
            prop_assert_eq!(
                &fingerprints[0], &fingerprints[1],
                "join order must not change the generated tuples (threads={})", threads
            );
        }
    }

    /// The indexed engine over the shared `Database` computes exactly the
    /// answers of the seed hash-set engine (which re-scans the
    /// `DataInstance` per call) — the refactor preserves semantics.
    #[test]
    fn indexed_engine_agrees_with_reference(
        specs in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 1..4),
             any::<bool>(), 0u8..3, 0u8..4, 0u8..4),
            1..6,
        ),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..10),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let opts = EvalOptions::default();
        let indexed = evaluate_on(&q, &db, &opts).unwrap();
        let reference = evaluate_reference(&q, &data, &opts).unwrap();
        prop_assert_eq!(&indexed.answers, &reference.answers);
        prop_assert_eq!(
            indexed.stats.num_answers,
            reference.stats.num_answers
        );
    }

    /// The projecting join kernel is invisible in the results: both
    /// engines, at every thread count and with outer scans split into
    /// one-row ranges, derive exactly the reference engine's answers and
    /// generated-tuple counts. The programs mix repeated variables,
    /// `Eq`/`EqConst`, Boolean heads and wide (3-slot) live sets.
    #[test]
    fn projecting_kernel_matches_reference(
        arities in prop::collection::vec(0usize..4, 4..5),
        specs in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u8..10, 0u8..5, 0u8..5, 0u8..5), 2..7),
             (0u8..5, 0u8..5, 0u8..5)),
            2..9,
        ),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 4..30),
    ) {
        let q = build_projection_program(&arities, &specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let opts = EvalOptions::default();
        let reference = evaluate_reference(&q, &data, &opts).unwrap();
        let sequential = evaluate_on(&q, &db, &opts).unwrap();
        prop_assert_eq!(&sequential.answers, &reference.answers);
        prop_assert_eq!(sequential.stats.generated_tuples, reference.stats.generated_tuples);
        prop_assert_eq!(&sequential.stats.per_predicate, &reference.stats.per_predicate);
        for threads in test_threads() {
            for plan in [false, true] {
                let cfg = EngineConfig { threads, prune: false, chunk_min_rows: 1, plan };
                let res = evaluate_engine_on(&q, &db, &opts, &cfg).unwrap();
                prop_assert_eq!(&res.answers, &reference.answers, "threads={} plan={}", threads, plan);
                prop_assert_eq!(
                    res.stats.generated_tuples, reference.stats.generated_tuples,
                    "threads={} plan={}", threads, plan
                );
                let pruned = EngineConfig { prune: true, ..cfg };
                let res = evaluate_engine_on(&q, &db, &opts, &pruned).unwrap();
                prop_assert_eq!(&res.answers, &reference.answers, "pruned threads={}", threads);
            }
        }
    }

    /// The linear reachability evaluator and bottom-up evaluation agree on
    /// random linear programs, both running over one shared `Database`.
    #[test]
    fn linear_evaluator_agrees_with_bottom_up(
        specs in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 1..4),
             any::<bool>(), 0u8..3, 0u8..4, 0u8..4),
            1..6,
        ),
        atoms in prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..10),
    ) {
        let q = build_program(&specs);
        prop_assert!(is_linear(&q.program), "generator must emit linear programs");
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let before = Database::build_count();
        let opts = EvalOptions::default();
        let bottom_up = evaluate_on(&q, &db, &opts).unwrap();
        let linear = evaluate_linear_on(&q, &db, &opts).unwrap();
        prop_assert_eq!(&bottom_up.answers, &linear.answers);
        prop_assert_eq!(Database::build_count(), before, "no hidden database rebuilds");
    }
}
