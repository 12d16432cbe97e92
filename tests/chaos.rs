//! Chaos suite (requires `--features faults`): deterministic fault
//! injection across every registered site, asserting the system-wide
//! robustness invariants:
//!
//! 1. **Never a wrong answer** — under arbitrary injected faults, a
//!    request returns either exactly the chase-oracle answer or a typed
//!    error.
//! 2. **Never an escaped panic** — injected panics (and the transient
//!    faults raised by unwinding) are always caught at an isolation
//!    boundary; nothing unwinds out of the public API.
//! 3. **The service survives** — the admission gate keeps accepting and
//!    answering after any number of consecutive failed requests.

use obda::budget::BudgetSpec;
use obda::faults::{site, FaultKind, FaultPlan, FaultSpec, Trigger};
use obda::ndl::engine::EngineConfig;
use obda::owlql::abox::ConstId;
use obda::{
    AttemptOutcome, ObdaError, ObdaSystem, OverloadConfig, QueryService, RetryPolicy,
    ServiceConfig, Strategy,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Duration;

const ONTOLOGY: &str = "Professor SubClassOf exists teaches\n\
                        exists teaches- SubClassOf Course\n";
const QUERY: &str = "q(x) :- teaches(x, y), Course(y)";
const DATA: &str = "Professor(ada)\nProfessor(bob)\nteaches(carol, logic)\nCourse(logic)\n";

/// Routes injected-fault panics to silence (they are the *point* of this
/// suite) while forwarding genuine panics — assertion failures included —
/// to the previous hook. The store's typed lazy-hydration panics
/// ("snapshot segment … failed to hydrate") are silenced too: the
/// corruption sweeps below raise them deliberately, thousands of times.
/// Installed once for the whole test binary.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let deliberate = p.downcast_ref::<obda::faults::FaultError>().is_some()
                || p.downcast_ref::<String>().is_some_and(|s| {
                    s.starts_with("injected panic at") || s.starts_with("snapshot segment ")
                });
            if !deliberate {
                prev(info);
            }
        }));
    });
}

/// Fault plans are process-global, so the tests of this binary run one at
/// a time: a test that computes its oracle or checks the disarmed path
/// while another test's plan is armed would see that plan's faults.
/// Every test holds this guard for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fast retry policy so full-sweep tests do not sleep their time away.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
        seed: 0x0bda_5eed,
    }
}

fn service(engine: Option<EngineConfig>) -> QueryService {
    let system = ObdaSystem::from_text(ONTOLOGY).unwrap();
    QueryService::new(
        system,
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 8,
            budget: BudgetSpec::unlimited(),
            retry: fast_retry(),
            engine,
            overload: OverloadConfig::default(),
        },
    )
}

fn engine_cfg(threads: usize) -> EngineConfig {
    EngineConfig { threads, prune: true, chunk_min_rows: 16, plan: true }
}

/// Runs one request under the *currently armed* plan and asserts the core
/// invariants: no escaped panic, and either the oracle answer or a typed
/// error. Returns whether the request succeeded.
fn assert_sound(svc: &QueryService, oracle: &[Vec<ConstId>], ctx: &str) -> bool {
    let query = svc.system().parse_query(QUERY).unwrap();
    let data = svc.system().parse_data(DATA).unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| svc.answer(&query, &data, Strategy::Tw)));
    let outcome = match caught {
        Ok(outcome) => outcome,
        Err(_) => panic!("{ctx}: a fault escaped every isolation boundary"),
    };
    match outcome {
        Ok(report) => match report.result() {
            Some(res) => {
                assert_eq!(res.answers, oracle, "{ctx}: wrong answers under faults");
                true
            }
            None => {
                let err = report.final_error();
                assert!(
                    err.is_some(),
                    "{ctx}: failed request must carry a typed error:\n{}",
                    report.report
                );
                false
            }
        },
        // The gate is idle in these tests, so only typed pipeline errors
        // may surface here.
        Err(e) => {
            assert!(
                matches!(
                    e,
                    ObdaError::Transient { .. } | ObdaError::Internal { .. } | ObdaError::Eval(_)
                ),
                "{ctx}: untyped service error {e}"
            );
            false
        }
    }
}

fn oracle() -> Vec<Vec<ConstId>> {
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let tuples = sys.certain_answers(&q, &d).tuples();
    assert!(!tuples.is_empty(), "the fixture must have answers");
    tuples
}

// ---------------------------------------------------------------------------
// Pinned-seed sweep: every site × kind × trigger × engine configuration.
// ---------------------------------------------------------------------------

#[test]
fn pinned_seed_sweep_is_sound_at_every_site() {
    let _serial = serial();
    quiet_injected_panics();
    let oracle = oracle();
    let services = [service(None), service(Some(engine_cfg(1))), service(Some(engine_cfg(4)))];
    for &seed in &[7u64, 42, 0x0bda_5eed] {
        for &site in site::ALL.iter() {
            for kind in [FaultKind::Transient, FaultKind::Panic] {
                for trigger in [
                    Trigger::Always,
                    Trigger::Nth(2),
                    Trigger::EveryNth(3),
                    Trigger::Probability(0.4),
                ] {
                    let plan = FaultPlan::new(seed).with(site, FaultSpec { kind, trigger });
                    for (i, svc) in services.iter().enumerate() {
                        let ctx = format!(
                            "seed={seed} site={site} kind={kind:?} trigger={trigger:?} svc={i}"
                        );
                        let guard = plan.install();
                        assert_sound(svc, &oracle, &ctx);
                        drop(guard);
                    }
                }
            }
        }
    }
    // Every service still answers correctly with all plans disarmed.
    for (i, svc) in services.iter().enumerate() {
        assert!(assert_sound(svc, &oracle, &format!("disarmed svc={i}")));
    }
}

// ---------------------------------------------------------------------------
// Retry semantics
// ---------------------------------------------------------------------------

#[test]
fn oneshot_transient_fault_is_retried_to_success_in_order() {
    let _serial = serial();
    quiet_injected_panics();
    let oracle = oracle();
    for threads in [1usize, 4] {
        let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
        let q = sys.parse_query(QUERY).unwrap();
        let d = sys.parse_data(DATA).unwrap();
        let plan = FaultPlan::new(1).with(
            site::ENGINE_CLAUSE_TASK,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Nth(1) },
        );
        let guard = plan.install();
        let report = sys.answer_with_fallback_policy(
            &q,
            &d,
            Strategy::Tw,
            &BudgetSpec::unlimited(),
            Some(&engine_cfg(threads)),
            &fast_retry(),
        );
        drop(guard);
        assert_eq!(report.winning_strategy(), Some(Strategy::Tw), "threads={threads}\n{report}");
        assert_eq!(report.result().unwrap().answers, oracle, "threads={threads}");
        // Attempt 0: the injected fault, typed and site-tagged. Attempt 1:
        // the successful retry of the *same* strategy, recorded in order.
        assert_eq!(report.num_retries(), 1, "threads={threads}\n{report}");
        assert_eq!(report.attempts[0].retry, 0);
        assert!(
            matches!(
                &report.attempts[0].outcome,
                AttemptOutcome::Transient { site } if site == site::ENGINE_CLAUSE_TASK
            ),
            "threads={threads}\n{report}"
        );
        assert_eq!(report.attempts[1].retry, 1);
        assert_eq!(report.attempts[1].strategy, Strategy::Tw);
        assert!(matches!(&report.attempts[1].outcome, AttemptOutcome::Success(_)));
    }
}

#[test]
fn injected_panics_are_never_retried() {
    let _serial = serial();
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::always(3, site::ENGINE_CLAUSE_TASK, FaultKind::Panic);
    let guard = plan.install();
    let report = sys.answer_with_fallback_policy(
        &q,
        &d,
        Strategy::Tw,
        &BudgetSpec::unlimited(),
        Some(&engine_cfg(4)),
        &fast_retry(),
    );
    drop(guard);
    assert!(report.winner.is_none());
    assert_eq!(report.num_retries(), 0, "panics are bugs, not resource problems:\n{report}");
    assert!(!report.all_exhausted(), "panics must not masquerade as budget trips");
    assert!(report
        .attempts
        .iter()
        .all(|a| matches!(&a.outcome, AttemptOutcome::Panicked { site, .. } if site == site::ENGINE_CLAUSE_TASK)));
    let err = report.final_error().unwrap();
    assert!(matches!(err, ObdaError::Internal { .. }), "got {err}");
}

#[test]
fn ladder_skips_strategies_whose_breaker_is_open() {
    let _serial = serial();
    use obda::BreakerConfig;
    quiet_injected_panics();
    let svc = QueryService::new(
        ObdaSystem::from_text(ONTOLOGY).unwrap(),
        ServiceConfig {
            max_concurrency: 2,
            max_queue: 8,
            budget: BudgetSpec::unlimited(),
            retry: fast_retry(),
            engine: Some(engine_cfg(1)),
            overload: OverloadConfig {
                breaker: Some(BreakerConfig {
                    window: 4,
                    threshold: 1,
                    cooldown: Duration::from_secs(60),
                    probes: 1,
                    seed: 1,
                }),
                ..OverloadConfig::default()
            },
        },
    );
    let q = svc.system().parse_query(QUERY).unwrap();
    let d = svc.system().parse_data(DATA).unwrap();

    // Round 1: every rung of the ladder panics (a breaker failure), so
    // every attempted strategy trips its breaker open.
    let guard = FaultPlan::always(3, site::ENGINE_CLAUSE_TASK, FaultKind::Panic).install();
    let stormy = svc.answer(&q, &d, Strategy::Tw).unwrap();
    drop(guard);
    assert!(!stormy.is_success());
    assert!(
        stormy.report.attempts.iter().all(|a| matches!(a.outcome, AttemptOutcome::Panicked { .. })),
        "{}",
        stormy.report
    );

    // Round 2, faults gone: the ladder fails fast — every rung is
    // recorded as Skipped, nothing evaluates, and the final error is
    // the typed breaker refusal, not a budget trip.
    let skipped = svc.answer(&q, &d, Strategy::Tw).unwrap();
    assert!(!skipped.is_success());
    assert!(
        !skipped.report.attempts.is_empty()
            && skipped
                .report
                .attempts
                .iter()
                .all(|a| matches!(a.outcome, AttemptOutcome::Skipped { .. })),
        "all rungs must be skipped while their breakers are open:\n{}",
        skipped.report
    );
    assert!(!skipped.report.all_exhausted(), "skips must not masquerade as budget trips");
    let err = skipped.report.final_error().unwrap();
    assert!(matches!(err, ObdaError::BreakerOpen { .. }), "got {err}");
    assert!(svc.metrics().counter("service_breaker_skipped_total_tw").get() >= 1);
}

#[test]
fn exhausted_retries_degrade_with_a_transient_error() {
    let _serial = serial();
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::always(5, site::ENGINE_CLAUSE_TASK, FaultKind::Transient);
    let guard = plan.install();
    let retry = fast_retry();
    let report = sys.answer_with_fallback_policy(
        &q,
        &d,
        Strategy::Tw,
        &BudgetSpec::unlimited(),
        Some(&engine_cfg(1)),
        &retry,
    );
    drop(guard);
    assert!(report.winner.is_none());
    // Every rung of the ladder: one first try plus max_retries retries.
    let per_strategy = 1 + retry.max_retries as usize;
    assert_eq!(report.attempts.len() % per_strategy, 0, "{report}");
    assert!(report.num_retries() > 0);
    for chunk in report.attempts.chunks(per_strategy) {
        for (i, a) in chunk.iter().enumerate() {
            assert_eq!(a.retry, i as u32, "retries recorded in order:\n{report}");
            assert_eq!(a.strategy, chunk[0].strategy);
        }
    }
    let err = report.final_error().unwrap();
    assert!(err.is_transient(), "got {err}");
}

#[test]
fn identical_plans_produce_identical_reports() {
    let _serial = serial();
    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let plan = FaultPlan::new(0xfeed).with(
        site::STORAGE_INSERT,
        FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Probability(0.3) },
    );
    let mut renders = Vec::new();
    for _ in 0..2 {
        let guard = plan.install();
        let report = sys.answer_with_fallback_policy(
            &q,
            &d,
            Strategy::Tw,
            &BudgetSpec::unlimited(),
            Some(&engine_cfg(1)),
            &fast_retry(),
        );
        drop(guard);
        // Strip the timing column: determinism covers outcomes, not clocks.
        let render: Vec<String> = report
            .to_string()
            .lines()
            .map(|l| l.split(" [").next().unwrap_or(l).to_owned())
            .collect();
        renders.push(render);
    }
    assert_eq!(renders[0], renders[1], "a reinstalled plan must replay identically");
}

// ---------------------------------------------------------------------------
// Telemetry under faults: injected failures must appear as error-tagged
// spans without corrupting the span tree.
// ---------------------------------------------------------------------------

#[test]
fn injected_faults_appear_as_error_tagged_spans() {
    let _serial = serial();
    use obda::{CollectingTracer, Telemetry};

    quiet_injected_panics();
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    for kind in [FaultKind::Transient, FaultKind::Panic] {
        let tracer = CollectingTracer::new();
        let plan = FaultPlan::always(21, site::ENGINE_CLAUSE_TASK, kind);
        let guard = plan.install();
        let report = sys.answer_with_fallback_traced(
            &q,
            &d,
            Strategy::Tw,
            &BudgetSpec::unlimited(),
            Some(&engine_cfg(4)),
            &fast_retry(),
            Telemetry::new(&tracer, None),
        );
        drop(guard);
        assert!(report.winner.is_none(), "{kind:?}: an always-fault cannot succeed");

        let tree = tracer.snapshot();
        // The unwind must not corrupt the tree: every span was closed (the
        // RAII guards run during unwinding), and both renderers still work.
        assert!(
            tree.iter().all(|s| s.ended),
            "{kind:?}: a fault left an unfinished span:\n{}",
            tree.render_pretty()
        );
        assert!(!tree.render_pretty().is_empty());
        assert!(tree.render_json().starts_with('['));

        // One attempt span per recorded ladder attempt, each error-tagged
        // with the outcome the report shows (none of them succeeded).
        let attempts: Vec<_> = tree.iter().filter(|s| s.name == "attempt").collect();
        assert_eq!(
            attempts.len(),
            report.attempts.len(),
            "{kind:?}: the trace and the report disagree on attempts:\n{}",
            tree.render_pretty()
        );
        assert!(
            attempts.iter().all(|s| s.error.is_some()),
            "{kind:?}: every failed attempt must be error-tagged:\n{}",
            tree.render_pretty()
        );
        // The injection site surfaces in the error tags.
        assert!(
            tree.iter()
                .filter_map(|s| s.error.as_deref())
                .any(|e| e.contains(site::ENGINE_CLAUSE_TASK)),
            "{kind:?}: no error tag names the faulted site:\n{}",
            tree.render_pretty()
        );
    }
}

// ---------------------------------------------------------------------------
// Service liveness under sustained failure
// ---------------------------------------------------------------------------

#[test]
fn service_keeps_answering_after_sustained_failures() {
    let _serial = serial();
    quiet_injected_panics();
    let oracle = oracle();
    let svc = service(Some(engine_cfg(1)));
    let query = svc.system().parse_query(QUERY).unwrap();
    let data = svc.system().parse_data(DATA).unwrap();
    let id = svc.prepare(&query, Strategy::Tw).unwrap();

    // Every data load faults: 60 consecutive requests fail with a typed
    // error, each leaving the gate clean.
    let plan = FaultPlan::always(11, site::STORAGE_INSERT, FaultKind::Transient);
    let guard = plan.install();
    for i in 0..60 {
        let report = svc.submit(id, &data).unwrap();
        assert!(!report.is_success(), "request {i} cannot succeed under an always-fault");
        let err = report.final_error().unwrap();
        assert!(err.is_transient(), "request {i}: got {err}");
        let (active, queued) = svc.load();
        assert_eq!((active, queued), (0, 0), "request {i} leaked a gate slot");
    }
    drop(guard);
    assert_eq!(svc.stats().failed, 60);

    // The very next request — same service, same prepared query — answers.
    let report = svc.submit(id, &data).unwrap();
    assert!(report.is_success(), "the service must answer after sustained failures");
    assert_eq!(report.result().unwrap().answers, oracle);
    assert_eq!(svc.stats().succeeded, 1);
}

#[test]
fn prepare_under_faults_fails_typed_then_recovers() {
    let _serial = serial();
    quiet_injected_panics();
    let svc = service(None);
    let query = svc.system().parse_query(QUERY).unwrap();
    let plan = FaultPlan::always(13, site::REWRITE_TREE_WITNESS, FaultKind::Panic);
    let guard = plan.install();
    let err = svc.prepare(&query, Strategy::Tw).unwrap_err();
    assert!(matches!(err, ObdaError::Internal { .. }), "got {err}");
    drop(guard);
    // Registration works once the fault is gone.
    assert!(svc.prepare(&query, Strategy::Tw).is_ok());
}

// ---------------------------------------------------------------------------
// Snapshot store chaos: injected faults on the `.obdb` open path, plus
// systematically truncated and bit-flipped files. The invariants mirror
// the pipeline's: typed errors, no escaped panics (except the deliberate
// injected-panic stand-in, which must unwind cleanly), full recovery
// once the fault is gone.
// ---------------------------------------------------------------------------

fn store_temp_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "obda-chaos-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes the fixture data as a snapshot and returns the system that owns
/// the vocabulary it was written against.
fn store_fixture(path: &std::path::Path) -> ObdaSystem {
    let sys = ObdaSystem::from_text(ONTOLOGY).unwrap();
    let data = sys.parse_data(DATA).unwrap();
    obda::write_snapshot(path, sys.ontology().vocab(), &data).unwrap();
    sys
}

#[test]
fn store_open_transient_fault_is_typed_then_recovers() {
    let _serial = serial();
    use obda::{Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(17, site::STORE_OPEN, FaultKind::Transient);
    let guard = plan.install();
    let err = Snapshot::open(&path, sys.ontology().vocab()).unwrap_err();
    assert!(matches!(&err, StoreError::Injected { site } if site == site::STORE_OPEN), "got {err}");
    drop(guard);

    // Disarmed, the very same file opens and answers exactly the oracle.
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let report =
        sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &BudgetSpec::unlimited());
    assert_eq!(
        report.result().expect("recovered open must answer").answers,
        sys.certain_answers(&q, &d).tuples()
    );
}

#[test]
fn store_open_injected_panic_unwinds_cleanly() {
    let _serial = serial();
    use obda::Snapshot;

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(19, site::STORE_OPEN, FaultKind::Panic);
    let guard = plan.install();
    // The store deliberately re-raises injected *panics* (they model bugs,
    // not I/O failures) so the caller's isolation boundary is exercised;
    // the unwind must not poison the file or the vocabulary.
    let caught = catch_unwind(AssertUnwindSafe(|| Snapshot::open(&path, sys.ontology().vocab())));
    assert!(caught.is_err(), "an always-panic plan must unwind out of open");
    drop(guard);
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(snap.database().num_atoms() > 0);
}

/// Every truncation point and a sweep of single-bit flips, against both
/// hydration modes. The invariant is *never a wrong tuple, never an
/// untyped escape*:
///
/// * any truncation fails typed at open, even lazily — every declared
///   byte range is pre-validated against the mapped length, so a short
///   file can never SIGBUS a later column touch;
/// * a bit flip either fails typed (at open, or — lazily — as the typed
///   "failed to hydrate" panic on first touch, which the pipeline's
///   isolation boundary catches) or lands in dead padding bytes, in
///   which case the decoded instance must be byte-identical to the
///   original.
#[test]
fn truncated_and_bit_flipped_snapshots_fail_typed() {
    let _serial = serial();
    use obda::{Hydration, Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let original = std::fs::read(&path).unwrap();
    let expected = sys.parse_data(DATA).unwrap().to_text(sys.ontology());

    let assert_typed = |err: &StoreError, ctx: &str| {
        assert!(
            !matches!(err, StoreError::Injected { .. } | StoreError::Io(_)),
            "{ctx}: corruption must surface as a format error, got {err}"
        );
    };
    // Opens the corrupted bytes and decodes every segment (the instance
    // reconstruction touches all of them). Returns whether anything
    // succeeded end to end — in which case the data must be pristine.
    let open_and_touch = |bytes: &[u8], mode: Hydration, ctx: &str| -> bool {
        std::fs::write(&path, bytes).unwrap();
        let vocab = sys.ontology().vocab();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match mode {
                Hydration::Eager => Snapshot::open_eager(&path, vocab),
                Hydration::Lazy => Snapshot::open(&path, vocab),
            }
            .map(|snap| snap.data_instance().to_text(sys.ontology()))
        }));
        match caught {
            Ok(Ok(text)) => {
                assert_eq!(text, expected, "{ctx}: corrupted bytes decoded to wrong data");
                true
            }
            Ok(Err(err)) => {
                assert_typed(&err, ctx);
                false
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .unwrap_or_else(|| panic!("{ctx}: untyped panic payload"));
                assert!(
                    msg.contains("failed to hydrate"),
                    "{ctx}: panic must be the typed hydration message, got: {msg}"
                );
                assert!(
                    matches!(mode, Hydration::Lazy),
                    "{ctx}: the eager open must never panic on corruption"
                );
                false
            }
        }
    };

    // Truncations fail typed at open in both modes — lazy included,
    // because range pre-validation runs before any segment is touched.
    for len in 0..original.len() {
        for mode in [Hydration::Lazy, Hydration::Eager] {
            let ctx = format!("truncated to {len} bytes ({mode:?})");
            std::fs::write(&path, &original[..len]).unwrap();
            let vocab = sys.ontology().vocab();
            let caught = catch_unwind(AssertUnwindSafe(|| match mode {
                Hydration::Eager => Snapshot::open_eager(&path, vocab),
                Hydration::Lazy => Snapshot::open(&path, vocab),
            }));
            let result = caught.unwrap_or_else(|_| panic!("{ctx}: open panicked"));
            let err = result.err().unwrap_or_else(|| panic!("{ctx}: truncated snapshot opened"));
            assert_typed(&err, &ctx);
        }
    }
    // Bit flips: typed failure or provably-harmless (dead padding).
    for pos in (0..original.len()).step_by(7) {
        for bit in [0u8, 3, 7] {
            let mut flipped = original.clone();
            flipped[pos] ^= 1 << bit;
            for mode in [Hydration::Lazy, Hydration::Eager] {
                open_and_touch(&flipped, mode, &format!("bit {bit} at byte {pos} ({mode:?})"));
            }
        }
    }

    // The pristine bytes still open: corruption detection has no memory.
    assert!(open_and_touch(&original, Hydration::Lazy, "pristine bytes"));
    std::fs::remove_file(&path).ok();
}

/// The `store::map` site: a transient fault at the mapping boundary is
/// the typed [`StoreError::Injected`] — lazy and eager alike — and the
/// very same file maps and answers once the plan is disarmed.
#[test]
fn store_map_transient_fault_is_typed_then_recovers() {
    let _serial = serial();
    use obda::{Snapshot, StoreError};

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let plan = FaultPlan::always(23, site::STORE_MAP, FaultKind::Transient);
    let guard = plan.install();
    for open in [Snapshot::open, Snapshot::open_eager] {
        let err = open(&path, sys.ontology().vocab()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Injected { site } if site == site::STORE_MAP),
            "got {err}"
        );
    }
    drop(guard);

    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    let q = sys.parse_query(QUERY).unwrap();
    let d = sys.parse_data(DATA).unwrap();
    let report =
        sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &BudgetSpec::unlimited());
    assert_eq!(
        report.result().expect("recovered map must answer").answers,
        sys.certain_answers(&q, &d).tuples()
    );
}

/// A corrupted segment reached through the *pipeline* (not a direct
/// touch): the lazy hydration panic is caught at the pipeline's
/// isolation boundary and recorded as a typed internal error — never an
/// escaped unwind, never a wrong answer.
#[test]
fn lazy_hydration_panic_is_isolated_by_the_pipeline() {
    let _serial = serial();
    use obda::Snapshot;

    quiet_injected_panics();
    let path = store_temp_path();
    let sys = store_fixture(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte in the first data block: page-aligned after the
    // header, so file offset 4096 is segment data, not metadata.
    assert!(bytes.len() > 4096, "fixture must have a page-aligned data region");
    bytes[4096] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let snap = Snapshot::open(&path, sys.ontology().vocab()).expect("lazy open reads only meta");
    std::fs::remove_file(&path).ok();
    let q = sys.parse_query(QUERY).unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &BudgetSpec::unlimited())
    }));
    let report = caught.expect("the hydration panic must not escape the pipeline");
    assert!(report.result().is_none(), "corrupted segments cannot produce answers");
    assert!(
        report.attempts.iter().any(|a| matches!(
            &a.outcome,
            AttemptOutcome::Panicked { payload, .. } if payload.contains("failed to hydrate")
        )),
        "the typed hydration panic must surface in the report:\n{report}"
    );
}

// ---------------------------------------------------------------------------
// Property-based chaos: arbitrary plans over arbitrary sites.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// For an arbitrary seeded plan over any site, kind and trigger, at
    /// one or four engine threads (or the sequential evaluator), the
    /// system returns either the oracle answer or a typed error — never a
    /// wrong answer, never an escaped panic.
    #[test]
    fn arbitrary_fault_plans_are_sound(
        seed in any::<u64>(),
        site_idx in 0usize..site::ALL.len(),
        panic_kind in any::<bool>(),
        trigger_sel in 0u8..4,
        n in 1u64..5,
        p_mil in 0u32..1000,
        engine_sel in 0u8..3,
    ) {
        let _serial = serial();
        quiet_injected_panics();
        let oracle = oracle();
        let kind = if panic_kind { FaultKind::Panic } else { FaultKind::Transient };
        let trigger = match trigger_sel {
            0 => Trigger::Always,
            1 => Trigger::Nth(n),
            2 => Trigger::EveryNth(n),
            _ => Trigger::Probability(f64::from(p_mil) / 1000.0),
        };
        let engine = match engine_sel {
            0 => None,
            1 => Some(engine_cfg(1)),
            _ => Some(engine_cfg(4)),
        };
        let svc = service(engine);
        let fault_site = site::ALL[site_idx];
        let plan = FaultPlan::new(seed)
            .with(fault_site, FaultSpec { kind, trigger });
        let ctx = format!(
            "seed={seed} site={fault_site} kind={kind:?} trigger={trigger:?} engine={engine_sel}"
        );
        let guard = plan.install();
        assert_sound(&svc, &oracle, &ctx);
        drop(guard);
        // And the same service answers correctly immediately afterwards.
        prop_assert!(assert_sound(&svc, &oracle, &format!("{ctx} (disarmed)")));
    }
}
