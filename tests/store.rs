//! Differential tests for the snapshot store: an `.obdb`-backed
//! [`StorageBackend`] must be answer-for-answer indistinguishable from
//! the in-memory parse path, and both must match the chase oracle — on
//! the paper's own Table-2 workload (Appendix D.2), scaled down so the
//! oracle stays cheap.
//!
//! The chain pinned here is `snapshot ≡ memory ≡ oracle`, closed over
//! every Table-2 dataset, the fallback ladder, the parallel engine and
//! the query service.

use obda::budget::Budget;
use obda::budget::BudgetSpec;
use obda::datagen::erdos::TABLE_2;
use obda::datagen::sequences::{example_11_ontology, word_query};
use obda::ndl::engine::EngineConfig;
use obda::ndl::eval::EvalError;
use obda::owlql::abox::DataInstance;
use obda::{
    read_info, write_snapshot, AttemptOutcome, Hydration, MemoryBackend, ObdaError, ObdaSystem,
    QueryService, ServiceConfig, Snapshot, StorageBackend, StoreError, Strategy, Telemetry,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Small enough that the chase oracle answers in milliseconds, large
/// enough that every dataset has edges, markers and nonempty answers.
const SCALE: f64 = 0.003;

/// Query words over `{R, S}`: the shortest prefixes of Sequence 1 plus
/// two `S`-leading words, so both the concrete `R`-part and the
/// anonymous-witness `S`-part of the rewriting are exercised.
const WORDS: [&str; 5] = ["R", "S", "RR", "SR", "RRS"];

fn temp_path() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "obda-store-diff-{}-{}.obdb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn paper_system() -> ObdaSystem {
    ObdaSystem::new(example_11_ontology())
}

fn table2_dataset(sys: &ObdaSystem, idx: usize) -> DataInstance {
    TABLE_2[idx].scaled(SCALE).generate(sys.ontology())
}

/// Opens `path` with every segment hydrated at open (`--eager`).
fn eager_open(path: &Path, sys: &ObdaSystem) -> Result<Snapshot, StoreError> {
    let vocab = sys.ontology().vocab();
    Snapshot::open_with(
        path,
        vocab,
        &mut Budget::unlimited(),
        Telemetry::disabled(),
        Hydration::Eager,
    )
}

/// Writes `data` to a fresh temp snapshot and reopens it.
fn snapshot_of(sys: &ObdaSystem, data: &DataInstance) -> Snapshot {
    let path = temp_path();
    write_snapshot(&path, sys.ontology().vocab(), data).unwrap();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).unwrap();
    std::fs::remove_file(&path).ok();
    snap
}

/// The tentpole differential: on every Table-2 dataset and every query
/// word, the snapshot-backed ladder, the parse-backed ladder and the
/// chase oracle produce identical answer sets.
#[test]
fn table2_snapshot_memory_and_oracle_agree() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    for idx in 0..TABLE_2.len() {
        let data = table2_dataset(&sys, idx);
        assert!(data.num_atoms() > 0, "dataset {idx} is empty at scale {SCALE}");
        let snap = snapshot_of(&sys, &data);
        for word in WORDS {
            let q = word_query(sys.ontology(), word);
            let oracle = sys.certain_answers(&q, &data).tuples();
            let memory = sys.answer_with_fallback(&q, &data, Strategy::Tw, &spec);
            let backed = sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &spec);
            assert_eq!(
                memory.result().map(|r| &r.answers),
                Some(&oracle),
                "dataset {idx} word {word}: parse path vs oracle"
            );
            assert_eq!(
                backed.result().map(|r| &r.answers),
                Some(&oracle),
                "dataset {idx} word {word}: snapshot path vs oracle"
            );
        }
    }
}

/// The parallel engine runs the same hot path on a snapshot database as
/// on a parsed one: identical answers at one and four threads.
#[test]
fn parallel_engine_on_snapshot_matches_oracle() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 0);
    let snap = snapshot_of(&sys, &data);
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = sys.certain_answers(&q, &data).tuples();
        for threads in [1usize, 4] {
            let cfg = EngineConfig { threads, ..EngineConfig::default() };
            let res = sys
                .answer_with_budget_engine_backend_traced(
                    &q,
                    &snap,
                    Strategy::Tw,
                    &spec,
                    &cfg,
                    obda::Telemetry::disabled(),
                )
                .unwrap();
            assert_eq!(res.answers, oracle, "threads={threads} word={word}");
        }
    }
}

/// The service's backend entry points answer exactly like its parse
/// entry points, for both prepared (`submit_backend`) and one-shot
/// (`answer_backend`) requests.
#[test]
fn service_backend_requests_match_parse_requests() {
    let sys = paper_system();
    let data = table2_dataset(&sys, 1);
    let snap = snapshot_of(&sys, &data);
    let svc = QueryService::new(
        sys,
        ServiceConfig { max_concurrency: 2, max_queue: 4, ..ServiceConfig::default() },
    );
    let q = word_query(svc.system().ontology(), "RS");
    let id = svc.prepare(&q, Strategy::Tw).unwrap();

    let parsed = svc.submit(id, &data).unwrap();
    let backed = svc.submit_backend(id, &snap).unwrap();
    let answers = parsed.result().expect("parse path answers").answers.clone();
    assert_eq!(backed.result().expect("snapshot path answers").answers, answers);

    let oneshot = svc.answer_backend(&q, &snap, Strategy::Tw).unwrap();
    assert_eq!(oneshot.result().expect("one-shot answers").answers, answers);
    assert_eq!(svc.stats().succeeded, 3);
}

/// `MemoryBackend` gives parsed data the same seam as snapshots: the
/// backend-routed ladder equals the parse-routed ladder, and the two
/// backend kinds agree on every accessor the pipeline uses.
#[test]
fn memory_backend_is_the_parse_path_behind_the_seam() {
    let sys = paper_system();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 2);
    let snap = snapshot_of(&sys, &data);
    let mem = MemoryBackend::new(data.clone());
    assert_eq!(mem.kind(), "memory");
    assert_eq!(snap.kind(), "snapshot");
    assert_eq!(mem.database().num_atoms(), snap.database().num_atoms());
    for c in data.individuals() {
        assert_eq!(mem.constant_name(c), snap.constant_name(c), "dictionary ids must agree");
    }
    assert_eq!(
        snap.data_instance().to_text(sys.ontology()),
        data.to_text(sys.ontology()),
        "the lazy instance view must reconstruct the original"
    );
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let via_mem = sys.answer_with_fallback_backend(&q, &mem, Strategy::Tw, &spec);
        let via_parse = sys.answer_with_fallback(&q, &data, Strategy::Tw, &spec);
        assert_eq!(
            via_mem.result().map(|r| &r.answers),
            via_parse.result().map(|r| &r.answers),
            "word {word}"
        );
    }
}

/// The mmap differential on the one on-disk layout: the lazily
/// hydrated open (`--mmap`, the default), the eager A/B open (`--eager`)
/// and the in-memory backend of the *same* instance answer exactly the
/// chase oracle through the fallback ladder — and the lazy open never
/// hydrates more than the eager one.
#[test]
fn lazy_eager_and_every_layout_agree_with_oracle() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let spec = BudgetSpec::unlimited();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let lazy = Snapshot::open(&path, vocab).unwrap();
    let eager = eager_open(&path, &sys).unwrap();
    std::fs::remove_file(&path).ok();
    let memory = MemoryBackend::new(data.clone());
    let backends: [(&str, &dyn StorageBackend); 3] =
        [("lazy", &lazy), ("eager", &eager), ("memory", &memory)];
    for word in WORDS {
        let q = word_query(sys.ontology(), word);
        let oracle = sys.certain_answers(&q, &data).tuples();
        for (mode, backend) in backends {
            let report = sys.answer_with_fallback_backend(&q, backend, Strategy::Tw, &spec);
            assert_eq!(report.result().map(|r| &r.answers), Some(&oracle), "{mode} word {word}");
        }
    }
    assert!(
        lazy.bytes_touched() <= eager.bytes_touched(),
        "lazy hydration ({}) must not exceed the eager footprint ({})",
        lazy.bytes_touched(),
        eager.bytes_touched()
    );
    assert_eq!(
        lazy.resident_bytes(),
        Some(lazy.bytes_touched()),
        "the backend seam must export the hydrated footprint"
    );
}

/// Lazy hydration through the query service: prepared and one-shot
/// backend requests over a lazily opened snapshot answer exactly like
/// the eagerly opened one, and only the touched columns hydrate.
#[test]
fn service_requests_hydrate_lazily_and_match_eager() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 2);
    let path = temp_path();
    write_snapshot(&path, vocab, &data).unwrap();
    let lazy = Snapshot::open(&path, vocab).unwrap();
    let eager = eager_open(&path, &sys).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(lazy.columns_touched(), 0, "opening alone must hydrate nothing");

    let svc = QueryService::new(
        sys,
        ServiceConfig { max_concurrency: 2, max_queue: 4, ..ServiceConfig::default() },
    );
    let q = word_query(svc.system().ontology(), "RS");
    let id = svc.prepare(&q, Strategy::Tw).unwrap();
    let via_lazy = svc.submit_backend(id, &lazy).unwrap();
    let via_eager = svc.submit_backend(id, &eager).unwrap();
    assert_eq!(
        via_lazy.result().expect("lazy answers").answers,
        via_eager.result().expect("eager answers").answers,
    );
    let oneshot = svc.answer_backend(&q, &lazy, Strategy::Tw).unwrap();
    assert_eq!(
        oneshot.result().expect("one-shot answers").answers,
        via_eager.result().expect("eager answers").answers,
    );
    assert!(lazy.columns_touched() > 0, "answering must have hydrated the joined columns");
    assert!(
        lazy.bytes_touched() <= eager.bytes_touched(),
        "the service path must not hydrate past the full footprint"
    );
}

/// The unpruned engine (`--no-prune`, the configuration of the paper's
/// Tables 3–5) hydrates a lazily opened snapshot once, before any join
/// starts — one `hydrate` span ahead of the `eval` span — instead of
/// faulting columns in one at a time inside the clause tasks, and answers
/// exactly like the memory backend.
#[test]
fn unpruned_engine_hydrates_a_lazy_snapshot_up_front() {
    use obda::budget::Budget;
    use obda::ndl::engine::evaluate_engine_on_traced;
    use obda::{CollectingTracer, Telemetry};

    let sys = paper_system();
    let data = table2_dataset(&sys, 3);
    let lazy = snapshot_of(&sys, &data);
    let mem = MemoryBackend::new(data);
    let cfg = EngineConfig { threads: 1, prune: false, ..EngineConfig::default() };
    let q = word_query(sys.ontology(), "RRS");
    let rewriting = sys.rewrite(&q, Strategy::Tw).unwrap();
    assert_eq!(lazy.columns_touched(), 0, "opening alone must hydrate nothing");

    let tracer = CollectingTracer::new();
    let res = evaluate_engine_on_traced(
        &rewriting,
        lazy.database(),
        &mut Budget::unlimited(),
        &cfg,
        Telemetry::new(&tracer, None),
    )
    .unwrap();
    let tree = tracer.snapshot();
    let hydrates: Vec<_> = tree.iter().filter(|s| s.name == "hydrate").collect();
    assert_eq!(hydrates.len(), 1, "one hydrate span:\n{}", tree.render_pretty());
    assert!(hydrates[0].attr("relations").is_some_and(|n| n > 0));
    let roots: Vec<&str> = tree.roots.iter().map(|s| s.name).collect();
    assert_eq!(roots, ["hydrate", "eval"], "hydration precedes the joins");
    assert!(lazy.columns_touched() > 0);

    let expected = evaluate_engine_on_traced(
        &rewriting,
        mem.database(),
        &mut Budget::unlimited(),
        &cfg,
        Telemetry::disabled(),
    )
    .unwrap();
    assert!(!expected.answers.is_empty(), "the fixture must have answers");
    assert_eq!(res.answers, expected.answers);
    assert_eq!(res.stats.generated_tuples, expected.stats.generated_tuples);
}

/// `ServiceConfig { engine: None, .. }` means the default engine on both
/// service paths: the fallback ladder (`answer_backend`) and the prepared
/// hot path (`execute_prepared_backend_traced`) return the same answers
/// and generated-tuple counts with `None` as with
/// `Some(EngineConfig::default())`. Relevance pruning halves the tuples
/// the Tw rewriting of `RS` generates here, so an unpruned evaluation on
/// either path would stand out.
#[test]
fn engine_none_is_the_default_engine_on_both_service_paths() {
    use obda::budget::Budget;
    use obda::Telemetry;

    let sys = paper_system();
    let data = table2_dataset(&sys, 3);
    let snap = snapshot_of(&sys, &data);
    let q = word_query(sys.ontology(), "RS");
    let prepared = sys.prepare(&q, Strategy::Tw).unwrap();
    let pruning = prepared.prune_stats();
    assert!(pruning.preds_after < pruning.preds_before, "pruning must drop predicates");
    let unpruned = EngineConfig { threads: 1, prune: false, ..EngineConfig::default() };
    let naive =
        prepared.execute_engine_budgeted(snap.database(), &mut Budget::unlimited(), &unpruned);
    let naive = naive.unwrap().stats.generated_tuples;

    let mut runs = Vec::new();
    for engine in [None, Some(EngineConfig::default())] {
        let svc = QueryService::new(
            paper_system(),
            ServiceConfig { engine: engine.clone(), ..ServiceConfig::default() },
        );
        let ladder = svc.answer_backend(&q, &snap, Strategy::Tw).unwrap();
        assert_eq!(ladder.report.winning_strategy(), Some(Strategy::Tw), "engine={engine:?}");
        let ladder = ladder.result().expect("ladder answers").clone();
        let hot = svc
            .execute_prepared_backend_traced(
                &prepared,
                &snap,
                &BudgetSpec::unlimited(),
                Telemetry::disabled(),
            )
            .unwrap()
            .result;
        runs.push((format!("{engine:?} ladder"), ladder));
        runs.push((format!("{engine:?} prepared"), hot));
    }
    let (_, first) = &runs[0];
    assert!(!first.answers.is_empty(), "the fixture must have answers");
    assert!(first.stats.generated_tuples < naive, "pruning must save tuples here");
    for (ctx, run) in &runs {
        assert_eq!(run.answers, first.answers, "{ctx}");
        assert_eq!(run.stats.generated_tuples, first.stats.generated_tuples, "{ctx}");
    }
}

/// `read_info` (the `dbinfo` entry point) reports the structure the
/// writer recorded, without loading any segment data.
#[test]
fn read_info_matches_the_written_snapshot() {
    let sys = paper_system();
    let data = table2_dataset(&sys, 3);
    let path = temp_path();
    let written = write_snapshot(&path, sys.ontology().vocab(), &data).unwrap();
    let info = read_info(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(info.num_consts, data.num_individuals());
    assert_eq!(info.num_atoms as usize, data.num_atoms());
    assert_eq!(info.num_consts, written.num_consts);
    assert_eq!(info.num_atoms, written.num_atoms);
    assert_eq!(info.relations.len(), written.relations.len());
    assert_eq!(info.relations.iter().map(|r| r.rows).sum::<u64>(), info.num_atoms);
}

fn run_dbinfo(path: &std::path::Path) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obda"))
        .arg("dbinfo")
        .arg(path)
        .output()
        .unwrap();
    (
        out.status.code().expect("dbinfo must exit, not die on a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pins `obda dbinfo`'s flag reporting: known bits are printed by name,
/// an unknown-but-optional bit from a future writer is called out as
/// tolerated (and still exits 0), and an unknown *required* bit — the
/// retired footer bit 2 among them — refuses with the snapshot exit code.
#[test]
fn dbinfo_prints_known_and_unknown_flags_layout_and_index_source() {
    let sys = paper_system();
    let vocab = sys.ontology().vocab();
    let data = table2_dataset(&sys, 0);
    let path = temp_path();

    // The writer: stats + indexes, no unknown bits.
    write_snapshot(&path, vocab, &data).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("(known: stats, indexes)"), "stdout: {out}");
    assert!(!out.contains("unknown:"), "no unknown bits to report: {out}");
    for retired in ["layout:", "stats:", "indexes:"] {
        assert!(!out.contains(retired), "one layout, nothing to report: {out}");
    }

    // An unknown *optional* (upper-half) flag bit — a future writer's
    // hint — is tolerated and reported. Flags live at header bytes 8..12.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[10] |= 0x02; // bit 17
    std::fs::write(&path, &bytes).unwrap();
    let (code, out, err) = run_dbinfo(&path);
    assert_eq!(code, 0, "optional bits must not refuse the file, stderr: {err}");
    assert!(out.contains("unknown: 0x00020000"), "stdout: {out}");
    assert!(out.contains("optional bits tolerated"), "stdout: {out}");
    assert!(out.contains("(known: stats, indexes;"), "known names still print: {out}");

    // Unknown *required* (lower-half) bits refuse with the snapshot exit
    // code (3): bit 3, and bit 2 (the retired footer form).
    let mut base = std::fs::read(&path).unwrap();
    base[10] &= !0x02;
    for bit in [0x08u8, 0x04] {
        let mut bytes = base.clone();
        bytes[8] |= bit;
        std::fs::write(&path, &bytes).unwrap();
        let (code, _, err) = run_dbinfo(&path);
        assert_eq!(code, 3, "unknown required bits are incompatibility, stderr: {err}");
        assert!(err.contains("unknown required flags"), "stderr: {err}");
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Corruption found at hydration is a typed error on every path.
// ---------------------------------------------------------------------

const CORRUPT_ONTOLOGY: &str = "Professor SubClassOf exists teaches\n\
                                exists teaches- SubClassOf Course\n";
const CORRUPT_QUERY: &str = "q(x) :- teaches(x, y), Course(y)";
const CORRUPT_DATA: &str =
    "Professor(ada)\nProfessor(bob)\nteaches(carol, logic)\nCourse(logic)\nCourse(algebra)\n";

/// The corruption fixture: the system, its query, the oracle answers and
/// the snapshot bytes of the data.
fn corruption_fixture(
) -> (ObdaSystem, obda::cq::query::Cq, Vec<Vec<obda::owlql::abox::ConstId>>, Vec<u8>) {
    let sys = ObdaSystem::from_text(CORRUPT_ONTOLOGY).unwrap();
    let q = sys.parse_query(CORRUPT_QUERY).unwrap();
    let data = sys.parse_data(CORRUPT_DATA).unwrap();
    let oracle = sys.certain_answers(&q, &data).tuples();
    assert!(!oracle.is_empty(), "the fixture must have answers");
    let bytes = obda::store::snapshot_bytes(sys.ontology().vocab(), &data);
    (sys, q, oracle, bytes)
}

/// Whether `report` is a typed corruption verdict: no winner, the final
/// error is [`EvalError::Corrupt`], and no attempt panicked.
fn is_corrupt_verdict(report: &obda::PipelineReport) -> bool {
    let panicked =
        report.attempts.iter().any(|a| matches!(a.outcome, AttemptOutcome::Panicked { .. }));
    !panicked && matches!(report.final_error(), Some(ObdaError::Eval(EvalError::Corrupt(_))))
}

fn run_obda(args: &[&std::ffi::OsStr]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obda")).args(args).output().unwrap();
    let code = out.status.code().expect("obda must exit, not die on a signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A flipped bit inside a data block the query joins is found when the
/// block hydrates, after a lazy open succeeded: the fallback ladder, the
/// query service and `obda answer --db` all report it as the typed
/// corruption error (exit 3, HTTP 500 through `ObdaError::Eval`) — never
/// as an isolated panic. A version-1 header is refused at open, naming
/// the migration.
#[test]
fn corrupt_data_block_is_a_typed_error_on_every_path() {
    let (sys, q, _, mut bytes) = corruption_fixture();
    // The metadata fits in the first page, so file offset 4096 starts
    // the first data block: the `Course` column, which the query joins.
    bytes[4096] ^= 0x01;
    let path = temp_path();
    std::fs::write(&path, &bytes).unwrap();
    let snap = Snapshot::open(&path, sys.ontology().vocab()).expect("lazy open reads only meta");

    let spec = BudgetSpec::unlimited();
    let report = sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &spec);
    assert!(is_corrupt_verdict(&report), "ladder:\n{report}");
    let msg = report.final_error().unwrap().to_string();
    assert!(msg.contains("failed to hydrate") && msg.contains("checksum"), "{msg}");

    let svc = QueryService::new(
        ObdaSystem::from_text(CORRUPT_ONTOLOGY).unwrap(),
        ServiceConfig::default(),
    );
    let served = svc.answer_backend(&q, &snap, Strategy::Tw).unwrap();
    assert!(is_corrupt_verdict(&served.report), "service:\n{}", served.report);
    assert_eq!(svc.stats().failed, 1);

    // The CLI: exit 3 (a corrupt snapshot), not 8 (an isolated panic).
    let dir = std::env::temp_dir();
    let onto = dir.join(format!("obda-corrupt-{}.owlql", std::process::id()));
    let query = dir.join(format!("obda-corrupt-{}.cq", std::process::id()));
    std::fs::write(&onto, CORRUPT_ONTOLOGY).unwrap();
    std::fs::write(&query, CORRUPT_QUERY).unwrap();
    let answer = |db: &Path| {
        run_obda(&[
            "answer".as_ref(),
            "--ontology".as_ref(),
            onto.as_os_str(),
            "--query".as_ref(),
            query.as_os_str(),
            "--db".as_ref(),
            db.as_os_str(),
        ])
    };
    let (code, err) = answer(&path);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(err.contains("corrupt data"), "stderr: {err}");

    // A version-1 header: refused at open with the migration named.
    bytes[4096] ^= 0x01;
    bytes[4] = 1;
    std::fs::write(&path, &bytes).unwrap();
    let (code, err) = answer(&path);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(err.contains("unsupported snapshot version 1") && err.contains("obda build"), "{err}");
    for f in [&path, &onto, &query] {
        std::fs::remove_file(f).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// A single bit flip anywhere in the file — header, metadata, zero
    /// padding, data or index block — yields the oracle answer, a typed
    /// [`StoreError`] at open, or the typed corruption error from the
    /// ladder and the service. Never a wrong answer, never a panic.
    /// Half the cases flip a byte outside the zero padding between the
    /// metadata and the first data block.
    #[test]
    fn bit_flips_give_the_oracle_a_typed_open_error_or_corrupt(
        live in any::<bool>(),
        off in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let (sys, q, oracle, mut bytes) = corruption_fixture();
        let meta_end = 36 + u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
        let pos = if live {
            let live: Vec<usize> = (0..meta_end).chain(4096..bytes.len()).collect();
            live[off % live.len()]
        } else {
            off % bytes.len()
        };
        bytes[pos] ^= 1 << bit;
        let path = temp_path();
        std::fs::write(&path, &bytes).unwrap();
        let opened = Snapshot::open(&path, sys.ontology().vocab());
        std::fs::remove_file(&path).ok();
        let ctx = format!("bit {bit} at byte {pos}");
        let snap = match opened {
            Ok(snap) => snap,
            Err(e) => {
                prop_assert!(!matches!(e, StoreError::Io(_) | StoreError::Injected { .. }), "{ctx}: {e}");
                return Ok(());
            }
        };
        let svc = QueryService::new(ObdaSystem::from_text(CORRUPT_ONTOLOGY).unwrap(), ServiceConfig::default());
        let reports = [
            sys.answer_with_fallback_backend(&q, &snap, Strategy::Tw, &BudgetSpec::unlimited()),
            svc.answer_backend(&q, &snap, Strategy::Tw).unwrap().report,
        ];
        for report in &reports {
            match report.result() {
                Some(res) => prop_assert_eq!(&res.answers, &oracle, "{}: wrong answer", ctx),
                None => prop_assert!(is_corrupt_verdict(report), "{ctx}:\n{report}"),
            }
        }
    }
}
