//! # perfbench
//!
//! The benchmark of `obda`: three seeded workloads driven through the
//! public entry points, every answer checked against the certain answers,
//! every metric printed by name with its unit. `BENCHMARK.json` at the
//! repository root is the contract: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics of the traced
//! run.
//!
//! * `serve_hot` — the in-process `obda serve` over a lazily opened
//!   snapshot, a closed loop of `nproc` clients repeating a 16-OMQ mix:
//!   every request after warm-up is a prepared-cache hit.
//! * `serve_adhoc` — the same server and loop, but every request is a
//!   different seeded 6–15-atom word: every request misses the cache and
//!   evicts.
//! * `answer_table2` — batch: for each of the 15 `BENCH_eval.json` cells,
//!   open the snapshot, parse, prepare, evaluate and render the answers;
//!   passes repeat until the window ends.
//!   Runnable, but not listed in `BENCHMARK.json`: its run-to-run spread
//!   on the reference VM exceeded every bound the contract allows (see
//!   `README.md`).
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) run the same workload, scrape the server's `/metrics`,
//! replay the same inputs call by call ([`trace`]) and run the fixed
//! deadline probe, printing the per-layer metrics.

pub mod data;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod trace;

use inputs::{Omq, STREAM_ORDER};
use obda::ndl::engine::EngineConfig;
use obda::ObdaSystem;
use oracle::Job;
use report::{beyond, median, peak_rss_mb, quantile, Report};
use serve::{Order, Tally};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use trace::{Op, Replay, Traced};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated OMQs: prepared-cache hits.
    ServeHot,
    /// Distinct OMQs: prepared-cache misses.
    ServeAdhoc,
    /// Batch Table-2 cells.
    AnswerTable2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ServeHot, Workload::ServeAdhoc, Workload::AnswerTable2];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeAdhoc => "serve_adhoc",
            Workload::AnswerTable2 => "answer_table2",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and limits. [`Sizing::standard`] is what the benchmark
/// measures; [`Sizing::tiny`] keeps the tests fast.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Table-2 scale of `serve_hot`'s dataset 1.
    pub hot_scale: f64,
    /// Table-2 scale of `serve_adhoc`'s dataset 1.
    pub adhoc_scale: f64,
    /// Table-2 scale of `answer_table2`'s datasets 1–4.
    pub table2_scale: f64,
    /// Distinct words in the `serve_adhoc` pool.
    pub adhoc_pool: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Requests replayed by a serving workload's traced run.
    pub replay_requests: usize,
    /// Deadline of every request.
    pub request_deadline: Duration,
    /// Deadline of every cell.
    pub cell_deadline: Duration,
    /// Chase budget per oracle question before the reference fallback.
    pub chase_budget: Duration,
    /// Chase budget of the `s2:5` questions: their chase always finishes
    /// (6–7 s on `4.ttl`), while the reference fallback on `4.ttl` needs
    /// ~2 GB, so it must not be reached.
    pub chase_budget_s2_5: Duration,
    /// Table-2 scale of the deadline probe's dataset 1.
    pub probe_scale: f64,
    /// The deadline probe's deadline.
    pub probe_deadline: Duration,
}

impl Sizing {
    /// The measured configuration.
    pub fn standard() -> Self {
        Sizing {
            hot_scale: 0.05,
            adhoc_scale: 0.01,
            table2_scale: 0.05,
            adhoc_pool: 4096,
            setup_reps: 9,
            replay_requests: 128,
            request_deadline: Duration::from_secs(2),
            cell_deadline: Duration::from_secs(10),
            chase_budget: Duration::from_secs(1),
            chase_budget_s2_5: Duration::from_secs(60),
            probe_scale: 0.05,
            probe_deadline: Duration::from_secs(3),
        }
    }

    /// A seconds-long configuration for the benchmark's own tests.
    pub fn tiny() -> Self {
        Sizing {
            hot_scale: 0.01,
            adhoc_scale: 0.01,
            table2_scale: 0.005,
            adhoc_pool: 140,
            setup_reps: 2,
            replay_requests: 32,
            chase_budget: Duration::from_secs(2),
            chase_budget_s2_5: Duration::from_secs(2),
            probe_scale: 0.01,
            ..Sizing::standard()
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for snapshot files (created and removed by the caller).
    pub workdir: PathBuf,
    /// Sizes.
    pub sizing: Sizing,
    /// Drops one line of the first expected answer set, so the oracle
    /// check must fail (the benchmark's own test of that check).
    pub tamper_oracle: bool,
}

/// The end-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p99_ms", "ms"),
    ("suite_s", "s"),
    ("setup_s", "s"),
];

/// Worker threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload and returns everything it prints.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} nproc {} window {} s trace {}",
        cfg.workload.name(),
        cfg.seed,
        nproc(),
        cfg.seconds,
        u8::from(cfg.trace)
    ));
    match cfg.workload {
        Workload::ServeHot | Workload::ServeAdhoc => serving(cfg, &mut report)?,
        Workload::AnswerTable2 => batch(cfg, &mut report)?,
    }
    Ok(report)
}

/// Per-operation latency metrics and their sample sizes, from `sorted`
/// (ascending) latencies.
fn push_latencies(report: &mut Report, sorted: &[f64], what: &str) {
    let n = sorted.len();
    if n == 0 {
        return;
    }
    report.note(format!(
        "{what}: {n} latency samples; beyond p50/p90/p99: {}/{}/{}",
        beyond(n, 0.5),
        beyond(n, 0.9),
        beyond(n, 0.99)
    ));
    report.push("p50_ms", "ms", quantile(sorted, 0.5));
    report.push("p90_ms", "ms", quantile(sorted, 0.9));
    report.push("p99_ms", "ms", quantile(sorted, 0.99));
}

fn note_tally(report: &mut Report, what: &str, t: &Tally) {
    report.note(format!(
        "{what}: sent {} succeeded {} failed {} (error {}, transport {}, late {}, wrong {}) failed_frac {}",
        t.attempted,
        t.ok,
        t.failed(),
        t.error,
        t.transport,
        t.late,
        t.wrong,
        t.failed() as f64 / t.attempted.max(1) as f64
    ));
}

fn serving(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let s = &cfg.sizing;
    let hot = cfg.workload == Workload::ServeHot;
    let system = obda_bench::paper_system();
    let slots = nproc();
    let clients = nproc();
    let (omqs, scale) = if hot {
        (inputs::hot_mix(), s.hot_scale)
    } else {
        (inputs::adhoc_pool(cfg.seed, s.adhoc_pool), s.adhoc_scale)
    };
    // Warm-up primes what the workload keeps warm: the whole mix for
    // `serve_hot`, one pass of the pool for `serve_adhoc`.
    let warm = if hot { omqs.len() } else { inputs::PASS_LEN };
    let ds_cfg = inputs::table2_dataset(system.ontology(), 0, scale, cfg.seed);

    // Certain answers first: computed in set-up, not timed as set-up.
    let (oracle_data, _) = data::parse(&system, &ds_cfg)?;
    let jobs: Vec<Job<'_>> = omqs
        .iter()
        .map(|omq| Job { data: &oracle_data, omq, chase_budget: chase_budget(s, omq) })
        .collect();
    let oracle = oracle::compute(&system, &jobs, nproc())?;
    let rss_oracle = peak_rss_mb();
    let mut expected = oracle.expected.clone();
    if cfg.tamper_oracle {
        expected[0].tamper();
    }

    let path = cfg.workdir.join("serve.obdb");
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut parse_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut running = None;
    let mut file_bytes = 0;
    for _ in 0..s.setup_reps.max(1) {
        if let Some(handle) = running.take() {
            serve::stop(handle)?;
        }
        let start = Instant::now();
        let (ds, snapshot, times) = data::load(&system, &ds_cfg, &path)?;
        let handle = serve::boot(snapshot, slots)?;
        for (omq, exp) in omqs.iter().zip(&expected).take(warm) {
            tally.add(serve::query(handle.addr(), omq, s.request_deadline, exp).1);
        }
        setups.push(start.elapsed().as_secs_f64());
        parse_ms.push(times.parse.as_secs_f64() * 1e3);
        write_ms.push(times.write.as_secs_f64() * 1e3);
        file_bytes = ds.file_bytes;
        running = Some(handle);
    }
    let handle = running.expect("at least one set-up ran");
    let addr = handle.addr();
    let rss_setup = peak_rss_mb();

    let cursor = AtomicUsize::new(warm);
    let order = if hot {
        Order::Shuffled { seed: inputs::derive(cfg.seed, STREAM_ORDER) }
    } else {
        Order::Shared(&cursor)
    };
    let window = Duration::from_secs_f64(cfg.seconds);
    let stats =
        serve::closed_loop(addr, &omqs, &expected, clients, window, s.request_deadline, &order);
    let rss = peak_rss_mb();
    let scrape = if cfg.trace { Some(serve::Scrape::fetch(addr)?) } else { None };
    serve::stop(handle)?;
    let mut latencies = stats.by_omq_ms.concat();
    latencies.sort_by(f64::total_cmp);

    report.note(format!(
        "dataset 1.ttl at scale {scale}: {} atoms, {} constants, snapshot {file_bytes} bytes",
        oracle_data.num_atoms(),
        oracle_data.num_individuals()
    ));
    report.note(format!(
        "{} distinct OMQs against a 128-entry prepared cache; {clients} closed-loop clients, \
         {slots} worker slots, 1 engine thread; request deadline {} ms",
        omqs.len(),
        s.request_deadline.as_millis()
    ));
    if !hot {
        let fresh = (omqs.len() - warm) as u64;
        let repeats = stats.tally.attempted.saturating_sub(fresh);
        report.note(format!(
            "pool texts repeated in the window: {repeats} of {} (each recurs only after {} other \
             distinct texts, so the cache never holds it)",
            stats.tally.attempted,
            omqs.len() - 1
        ));
    }
    report.note(format!(
        "oracle: {} of {} answer sets by the chase, the rest by the reference evaluator, in {:.3} s",
        oracle.by_chase(),
        oracle.expected.len(),
        oracle.seconds
    ));
    if hot {
        let p50s: Vec<String> = omqs
            .iter()
            .zip(&stats.by_omq_ms)
            .filter(|(_, v)| !v.is_empty())
            .map(|(omq, v)| format!("{} {:?} {:.3}", omq.word, omq.strategy, median(v)))
            .collect();
        report.note(format!("median ms per OMQ: {}", p50s.join(", ")));
    }
    report.note(format!(
        "peak RSS after the oracle {rss_oracle:.1} MB, after set-up {rss_setup:.1} MB, after the window {rss:.1} MB"
    ));
    note_tally(report, "warm-up", &tally);
    note_tally(report, "window", &stats.tally);
    tally.merge(&stats.tally);

    let mut traced = None;
    if cfg.trace {
        let ops: Vec<Op> = replay_order(&omqs, hot, cfg.seed, warm, s.replay_requests);
        let paths = [path.clone()];
        let replay = Replay {
            system: &system,
            paths: &paths,
            omqs: &omqs,
            expected: &expected,
            ops,
            engine: EngineConfig { threads: 1, ..EngineConfig::default() },
            deadline: s.request_deadline,
        };
        traced = Some(replay.run(2)?);
    }

    report.correct = tally.wrong == 0 && traced.as_ref().is_none_or(|t| t.wrong == 0);
    report.attempted = tally.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    report.failed = tally.failed() + traced.as_ref().map_or(0, |t| t.wrong);

    if !cfg.trace {
        report.push("throughput_rps", "1/s", stats.tally.ok as f64 / stats.wall_s);
        push_latencies(report, &latencies, "requests");
        report.note(format!(
            "suite: {} passes of {} requests per client",
            stats.pass_s.len(),
            inputs::PASS_LEN
        ));
        report.push("suite_s", "s", median_or_zero(&stats.pass_s));
        report.push("setup_s", "s", median(&setups));
        return Ok(());
    }
    let probe = probe(cfg, &system)?;
    push_layers(
        report,
        &LayerInputs {
            parse_data_ms: median(&parse_ms),
            write_ms: median(&write_ms),
            traced: traced.as_ref(),
            server: scrape.as_ref().map(|sc| (sc, latencies.as_slice())),
            oracle_s: oracle.seconds,
            rss_mb: rss,
            probe,
        },
    );
    Ok(())
}

/// The operations a serving workload's traced run replays: for
/// `serve_hot` client 0's seeded order over the mix (each query prepared
/// once, then a cache hit), for `serve_adhoc` the pool from the first
/// post-warm-up index (every request prepared afresh). One snapshot is
/// opened per round, as the server opens one.
fn replay_order(omqs: &[Omq], hot: bool, seed: u64, warm: usize, n: usize) -> Vec<Op> {
    let order: Vec<usize> = if hot {
        inputs::Passes::new(inputs::derive(seed, STREAM_ORDER), omqs.len()).take(n).collect()
    } else {
        (warm..warm + n).map(|i| i % omqs.len()).collect()
    };
    order.into_iter().map(|omq| Op { db: 0, omq, open: false, prepare: !hot }).collect()
}

fn chase_budget(s: &Sizing, omq: &Omq) -> Duration {
    if omq.word == inputs::S2_5 {
        s.chase_budget_s2_5
    } else {
        s.chase_budget
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn batch(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let s = &cfg.sizing;
    let system = obda_bench::paper_system();
    // One engine thread, `obda answer`'s default. At two threads on a
    // 2-vCPU machine `3.ttl s2:5 Presto-like` flips between ~5 ms and
    // ~60 ms from pass to pass, and as the median cell it flips the pooled
    // p50 with it; one thread was also faster per pass.
    let threads = 1;
    let cells = inputs::table2_cells();
    let omqs: Vec<Omq> = cells.iter().map(|c| c.omq.clone()).collect();
    let ds_cfgs: Vec<_> = (0..4)
        .map(|i| inputs::table2_dataset(system.ontology(), i, s.table2_scale, cfg.seed))
        .collect();

    let mut oracle_data = Vec::new();
    for ds in &ds_cfgs {
        oracle_data.push(data::parse(&system, ds)?.0);
    }
    let jobs: Vec<Job<'_>> = cells
        .iter()
        .map(|c| Job {
            data: &oracle_data[c.dataset],
            omq: &c.omq,
            chase_budget: chase_budget(s, &c.omq),
        })
        .collect();
    let oracle = oracle::compute(&system, &jobs, nproc())?;
    let mut expected = oracle.expected.clone();
    if cfg.tamper_oracle {
        expected[0].tamper();
    }

    let paths: Vec<PathBuf> = (0..4).map(|i| cfg.workdir.join(format!("{}.obdb", i + 1))).collect();
    let mut setups = Vec::new();
    let mut parse_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut sizes = Vec::new();
    for _ in 0..s.setup_reps.max(1) {
        let start = Instant::now();
        let (mut parse, mut write) = (0.0, 0.0);
        sizes.clear();
        for (ds, path) in ds_cfgs.iter().zip(&paths) {
            let (dataset, _snapshot, times) = data::load(&system, ds, path)?;
            parse += times.parse.as_secs_f64() * 1e3;
            write += times.write.as_secs_f64() * 1e3;
            sizes.push(format!("{} atoms/{} bytes", dataset.data.num_atoms(), dataset.file_bytes));
        }
        setups.push(start.elapsed().as_secs_f64());
        parse_ms.push(parse);
        write_ms.push(write);
    }

    let engine = EngineConfig { threads, ..EngineConfig::default() };
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut cell_ms = Vec::new();
    let mut pass_s = Vec::new();
    let mut tally = Tally::default();
    while pass_s.is_empty() || start.elapsed() < window {
        let pass = Instant::now();
        for (cell, exp) in cells.iter().zip(&expected) {
            let t = Instant::now();
            let out =
                answer_cell(&system, &paths[cell.dataset], &cell.omq, &engine, s.cell_deadline);
            let elapsed = t.elapsed();
            cell_ms.push(elapsed.as_secs_f64() * 1e3);
            tally.add(match out {
                Err(_) => serve::Verdict::Error,
                Ok(_) if elapsed > s.cell_deadline => serve::Verdict::Late,
                Ok((body, _)) if !exp.matches(&body) => serve::Verdict::Wrong,
                Ok(_) => serve::Verdict::Ok,
            });
        }
        pass_s.push(pass.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    report.note(format!("datasets 1-4.ttl at scale {}: {}", s.table2_scale, sizes.join(", ")));
    report.note(format!(
        "{} cells x {} passes; {threads} engine thread; cell deadline {} s",
        cells.len(),
        pass_s.len(),
        s.cell_deadline.as_secs_f64()
    ));
    report.note(format!(
        "oracle: {} of {} answer sets by the chase, the rest by the reference evaluator, in {:.3} s",
        oracle.by_chase(),
        oracle.expected.len(),
        oracle.seconds
    ));
    note_tally(report, "cells", &tally);

    let mut traced = None;
    if cfg.trace {
        let ops = cells
            .iter()
            .enumerate()
            .map(|(i, c)| Op { db: c.dataset, omq: i, open: true, prepare: true })
            .collect();
        let replay = Replay {
            system: &system,
            paths: &paths,
            omqs: &omqs,
            expected: &expected,
            ops,
            engine: engine.clone(),
            deadline: s.cell_deadline,
        };
        traced = Some(replay.run(1)?);
    }

    report.correct = tally.wrong == 0 && traced.as_ref().is_none_or(|t| t.wrong == 0);
    report.attempted = tally.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    report.failed = tally.failed() + traced.as_ref().map_or(0, |t| t.wrong);

    if !cfg.trace {
        report.push("throughput_rps", "1/s", tally.ok as f64 / wall);
        cell_ms.sort_by(f64::total_cmp);
        push_latencies(report, &cell_ms, "cells");
        report.note(format!("suite: {} passes over all cells", pass_s.len()));
        report.push("suite_s", "s", median(&pass_s));
        report.push("setup_s", "s", median(&setups));
        return Ok(());
    }
    let probe = probe(cfg, &system)?;
    push_layers(
        report,
        &LayerInputs {
            parse_data_ms: median(&parse_ms),
            write_ms: median(&write_ms),
            traced: traced.as_ref(),
            server: None,
            oracle_s: oracle.seconds,
            rss_mb: rss,
            probe,
        },
    );
    Ok(())
}

/// One `answer_table2` cell, the in-process `obda answer --db`: open the
/// snapshot lazily, parse, prepare, evaluate, render. Returns the rendered
/// answers and the number of tuples the engine generated.
fn answer_cell(
    system: &ObdaSystem,
    path: &std::path::Path,
    omq: &Omq,
    engine: &EngineConfig,
    deadline: Duration,
) -> Result<(String, usize), String> {
    let snapshot =
        obda::Snapshot::open(path, system.ontology().vocab()).map_err(|e| e.to_string())?;
    let query = system.parse_query(&omq.text).map_err(|e| e.to_string())?;
    let mut budget = obda::budget::BudgetSpec {
        timeout: Some(deadline),
        ..obda::budget::BudgetSpec::unlimited()
    }
    .start();
    let res = system
        .prepare_budgeted(&query, omq.strategy, &mut budget)
        .map_err(|e| e.to_string())?
        .execute_engine_budgeted(snapshot.database(), &mut budget, engine)
        .map_err(|e| e.to_string())?;
    let body = oracle::render(&res.answers, |c| snapshot.constant_name(c));
    Ok((body, res.stats.generated_tuples))
}

/// The deadline probe over the seed's dataset 1 at the probe scale.
fn probe(cfg: &Config, system: &ObdaSystem) -> Result<Probe, String> {
    let s = &cfg.sizing;
    let path = cfg.workdir.join("probe.obdb");
    let ds = inputs::table2_dataset(system.ontology(), 0, s.probe_scale, cfg.seed);
    let (_, snapshot, _) = data::load(system, &ds, &path)?;
    let (elapsed, tripped) = trace::deadline_probe(system, &snapshot, s.probe_deadline)?;
    Ok(Probe { deadline: s.probe_deadline, elapsed, tripped })
}

/// The deadline probe's outcome.
struct Probe {
    deadline: Duration,
    elapsed: Duration,
    tripped: bool,
}

struct LayerInputs<'a> {
    parse_data_ms: f64,
    write_ms: f64,
    traced: Option<&'a Traced>,
    /// The scraped `/metrics` and the sorted client latencies (ms).
    server: Option<(&'a serve::Scrape, &'a [f64])>,
    oracle_s: f64,
    /// Peak resident memory at the end of the untraced window (MiB).
    rss_mb: f64,
    probe: Probe,
}

/// The per-layer metrics, as `BENCHMARK.json` lists them. Times of the
/// replay are per replayed operation, so they add up (with
/// `trace.unattributed_frac`) to the traced time of one operation.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("owlql.parse_data_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.open_us", "us"),
    ("store.touched_frac", "frac"),
    ("cq.parse_us", "us"),
    ("cq.classify_us", "us"),
    ("rewrite.rewrite_us", "us"),
    ("rewrite.clauses", "count"),
    ("ndl.relevance.prune_us", "us"),
    ("ndl.relevance.kept_frac", "frac"),
    ("ndl.planner.plan_us", "us"),
    ("ndl.engine.exec_ms", "ms"),
    ("ndl.engine.generated_tuples", "count"),
    ("ndl.engine.answer_yield", "frac"),
    ("core.render_us", "us"),
    ("core.service.queue_wait_p99_ms", "ms"),
    ("core.service.exec_p50_ms", "ms"),
    ("core.service.retries", "count"),
    ("core.service.deadline_overrun_x", "x"),
    ("core.server.handler_p50_ms", "ms"),
    ("core.server.transport_p50_ms", "ms"),
    ("core.server.transport_mean_ms", "ms"),
    ("core.server.cache_hit_frac", "frac"),
    ("core.server.cache_evictions", "count"),
    ("peak_rss_mb", "MB"),
    ("chase.oracle_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn push_layers(report: &mut Report, input: &LayerInputs<'_>) {
    let mut values = vec![0.0; PER_LAYER.len()];
    let mut set = |name: &str, v: f64| {
        let i = PER_LAYER.iter().position(|(n, _)| *n == name).expect("listed per-layer metric");
        values[i] = v;
    };
    set("owlql.parse_data_ms", input.parse_data_ms);
    set("store.write_ms", input.write_ms);
    if let Some(t) = input.traced {
        let l = &t.layers;
        let ops = l.ops.max(1) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / ops;
        set("store.open_us", us(l.open));
        set("store.touched_frac", l.touched_frac_sum / l.opens.max(1) as f64);
        set("cq.parse_us", us(l.parse));
        set("cq.classify_us", us(l.classify));
        set("rewrite.rewrite_us", us(l.rewrite));
        set("rewrite.clauses", l.clauses as f64 / ops);
        set("ndl.relevance.prune_us", us(l.prune));
        set("ndl.relevance.kept_frac", l.clauses_after as f64 / l.clauses_before.max(1) as f64);
        set("ndl.planner.plan_us", us(l.plan));
        set("ndl.engine.exec_ms", us(l.exec) / 1e3);
        set("ndl.engine.generated_tuples", l.generated as f64 / ops);
        set("ndl.engine.answer_yield", l.answers as f64 / l.generated.max(1) as f64);
        set("core.render_us", us(l.render));
        let traced = t.traced.as_secs_f64();
        set("trace.unattributed_frac", 1.0 - l.attributed().as_secs_f64() / traced);
        set("trace.overhead_frac", traced / t.untraced.as_secs_f64() - 1.0);
        report.note(format!(
            "traced replay: {} operations per round, {:.3} s traced vs {:.3} s untraced; \
             unattributed slack stated: < 0.05",
            l.ops / t.rounds.max(1) as u64,
            traced,
            t.untraced.as_secs_f64()
        ));
    }
    if let Some((scrape, latencies)) = input.server {
        let ms = |seconds: Option<f64>| seconds.unwrap_or(0.0) * 1e3;
        let handler_p50 = ms(scrape.quantile("server_latency_seconds", 0.5));
        let client_p50 = if latencies.is_empty() { 0.0 } else { quantile(latencies, 0.5) };
        let client_mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let hits = scrape.counter("server_cache_hits_total");
        let misses = scrape.counter("server_cache_misses_total");
        set(
            "core.service.queue_wait_p99_ms",
            ms(scrape.quantile("service_queue_wait_seconds", 0.99)),
        );
        set("core.service.exec_p50_ms", ms(scrape.quantile("service_latency_seconds", 0.5)));
        set("core.service.retries", scrape.counter("service_transient_retries_total"));
        set("core.server.handler_p50_ms", handler_p50);
        set("core.server.transport_p50_ms", client_p50 - handler_p50);
        set(
            "core.server.transport_mean_ms",
            client_mean - ms(scrape.mean("server_latency_seconds")),
        );
        set("core.server.cache_hit_frac", hits / (hits + misses).max(1.0));
        set("core.server.cache_evictions", scrape.counter("server_cache_evictions_total"));
    }
    let probe = &input.probe;
    set(
        "core.service.deadline_overrun_x",
        probe.elapsed.as_secs_f64() / probe.deadline.as_secs_f64(),
    );
    set("peak_rss_mb", input.rss_mb);
    set("chase.oracle_s", input.oracle_s);
    report.note(format!(
        "deadline probe {} (Adaptive, 1 engine thread): {:.3} s against a {:.3} s deadline, {}",
        trace::PROBE_WORD,
        probe.elapsed.as_secs_f64(),
        probe.deadline.as_secs_f64(),
        if probe.tripped { "budget tripped" } else { "completed" }
    ));
    for ((name, unit), v) in PER_LAYER.iter().zip(values) {
        report.push(name, unit, v);
    }
}
