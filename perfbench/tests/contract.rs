//! The benchmark's own tests: a tiny run of every workload prints every
//! metric `BENCHMARK.json` lists, with its unit, and a tampered oracle
//! fails the run.

use perfbench::{run, Config, Sizing, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, tamper_oracle: bool) -> Config {
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(tamper_oracle)
    ));
    std::fs::create_dir_all(&workdir).expect("create the test's work directory");
    Config {
        workload,
        seed: 7,
        seconds: 0.5,
        trace,
        workdir,
        sizing: Sizing::tiny(),
        tamper_oracle,
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in order.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json.find(&format!("\"{section}\": [")).expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        chunk[at..at + chunk[at..].find('"').expect("string closes")].to_owned()
    };
    body.split('{').skip(1).map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn check_workload(workload: Workload) {
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    let layers: Vec<(String, String)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(contract("end_to_end"), e2e, "BENCHMARK.json end_to_end matches the code");
    assert_eq!(contract("per_layer"), layers, "BENCHMARK.json per_layer matches the code");
    for (trace, listed) in [(false, &e2e), (true, &layers)] {
        let report = run(&tiny(workload, trace, false)).expect("tiny run completes");
        assert!(report.correct, "{} trace {trace}: answers equal the oracle", workload.name());
        assert_eq!(report.failed, 0, "{} trace {trace}: nothing fails", workload.name());
        assert!(report.attempted > 0);
        let out = report.render();
        let last = out.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        assert_eq!(report.metrics.len(), listed.len(), "exactly the listed metrics");
        for (name, unit) in listed {
            let printed = format!("\"{name}\": {{\"value\": ");
            let at = last.find(&printed).unwrap_or_else(|| panic!("{name} missing: {last}"));
            let entry = &last[at..at + last[at..].find('}').expect("entry closes")];
            assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{name} in {unit}: {entry}");
        }
    }
}

#[test]
fn serve_hot_prints_every_metric() {
    check_workload(Workload::ServeHot);
}

#[test]
fn serve_adhoc_prints_every_metric() {
    check_workload(Workload::ServeAdhoc);
}

#[test]
fn answer_table2_prints_every_metric() {
    check_workload(Workload::AnswerTable2);
}

#[test]
fn a_tampered_answer_set_fails_the_oracle_check() {
    for workload in [Workload::ServeHot, Workload::AnswerTable2] {
        let report = run(&tiny(workload, false, true)).expect("tiny run completes");
        assert!(!report.correct, "{}: the tampered answer set is caught", workload.name());
        assert!(report.failed > 0, "{}: the mismatch counts as failed", workload.name());
        assert!(report
            .render()
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": false")));
    }
}
