//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the obda benchmark and prints its metrics; the
//! last line of standard output is the JSON result. Exits 0 when every
//! checked answer equalled the oracle, 1 on an oracle mismatch, 2 when
//! the run could not be set up.

use perfbench::{run, Config, Sizing, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload serve_hot|serve_adhoc|answer_table2 --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        workdir: PathBuf::from(".perfbench_work").join(std::process::id().to_string()),
        sizing: Sizing::standard(),
        tamper_oracle: false,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.workdir) {
        eprintln!("error: cannot create {}: {e}", cfg.workdir.display());
        return ExitCode::from(2);
    }
    let outcome = run(&cfg);
    // Best effort: the snapshots are scratch files of this run only.
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    let _ = std::fs::remove_dir(".perfbench_work");
    match outcome {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: an answer differed from the oracle");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
