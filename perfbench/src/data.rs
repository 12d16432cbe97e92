//! Set-up of one Table-2 dataset, the way a deployment gets its data:
//! generate, render to ABox text, parse (`obda build`'s input step), write
//! the `.obdb` snapshot and open it lazily.

use obda::datagen::erdos::ErdosRenyi;
use obda::owlql::abox::DataInstance;
use obda::{write_snapshot, ObdaSystem, Snapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// A dataset on disk plus the parsed instance the oracle reads.
pub struct Dataset {
    /// The parsed instance.
    pub data: DataInstance,
    /// Snapshot size in bytes.
    pub file_bytes: u64,
}

/// Time spent in the two timed set-up layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    /// `ObdaSystem::parse_data` of the ABox text.
    pub parse: Duration,
    /// `write_snapshot` of the parsed instance.
    pub write: Duration,
}

/// Generates and parses dataset `cfg` without touching the disk (the
/// oracle's input; identical to what [`load`] parses).
pub fn parse(system: &ObdaSystem, cfg: &ErdosRenyi) -> Result<(DataInstance, Duration), String> {
    let text = cfg.generate(system.ontology()).to_text(system.ontology());
    let start = Instant::now();
    let data = system.parse_data(&text).map_err(|e| format!("parse data: {e}"))?;
    Ok((data, start.elapsed()))
}

/// Generates, parses and writes dataset `cfg` to `path`, then opens the
/// snapshot lazily.
pub fn load(
    system: &ObdaSystem,
    cfg: &ErdosRenyi,
    path: &Path,
) -> Result<(Dataset, Snapshot, LoadTimes), String> {
    let (data, parse) = parse(system, cfg)?;
    let vocab = system.ontology().vocab();
    let start = Instant::now();
    let info = write_snapshot(path, vocab, &data).map_err(|e| format!("write snapshot: {e}"))?;
    let write = start.elapsed();
    let snapshot = Snapshot::open(path, vocab).map_err(|e| format!("open snapshot: {e}"))?;
    Ok((Dataset { data, file_bytes: info.file_bytes }, snapshot, LoadTimes { parse, write }))
}
