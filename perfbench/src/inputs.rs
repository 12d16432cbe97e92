//! Seeded inputs: the Table-2 datasets, the query mixes and the batch
//! cells. Everything here is a pure function of `--seed`, so one seed
//! always yields the same inputs and the program under test only ever
//! sees the generated data and query texts.

use obda::datagen::erdos::{ErdosRenyi, TABLE_2};
use obda::owlql::Ontology;
use obda::Strategy;
use std::collections::HashSet;

/// The SplitMix64 finaliser: a bijective 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// A small deterministic generator (SplitMix64 sequence).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Indices `0..n` pass after pass, each pass a fresh seeded shuffle: a
/// client's walk through a query mix.
pub struct Passes {
    rng: Rng,
    n: usize,
    pass: Vec<usize>,
}

impl Passes {
    /// Passes over `0..n` (`n > 0`) drawn from `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        Passes { rng: Rng::new(seed), n, pass: Vec::new() }
    }
}

impl Iterator for Passes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pass.is_empty() {
            self.pass = (0..self.n).collect();
            self.rng.shuffle(&mut self.pass);
        }
        self.pass.pop()
    }
}

/// Stream tags, so each consumer of the seed draws independent bits.
pub const STREAM_ADHOC: u64 = 0xAD_0C;
/// Stream of the per-client request orders of `serve_hot`.
pub const STREAM_ORDER: u64 = 0x0_4DE4;

/// Table-2 dataset `idx` (0-based) at `scale` for run seed `seed`.
///
/// The generator seed is the first of the run seed's stream for this
/// dataset whose instance carries exactly the expected number of each
/// marker label, `round(V · q)`. Dataset 1 is a complete `R`-graph at
/// these scales, so the marker labels are all a seed can change, and an
/// unconditioned draw (2.5 ± 1.5 labels of each kind at scale 0.05)
/// changes what the queries compute from seed to seed; conditioned, every
/// seed yields an instance of the density Table 2 specifies.
pub fn table2_dataset(ontology: &Ontology, idx: usize, scale: f64, seed: u64) -> ErdosRenyi {
    const MAX_DRAWS: u64 = 10_000;
    let base = TABLE_2[idx].scaled(scale);
    let want = (base.vertices as f64 * base.label_prob).round() as usize;
    let stream = derive(seed, TABLE_2[idx].seed);
    let mut cfg = base;
    for draw in 0..MAX_DRAWS {
        cfg = ErdosRenyi { seed: derive(stream, draw), ..base };
        let labels = cfg.generate(ontology).members_by_class();
        let expected_kinds = if want == 0 { 0 } else { 2 };
        if labels.len() == expected_kinds && labels.values().all(|m| m.len() == want) {
            break;
        }
    }
    cfg
}

/// The linear CQ of an R/S word as query text:
/// `q(x0, xn) :- R(x0, x1), S(x1, x2), …`.
pub fn word_text(word: &str) -> String {
    let atoms: Vec<String> =
        word.chars().enumerate().map(|(i, c)| format!("{c}(x{i}, x{})", i + 1)).collect();
    format!("q(x0, x{}) :- {}", word.len(), atoms.join(", "))
}

/// One ontology-mediated query as a client sends it.
#[derive(Debug, Clone)]
pub struct Omq {
    /// The R/S word the query is built from.
    pub word: String,
    /// The query text sent to the system.
    pub text: String,
    /// The rewriting strategy requested.
    pub strategy: Strategy,
}

impl Omq {
    /// The OMQ of `word` under `strategy`.
    pub fn new(word: &str, strategy: Strategy) -> Self {
        Omq { word: word.to_owned(), text: word_text(word), strategy }
    }
}

/// Prefix 6 of Table-2 sequence 1 and prefix 5 of sequence 2 (the
/// `s1:6` and `s2:5` queries of `BENCH_eval.json`).
pub const S1_6: &str = "RRSRSR";
/// See [`S1_6`].
pub const S2_5: &str = "SRRRR";

/// Requests per pass of one serving client (`suite_s`): one copy of the
/// `serve_hot` mix.
pub const PASS_LEN: usize = 16;

/// The fixed `serve_hot` mix: [`PASS_LEN`] distinct OMQs, far below the
/// 128-entry prepared cache, in three classes of latency (medians on a
/// 2-vCPU VM): five transport-bound ones (`RRS`, `S`, `SR`, `SRS`, `RS`:
/// 0.1–0.4 ms, sub-millisecond joins), six mid-weight ones (`R`, `SRR`,
/// `RSR` under Adaptive and Tw, `RRS` under Tw, `s1:6` under Adaptive:
/// 0.9–1.6 ms) and five join-bound ones (`RR`, `s1:6` under Tw/Log, `s2:5`
/// under Presto-like/TwUCQ: 5–14 ms). Each client sends every OMQ once
/// per pass, so the pooled median falls in the middle of the mid-weight
/// class, where a lighter OMQ's tail barely moves it. (With two mid-weight
/// OMQs at the median rank, the tail of `R` moved the pooled p50 by up to
/// 25% between runs of one seed.)
pub fn hot_mix() -> Vec<Omq> {
    use Strategy::*;
    [
        ("RRS", Adaptive),
        ("S", Adaptive),
        ("SR", Adaptive),
        ("SRS", Adaptive),
        ("RS", Adaptive),
        ("R", Adaptive),
        ("SRR", Adaptive),
        ("RSR", Adaptive),
        ("RSR", Tw),
        ("RRS", Tw),
        (S1_6, Adaptive),
        ("RR", Adaptive),
        (S1_6, Tw),
        (S1_6, Log),
        (S2_5, PrestoLike),
        (S2_5, TwUcq),
    ]
    .iter()
    .map(|&(w, s)| Omq::new(w, s))
    .collect()
}

/// Longest run of `R`s allowed in an ad-hoc word. Over the complete
/// `R`-graph of dataset 1, a chain of four or more `R` atoms carries
/// ≥ 10⁵ intermediate bindings (the join kernel projects only at the
/// head), so such words measure the join kernel — which `answer_table2`
/// and the deadline probe already load — instead of the prepare path
/// this workload is for, and some of them trip any sane tuple budget.
pub const MAX_R_RUN: usize = 3;

/// `size` structurally distinct R/S words of 6–15 atoms (length drawn
/// uniformly, then letters uniformly; repeats and words with an `R`-run
/// longer than [`MAX_R_RUN`] are redrawn), in seeded order, all under the
/// default `Adaptive` strategy.
pub fn adhoc_pool(seed: u64, size: usize) -> Vec<Omq> {
    let mut rng = Rng::new(derive(seed, STREAM_ADHOC));
    let mut seen = HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let len = 6 + rng.below(10);
        let word: String = (0..len).map(|_| if rng.below(2) == 0 { 'R' } else { 'S' }).collect();
        if word.split('S').all(|run| run.len() <= MAX_R_RUN) && seen.insert(word.clone()) {
            pool.push(Omq::new(&word, Strategy::Adaptive));
        }
    }
    pool
}

/// One `answer_table2` cell: a Table-2 dataset and an OMQ.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Dataset index (0-based: `1.ttl` is 0).
    pub dataset: usize,
    /// The query.
    pub omq: Omq,
}

/// The 15 cells of `BENCH_eval.json`: datasets 1–4 crossed with `s1:6`
/// under Tw/Log and `s2:5` under TwUCQ/Presto-like, less `4.ttl s2:5
/// TwUCQ` (7.6 s on its own, longer than a whole pass of the others).
pub fn table2_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for dataset in 0..4 {
        for (word, strategy) in [
            (S1_6, Strategy::Tw),
            (S1_6, Strategy::Log),
            (S2_5, Strategy::TwUcq),
            (S2_5, Strategy::PrestoLike),
        ] {
            if dataset == 3 && strategy == Strategy::TwUcq {
                continue;
            }
            cells.push(Cell { dataset, omq: Omq::new(word, strategy) });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a: Vec<String> = adhoc_pool(7, 200).into_iter().map(|o| o.text).collect();
        let b: Vec<String> = adhoc_pool(7, 200).into_iter().map(|o| o.text).collect();
        let c: Vec<String> = adhoc_pool(8, 200).into_iter().map(|o| o.text).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 200, "pool words are distinct");
        let o = obda_bench::paper_system().ontology().clone();
        assert_eq!(table2_dataset(&o, 2, 0.05, 3), table2_dataset(&o, 2, 0.05, 3));
        assert_ne!(table2_dataset(&o, 2, 0.05, 3).seed, table2_dataset(&o, 2, 0.05, 4).seed);
        for seed in 0..4 {
            let labels = table2_dataset(&o, 0, 0.05, seed).generate(&o).members_by_class();
            assert!(labels.values().all(|m| m.len() == 3), "round(50 · 0.05) labels of each kind");
        }
    }

    #[test]
    fn word_text_is_the_linear_cq() {
        assert_eq!(word_text("RS"), "q(x0, x2) :- R(x0, x1), S(x1, x2)");
        assert_eq!(table2_cells().len(), 15);
        assert_eq!(hot_mix().len(), PASS_LEN);
    }
}
