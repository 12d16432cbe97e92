//! The serving workloads' plumbing: boot the in-process `obda serve`,
//! drive it with a closed loop of HTTP clients, and scrape its
//! `GET /metrics` exposition.

use crate::inputs::{Omq, Passes, PASS_LEN};
use crate::oracle::Expected;
use obda::budget::BudgetSpec;
use obda::ndl::engine::EngineConfig;
use obda::server::client;
use obda::{
    OverloadConfig, QueryService, RetryPolicy, Server, ServerConfig, ServerHandle, ServiceConfig,
    Snapshot,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Boots `obda serve`'s server over `snapshot` with its default 128-entry
/// prepared cache, `slots` worker slots, one engine thread per request,
/// and the adaptive overload stack off, as `experiments benchserve` runs
/// it. (With the stack on, cost admission refused a few well-formed
/// requests under this load with 429, which would make the benchmark's
/// failure count depend on the model's calibration drift.)
pub fn boot(snapshot: Snapshot, slots: usize) -> Result<ServerHandle, String> {
    let service = QueryService::new(
        obda_bench::paper_system(),
        ServiceConfig {
            max_concurrency: slots,
            max_queue: 16,
            budget: BudgetSpec::unlimited(),
            retry: RetryPolicy::default(),
            engine: Some(EngineConfig { threads: 1, ..EngineConfig::default() }),
            overload: OverloadConfig::default(),
        },
    );
    let cfg = ServerConfig { addr: "127.0.0.1:0".to_owned(), ..ServerConfig::default() };
    let server =
        Server::bind(service, Box::new(snapshot), cfg).map_err(|e| format!("bind server: {e}"))?;
    Ok(server.start())
}

/// Graceful shutdown; an undrained server is an error.
pub fn stop(handle: ServerHandle) -> Result<(), String> {
    handle.trigger().shutdown();
    if handle.join() {
        Ok(())
    } else {
        Err("server did not drain".to_owned())
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `200`, on time, oracle-exact.
    Ok,
    /// Connect, write or read failed.
    Transport,
    /// Any status but `200` (for a cell: a pipeline error).
    Error,
    /// `200` after the request's deadline.
    Late,
    /// `200` whose body is not the certain answers.
    Wrong,
}

/// `X-Obda-Strategy` value of a strategy (`Strategy::parse` accepts the
/// lower-cased variant names).
fn strategy_header(omq: &Omq) -> String {
    format!("{:?}", omq.strategy).to_ascii_lowercase()
}

/// Sends one `POST /query` carrying `deadline` as `X-Obda-Timeout-Ms` and
/// judges the response. Latency runs from connect to the last byte.
pub fn query(
    addr: SocketAddr,
    omq: &Omq,
    deadline: Duration,
    expected: &Expected,
) -> (f64, Verdict) {
    let strategy = strategy_header(omq);
    let timeout_ms = deadline.as_millis().to_string();
    let headers = [
        ("X-Obda-Tenant", "perfbench"),
        ("X-Obda-Strategy", strategy.as_str()),
        ("X-Obda-Timeout-Ms", timeout_ms.as_str()),
    ];
    // The socket gives up well after the deadline, so a wedged server
    // turns into a failed request instead of a hung benchmark.
    let io_timeout = deadline + Duration::from_secs(5);
    let start = Instant::now();
    let resp = client::request(addr, "POST", "/query", &headers, &omq.text, io_timeout);
    let elapsed = start.elapsed();
    let verdict = match resp {
        Err(_) => Verdict::Transport,
        Ok(r) if r.status != 200 => Verdict::Error,
        Ok(_) if elapsed > deadline => Verdict::Late,
        Ok(r) if !expected.matches(&r.body) => Verdict::Wrong,
        Ok(_) => Verdict::Ok,
    };
    (elapsed.as_secs_f64() * 1e3, verdict)
}

/// Which OMQ each client sends next.
pub enum Order<'a> {
    /// Every client walks the whole mix once per pass, in its own
    /// seeded order, reshuffled each pass.
    Shuffled {
        /// Seed of client 0; client `c` uses `seed + c`.
        seed: u64,
    },
    /// All clients take the next index of a shared cursor.
    Shared(&'a AtomicUsize),
}

impl Order<'_> {
    /// The endless index sequence client `c` sends, over `0..n`.
    fn client(&self, c: usize, n: usize) -> Box<dyn Iterator<Item = usize> + Send + '_> {
        match *self {
            Order::Shuffled { seed } => Box::new(Passes::new(seed.wrapping_add(c as u64), n)),
            Order::Shared(cursor) => {
                Box::new(std::iter::repeat_with(move || cursor.fetch_add(1, Ordering::Relaxed) % n))
            }
        }
    }
}

/// Tallies of a set of requests.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// `200`, on time and oracle-exact.
    pub ok: u64,
    /// Transport errors.
    pub transport: u64,
    /// Non-`200` statuses or pipeline errors.
    pub error: u64,
    /// Late `200`s.
    pub late: u64,
    /// Wrong `200` bodies.
    pub wrong: u64,
}

impl Tally {
    /// Books one verdict.
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Transport => self.transport += 1,
            Verdict::Error => self.error += 1,
            Verdict::Late => self.late += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.transport += o.transport;
        self.error += o.error;
        self.late += o.late;
        self.wrong += o.wrong;
    }

    /// Everything that was not `Ok`.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// What a closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Client-observed latency of every request, in ms, by OMQ index.
    pub by_omq_ms: Vec<Vec<f64>>,
    /// Wall time of every completed pass of [`PASS_LEN`] consecutive
    /// requests of one client, in seconds.
    pub pass_s: Vec<f64>,
    /// Verdict counts.
    pub tally: Tally,
    /// From the first send to the last client's last response.
    pub wall_s: f64,
}

/// A closed loop: `clients` threads each send a request, wait for the
/// whole response, and send the next, until `window` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    omqs: &[Omq],
    expected: &[Expected],
    clients: usize,
    window: Duration,
    deadline: Duration,
    order: &Order<'_>,
) -> LoopStats {
    let start = Instant::now();
    let end = start + window;
    let per_client: Vec<LoopStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = LoopStats {
                        by_omq_ms: vec![Vec::new(); omqs.len()],
                        ..LoopStats::default()
                    };
                    let mut next = order.client(c, omqs.len());
                    let mut pass_start = Instant::now();
                    let mut sent = 0usize;
                    while Instant::now() < end {
                        let k = next.next().expect("orders never end");
                        let (ms, verdict) = query(addr, &omqs[k], deadline, &expected[k]);
                        out.by_omq_ms[k].push(ms);
                        out.tally.add(verdict);
                        sent += 1;
                        if sent.is_multiple_of(PASS_LEN) {
                            out.pass_s.push(pass_start.elapsed().as_secs_f64());
                            pass_start = Instant::now();
                        }
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let mut all = LoopStats {
        wall_s: start.elapsed().as_secs_f64(),
        by_omq_ms: vec![Vec::new(); omqs.len()],
        ..LoopStats::default()
    };
    for c in per_client {
        for (all_k, k) in all.by_omq_ms.iter_mut().zip(c.by_omq_ms) {
            all_k.extend(k);
        }
        all.pass_s.extend(c.pass_s);
        all.tally.merge(&c.tally);
    }
    all
}

/// A scraped `GET /metrics` exposition.
pub struct Scrape(String);

impl Scrape {
    /// Fetches `/metrics`.
    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        let resp = client::request(addr, "GET", "/metrics", &[], "", Duration::from_secs(10))
            .map_err(|e| format!("scrape /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("scrape /metrics: status {}", resp.status));
        }
        Ok(Scrape(resp.body))
    }

    fn value(&self, series: &str) -> Option<f64> {
        self.0.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.trim().parse().ok())
    }

    /// A counter, 0 when the series was never created.
    pub fn counter(&self, name: &str) -> f64 {
        self.value(name).unwrap_or(0.0)
    }

    /// Mean of histogram `name` in seconds (exact: `_sum / _count`).
    pub fn mean(&self, name: &str) -> Option<f64> {
        let count = self.value(&format!("{name}_count"))?;
        (count > 0.0).then(|| self.value(&format!("{name}_sum")).unwrap_or(0.0) / count)
    }

    /// Quantile `q` of histogram `name` in seconds, interpolated inside
    /// its bucket exactly as the registry's own `Histogram::quantile`.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for line in self.0.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else { continue };
            let (le, cum) = rest.split_once("\"} ")?;
            let upper = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            buckets.push((upper, cum.trim().parse().ok()?));
        }
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).max(1.0);
        let mut lower = 0.0;
        let mut before = 0.0;
        for &(upper, cum) in &buckets {
            if cum >= rank && cum > before {
                if upper.is_infinite() {
                    return Some(lower);
                }
                return Some(lower + (upper - lower) * (rank - before) / (cum - before));
            }
            if upper.is_finite() {
                lower = upper;
            }
            before = cum;
        }
        Some(lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_counters_and_bucket_quantiles() {
        let s = Scrape(
            "hits_total 7\nlat_bucket{le=\"0.001\"} 0\nlat_bucket{le=\"0.002\"} 10\n\
             lat_bucket{le=\"+Inf\"} 10\nlat_count 10\nlat_sum 0.015\n"
                .to_owned(),
        );
        assert_eq!(s.counter("hits_total"), 7.0);
        assert_eq!(s.counter("misses_total"), 0.0);
        assert!((s.quantile("lat", 0.5).unwrap() - 0.0015).abs() < 1e-12);
        assert!((s.mean("lat").unwrap() - 0.0015).abs() < 1e-12);
    }
}
