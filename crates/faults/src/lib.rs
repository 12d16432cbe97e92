#![warn(missing_docs)]

//! # obda-faults
//!
//! Deterministic, seeded fault injection for chaos-testing the OBDA
//! pipeline.
//!
//! A [`FaultPlan`] maps *injection sites* — `&'static str` tags compiled
//! into the hot substrates (`ndl::storage` inserts and index builds,
//! `ndl::engine` clause tasks, chase materialisation, tree-witness
//! enumeration) — to a [`FaultSpec`]: what to raise ([`FaultKind`]) and
//! when ([`Trigger`]). Triggers are fully deterministic: nth-hit triggers
//! count per-site hits, probabilistic triggers hash `(seed, site, hit)`
//! with splitmix64, so the same plan over the same workload injects the
//! same faults in the same order regardless of wall clock or thread
//! interleaving of *independent* sites.
//!
//! ## How faults surface
//!
//! Sites call [`inject`] at well-defined points *before* mutating any
//! state. When the active plan fires, the site raises by unwinding:
//!
//! * [`FaultKind::Transient`] panics with a typed [`FaultError`] payload.
//!   The isolation boundaries (`catch_unwind` around engine worker tasks
//!   and around each pipeline attempt) downcast it back into the typed,
//!   **retryable** transient error of their error taxonomy.
//! * [`FaultKind::Panic`] panics with an ordinary string payload — an
//!   *escaped-panic stand-in* that the same boundaries must convert into
//!   `ObdaError::Internal`, never let abort the process.
//!
//! Raising by unwinding keeps the injection sites signature-free: an
//! infallible hot function like `Relation::insert_if_new` needs no
//! `Result` plumbing to participate, and release builds without the
//! `faults` cargo feature compile every site to nothing (the substrates
//! gate their `fault_point` shims on that feature; this crate is then not
//! even a dependency).
//!
//! ## Installing a plan
//!
//! [`FaultPlan::install`] arms the plan process-globally and returns a
//! guard; dropping the guard disarms it. Installation serialises on a
//! global mutex so concurrently running chaos tests cannot observe each
//! other's plans. The hot-path cost while no plan is armed is one relaxed
//! atomic load.

use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// The catalogue of registered injection sites, one tag per call site
/// compiled into the substrates. Kept in one place so chaos sweeps can
/// iterate every site.
pub mod site {
    /// `Relation::insert_if_new` in `obda_ndl::storage`, before any
    /// mutation of the row arena or dedup table.
    pub const STORAGE_INSERT: &str = "ndl::storage::insert";
    /// Lazy `ColumnIndex` construction in `obda_ndl::storage`, inside the
    /// `OnceLock` initialiser (the index slot stays empty on unwind).
    pub const STORAGE_INDEX_BUILD: &str = "ndl::storage::index_build";
    /// One clause task of the parallel engine (`obda_ndl::engine`), at
    /// task start — exercises worker-level panic isolation.
    pub const ENGINE_CLAUSE_TASK: &str = "ndl::engine::clause_task";
    /// One materialisation step of the chase (`obda_chase::model`), before
    /// the canonical model's arena/completion work.
    pub const CHASE_STEP: &str = "chase::materialise_step";
    /// One candidate of the tree-witness enumeration
    /// (`obda_rewrite::tree_witness`).
    pub const REWRITE_TREE_WITNESS: &str = "rewrite::tree_witness";
    /// The snapshot open path (`obda_store`), after the header is read but
    /// before any section is decoded — models a snapshot that passes the
    /// magic check yet fails mid-load (truncation, bit rot, I/O error).
    /// The store maps a transient unwind here into a typed `StoreError`.
    pub const STORE_OPEN: &str = "store::open";
    /// The column mapping path (`obda_store::map`), when a snapshot's
    /// bytes are memory-mapped (or read, on the fallback path) before
    /// any metadata is decoded — models `mmap`/read failures on an
    /// otherwise intact file. The store maps a transient unwind here
    /// into a typed `StoreError`, exactly like `store::open`.
    pub const STORE_MAP: &str = "store::map";
    /// One HTTP request handler of `obda serve` (`obda::server`), after
    /// the request is parsed and admitted but before the pipeline runs —
    /// models a request that poisons its own handler. The server's
    /// per-connection isolation boundary must turn a transient unwind
    /// into a typed 503 and a deliberate panic into a 500, never kill
    /// the accept loop.
    pub const SERVER_HANDLE: &str = "server::handle";

    /// Every registered site, for exhaustive chaos sweeps.
    pub const ALL: [&str; 8] = [
        STORAGE_INSERT,
        STORAGE_INDEX_BUILD,
        ENGINE_CLAUSE_TASK,
        CHASE_STEP,
        REWRITE_TREE_WITNESS,
        STORE_OPEN,
        STORE_MAP,
        SERVER_HANDLE,
    ];
}

/// What an injection site raises when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A typed, retryable transient error ([`FaultError`] payload).
    Transient,
    /// A deliberate panic with an ordinary string payload.
    Panic,
}

/// When an injection site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// Only the `n`-th hit of the site (1-based), once.
    Nth(u64),
    /// Every `n`-th hit of the site (1-based period).
    EveryNth(u64),
    /// Each hit independently with probability `p` in `[0, 1]`, decided by
    /// a deterministic hash of `(seed, site, hit index)`.
    Probability(f64),
}

impl Trigger {
    fn fires(&self, seed: u64, site: &'static str, hit: u64) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n.max(1),
            Trigger::EveryNth(n) => hit.is_multiple_of(n.max(1)),
            Trigger::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let h = splitmix64(seed ^ splitmix64(fxhash_str(site)) ^ hit);
                // Top 53 bits → uniform in [0, 1).
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
        }
    }
}

/// What to raise and when, for one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What the site raises.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

/// The typed payload of a transient injected fault. Isolation boundaries
/// downcast unwind payloads to this type to distinguish retryable
/// injected faults from genuine panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    /// The site that raised (see [`site`]).
    pub site: &'static str,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected transient fault at {}", self.site)
    }
}

impl std::error::Error for FaultError {}

/// A deterministic, seeded fault plan: per-site specs plus the seed that
/// drives probabilistic triggers.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(&'static str, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds a rule for `site` (builder style). A later rule for the same
    /// site replaces the earlier one.
    pub fn with(mut self, site: &'static str, spec: FaultSpec) -> Self {
        self.rules.retain(|(s, _)| *s != site);
        self.rules.push((site, spec));
        self
    }

    /// Convenience: a plan injecting `kind` at `site` on every hit.
    pub fn always(seed: u64, site: &'static str, kind: FaultKind) -> Self {
        FaultPlan::new(seed).with(site, FaultSpec { kind, trigger: Trigger::Always })
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms the plan process-globally, returning a guard that disarms it
    /// on drop. Serialises with every other installed plan: a second
    /// `install` blocks until the first guard is dropped, so concurrent
    /// chaos tests never observe each other's faults.
    pub fn install(&self) -> InstalledPlan {
        let serial = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let armed = Arc::new(Armed {
            seed: self.seed,
            rules: self
                .rules
                .iter()
                .map(|&(site, spec)| (site, SiteState { spec, hits: AtomicU64::new(0) }))
                .collect(),
        });
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = Some(armed);
        ENABLED.store(true, Ordering::Release);
        InstalledPlan { _serial: serial }
    }
}

struct SiteState {
    spec: FaultSpec,
    hits: AtomicU64,
}

struct Armed {
    seed: u64,
    rules: HashMap<&'static str, SiteState>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<Armed>>> = RwLock::new(None);
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Guard returned by [`FaultPlan::install`]; disarms the plan on drop.
pub struct InstalledPlan {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for InstalledPlan {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

impl std::fmt::Debug for InstalledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstalledPlan").finish_non_exhaustive()
    }
}

/// The hit count a site has accumulated under the currently armed plan
/// (0 when no plan is armed or the plan has no rule for the site).
pub fn hits(site: &'static str) -> u64 {
    if !ENABLED.load(Ordering::Acquire) {
        return 0;
    }
    let active = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
    active
        .as_ref()
        .and_then(|armed| armed.rules.get(site))
        .map_or(0, |s| s.hits.load(Ordering::Relaxed))
}

/// An injection point. No-op unless a plan with a rule for `site` is
/// armed; otherwise counts the hit and, when the trigger fires, raises by
/// unwinding — [`FaultError`] for [`FaultKind::Transient`], a string
/// payload for [`FaultKind::Panic`]. Call *before* mutating state so an
/// unwind leaves the caller's data structures consistent.
#[inline]
pub fn inject(site: &'static str) {
    if !ENABLED.load(Ordering::Acquire) {
        return;
    }
    inject_slow(site);
}

#[cold]
fn inject_slow(site: &'static str) {
    let fired = {
        let active = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
        let Some(armed) = active.as_ref() else { return };
        let Some(state) = armed.rules.get(site) else { return };
        let hit = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if !state.spec.trigger.fires(armed.seed, site, hit) {
            return;
        }
        state.spec.kind
    };
    match fired {
        FaultKind::Transient => panic_any(FaultError { site }),
        FaultKind::Panic => panic_any(format!("injected panic at {site}")),
    }
}

/// splitmix64: the standard 64-bit finaliser, used to derive deterministic
/// per-hit randomness from `(seed, site, hit)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-style string hash (site tags are short; quality comes from the
/// splitmix64 finaliser on top).
fn fxhash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn no_plan_is_a_no_op() {
        // Hold the install lock, as every installed plan does, so no
        // concurrently running test arms a plan while this one checks
        // the unarmed path.
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Must not unwind and must cost nothing observable.
        for s in site::ALL {
            inject(s);
        }
        assert_eq!(hits(site::STORAGE_INSERT), 0);
    }

    #[test]
    fn transient_raises_typed_payload() {
        let plan = FaultPlan::always(7, site::ENGINE_CLAUSE_TASK, FaultKind::Transient);
        let _guard = plan.install();
        let err = catch_unwind(|| inject(site::ENGINE_CLAUSE_TASK)).unwrap_err();
        let fault = err.downcast_ref::<FaultError>().expect("typed payload");
        assert_eq!(fault.site, site::ENGINE_CLAUSE_TASK);
        // Other sites stay silent under this plan.
        inject(site::STORAGE_INSERT);
    }

    #[test]
    fn panic_kind_raises_string_payload() {
        let plan = FaultPlan::always(7, site::CHASE_STEP, FaultKind::Panic);
        let _guard = plan.install();
        let err = catch_unwind(|| inject(site::CHASE_STEP)).unwrap_err();
        assert!(err.downcast_ref::<FaultError>().is_none());
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(1).with(
            site::STORAGE_INSERT,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Nth(3) },
        );
        let _guard = plan.install();
        inject(site::STORAGE_INSERT);
        inject(site::STORAGE_INSERT);
        assert!(catch_unwind(|| inject(site::STORAGE_INSERT)).is_err());
        for _ in 0..10 {
            inject(site::STORAGE_INSERT); // never again
        }
        assert_eq!(hits(site::STORAGE_INSERT), 13);
    }

    #[test]
    fn every_nth_trigger_has_a_period() {
        let plan = FaultPlan::new(1).with(
            site::STORAGE_INSERT,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::EveryNth(4) },
        );
        let _guard = plan.install();
        let mut fired = Vec::new();
        for i in 1..=12u64 {
            if catch_unwind(|| inject(site::STORAGE_INSERT)).is_err() {
                fired.push(i);
            }
        }
        assert_eq!(fired, vec![4, 8, 12]);
    }

    #[test]
    fn probability_is_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with(
                site::REWRITE_TREE_WITNESS,
                FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Probability(0.3) },
            );
            let _guard = plan.install();
            (0..64)
                .map(|_| {
                    catch_unwind(AssertUnwindSafe(|| inject(site::REWRITE_TREE_WITNESS))).is_err()
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same faults");
        assert_ne!(a, c, "different seed, different faults");
        let rate = a.iter().filter(|&&f| f).count();
        assert!(rate > 5 && rate < 40, "roughly 30%: {rate}/64");
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _g = FaultPlan::always(0, site::STORAGE_INSERT, FaultKind::Transient).install();
            assert!(catch_unwind(|| inject(site::STORAGE_INSERT)).is_err());
        }
        inject(site::STORAGE_INSERT); // disarmed: no unwind
    }

    #[test]
    fn later_rule_replaces_earlier_for_same_site() {
        let plan = FaultPlan::always(0, site::STORAGE_INSERT, FaultKind::Panic).with(
            site::STORAGE_INSERT,
            FaultSpec { kind: FaultKind::Transient, trigger: Trigger::Always },
        );
        let _g = plan.install();
        let err = catch_unwind(|| inject(site::STORAGE_INSERT)).unwrap_err();
        assert!(err.downcast_ref::<FaultError>().is_some());
    }
}
