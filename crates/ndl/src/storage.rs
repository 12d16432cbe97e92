//! Shared indexed relation storage for the evaluators.
//!
//! The seed engine re-scanned the whole [`DataInstance`] to rebuild every
//! EDB relation on every `evaluate` call and stored relations as
//! `FxHashSet<Vec<u32>>` — one heap allocation per row and a fresh join
//! index per clause atom. This module replaces that substrate:
//!
//! * [`Relation`] — a columnar relation: one flat row-major `Vec<u32>`
//!   arena plus an arity, no per-row allocation, with exact hash-based
//!   deduplication and *lazy* per-column hash indexes (built at most once,
//!   cached inside the relation, shared by every clause and every
//!   evaluation that probes the same column);
//! * [`Database`] — every EDB relation of a data instance, built **once**
//!   via the grouped-access APIs of `obda_owlql::abox` and then shared by
//!   all evaluations (`evaluate_on`, `evaluate_linear_on`) and all
//!   rewriting strategies of the experiment harness.
//!
//! ## Immutability contract and thread safety
//!
//! Mutation ([`Relation::push`], [`Relation::insert_if_new`]) requires
//! `&mut Relation` and eagerly drops every cached [`ColumnIndex`], so a
//! stale index can never be observed through a shared reference: creating
//! one requires exclusive access, which ends all outstanding borrows of the
//! old index first. Conversely, while any `&Relation` is live the relation
//! is frozen — rows, the dedup table, and indexes cannot change.
//!
//! That aliasing guarantee is what makes the parallel engine in
//! [`crate::engine`] sound. During a stratum, worker threads hold only
//! shared references to the [`Database`] and to the relations of earlier
//! strata; the lazy index cache is a `OnceLock` per column, so concurrent
//! first probes of the same column race only inside `get_or_init`, which
//! serialises initialisation and hands every thread the same index.
//! Relations being *built* in the current stratum are each behind a
//! `Mutex` and are only promoted to the shared, read-only set at the
//! stratum barrier — i.e. `Relation` is `Sync` for readers and requires
//! external exclusion for writers, exactly matching `&`/`&mut` semantics.
//!
//! ## Shared arenas and lazy hydration
//!
//! A relation's row arena is either *owned* (a plain `Vec<u32>`: the
//! parse path and every mutable relation) or *shared* (a read-only
//! [`ArenaWords`] view, e.g. a memory-mapped snapshot column — see
//! [`Relation::from_shared`]). The immutability contract above extends
//! unchanged: mutating a shared-arena relation first copies the words
//! into an owned arena under `&mut` (copy-on-write), so shared words
//! are never written through.
//!
//! [`Database`] slots are [`LazyRelation`]s: the parse path fills them
//! eagerly, while the snapshot store installs *hydrators* that decode a
//! relation on first touch. Hydration runs inside a `OnceLock`
//! initialiser through `&Database`, sound for the same reason lazy
//! column indexes are — every reader serialises on the slot and
//! observes the one hydrated relation, and mutation would require the
//! `&mut` access that cannot coexist with readers. [`Database::prefetch`]
//! hydrates a predicate set up front (the relevance pruner's relevant
//! set), so a pruned query faults in only the columns it joins.

use crate::program::PredKind;
use crate::rowset::RowSet;
use crate::stats::RelStats;
use obda_owlql::abox::DataInstance;
use obda_owlql::util::FxHashMap;
use obda_owlql::vocab::{ClassId, PropId};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Read-only word storage that can back a [`Relation`]'s row arena
/// without being copied into it — the seam the snapshot store threads
/// its memory-mapped columns through. Implementations must return the
/// same immutable slice for the lifetime of the value.
pub trait ArenaWords: Send + Sync {
    /// The row-major words (`num_rows × arity` values).
    fn words(&self) -> &[u32];
}

impl ArenaWords for Vec<u32> {
    fn words(&self) -> &[u32] {
        self
    }
}

/// A relation's row arena: owned words, or a shared read-only view.
enum Arena {
    Owned(Vec<u32>),
    Shared(Arc<dyn ArenaWords>),
}

impl Arena {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Arena::Owned(v) => v,
            Arena::Shared(s) => s.words(),
        }
    }

    /// The owned words, copying a shared arena first (copy-on-write;
    /// requires `&mut`, so no shared view of the old words survives).
    fn to_mut(&mut self) -> &mut Vec<u32> {
        if let Arena::Shared(s) = self {
            *self = Arena::Owned(s.words().to_vec());
        }
        match self {
            Arena::Owned(v) => v,
            Arena::Shared(_) => unreachable!("converted to Owned above"),
        }
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::Owned(Vec::new())
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arena::Owned(v) => write!(f, "Owned({} words)", v.len()),
            Arena::Shared(s) => write!(f, "Shared({} words)", s.words().len()),
        }
    }
}

/// An index over one column of a [`Relation`]: value → row numbers.
///
/// Two representations behind one probe API: the lazily built hash map,
/// and a CSR (compressed-sparse-rows) form decoded from a snapshot's
/// persisted index section — sorted distinct keys, a prefix-offset
/// array, and one flat row-id arena, probed by binary search.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    repr: IndexRepr,
}

#[derive(Debug, Clone)]
enum IndexRepr {
    Hash(FxHashMap<u32, Vec<u32>>),
    Csr {
        /// Distinct column values, strictly ascending.
        keys: Vec<u32>,
        /// `keys.len() + 1` prefix offsets into `rows`.
        starts: Vec<u32>,
        /// Row numbers grouped by key.
        rows: Vec<u32>,
    },
}

impl Default for ColumnIndex {
    fn default() -> Self {
        ColumnIndex { repr: IndexRepr::Hash(FxHashMap::default()) }
    }
}

impl ColumnIndex {
    /// Builds a CSR index from decoded arrays, validating the
    /// representation invariants: strictly ascending keys and exactly
    /// `keys.len() + 1` monotone offsets running from `0` to
    /// `rows.len()`. Returns `None` on any violation — a forged or
    /// stale persisted index must not be installed (the lazy hash
    /// build wins instead).
    pub fn from_csr(keys: Vec<u32>, starts: Vec<u32>, rows: Vec<u32>) -> Option<Self> {
        if starts.len() != keys.len() + 1
            || !keys.windows(2).all(|w| w[0] < w[1])
            || starts.first() != Some(&0)
            || starts.windows(2).any(|w| w[0] > w[1])
            || *starts.last()? as usize != rows.len()
        {
            return None;
        }
        Some(ColumnIndex { repr: IndexRepr::Csr { keys, starts, rows } })
    }

    /// The rows whose indexed column equals `key`.
    pub fn probe(&self, key: u32) -> &[u32] {
        match &self.repr {
            IndexRepr::Hash(map) => map.get(&key).map(Vec::as_slice).unwrap_or(&[]),
            IndexRepr::Csr { keys, starts, rows } => match keys.binary_search(&key) {
                Ok(i) => &rows[starts[i] as usize..starts[i + 1] as usize],
                Err(_) => &[],
            },
        }
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        match &self.repr {
            IndexRepr::Hash(map) => map.len(),
            IndexRepr::Csr { keys, .. } => keys.len(),
        }
    }

    /// Total row references across all keys.
    fn total_rows(&self) -> usize {
        match &self.repr {
            IndexRepr::Hash(map) => map.values().map(Vec::len).sum(),
            IndexRepr::Csr { rows, .. } => rows.len(),
        }
    }

    /// The largest row number referenced, if any.
    fn max_row(&self) -> Option<u32> {
        match &self.repr {
            IndexRepr::Hash(map) => map.values().flatten().copied().max(),
            IndexRepr::Csr { rows, .. } => rows.iter().copied().max(),
        }
    }
}

/// A columnar relation: `num_rows` rows of `arity` values in one flat
/// row-major arena.
#[derive(Debug, Default)]
pub struct Relation {
    arity: usize,
    num_rows: usize,
    data: Arena,
    /// Exact dedup: a [`RowSet`] of row numbers into `data`. Built lazily
    /// by the first [`Relation::insert_if_new`] or [`Relation::contains`];
    /// plain [`Relation::push`] loading of already-distinct rows never
    /// pays for it, and keeps it current once it exists.
    dedup: OnceLock<RowSet>,
    /// Lazily built per-column indexes, invalidated on mutation.
    indexes: Vec<OnceLock<ColumnIndex>>,
    /// Lazily computed cardinality statistics, invalidated on mutation.
    /// The snapshot store presets this slot from the persisted stats
    /// section so reopening never re-scans the columns.
    stats: OnceLock<RelStats>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            num_rows: 0,
            data: Arena::Owned(Vec::new()),
            dedup: OnceLock::new(),
            indexes: (0..arity).map(|_| OnceLock::new()).collect(),
            stats: OnceLock::new(),
        }
    }

    /// An empty relation with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        let mut r = Relation::new(arity);
        r.data.to_mut().reserve(rows * arity);
        r
    }

    /// A relation borrowing its row-major arena from shared read-only
    /// storage (the snapshot store's zero-copy hydration path: the words
    /// stay in the memory-mapped file, never copied into the heap).
    /// Indexes and stats are lazy exactly as for an owned relation;
    /// mutation copies the words out first (copy-on-write).
    ///
    /// # Panics
    /// Panics if `arena.words().len() != arity * num_rows` — the caller
    /// must have validated the segment's declared geometry already.
    pub fn from_shared(arity: usize, num_rows: usize, arena: Arc<dyn ArenaWords>) -> Self {
        assert_eq!(
            arena.words().len(),
            arity * num_rows,
            "shared arena has {} words, expected {arity}×{num_rows}",
            arena.words().len()
        );
        Relation {
            arity,
            num_rows,
            data: Arena::Shared(arena),
            dedup: OnceLock::new(),
            indexes: (0..arity).map(|_| OnceLock::new()).collect(),
            stats: OnceLock::new(),
        }
    }

    /// Whether the row arena is a shared view rather than owned words.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Arena::Shared(_))
    }

    /// Builds a relation from decomposed columns of already-distinct rows
    /// (the snapshot store's bulk-load path: one contiguous copy per
    /// column, no per-row hashing or dedup, and the per-column hash
    /// indexes stay lazy behind the usual `OnceLock`s).
    ///
    /// Column `c` supplies the `c`-th value of every row, so all columns
    /// must have equal length; rows are interleaved back into the
    /// row-major arena.
    ///
    /// # Panics
    /// Panics if the columns have unequal lengths.
    pub fn from_sorted_columns(arity: usize, columns: &[Vec<u32>]) -> Self {
        assert_eq!(columns.len(), arity, "expected {arity} columns, got {}", columns.len());
        let rows = columns.first().map_or(0, Vec::len);
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "column {c} has {} rows, expected {rows}", col.len());
        }
        let mut r = Relation::with_capacity(arity, rows);
        let data = r.data.to_mut();
        if let [a, b] = columns {
            // Binary fast path: a bounds-check-free zip interleave (the
            // bulk of a snapshot's rows are property pairs).
            data.extend(a.iter().zip(b).flat_map(|(&x, &y)| [x, y]));
        } else if arity == 1 {
            // Unary fast path: the column *is* the arena.
            data.extend_from_slice(&columns[0]);
        } else {
            for i in 0..rows {
                for col in columns {
                    data.push(col[i]);
                }
            }
        }
        r.num_rows = rows;
        r
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.num_rows
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data.as_slice()[i * self.arity..(i + 1) * self.arity]
    }

    /// The whole row-major arena (`len() × arity()` words). The join
    /// kernel reads it once per plan step instead of once per row.
    pub(crate) fn words(&self) -> &[u32] {
        self.data.as_slice()
    }

    /// Iterates over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        // `chunks_exact(0)` panics, so arity-0 relations (Boolean goals)
        // yield `num_rows` empty rows explicitly.
        let arity = self.arity;
        let data = self.data.as_slice();
        (0..self.num_rows).map(move |i| &data[i * arity..i * arity + arity])
    }

    /// Appends a row without checking for duplicates (bulk loading of rows
    /// known to be distinct, e.g. from a set-backed [`DataInstance`]).
    pub fn push(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.arity);
        self.invalidate_indexes();
        if let Some(dedup) = self.dedup.get_mut() {
            dedup.push_new(row);
        }
        self.data.to_mut().extend_from_slice(row);
        self.num_rows += 1;
    }

    /// Inserts a row unless an equal row is already present; returns
    /// whether the row is new. Exact: hash collisions are resolved by
    /// comparing the stored rows.
    pub fn insert_if_new(&mut self, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        // Injection site sits before any mutation: an unwind here leaves
        // the arena, dedup table and indexes exactly as they were.
        crate::fault::inject(crate::fault::site::STORAGE_INSERT);
        if self.dedup.get().is_none() {
            self.dedup = OnceLock::from(self.row_set());
        }
        // Split borrows: the set is held mutably while the arena is only
        // read, then the new row is appended. `to_mut` first: a shared
        // arena is copied out before any mutation is attempted.
        let data = self.data.to_mut();
        let Some(dedup) = self.dedup.get_mut() else {
            unreachable!("the dedup set was installed above")
        };
        debug_assert_eq!(dedup.len(), self.num_rows, "one set entry per row");
        if !dedup.insert(data, self.arity, row) {
            return false;
        }
        data.extend_from_slice(row);
        self.num_rows += 1;
        self.invalidate_indexes();
        true
    }

    /// Whether an equal row is present: exact, O(1) per call once the
    /// dedup set exists (the first call on a push-loaded relation builds
    /// it, under `&self` like the lazy column indexes).
    pub fn contains(&self, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        self.dedup.get_or_init(|| self.row_set()).find(self.words(), self.arity, row).is_some()
    }

    /// A fresh dedup set over the current rows.
    fn row_set(&self) -> RowSet {
        RowSet::from_rows(self.words(), self.arity, self.num_rows)
    }

    /// The cardinality statistics, computed on first use (one pass per
    /// column) and cached until the relation is mutated. Safe to call
    /// concurrently on a shared `&Relation`, like [`Relation::column_index`].
    pub fn stats(&self) -> &RelStats {
        self.stats.get_or_init(|| RelStats::compute(self))
    }

    /// Presets the stats slot from persisted values (the snapshot open
    /// path). Ignored if stats were already computed, or if `distinct`
    /// does not match the arity / exceeds the row count (a forged or
    /// stale section must not poison planning — the lazy recompute wins).
    pub fn preset_stats(&self, distinct: Vec<u64>, sorted_col0: bool) {
        let rows = self.num_rows as u64;
        if distinct.len() != self.arity || distinct.iter().any(|&d| d > rows) {
            return;
        }
        let _ = self.stats.set(RelStats::from_persisted(self.num_rows, distinct, sorted_col0));
    }

    /// Whether the hash index of `col` has already been built (the
    /// planner folds the build cost into its access-path estimates).
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.get(col).is_some_and(|slot| slot.get().is_some())
    }

    /// The row range whose column 0 equals `key`, by binary search.
    /// Only meaningful when the relation is sorted on column 0
    /// ([`RelStats::sorted_col0`]); the kernel's merge access path uses
    /// this instead of building a hash index.
    pub fn equal_range_col0(&self, key: u32) -> (usize, usize) {
        debug_assert!(self.arity > 0);
        let lo = self.partition_point_col0(|v| v < key);
        let hi = self.partition_point_col0(|v| v <= key);
        (lo, hi)
    }

    fn partition_point_col0(&self, pred: impl Fn(u32) -> bool) -> usize {
        let data = self.data.as_slice();
        let (mut lo, mut hi) = (0usize, self.num_rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(data[mid * self.arity]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The hash index of a column, built on first use and cached until the
    /// relation is mutated.
    ///
    /// Safe to call from several threads at once on a shared `&Relation`:
    /// the per-column `OnceLock` serialises construction and every caller
    /// receives the same cached index.
    pub fn column_index(&self, col: usize) -> &ColumnIndex {
        assert!(col < self.arity, "column {col} out of range for arity {}", self.arity);
        self.indexes[col].get_or_init(|| {
            // An unwind out of a `OnceLock` initialiser leaves the slot
            // empty (not poisoned), so a retried evaluation rebuilds it.
            crate::fault::inject(crate::fault::site::STORAGE_INDEX_BUILD);
            let mut map: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for i in 0..self.num_rows {
                map.entry(self.row(i)[col]).or_default().push(i as u32);
            }
            ColumnIndex { repr: IndexRepr::Hash(map) }
        })
    }

    /// Presets a column's index slot from a persisted index (the snapshot
    /// open path, mirroring [`Relation::preset_stats`]). Ignored if the
    /// column is out of range, an index was already built, or the
    /// candidate is implausible — it must reference exactly `len()` rows,
    /// all in range — so a forged or stale persisted index can never
    /// corrupt probes; the lazy hash build wins instead.
    pub fn preset_index(&self, col: usize, idx: ColumnIndex) {
        if col >= self.arity || idx.total_rows() != self.num_rows {
            return;
        }
        if idx.max_row().is_some_and(|m| m as usize >= self.num_rows) {
            return;
        }
        let _ = self.indexes[col].set(idx);
    }

    /// Drops every cached column index. Called by all mutating methods
    /// *before* the row store changes; requires `&mut self`, so no shared
    /// reference to a stale index can survive the mutation (the borrow
    /// checker ends those borrows before exclusive access begins).
    fn invalidate_indexes(&mut self) {
        for slot in &mut self.indexes {
            if slot.get().is_some() {
                *slot = OnceLock::new();
            }
        }
        if self.stats.get().is_some() {
            self.stats = OnceLock::new();
        }
    }
}

thread_local! {
    /// How many [`Database`]s this thread has built — used by the
    /// experiment harness and tests to assert that dataset loading is
    /// amortised (at most one build per dataset, shared across all
    /// strategies). Per thread because a build runs on its caller's
    /// thread: a process-wide count would also see every build of every
    /// other thread, so concurrent tests could not assert "no rebuild".
    static DATABASE_BUILDS: Cell<usize> = const { Cell::new(0) };
}

fn count_build() {
    DATABASE_BUILDS.with(|n| n.set(n.get() + 1));
}

/// Monotone id source for [`Database::id`]; never reused within a process.
static DATABASE_IDS: AtomicUsize = AtomicUsize::new(1);

/// A [`Database`] slot that hydrates its [`Relation`] on first touch.
///
/// The parse path fills slots eagerly ([`LazyRelation::ready`]); the
/// snapshot store installs a hydrator closure ([`LazyRelation::lazy`])
/// that decodes the relation from the mapped file when some evaluation
/// first asks for it. Hydration is serialised by a `OnceLock`, so
/// concurrent first readers observe exactly one relation, and a panic
/// out of the hydrator leaves the slot empty for a retried evaluation.
pub struct LazyRelation {
    cell: OnceLock<Relation>,
    init: Option<Box<dyn Fn() -> Relation + Send + Sync>>,
}

impl LazyRelation {
    /// An already-hydrated slot (the parse path).
    pub fn ready(rel: Relation) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(rel);
        LazyRelation { cell, init: None }
    }

    /// A slot hydrated by `init` on first access (the snapshot path).
    pub fn lazy(init: impl Fn() -> Relation + Send + Sync + 'static) -> Self {
        LazyRelation { cell: OnceLock::new(), init: Some(Box::new(init)) }
    }

    /// Whether the relation has been hydrated already.
    pub fn is_hydrated(&self) -> bool {
        self.cell.get().is_some()
    }

    /// The relation, hydrating it first if needed.
    pub fn get(&self) -> &Relation {
        self.cell.get_or_init(|| match &self.init {
            Some(init) => init(),
            // Unreachable: `ready` pre-fills the cell and `lazy` sets
            // `init`, so an empty cell always has a hydrator.
            None => panic!("LazyRelation with neither relation nor hydrator"),
        })
    }
}

impl std::fmt::Debug for LazyRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cell.get() {
            Some(rel) => f.debug_tuple("Hydrated").field(rel).finish(),
            None => f.write_str("Pending"),
        }
    }
}

/// Every EDB relation of a data instance, loaded and indexed once, shared
/// across evaluations. Slots hydrate lazily when built via
/// [`Database::from_lazy_relations`]; all other constructors are eager.
#[derive(Debug)]
pub struct Database {
    classes: FxHashMap<ClassId, LazyRelation>,
    props: FxHashMap<PropId, LazyRelation>,
    /// The active domain `⊤` (all individuals), arity 1.
    universe: Relation,
    empty_unary: Relation,
    empty_binary: Relation,
    num_atoms: usize,
    /// Process-unique instance id; plan caches key on it.
    id: u64,
}

impl Database {
    /// Loads a data instance: one pass over the class atoms, one over the
    /// property atoms, one over the individuals.
    pub fn new(data: &DataInstance) -> Self {
        count_build();
        let mut classes = FxHashMap::default();
        for (c, members) in data.members_by_class() {
            let mut rel = Relation::with_capacity(1, members.len());
            for a in members {
                rel.push(&[a.0]);
            }
            classes.insert(c, LazyRelation::ready(rel));
        }
        let mut props = FxHashMap::default();
        for (p, pairs) in data.pairs_by_prop() {
            let mut rel = Relation::with_capacity(2, pairs.len());
            for (a, b) in pairs {
                rel.push(&[a.0, b.0]);
            }
            props.insert(p, LazyRelation::ready(rel));
        }
        let mut universe = Relation::with_capacity(1, data.num_individuals());
        for a in data.individuals() {
            universe.push(&[a.0]);
        }
        Database {
            classes,
            props,
            universe,
            empty_unary: Relation::new(1),
            empty_binary: Relation::new(2),
            num_atoms: data.num_atoms(),
            id: DATABASE_IDS.fetch_add(1, Ordering::Relaxed) as u64,
        }
    }

    /// Assembles a database from pre-built relations (the snapshot store's
    /// open path, bypassing [`Database::new`]'s per-atom scans). Counts as
    /// a build for [`Database::build_count`], so load-amortisation
    /// assertions in the experiment harness see snapshot opens too.
    ///
    /// `universe` must be the arity-1 relation of all individuals and
    /// `num_atoms` the total class + property atom count.
    pub fn from_relations(
        classes: FxHashMap<ClassId, Relation>,
        props: FxHashMap<PropId, Relation>,
        universe: Relation,
        num_atoms: usize,
    ) -> Self {
        Database::from_lazy_relations(
            classes.into_iter().map(|(c, r)| (c, LazyRelation::ready(r))).collect(),
            props.into_iter().map(|(p, r)| (p, LazyRelation::ready(r))).collect(),
            universe,
            num_atoms,
        )
    }

    /// Assembles a database whose relation slots may hydrate lazily (the
    /// snapshot store's mmap open path: each [`LazyRelation`] decodes its
    /// segment columns on first touch). Counts as one build regardless of
    /// how many slots ever hydrate.
    ///
    /// `universe` must be the arity-1 relation of all individuals and
    /// `num_atoms` the total class + property atom count.
    pub fn from_lazy_relations(
        classes: FxHashMap<ClassId, LazyRelation>,
        props: FxHashMap<PropId, LazyRelation>,
        universe: Relation,
        num_atoms: usize,
    ) -> Self {
        count_build();
        assert_eq!(universe.arity(), 1, "universe must be unary");
        Database {
            classes,
            props,
            universe,
            empty_unary: Relation::new(1),
            empty_binary: Relation::new(2),
            num_atoms,
            id: DATABASE_IDS.fetch_add(1, Ordering::Relaxed) as u64,
        }
    }

    /// A process-unique id for this database instance. Query-plan caches
    /// key on it: two databases never share an id, so a plan computed
    /// against one can never be replayed against another's statistics.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Iterates over the non-empty class relations (snapshot export;
    /// hydrates every class slot).
    pub fn class_relations(&self) -> impl Iterator<Item = (ClassId, &Relation)> {
        self.classes.iter().map(|(&c, r)| (c, r.get()))
    }

    /// Iterates over the non-empty property relations (snapshot export;
    /// hydrates every property slot).
    pub fn prop_relations(&self) -> impl Iterator<Item = (PropId, &Relation)> {
        self.props.iter().map(|(&p, r)| (p, r.get()))
    }

    /// The relation of an EDB predicate kind, hydrating a lazy slot on
    /// first touch.
    ///
    /// # Panics
    /// Panics on [`PredKind::Idb`]: IDB relations are computed by the
    /// evaluators, not stored.
    pub fn relation(&self, kind: PredKind) -> &Relation {
        match kind {
            PredKind::EdbClass(c) => {
                self.classes.get(&c).map_or(&self.empty_unary, LazyRelation::get)
            }
            PredKind::EdbProp(p) => {
                self.props.get(&p).map_or(&self.empty_binary, LazyRelation::get)
            }
            PredKind::Top => &self.universe,
            PredKind::Idb => panic!("IDB relations are computed, not stored"),
        }
    }

    /// Hydrates every not-yet-hydrated slot among `kinds`, returning
    /// `(relations, columns)` newly hydrated. The engine seeds this from
    /// the relevance pruner's relevant-predicate set so a pruned query
    /// faults in only the columns it joins; already-hydrated and
    /// absent-from-data predicates cost nothing.
    pub fn prefetch(&self, kinds: impl IntoIterator<Item = PredKind>) -> (u64, u64) {
        let (mut relations, mut columns) = (0u64, 0u64);
        for kind in kinds {
            let slot = match kind {
                PredKind::EdbClass(c) => self.classes.get(&c),
                PredKind::EdbProp(p) => self.props.get(&p),
                PredKind::Top | PredKind::Idb => None,
            };
            if let Some(slot) = slot {
                if !slot.is_hydrated() {
                    let rel = slot.get();
                    relations += 1;
                    columns += rel.arity() as u64;
                }
            }
        }
        (relations, columns)
    }

    /// Number of individuals (rows of `⊤`).
    pub fn num_individuals(&self) -> usize {
        self.universe.len()
    }

    /// Number of atoms loaded.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Total [`Database`] builds on the calling thread (monotone
    /// counter; builds on other threads are not counted).
    pub fn build_count() -> usize {
        DATABASE_BUILDS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_owlql::parser::{parse_data, parse_ontology};

    #[test]
    fn columnar_relation_roundtrip() {
        let mut r = Relation::new(2);
        r.push(&[1, 2]);
        r.push(&[3, 4]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[3, 4]);
        assert_eq!(r.rows().count(), 2);
        assert!(r.contains(&[1, 2]));
        assert!(!r.contains(&[2, 1]));
    }

    #[test]
    fn insert_if_new_deduplicates_exactly() {
        let mut r = Relation::new(2);
        assert!(r.insert_if_new(&[1, 2]));
        assert!(!r.insert_if_new(&[1, 2]));
        assert!(r.insert_if_new(&[2, 1]));
        assert_eq!(r.len(), 2);
        // Mixed with push-loaded rows: dedup still exact.
        let mut s = Relation::new(1);
        s.push(&[7]);
        assert!(!s.insert_if_new(&[7]));
        assert!(s.insert_if_new(&[8]));
        s.push(&[9]);
        assert!(!s.insert_if_new(&[9]));
    }

    #[test]
    fn arity_zero_relations_hold_the_empty_row() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert!(r.insert_if_new(&[]));
        assert!(!r.insert_if_new(&[]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows().next(), Some(&[][..]));
    }

    #[test]
    fn column_index_probes_and_invalidates() {
        let mut r = Relation::new(2);
        r.push(&[1, 10]);
        r.push(&[1, 20]);
        r.push(&[2, 10]);
        let idx = r.column_index(0);
        assert_eq!(idx.probe(1), &[0, 1]);
        assert_eq!(idx.probe(9), &[] as &[u32]);
        assert_eq!(idx.num_keys(), 2);
        assert_eq!(r.column_index(1).probe(10), &[0, 2]);
        // Mutation invalidates; the rebuilt index sees the new row.
        r.push(&[1, 30]);
        assert_eq!(r.column_index(0).probe(1), &[0, 1, 3]);
    }

    #[test]
    fn from_sorted_columns_interleaves_and_indexes() {
        let r = Relation::from_sorted_columns(2, &[vec![1, 1, 2], vec![10, 20, 10]]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(1), &[1, 20]);
        assert!(r.contains(&[2, 10]));
        assert_eq!(r.column_index(0).probe(1), &[0, 1]);
        assert_eq!(r.column_index(1).probe(10), &[0, 2]);
        let unary = Relation::from_sorted_columns(1, &[vec![5, 6]]);
        assert_eq!(unary.len(), 2);
        assert_eq!(unary.row(0), &[5]);
        let empty = Relation::from_sorted_columns(2, &[Vec::new(), Vec::new()]);
        assert!(empty.is_empty());
        assert_eq!(empty.arity(), 2);
    }

    #[test]
    fn from_relations_matches_scanned_build() {
        let o = parse_ontology("Class A\nProperty P\n").unwrap();
        let d = parse_data("P(x, y)\nA(x)\n", &o).unwrap();
        let scanned = Database::new(&d);
        let before = Database::build_count();
        let mut classes = FxHashMap::default();
        let mut props = FxHashMap::default();
        for (c, r) in scanned.class_relations() {
            classes
                .insert(c, Relation::from_sorted_columns(1, &[r.rows().map(|x| x[0]).collect()]));
        }
        for (p, r) in scanned.prop_relations() {
            let cols =
                [r.rows().map(|x| x[0]).collect::<Vec<_>>(), r.rows().map(|x| x[1]).collect()];
            props.insert(p, Relation::from_sorted_columns(2, &cols));
        }
        let universe = Relation::from_sorted_columns(
            1,
            &[scanned.relation(PredKind::Top).rows().map(|x| x[0]).collect()],
        );
        let db = Database::from_relations(classes, props, universe, scanned.num_atoms());
        assert_eq!(Database::build_count(), before + 1);
        assert_eq!(db.num_atoms(), 2);
        assert_eq!(db.num_individuals(), 2);
        let v = o.vocab();
        let p = db.relation(PredKind::EdbProp(v.get_prop("P").unwrap()));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn stats_cached_preset_and_invalidated() {
        let mut r = Relation::new(2);
        r.push(&[1, 10]);
        r.push(&[2, 10]);
        let s = r.stats();
        assert_eq!((s.rows, s.distinct.clone()), (2, vec![2, 1]));
        assert!(std::ptr::eq(r.stats(), r.stats()), "computed once");
        // A computed slot wins over a later preset.
        r.preset_stats(vec![9, 9], false);
        assert_eq!(r.stats().distinct, vec![2, 1]);
        // Mutation invalidates; the recomputed stats see the new row.
        r.push(&[3, 20]);
        assert_eq!(r.stats().distinct, vec![3, 2]);

        let mut p = Relation::new(2);
        p.push(&[1, 10]);
        p.push(&[2, 10]);
        p.preset_stats(vec![2, 1], true);
        assert_eq!(p.stats().distinct, vec![2, 1]);
        assert!(p.stats().sorted_col0);
        // Implausible persisted counts are rejected, falling back to lazy.
        let q = Relation::from_sorted_columns(1, &[vec![4, 5]]);
        q.preset_stats(vec![77], true);
        assert_eq!(q.stats().distinct, vec![2]);
    }

    #[test]
    fn equal_range_col0_binary_searches_sorted_rows() {
        let r = Relation::from_sorted_columns(2, &[vec![1, 1, 3, 3, 3, 7], vec![0; 6]]);
        assert!(r.stats().sorted_col0);
        assert_eq!(r.equal_range_col0(1), (0, 2));
        assert_eq!(r.equal_range_col0(3), (2, 5));
        assert_eq!(r.equal_range_col0(7), (5, 6));
        assert_eq!(r.equal_range_col0(2), (2, 2));
        assert_eq!(r.equal_range_col0(9), (6, 6));
        assert_eq!(r.equal_range_col0(0), (0, 0));
    }

    #[test]
    fn has_index_tracks_lazy_builds() {
        let mut r = Relation::new(2);
        r.push(&[1, 2]);
        assert!(!r.has_index(0));
        r.column_index(0);
        assert!(r.has_index(0));
        assert!(!r.has_index(1));
        r.push(&[3, 4]);
        assert!(!r.has_index(0), "mutation invalidates");
    }

    #[test]
    fn shared_arena_reads_and_copies_on_write() {
        let arena: Arc<dyn ArenaWords> = Arc::new(vec![1u32, 10, 2, 20]);
        let mut r = Relation::from_shared(2, 2, Arc::clone(&arena));
        assert!(r.is_shared());
        assert_eq!(r.row(1), &[2, 20]);
        assert_eq!(r.column_index(0).probe(2), &[1]);
        assert!(r.contains(&[1, 10]));
        // Mutation copies the words out; the shared arena is untouched.
        r.push(&[3, 30]);
        assert!(!r.is_shared());
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(2), &[3, 30]);
        assert_eq!(arena.words(), &[1, 10, 2, 20]);
        // insert_if_new on a fresh shared relation also copies out.
        let mut s = Relation::from_shared(1, 2, Arc::new(vec![5u32, 6]));
        assert!(!s.insert_if_new(&[5]));
        assert!(s.insert_if_new(&[7]));
        assert!(!s.is_shared());
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "shared arena")]
    fn shared_arena_geometry_is_checked() {
        let _ = Relation::from_shared(2, 2, Arc::new(vec![1u32, 2, 3]));
    }

    #[test]
    fn csr_index_probes_like_the_hash_index() {
        let idx =
            ColumnIndex::from_csr(vec![1, 2], vec![0, 2, 3], vec![0, 1, 2]).expect("valid CSR");
        assert_eq!(idx.probe(1), &[0, 1]);
        assert_eq!(idx.probe(2), &[2]);
        assert_eq!(idx.probe(9), &[] as &[u32]);
        assert_eq!(idx.num_keys(), 2);
        // Invariant violations are rejected.
        assert!(ColumnIndex::from_csr(vec![2, 1], vec![0, 1, 2], vec![0, 1]).is_none());
        assert!(ColumnIndex::from_csr(vec![1], vec![0], vec![0]).is_none());
        assert!(ColumnIndex::from_csr(vec![1], vec![1, 1], vec![]).is_none());
        assert!(ColumnIndex::from_csr(vec![1], vec![0, 2], vec![0]).is_none());
        assert!(ColumnIndex::from_csr(vec![1, 2], vec![0, 2, 1], vec![0, 1]).is_none());
    }

    #[test]
    fn preset_index_accepts_plausible_rejects_forged() {
        let r = Relation::from_sorted_columns(2, &[vec![1, 1, 2], vec![10, 20, 10]]);
        let good = ColumnIndex::from_csr(vec![1, 2], vec![0, 2, 3], vec![0, 1, 2]).unwrap();
        r.preset_index(0, good);
        assert!(r.has_index(0), "plausible persisted index installed");
        assert_eq!(r.column_index(0).probe(1), &[0, 1]);
        // Wrong total row count → rejected, lazy build wins.
        let short = ColumnIndex::from_csr(vec![10], vec![0, 1], vec![0]).unwrap();
        r.preset_index(1, short);
        assert!(!r.has_index(1));
        assert_eq!(r.column_index(1).probe(10), &[0, 2]);
        // Out-of-range row id → rejected.
        let s = Relation::from_sorted_columns(1, &[vec![4]]);
        let oob = ColumnIndex::from_csr(vec![4], vec![0, 1], vec![9]).unwrap();
        s.preset_index(0, oob);
        assert!(!s.has_index(0));
        // Out-of-range column → ignored, no panic.
        let valid = ColumnIndex::from_csr(vec![4], vec![0, 1], vec![0]).unwrap();
        s.preset_index(5, valid);
    }

    #[test]
    fn lazy_relations_hydrate_once_on_first_touch() {
        let hydrations = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hydrations);
        let lazy = LazyRelation::lazy(move || {
            h.fetch_add(1, Ordering::Relaxed);
            Relation::from_sorted_columns(1, &[vec![7, 8]])
        });
        assert!(!lazy.is_hydrated());
        assert_eq!(hydrations.load(Ordering::Relaxed), 0, "construction does not hydrate");
        assert_eq!(lazy.get().len(), 2);
        assert!(lazy.is_hydrated());
        assert_eq!(lazy.get().row(0), &[7]);
        assert_eq!(hydrations.load(Ordering::Relaxed), 1, "hydrated exactly once");
        let ready = LazyRelation::ready(Relation::new(2));
        assert!(ready.is_hydrated());
        assert!(ready.get().is_empty());
    }

    #[test]
    fn database_prefetch_hydrates_only_named_slots() {
        let o = parse_ontology("Class A\nProperty P\n").unwrap();
        let d = parse_data("P(x, y)\nA(x)\nA(y)\n", &o).unwrap();
        let eager = Database::new(&d);
        let v = o.vocab();
        let (a, p) = (v.get_class("A").unwrap(), v.get_prop("P").unwrap());
        let touched = Arc::new(AtomicUsize::new(0));
        let mk = |rel: Relation, touched: &Arc<AtomicUsize>| {
            let t = Arc::clone(touched);
            let cols: Vec<Vec<u32>> =
                (0..rel.arity()).map(|c| rel.rows().map(|r| r[c]).collect()).collect();
            let arity = rel.arity();
            LazyRelation::lazy(move || {
                t.fetch_add(1, Ordering::Relaxed);
                Relation::from_sorted_columns(arity, &cols)
            })
        };
        let mut classes = FxHashMap::default();
        classes.insert(a, mk(Relation::from_sorted_columns(1, &[vec![0, 1]]), &touched));
        let mut props = FxHashMap::default();
        props.insert(p, mk(Relation::from_sorted_columns(2, &[vec![0], vec![1]]), &touched));
        let universe = Relation::from_sorted_columns(1, &[vec![0, 1]]);
        let db = Database::from_lazy_relations(classes, props, universe, 3);
        assert_eq!(touched.load(Ordering::Relaxed), 0, "open hydrates nothing");
        // Prefetching only the class touches one relation / one column.
        let (rels, cols) = db.prefetch([PredKind::EdbClass(a), PredKind::Top]);
        assert_eq!((rels, cols), (1, 1));
        assert_eq!(touched.load(Ordering::Relaxed), 1);
        // Re-prefetching is free; the property hydrates on demand.
        assert_eq!(db.prefetch([PredKind::EdbClass(a)]), (0, 0));
        assert_eq!(db.relation(PredKind::EdbProp(p)).len(), 1);
        assert_eq!(touched.load(Ordering::Relaxed), 2);
        // Answers match the eager build.
        assert_eq!(
            db.relation(PredKind::EdbClass(a)).len(),
            eager.relation(PredKind::EdbClass(a)).len()
        );
    }

    #[test]
    fn database_ids_are_unique() {
        let o = parse_ontology("Class A\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let a = Database::new(&d);
        let b = Database::new(&d);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), 0);
    }

    #[test]
    fn database_loads_every_relation_once() {
        let o = parse_ontology("Class A\nProperty P\nProperty Q\n").unwrap();
        let d = parse_data("P(x, y)\nP(y, z)\nA(x)\n", &o).unwrap();
        let before = Database::build_count();
        let db = Database::new(&d);
        assert_eq!(Database::build_count(), before + 1);
        let v = o.vocab();
        let p = db.relation(PredKind::EdbProp(v.get_prop("P").unwrap()));
        assert_eq!(p.len(), 2);
        assert_eq!(p.arity(), 2);
        let a = db.relation(PredKind::EdbClass(v.get_class("A").unwrap()));
        assert_eq!(a.len(), 1);
        // Missing EDB relations resolve to shared empties of the right arity.
        let q = db.relation(PredKind::EdbProp(v.get_prop("Q").unwrap()));
        assert!(q.is_empty());
        assert_eq!(q.arity(), 2);
        assert_eq!(db.relation(PredKind::Top).len(), 3);
        assert_eq!(db.num_individuals(), 3);
        assert_eq!(db.num_atoms(), 3);
    }
}
