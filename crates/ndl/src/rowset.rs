//! An exact, allocation-free set of fixed-width rows.
//!
//! [`RowSet`] stores no rows itself: it holds `u32` row ids into a
//! caller-owned, row-major arena of `width`-word rows, and compares the
//! stored row on every tag match, so membership is exact. The table is
//! open-addressed with linear probing; a slot is `(tag, id)` where the
//! tag is the top 32 bits of the row's hash. Slots come from the *high*
//! bits of the hash (the tag's top bits), and the hash ends in the
//! splitmix64 finaliser, so keys that differ only in their low words —
//! packed pairs `(a, b)` with small `b`, the common case for dictionary
//! ids — still spread over the whole table. Growing the table rehashes
//! from the stored tags alone; no row is re-read and nothing is
//! allocated per row.
//!
//! Two users share it: [`crate::storage::Relation`]'s deduplication
//! (ids are row numbers of the relation's own arena) and the join
//! kernel's per-step projection in [`crate::eval`] (ids index an arena
//! of kept binding keys).

/// Free-slot marker; no row id ever reaches it (row ids are `u32`
/// row numbers of an arena that stays below `u32::MAX` rows).
const FREE: u32 = u32::MAX;

/// Smallest non-empty table, in slots.
const MIN_SLOTS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

const EMPTY_SLOT: Slot = Slot { tag: 0, id: FREE };

/// The splitmix64 finaliser: a bijection on `u64` whose every output bit
/// depends on every input bit.
#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a row: an Fx-style multiply-rotate over the words, then
/// splitmix64 so the high bits are well mixed. One `u32` load per word:
/// the kernel hashes keys it has just stored word by word, and a wider
/// load spanning two fresh stores would stall store forwarding.
#[inline(always)]
fn hash_row(row: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0u64;
    for &w in row {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K);
    }
    splitmix64(h)
}

/// Word-wise row equality, inlined (rows are a few words; a `memcmp`
/// call would cost more than the comparison).
#[inline(always)]
fn same_row(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x == y)
}

/// The `id`-th row of a `width`-strided arena.
#[inline(always)]
fn stored(words: &[u32], width: usize, id: u32) -> &[u32] {
    let base = id as usize * width;
    &words[base..base + width]
}

/// An exact set of rows kept in an external arena; see the module docs.
///
/// Ids are assigned in insertion order (`0, 1, 2, …`): after
/// [`RowSet::insert`] returns `true` or after [`RowSet::push_new`], the
/// caller appends the row to its arena, so row `id` of the arena is
/// always the row that id was recorded for.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowSet {
    /// Power-of-two slot table, or empty before the first insert.
    slots: Vec<Slot>,
    /// Rows recorded (the next id).
    len: usize,
    /// `32 - log2(slots.len())`: a tag's top bits pick its home slot.
    shift: u32,
}

impl RowSet {
    /// A set over the first `rows` rows of `words`, which must be
    /// pairwise distinct (they are recorded without comparison).
    pub(crate) fn from_rows(words: &[u32], width: usize, rows: usize) -> Self {
        let mut set = RowSet::default();
        set.resize(table_size(rows));
        for id in 0..rows {
            let base = id * width;
            set.push_new(&words[base..base + width]);
        }
        set
    }

    /// Number of rows recorded.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Forgets every row, keeping the table's allocation.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }

    /// The id of the row equal to `row`, if one is recorded.
    pub(crate) fn find(&self, words: &[u32], width: usize, row: &[u32]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = (hash_row(row) >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut i = (tag >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s.id == FREE {
                return None;
            }
            if s.tag == tag && same_row(stored(words, width, s.id), row) {
                return Some(s.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `row` under the next id unless an equal row is already
    /// recorded; returns whether it was new. On `true` the caller must
    /// append `row` to `words`' arena before the next call.
    #[inline]
    pub(crate) fn insert(&mut self, words: &[u32], width: usize, row: &[u32]) -> bool {
        // Monomorphise the common widths: with the width a constant, the
        // hash and compare loops unroll (a run-time width measured 1.5–2×
        // slower per call on a projecting join, where almost every call
        // finds a duplicate).
        macro_rules! fixed {
            ($w:literal) => {{
                let row = &row[..$w];
                self.insert_hashed(words, $w, row, hash_row(row))
            }};
        }
        match width {
            0 => fixed!(0),
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            _ => self.insert_hashed(words, width, row, hash_row(row)),
        }
    }

    /// [`RowSet::insert`] with the row's hash supplied (tests force
    /// collisions through it). Duplicates — the common case in a
    /// projecting join — return before any growth check.
    #[inline(always)]
    fn insert_hashed(&mut self, words: &[u32], width: usize, row: &[u32], hash: u64) -> bool {
        if self.slots.is_empty() {
            self.resize(MIN_SLOTS);
        }
        let tag = (hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut i = (tag >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s.id == FREE {
                break;
            }
            if s.tag == tag && same_row(stored(words, width, s.id), row) {
                return false;
            }
            i = (i + 1) & mask;
        }
        let slot = Slot { tag, id: self.next_id() };
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.resize(self.slots.len() * 2);
            self.place(slot);
        } else {
            self.slots[i] = slot;
        }
        self.len += 1;
        true
    }

    /// Records `row` under the next id without looking for an equal row
    /// (bulk loading of rows the caller knows to be distinct).
    pub(crate) fn push_new(&mut self, row: &[u32]) {
        self.reserve_one();
        let tag = (hash_row(row) >> 32) as u32;
        let id = self.next_id();
        self.place(Slot { tag, id });
        self.len += 1;
    }

    fn next_id(&self) -> u32 {
        debug_assert!(self.len < FREE as usize, "row ids are u32");
        self.len as u32
    }

    /// Puts `slot` into the first free slot of its probe sequence.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = (slot.tag >> self.shift) as usize;
        while self.slots[i].id != FREE {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Grows the table so one more row keeps the load at most 3/4.
    #[inline]
    fn reserve_one(&mut self) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.resize(table_size(self.len + 1).max(self.slots.len() * 2));
        }
    }

    /// Rebuilds the table with `size` slots (a power of two), placing
    /// every recorded id by its stored tag.
    fn resize(&mut self, size: usize) {
        debug_assert!(size.is_power_of_two() && size <= 1 << 32);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; size]);
        self.shift = 32 - size.trailing_zeros();
        for s in old {
            if s.id != FREE {
                self.place(s);
            }
        }
    }
}

/// Smallest power-of-two table holding `rows` rows at load ≤ 3/4.
fn table_size(rows: usize) -> usize {
    (rows * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts `row` into `set` over `arena`, appending it when new.
    fn add(set: &mut RowSet, arena: &mut Vec<u32>, width: usize, row: &[u32], hash: u64) -> bool {
        let new = set.insert_hashed(arena, width, row, hash);
        if new {
            arena.extend_from_slice(row);
        }
        new
    }

    #[test]
    fn forced_collisions_stay_exact() {
        // Every row hashes to the same value: one probe chain, resolved
        // only by comparing stored rows. Growth must keep them all.
        let (mut set, mut arena) = (RowSet::default(), Vec::new());
        for a in 0..200u32 {
            assert!(add(&mut set, &mut arena, 2, &[a, a ^ 1], 7));
        }
        for a in 0..200u32 {
            assert!(!add(&mut set, &mut arena, 2, &[a, a ^ 1], 7), "duplicate {a}");
        }
        assert!(add(&mut set, &mut arena, 2, &[0, 0], 7), "same hash, new row");
        assert_eq!(set.len(), 201);
        assert_eq!(arena.len(), 402);
        // Equal tags with different rows: the tag alone never decides.
        let (mut set, mut arena) = (RowSet::default(), Vec::new());
        assert!(add(&mut set, &mut arena, 1, &[1], u64::MAX));
        assert!(add(&mut set, &mut arena, 1, &[2], u64::MAX));
        assert!(!add(&mut set, &mut arena, 1, &[2], u64::MAX));
    }

    #[test]
    fn push_new_and_insert_share_one_id_space() {
        // Rows loaded with `push_new` (known distinct) are found by
        // `insert` and `find`; new rows continue the id sequence.
        let mut arena: Vec<u32> = Vec::new();
        let mut set = RowSet::default();
        for a in 0..50u32 {
            set.push_new(&[a, 100 + a]);
            arena.extend_from_slice(&[a, 100 + a]);
        }
        assert!(!set.insert(&arena, 2, &[7, 107]));
        assert!(set.insert(&arena, 2, &[7, 108]));
        arena.extend_from_slice(&[7, 108]);
        set.push_new(&[9, 9]);
        arena.extend_from_slice(&[9, 9]);
        assert!(!set.insert(&arena, 2, &[9, 9]));
        assert_eq!(set.find(&arena, 2, &[7, 108]), Some(50));
        assert_eq!(set.find(&arena, 2, &[9, 9]), Some(51));
        assert_eq!(set.find(&arena, 2, &[9, 10]), None);
        // from_rows reproduces the same ids.
        let rebuilt = RowSet::from_rows(&arena, 2, arena.len() / 2);
        assert_eq!(rebuilt.len(), 52);
        for id in 0..52u32 {
            let row = &arena[id as usize * 2..id as usize * 2 + 2];
            assert_eq!(rebuilt.find(&arena, 2, row), Some(id));
        }
    }

    #[test]
    fn zero_width_rows_are_one_row() {
        let mut set = RowSet::default();
        assert!(set.insert(&[], 0, &[]));
        assert!(!set.insert(&[], 0, &[]));
        assert_eq!(set.find(&[], 0, &[]), Some(0));
        set.clear();
        assert_eq!(set.len(), 0);
        assert!(set.insert(&[], 0, &[]));
    }

    #[test]
    fn packed_pairs_spread_over_the_table() {
        // Keys (a, b) with small b differ only in their low words; high
        // slot bits of a well-mixed hash must still spread them. Count
        // the distinct home slots of 4096 such keys in a 8192-slot table.
        let size = 8192usize;
        let shift = 32 - size.trailing_zeros();
        let mut homes = std::collections::HashSet::new();
        for a in 0..64u32 {
            for b in 0..64u32 {
                let tag = (hash_row(&[a, b]) >> 32) as u32;
                homes.insert(tag >> shift);
            }
        }
        assert!(homes.len() > 3000, "only {} home slots for 4096 keys", homes.len());
    }
}
