//! Group hash tables and the `hash_insertcheck` primitives.
//!
//! Hash aggregation maps each input tuple's group key to a dense *group id*.
//! The vectorized `insertcheck` primitive takes a vector of hashes and keys,
//! looks each up in the table, inserts new groups, and writes the group id
//! per position — the primitive of Fig. 4(e), whose cost visibly grows
//! with the table (cache/TLB misses).
//!
//! Two tables: [`GroupTable`] for one integer key, and [`MultiGroupTable`]
//! for every other key shape — one string column, or two or more columns
//! — stored column-wise and compared column by column. Both are
//! open-addressing with linear probing; the *caller* must
//! [`GroupTable::reserve`] capacity for a vector's worth of inserts
//! before calling the primitive, so the primitive itself never rehashes
//! (keeps its cost measurable and its loop tight). The table is the only
//! holder of the group keys: `take_keys` reads them back in gid order
//! when the aggregate emits.

use ma_vector::StrVec;

const EMPTY: u32 = u32::MAX;

/// Open-addressing hash table assigning dense group ids to integer keys,
/// normalized to `i64` by the caller's hash step.
#[derive(Debug, Clone)]
pub struct GroupTable {
    /// (key, gid) per slot; gid == EMPTY marks a free slot.
    slots: Vec<(i64, u32)>,
    mask: usize,
    groups: u32,
}

impl Default for GroupTable {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupTable {
    /// An empty table with a small initial capacity.
    pub fn new() -> Self {
        GroupTable {
            slots: vec![(0, EMPTY); 64],
            mask: 63,
            groups: 0,
        }
    }

    /// Number of distinct groups inserted so far.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Current slot count (for cache-behaviour experiments).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident bytes of the slot array (the table's only allocation).
    /// Reported by the executor's byte-accounting facade against the
    /// memory analyzer's proven per-operator bounds.
    pub fn bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<(i64, u32)>()) as u64
    }

    /// Ensures the table can absorb `additional` new groups while staying
    /// under 50% load, growing (rehashing) if needed. Group ids are stable
    /// across growth.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.groups as usize + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (key, gid) in old {
            if gid != EMPTY {
                let mut pos = crate::hashing::hash_u64(key as u64) as usize & self.mask;
                while self.slots[pos].1 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (key, gid);
            }
        }
    }

    /// Finds or inserts one key, returning its group id. `hash` must be
    /// the `map_hash_i64` hash of `key` (`hash_u64(key as u64)`), which
    /// growth re-derives from the stored key.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, key: i64) -> u32 {
        let mut pos = hash as usize & self.mask;
        loop {
            let (k, gid) = self.slots[pos];
            if gid == EMPTY {
                let new_gid = self.groups;
                self.slots[pos] = (key, new_gid);
                self.groups += 1;
                return new_gid;
            }
            if k == key {
                return gid;
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Moves the keys out in gid order — one scatter over the slots — and
    /// resets the table to empty.
    pub fn take_keys(&mut self) -> Vec<i64> {
        let mut keys = vec![0; self.groups as usize];
        for &(key, gid) in &self.slots {
            if gid != EMPTY {
                keys[gid as usize] = key;
            }
        }
        *self = GroupTable::new();
        keys
    }
}

/// `hash_insertcheck_u64_col`: per live position, find-or-insert the key and
/// write the group id. Returns the number of groups after the call.
pub type GroupInsertCheck = fn(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[i64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style: plain loop.
pub fn hash_insertcheck_u64_gcc(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[i64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            for i in 0..keys.len() {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
    }
    table.groups()
}

/// `icc` style: 2-way software-pipelined probe (prefetch-like shape).
pub fn hash_insertcheck_u64_icc(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[i64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 2 <= s.len() {
                let (i0, i1) = (s[j] as usize, s[j + 1] as usize);
                gids[i0] = table.find_or_insert(hashes[i0], keys[i0]);
                gids[i1] = table.find_or_insert(hashes[i1], keys[i1]);
                j += 2;
            }
            if j < s.len() {
                let i = s[j] as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            let n = keys.len();
            let mut i = 0;
            while i + 2 <= n {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
                gids[i + 1] = table.find_or_insert(hashes[i + 1], keys[i + 1]);
                i += 2;
            }
            if i < n {
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
    }
    table.groups()
}

/// `clang` style: iterator formulation on the dense path.
pub fn hash_insertcheck_u64_clang(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[i64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys[i]);
            }
        }
        None => {
            for ((g, &h), &k) in gids.iter_mut().zip(hashes.iter()).zip(keys.iter()) {
                *g = table.find_or_insert(h, k);
            }
        }
    }
    table.groups()
}

// ---------------------------------------------------------------------------
// composite keys
// ---------------------------------------------------------------------------

/// One string key column of a [`MultiGroupTable`]: every group's key bytes
/// in one arena, addressed by a `(start, len)` view per group id.
#[derive(Debug, Clone, Default)]
struct StrKeys {
    bytes: Vec<u8>,
    views: Vec<(u32, u32)>,
}

impl StrKeys {
    #[inline]
    fn get(&self, gid: usize) -> &[u8] {
        let (start, len) = self.views[gid];
        &self.bytes[start as usize..start as usize + len as usize]
    }

    fn push(&mut self, key: &[u8]) {
        let start = u32::try_from(self.bytes.len()).expect("group-key arena exceeds u32 range");
        let len = u32::try_from(key.len()).expect("group key exceeds u32 range");
        self.bytes.extend_from_slice(key);
        self.views.push((start, len));
    }
}

/// Open-addressing table assigning dense group ids to composite keys over
/// one or more columns, compared column by column: every group-by except
/// a single integer key ([`GroupTable`]).
///
/// Slots hold `(hash, gid)` only; the keys live column-wise, indexed by
/// gid: integer key columns normalized to `i64`, string key columns as
/// one byte arena plus a view per group. Equality is order-free within
/// each kind, so the caller passes its integer and string key columns as
/// two lists, each in a fixed order across calls. The same
/// caller-reserves, never-rehash-inside-the-primitive contract as
/// [`GroupTable`] applies.
#[derive(Debug, Clone)]
pub struct MultiGroupTable {
    /// (hash, gid) per slot; gid == EMPTY marks a free slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
    groups: u32,
    int_keys: Vec<Vec<i64>>,
    str_keys: Vec<StrKeys>,
}

impl MultiGroupTable {
    /// An empty table over `int_cols` integer and `str_cols` string key
    /// columns.
    pub fn new(int_cols: usize, str_cols: usize) -> Self {
        MultiGroupTable {
            slots: vec![(0, EMPTY); 64],
            mask: 63,
            groups: 0,
            int_keys: vec![Vec::new(); int_cols],
            str_keys: vec![StrKeys::default(); str_cols],
        }
    }

    /// Number of distinct groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Resident bytes: the slot array, 8 bytes per integer key per group,
    /// and per string key the stored bytes plus an 8-byte view per group.
    /// Reported by the executor's byte-accounting facade against the
    /// memory analyzer's proven per-operator bounds.
    pub fn bytes(&self) -> u64 {
        let slots = self.slots.len() * std::mem::size_of::<(u64, u32)>();
        let ints: usize = self.int_keys.iter().map(|k| k.len() * 8).sum();
        let strs: usize = self
            .str_keys
            .iter()
            .map(|k| k.bytes.len() + k.views.len() * 8)
            .sum();
        (slots + ints + strs) as u64
    }

    /// Ensures room for `additional` new groups under 50% load. Group ids
    /// are stable across growth.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.groups as usize + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (hash, gid) in old {
            if gid != EMPTY {
                let mut pos = hash as usize & self.mask;
                while self.slots[pos].1 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (hash, gid);
            }
        }
    }

    #[inline]
    fn key_eq(&self, gid: u32, ints: &[&[i64]], strs: &[&StrVec], i: usize) -> bool {
        let g = gid as usize;
        self.int_keys.iter().zip(ints).all(|(t, c)| t[g] == c[i])
            && self
                .str_keys
                .iter()
                .zip(strs)
                .all(|(t, c)| t.get(g) == c.get_bytes(i))
    }

    /// Finds or inserts the composite key at position `i` of the key
    /// columns, returning its group id.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        ints: &[&[i64]],
        strs: &[&StrVec],
        i: usize,
    ) -> u32 {
        let mut pos = hash as usize & self.mask;
        loop {
            let (h, gid) = self.slots[pos];
            if gid == EMPTY {
                for (t, c) in self.int_keys.iter_mut().zip(ints) {
                    t.push(c[i]);
                }
                for (t, c) in self.str_keys.iter_mut().zip(strs) {
                    t.push(c.get_bytes(i));
                }
                let new_gid = self.groups;
                self.slots[pos] = (hash, new_gid);
                self.groups += 1;
                return new_gid;
            }
            if h == hash && self.key_eq(gid, ints, strs, i) {
                return gid;
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Moves the keys out in gid order — the integer columns as stored,
    /// each string column's arena and views as one [`StrVec`] — and
    /// resets the table to empty.
    pub fn take_keys(&mut self) -> (Vec<Vec<i64>>, Vec<StrVec>) {
        let empty = MultiGroupTable::new(self.int_keys.len(), self.str_keys.len());
        let table = std::mem::replace(self, empty);
        let strs = table
            .str_keys
            .into_iter()
            .map(|k| StrVec::from_views(k.bytes.into(), k.views))
            .collect();
        (table.int_keys, strs)
    }

    /// Panics unless the call passes exactly the table's key columns.
    fn check_arity(&self, ints: &[&[i64]], strs: &[&StrVec]) {
        assert!(
            ints.len() == self.int_keys.len() && strs.len() == self.str_keys.len(),
            "composite key arity mismatch: table has {}+{} columns, call passes {}+{}",
            self.int_keys.len(),
            self.str_keys.len(),
            ints.len(),
            strs.len()
        );
    }
}

/// `hash_insertcheck_multi_col`: per live position, find-or-insert the
/// composite key formed by `ints[..][i]` and `strs[..][i]` under the
/// precomputed `hashes[i]` and write the group id. Returns the number of
/// groups after the call.
pub type MultiGroupInsertCheck = fn(
    table: &mut MultiGroupTable,
    hashes: &[u64],
    ints: &[&[i64]],
    strs: &[&StrVec],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style: plain loop.
pub fn hash_insertcheck_multi_gcc(
    table: &mut MultiGroupTable,
    hashes: &[u64],
    ints: &[&[i64]],
    strs: &[&StrVec],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    table.check_arity(ints, strs);
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
            }
        }
        None => {
            for i in 0..hashes.len() {
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
            }
        }
    }
    table.groups()
}

/// `icc` style: 2-way pipelined.
pub fn hash_insertcheck_multi_icc(
    table: &mut MultiGroupTable,
    hashes: &[u64],
    ints: &[&[i64]],
    strs: &[&StrVec],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    table.check_arity(ints, strs);
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 2 <= s.len() {
                let (i0, i1) = (s[j] as usize, s[j + 1] as usize);
                gids[i0] = table.find_or_insert(hashes[i0], ints, strs, i0);
                gids[i1] = table.find_or_insert(hashes[i1], ints, strs, i1);
                j += 2;
            }
            if j < s.len() {
                let i = s[j] as usize;
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
            }
        }
        None => {
            let n = hashes.len();
            let mut i = 0;
            while i + 2 <= n {
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
                gids[i + 1] = table.find_or_insert(hashes[i + 1], ints, strs, i + 1);
                i += 2;
            }
            if i < n {
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
            }
        }
    }
    table.groups()
}

/// `clang` style: iterator formulation on the dense path.
pub fn hash_insertcheck_multi_clang(
    table: &mut MultiGroupTable,
    hashes: &[u64],
    ints: &[&[i64]],
    strs: &[&StrVec],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    table.check_arity(ints, strs);
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], ints, strs, i);
            }
        }
        None => {
            for (i, (g, &h)) in gids.iter_mut().zip(hashes).enumerate() {
                *g = table.find_or_insert(h, ints, strs, i);
            }
        }
    }
    table.groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{hash_bytes, hash_u64};

    #[test]
    fn assigns_dense_stable_gids() {
        let mut t = GroupTable::new();
        let a = t.find_or_insert(hash_u64(100), 100);
        let b = t.find_or_insert(hash_u64(-200i64 as u64), -200);
        let a2 = t.find_or_insert(hash_u64(100), 100);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, 0);
        assert_eq!(t.groups(), 2);
        // The keys read back in gid order and leave the table empty.
        assert_eq!(t.take_keys(), [100, -200]);
        assert_eq!(t.groups(), 0);
        assert_eq!(t.capacity(), 64);
    }

    #[test]
    fn survives_growth() {
        let mut t = GroupTable::new();
        let keys: Vec<i64> = (0..10_000i64).map(|k| k - 5_000).collect();
        let mut gids = Vec::new();
        for &k in &keys {
            t.reserve(1);
            gids.push(t.find_or_insert(hash_u64(k as u64), k));
        }
        assert_eq!(t.groups(), 10_000);
        // Lookups after growth return the original gids.
        for (&k, &g) in keys.iter().zip(&gids) {
            assert_eq!(t.find_or_insert(hash_u64(k as u64), k), g);
        }
        // One scatter over the grown slot array restores gid order.
        assert_eq!(t.take_keys(), keys);
    }

    #[test]
    fn insertcheck_flavors_agree() {
        let keys: Vec<i64> = (0..512).map(|i| i % 37 - 18).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k as u64)).collect();
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 3 != 1).collect();
        for sv in [None, Some(sel.as_slice())] {
            let mut expected = vec![0u32; 512];
            let mut t_ref = GroupTable::new();
            t_ref.reserve(512);
            let g_ref = hash_insertcheck_u64_gcc(&mut t_ref, &hashes, &keys, &mut expected, sv);
            for (name, f) in [
                ("icc", hash_insertcheck_u64_icc as GroupInsertCheck),
                ("clang", hash_insertcheck_u64_clang),
            ] {
                let mut t = GroupTable::new();
                t.reserve(512);
                let mut gids = vec![0u32; 512];
                let g = f(&mut t, &hashes, &keys, &mut gids, sv);
                assert_eq!(g, g_ref, "{name}: group count");
                match sv {
                    None => assert_eq!(gids, expected, "{name}"),
                    Some(s) => {
                        for &i in s {
                            assert_eq!(gids[i as usize], expected[i as usize], "{name}");
                        }
                    }
                }
            }
            assert_eq!(g_ref, 37);
        }
    }

    #[test]
    fn colliding_hashes_still_distinguish_keys() {
        // Force identical hashes: every key probes the same chain, and
        // only the key comparison tells them apart.
        let mut t = GroupTable::new();
        t.reserve(4);
        let g1 = t.find_or_insert(42, -1);
        let g2 = t.find_or_insert(42, i64::MAX);
        let g3 = t.find_or_insert(42, 0);
        let g1b = t.find_or_insert(42, -1);
        assert_eq!([g1, g2, g3], [0, 1, 2]);
        assert_eq!(g1, g1b);
        assert_eq!(t.take_keys(), [-1, i64::MAX, 0]);
    }

    // --- composite keys ---------------------------------------------------

    /// A combine over one row of composite keys, like the hash pipeline's.
    fn multi_hash(ints: &[&[i64]], strs: &[&StrVec], i: usize) -> u64 {
        let h = ints.iter().fold(0u64, |h, c| {
            crate::hashing::combine_hash(h, hash_u64(c[i] as u64))
        });
        strs.iter().fold(h, |h, c| {
            crate::hashing::combine_hash(h, hash_bytes(c.get_bytes(i)))
        })
    }

    /// 512 rows of owned key columns and their distinct-key count.
    struct Shape {
        ints: Vec<Vec<i64>>,
        strs: Vec<StrVec>,
        groups: u32,
    }

    impl Shape {
        /// Borrowed column lists, as the insertcheck primitive takes them.
        fn cols(&self) -> (Vec<&[i64]>, Vec<&StrVec>) {
            (
                self.ints.iter().map(Vec::as_slice).collect(),
                self.strs.iter().collect(),
            )
        }

        fn hashes(&self) -> Vec<u64> {
            let (ints, strs) = self.cols();
            (0..512).map(|i| multi_hash(&ints, &strs, i)).collect()
        }

        fn table(&self) -> MultiGroupTable {
            let mut t = MultiGroupTable::new(self.ints.len(), self.strs.len());
            t.reserve(512);
            t
        }

        /// Row `i`'s key, column by column.
        fn key(&self, i: usize) -> (Vec<i64>, Vec<&[u8]>) {
            (
                self.ints.iter().map(|c| c[i]).collect(),
                self.strs.iter().map(|c| c.get_bytes(i)).collect(),
            )
        }
    }

    /// The shapes every composite-table test runs: (i16-range, i32-range,
    /// i64-range) integers plus a string column including `""` — 4 × 3 ×
    /// 2 × 3 = 72 keys — and a lone string column, the single-string-key
    /// group-by, whose 19 keys include `""`.
    fn shapes() -> Vec<Shape> {
        let a = (0..512)
            .map(|i| [i16::MIN, -1, 0, i16::MAX][i % 4] as i64)
            .collect();
        let b = (0..512)
            .map(|i| [i32::MIN, 65_535, -65_536][i % 3] as i64)
            .collect();
        let c = (0..512)
            .map(|i| [i64::MIN, i64::MAX][(i / 12) % 2])
            .collect();
        let s: Vec<&str> = (0..512)
            .map(|i| ["", "x", "MED BOX"][(i / 24) % 3])
            .collect();
        let lone: Vec<String> = (0..512)
            .map(|i| match i % 19 {
                0 => String::new(),
                k => format!("key{k}"),
            })
            .collect();
        vec![
            Shape {
                ints: vec![a, b, c],
                strs: vec![StrVec::from_strings(&s)],
                groups: 72,
            },
            Shape {
                ints: Vec::new(),
                strs: vec![StrVec::from_strings(&lone)],
                groups: 19,
            },
        ]
    }

    #[test]
    fn multi_mixed_int_and_str_keys_group_exactly() {
        for shape in shapes() {
            let (ints, strs) = shape.cols();
            let mut t = shape.table();
            let mut gids = vec![0u32; 512];
            let g =
                hash_insertcheck_multi_gcc(&mut t, &shape.hashes(), &ints, &strs, &mut gids, None);
            assert_eq!(g, shape.groups);
            // Equal keys ⇔ equal gids, checked pairwise against the columns.
            for i in 0..512 {
                for j in 0..i {
                    assert_eq!(
                        shape.key(i) == shape.key(j),
                        gids[i] == gids[j],
                        "rows {i} and {j}"
                    );
                }
            }
            // The empty string is a key like any other.
            assert!((0..512).any(|i| shape.strs[0].get(i).is_empty()));
            // The keys read back by gid are every row's own key.
            let (int_keys, str_keys) = t.take_keys();
            for (i, &g) in gids.iter().enumerate() {
                let g = g as usize;
                let back: (Vec<i64>, Vec<&[u8]>) = (
                    int_keys.iter().map(|c| c[g]).collect(),
                    str_keys.iter().map(|c| c.get_bytes(g)).collect(),
                );
                assert_eq!(back, shape.key(i), "row {i}");
            }
            assert_eq!(t.groups(), 0, "take_keys leaves the table empty");
        }
    }

    #[test]
    fn multi_gids_are_dense_in_position_order() {
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 5 != 2).collect();
        for shape in shapes() {
            let (ints, strs) = shape.cols();
            let hashes = shape.hashes();
            for sv in [None, Some(sel.as_slice())] {
                let mut t = shape.table();
                let mut gids = vec![u32::MAX; 512];
                let groups =
                    hash_insertcheck_multi_icc(&mut t, &hashes, &ints, &strs, &mut gids, sv);
                // The first occurrence of each new key gets the next gid.
                let mut next = 0;
                let live: Vec<usize> = match sv {
                    Some(s) => s.iter().map(|&i| i as usize).collect(),
                    None => (0..512).collect(),
                };
                for p in live {
                    assert!(gids[p] <= next, "gid {} skips ahead of {next}", gids[p]);
                    if gids[p] == next {
                        next += 1;
                    }
                }
                assert_eq!(next, groups);
            }
        }
    }

    #[test]
    fn multi_sel_and_dense_paths_agree() {
        let all: Vec<u32> = (0..512).collect();
        for shape in shapes() {
            let (ints, strs) = shape.cols();
            let hashes = shape.hashes();
            let mut dense = vec![0u32; 512];
            let mut t = shape.table();
            hash_insertcheck_multi_clang(&mut t, &hashes, &ints, &strs, &mut dense, None);
            let mut via_sel = vec![0u32; 512];
            let mut t2 = shape.table();
            hash_insertcheck_multi_clang(&mut t2, &hashes, &ints, &strs, &mut via_sel, Some(&all));
            assert_eq!(dense, via_sel);
            assert_eq!(t.groups(), t2.groups());
            assert_eq!(t.bytes(), t2.bytes());
        }
    }

    #[test]
    fn multi_insertcheck_flavors_agree() {
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 3 != 1).collect();
        for shape in shapes() {
            let (ints, strs) = shape.cols();
            let hashes = shape.hashes();
            for sv in [None, Some(sel.as_slice())] {
                let mut expected = vec![0u32; 512];
                let mut t_ref = shape.table();
                let g_ref = hash_insertcheck_multi_gcc(
                    &mut t_ref,
                    &hashes,
                    &ints,
                    &strs,
                    &mut expected,
                    sv,
                );
                if sv.is_none() {
                    assert_eq!(g_ref, shape.groups);
                }
                for (name, f) in [
                    ("icc", hash_insertcheck_multi_icc as MultiGroupInsertCheck),
                    ("clang", hash_insertcheck_multi_clang),
                ] {
                    let mut t = shape.table();
                    let mut gids = vec![0u32; 512];
                    assert_eq!(
                        f(&mut t, &hashes, &ints, &strs, &mut gids, sv),
                        g_ref,
                        "{name}"
                    );
                    let live: Vec<usize> = match sv {
                        Some(s) => s.iter().map(|&i| i as usize).collect(),
                        None => (0..512).collect(),
                    };
                    for i in live {
                        assert_eq!(gids[i], expected[i], "{name} at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_colliding_hashes_still_distinguish_keys() {
        // Every row hashes to 7: all probe one chain, and only the
        // column-wise comparison tells the keys apart — in each column.
        let ints_a = [1i64, 1, 2, 1, 1];
        let ints_b = [5i64, 6, 5, 5, 5];
        let s = StrVec::from_strings(&["p", "p", "p", "q", "p"]);
        let hashes = [7u64; 5];
        let mut t = MultiGroupTable::new(2, 1);
        t.reserve(5);
        let mut gids = [0u32; 5];
        let g = hash_insertcheck_multi_gcc(
            &mut t,
            &hashes,
            &[&ints_a, &ints_b],
            &[&s],
            &mut gids,
            None,
        );
        assert_eq!(g, 4);
        assert_eq!(gids, [0, 1, 2, 3, 0]);

        // A lone string column, `""` included.
        let s = StrVec::from_strings(&["aaa", "bbb", "", "aaa", ""]);
        let mut t = MultiGroupTable::new(0, 1);
        t.reserve(5);
        let g = hash_insertcheck_multi_gcc(&mut t, &[42; 5], &[], &[&s], &mut gids, None);
        assert_eq!(g, 3);
        assert_eq!(gids, [0, 1, 2, 0, 2]);
        let (ints, strs) = t.take_keys();
        assert!(ints.is_empty());
        assert_eq!(strs[0].iter().collect::<Vec<_>>(), ["aaa", "bbb", ""]);
    }

    #[test]
    fn multi_gids_survive_growth() {
        let n = 5000;
        let a: Vec<i64> = (0..n).map(|i| i as i64 % 97).collect();
        let g: Vec<String> = (0..n).map(|i| format!("g{}", i / 97)).collect();
        let lone: Vec<String> = (0..n).map(|i| format!("group-{i}")).collect();
        // (i mod 97, i / 97) and `group-i` are unique per row.
        for (ints, s) in [(vec![a.as_slice()], g), (Vec::new(), lone)] {
            let s = StrVec::from_strings(&s);
            let sv = [&s];
            let hashes: Vec<u64> = (0..n).map(|i| multi_hash(&ints, &sv, i)).collect();
            let mut t = MultiGroupTable::new(ints.len(), 1);
            for (i, &h) in hashes.iter().enumerate() {
                t.reserve(1);
                assert_eq!(t.find_or_insert(h, &ints, &sv, i) as usize, i);
            }
            assert_eq!(t.groups() as usize, n);
            assert!(t.bytes() > 64 * 16, "the slot array grew");
            // Lookups after growth return the gids assigned before it.
            for (i, &h) in hashes.iter().enumerate() {
                assert_eq!(t.find_or_insert(h, &ints, &sv, i) as usize, i);
            }
            assert_eq!(t.groups() as usize, n);
            // Gid i is row i, so the read-back equals the input columns.
            let (int_keys, str_keys) = t.take_keys();
            assert!(int_keys.iter().zip(&ints).all(|(k, c)| k == c));
            assert_eq!(
                str_keys[0].iter().collect::<Vec<_>>(),
                s.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_bytes_follow_the_column_layout() {
        let a = [3i64, 4];
        let s = StrVec::from_strings(&["abc", ""]);
        let mut t = MultiGroupTable::new(1, 1);
        let mut gids = [0u32; 2];
        hash_insertcheck_multi_gcc(&mut t, &[1, 2], &[&a], &[&s], &mut gids, None);
        // 64 slots × 16 B, 2 groups × 8 B of i64 keys, 3 string bytes
        // plus 2 × 8 B views.
        assert_eq!(t.bytes(), 64 * 16 + 2 * 8 + 3 + 2 * 8);
        // A lone string column stores the same slots, bytes and views.
        let mut t = MultiGroupTable::new(0, 1);
        hash_insertcheck_multi_gcc(&mut t, &[1, 2], &[], &[&s], &mut gids, None);
        assert_eq!(t.bytes(), 64 * 16 + 3 + 2 * 8);
        t.take_keys();
        assert_eq!(t.bytes(), 64 * 16, "take_keys leaves an empty table");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn multi_rejects_wrong_arity() {
        let mut t = MultiGroupTable::new(2, 0);
        let a = [1i64];
        hash_insertcheck_multi_gcc(&mut t, &[0], &[&a], &[], &mut [0], None);
    }
}
