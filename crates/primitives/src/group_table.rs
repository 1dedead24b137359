//! Group hash tables and the `hash_insertcheck` primitives.
//!
//! Hash aggregation maps each input tuple's group key to a dense *group id*.
//! The vectorized `insertcheck` primitive takes a vector of hashes and keys,
//! looks each up in the table, inserts new groups, and writes the group id
//! per position — the primitive of Fig. 4(e) (`hash_insertcheck_str_col`),
//! whose cost visibly grows with the table (cache/TLB misses).
//!
//! Three tables: [`GroupTable`] for one integer key, [`StrGroupTable`] for
//! one string key, and [`MultiGroupTable`] for composite keys over two or
//! more columns, stored column-wise and compared column by column. All
//! are open-addressing with linear probing; the *caller* must
//! [`GroupTable::reserve`] capacity for a vector's worth of inserts
//! before calling the primitive, so the primitive itself never rehashes
//! (keeps its cost measurable and its loop tight).

use ma_vector::StrVec;

const EMPTY: u32 = u32::MAX;

/// Open-addressing hash table assigning dense group ids to `u64` keys.
#[derive(Debug, Clone)]
pub struct GroupTable {
    /// (key, gid) per slot; gid == EMPTY marks a free slot.
    slots: Vec<(u64, u32)>,
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
        (self.slots.len() * std::mem::size_of::<(u64, u32)>()) as u64
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
                let mut pos = crate::hashing::hash_u64(key) as usize & self.mask;
                while self.slots[pos].1 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (key, gid);
            }
        }
    }

    /// Finds or inserts one key, returning its group id.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, key: u64) -> u32 {
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
}

/// `hash_insertcheck_u64_col`: per live position, find-or-insert the key and
/// write the group id. Returns the number of groups after the call.
pub type GroupInsertCheck = fn(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style: plain loop.
pub fn hash_insertcheck_u64_gcc(
    table: &mut GroupTable,
    hashes: &[u64],
    keys: &[u64],
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
    keys: &[u64],
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
    keys: &[u64],
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
// string keys
// ---------------------------------------------------------------------------

/// Open-addressing table assigning dense group ids to string keys, owning
/// copies of the key strings.
#[derive(Debug, Clone)]
pub struct StrGroupTable {
    /// (hash, sid, gid); gid == EMPTY marks free.
    slots: Vec<(u64, u32, u32)>,
    mask: usize,
    groups: u32,
    key_bytes: Vec<u8>,
    key_views: Vec<(u32, u32)>,
}

impl Default for StrGroupTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StrGroupTable {
    /// An empty table.
    pub fn new() -> Self {
        StrGroupTable {
            slots: vec![(0, 0, EMPTY); 64],
            mask: 63,
            groups: 0,
            key_bytes: Vec::new(),
            key_views: Vec::new(),
        }
    }

    /// Number of distinct groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Resident bytes: the slot array plus stored key bytes and views.
    /// Reported by the executor's byte-accounting facade against the
    /// memory analyzer's proven per-operator bounds.
    pub fn bytes(&self) -> u64 {
        let slots = self.slots.len() * std::mem::size_of::<(u64, u32, u32)>();
        (slots + self.key_bytes.len() + self.key_views.len() * 8) as u64
    }

    /// The group key for `gid` (valid for all assigned gids).
    pub fn key(&self, gid: u32) -> &str {
        let (off, len) = self.key_views[gid as usize];
        std::str::from_utf8(&self.key_bytes[off as usize..(off + len) as usize])
            .expect("group keys are valid UTF-8")
    }

    /// Ensures room for `additional` new groups under 50% load.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.groups as usize + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (hash, sid, gid) in old {
            if gid != EMPTY {
                let mut pos = hash as usize & self.mask;
                while self.slots[pos].2 != EMPTY {
                    pos = (pos + 1) & self.mask;
                }
                self.slots[pos] = (hash, sid, gid);
            }
        }
    }

    fn key_at(&self, sid: u32) -> &[u8] {
        let (off, len) = self.key_views[sid as usize];
        &self.key_bytes[off as usize..(off + len) as usize]
    }

    /// Finds or inserts one string key.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, key: &str) -> u32 {
        let mut pos = hash as usize & self.mask;
        loop {
            let (h, sid, gid) = self.slots[pos];
            if gid == EMPTY {
                let off = self.key_bytes.len() as u32;
                self.key_bytes.extend_from_slice(key.as_bytes());
                let sid = self.key_views.len() as u32;
                self.key_views.push((off, key.len() as u32));
                let new_gid = self.groups;
                self.slots[pos] = (hash, sid, new_gid);
                self.groups += 1;
                return new_gid;
            }
            if h == hash && self.key_at(sid) == key.as_bytes() {
                return gid;
            }
            pos = (pos + 1) & self.mask;
        }
    }
}

/// `hash_insertcheck_str_col` (Fig. 4e).
pub type StrGroupInsertCheck = fn(
    table: &mut StrGroupTable,
    hashes: &[u64],
    keys: &StrVec,
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32;

/// `gcc` style.
pub fn hash_insertcheck_str_gcc(
    table: &mut StrGroupTable,
    hashes: &[u64],
    keys: &StrVec,
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
            }
        }
        None => {
            for i in 0..keys.len() {
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
            }
        }
    }
    table.groups()
}

/// `icc` style: 2-way pipelined.
pub fn hash_insertcheck_str_icc(
    table: &mut StrGroupTable,
    hashes: &[u64],
    keys: &StrVec,
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            let mut j = 0;
            while j + 2 <= s.len() {
                let (i0, i1) = (s[j] as usize, s[j + 1] as usize);
                gids[i0] = table.find_or_insert(hashes[i0], keys.get(i0));
                gids[i1] = table.find_or_insert(hashes[i1], keys.get(i1));
                j += 2;
            }
            if j < s.len() {
                let i = s[j] as usize;
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
            }
        }
        None => {
            let n = keys.len();
            let mut i = 0;
            while i + 2 <= n {
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
                gids[i + 1] = table.find_or_insert(hashes[i + 1], keys.get(i + 1));
                i += 2;
            }
            if i < n {
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
            }
        }
    }
    table.groups()
}

/// `clang` style.
pub fn hash_insertcheck_str_clang(
    table: &mut StrGroupTable,
    hashes: &[u64],
    keys: &StrVec,
    gids: &mut [u32],
    sel: Option<&[u32]>,
) -> u32 {
    match sel {
        Some(s) => {
            for &i in s {
                let i = i as usize;
                gids[i] = table.find_or_insert(hashes[i], keys.get(i));
            }
        }
        None => {
            for (i, g) in gids.iter_mut().enumerate().take(keys.len()) {
                *g = table.find_or_insert(hashes[i], keys.get(i));
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
/// several columns, compared column by column — the multi-column group-by
/// counterpart of [`GroupTable`] and [`StrGroupTable`].
///
/// Slots hold `(hash, gid)` only; the keys live column-wise, indexed by
/// gid: integer key columns normalized to `i64`, string key columns as
/// one byte arena plus a view per group. Equality is order-free within
/// each kind, so the caller passes its integer and string key columns as
/// two lists, each in a fixed order across calls. The same
/// caller-reserves, never-rehash-inside-the-primitive contract as the
/// other tables applies.
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
        let b = t.find_or_insert(hash_u64(200), 200);
        let a2 = t.find_or_insert(hash_u64(100), 100);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a2, 0);
        assert_eq!(t.groups(), 2);
    }

    #[test]
    fn survives_growth() {
        let mut t = GroupTable::new();
        let mut gids = Vec::new();
        for k in 0..10_000u64 {
            t.reserve(1);
            gids.push(t.find_or_insert(hash_u64(k), k));
        }
        assert_eq!(t.groups(), 10_000);
        // Lookups after growth return the original gids.
        for k in 0..10_000u64 {
            assert_eq!(t.find_or_insert(hash_u64(k), k), gids[k as usize]);
        }
    }

    #[test]
    fn insertcheck_flavors_agree() {
        let keys: Vec<u64> = (0..512).map(|i| i % 37).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k)).collect();
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
    fn str_table_roundtrips_keys() {
        let mut t = StrGroupTable::new();
        t.reserve(8);
        let g1 = t.find_or_insert(hash_bytes(b"Brand#12"), "Brand#12");
        let g2 = t.find_or_insert(hash_bytes(b"Brand#34"), "Brand#34");
        let g1b = t.find_or_insert(hash_bytes(b"Brand#12"), "Brand#12");
        assert_eq!(g1, g1b);
        assert_ne!(g1, g2);
        assert_eq!(t.key(g1), "Brand#12");
        assert_eq!(t.key(g2), "Brand#34");
    }

    #[test]
    fn str_insertcheck_flavors_agree() {
        let strs: Vec<String> = (0..256).map(|i| format!("key{}", i % 19)).collect();
        let keys = StrVec::from_strings(&strs);
        let hashes: Vec<u64> = strs.iter().map(|s| hash_bytes(s.as_bytes())).collect();
        let mut expected = vec![0u32; 256];
        let mut t_ref = StrGroupTable::new();
        t_ref.reserve(256);
        hash_insertcheck_str_gcc(&mut t_ref, &hashes, &keys, &mut expected, None);
        for (name, f) in [
            ("icc", hash_insertcheck_str_icc as StrGroupInsertCheck),
            ("clang", hash_insertcheck_str_clang),
        ] {
            let mut t = StrGroupTable::new();
            t.reserve(256);
            let mut gids = vec![0u32; 256];
            let g = f(&mut t, &hashes, &keys, &mut gids, None);
            assert_eq!(gids, expected, "{name}");
            assert_eq!(g, 19, "{name}");
        }
    }

    #[test]
    fn str_table_survives_growth() {
        let mut t = StrGroupTable::new();
        for i in 0..5000 {
            t.reserve(1);
            let k = format!("group-{i}");
            let gid = t.find_or_insert(hash_bytes(k.as_bytes()), &k);
            assert_eq!(gid, i as u32);
        }
        assert_eq!(t.groups(), 5000);
        assert_eq!(t.key(4321), "group-4321");
    }

    #[test]
    fn colliding_hashes_still_distinguish_keys() {
        // Force identical hashes: both probe the same chain but must get
        // distinct gids because the byte comparison differs.
        let mut t = StrGroupTable::new();
        t.reserve(4);
        let g1 = t.find_or_insert(42, "aaa");
        let g2 = t.find_or_insert(42, "bbb");
        let g1b = t.find_or_insert(42, "aaa");
        assert_ne!(g1, g2);
        assert_eq!(g1, g1b);
    }

    // --- composite keys ---------------------------------------------------

    /// The hash pipeline's combine over one row of composite keys.
    fn multi_hash(ints: &[&[i64]], strs: &[&StrVec], i: usize) -> u64 {
        let h = ints.iter().fold(0u64, |h, c| {
            crate::hashing::combine_hash(h, hash_u64(c[i] as u64))
        });
        strs.iter().fold(h, |h, c| {
            crate::hashing::combine_hash(h, hash_bytes(c.get_bytes(i)))
        })
    }

    /// 512 rows over (i16-range, i32-range, i64-range) integers and a
    /// string column including `""`: 4 × 3 × 2 × 3 = 72 distinct keys.
    fn mixed_columns() -> (Vec<i64>, Vec<i64>, Vec<i64>, StrVec) {
        let a: Vec<i64> = (0..512)
            .map(|i| [i16::MIN, -1, 0, i16::MAX][i % 4] as i64)
            .collect();
        let b: Vec<i64> = (0..512)
            .map(|i| [i32::MIN, 65_535, -65_536][i % 3] as i64)
            .collect();
        let c: Vec<i64> = (0..512)
            .map(|i| [i64::MIN, i64::MAX][(i / 12) % 2])
            .collect();
        let s: Vec<&str> = (0..512)
            .map(|i| ["", "x", "MED BOX"][(i / 24) % 3])
            .collect();
        (a, b, c, StrVec::from_strings(&s))
    }

    #[test]
    fn multi_mixed_int_and_str_keys_group_exactly() {
        let (a, b, c, s) = mixed_columns();
        let (ints, strs) = ([a.as_slice(), b.as_slice(), c.as_slice()], [&s]);
        let hashes: Vec<u64> = (0..512).map(|i| multi_hash(&ints, &strs, i)).collect();
        let mut t = MultiGroupTable::new(3, 1);
        t.reserve(512);
        let mut gids = vec![0u32; 512];
        assert_eq!(
            hash_insertcheck_multi_gcc(&mut t, &hashes, &ints, &strs, &mut gids, None),
            72
        );
        // Equal keys ⇔ equal gids, checked pairwise against the columns.
        let key = |i: usize| (a[i], b[i], c[i], s.get(i));
        for i in 0..512 {
            for j in 0..i {
                assert_eq!(key(i) == key(j), gids[i] == gids[j], "rows {i} and {j}");
            }
        }
        // The empty string is a key like any other.
        assert!((0..512).any(|i| s.get(i).is_empty()));
    }

    #[test]
    fn multi_gids_are_dense_in_position_order() {
        let (a, b, c, s) = mixed_columns();
        let (ints, strs) = ([a.as_slice(), b.as_slice(), c.as_slice()], [&s]);
        let hashes: Vec<u64> = (0..512).map(|i| multi_hash(&ints, &strs, i)).collect();
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 5 != 2).collect();
        for sv in [None, Some(sel.as_slice())] {
            let mut t = MultiGroupTable::new(3, 1);
            t.reserve(512);
            let mut gids = vec![u32::MAX; 512];
            let groups = hash_insertcheck_multi_icc(&mut t, &hashes, &ints, &strs, &mut gids, sv);
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

    #[test]
    fn multi_sel_and_dense_paths_agree() {
        let (a, b, c, s) = mixed_columns();
        let (ints, strs) = ([a.as_slice(), b.as_slice(), c.as_slice()], [&s]);
        let hashes: Vec<u64> = (0..512).map(|i| multi_hash(&ints, &strs, i)).collect();
        let all: Vec<u32> = (0..512).collect();
        let mut dense = vec![0u32; 512];
        let mut t = MultiGroupTable::new(3, 1);
        t.reserve(512);
        hash_insertcheck_multi_clang(&mut t, &hashes, &ints, &strs, &mut dense, None);
        let mut via_sel = vec![0u32; 512];
        let mut t2 = MultiGroupTable::new(3, 1);
        t2.reserve(512);
        hash_insertcheck_multi_clang(&mut t2, &hashes, &ints, &strs, &mut via_sel, Some(&all));
        assert_eq!(dense, via_sel);
        assert_eq!(t.groups(), t2.groups());
        assert_eq!(t.bytes(), t2.bytes());
    }

    #[test]
    fn multi_insertcheck_flavors_agree() {
        let (a, b, c, s) = mixed_columns();
        let (ints, strs) = ([a.as_slice(), b.as_slice(), c.as_slice()], [&s]);
        let hashes: Vec<u64> = (0..512).map(|i| multi_hash(&ints, &strs, i)).collect();
        let sel: Vec<u32> = (0..512u32).filter(|i| i % 3 != 1).collect();
        for sv in [None, Some(sel.as_slice())] {
            let mut expected = vec![0u32; 512];
            let mut t_ref = MultiGroupTable::new(3, 1);
            t_ref.reserve(512);
            let g_ref =
                hash_insertcheck_multi_gcc(&mut t_ref, &hashes, &ints, &strs, &mut expected, sv);
            for (name, f) in [
                ("icc", hash_insertcheck_multi_icc as MultiGroupInsertCheck),
                ("clang", hash_insertcheck_multi_clang),
            ] {
                let mut t = MultiGroupTable::new(3, 1);
                t.reserve(512);
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
    }

    #[test]
    fn multi_gids_survive_growth() {
        let n = 5000;
        let a: Vec<i64> = (0..n).map(|i| i as i64 % 97).collect();
        let strs: Vec<String> = (0..n).map(|i| format!("g{}", i / 97)).collect();
        let s = StrVec::from_strings(&strs);
        let (ints, sv) = ([a.as_slice()], [&s]);
        let hashes: Vec<u64> = (0..n).map(|i| multi_hash(&ints, &sv, i)).collect();
        let mut t = MultiGroupTable::new(1, 1);
        let mut first = vec![0u32; n];
        for i in 0..n {
            t.reserve(1);
            first[i] = t.find_or_insert(hashes[i], &ints, &sv, i);
        }
        assert_eq!(
            t.groups() as usize,
            n,
            "(i mod 97, i / 97) is unique per row"
        );
        assert!(t.bytes() > 64 * 16, "the slot array grew");
        // Lookups after growth return the gids assigned before it.
        for i in 0..n {
            assert_eq!(t.find_or_insert(hashes[i], &ints, &sv, i), first[i]);
        }
        assert_eq!(t.groups() as usize, n);
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
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn multi_rejects_wrong_arity() {
        let mut t = MultiGroupTable::new(2, 0);
        let a = [1i64];
        hash_insertcheck_multi_gcc(&mut t, &[0], &[&a], &[], &mut [0], None);
    }
}
