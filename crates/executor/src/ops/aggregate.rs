//! Aggregation operators.
//!
//! [`HashAggregate`] implements vectorized hash aggregation exactly as §1
//! sketches: per input vector it computes a hash vector (`map_hash_*` /
//! `map_rehash_*` instances), finds-or-inserts group ids
//! (`hash_insertcheck_*`, the primitive of Fig. 4e), then updates
//! accumulators with grouped `aggr_*` primitives. One integer key uses
//! `hash_insertcheck_u64_col`, one string key `hash_insertcheck_str_col`,
//! and two or more keys `hash_insertcheck_multi_col`, whose table stores
//! and compares the key columns one by one. [`StreamAggregate`] handles
//! the ungrouped case with `aggr0_*` primitives.

use std::sync::Arc;

use ma_primitives::{
    AggrCountGrouped, AggrMinMaxF64, AggrMinMaxF64Grouped, AggrMinMaxI64, AggrMinMaxI64Grouped,
    AggrSumF64, AggrSumF64Grouped, AggrSumI64, AggrSumI64Grouped, GroupInsertCheck, GroupTable,
    MapHash, MapHashStr, MapRehash, MapRehashStr, MultiGroupInsertCheck, MultiGroupTable,
    StrGroupInsertCheck, StrGroupTable,
};
use ma_vector::{ColumnBuilder, DataChunk, DataType, SelVec, StrVec, Vector};

use crate::adaptive::HeurKind;
use crate::ops::{normalize_keys_i64, BoxOp, Operator, RowStore};
use crate::{ExecError, PrimInstance, QueryContext};

/// An aggregate function over an input column (by index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSpec {
    /// 128-bit-accumulated sum of an `i64` column, emitted as `i64`.
    SumI64(usize),
    /// Sum of an `f64` column.
    SumF64(usize),
    /// `COUNT(*)` over live tuples.
    CountStar,
    /// Minimum of an `i64` column.
    MinI64(usize),
    /// Maximum of an `i64` column.
    MaxI64(usize),
    /// Minimum of an `f64` column.
    MinF64(usize),
    /// Maximum of an `f64` column.
    MaxF64(usize),
}

impl AggSpec {
    fn out_type(&self) -> DataType {
        match self {
            AggSpec::SumI64(_) | AggSpec::CountStar | AggSpec::MinI64(_) | AggSpec::MaxI64(_) => {
                DataType::I64
            }
            AggSpec::SumF64(_) | AggSpec::MinF64(_) | AggSpec::MaxF64(_) => DataType::F64,
        }
    }
}

// --- grouped accumulator buffers -------------------------------------------

enum AccBuf {
    SumI64 {
        inst: PrimInstance<AggrSumI64Grouped>,
        accs: Vec<i128>,
        col: usize,
    },
    SumF64 {
        inst: PrimInstance<AggrSumF64Grouped>,
        accs: Vec<f64>,
        col: usize,
    },
    Count {
        inst: PrimInstance<AggrCountGrouped>,
        accs: Vec<i64>,
    },
    MinI64 {
        inst: PrimInstance<AggrMinMaxI64Grouped>,
        accs: Vec<i64>,
        col: usize,
    },
    MaxI64 {
        inst: PrimInstance<AggrMinMaxI64Grouped>,
        accs: Vec<i64>,
        col: usize,
    },
    MinF64 {
        inst: PrimInstance<AggrMinMaxF64Grouped>,
        accs: Vec<f64>,
        col: usize,
    },
    MaxF64 {
        inst: PrimInstance<AggrMinMaxF64Grouped>,
        accs: Vec<f64>,
        col: usize,
    },
}

impl AccBuf {
    /// Live accumulator bytes (length-based): 16 per group for the
    /// 128-bit sums, 8 otherwise. Reported by the byte-accounting facade.
    fn bytes(&self) -> u64 {
        match self {
            AccBuf::SumI64 { accs, .. } => (accs.len() as u64).saturating_mul(16),
            AccBuf::SumF64 { accs, .. }
            | AccBuf::MinF64 { accs, .. }
            | AccBuf::MaxF64 { accs, .. } => (accs.len() as u64).saturating_mul(8),
            AccBuf::Count { accs, .. } => (accs.len() as u64).saturating_mul(8),
            AccBuf::MinI64 { accs, .. } | AccBuf::MaxI64 { accs, .. } => {
                (accs.len() as u64).saturating_mul(8)
            }
        }
    }

    fn create(spec: AggSpec, ctx: &QueryContext, label: &str) -> Result<Self, ExecError> {
        Ok(match spec {
            AggSpec::SumI64(col) => AccBuf::SumI64 {
                inst: ctx.instance(
                    "aggr_sum128_i64_col",
                    format!("{label}/aggr_sum128_i64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
            AggSpec::SumF64(col) => AccBuf::SumF64 {
                inst: ctx.instance(
                    "aggr_sum_f64_col",
                    format!("{label}/aggr_sum_f64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
            AggSpec::CountStar => AccBuf::Count {
                inst: ctx.instance("aggr_count", format!("{label}/aggr_count"), HeurKind::None)?,
                accs: Vec::new(),
            },
            AggSpec::MinI64(col) => AccBuf::MinI64 {
                inst: ctx.instance(
                    "aggr_min_i64_col",
                    format!("{label}/aggr_min_i64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
            AggSpec::MaxI64(col) => AccBuf::MaxI64 {
                inst: ctx.instance(
                    "aggr_max_i64_col",
                    format!("{label}/aggr_max_i64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
            AggSpec::MinF64(col) => AccBuf::MinF64 {
                inst: ctx.instance(
                    "aggr_min_f64_col",
                    format!("{label}/aggr_min_f64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
            AggSpec::MaxF64(col) => AccBuf::MaxF64 {
                inst: ctx.instance(
                    "aggr_max_f64_col",
                    format!("{label}/aggr_max_f64"),
                    HeurKind::None,
                )?,
                accs: Vec::new(),
                col,
            },
        })
    }

    fn grow(&mut self, groups: usize) {
        match self {
            AccBuf::SumI64 { accs, .. } => accs.resize(groups, 0),
            AccBuf::SumF64 { accs, .. } => accs.resize(groups, 0.0),
            AccBuf::Count { accs, .. } => accs.resize(groups, 0),
            AccBuf::MinI64 { accs, .. } => accs.resize(groups, i64::MAX),
            AccBuf::MaxI64 { accs, .. } => accs.resize(groups, i64::MIN),
            AccBuf::MinF64 { accs, .. } => accs.resize(groups, f64::INFINITY),
            AccBuf::MaxF64 { accs, .. } => accs.resize(groups, f64::NEG_INFINITY),
        }
    }

    fn update(&mut self, chunk: &DataChunk, gids: &[u32], sel: Option<&[u32]>, live: u64) {
        match self {
            AccBuf::SumI64 { inst, accs, col } => {
                let c = chunk.column(*col).as_i64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::SumF64 { inst, accs, col } => {
                let c = chunk.column(*col).as_f64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::Count { inst, accs } => {
                inst.invoke(live, |f| f(accs, gids, sel));
            }
            AccBuf::MinI64 { inst, accs, col } | AccBuf::MaxI64 { inst, accs, col } => {
                let c = chunk.column(*col).as_i64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
            AccBuf::MinF64 { inst, accs, col } | AccBuf::MaxF64 { inst, accs, col } => {
                let c = chunk.column(*col).as_f64();
                inst.invoke(live, |f| f(accs, gids, c, sel));
            }
        }
    }

    fn finish(self) -> Vector {
        match self {
            AccBuf::SumI64 { accs, .. } => Vector::I64(
                accs.into_iter()
                    .map(|v| i64::try_from(v).expect("sum exceeds i64 output range"))
                    .collect(),
            ),
            AccBuf::SumF64 { accs, .. } => Vector::F64(accs),
            AccBuf::Count { accs, .. } => Vector::I64(accs),
            AccBuf::MinI64 { accs, .. } | AccBuf::MaxI64 { accs, .. } => Vector::I64(accs),
            AccBuf::MinF64 { accs, .. } | AccBuf::MaxF64 { accs, .. } => Vector::F64(accs),
        }
    }
}

// --- key handling -----------------------------------------------------------

enum HashStep {
    /// First key column, integer: hash its normalized `i64` scratch
    /// (`keyscratch[slot]`).
    HashI64(PrimInstance<MapHash<i64>>, usize, usize),
    /// Subsequent integer key column: combine.
    RehashI64(PrimInstance<MapRehash<i64>>, usize, usize),
    /// First key column, string.
    HashStr(PrimInstance<MapHashStr>, usize),
    /// Subsequent string key column.
    RehashStr(PrimInstance<MapRehashStr>, usize),
}

enum KeyTable {
    /// One integer key column: `GroupTable` on the normalized value.
    Int {
        table: GroupTable,
        insert: PrimInstance<GroupInsertCheck>,
        /// Reusable `u64` view of the hash step's normalized keys.
        keys_u64: Vec<u64>,
    },
    /// One string key column: `StrGroupTable` (the paper's Fig. 4(e)
    /// primitive).
    Str {
        table: StrGroupTable,
        insert: PrimInstance<StrGroupInsertCheck>,
    },
    /// Two or more key columns: `MultiGroupTable`, comparing the integer
    /// keys (the hash steps' normalized scratch, in `keyscratch` order)
    /// and the string keys (`str_cols`) column by column.
    Multi {
        table: MultiGroupTable,
        insert: PrimInstance<MultiGroupInsertCheck>,
        str_cols: Vec<usize>,
    },
}

impl KeyTable {
    fn groups(&self) -> u32 {
        match self {
            KeyTable::Int { table, .. } => table.groups(),
            KeyTable::Str { table, .. } => table.groups(),
            KeyTable::Multi { table, .. } => table.groups(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            KeyTable::Int { table, .. } => table.bytes(),
            KeyTable::Str { table, .. } => table.bytes(),
            KeyTable::Multi { table, .. } => table.bytes(),
        }
    }
}

/// How many new groups to reserve room for before an insertcheck pass:
/// `live` (every live tuple may open a group) clamped to the groups a
/// proven bound still permits — a sound bound guarantees at most
/// `hint - groups` further distinct keys, so the clamp never
/// under-reserves (the group tables never rehash inside `find_or_insert`,
/// and probing a *present* key terminates at any load factor, so a
/// zero-room pass over already-seen keys is safe). An unsound bound is
/// caught by the post-pass group-count guard in `consume_chunk`: the
/// table's ≤50% load invariant leaves at least `hint` free slots of
/// headroom, so the offending pass still terminates and errors out.
fn clamped_reserve(live: usize, groups: usize, hint: Option<usize>) -> usize {
    match hint {
        Some(h) => live.min(h.saturating_sub(groups)),
        None => live,
    }
}

// --- the operator ------------------------------------------------------------

/// Hash aggregation: `GROUP BY group_cols` computing `specs`.
pub struct HashAggregate {
    child: BoxOp,
    group_cols: Vec<usize>,
    hash_steps: Vec<HashStep>,
    key_table: KeyTable,
    accs: Vec<AccBuf>,
    key_builders: Vec<ColumnBuilder>,
    types: Vec<DataType>,
    vector_size: usize,
    done: Option<std::vec::IntoIter<DataChunk>>,
    /// The analyzer's proven distinct-group bound, when lowered from a
    /// plan: clamps speculative reservations (`with_group_bound`).
    group_hint: Option<usize>,
    /// Byte-accounting slot recording this instance's high-water mark.
    tracker: Option<crate::adaptive::MemTracker>,
    // scratch
    hashes: Vec<u64>,
    gids: Vec<u32>,
    /// One normalized `i64` vector per integer key column, in key order.
    keyscratch: Vec<Vec<i64>>,
}

impl HashAggregate {
    /// Builds the operator. `group_cols` must be non-empty (use
    /// [`StreamAggregate`] otherwise); integer and string key columns are
    /// supported.
    pub fn new(
        child: BoxOp,
        group_cols: Vec<usize>,
        specs: Vec<AggSpec>,
        ctx: &QueryContext,
        label: &str,
    ) -> Result<Self, ExecError> {
        if group_cols.is_empty() {
            return Err(ExecError::Plan(
                "HashAggregate requires group columns; use StreamAggregate".into(),
            ));
        }
        let in_types = child.out_types().to_vec();
        for &c in &group_cols {
            match in_types.get(c) {
                None => return Err(ExecError::Plan(format!("group column {c} out of range"))),
                Some(DataType::F64) => {
                    return Err(ExecError::Plan(format!(
                        "group column {c} is f64; group keys must be integers or strings"
                    )))
                }
                Some(_) => {}
            }
        }

        // Hash pipeline over the key columns; integer keys each get a
        // normalized scratch slot, shared with the insertcheck below.
        let mut hash_steps = Vec::with_capacity(group_cols.len());
        let mut int_slots = 0;
        let mut str_cols = Vec::new();
        for (k, &c) in group_cols.iter().enumerate() {
            let is_str = in_types[c] == DataType::Str;
            let step = match (k == 0, is_str) {
                (true, false) => HashStep::HashI64(
                    ctx.instance(
                        "map_hash_i64_col",
                        format!("{label}/map_hash"),
                        HeurKind::None,
                    )?,
                    c,
                    int_slots,
                ),
                (false, false) => HashStep::RehashI64(
                    ctx.instance(
                        "map_rehash_i64_col",
                        format!("{label}/map_rehash"),
                        HeurKind::None,
                    )?,
                    c,
                    int_slots,
                ),
                (true, true) => HashStep::HashStr(
                    ctx.instance(
                        "map_hash_str_col",
                        format!("{label}/map_hash_str"),
                        HeurKind::None,
                    )?,
                    c,
                ),
                (false, true) => HashStep::RehashStr(
                    ctx.instance(
                        "map_rehash_str_col",
                        format!("{label}/map_rehash_str"),
                        HeurKind::None,
                    )?,
                    c,
                ),
            };
            if is_str {
                str_cols.push(c);
            } else {
                int_slots += 1;
            }
            hash_steps.push(step);
        }

        // Group table choice.
        let key_table = if group_cols.len() > 1 {
            KeyTable::Multi {
                table: MultiGroupTable::new(int_slots, str_cols.len()),
                insert: ctx.instance(
                    "hash_insertcheck_multi_col",
                    format!("{label}/insertcheck_multi"),
                    HeurKind::None,
                )?,
                str_cols,
            }
        } else if int_slots == 1 {
            KeyTable::Int {
                table: GroupTable::new(),
                insert: ctx.instance(
                    "hash_insertcheck_u64_col",
                    format!("{label}/insertcheck_u64"),
                    HeurKind::None,
                )?,
                keys_u64: Vec::new(),
            }
        } else {
            KeyTable::Str {
                table: StrGroupTable::new(),
                insert: ctx.instance(
                    "hash_insertcheck_str_col",
                    format!("{label}/insertcheck_str"),
                    HeurKind::None,
                )?,
            }
        };

        let accs = specs
            .iter()
            .map(|&s| AccBuf::create(s, ctx, label))
            .collect::<Result<Vec<_>, _>>()?;

        let mut types: Vec<DataType> = group_cols.iter().map(|&c| in_types[c]).collect();
        types.extend(specs.iter().map(AggSpec::out_type));

        let key_builders = group_cols
            .iter()
            .map(|&c| ColumnBuilder::with_capacity(in_types[c], 1024))
            .collect();

        Ok(HashAggregate {
            child,
            group_cols,
            hash_steps,
            key_table,
            accs,
            key_builders,
            types,
            vector_size: ctx.vector_size(),
            done: None,
            group_hint: None,
            tracker: None,
            hashes: Vec::new(),
            gids: Vec::new(),
            keyscratch: vec![Vec::new(); int_slots],
        })
    }

    /// Clamps speculative reservations to the analyzer's proven
    /// distinct-group bound: key builders pre-allocate `min(1024, bound)`
    /// rows, and per-chunk group-table reserves never exceed the groups
    /// the bound still permits. Call before the first chunk is consumed.
    pub fn with_group_bound(mut self, bound: usize) -> Self {
        self.group_hint = Some(bound);
        let cap = bound.min(1024);
        self.key_builders = self
            .group_cols
            .iter()
            .enumerate()
            .map(|(i, _)| ColumnBuilder::with_capacity(self.types[i], cap))
            .collect();
        self
    }

    /// Attaches a byte-accounting slot; the operator records its live
    /// table + builder + accumulator bytes after every consumed chunk.
    pub fn with_tracker(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Live resident bytes of the aggregation state (length-based).
    fn resident_bytes(&self) -> u64 {
        let builders = self
            .key_builders
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes() as u64));
        let accs = self
            .accs
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes()));
        self.key_table
            .bytes()
            .saturating_add(builders)
            .saturating_add(accs)
    }

    fn consume_chunk(&mut self, chunk: &DataChunk) -> Result<(), ExecError> {
        let n = chunk.len();
        let sel = chunk.sel().map(SelVec::as_slice);
        let live = chunk.live_count() as u64;
        if live == 0 {
            return Ok(());
        }
        self.hashes.resize(n.max(self.hashes.len()), 0);
        self.gids.resize(n.max(self.gids.len()), 0);
        let hashes = &mut self.hashes[..n];
        let gids = &mut self.gids[..n];

        // 1. hash pipeline
        for step in &mut self.hash_steps {
            match step {
                HashStep::HashI64(inst, c, slot) => {
                    let keys = &mut self.keyscratch[*slot];
                    normalize_keys_i64(chunk.column(*c), keys);
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
                HashStep::RehashI64(inst, c, slot) => {
                    let keys = &mut self.keyscratch[*slot];
                    normalize_keys_i64(chunk.column(*c), keys);
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
                HashStep::HashStr(inst, c) => {
                    let keys = chunk.column(*c).as_str_vec();
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
                HashStep::RehashStr(inst, c) => {
                    let keys = chunk.column(*c).as_str_vec();
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
            }
        }

        // 2. insertcheck (group-id assignment)
        let prev_groups = self.key_table.groups();
        let room = clamped_reserve(live as usize, prev_groups as usize, self.group_hint);
        let groups_now = match &mut self.key_table {
            KeyTable::Int {
                table,
                insert,
                keys_u64,
            } => {
                keys_u64.clear();
                keys_u64.extend(self.keyscratch[0].iter().map(|&k| k as u64));
                table.reserve(room);
                insert.invoke(live, |f| f(table, hashes, keys_u64, gids, sel))
            }
            KeyTable::Str { table, insert } => {
                let keys = chunk.column(self.group_cols[0]).as_str_vec();
                table.reserve(room);
                insert.invoke(live, |f| f(table, hashes, keys, gids, sel))
            }
            KeyTable::Multi {
                table,
                insert,
                str_cols,
            } => {
                let ints: Vec<&[i64]> = self.keyscratch.iter().map(Vec::as_slice).collect();
                let strs: Vec<&StrVec> = str_cols
                    .iter()
                    .map(|&c| chunk.column(c).as_str_vec())
                    .collect();
                table.reserve(room);
                insert.invoke(live, |f| f(table, hashes, &ints, &strs, gids, sel))
            }
        };

        // The clamped reservation above leans on the proven bound; verify
        // it held rather than trusting the analyzer blindly. (The ≤50%
        // load invariant guarantees the pass itself terminated.)
        if let Some(h) = self.group_hint {
            if groups_now as usize > h {
                return Err(ExecError::Plan(format!(
                    "proven group bound violated: {groups_now} groups exceed \
                     the analyzer's bound of {h} (unsound analysis)"
                )));
            }
        }

        // 3. record representative key values for new groups, in gid order
        // (insertcheck assigns fresh gids densely, in position order).
        if groups_now > prev_groups {
            let mut next = prev_groups;
            let mut record = |p: usize| {
                if gids[p] == next {
                    for (b, &c) in self.key_builders.iter_mut().zip(&self.group_cols) {
                        match chunk.column(c).as_ref() {
                            Vector::I16(v) => b.push_i16(v[p]),
                            Vector::I32(v) => b.push_i32(v[p]),
                            Vector::I64(v) => b.push_i64(v[p]),
                            Vector::F64(v) => b.push_f64(v[p]),
                            Vector::Str(v) => b.push_str(v.get(p)),
                        }
                    }
                    next += 1;
                }
                next == groups_now
            };
            match sel {
                Some(s) => {
                    for &p in s {
                        if record(p as usize) {
                            break;
                        }
                    }
                }
                None => {
                    for p in 0..n {
                        if record(p) {
                            break;
                        }
                    }
                }
            }
            debug_assert_eq!(next, groups_now, "dense gid assignment violated");
        }

        // 4. update accumulators
        for acc in &mut self.accs {
            acc.grow(groups_now as usize);
            acc.update(chunk, gids, sel, live);
        }

        if let Some(t) = &self.tracker {
            t.record(self.resident_bytes());
        }
        Ok(())
    }

    fn finalize(&mut self) -> Vec<DataChunk> {
        let groups = self.key_table.groups() as usize;
        // Ensure accumulators cover groups even if zero chunks arrived.
        for acc in &mut self.accs {
            acc.grow(groups);
        }
        let mut store = RowStore::new(self.types.clone());
        // Build one big chunk column-wise: keys then aggregates.
        let mut cols: Vec<Arc<Vector>> = Vec::with_capacity(self.types.len());
        for b in std::mem::take(&mut self.key_builders) {
            let col = b.finish();
            cols.push(Arc::new(col.slice_vector(0, groups)));
        }
        for acc in std::mem::take(&mut self.accs) {
            cols.push(Arc::new(acc.finish()));
        }
        if groups == 0 {
            return Vec::new();
        }
        let chunk = DataChunk::new(cols);
        store.append(&chunk, &(0..self.types.len()).collect::<Vec<_>>());
        if let Some(t) = &self.tracker {
            // Emission phase: the table is still resident alongside the
            // materialized output copy (covered by the bound's output
            // term).
            t.record(self.key_table.bytes().saturating_add(store.bytes()));
        }
        store.freeze().to_chunks(self.vector_size)
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done.is_none() {
            while let Some(chunk) = self.child.next()? {
                self.consume_chunk(&chunk)?;
            }
            self.done = Some(self.finalize().into_iter());
        }
        Ok(self.done.as_mut().and_then(Iterator::next))
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

// --- ungrouped ---------------------------------------------------------------

enum Acc0 {
    SumI64 {
        inst: PrimInstance<AggrSumI64>,
        acc: i128,
        col: usize,
    },
    SumF64 {
        inst: PrimInstance<AggrSumF64>,
        acc: f64,
        col: usize,
    },
    Count {
        acc: i64,
    },
    MinI64 {
        inst: PrimInstance<AggrMinMaxI64>,
        acc: i64,
        col: usize,
    },
    MaxI64 {
        inst: PrimInstance<AggrMinMaxI64>,
        acc: i64,
        col: usize,
    },
    MinF64 {
        inst: PrimInstance<AggrMinMaxF64>,
        acc: f64,
        col: usize,
    },
    MaxF64 {
        inst: PrimInstance<AggrMinMaxF64>,
        acc: f64,
        col: usize,
    },
}

/// Ungrouped aggregation: one output row.
pub struct StreamAggregate {
    child: BoxOp,
    accs: Vec<Acc0>,
    types: Vec<DataType>,
    done: bool,
}

impl StreamAggregate {
    /// Builds the operator over `specs`.
    pub fn new(
        child: BoxOp,
        specs: Vec<AggSpec>,
        ctx: &QueryContext,
        label: &str,
    ) -> Result<Self, ExecError> {
        let types = specs.iter().map(AggSpec::out_type).collect();
        let accs = specs
            .iter()
            .map(|&s| -> Result<Acc0, ExecError> {
                Ok(match s {
                    AggSpec::SumI64(col) => Acc0::SumI64 {
                        inst: ctx.instance(
                            "aggr0_sum128_i64_col",
                            format!("{label}/aggr0_sum128_i64"),
                            HeurKind::None,
                        )?,
                        acc: 0,
                        col,
                    },
                    AggSpec::SumF64(col) => Acc0::SumF64 {
                        inst: ctx.instance(
                            "aggr0_sum_f64_col",
                            format!("{label}/aggr0_sum_f64"),
                            HeurKind::None,
                        )?,
                        acc: 0.0,
                        col,
                    },
                    AggSpec::CountStar => Acc0::Count { acc: 0 },
                    AggSpec::MinI64(col) => Acc0::MinI64 {
                        inst: ctx.instance(
                            "aggr0_min_i64_col",
                            format!("{label}/aggr0_min_i64"),
                            HeurKind::None,
                        )?,
                        acc: i64::MAX,
                        col,
                    },
                    AggSpec::MaxI64(col) => Acc0::MaxI64 {
                        inst: ctx.instance(
                            "aggr0_max_i64_col",
                            format!("{label}/aggr0_max_i64"),
                            HeurKind::None,
                        )?,
                        acc: i64::MIN,
                        col,
                    },
                    AggSpec::MinF64(col) => Acc0::MinF64 {
                        inst: ctx.instance(
                            "aggr0_min_f64_col",
                            format!("{label}/aggr0_min_f64"),
                            HeurKind::None,
                        )?,
                        acc: f64::INFINITY,
                        col,
                    },
                    AggSpec::MaxF64(col) => Acc0::MaxF64 {
                        inst: ctx.instance(
                            "aggr0_max_f64_col",
                            format!("{label}/aggr0_max_f64"),
                            HeurKind::None,
                        )?,
                        acc: f64::NEG_INFINITY,
                        col,
                    },
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamAggregate {
            child,
            accs,
            types,
            done: false,
        })
    }
}

impl Operator for StreamAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done {
            return Ok(None);
        }
        while let Some(chunk) = self.child.next()? {
            let sel = chunk.sel().map(SelVec::as_slice);
            let live = chunk.live_count() as u64;
            for acc in &mut self.accs {
                match acc {
                    Acc0::SumI64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_i64();
                        *acc += inst.invoke(live, |f| f(c, sel));
                    }
                    Acc0::SumF64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_f64();
                        *acc += inst.invoke(live, |f| f(c, sel));
                    }
                    Acc0::Count { acc } => *acc += live as i64,
                    Acc0::MinI64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_i64();
                        *acc = (*acc).min(inst.invoke(live, |f| f(c, sel)));
                    }
                    Acc0::MaxI64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_i64();
                        *acc = (*acc).max(inst.invoke(live, |f| f(c, sel)));
                    }
                    Acc0::MinF64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_f64();
                        *acc = (*acc).min(inst.invoke(live, |f| f(c, sel)));
                    }
                    Acc0::MaxF64 { inst, acc, col } => {
                        let c = chunk.column(*col).as_f64();
                        *acc = (*acc).max(inst.invoke(live, |f| f(c, sel)));
                    }
                }
            }
        }
        self.done = true;
        let cols = self
            .accs
            .iter()
            .map(|acc| {
                Arc::new(match acc {
                    Acc0::SumI64 { acc, .. } => {
                        Vector::I64(vec![i64::try_from(*acc).expect("sum overflow")])
                    }
                    Acc0::SumF64 { acc, .. } => Vector::F64(vec![*acc]),
                    Acc0::Count { acc } => Vector::I64(vec![*acc]),
                    Acc0::MinI64 { acc, .. } | Acc0::MaxI64 { acc, .. } => Vector::I64(vec![*acc]),
                    Acc0::MinF64 { acc, .. } | Acc0::MaxF64 { acc, .. } => Vector::F64(vec![*acc]),
                })
            })
            .collect();
        Ok(Some(DataChunk::new(cols)))
    }

    fn out_types(&self) -> &[DataType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::expr::{CmpKind, Pred, Value};
    use crate::ops::{collect, total_rows, Scan, Select};
    use ma_primitives::build_dictionary;
    use ma_vector::Table;

    fn ctx() -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), ExecConfig::fixed_default())
    }

    /// Table: k in 0..7 cycling, v = row index, s in {"a","b","c"} cycling.
    fn scan(n: usize) -> BoxOp {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        let names = ["a", "b", "c"];
        for i in 0..n {
            k.push_i32((i % 7) as i32);
            v.push_i64(i as i64);
            s.push_str(names[i % 3]);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![
                    ("k".into(), k.finish()),
                    ("v".into(), v.finish()),
                    ("s".into(), s.finish()),
                ],
            )
            .unwrap(),
        );
        Box::new(Scan::new(t, &["k", "v", "s"], 128).unwrap())
    }

    #[test]
    fn single_int_key_grouping() {
        let c = ctx();
        let mut agg = HashAggregate::new(
            scan(700),
            vec![0],
            vec![AggSpec::CountStar, AggSpec::SumI64(1)],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 7);
        let ch = &chunks[0];
        // Each key occurs 100 times.
        for g in 0..7 {
            assert_eq!(ch.column(1).as_i64()[g], 100);
        }
        // Sums: key appears at rows key, key+7, ... → sum = 100*key + 7*(0+..+99)
        for g in 0..7 {
            let key = ch.column(0).as_i32()[g] as i64;
            assert_eq!(ch.column(2).as_i64()[g], 100 * key + 7 * 4950);
        }
    }

    #[test]
    fn single_str_key_grouping() {
        let c = ctx();
        let mut agg =
            HashAggregate::new(scan(300), vec![2], vec![AggSpec::CountStar], &c, "t").unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 3);
        let ch = &chunks[0];
        for g in 0..3 {
            assert_eq!(ch.column(1).as_i64()[g], 100);
            assert!(["a", "b", "c"].contains(&ch.column(0).as_str_vec().get(g)));
        }
    }

    #[test]
    fn multi_key_grouping() {
        let c = ctx();
        // (k mod 7, s mod 3): 21 distinct pairs over 2100 rows → 100 each.
        let mut agg = HashAggregate::new(
            scan(2100),
            vec![0, 2],
            vec![AggSpec::CountStar, AggSpec::MinI64(1), AggSpec::MaxI64(1)],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 21);
        for ch in &chunks {
            for p in ch.live_positions() {
                assert_eq!(ch.column(2).as_i64()[p], 100);
                let min = ch.column(3).as_i64()[p];
                let max = ch.column(4).as_i64()[p];
                assert!(min < max);
                // rows repeat with period 21
                assert_eq!((max - min) % 21, 0);
            }
        }
    }

    #[test]
    fn composite_keys_of_every_type_group_exactly() {
        // I16/I32/I64/Str keys (with "" and sign-extension edge values)
        // against a reference map, through a selection vector.
        let n = 1500;
        let mut a = ColumnBuilder::with_capacity(DataType::I16, n);
        let mut b = ColumnBuilder::with_capacity(DataType::I32, n);
        let mut c = ColumnBuilder::with_capacity(DataType::I64, n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, n);
        let mut reference = std::collections::BTreeMap::new();
        for i in 0..n {
            let key = (
                [-1i16, i16::MIN, 7][i % 3],
                [65_535i32, -1][i % 2],
                [i64::MIN, 0, -1, 1 << 40][(i / 5) % 4],
                ["", "-1", "MED BOX"][(i / 7) % 3],
            );
            a.push_i16(key.0);
            b.push_i32(key.1);
            c.push_i64(key.2);
            s.push_str(key.3);
            if i % 4 != 3 {
                let key = (key.0, key.1, key.2, key.3.to_string());
                *reference.entry(key).or_insert(0i64) += 1;
            }
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![
                    ("a".into(), a.finish()),
                    ("b".into(), b.finish()),
                    ("c".into(), c.finish()),
                    ("s".into(), s.finish()),
                    ("v".into(), scan_col(n)),
                ],
            )
            .unwrap(),
        );
        let ctx = ctx();
        let scan = Box::new(Scan::new(t, &["a", "b", "c", "s", "v"], 128).unwrap());
        let pred = Pred::cmp_val(4, CmpKind::Ne, Value::I64(3));
        let sel = Select::new(scan, &pred, &ctx, "s").unwrap();
        let mut agg = HashAggregate::new(
            Box::new(sel),
            vec![3, 0, 2, 1],
            vec![AggSpec::CountStar],
            &ctx,
            "t",
        )
        .unwrap();
        let mut got = std::collections::BTreeMap::new();
        for ch in collect(&mut agg).unwrap() {
            for p in ch.live_positions() {
                let key = (
                    ch.column(1).as_i16()[p],
                    ch.column(3).as_i32()[p],
                    ch.column(2).as_i64()[p],
                    ch.column(0).as_str_vec().get(p).to_string(),
                );
                assert!(got.insert(key, ch.column(4).as_i64()[p]).is_none());
            }
        }
        assert_eq!(got, reference);
    }

    /// `v = i mod 4` as an `i64` column.
    fn scan_col(n: usize) -> ma_vector::Column {
        let mut v = ColumnBuilder::with_capacity(DataType::I64, n);
        for i in 0..n {
            v.push_i64((i % 4) as i64);
        }
        v.finish()
    }

    #[test]
    fn f64_group_keys_rejected() {
        use crate::expr::Expr;
        use crate::ops::{ProjItem, Project};
        let c = ctx();
        let p = Project::new(
            scan(10),
            vec![
                ProjItem::Pass(0),
                ProjItem::Expr(Expr::cast(DataType::F64, Expr::col(1))),
            ],
            &c,
            "p",
        )
        .unwrap();
        assert!(
            HashAggregate::new(Box::new(p), vec![0, 1], vec![AggSpec::CountStar], &c, "t").is_err()
        );
    }

    #[test]
    fn grouping_respects_selection_vector() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I64(70));
        let sel = Select::new(scan(700), &pred, &c, "s").unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![AggSpec::CountStar], &c, "t").unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(total_rows(&chunks), 7);
        let ch = &chunks[0];
        let total: i64 = (0..7).map(|g| ch.column(1).as_i64()[g]).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn stream_aggregate_totals() {
        let c = ctx();
        let mut agg = StreamAggregate::new(
            scan(100),
            vec![
                AggSpec::SumI64(1),
                AggSpec::CountStar,
                AggSpec::MinI64(1),
                AggSpec::MaxI64(1),
            ],
            &c,
            "t",
        )
        .unwrap();
        let chunks = collect(&mut agg).unwrap();
        assert_eq!(chunks.len(), 1);
        let ch = &chunks[0];
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.column(0).as_i64()[0], 4950);
        assert_eq!(ch.column(1).as_i64()[0], 100);
        assert_eq!(ch.column(2).as_i64()[0], 0);
        assert_eq!(ch.column(3).as_i64()[0], 99);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let c = ctx();
        let pred = Pred::cmp_val(1, CmpKind::Lt, Value::I64(-1));
        let sel = Select::new(scan(100), &pred, &c, "s").unwrap();
        let mut agg =
            HashAggregate::new(Box::new(sel), vec![0], vec![AggSpec::CountStar], &c, "t").unwrap();
        assert!(agg.next().unwrap().is_none());
    }

    #[test]
    fn empty_group_cols_rejected() {
        let c = ctx();
        assert!(HashAggregate::new(scan(10), vec![], vec![AggSpec::CountStar], &c, "t").is_err());
    }

    #[test]
    fn f64_aggregates() {
        let c = ctx();
        // Project v to f64 via a scan of v only — easier: sum f64 over cast
        // is covered in eval tests; here use MinF64/MaxF64 over f64 column
        // derived from v with Project.
        use crate::expr::Expr;
        use crate::ops::{ProjItem, Project};
        let p = Project::new(
            scan(50),
            vec![
                ProjItem::Pass(0),
                ProjItem::Expr(Expr::cast(DataType::F64, Expr::col(1))),
            ],
            &c,
            "p",
        )
        .unwrap();
        let mut agg = StreamAggregate::new(
            Box::new(p),
            vec![AggSpec::SumF64(1), AggSpec::MinF64(1), AggSpec::MaxF64(1)],
            &c,
            "t",
        )
        .unwrap();
        let ch = agg.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_f64()[0], 1225.0);
        assert_eq!(ch.column(1).as_f64()[0], 0.0);
        assert_eq!(ch.column(2).as_f64()[0], 49.0);
    }
}
