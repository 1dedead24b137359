//! Aggregation operators.
//!
//! [`HashAggregate`] implements vectorized hash aggregation exactly as §1
//! sketches: per input vector it computes a hash vector (`map_hash_*` /
//! `map_rehash_*` instances), finds-or-inserts group ids
//! (`hash_insertcheck_*`, the primitive of Fig. 4e), then updates
//! accumulators with grouped `aggr_*` primitives. One integer key uses
//! `hash_insertcheck_u64_col`; every other key — one string, or two or
//! more columns — uses `hash_insertcheck_multi_col`, whose table stores
//! and compares the key columns one by one. The group table is the only
//! holder of the group keys: at the end of input the operator reads them
//! back in gid (first-appearance) order at their declared types, then
//! cuts keys and aggregates into output chunks. [`StreamAggregate`]
//! handles the ungrouped case with `aggr0_*` primitives.

use std::sync::Arc;

use ma_primitives::{
    AggrCountGrouped, AggrMinMaxF64, AggrMinMaxF64Grouped, AggrMinMaxI64, AggrMinMaxI64Grouped,
    AggrSumF64, AggrSumF64Grouped, AggrSumI64, AggrSumI64Grouped, GroupInsertCheck, GroupTable,
    MapHash, MapHashStr, MultiGroupInsertCheck, MultiGroupTable,
};
use ma_vector::{DataChunk, DataType, SelVec, StrVec, Vector};

use crate::adaptive::HeurKind;
use crate::ops::{chunk_bytes, into_chunks, normalize_keys_i64, BoxOp, Operator};
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

/// One key column's step of the hash pipeline: `map_hash_*` for the
/// first key column, `map_rehash_*` (same signature) combining each
/// further one.
enum HashStep {
    /// Integer key column `c`, hashed from its normalized `i64` scratch
    /// (`keyscratch[slot]`).
    Int(PrimInstance<MapHash<i64>>, usize, usize),
    /// String key column `c`.
    Str(PrimInstance<MapHashStr>, usize),
}

enum KeyTable {
    /// One integer key column: `GroupTable` on the hash step's
    /// normalized scratch.
    Int {
        table: GroupTable,
        insert: PrimInstance<GroupInsertCheck>,
    },
    /// Every other key — one string column, or two or more columns:
    /// `MultiGroupTable`, comparing the integer keys (the hash steps'
    /// normalized scratch, in `keyscratch` order) and the string keys
    /// (`str_cols`) column by column.
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
            KeyTable::Multi { table, .. } => table.groups(),
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            KeyTable::Int { table, .. } => table.bytes(),
            KeyTable::Multi { table, .. } => table.bytes(),
        }
    }

    /// Moves the group keys out in gid order — the integer columns as
    /// normalized `i64` in `keyscratch` order, the string columns in
    /// `str_cols` order — leaving the table empty.
    fn take_keys(&mut self) -> (Vec<Vec<i64>>, Vec<StrVec>) {
        match self {
            KeyTable::Int { table, .. } => (vec![table.take_keys()], Vec::new()),
            KeyTable::Multi { table, .. } => table.take_keys(),
        }
    }
}

/// An integer group-key column at its declared type (`I16`, `I32`, else
/// `I64`), narrowed from the table's normalized `i64` keys. Each key was
/// read from a column of that type, so one out of range is a typed error,
/// never a silent wrap.
fn narrow_keys(ty: DataType, keys: Vec<i64>) -> Result<Vector, ExecError> {
    fn narrow<T: TryFrom<i64>>(keys: &[i64], ty: DataType) -> Result<Vec<T>, ExecError> {
        keys.iter()
            .map(|&k| {
                T::try_from(k).map_err(|_| {
                    ExecError::Plan(format!("group key {k} does not fit its type {ty}"))
                })
            })
            .collect()
    }
    Ok(match ty {
        DataType::I16 => Vector::I16(narrow(&keys, ty)?),
        DataType::I32 => Vector::I32(narrow(&keys, ty)?),
        _ => Vector::I64(keys),
    })
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
    /// Number of group-key columns: the first `keys` output columns.
    keys: usize,
    hash_steps: Vec<HashStep>,
    key_table: KeyTable,
    accs: Vec<AccBuf>,
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
            let op = if k == 0 { "hash" } else { "rehash" };
            hash_steps.push(if in_types[c] == DataType::Str {
                str_cols.push(c);
                let sig = format!("map_{op}_str_col");
                let inst = ctx.instance(&sig, format!("{label}/map_{op}_str"), HeurKind::None)?;
                HashStep::Str(inst, c)
            } else {
                int_slots += 1;
                let sig = format!("map_{op}_i64_col");
                let inst = ctx.instance(&sig, format!("{label}/map_{op}"), HeurKind::None)?;
                HashStep::Int(inst, c, int_slots - 1)
            });
        }

        // Group table choice.
        let key_table = if str_cols.is_empty() && int_slots == 1 {
            KeyTable::Int {
                table: GroupTable::new(),
                insert: ctx.instance(
                    "hash_insertcheck_u64_col",
                    format!("{label}/insertcheck_u64"),
                    HeurKind::None,
                )?,
            }
        } else {
            KeyTable::Multi {
                table: MultiGroupTable::new(int_slots, str_cols.len()),
                insert: ctx.instance(
                    "hash_insertcheck_multi_col",
                    format!("{label}/insertcheck_multi"),
                    HeurKind::None,
                )?,
                str_cols,
            }
        };

        let accs = specs
            .iter()
            .map(|&s| AccBuf::create(s, ctx, label))
            .collect::<Result<Vec<_>, _>>()?;

        let mut types: Vec<DataType> = group_cols.iter().map(|&c| in_types[c]).collect();
        types.extend(specs.iter().map(AggSpec::out_type));

        Ok(HashAggregate {
            child,
            keys: group_cols.len(),
            hash_steps,
            key_table,
            accs,
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
    /// distinct-group bound: per-chunk group-table reserves never exceed
    /// the groups the bound still permits. Call before the first chunk is
    /// consumed.
    pub fn with_group_bound(mut self, bound: usize) -> Self {
        self.group_hint = Some(bound);
        self
    }

    /// Attaches a byte-accounting slot; the operator records its live
    /// table + accumulator bytes after every consumed chunk, and the
    /// table plus its output chunks at emission.
    pub fn with_tracker(mut self, tracker: crate::adaptive::MemTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Live resident bytes of the aggregation state (length-based).
    fn resident_bytes(&self) -> u64 {
        let accs = self
            .accs
            .iter()
            .fold(0u64, |a, b| a.saturating_add(b.bytes()));
        self.key_table.bytes().saturating_add(accs)
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
                HashStep::Int(inst, c, slot) => {
                    let keys = &mut self.keyscratch[*slot];
                    normalize_keys_i64(chunk.column(*c), keys);
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
                HashStep::Str(inst, c) => {
                    let keys = chunk.column(*c).as_str_vec();
                    inst.invoke(live, |f| f(hashes, keys, sel));
                }
            }
        }

        // 2. insertcheck (group-id assignment)
        let prev_groups = self.key_table.groups();
        let room = clamped_reserve(live as usize, prev_groups as usize, self.group_hint);
        let groups_now = match &mut self.key_table {
            KeyTable::Int { table, insert } => {
                let keys = &self.keyscratch[0];
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

        // 3. update accumulators
        for acc in &mut self.accs {
            acc.grow(groups_now as usize);
            acc.update(chunk, gids, sel, live);
        }

        if let Some(t) = &self.tracker {
            t.record(self.resident_bytes());
        }
        Ok(())
    }

    /// Reads the group keys back from the table at their declared types,
    /// appends the finished aggregates, and cuts the columns into output
    /// chunks — groups in gid (first-appearance) order.
    fn finalize(&mut self) -> Result<Vec<DataChunk>, ExecError> {
        let groups = self.key_table.groups() as usize;
        if groups == 0 {
            return Ok(Vec::new());
        }
        let table_bytes = self.key_table.bytes();
        let (ints, strs) = self.key_table.take_keys();
        let (mut ints, mut strs) = (ints.into_iter(), strs.into_iter());
        let mut cols = Vec::with_capacity(self.types.len());
        for &ty in &self.types[..self.keys] {
            let col = match ty {
                DataType::Str => strs.next().map(Vector::Str),
                _ => ints.next().map(|k| narrow_keys(ty, k)).transpose()?,
            };
            cols.push(col.ok_or_else(|| {
                ExecError::Plan("group table returned fewer key columns than declared".into())
            })?);
        }
        for mut acc in std::mem::take(&mut self.accs) {
            acc.grow(groups);
            cols.push(acc.finish());
        }
        let chunks = into_chunks(cols, groups, self.vector_size);
        if let Some(t) = &self.tracker {
            // Emission phase: the table's bytes (now moved into the
            // output columns) alongside the emitted chunks — the bound's
            // table and output terms.
            let out = chunks
                .iter()
                .fold(0u64, |a, c| a.saturating_add(chunk_bytes(c)));
            t.record(table_bytes.saturating_add(out));
        }
        Ok(chunks)
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<DataChunk>, ExecError> {
        if self.done.is_none() {
            while let Some(chunk) = self.child.next()? {
                self.consume_chunk(&chunk)?;
            }
            self.done = Some(self.finalize()?.into_iter());
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
    use ma_vector::{ColumnBuilder, Table};

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

    /// Groups a one-chunk-per-128-rows scan of `cols` by every column,
    /// counting rows, at `vector_size` 1024.
    fn group_by_all(cols: Vec<(&str, ma_vector::Column)>) -> Vec<DataChunk> {
        let mut cfg = ExecConfig::fixed_default();
        cfg.vector_size = 1024;
        let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
        let names: Vec<String> = cols.iter().map(|(n, _)| n.to_string()).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let keys = (0..cols.len()).collect();
        let cols = cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        let t = Arc::new(Table::new("t", cols).unwrap());
        let scan = Box::new(Scan::new(t, &names, 128).unwrap());
        let mut agg = HashAggregate::new(scan, keys, vec![AggSpec::CountStar], &ctx, "t").unwrap();
        collect(&mut agg).unwrap()
    }

    #[test]
    fn output_keys_keep_their_declared_type_and_value() {
        let i16s = [i16::MIN, -1, 0, i16::MAX];
        let i32s = [i32::MIN, -1, 0, i32::MAX];
        let i64s = [i64::MIN, -1, 0, i64::MAX];
        let strs = ["", "-1", "MED BOX", "ÿ"];
        let column = |ty: DataType, push: &dyn Fn(&mut ColumnBuilder, usize)| {
            let mut b = ColumnBuilder::with_capacity(ty, 400);
            // Each of the 4 values 100 times, first appearances in order.
            for i in 0..400 {
                push(&mut b, i % 4);
            }
            b.finish()
        };
        let a = || column(DataType::I16, &|b, i| b.push_i16(i16s[i]));
        let b = || column(DataType::I32, &|b, i| b.push_i32(i32s[i]));
        let c = || column(DataType::I64, &|b, i| b.push_i64(i64s[i]));
        let s = || column(DataType::Str, &|b, i| b.push_str(strs[i]));
        // Each type alone (one integer key: `GroupTable`; one string key:
        // the composite table), then all four as one composite key.
        for cols in [
            vec![("a", a())],
            vec![("b", b())],
            vec![("c", c())],
            vec![("s", s())],
            vec![("a", a()), ("b", b()), ("c", c()), ("s", s())],
        ] {
            let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
            let chunks = group_by_all(cols);
            assert_eq!(chunks.len(), 1);
            let ch = &chunks[0];
            assert_eq!(ch.len(), 4);
            for (k, name) in names.iter().enumerate() {
                let col = ch.column(k);
                match *name {
                    "a" => assert_eq!(col.as_i16(), i16s),
                    "b" => assert_eq!(col.as_i32(), i32s),
                    "c" => assert_eq!(col.as_i64(), i64s),
                    _ => assert_eq!(col.as_str_vec().iter().collect::<Vec<_>>(), strs),
                }
            }
            assert_eq!(ch.column(names.len()).as_i64(), [100; 4]);
        }
    }

    #[test]
    fn more_groups_than_vector_size_emit_full_chunks_in_gid_order() {
        // 2 500 distinct keys, first seen in a scrambled order, each twice.
        let n = 2_500;
        let key = |i: usize| ((i % n) * 7_919 % n) as i32;
        let mut k = ColumnBuilder::with_capacity(DataType::I32, 2 * n);
        let mut s = ColumnBuilder::with_capacity(DataType::Str, 2 * n);
        for i in 0..2 * n {
            k.push_i32(key(i));
            s.push_str(&format!("k{}", key(i)));
        }
        let (k, s) = (k.finish(), s.finish());
        for (cols, str_key) in [(vec![("k", k)], false), (vec![("s", s)], true)] {
            let chunks = group_by_all(cols);
            let sizes: Vec<usize> = chunks.iter().map(DataChunk::len).collect();
            assert_eq!(sizes, [1024, 1024, 452]);
            let mut i = 0;
            for ch in &chunks {
                assert!(ch.sel().is_none());
                for p in 0..ch.len() {
                    if str_key {
                        assert_eq!(ch.column(0).as_str_vec().get(p), format!("k{}", key(i)));
                    } else {
                        assert_eq!(ch.column(0).as_i32()[p], key(i));
                    }
                    assert_eq!(ch.column(1).as_i64()[p], 2);
                    i += 1;
                }
            }
            assert_eq!(i, n);
        }
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
