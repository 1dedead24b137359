//! Static memory & cost bounds — the planner's second dataflow pass.
//!
//! Where [`mod@crate::analyze`] proves *value* facts (intervals, NDV,
//! expression safety), this pass proves *resource* facts: for every
//! physical operator instance the plan will lower to, an upper bound on
//! its peak resident bytes, plus a coarse work bound (tuples × per-op
//! cost). This module owns the formulas (`op_bounds`,
//! `exchange_bounds`); the physical planner
//! ([`crate::plan::plan_physical`]) stores their results on each
//! [`PhysPlan`] node, and [`cost()`] folds those nodes into one row each —
//! so the rows describe exactly the pipeline [`crate::plan::lower`]
//! builds, and a sharded chain inlined into a partition lane gets no
//! exchange row of its own.
//!
//! The byte model is deliberately conservative (DESIGN.md §12 states the
//! roll-up rules and the soundness argument):
//!
//! * per-column row widths come from base-table statistics
//!   ([`ma_vector::ColumnStats::max_bytes`]) and propagate structurally
//!   through the plan (string widths never grow: `substr` shrinks,
//!   aggregates emit 8-byte scalars);
//! * hash-aggregate tables are bounded from the analyzer's group bound
//!   (slot arrays at 50% load, the table's stored keys — column-wise,
//!   8 bytes per integer key and bytes plus a view per string key, unless
//!   the one integer key sits in the slot — accumulators, one emitted
//!   output copy);
//! * join builds from the build side's row bound (key columns, payload
//!   row store, hashes/heads/chain, Bloom filter);
//! * sorts from the input row bound (row store + index + one emitted
//!   copy);
//! * exchanges from channel depth × batch size × a chunk byte bound.
//!
//! The per-query peak is the *sum* of all per-operator stage bounds, as
//! if every operator held its maximum simultaneously — pessimistic, but
//! sound without liveness reasoning. `lower` hands each node's stored
//! bound to the operator's [`crate::adaptive::MemTracker`] slot (under
//! the same label as its row), and the
//! fuzzer's byte-accounting oracle re-checks `actual ≤ bound` on every
//! execution (`crate::fuzz`).
//!
//! Findings compare the roll-up against [`crate::ExecConfig::memory_budget`]:
//! warnings by default, a [`crate::verify::VerifyError::MemoryBudget`]
//! rejection under `strict_memory`.

use ma_primitives::BloomFilter;
use ma_vector::{Column, DataType, EncColumn, Encoding, Table};

use crate::analyze::RowBounds;
use crate::config::ExecConfig;
use crate::ops::exchange::{CHANNEL_DEPTH_PER_WORKER, CHUNKS_PER_MESSAGE};
use crate::ops::{AggSpec, ProjItem};
use crate::plan::{plan_physical, LogicalPlan, PhysPlan};

/// Saturation ceiling for quantities derived from saturated row bounds
/// (large enough to dwarf any real budget, small enough that downstream
/// saturating sums stay meaningful).
const SAT: u64 = u64::MAX >> 8;

// ---------------------------------------------------------------------------
// report types
// ---------------------------------------------------------------------------

/// Proven bounds for one physical operator stage.
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Stats label (or a synthesized name for label-less nodes).
    pub label: String,
    /// Operator kind, e.g. `"hash-agg"` or `"exchange"`.
    pub kind: &'static str,
    /// Parallel instances the planner will lower (partition verdict).
    pub instances: usize,
    /// Peak resident bytes proven for **one** instance.
    pub per_instance_bytes: u64,
    /// Stage total: `instances × per_instance_bytes` (each partition may
    /// in the worst case receive the whole input, so the per-instance
    /// figure is not divided).
    pub bytes: u64,
    /// Work bound: input tuples × a per-operator cost constant.
    pub work: u64,
}

/// A typed finding from the memory/cost pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostFinding {
    /// The whole-query peak-byte roll-up exceeds the configured budget.
    BudgetExceeded {
        /// Proven peak bytes for the query.
        peak_bytes: u64,
        /// The configured [`ExecConfig::memory_budget`].
        budget: u64,
    },
    /// A single operator stage alone exceeds the configured budget.
    OpBudgetExceeded {
        /// The offending stage's label.
        label: String,
        /// The stage's proven bytes.
        bytes: u64,
        /// The configured [`ExecConfig::memory_budget`].
        budget: u64,
    },
}

impl std::fmt::Display for CostFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostFinding::BudgetExceeded { peak_bytes, budget } => write!(
                f,
                "proven peak {} exceeds memory budget {}",
                fmt_bytes(*peak_bytes),
                fmt_bytes(*budget)
            ),
            CostFinding::OpBudgetExceeded {
                label,
                bytes,
                budget,
            } => write!(
                f,
                "operator `{label}` alone needs {} against memory budget {}",
                fmt_bytes(*bytes),
                fmt_bytes(*budget)
            ),
        }
    }
}

/// The full report: per-stage bounds, the roll-up, and findings.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Per-stage bounds, in physical-plan id order (top-down).
    pub ops: Vec<OpCost>,
    /// Whole-query peak-byte bound (sum of all stage bounds).
    pub peak_bytes: u64,
    /// Whole-query work bound.
    pub total_work: u64,
    /// Budget findings (empty when the plan fits the budget).
    pub findings: Vec<CostFinding>,
}

/// Runs the memory/cost pass over a logical plan under `cfg`.
pub fn cost(plan: &LogicalPlan, cfg: &ExecConfig) -> CostReport {
    cost_of(&plan_physical(plan, cfg), cfg)
}

/// Folds a physical plan's nodes, in id order, into per-stage rows and
/// checks the roll-up against `cfg`'s budget.
pub(crate) fn cost_of(phys: &PhysPlan<'_>, cfg: &ExecConfig) -> CostReport {
    let mut ops = Vec::new();
    phys.visit(&mut |p| {
        ops.push(OpCost {
            label: p.label.clone(),
            kind: p.kind.name(),
            instances: p.instances,
            per_instance_bytes: p.per_instance_bytes,
            bytes: p.per_instance_bytes.saturating_mul(p.instances as u64),
            work: p.work,
        });
    });
    let peak_bytes = ops.iter().fold(0u64, |a, o| a.saturating_add(o.bytes));
    let total_work = ops.iter().fold(0u64, |a, o| a.saturating_add(o.work));
    let mut findings = Vec::new();
    if peak_bytes > cfg.memory_budget {
        findings.push(CostFinding::BudgetExceeded {
            peak_bytes,
            budget: cfg.memory_budget,
        });
    }
    for o in &ops {
        if o.bytes > cfg.memory_budget {
            findings.push(CostFinding::OpBudgetExceeded {
                label: o.label.clone(),
                bytes: o.bytes,
                budget: cfg.memory_budget,
            });
        }
    }
    CostReport {
        ops,
        peak_bytes,
        total_work,
        findings,
    }
}

/// Renders a report as an aligned table (the `repro mem` / `repro
/// analyze` view).
pub fn render(report: &CostReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "peak bytes (proven): {}   work bound: {}",
        fmt_bytes(report.peak_bytes),
        report.total_work
    );
    for o in &report.ops {
        let _ = writeln!(
            out,
            "  {:<11} {:<28} x{:<2} {:>12}/inst {:>12} total",
            o.kind,
            o.label,
            o.instances,
            fmt_bytes(o.per_instance_bytes),
            fmt_bytes(o.bytes),
        );
    }
    if report.findings.is_empty() {
        let _ = writeln!(out, "  findings: none");
    } else {
        for fdg in &report.findings {
            let _ = writeln!(out, "  finding: {fdg}");
        }
    }
    out
}

/// Human-readable byte count (binary units, one decimal).
pub fn fmt_bytes(b: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if b >= SAT {
        "unbounded".to_string()
    } else if b >= GIB {
        format!("{:.1} GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.1} MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.1} KiB", b as f64 / KIB as f64)
    } else {
        format!("{b} B")
    }
}

// ---------------------------------------------------------------------------
// the cost-model partition verdict
// ---------------------------------------------------------------------------

/// Picks a partition count for a bound-triggered partitioned consumer:
/// enough partitions that each stays under `threshold` units of demand
/// (`ceil(demand / threshold)`), at least 2 (a single partition would be
/// the sequential plan), at most `cap` (the worker count). Explicit
/// `agg_partitions` / `join_partitions` knobs bypass this verdict.
pub(crate) fn pick_partitions(demand: usize, threshold: usize, cap: usize) -> usize {
    let per = threshold.max(1);
    let need = demand
        .checked_div(per)
        .unwrap_or(0)
        .saturating_add(usize::from(!demand.is_multiple_of(per)));
    need.clamp(2, cap.max(2))
}

// ---------------------------------------------------------------------------
// per-column row widths
// ---------------------------------------------------------------------------

/// Per-column stored row width in bytes for a node's output. Numeric
/// columns are their scalar width; `Str` columns are the widest value's
/// byte length plus an 8-byte view, anchored at scans by
/// [`ma_vector::ColumnStats::max_bytes`] and carried structurally.
fn col_widths(plan: &LogicalPlan) -> Vec<u64> {
    col_widths_with(plan, false)
}

/// [`col_widths`] as the *consumers of decoded vectors* see it: identical
/// except at scans of dictionary-coded `Str` columns, whose decoded form
/// is an 8-byte view into the shared dictionary arena (the scan never
/// re-materializes the string bytes), so their effective row width is 8
/// rather than `max_bytes + 8`. Integer codecs decode to full-width
/// values and keep their raw width. Used only to *weight partition
/// demand* (DESIGN.md §13); the soundness-critical byte bounds keep the
/// conservative raw widths.
fn enc_col_widths(plan: &LogicalPlan) -> Vec<u64> {
    col_widths_with(plan, true)
}

fn col_widths_with(plan: &LogicalPlan, enc: bool) -> Vec<u64> {
    match plan {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => cols
            .iter()
            .zip(schema.fields())
            .map(|(name, f)| match f.ty.fixed_width() {
                Some(w) => w as u64,
                None => {
                    let i = table
                        .column_index(name)
                        .expect("scan columns resolve at plan build time");
                    if enc && table.column_at(i).encoding() == Some(Encoding::Dict) {
                        8
                    } else {
                        (table.stats()[i].max_bytes as u64).saturating_add(8)
                    }
                }
            })
            .collect(),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Sort { input, .. } => {
            col_widths_with(input, enc)
        }
        LogicalPlan::Project {
            input,
            items,
            schema,
            ..
        } => {
            let w_in = col_widths_with(input, enc);
            // A computed Str expression (substr) never yields a longer
            // string than some input Str column.
            let max_str = input
                .schema()
                .fields()
                .iter()
                .zip(&w_in)
                .filter(|(f, _)| f.ty == DataType::Str)
                .map(|(_, &w)| w)
                .max()
                .unwrap_or(8);
            items
                .iter()
                .zip(schema.fields())
                .map(|(it, f)| match it {
                    ProjItem::Pass(i) => w_in[*i],
                    ProjItem::Expr(_) => match f.ty.fixed_width() {
                        Some(w) => w as u64,
                        None => max_str,
                    },
                })
                .collect()
        }
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => {
            let w_in = col_widths_with(input, enc);
            let mut w: Vec<u64> = keys.iter().map(|&k| w_in[k]).collect();
            w.extend((0..aggs.len()).map(|_| 8u64));
            w
        }
        LogicalPlan::StreamAgg { aggs, .. } => vec![8; aggs.len()],
        LogicalPlan::HashJoin {
            build,
            probe,
            payload,
            schema,
            ..
        } => {
            let mut w = col_widths_with(probe, enc);
            if schema.len() > w.len() {
                let w_b = col_widths_with(build, enc);
                w.extend(payload.iter().map(|&i| w_b[i]));
            }
            w
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            payload,
            ..
        } => {
            let mut w = col_widths_with(right, enc);
            let w_l = col_widths_with(left, enc);
            w.extend(payload.iter().map(|&i| w_l[i]));
            w
        }
    }
}

/// Total stored bytes of one row of a node's output.
fn row_width(plan: &LogicalPlan) -> u64 {
    col_widths(plan)
        .iter()
        .fold(0u64, |a, &b| a.saturating_add(b))
}

/// Scales a partition-verdict demand by the encoded/raw width ratio of
/// the columns the partitioned consumer holds (`cols`, or the whole row
/// when `None`): `ceil(demand × enc_width / raw_width)`. The partition
/// thresholds are calibrated in raw-width units, so when a consumer's
/// rows arrive dictionary-coded (8-byte views into a shared arena) the
/// same logical demand occupies proportionally fewer resident bytes and
/// the verdict discounts it. A no-op when nothing is dict-coded
/// (`enc == raw`). Verdict-only: the sound byte bounds stay raw.
pub(crate) fn enc_weighted_demand(
    demand: usize,
    plan: &LogicalPlan,
    cols: Option<&[usize]>,
) -> usize {
    let raw_w = col_widths(plan);
    let enc_w = enc_col_widths(plan);
    let sum = |w: &[u64]| -> u64 {
        match cols {
            Some(ks) => ks.iter().fold(0u64, |a, &k| a.saturating_add(w[k])),
            None => w.iter().fold(0u64, |a, &b| a.saturating_add(b)),
        }
    };
    let (raw, enc) = (sum(&raw_w), sum(&enc_w));
    if enc >= raw || raw == 0 {
        return demand;
    }
    let scaled = (demand.min(SAT as usize) as u128)
        .saturating_mul(u128::from(enc))
        .div_ceil(u128::from(raw));
    usize::try_from(scaled).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// per-operator bound helpers
// ---------------------------------------------------------------------------

/// Open-addressing capacity for `n` entries at 50% load with the group
/// tables' / join builds' growth policy: `next_pow2(2n)`, at least 64.
fn pow2_cap(n: usize) -> u64 {
    match n.saturating_mul(2).checked_next_power_of_two() {
        Some(c) => c.max(64) as u64,
        None => SAT,
    }
}

/// Peak resident bytes proven for **one** [`crate::ops::HashAggregate`]
/// instance over `input`: group-table slots (16 bytes each at ≤50%
/// load), the table's stored keys, accumulators (16 bytes for `SumI64`'s
/// 128-bit sums, 8 otherwise), plus one emitted output copy. The table is
/// the only holder of the keys until emission, when they move into the
/// output columns. The stored keys follow the table the operator picks:
/// none for one integer key (the slot holds it), otherwise the composite
/// table's column-wise layout — 8 bytes per integer key (normalized to
/// `i64`) and, per string key, its bytes plus an 8-byte view. All terms
/// scale with the analyzer's group bound `g`, which every partition may
/// in the worst case receive entirely.
fn agg_instance_bound(g: usize, input: &LogicalPlan, keys: &[usize], aggs: &[AggSpec]) -> u64 {
    let g64 = g.min(usize::MAX >> 8) as u64;
    let w_in = col_widths(input);
    let single_int = keys.len() == 1 && input.schema().fields()[keys[0]].ty != DataType::Str;
    // Stored key bytes per group; a `Str` width already counts the
    // widest value plus its 8-byte view.
    let stored: u64 = if single_int {
        0
    } else {
        keys.iter().fold(0u64, |a, &k| {
            a.saturating_add(match input.schema().fields()[k].ty {
                DataType::Str => w_in[k],
                _ => 8,
            })
        })
    };
    let table = pow2_cap(g)
        .saturating_mul(16)
        .saturating_add(g64.saturating_mul(stored));
    let accs = aggs.iter().fold(0u64, |a, s| {
        let w = if matches!(s, AggSpec::SumI64(_)) {
            16
        } else {
            8
        };
        a.saturating_add(g64.saturating_mul(w))
    });
    let out_row_w = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(w_in[k]))
        .saturating_add(8u64.saturating_mul(aggs.len() as u64));
    table
        .saturating_add(accs)
        .saturating_add(g64.saturating_mul(out_row_w))
}

/// Peak resident bytes proven for **one** [`crate::ops::HashJoin`]
/// instance's build side holding up to the build plan's row bound `r`: key
/// columns (8 bytes per key per row), the payload row store, and the
/// `finish` structures (row hashes, chain, head slots, Bloom filter).
fn join_build_bound(r: usize, build: &LogicalPlan, build_keys: &[usize], payload: &[usize]) -> u64 {
    let r64 = r.min(usize::MAX >> 8) as u64;
    let w_b = col_widths(build);
    let pay_w = payload.iter().fold(0u64, |a, &i| a.saturating_add(w_b[i]));
    let keys = r64
        .saturating_mul(8)
        .saturating_mul(build_keys.len() as u64);
    let store = r64.saturating_mul(pay_w);
    let hashes = r64.saturating_mul(8);
    let chain = r64.saturating_mul(4);
    let heads = pow2_cap(r).saturating_mul(4);
    let bloom = if r >= (1usize << 48) {
        SAT
    } else {
        BloomFilter::bytes_for_keys(r) as u64
    };
    keys.saturating_add(store)
        .saturating_add(hashes)
        .saturating_add(chain)
        .saturating_add(heads)
        .saturating_add(bloom)
}

/// Peak resident bytes proven for a [`crate::ops::Sort`] over `input`
/// (row bound `rows`): the materialized row store, the 4-byte sort index, and one emitted
/// copy of the output chunks.
fn sort_bound(rows: usize, input: &LogicalPlan) -> u64 {
    let n = rows.min(usize::MAX >> 8) as u64;
    let w = row_width(input);
    n.saturating_mul(w)
        .saturating_mul(2)
        .saturating_add(n.saturating_mul(4))
}

/// Byte bound for a single exchanged chunk of `plan`'s output: at most
/// `vector_size` rows of the node's row width. This is the bound the
/// exchange operators' [`crate::adaptive::MemTracker`] slots carry.
pub(crate) fn chunk_bound(plan: &LogicalPlan, vector_size: usize) -> u64 {
    (vector_size as u64).saturating_mul(row_width(plan))
}

/// Chunk byte bound for a hash aggregate's *output* stream (group keys
/// plus 8-byte aggregate scalars): the partitioned-agg exchange's union
/// carries these alongside the producers' input chunks.
fn agg_out_chunk_bound(
    input: &LogicalPlan,
    keys: &[usize],
    aggs: &[AggSpec],
    vector_size: usize,
) -> u64 {
    let w_in = col_widths(input);
    let out_w = keys
        .iter()
        .fold(0u64, |a, &k| a.saturating_add(w_in[k]))
        .saturating_add(8u64.saturating_mul(aggs.len() as u64));
    (vector_size as u64).saturating_mul(out_w)
}

/// Stage bound for an exchange's channel buffers: every channel holds up
/// to [`CHANNEL_DEPTH_PER_WORKER`] messages per producer plus one
/// in-flight batch, each message up to [`CHUNKS_PER_MESSAGE`] chunks,
/// and the consumer union adds the same per partition.
fn exchange_bytes(producers: usize, partitions: usize, chunk: u64) -> u64 {
    let msgs_per_route = (CHANNEL_DEPTH_PER_WORKER as u64).saturating_add(1);
    let routed = (producers as u64)
        .saturating_mul(partitions as u64)
        .saturating_mul(msgs_per_route);
    let union = (partitions as u64).saturating_mul(msgs_per_route);
    routed
        .saturating_add(union)
        .saturating_mul(CHUNKS_PER_MESSAGE as u64)
        .saturating_mul(chunk)
}

// ---------------------------------------------------------------------------
// per-node bounds (read by `plan::physical`)
// ---------------------------------------------------------------------------

/// Work-bound cost constants (per input tuple).
const W_SCAN: u64 = 1;
const W_FILTER: u64 = 1;
const W_PROJECT: u64 = 2;
const W_AGG: u64 = 4;
const W_JOIN_BUILD: u64 = 3;
const W_JOIN_PROBE: u64 = 2;
const W_EXCHANGE: u64 = 1;

fn tuples(bounds: &RowBounds<'_>, plan: &LogicalPlan) -> u64 {
    bounds.rows(plan).min(usize::MAX >> 8) as u64
}

/// Resident bytes a scan stage holds: the *stored* representation of the
/// scanned columns (the packed words + metadata for encoded columns, the
/// raw vectors/arena otherwise — [`ma_vector::table::Column::resident_bytes`])
/// plus one vector's worth of decode scratch per encoded column (the
/// decoded output vector the flavored decode kernels fill). This is the
/// term the `repro compress` experiment compares across storage modes:
/// encoding shrinks the stored bytes while adding only `vector_size ×
/// decoded-width` scratch.
fn scan_resident_bytes(table: &Table, cols: &[String], vector_size: usize) -> u64 {
    cols.iter().fold(0u64, |acc, name| {
        let i = table
            .column_index(name)
            .expect("scan columns resolve at plan build time");
        let col = table.column_at(i);
        let mut b = col.resident_bytes() as u64;
        if let Column::Enc(e) = col {
            // Decoded element width: full-width values for the integer
            // codecs, an 8-byte view + 4-byte code for dictionary strings.
            let w = match &**e {
                EncColumn::For(c) => c.dt.fixed_width().unwrap_or(8) as u64,
                EncColumn::Delta(_) => 4,
                EncColumn::Dict(_) => 12,
            };
            b = b.saturating_add((vector_size as u64).saturating_mul(w));
        }
        acc.saturating_add(b)
    })
}

/// Proven `(per-instance bytes, work)` of the operator `plan` lowers to.
pub(crate) fn op_bounds(
    bounds: &RowBounds<'_>,
    plan: &LogicalPlan,
    vector_size: usize,
) -> (u64, u64) {
    match plan {
        LogicalPlan::Scan { table, cols, .. } => (
            scan_resident_bytes(table, cols, vector_size),
            tuples(bounds, plan).saturating_mul(W_SCAN),
        ),
        LogicalPlan::Filter { input, .. } => (0, tuples(bounds, input).saturating_mul(W_FILTER)),
        LogicalPlan::Project { input, .. } => (0, tuples(bounds, input).saturating_mul(W_PROJECT)),
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => (
            agg_instance_bound(bounds.rows(plan), input, keys, aggs),
            tuples(bounds, input).saturating_mul(W_AGG),
        ),
        // Scalar accumulators only; not facade-tracked (MEM_EXEMPT).
        LogicalPlan::StreamAgg { input, aggs, .. } => (
            16u64.saturating_mul(aggs.len() as u64),
            tuples(bounds, input).saturating_mul(W_AGG),
        ),
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            payload,
            ..
        } => (
            join_build_bound(bounds.rows(build), build, build_keys, payload),
            tuples(bounds, build)
                .saturating_mul(W_JOIN_BUILD)
                .saturating_add(tuples(bounds, probe).saturating_mul(W_JOIN_PROBE)),
        ),
        LogicalPlan::MergeJoin {
            left,
            right,
            payload,
            ..
        } => {
            // The left (unique-key) side is materialized; merge join is
            // not facade-tracked (MEM_EXEMPT) but the bound still counts
            // its store plus an emitted copy, like a sort without index.
            let n = tuples(bounds, left);
            let w_l = col_widths(left);
            let pay_w = payload
                .iter()
                .fold(row_width(left), |a, &i| a.saturating_add(w_l[i]));
            let work = n
                .saturating_mul(W_JOIN_BUILD)
                .saturating_add(tuples(bounds, right).saturating_mul(W_JOIN_PROBE));
            (n.saturating_mul(pay_w).saturating_mul(2), work)
        }
        LogicalPlan::Sort { input, .. } => {
            let n = tuples(bounds, input);
            let logn = if n <= 1 {
                1
            } else {
                u64::from(n.ilog2()).saturating_add(1)
            };
            (
                sort_bound(bounds.rows(input), input),
                n.saturating_mul(logn),
            )
        }
    }
}

/// Proven `(per-instance bytes, work)` of the exchange in front of
/// `plan`: for an aggregate or join, the partition exchange routing its
/// inputs to `partitions` consumers (a join's two lanes share the
/// formula); otherwise the morsel exchange over the scan chain `plan`
/// (the Parallel-shaped bound also covers a merging exchange).
pub(crate) fn exchange_bounds(
    bounds: &RowBounds<'_>,
    plan: &LogicalPlan,
    producers: usize,
    partitions: usize,
    vector_size: usize,
) -> (u64, u64) {
    match plan {
        LogicalPlan::HashAgg { input, .. } => (
            exchange_bytes(producers, partitions, exchange_chunk(plan, vector_size)),
            tuples(bounds, input).saturating_mul(W_EXCHANGE),
        ),
        LogicalPlan::HashJoin { probe, .. } => (
            exchange_bytes(producers, partitions, exchange_chunk(plan, vector_size))
                .saturating_mul(2),
            tuples(bounds, probe).saturating_mul(W_EXCHANGE),
        ),
        _ => (
            exchange_bytes(producers, partitions, chunk_bound(plan, vector_size)),
            tuples(bounds, plan).saturating_mul(W_EXCHANGE),
        ),
    }
}

/// Byte bound of one chunk crossing the exchange in front of `plan` (the
/// exchange's [`crate::adaptive::MemTracker`] bound): a partitioned
/// aggregate's union carries its output chunks alongside the producers'
/// input chunks; a partitioned join's lanes carry either side's chunks
/// and its union the join's output.
pub(crate) fn exchange_chunk(plan: &LogicalPlan, vector_size: usize) -> u64 {
    match plan {
        LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } => {
            chunk_bound(input, vector_size).max(agg_out_chunk_bound(input, keys, aggs, vector_size))
        }
        LogicalPlan::HashJoin { build, probe, .. } => chunk_bound(build, vector_size)
            .max(chunk_bound(probe, vector_size))
            .max(chunk_bound(plan, vector_size)),
        _ => chunk_bound(plan, vector_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JoinKind;
    use crate::plan::{count, sum_i64, Catalog, PlanBuilder};
    use ma_vector::{ColumnBuilder, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut id = ColumnBuilder::with_capacity(ma_vector::DataType::I64, rows);
        let mut k = ColumnBuilder::with_capacity(ma_vector::DataType::I32, rows);
        let mut s = ColumnBuilder::with_capacity(ma_vector::DataType::Str, rows);
        for i in 0..rows {
            id.push_i64(i as i64);
            k.push_i32((i % 5) as i32);
            s.push_str(if i % 2 == 0 { "even" } else { "odd-row" });
        }
        let t = Table::new(
            "t",
            vec![
                ("id".into(), id.finish()),
                ("k".into(), k.finish()),
                ("s".into(), s.finish()),
            ],
        )
        .unwrap();
        let mut d_k = ColumnBuilder::with_capacity(ma_vector::DataType::I32, 3);
        let mut d_v = ColumnBuilder::with_capacity(ma_vector::DataType::I64, 3);
        for i in 0..3 {
            d_k.push_i32(i);
            d_v.push_i64(i64::from(i) * 100);
        }
        let d = Table::new(
            "d",
            vec![("dk".into(), d_k.finish()), ("dv".into(), d_v.finish())],
        )
        .unwrap();
        let mut m = HashMap::new();
        m.insert("t".to_string(), Arc::new(t));
        m.insert("d".to_string(), Arc::new(d));
        m
    }

    fn agg_plan(cat: &dyn Catalog) -> LogicalPlan {
        PlanBuilder::scan(cat, "t", &["id", "k"])
            .hash_agg(&["k"], vec![sum_i64("id")], "agg")
            .build()
            .unwrap()
    }

    #[test]
    fn pick_partitions_scales_with_demand() {
        // at the engagement threshold exactly: one partition's worth of
        // demand, clamped up to the minimum parallel plan
        assert_eq!(pick_partitions(1000, 1000, 4), 2);
        assert_eq!(pick_partitions(1001, 1000, 4), 2);
        assert_eq!(pick_partitions(3500, 1000, 4), 4);
        // demand beyond the worker cap clamps down
        assert_eq!(pick_partitions(90_000, 1000, 4), 4);
        assert_eq!(pick_partitions(usize::MAX, 0, 8), 8);
    }

    #[test]
    fn scan_widths_anchor_at_stats() {
        let cat = catalog(10);
        let plan = PlanBuilder::scan(&cat, "t", &["id", "k", "s"])
            .build()
            .unwrap();
        // i64=8, i32=4, Str = longest ("odd-row"=7) + 8-byte view
        assert_eq!(col_widths(&plan), vec![8, 4, 15]);
        assert_eq!(row_width(&plan), 27);
    }

    #[test]
    fn agg_bound_is_finite_and_covers_table_floor() {
        let cat = catalog(100);
        let plan = agg_plan(&cat);
        let LogicalPlan::HashAgg {
            input, keys, aggs, ..
        } = &plan
        else {
            panic!("expected agg root")
        };
        let b = agg_instance_bound(RowBounds::of(&plan).rows(&plan), input, keys, aggs);
        // 5 groups: 64-slot floor (1024 B) + accs + output
        assert!(b >= 1024, "bound {b} below the slot-array floor");
        assert!(b < 16 << 10, "bound {b} implausibly large for 5 groups");
    }

    #[test]
    fn agg_exchange_buffers_cover_output_width_chunks() {
        // An i16 key counted: 2-byte rows in, 2 + 8 = 10-byte rows out.
        // The partition exchange's union buffers the output chunks, so
        // its stage bound is sized by the wider of the two.
        let mut k = ColumnBuilder::with_capacity(ma_vector::DataType::I16, 100);
        for i in 0..100 {
            k.push_i16(i % 7);
        }
        let t = Table::new("n", vec![("k".into(), k.finish())]).unwrap();
        let cat = HashMap::from([("n".to_string(), Arc::new(t))]);
        let plan = PlanBuilder::scan(&cat, "n", &["k"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let LogicalPlan::HashAgg { input, .. } = &plan else {
            panic!("expected agg root")
        };
        assert_eq!(chunk_bound(input, 1024), 2 * 1024);
        assert_eq!(exchange_chunk(&plan, 1024), 10 * 1024);
        let (bytes, _) = exchange_bounds(&RowBounds::of(&plan), &plan, 2, 2, 1024);
        assert_eq!(bytes, exchange_bytes(2, 2, 10 * 1024));
    }

    #[test]
    fn report_has_no_findings_under_default_budget() {
        let cat = catalog(1000);
        let plan = agg_plan(&cat);
        let report = cost(&plan, &ExecConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.peak_bytes > 0);
        assert!(report.total_work > 0);
        assert!(report.ops.iter().any(|o| o.kind == "hash-agg"));
    }

    #[test]
    fn tiny_budget_yields_typed_findings() {
        let cat = catalog(1000);
        let plan = agg_plan(&cat);
        let cfg = ExecConfig::default().with_memory_budget(16);
        let report = cost(&plan, &cfg);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, CostFinding::BudgetExceeded { .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, CostFinding::OpBudgetExceeded { .. })));
        let rendered = render(&report);
        assert!(rendered.contains("finding:"), "{rendered}");
    }

    #[test]
    fn sort_bound_doubles_the_store() {
        let cat = catalog(100);
        let plan = PlanBuilder::scan(&cat, "t", &["id"]).build().unwrap();
        // 100 rows × 8 B × 2 copies + 4 B index
        assert_eq!(
            sort_bound(RowBounds::of(&plan).rows(&plan), &plan),
            100 * 8 * 2 + 100 * 4
        );
    }

    #[test]
    fn join_bound_scales_with_build_rows() {
        let cat = catalog(1000);
        let plan = PlanBuilder::scan(&cat, "t", &["k", "id"])
            .hash_join(
                PlanBuilder::scan(&cat, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &["dv"],
                JoinKind::Inner,
                true,
                "j",
            )
            .build()
            .unwrap();
        let LogicalPlan::HashJoin {
            build,
            build_keys,
            payload,
            ..
        } = &plan
        else {
            panic!("expected join root")
        };
        let b = join_build_bound(RowBounds::of(&plan).rows(build), build, build_keys, payload);
        // 3 build rows: 64-head floor (256 B) + bloom floor dominate
        assert!(b >= 256, "bound {b} below the head-array floor");
        let report = cost(&plan, &ExecConfig::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.ops.iter().any(|o| o.kind == "hash-join"));
    }
}
