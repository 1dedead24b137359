//! Schema-aware logical plans and the physical planner.
//!
//! This module is the query-authoring API of the engine. Queries are
//! written against **named columns** with the fluent [`PlanBuilder`]
//! (`scan(...).filter(...).hash_agg(...).sort(...)`), which tracks a
//! [`Schema`] through every node and resolves names to positions at plan
//! *build* time — unknown columns and type mismatches come back as typed
//! [`PlanError`]s before any operator exists.
//!
//! The result is a [`LogicalPlan`]: a purely declarative operator tree
//! that knows nothing about threads, morsels or exchanges. The physical
//! planner, [`plan_physical`], makes every parallelism decision once and
//! records it in a [`PhysPlan`], which [`lower`] instantiates as a
//! [`crate::BoxOp`] pipeline (and which verify, cost and EXPLAIN read):
//!
//! * large scans under order-insensitive consumers are sharded into
//!   morsel-driven worker fragments united by a [`crate::ops::Parallel`]
//!   exchange;
//! * selections sitting directly on a scan are pushed *into* the scan
//!   fragments, so the paper's hot selection primitives parallelize with
//!   per-worker bandit state;
//! * pipelines feeding order-sensitive consumers (merge join) are safe
//!   **by construction**: the planner threads the required key down, and
//!   a chain whose key carries the table's clustering order shards into
//!   morsel fragments re-merged by a [`crate::ops::MergeExchange`] —
//!   anything else stays sequential. A query author can no longer wire an
//!   order-destroying exchange under a merge join by accident.
//!
//! [`LogicalPlan`] and [`PhysPlan`] implement [`std::fmt::Display`] as an
//! `EXPLAIN`-style indented tree with resolved schemas and the planner's
//! verdicts (see [`explain_physical`]).

pub(crate) mod builder;
mod error;
mod explain;
pub(crate) mod expr;
pub(crate) mod lower;
pub(crate) mod physical;

pub use builder::PlanBuilder;
pub use error::PlanError;
pub use explain::explain_physical;
pub use expr::{
    asc, col, count, desc, lit_f64, lit_i64, max_f64, max_i64, min_f64, min_i64, substr, sum_f64,
    sum_i64, Agg, NamedCmpRhs, NamedExpr, NamedPred, SortSpec,
};
pub use lower::lower;
pub use physical::{plan_physical, PhysKind, PhysLane, PhysPlan};

use std::sync::Arc;

use ma_vector::{Schema, Table};

use crate::expr::{Pred, Value};
use crate::ops::{AggSpec, JoinKind, ProjItem, SortKey};

/// A source of named tables for [`PlanBuilder::scan`].
pub trait Catalog {
    /// Looks up a table by name.
    fn lookup(&self, name: &str) -> Option<Arc<Table>>;

    /// The **exact** row count of a base table, or `None` when the table
    /// doesn't exist. This is the planner's cardinality anchor: scan
    /// nodes report it as their row estimate, so partitioning verdicts
    /// (`ExecConfig::agg_min_partition_groups`,
    /// `ExecConfig::join_min_partition_rows`) never over-trigger on small
    /// base tables. Implementations backed by materialized tables get it
    /// for free; a future disk-backed catalog must answer from metadata
    /// without loading the table.
    fn row_count(&self, name: &str) -> Option<usize> {
        self.lookup(name).map(|t| t.rows())
    }

    /// Exact statistics for one column of a base table (the abstract
    /// interpreter's base facts; see `crate::analyze`), or `None` when
    /// the table or column doesn't exist. The default computes (and
    /// memoizes) them from the materialized table; a metadata-backed
    /// catalog can answer from stored stats instead.
    fn column_stats(&self, table: &str, column: &str) -> Option<ma_vector::ColumnStats> {
        let t = self.lookup(table)?;
        let i = t.column_index(column).ok()?;
        Some(t.stats()[i].clone())
    }
}

/// A resolved logical operator tree.
///
/// Nodes carry positional indices (already resolved against their input's
/// [`Schema`]) plus the output schema, so lowering is mechanical and
/// rendering can map every index back to a name.
pub enum LogicalPlan {
    /// Read columns of a base table.
    Scan {
        /// The table scanned.
        table: Arc<Table>,
        /// Source column names, in output order (pre-alias).
        cols: Vec<String>,
        /// The catalog's exact row count for the table
        /// ([`Catalog::row_count`], captured at plan-build time): the
        /// cardinality anchor the physical planner's partitioning
        /// verdicts read (through the analyzer's row bounds).
        base_rows: usize,
        /// Output schema (post-alias names).
        schema: Schema,
    },
    /// Narrow the selection vector by a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved predicate.
        pred: Pred,
        /// Stats label for the primitive instances.
        label: String,
        /// Output schema (same columns as the input).
        schema: Schema,
    },
    /// Compute/pass columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Resolved projection items.
        items: Vec<ProjItem>,
        /// Stats label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Grouped hash aggregation.
    HashAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-key column indices.
        keys: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Stats label.
        label: String,
        /// Output schema: keys then aggregates.
        schema: Schema,
    },
    /// Ungrouped aggregation (one output row).
    StreamAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Stats label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Hash join; output = probe columns (++ build payload for
    /// inner/left-single).
    HashJoin {
        /// Build-side plan (materialized into the hash table).
        build: Box<LogicalPlan>,
        /// Probe-side plan (streamed).
        probe: Box<LogicalPlan>,
        /// Build key column indices.
        build_keys: Vec<usize>,
        /// Probe key column indices (aligned with `build_keys`).
        probe_keys: Vec<usize>,
        /// Build columns appended to the output.
        payload: Vec<usize>,
        /// Join semantics.
        kind: JoinKind,
        /// Bloom-filter probe acceleration.
        bloom: bool,
        /// Left-single default payload values (empty otherwise).
        defaults: Vec<Value>,
        /// Stats label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Merge join over key-sorted inputs; output = right columns ++ left
    /// payload. Both children are order-sensitive: the planner shards
    /// them behind a merging exchange when the key carries the table's
    /// clustering order, and keeps them sequential otherwise.
    MergeJoin {
        /// Left (unique-key) plan, materialized.
        left: Box<LogicalPlan>,
        /// Right (streaming) plan.
        right: Box<LogicalPlan>,
        /// Left key column index.
        left_key: usize,
        /// Right key column index.
        right_key: usize,
        /// Left columns appended to the output.
        payload: Vec<usize>,
        /// Stats label.
        label: String,
        /// Output schema.
        schema: Schema,
    },
    /// Sort (optionally truncated to a top-N).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, leftmost primary.
        keys: Vec<SortKey>,
        /// Optional row limit.
        limit: Option<usize>,
        /// Output schema (same columns as the input).
        schema: Schema,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Filter { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::HashAgg { schema, .. }
            | LogicalPlan::StreamAgg { schema, .. }
            | LogicalPlan::HashJoin { schema, .. }
            | LogicalPlan::MergeJoin { schema, .. }
            | LogicalPlan::Sort { schema, .. } => schema,
        }
    }

    /// The node's inputs: build before probe, left before right.
    pub(crate) fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::HashAgg { input, .. }
            | LogicalPlan::StreamAgg { input, .. }
            | LogicalPlan::Sort { input, .. } => vec![input],
            LogicalPlan::HashJoin { build, probe, .. } => vec![build, probe],
            LogicalPlan::MergeJoin { left, right, .. } => vec![left, right],
        }
    }
}

impl std::fmt::Debug for LogicalPlan {
    /// Debug output reuses the EXPLAIN rendering (the operator tree is
    /// the useful view; `Arc<Table>` contents are not).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self}")
    }
}

impl Catalog for std::collections::HashMap<String, Arc<Table>> {
    fn lookup(&self, name: &str) -> Option<Arc<Table>> {
        self.get(name).cloned()
    }

    fn row_count(&self, name: &str) -> Option<usize> {
        self.get(name).map(|t| t.rows())
    }
}
