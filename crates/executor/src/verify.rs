//! Plan-invariant verifier.
//!
//! [`lower`](crate::plan::lower) *relies on* a set of invariants when it
//! turns a [`LogicalPlan`] into a physical pipeline: schemas stay
//! consistent node to node, merge joins only ever see provably key-sorted
//! inputs, order-destroying exchanges never end up under order-sensitive
//! ancestors, partitioned exchanges route both lanes with agreeing keys,
//! and every primitive-instantiating node carries a unique stats label.
//! This module checks them in two phases:
//!
//! 1. **Logical walk** ([`verify`], first phase): re-derives every node's
//!    output schema bottom-up from expression/aggregate/join typing rules
//!    and compares it against the schema the node declares; re-proves
//!    merge-join input sortedness structurally; enforces stats-label
//!    uniqueness across instantiating nodes; rejects float partition
//!    keys with a typed error instead of a worker-thread panic. It
//!    re-derives types and schemas instead of trusting what the builder
//!    declared, so it catches builder bugs.
//! 2. **Physical plan** ([`verify_physical`]): walks the [`PhysPlan`]
//!    that [`plan_physical`](crate::plan::plan_physical) builds — the
//!    very plan `lower` instantiates — with an ordered-context flag and
//!    checks the exchange-placement rules: no [`PhysKind::Parallel`] or
//!    [`PhysKind::HashPartition`] under a merge join without a
//!    materialization boundary (sort, aggregate, join build) in between,
//!    lanes agree on key count/class and partition count, no zero-lane
//!    consumers, no empty producer sets, merge keys are single integers.
//!
//! In debug builds [`lower`](crate::plan::lower()) runs [`verify`] on
//! every plan before lowering it, so any test executing a query exercises
//! the verifier for free. Release builds skip it (the checks are pure
//! overhead once a plan shape is proven); CI runs the standalone matrix
//! sweep in `crates/tpch/tests/verify_matrix.rs` across all 22 queries ×
//! worker/partition/vector-size configurations.

use std::collections::HashSet;

use ma_vector::{DataType, Schema};

use crate::analyze::{AnalysisError, RowBounds};
use crate::config::ExecConfig;
use crate::expr::{CmpRhs, Expr, Pred};
use crate::ops::{AggSpec, JoinKind, ProjItem};
use crate::plan::builder::clustered_key_chain;
use crate::plan::physical::plan_with;
use crate::plan::{LogicalPlan, PhysKind, PhysPlan};

/// A plan invariant violation found by [`verify`] or [`verify_physical`].
///
/// Every variant names one distinct way a plan can be ill-formed, so
/// tests can assert the *specific* failure and error messages can say
/// precisely what to fix.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A node referenced a column index outside its input's arity.
    ColumnOutOfRange {
        /// Which node/field referenced the column.
        context: String,
        /// The offending index.
        col: usize,
        /// The input arity it was resolved against.
        arity: usize,
    },
    /// A scan listed a source column its table does not have.
    UnknownScanColumn {
        /// The missing source column name.
        col: String,
    },
    /// A column or expression had the wrong type for its role.
    TypeMismatch {
        /// Which node/field was being checked.
        context: String,
        /// The type the role requires.
        expected: String,
        /// The type actually derived.
        found: DataType,
    },
    /// A node's declared output schema disagrees with the schema the
    /// verifier re-derived from its inputs.
    SchemaMismatch {
        /// Which node was being checked.
        context: String,
        /// The type list the node declares.
        declared: String,
        /// The type list the verifier derived.
        derived: String,
    },
    /// Two primitive-instantiating nodes in one plan share a stats
    /// label, which would silently merge their adaptive statistics.
    DuplicateLabel {
        /// The colliding label.
        label: String,
    },
    /// A merge-join input is not provably sorted by the join key
    /// (neither a clustering-key chain nor a matching ascending sort).
    UnsortedMergeInput {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The join key column on that side.
        key: usize,
    },
    /// A merge-join input is sorted by the join key but *descending* —
    /// the merge scans ascending and would drop matches.
    DescendingMergeKey {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The join key column on that side.
        key: usize,
    },
    /// A merging exchange was given a composite key; the K-way merge
    /// compares a single column.
    CompositeMergeKey {
        /// Number of key columns found.
        keys: usize,
    },
    /// A merging exchange key is not an integer column.
    NonIntegerMergeKey {
        /// The key's type.
        ty: DataType,
    },
    /// An `f64` column used as a hash-partitioning or join/group key
    /// (float keys don't hash portably and are rejected up front).
    FloatPartitionKey {
        /// Which key of which node.
        context: String,
    },
    /// Two aligned key/value lists have different lengths.
    KeyCountMismatch {
        /// Which node/field pair was being checked.
        context: String,
        /// Length of the first list.
        left: usize,
        /// Length of the second list.
        right: usize,
    },
    /// An order-destroying exchange sits under an order-sensitive
    /// ancestor without a materialization boundary in between.
    OrderViolation {
        /// The offending exchange (`"Parallel"` or `"HashPartition"`).
        node: &'static str,
    },
    /// Two lanes of one partitioned exchange disagree on a key type
    /// class (after i32/i16 → i64 normalization).
    LaneKeyTypeMismatch {
        /// Index of the disagreeing lane.
        lane: usize,
        /// Key position within the lane.
        pos: usize,
        /// Type class lane 0 routes with.
        expected: DataType,
        /// Type class the disagreeing lane routes with.
        found: DataType,
    },
    /// A lane routes to a different partition count than the exchange's
    /// consumers expect — tuples would be dropped or misrouted.
    PartitionCountMismatch {
        /// Index of the disagreeing lane.
        lane: usize,
        /// The exchange's consumer partition count.
        expected: usize,
        /// The lane's partition count.
        found: usize,
    },
    /// A partitioned exchange with no lanes: its consumers would be fed
    /// by nothing and hang at teardown.
    ZeroLaneConsumer,
    /// A lane with an empty producer set: the partition channels would
    /// close immediately and silently emit nothing.
    EmptyLane {
        /// Index of the empty lane.
        lane: usize,
    },
    /// An exchange with zero workers/partitions.
    EmptyExchange {
        /// The offending exchange.
        node: &'static str,
    },
    /// The abstract interpreter (phase 3, [`mod@crate::analyze`]) proved a
    /// runtime trap reachable — e.g. an integer division whose divisor
    /// interval contains zero.
    Analysis {
        /// The underlying hazard finding.
        err: crate::analyze::AnalysisError,
    },
    /// The memory/cost pass (phase 4, [`mod@crate::cost`]) proved the
    /// plan's peak resident bytes exceed the configured budget, and
    /// [`crate::ExecConfig::strict_memory`] promotes that finding from a
    /// warning to a rejection.
    MemoryBudget {
        /// Proven whole-query peak bytes.
        peak_bytes: u64,
        /// The configured [`crate::ExecConfig::memory_budget`].
        budget: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ColumnOutOfRange {
                context,
                col,
                arity,
            } => {
                write!(f, "{context}: column {col} out of range (arity {arity})")
            }
            VerifyError::UnknownScanColumn { col } => {
                write!(f, "scan references column {col} absent from its table")
            }
            VerifyError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            VerifyError::SchemaMismatch {
                context,
                declared,
                derived,
            } => write!(
                f,
                "{context}: declared schema {declared} but derived {derived}"
            ),
            VerifyError::DuplicateLabel { label } => write!(
                f,
                "stats label {label:?} used by more than one primitive-instantiating \
                 node; their adaptive statistics would merge silently"
            ),
            VerifyError::UnsortedMergeInput { side, key } => write!(
                f,
                "{side} merge-join input is not provably sorted by join key column {key}"
            ),
            VerifyError::DescendingMergeKey { side, key } => write!(
                f,
                "{side} merge-join input sorts key column {key} descending; the merge \
                 scans ascending"
            ),
            VerifyError::CompositeMergeKey { keys } => write!(
                f,
                "merging exchange given {keys} key columns; the K-way merge compares \
                 exactly one"
            ),
            VerifyError::NonIntegerMergeKey { ty } => {
                write!(
                    f,
                    "merging exchange key must be an integer column, found {ty}"
                )
            }
            VerifyError::FloatPartitionKey { context } => write!(
                f,
                "{context}: f64 is not a hashable partition key (use an integer or \
                 string column)"
            ),
            VerifyError::KeyCountMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "{context}: {left} vs {right} entries")
            }
            VerifyError::OrderViolation { node } => write!(
                f,
                "{node} exchange under an order-sensitive ancestor would interleave \
                 its outputs in arrival order"
            ),
            VerifyError::LaneKeyTypeMismatch {
                lane,
                pos,
                expected,
                found,
            } => write!(
                f,
                "partition lane {lane} key {pos} routes by {found} while lane 0 \
                 routes by {expected}; equal keys would hash to different partitions"
            ),
            VerifyError::PartitionCountMismatch {
                lane,
                expected,
                found,
            } => write!(
                f,
                "partition lane {lane} routes to {found} partitions but the exchange \
                 has {expected} consumers"
            ),
            VerifyError::ZeroLaneConsumer => {
                write!(
                    f,
                    "partitioned exchange with zero lanes feeds its consumers nothing"
                )
            }
            VerifyError::EmptyLane { lane } => {
                write!(f, "partition lane {lane} has an empty producer set")
            }
            VerifyError::EmptyExchange { node } => {
                write!(f, "{node} exchange with zero workers/partitions")
            }
            VerifyError::Analysis { err } => write!(f, "analysis: {err}"),
            VerifyError::MemoryBudget { peak_bytes, budget } => write!(
                f,
                "proven peak of {peak_bytes} resident bytes exceeds the {budget}-byte \
                 memory budget (strict_memory)"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every invariant of `plan` that [`crate::lower`] relies on:
/// the logical walk (schemas, types, labels, merge-input sortedness),
/// then [`verify_physical`] over the plan
/// [`plan_physical`](crate::plan::plan_physical) builds for `cfg` — the
/// one `lower` will instantiate. `Ok(())` means the plan is safe to lower
/// under `cfg`.
pub fn verify(plan: &LogicalPlan, cfg: &ExecConfig) -> Result<(), VerifyError> {
    let mut labels = HashSet::new();
    check_plan(plan, &mut labels)?;
    // One analysis pass feeds both the planner's bounds and phase 3.
    let (bounds, findings) = RowBounds::with_findings(plan);
    let phys = plan_with(plan, cfg, bounds);
    verify_physical(&phys)?;
    // Phase 3: abstract interpretation. Only *hazards* (reachable traps)
    // fail verification; warnings (possible wraps, checked-panic sum
    // bounds, contradictions) are reported by `crate::analyze::analyze`
    // and the `repro analyze` CLI instead — see
    // `AnalysisError::is_hazard` for the rationale.
    if let Some(err) = findings.into_iter().find(AnalysisError::is_hazard) {
        return Err(VerifyError::Analysis { err });
    }
    // Phase 4: memory/cost bounds. Budget findings are warnings by
    // default (surfaced by `repro analyze` / `repro mem`); under
    // `strict_memory` a plan whose proven peak exceeds the budget is
    // rejected before any operator allocates.
    if cfg.strict_memory {
        let report = crate::cost::cost_of(&phys, cfg);
        if report.peak_bytes > cfg.memory_budget {
            return Err(VerifyError::MemoryBudget {
                peak_bytes: report.peak_bytes,
                budget: cfg.memory_budget,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// phase 1: the logical walk
// ---------------------------------------------------------------------------

fn is_integer(ty: DataType) -> bool {
    matches!(ty, DataType::I16 | DataType::I32 | DataType::I64)
}

fn fmt_types(types: &[DataType]) -> String {
    let mut s = String::from("(");
    for (i, t) in types.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&t.to_string());
    }
    s.push(')');
    s
}

fn schema_types(schema: &Schema) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.ty).collect()
}

fn col_ty(schema: &Schema, col: usize, context: &str) -> Result<DataType, VerifyError> {
    match schema.fields().get(col) {
        Some(f) => Ok(f.ty),
        None => Err(VerifyError::ColumnOutOfRange {
            context: context.to_string(),
            col,
            arity: schema.fields().len(),
        }),
    }
}

/// Declared-vs-derived output schema comparison (types only: aliases are
/// presentation, types are what operators execute against).
fn expect_schema(
    context: &str,
    declared: &Schema,
    derived: &[DataType],
) -> Result<(), VerifyError> {
    let decl = schema_types(declared);
    if decl != derived {
        return Err(VerifyError::SchemaMismatch {
            context: context.to_string(),
            declared: fmt_types(&decl),
            derived: fmt_types(derived),
        });
    }
    Ok(())
}

/// Stats labels must be unique *per plan* across nodes that instantiate
/// primitives: per-worker/per-partition instances of one node share its
/// label by design (their statistics fold), but two distinct nodes
/// sharing one would merge unrelated bandit state.
fn note_label(labels: &mut HashSet<String>, label: &str) -> Result<(), VerifyError> {
    if !labels.insert(label.to_string()) {
        return Err(VerifyError::DuplicateLabel {
            label: label.to_string(),
        });
    }
    Ok(())
}

/// Re-derives an expression's output type against `input`, enforcing the
/// evaluator's typing rules (same-type numeric arithmetic, numeric-only
/// casts, string-only substr).
fn expr_type(e: &Expr, input: &Schema, context: &str) -> Result<DataType, VerifyError> {
    match e {
        Expr::Col(i) => col_ty(input, *i, context),
        Expr::Const(v) => Ok(v.data_type()),
        Expr::Arith { lhs, rhs, .. } => {
            let lt = expr_type(lhs, input, context)?;
            let rt = expr_type(rhs, input, context)?;
            if lt != rt {
                return Err(VerifyError::TypeMismatch {
                    context: context.to_string(),
                    expected: format!("matching arithmetic operand types (lhs is {lt})"),
                    found: rt,
                });
            }
            if !matches!(lt, DataType::I64 | DataType::F64) {
                return Err(VerifyError::TypeMismatch {
                    context: context.to_string(),
                    expected: "i64 or f64 arithmetic operands".to_string(),
                    found: lt,
                });
            }
            Ok(lt)
        }
        Expr::Cast { to, inner } => {
            let it = expr_type(inner, input, context)?;
            if it == DataType::Str || *to == DataType::Str {
                return Err(VerifyError::TypeMismatch {
                    context: context.to_string(),
                    expected: "numeric cast".to_string(),
                    found: DataType::Str,
                });
            }
            Ok(*to)
        }
        Expr::Substr { col, .. } => {
            let t = col_ty(input, *col, context)?;
            if t != DataType::Str {
                return Err(VerifyError::TypeMismatch {
                    context: context.to_string(),
                    expected: "string column for substr".to_string(),
                    found: t,
                });
            }
            Ok(DataType::Str)
        }
    }
}

/// Checks a predicate tree's column references and type roles against
/// `input`. Constant comparisons only require string/non-string agreement
/// (the evaluator coerces numeric constant widths); column-column
/// comparisons require exact type equality (they resolve to same-type
/// primitives).
fn check_pred(p: &Pred, input: &Schema, context: &str) -> Result<(), VerifyError> {
    match p {
        Pred::Cmp { col, rhs, .. } => {
            let ct = col_ty(input, *col, context)?;
            match rhs {
                CmpRhs::Const(v) => {
                    let vt = v.data_type();
                    if (ct == DataType::Str) != (vt == DataType::Str) {
                        return Err(VerifyError::TypeMismatch {
                            context: context.to_string(),
                            expected: format!("comparison constant compatible with {ct}"),
                            found: vt,
                        });
                    }
                }
                CmpRhs::Col(o) => {
                    let ot = col_ty(input, *o, context)?;
                    if ot != ct {
                        return Err(VerifyError::TypeMismatch {
                            context: context.to_string(),
                            expected: format!("column comparison against {ct}"),
                            found: ot,
                        });
                    }
                }
            }
            Ok(())
        }
        Pred::Like { col, .. } | Pred::NotLike { col, .. } | Pred::InStr { col, .. } => {
            let t = col_ty(input, *col, context)?;
            if t != DataType::Str {
                return Err(VerifyError::TypeMismatch {
                    context: context.to_string(),
                    expected: "string column for LIKE/IN".to_string(),
                    found: t,
                });
            }
            Ok(())
        }
        Pred::And(parts) | Pred::Or(parts) => {
            for part in parts {
                check_pred(part, input, context)?;
            }
            Ok(())
        }
    }
}

/// Re-derives an aggregate's output type and checks its input column's
/// role (integer class for the i64 family, f64 for the f64 family).
fn agg_out_type(spec: &AggSpec, input: &Schema, context: &str) -> Result<DataType, VerifyError> {
    let (col, float) = match spec {
        AggSpec::CountStar => return Ok(DataType::I64),
        AggSpec::SumI64(c) | AggSpec::MinI64(c) | AggSpec::MaxI64(c) => (*c, false),
        AggSpec::SumF64(c) | AggSpec::MinF64(c) | AggSpec::MaxF64(c) => (*c, true),
    };
    let t = col_ty(input, col, context)?;
    if float {
        if t != DataType::F64 {
            return Err(VerifyError::TypeMismatch {
                context: context.to_string(),
                expected: "f64 aggregate input".to_string(),
                found: t,
            });
        }
        Ok(DataType::F64)
    } else {
        if !is_integer(t) {
            return Err(VerifyError::TypeMismatch {
                context: context.to_string(),
                expected: "integer aggregate input".to_string(),
                found: t,
            });
        }
        Ok(DataType::I64)
    }
}

/// A merge-join input must *provably* deliver its key sorted ascending:
/// an explicit sort whose primary key is the join key (descending is its
/// own error — the shape is right, the direction fatal), or a
/// clustering-key chain (the structural proof the builder and the
/// merging exchange share).
fn merge_input_proof(
    side: &'static str,
    plan: &LogicalPlan,
    key: usize,
) -> Result<(), VerifyError> {
    if let LogicalPlan::Sort { keys, .. } = plan {
        return match keys.first() {
            Some(k) if k.col == key && !k.desc => Ok(()),
            Some(k) if k.col == key => Err(VerifyError::DescendingMergeKey { side, key }),
            _ => Err(VerifyError::UnsortedMergeInput { side, key }),
        };
    }
    if clustered_key_chain(plan, key) {
        Ok(())
    } else {
        Err(VerifyError::UnsortedMergeInput { side, key })
    }
}

fn check_plan(plan: &LogicalPlan, labels: &mut HashSet<String>) -> Result<(), VerifyError> {
    match plan {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => {
            if cols.len() != schema.fields().len() {
                return Err(VerifyError::KeyCountMismatch {
                    context: "scan source columns vs output schema".to_string(),
                    left: cols.len(),
                    right: schema.fields().len(),
                });
            }
            for c in cols {
                if !table.column_names().iter().any(|n| n == c) {
                    return Err(VerifyError::UnknownScanColumn { col: c.clone() });
                }
            }
            Ok(())
        }
        LogicalPlan::Filter {
            input,
            pred,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = format!("filter {label:?}");
            check_pred(pred, input.schema(), &ctx)?;
            expect_schema(&ctx, schema, &schema_types(input.schema()))?;
            note_label(labels, label)
        }
        LogicalPlan::Project {
            input,
            items,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = format!("project {label:?}");
            let mut derived = Vec::with_capacity(items.len());
            let mut instantiates = false;
            for item in items {
                derived.push(match item {
                    ProjItem::Pass(i) => col_ty(input.schema(), *i, &ctx)?,
                    ProjItem::Expr(e) => {
                        instantiates = true;
                        expr_type(e, input.schema(), &ctx)?
                    }
                });
            }
            expect_schema(&ctx, schema, &derived)?;
            // Pass-only projections compile to zero primitive instances,
            // so their label never reaches the stats registry — it can't
            // collide.
            if instantiates {
                note_label(labels, label)?;
            }
            Ok(())
        }
        LogicalPlan::HashAgg {
            input,
            keys,
            aggs,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = format!("hash aggregation {label:?}");
            let mut derived = Vec::with_capacity(keys.len() + aggs.len());
            for (i, &k) in keys.iter().enumerate() {
                let t = col_ty(input.schema(), k, &ctx)?;
                if t == DataType::F64 {
                    return Err(VerifyError::FloatPartitionKey {
                        context: format!("group key {i} of {ctx}"),
                    });
                }
                derived.push(t);
            }
            for a in aggs {
                derived.push(agg_out_type(a, input.schema(), &ctx)?);
            }
            expect_schema(&ctx, schema, &derived)?;
            note_label(labels, label)
        }
        LogicalPlan::StreamAgg {
            input,
            aggs,
            label,
            schema,
        } => {
            check_plan(input, labels)?;
            let ctx = format!("stream aggregation {label:?}");
            let mut derived = Vec::with_capacity(aggs.len());
            for a in aggs {
                derived.push(agg_out_type(a, input.schema(), &ctx)?);
            }
            expect_schema(&ctx, schema, &derived)?;
            note_label(labels, label)
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            kind,
            defaults,
            label,
            schema,
            ..
        } => {
            check_plan(build, labels)?;
            check_plan(probe, labels)?;
            let ctx = format!("hash join {label:?}");
            if build_keys.len() != probe_keys.len() || build_keys.is_empty() {
                return Err(VerifyError::KeyCountMismatch {
                    context: format!("{ctx} build vs probe keys"),
                    left: build_keys.len(),
                    right: probe_keys.len(),
                });
            }
            for (side, keys, schema_in) in [
                ("build", build_keys, build.schema()),
                ("probe", probe_keys, probe.schema()),
            ] {
                for (i, &k) in keys.iter().enumerate() {
                    let t = col_ty(schema_in, k, &ctx)?;
                    if t == DataType::F64 {
                        return Err(VerifyError::FloatPartitionKey {
                            context: format!("{side} key {i} of {ctx}"),
                        });
                    }
                    if !is_integer(t) {
                        return Err(VerifyError::TypeMismatch {
                            context: format!("{side} key {i} of {ctx}"),
                            expected: "integer join key".to_string(),
                            found: t,
                        });
                    }
                }
            }
            let mut payload_types = Vec::with_capacity(payload.len());
            for &p in payload {
                payload_types.push(col_ty(build.schema(), p, &ctx)?);
            }
            if *kind == JoinKind::LeftSingle {
                if defaults.len() != payload.len() {
                    return Err(VerifyError::KeyCountMismatch {
                        context: format!("{ctx} left-single defaults vs payload"),
                        left: defaults.len(),
                        right: payload.len(),
                    });
                }
                for (d, &pt) in defaults.iter().zip(&payload_types) {
                    if d.data_type() != pt {
                        return Err(VerifyError::TypeMismatch {
                            context: format!("{ctx} left-single default"),
                            expected: pt.to_string(),
                            found: d.data_type(),
                        });
                    }
                }
            }
            let mut derived = schema_types(probe.schema());
            match kind {
                JoinKind::Inner | JoinKind::LeftSingle => derived.extend(payload_types),
                JoinKind::Semi | JoinKind::Anti => {}
            }
            expect_schema(&ctx, schema, &derived)?;
            note_label(labels, label)
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            payload,
            label,
            schema,
        } => {
            check_plan(left, labels)?;
            check_plan(right, labels)?;
            let ctx = format!("merge join {label:?}");
            for (side, key, schema_in) in [
                ("left", *left_key, left.schema()),
                ("right", *right_key, right.schema()),
            ] {
                let t = col_ty(schema_in, key, &ctx)?;
                if !is_integer(t) {
                    return Err(VerifyError::NonIntegerMergeKey { ty: t });
                }
                let _ = side;
            }
            merge_input_proof("left", left, *left_key)?;
            merge_input_proof("right", right, *right_key)?;
            let mut derived = schema_types(right.schema());
            for &p in payload {
                derived.push(col_ty(left.schema(), p, &ctx)?);
            }
            expect_schema(&ctx, schema, &derived)?;
            note_label(labels, label)
        }
        LogicalPlan::Sort {
            input,
            keys,
            schema,
            ..
        } => {
            check_plan(input, labels)?;
            let ctx = "sort".to_string();
            for k in keys {
                col_ty(input.schema(), k.col, &ctx)?;
            }
            expect_schema(&ctx, schema, &schema_types(input.schema()))
        }
    }
}

// ---------------------------------------------------------------------------
// phase 2: the physical plan
// ---------------------------------------------------------------------------

/// Checks a physical plan's exchange-placement invariants: no
/// order-destroying exchange ([`PhysKind::Parallel`],
/// [`PhysKind::HashPartition`]) under an order-sensitive ancestor (a
/// merge join) without an intervening materialization boundary (a sort,
/// an aggregate, a join build); merging exchanges carry exactly one
/// integer key; partitioned lanes agree on key count, key type class
/// (i16/i32 hash as i64) and partition count; and no exchange is
/// degenerate (zero lanes, empty producer sets, zero workers/partitions).
pub fn verify_physical(plan: &PhysPlan<'_>) -> Result<(), VerifyError> {
    walk_physical(plan, false)
}

fn key_class(ty: DataType) -> DataType {
    match ty {
        DataType::I16 | DataType::I32 | DataType::I64 => DataType::I64,
        other => other,
    }
}

/// `ordered`: an order-sensitive ancestor consumes this node's output
/// with no materialization boundary in between.
fn walk_physical(p: &PhysPlan<'_>, ordered: bool) -> Result<(), VerifyError> {
    match &p.kind {
        PhysKind::Parallel { .. } => {
            if ordered {
                return Err(VerifyError::OrderViolation { node: "Parallel" });
            }
            if p.instances == 0 {
                return Err(VerifyError::EmptyExchange { node: "Parallel" });
            }
        }
        PhysKind::Merge {
            key_cols,
            key_types,
            ..
        } => {
            if p.instances == 0 {
                return Err(VerifyError::EmptyExchange { node: "Merge" });
            }
            if key_cols.len() != 1 {
                return Err(VerifyError::CompositeMergeKey {
                    keys: key_cols.len(),
                });
            }
            for &t in key_types {
                if !is_integer(t) {
                    return Err(VerifyError::NonIntegerMergeKey { ty: t });
                }
            }
        }
        PhysKind::HashPartition {
            partitions, lanes, ..
        } => {
            if ordered {
                return Err(VerifyError::OrderViolation {
                    node: "HashPartition",
                });
            }
            if lanes.is_empty() {
                return Err(VerifyError::ZeroLaneConsumer);
            }
            if *partitions == 0 {
                return Err(VerifyError::EmptyExchange {
                    node: "HashPartition",
                });
            }
            let lane0 = &lanes[0].key_types;
            for (i, lane) in lanes.iter().enumerate() {
                if lane.producers == 0 {
                    return Err(VerifyError::EmptyLane { lane: i });
                }
                if lane.partitions != *partitions {
                    return Err(VerifyError::PartitionCountMismatch {
                        lane: i,
                        expected: *partitions,
                        found: lane.partitions,
                    });
                }
                if lane.key_types.len() != lane0.len() {
                    return Err(VerifyError::KeyCountMismatch {
                        context: format!("partition lane {i} key columns vs lane 0"),
                        left: lane.key_types.len(),
                        right: lane0.len(),
                    });
                }
                for (j, (&t, &t0)) in lane.key_types.iter().zip(lane0).enumerate() {
                    if t == DataType::F64 {
                        return Err(VerifyError::FloatPartitionKey {
                            context: format!("partition lane {i} key {j}"),
                        });
                    }
                    if key_class(t) != key_class(t0) {
                        return Err(VerifyError::LaneKeyTypeMismatch {
                            lane: i,
                            pos: j,
                            expected: key_class(t0),
                            found: key_class(t),
                        });
                    }
                }
                walk_physical(&lane.input, false)?;
            }
        }
        _ => {}
    }
    for (i, child) in p.children.iter().enumerate() {
        let child_ordered = match p.kind {
            // Materialization boundaries re-establish or discard order.
            PhysKind::Sort | PhysKind::HashAgg { .. } | PhysKind::StreamAgg => false,
            // A join build materializes; its probe streams.
            PhysKind::HashJoin { .. } => ordered && i == 1,
            PhysKind::MergeJoin => true,
            _ => ordered,
        };
        walk_physical(child, child_ordered)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{col, count, plan_physical, sum_i64, NamedPred, PlanBuilder};
    use crate::{CmpKind, Value};
    use ma_vector::{ColumnBuilder, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
        for i in 0..rows {
            id.push_i64(i as i64);
            k.push_i32((i % 7) as i32);
            f.push_f64(i as f64 * 0.5);
        }
        let t = Arc::new(
            Table::new(
                "t",
                vec![
                    ("id".into(), id.finish()),
                    ("k".into(), k.finish()),
                    ("f".into(), f.finish()),
                ],
            )
            .unwrap(),
        );
        let mut c = HashMap::new();
        c.insert("t".to_string(), t);
        c
    }

    fn cfg(workers: usize) -> ExecConfig {
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = workers;
        cfg
    }

    #[test]
    fn builder_plans_verify_across_worker_counts() {
        let c = catalog(40_000);
        for workers in [1, 2, 4] {
            let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
                .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
                .hash_agg(&["k"], vec![count(), sum_i64("id")], "agg")
                .sort(&[crate::plan::asc("k")])
                .build()
                .unwrap();
            verify(&plan, &cfg(workers)).unwrap();
        }
    }

    #[test]
    fn sharded_agg_plans_as_partition_exchange() {
        let c = catalog(40_000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let p = plan_physical(&plan, &cfg(4));
        match &p.kind {
            PhysKind::HashPartition {
                partitions, lanes, ..
            } => {
                assert_eq!(*partitions, 4);
                assert_eq!(lanes.len(), 1);
                assert_eq!(lanes[0].producers, 4);
                assert_eq!(lanes[0].key_types, vec![DataType::I32]);
            }
            other => panic!("expected HashPartition, got {other:?}"),
        }
        verify_physical(&p).unwrap();
    }

    #[test]
    fn single_worker_plan_is_sequential() {
        let c = catalog(40_000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let p = plan_physical(&plan, &cfg(1));
        assert!(matches!(p.kind, PhysKind::HashAgg { .. }), "{p}");
        assert_eq!(p.instances, 1);
        assert_eq!(p.children.len(), 1);
        assert!(matches!(p.children[0].kind, PhysKind::Scan { .. }));
        assert!(p.children[0].children.is_empty());
    }

    #[test]
    fn merge_join_over_clustered_scans_plans_merges() {
        let c = catalog(40_000);
        let left = PlanBuilder::scan(&c, "t", &["id", "k"]);
        let plan = PlanBuilder::scan(&c, "t", &["id as rid"])
            .merge_join(left, ("rid", "id"), &["k"], "mj")
            .build()
            .unwrap();
        let p = plan_physical(&plan, &cfg(4));
        assert!(matches!(p.kind, PhysKind::MergeJoin), "{p}");
        for child in &p.children {
            assert!(
                matches!(child.kind, PhysKind::Merge { .. }) && child.instances == 4,
                "expected Merge under MergeJoin, got {child:?}"
            );
        }
        verify(&plan, &cfg(4)).unwrap();
    }

    #[test]
    fn float_group_key_is_typed_error() {
        let c = catalog(100);
        let plan = PlanBuilder::scan(&c, "t", &["f", "id"])
            .hash_agg(&["f"], vec![count()], "agg")
            .build();
        // The builder already rejects this; hand-build the node to prove
        // the verifier independently catches it.
        drop(plan);
        let base = PlanBuilder::scan(&c, "t", &["f", "id"]).build().unwrap();
        let schema = Schema::new(vec![
            ma_vector::Field::new("f", DataType::F64),
            ma_vector::Field::new("n", DataType::I64),
        ]);
        let bad = LogicalPlan::HashAgg {
            input: Box::new(base),
            keys: vec![0],
            aggs: vec![AggSpec::CountStar],
            label: "agg".into(),
            schema,
        };
        let err = verify(&bad, &cfg(1)).unwrap_err();
        assert!(
            matches!(err, VerifyError::FloatPartitionKey { .. }),
            "{err}"
        );
    }

    #[test]
    fn projected_merge_key_still_verifies() {
        let c = catalog(40_000);
        let left = PlanBuilder::scan(&c, "t", &["id", "k"])
            .project(vec![("id", col("id")), ("k", col("k"))], "keep");
        let plan = PlanBuilder::scan(&c, "t", &["id as rid"])
            .merge_join(left, ("rid", "id"), &["k"], "mj")
            .build()
            .unwrap();
        verify(&plan, &cfg(4)).unwrap();
    }
}
