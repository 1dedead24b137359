//! Negative suite for the plan-invariant verifier: hand-built ill-formed
//! logical and physical plans, each rejected with its *specific* typed
//! [`VerifyError`] variant.
//!
//! The [`PlanBuilder`] API and the physical planner make most of these
//! shapes unrepresentable — which is exactly why the verifier must be
//! tested against hand-built [`LogicalPlan`] / [`PhysPlan`] values: it is
//! the safety net for plan *producers other than the builder* (future
//! optimizer rewrites, deserialized plans, test rigs) and for regressions
//! in the builder and the planner themselves.

use std::collections::HashMap;
use std::sync::Arc;

use ma_executor::ops::{AggSpec, ProjItem, SortKey};
use ma_executor::plan::PlanBuilder;
use ma_executor::{
    plan_physical, verify, verify_physical, ExecConfig, LogicalPlan, PhysKind, PhysLane, PhysPlan,
    Pred, VerifyError,
};
use ma_vector::{ColumnBuilder, DataType, Field, Schema, Table};

fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
    let mut id = ColumnBuilder::with_capacity(DataType::I64, rows);
    let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
    let mut f = ColumnBuilder::with_capacity(DataType::F64, rows);
    for i in 0..rows {
        id.push_i64(i as i64);
        k.push_i32((i % 5) as i32);
        f.push_f64(i as f64);
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

fn cfg() -> ExecConfig {
    ExecConfig::fixed_default()
}

/// A well-formed scan over (id:i64, k:i32, f:f64) to graft bad nodes onto.
fn base_scan(c: &HashMap<String, Arc<Table>>) -> LogicalPlan {
    PlanBuilder::scan(c, "t", &["id", "k", "f"])
        .build()
        .unwrap()
}

fn filter_all(input: LogicalPlan, label: &str) -> LogicalPlan {
    let schema = input.schema().clone();
    LogicalPlan::Filter {
        input: Box::new(input),
        pred: Pred::cmp_val(0, ma_executor::CmpKind::Ge, ma_executor::Value::I64(0)),
        label: label.to_string(),
        schema,
    }
}

// ---------------------------------------------------------------------------
// logical-walk rejections (hand-built LogicalPlans)
// ---------------------------------------------------------------------------

/// Two primitive-instantiating nodes sharing one stats label would merge
/// their adaptive statistics silently.
#[test]
fn duplicate_stats_label_rejected() {
    let c = catalog(100);
    let plan = filter_all(filter_all(base_scan(&c), "dup"), "dup");
    match verify(&plan, &cfg()) {
        Err(VerifyError::DuplicateLabel { label }) => assert_eq!(label, "dup"),
        other => panic!("expected DuplicateLabel, got {other:?}"),
    }
}

/// A merge join whose input's key does not trace to the clustering
/// column (and has no sort) cannot prove sortedness.
#[test]
fn unsorted_merge_input_rejected() {
    let c = catalog(100);
    let left = base_scan(&c);
    let right = base_scan(&c);
    let schema = Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::new("k", DataType::I32),
        Field::new("f", DataType::F64),
        Field::new("lk", DataType::I32),
    ]);
    let plan = LogicalPlan::MergeJoin {
        left: Box::new(left),
        right: Box::new(right),
        // Column 1 ("k") is not the clustering (first) column on either
        // side: sortedness is unprovable.
        left_key: 1,
        right_key: 1,
        payload: vec![1],
        label: "mj".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::UnsortedMergeInput {
            side: "left",
            key: 1,
        }) => {}
        other => panic!("expected UnsortedMergeInput, got {other:?}"),
    }
}

/// A merge input sorted by the right key but *descending* gets its own
/// diagnosis (the shape is right, the direction fatal).
#[test]
fn descending_merge_key_rejected() {
    let c = catalog(100);
    let left = base_scan(&c);
    let sort_schema = left.schema().clone();
    let left_sorted = LogicalPlan::Sort {
        input: Box::new(left),
        keys: vec![SortKey::desc(0)],
        limit: None,
        schema: sort_schema,
    };
    let right = base_scan(&c);
    let schema = Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::new("k", DataType::I32),
        Field::new("f", DataType::F64),
        Field::new("lk", DataType::I32),
    ]);
    let plan = LogicalPlan::MergeJoin {
        left: Box::new(left_sorted),
        right: Box::new(right),
        left_key: 0,
        right_key: 0,
        payload: vec![1],
        label: "mj".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::DescendingMergeKey {
            side: "left",
            key: 0,
        }) => {}
        other => panic!("expected DescendingMergeKey, got {other:?}"),
    }
}

/// An f64 group key is rejected as a typed error at verify time — not as
/// a key-normalization panic on a worker thread at execution time.
#[test]
fn float_group_key_rejected() {
    let c = catalog(100);
    let plan = LogicalPlan::HashAgg {
        input: Box::new(base_scan(&c)),
        keys: vec![2], // "f": f64
        aggs: vec![AggSpec::CountStar],
        label: "agg".to_string(),
        schema: Schema::new(vec![
            Field::new("f", DataType::F64),
            Field::new("n", DataType::I64),
        ]),
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::FloatPartitionKey { context }) => {
            assert!(context.contains("group key"), "{context}");
        }
        other => panic!("expected FloatPartitionKey, got {other:?}"),
    }
}

/// A node whose declared output schema disagrees with what its inputs
/// derive is caught before any operator would act on the wrong types.
#[test]
fn declared_schema_mismatch_rejected() {
    let c = catalog(100);
    let plan = LogicalPlan::Project {
        input: Box::new(base_scan(&c)),
        items: vec![ProjItem::Pass(0)],
        label: "proj".to_string(),
        // Declares i32 for a passed-through i64 column.
        schema: Schema::new(vec![Field::new("id", DataType::I32)]),
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::SchemaMismatch { .. }) => {}
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

/// A predicate referencing a column beyond its input's arity.
#[test]
fn column_out_of_range_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let schema = scan.schema().clone();
    let plan = LogicalPlan::Filter {
        input: Box::new(scan),
        pred: Pred::cmp_val(9, ma_executor::CmpKind::Ge, ma_executor::Value::I64(0)),
        label: "sel".to_string(),
        schema,
    };
    match verify(&plan, &cfg()) {
        Err(VerifyError::ColumnOutOfRange {
            col: 9, arity: 3, ..
        }) => {}
        other => panic!("expected ColumnOutOfRange, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// physical-plan rejections (hand-built PhysPlans)
// ---------------------------------------------------------------------------

/// A hand-built physical node. The verifier reads only the shape (kind,
/// instances, children, lanes), so every node may point at one logical
/// stand-in.
fn node<'a>(
    logical: &'a LogicalPlan,
    kind: PhysKind<'a>,
    instances: usize,
    children: Vec<PhysPlan<'a>>,
) -> PhysPlan<'a> {
    PhysPlan {
        id: 0,
        label: String::new(),
        kind,
        instances,
        per_instance_bytes: 0,
        work: 0,
        children,
        logical,
    }
}

fn leaf(logical: &LogicalPlan) -> PhysPlan<'_> {
    node(logical, PhysKind::Scan { ordered: false }, 1, vec![])
}

/// An order-sensitive consumer (merge join) over `children`.
fn ordered<'a>(logical: &'a LogicalPlan, children: Vec<PhysPlan<'a>>) -> PhysPlan<'a> {
    node(logical, PhysKind::MergeJoin, 1, children)
}

fn parallel(logical: &LogicalPlan, workers: usize) -> PhysPlan<'_> {
    let kind = PhysKind::Parallel { chunk_bytes: 0 };
    node(logical, kind, workers, vec![leaf(logical)])
}

fn merge(logical: &LogicalPlan, key_cols: Vec<usize>, key_types: Vec<DataType>) -> PhysPlan<'_> {
    let kind = PhysKind::Merge {
        key_cols,
        key_types,
        chunk_bytes: 0,
    };
    node(logical, kind, 4, vec![leaf(logical)])
}

fn lane(
    logical: &LogicalPlan,
    producers: usize,
    key_types: Vec<DataType>,
    partitions: usize,
) -> PhysLane<'_> {
    PhysLane {
        producers,
        key_cols: (0..key_types.len()).collect(),
        key_types,
        partitions,
        input: leaf(logical),
    }
}

fn partition<'a>(
    logical: &'a LogicalPlan,
    partitions: usize,
    lanes: Vec<PhysLane<'a>>,
) -> PhysPlan<'a> {
    let kind = PhysKind::HashPartition {
        partitions,
        lanes,
        chunk_bytes: 0,
    };
    node(logical, kind, 2, vec![])
}

/// An arrival-order exchange under an order-sensitive ancestor would
/// interleave worker streams and break the merge contract.
#[test]
fn parallel_under_ordered_ancestor_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let s = ordered(&scan, vec![parallel(&scan, 4)]);
    match verify_physical(&s) {
        Err(VerifyError::OrderViolation { node: "Parallel" }) => {}
        other => panic!("expected OrderViolation, got {other:?}"),
    }
}

/// Same for a partitioned exchange — unless a materialization boundary
/// (sort, aggregate, join build) resets the order requirement first.
#[test]
fn partition_under_ordered_ancestor_rejected_unless_materialized() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let bad = ordered(
        &scan,
        vec![partition(
            &scan,
            2,
            vec![lane(&scan, 2, vec![DataType::I64], 2)],
        )],
    );
    match verify_physical(&bad) {
        Err(VerifyError::OrderViolation {
            node: "HashPartition",
        }) => {}
        other => panic!("expected OrderViolation, got {other:?}"),
    }
    // A sort boundary legalizes the identical subtree.
    let sort = node(
        &scan,
        PhysKind::Sort,
        1,
        vec![partition(
            &scan,
            2,
            vec![lane(&scan, 2, vec![DataType::I64], 2)],
        )],
    );
    verify_physical(&ordered(&scan, vec![sort])).unwrap();
}

/// Lanes routing by different key type classes would hash equal keys to
/// different partitions (i16/i32 normalize to i64 and are *not* a
/// mismatch; str vs integer is).
#[test]
fn lane_key_type_mismatch_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let s = partition(
        &scan,
        2,
        vec![
            lane(&scan, 2, vec![DataType::I32], 2), // normalizes to i64
            lane(&scan, 1, vec![DataType::Str], 2),
        ],
    );
    match verify_physical(&s) {
        Err(VerifyError::LaneKeyTypeMismatch {
            lane: 1,
            pos: 0,
            expected: DataType::I64,
            found: DataType::Str,
        }) => {}
        other => panic!("expected LaneKeyTypeMismatch, got {other:?}"),
    }
    // The i16/i32/i64 widths agree by normalization.
    let ok = partition(
        &scan,
        2,
        vec![
            lane(&scan, 2, vec![DataType::I32], 2),
            lane(&scan, 1, vec![DataType::I64], 2),
        ],
    );
    verify_physical(&ok).unwrap();
}

/// A lane routing to a different partition count than the exchange's
/// consumers would drop or misroute every tuple hashed past the end.
#[test]
fn partition_count_mismatch_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let s = partition(
        &scan,
        4,
        vec![
            lane(&scan, 2, vec![DataType::I64], 4),
            lane(&scan, 1, vec![DataType::I64], 2),
        ],
    );
    match verify_physical(&s) {
        Err(VerifyError::PartitionCountMismatch {
            lane: 1,
            expected: 4,
            found: 2,
        }) => {}
        other => panic!("expected PartitionCountMismatch, got {other:?}"),
    }
}

/// A partitioned exchange with no lanes would feed its consumers nothing
/// and hang teardown.
#[test]
fn zero_lane_consumer_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    match verify_physical(&partition(&scan, 2, vec![])) {
        Err(VerifyError::ZeroLaneConsumer) => {}
        other => panic!("expected ZeroLaneConsumer, got {other:?}"),
    }
}

/// A lane with an empty producer set closes its channels immediately and
/// silently yields an empty partition stream.
#[test]
fn empty_lane_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let s = partition(
        &scan,
        2,
        vec![
            lane(&scan, 2, vec![DataType::I64], 2),
            lane(&scan, 0, vec![DataType::I64], 2),
        ],
    );
    match verify_physical(&s) {
        Err(VerifyError::EmptyLane { lane: 1 }) => {}
        other => panic!("expected EmptyLane, got {other:?}"),
    }
}

/// The K-way merge compares a single ascending integer key; composite
/// keys get a descriptive typed error, not silent wrong answers.
#[test]
fn composite_merge_key_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    let s = merge(&scan, vec![0, 1], vec![DataType::I64, DataType::I64]);
    match verify_physical(&s) {
        Err(VerifyError::CompositeMergeKey { keys: 2 }) => {}
        other => panic!("expected CompositeMergeKey, got {other:?}"),
    }
}

/// Non-integer merge keys cannot drive the K-way comparison.
#[test]
fn non_integer_merge_key_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    match verify_physical(&merge(&scan, vec![0], vec![DataType::Str])) {
        Err(VerifyError::NonIntegerMergeKey { ty: DataType::Str }) => {}
        other => panic!("expected NonIntegerMergeKey, got {other:?}"),
    }
}

/// Degenerate exchanges (zero workers) are rejected outright.
#[test]
fn empty_exchange_rejected() {
    let c = catalog(100);
    let scan = base_scan(&c);
    match verify_physical(&parallel(&scan, 0)) {
        Err(VerifyError::EmptyExchange { node: "Parallel" }) => {}
        other => panic!("expected EmptyExchange, got {other:?}"),
    }
}

/// End-to-end: the physical plan the planner builds for a well-formed
/// sharded plan passes its own checks (the negative cases above are
/// unreachable from `plan_physical` — that is the point of hand-building
/// them).
#[test]
fn sketch_of_well_formed_plan_passes() {
    let c = catalog(100_000);
    let plan = PlanBuilder::scan(&c, "t", &["k", "id"])
        .hash_agg(
            &["k"],
            vec![ma_executor::plan::count(), ma_executor::plan::sum_i64("id")],
            "agg",
        )
        .build()
        .unwrap();
    let mut cfg = cfg();
    cfg.worker_threads = 4;
    let phys = plan_physical(&plan, &cfg);
    assert!(matches!(
        phys.kind,
        PhysKind::HashPartition { partitions: 4, .. }
    ));
    verify_physical(&phys).unwrap();
    verify(&plan, &cfg).unwrap();
}
