//! Plan-verifier sweep: every TPC-H query × a worker/partition/vector-size
//! configuration matrix.
//!
//! The verifier (`ma_executor::verify`) re-checks, independently of
//! lowering, that each plan is schema-consistent, label-unique and places
//! its exchanges legally under the given configuration. This sweep proves
//! those invariants hold for all 22 queries across every parallelism
//! shape the planner can take: sequential, sharded, merge-sharded,
//! partition-follows-workers, partitioning disabled, and fixed odd
//! partition counts that disagree with the worker count.
//!
//! It also pins the global stats-label discipline: labels are unique
//! *within* each plan (a duplicate would silently merge two nodes'
//! adaptive statistics — `verify` rejects it) and, thanks to the `QN/`
//! prefix convention, unique *across* queries too, so a whole-benchmark
//! stats dump never aliases two primitives.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, OnceLock};

use ma_executor::{
    plan_physical, verify, ExecConfig, LogicalPlan, PhysKind, PhysPlan, QueryContext,
};
use ma_tpch::queries::query_plan;
use ma_tpch::{Params, TpchData};

/// Shared database: big enough (scale 0.01 ≈ 60k lineitem rows) that the
/// sharding and partitioning verdicts actually fire under the matrix's
/// multi-worker configurations.
fn db() -> &'static TpchData {
    static DB: OnceLock<TpchData> = OnceLock::new();
    DB.get_or_init(|| TpchData::generate(0.01, 0xDBD1))
}

fn config(workers: usize, agg_p: usize, join_p: usize, vsize: usize) -> ExecConfig {
    let mut cfg = ExecConfig::fixed_default();
    cfg.worker_threads = workers;
    cfg.agg_partitions = agg_p;
    cfg.join_partitions = join_p;
    cfg.vector_size = vsize;
    cfg
}

/// Counts exchange nodes in a physical plan so the sweep can prove it
/// exercised non-sequential shapes (a vacuously-sequential sweep would
/// pass trivially).
fn count_exchanges(p: &PhysPlan<'_>, tally: &mut (usize, usize, usize)) {
    p.visit(&mut |node| match node.kind {
        PhysKind::Parallel { .. } => tally.0 += 1,
        PhysKind::Merge { .. } => tally.1 += 1,
        PhysKind::HashPartition { .. } => tally.2 += 1,
        _ => {}
    });
}

/// Collects every *registry-visible* stats label in a plan: the labels of
/// nodes that instantiate primitives. Pass-only projections compile to
/// zero instances, so their labels never reach the stats registry and are
/// skipped — the same rule `verify` applies for its per-plan uniqueness
/// check.
fn collect_labels(plan: &LogicalPlan, out: &mut Vec<String>) {
    use ma_executor::ops::ProjItem;
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Project {
            input,
            items,
            label,
            ..
        } => {
            if items.iter().any(|i| matches!(i, ProjItem::Expr(_))) {
                out.push(label.clone());
            }
            collect_labels(input, out);
        }
        LogicalPlan::Filter { input, label, .. }
        | LogicalPlan::HashAgg { input, label, .. }
        | LogicalPlan::StreamAgg { input, label, .. } => {
            out.push(label.clone());
            collect_labels(input, out);
        }
        LogicalPlan::HashJoin {
            build,
            probe,
            label,
            ..
        } => {
            out.push(label.clone());
            collect_labels(build, out);
            collect_labels(probe, out);
        }
        LogicalPlan::MergeJoin {
            left, right, label, ..
        } => {
            out.push(label.clone());
            collect_labels(left, out);
            collect_labels(right, out);
        }
        LogicalPlan::Sort { input, .. } => collect_labels(input, out),
    }
}

/// All 22 queries verify under every configuration in the matrix, and the
/// matrix provably exercises all three exchange kinds.
#[test]
fn all_queries_verify_across_config_matrix() {
    let db = db();
    let params = Params::default();
    let mut tally = (0usize, 0usize, 0usize);
    let mut checked = 0usize;
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: plan construction failed: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: build failed: {e}"));
        for workers in [1, 2, 4] {
            for (agg_p, join_p) in [(0, 0), (1, 1), (3, 2)] {
                for vsize in [64, 1024] {
                    let cfg = config(workers, agg_p, join_p, vsize);
                    verify(&plan, &cfg).unwrap_or_else(|e| {
                        panic!(
                            "Q{q} failed verification (workers={workers}, \
                             agg_partitions={agg_p}, join_partitions={join_p}, \
                             vector_size={vsize}): {e}"
                        )
                    });
                    count_exchanges(&plan_physical(&plan, &cfg), &mut tally);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 22 * 3 * 3 * 2);
    let (parallel, merge, partition) = tally;
    assert!(parallel > 0, "matrix never produced a Parallel exchange");
    assert!(merge > 0, "matrix never produced a Merge exchange");
    assert!(
        partition > 0,
        "matrix never produced a HashPartition exchange"
    );
}

/// All 22 TPC-H plans must pass the abstract-interpretation pass with
/// **zero findings** — not just zero hazards. The only division in the
/// workload (Q1's averages) divides by a count that is provably ≥ 1, and
/// every sum's statically-derived bound fits the i64 accumulator at this
/// scale, so any error here is an analyzer regression (an unsound
/// transfer function or lost narrowing), not a workload property.
#[test]
fn all_queries_analyze_cleanly() {
    let db = db();
    let params = Params::default();
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let a = ma_executor::analyze(&plan);
        assert!(
            a.errors.is_empty(),
            "Q{q} analysis reported findings: {:?}",
            a.errors
        );
        // The derived facts must be non-degenerate: a real row bound and
        // a fact per output column.
        assert_eq!(a.facts.cols.len(), plan.schema().len(), "Q{q}");
        assert!(a.facts.rows > 0, "Q{q} proved itself empty");
    }
}

/// All 22 plans get a *finite* proven peak-byte bound from the memory/
/// cost pass under every matrix configuration, with zero findings under
/// the default 1 GiB budget. Finiteness is the load-bearing half: the
/// pass saturates to "unbounded" when a width or cardinality estimate
/// escapes it, and an unbounded plan would make the byte-accounting
/// oracle (`actual ≤ proven`) vacuously true. The work bound must be
/// finite and positive for the same reason.
///
/// The costed plan must also be the lowered plan: the memory trackers a
/// fresh `lower()` registers (construction registers them all; threads
/// only start at the first `next()`) match the tracked cost rows label
/// for label and instance for instance, and every hash-agg, hash-join
/// and sort tracker carries exactly its row's per-instance bound.
#[test]
fn all_queries_get_finite_byte_bounds() {
    // Saturation sentinel mirrored from `ma_executor::cost` (rendered as
    // "unbounded"); anything at or above it means the pass gave up.
    const SAT: u64 = u64::MAX >> 8;
    let dict = Arc::new(ma_primitives::build_dictionary());
    let db = db();
    let params = Params::default();
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        for workers in [1, 2, 4] {
            for (agg_p, join_p) in [(0, 0), (1, 1), (3, 2)] {
                for vsize in [64, 1024] {
                    let cfg = config(workers, agg_p, join_p, vsize);
                    let report = ma_executor::cost(&plan, &cfg);
                    assert!(
                        report.peak_bytes > 0 && report.peak_bytes < SAT,
                        "Q{q} peak bound degenerate (workers={workers}, \
                         agg_partitions={agg_p}, join_partitions={join_p}, \
                         vector_size={vsize}): {} ({})",
                        report.peak_bytes,
                        ma_executor::cost::fmt_bytes(report.peak_bytes)
                    );
                    assert!(
                        report.total_work > 0 && report.total_work < SAT,
                        "Q{q} work bound degenerate: {}",
                        report.total_work
                    );
                    assert!(
                        report.findings.is_empty(),
                        "Q{q} over default budget (workers={workers}): {:?}",
                        report.findings
                    );
                    let ctx = QueryContext::new(Arc::clone(&dict), cfg.clone());
                    drop(ma_executor::lower(&plan, &ctx).unwrap());
                    // label -> (tracker slots, bounds) on each side. An
                    // exchange is one operator whose row counts its
                    // producers, so it registers a single slot.
                    let mut slots: BTreeMap<String, (usize, Vec<u64>)> = BTreeMap::new();
                    for r in ctx.mem_reports() {
                        let e = slots.entry(r.label).or_default();
                        e.0 += 1;
                        e.1.push(r.bound);
                    }
                    let mut rows: BTreeMap<String, (usize, Vec<u64>)> = BTreeMap::new();
                    for o in &report.ops {
                        let n = match o.kind {
                            "hash-agg" | "hash-join" | "sort" => o.instances,
                            "exchange" => 1,
                            _ => continue,
                        };
                        let e = rows.entry(o.label.clone()).or_default();
                        e.0 += n;
                        if o.kind != "exchange" {
                            e.1.extend(std::iter::repeat_n(o.per_instance_bytes, n));
                        }
                    }
                    let where_ = format!(
                        "Q{q} (workers={workers}, agg_partitions={agg_p}, \
                         join_partitions={join_p}, vector_size={vsize})"
                    );
                    let counts = |m: &BTreeMap<String, (usize, Vec<u64>)>| {
                        m.iter().map(|(l, e)| (l.clone(), e.0)).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        counts(&slots),
                        counts(&rows),
                        "{where_}: lowered trackers differ from the costed plan"
                    );
                    for (label, (_, row_bounds)) in &rows {
                        if row_bounds.is_empty() {
                            continue;
                        }
                        let mut got = slots[label].1.clone();
                        let mut want = row_bounds.clone();
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{where_}: tracker bounds of {label}");
                    }
                }
            }
        }
    }
}

/// Stats labels are globally unique across all 22 first-phase plans: the
/// `QN/` prefix convention means a whole-benchmark stats dump can never
/// alias two different primitives. (Within-plan uniqueness of
/// instantiating nodes is `verify`'s job, covered by the matrix sweep.)
#[test]
fn stats_labels_unique_across_all_queries() {
    let db = db();
    let params = Params::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut total = 0usize;
    for q in 1..=22 {
        let plan = query_plan(q, db, &params)
            .unwrap_or_else(|e| panic!("Q{q}: {e}"))
            .build()
            .unwrap_or_else(|e| panic!("Q{q}: {e}"));
        let mut labels = Vec::new();
        collect_labels(&plan, &mut labels);
        assert!(!labels.is_empty(), "Q{q} has no labeled nodes");
        for l in labels {
            let prefix = format!("Q{q}/");
            assert!(
                l.starts_with(&prefix),
                "Q{q} label {l:?} missing its {prefix:?} namespace prefix"
            );
            assert!(seen.insert(l.clone()), "label {l:?} reused across queries");
            total += 1;
        }
    }
    assert!(total >= 100, "expected a rich label set, found {total}");
}
