//! Lowering: [`PhysPlan`] → operator pipeline.
//!
//! Every parallelism decision — sharding, pipeline pushdown, merging,
//! aggregate/join partitioning — is made once by
//! [`plan_physical`](crate::plan::plan_physical). [`lower`] only
//! instantiates what that plan records: one operator per node, the
//! recorded number of fragments or partitions per exchange, and each
//! memory tracker armed with the node's stored proven bound.

use std::sync::Arc;

use ma_vector::{MorselQueue, VECTORS_PER_MORSEL};

use crate::config::DecodeMode;
use crate::ops::{
    HashAggregate, HashJoin, HashPartitionExchange, MergeExchange, MergeJoin, Parallel, RoutedLane,
    Scan, Select, Sort, StreamAggregate,
};
use crate::plan::physical::{plan_physical, PhysKind, PhysPlan};
use crate::plan::LogicalPlan;
use crate::{BoxOp, ExecError, QueryContext};

/// Lowers a logical plan to a physical operator pipeline: plans it with
/// [`plan_physical`] under the context's config, then instantiates the
/// result (see the [plan module docs](crate::plan)).
pub fn lower(plan: &LogicalPlan, ctx: &QueryContext) -> Result<BoxOp, ExecError> {
    // Debug builds re-check every invariant lowering relies on through
    // the verifier (`crate::verify`), so any test that executes a query
    // also proves its plan well-formed. Release builds skip the walk; CI
    // additionally sweeps all queries across a worker/partition/vector-
    // size matrix (crates/tpch/tests).
    #[cfg(debug_assertions)]
    crate::verify::verify(plan, ctx.config())
        .map_err(|e| ExecError::Plan(format!("plan verification failed: {e}")))?;
    build(&plan_physical(plan, ctx.config()), ctx, None)
}

/// Instantiates `node`. Inside a morsel fragment, `queue` is the morsel
/// queue the fragment's scan claims from.
fn build(
    node: &PhysPlan<'_>,
    ctx: &QueryContext,
    queue: Option<&Arc<MorselQueue>>,
) -> Result<BoxOp, ExecError> {
    match &node.kind {
        PhysKind::Parallel { chunk_bytes } => {
            let chain = &node.children[0];
            let queue = morsel_queue(chain, ctx);
            let factory = |_worker: usize, _n: usize| build(chain, ctx, Some(&queue));
            Ok(Box::new(
                Parallel::new(node.instances, &factory)?
                    .tracked(ctx.mem_tracker(&node.label, *chunk_bytes)),
            ))
        }
        PhysKind::Merge {
            key_cols,
            chunk_bytes,
            ..
        } => {
            let producers = fragments(&node.children[0], node.instances, ctx)?;
            Ok(Box::new(
                MergeExchange::new(producers, key_cols[0])?
                    .tracked(ctx.mem_tracker(&node.label, *chunk_bytes)),
            ))
        }
        PhysKind::HashPartition {
            partitions,
            lanes,
            chunk_bytes,
        } => {
            let lanes = lanes
                .iter()
                .map(|lane| {
                    let producers = if lane.producers >= 2 {
                        fragments(&lane.input, lane.producers, ctx)?
                    } else {
                        vec![build(&lane.input, ctx, None)?]
                    };
                    Ok(RoutedLane {
                        producers,
                        key_cols: lane.key_cols.clone(),
                    })
                })
                .collect::<Result<_, ExecError>>()?;
            // Each partition's consumer reads one source per lane.
            let consumer =
                |sources: Vec<BoxOp>, _p: usize| op(&node.children[0], sources, ctx, None);
            Ok(Box::new(
                HashPartitionExchange::new(lanes, *partitions, &consumer)?
                    .tracked(ctx.mem_tracker(&node.label, *chunk_bytes)),
            ))
        }
        _ => {
            let inputs = node
                .children
                .iter()
                .map(|c| build(c, ctx, queue))
                .collect::<Result<_, _>>()?;
            op(node, inputs, ctx, queue)
        }
    }
}

/// `n` morsel fragments of the scan chain `chain`, claiming from one
/// shared queue; each fragment owns private primitive instances
/// (per-worker bandit state).
fn fragments(chain: &PhysPlan<'_>, n: usize, ctx: &QueryContext) -> Result<Vec<BoxOp>, ExecError> {
    let queue = morsel_queue(chain, ctx);
    (0..n).map(|_| build(chain, ctx, Some(&queue))).collect()
}

/// A fresh morsel queue over the table at the bottom of `chain`. Morsels
/// follow the configured vector size so morsel boundaries stay
/// chunk-aligned for any `vector_size` (the worker-count-invariance
/// contract, DESIGN.md §5).
fn morsel_queue(chain: &PhysPlan<'_>, ctx: &QueryContext) -> Arc<MorselQueue> {
    let mut leaf = chain;
    while let Some(child) = leaf.children.first() {
        leaf = child;
    }
    let LogicalPlan::Scan { table, .. } = leaf.logical else {
        unreachable!("a sharded chain bottoms out in a scan");
    };
    let morsel_rows = VECTORS_PER_MORSEL * ctx.vector_size();
    Arc::new(MorselQueue::with_morsel(table.rows(), morsel_rows))
}

/// Instantiates the operator of `node` over its already-built `inputs`
/// (in child order).
fn op(
    node: &PhysPlan<'_>,
    mut inputs: Vec<BoxOp>,
    ctx: &QueryContext,
    queue: Option<&Arc<MorselQueue>>,
) -> Result<BoxOp, ExecError> {
    let mut input = || inputs.remove(0);
    let tracker = || ctx.mem_tracker(&node.label, node.per_instance_bytes);
    let op: BoxOp = match (node.logical, &node.kind) {
        (LogicalPlan::Scan { table, cols, .. }, _) => {
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let scan = match queue {
                Some(q) => {
                    Scan::morsel(Arc::clone(table), &names, ctx.vector_size(), Arc::clone(q))?
                }
                None => Scan::new(Arc::clone(table), &names, ctx.vector_size())?,
            };
            // Encoded columns decode through flavored primitives (one
            // bandit-adapted instance per column, labeled
            // `scan_<table>/<column>/<signature>` so per-worker statistics
            // fold in `QueryContext::merged_reports`). Under
            // `DecodeMode::Reference` the scan keeps its built-in reference
            // decoders — the differential fuzzer cross-checks the two.
            if ctx.config().decode == DecodeMode::Reference {
                Box::new(scan)
            } else {
                Box::new(scan.with_context(ctx, &format!("scan_{}", table.name()))?)
            }
        }
        (LogicalPlan::Filter { pred, label, .. }, _) => {
            Box::new(Select::new(input(), pred, ctx, label)?)
        }
        (LogicalPlan::Project { items, label, .. }, _) => Box::new(crate::ops::Project::new(
            input(),
            items.clone(),
            ctx,
            label,
        )?),
        (
            LogicalPlan::HashAgg {
                keys, aggs, label, ..
            },
            PhysKind::HashAgg { groups },
        ) => Box::new(
            HashAggregate::new(input(), keys.clone(), aggs.clone(), ctx, label)?
                .with_group_bound(*groups)
                .with_tracker(tracker()),
        ),
        (LogicalPlan::StreamAgg { aggs, label, .. }, _) => {
            Box::new(StreamAggregate::new(input(), aggs.clone(), ctx, label)?)
        }
        (
            LogicalPlan::HashJoin {
                build_keys,
                probe_keys,
                payload,
                kind,
                bloom,
                defaults,
                label,
                ..
            },
            PhysKind::HashJoin { build_rows },
        ) => {
            let (b, p) = (input(), input());
            Box::new(
                HashJoin::new(
                    b,
                    p,
                    build_keys.clone(),
                    probe_keys.clone(),
                    payload.clone(),
                    *kind,
                    *bloom,
                    defaults.clone(),
                    ctx,
                    label,
                )?
                .with_build_rows(*build_rows)
                .with_tracker(tracker()),
            )
        }
        (
            LogicalPlan::MergeJoin {
                left_key,
                right_key,
                payload,
                label,
                ..
            },
            _,
        ) => {
            let (l, r) = (input(), input());
            Box::new(MergeJoin::new(
                l,
                r,
                *left_key,
                *right_key,
                payload.clone(),
                ctx,
                label,
            )?)
        }
        (LogicalPlan::Sort { keys, limit, .. }, _) => Box::new(
            Sort::new(input(), keys.clone(), *limit, ctx.vector_size())?.with_tracker(tracker()),
        ),
        _ => unreachable!("the planner gives every node its logical node's kind"),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::ops::{collect, total_rows, JoinKind};
    use crate::plan::expr::{asc, col, count, desc, lit_i64, sum_i64};
    use crate::plan::{NamedPred, PlanBuilder};
    use crate::CmpKind;
    use ma_primitives::build_dictionary;
    use ma_vector::{ColumnBuilder, DataType, Table};
    use std::collections::HashMap;

    /// The partition count the physical plan records for `plan`'s root (1
    /// when the root runs as a single instance).
    fn root_partitions(plan: &LogicalPlan, cfg: &ExecConfig) -> usize {
        match plan_physical(plan, cfg).kind {
            PhysKind::HashPartition { partitions, .. } => partitions,
            _ => 1,
        }
    }

    /// The analyzer's row bound for the whole plan.
    fn row_bound(plan: &LogicalPlan) -> usize {
        crate::analyze(plan).facts.rows
    }

    fn ctx_with_workers(workers: usize) -> QueryContext {
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = workers;
        QueryContext::new(Arc::new(build_dictionary()), cfg)
    }

    fn catalog(rows: usize) -> HashMap<String, Arc<Table>> {
        let mut k = ColumnBuilder::with_capacity(DataType::I32, rows);
        let mut v = ColumnBuilder::with_capacity(DataType::I64, rows);
        for i in 0..rows {
            k.push_i32((i % 7) as i32);
            v.push_i64(i as i64);
        }
        // `v` (the unique, sorted row id) is the first column: the
        // clustering-key convention the merge-join builder check relies
        // on.
        let t = Arc::new(
            Table::new(
                "t",
                vec![("v".into(), v.finish()), ("k".into(), k.finish())],
            )
            .unwrap(),
        );
        let mut dk = ColumnBuilder::with_capacity(DataType::I32, 3);
        let mut dv = ColumnBuilder::with_capacity(DataType::I64, 3);
        for i in 0..3 {
            dk.push_i32(i);
            dv.push_i64(i as i64 * 100);
        }
        let d = Arc::new(
            Table::new(
                "d",
                vec![("dk".into(), dk.finish()), ("dv".into(), dv.finish())],
            )
            .unwrap(),
        );
        let mut c = HashMap::new();
        c.insert("t".to_string(), t);
        c.insert("d".to_string(), d);
        c
    }

    fn agg_totals(workers: usize, rows: usize) -> Vec<(i32, i64)> {
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
            .hash_agg(&["k"], vec![count(), sum_i64("v")], "agg")
            .sort(&[asc("k")])
            .build()
            .unwrap();
        let ctx = ctx_with_workers(workers);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        let mut out = Vec::new();
        for ch in &chunks {
            for p in ch.live_positions() {
                out.push((ch.column(0).as_i32()[p], ch.column(2).as_i64()[p]));
            }
        }
        out
    }

    use crate::expr::Value;

    #[test]
    fn lowering_matches_across_worker_counts() {
        // Big enough to shard (>= 2 morsels at the default vector size).
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let seq = agg_totals(1, rows);
        let par = agg_totals(4, rows);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 5);
    }

    #[test]
    fn filter_over_scan_shards_into_parallel() {
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(1)), "sel")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let n = total_rows(&collect(op.as_mut()).unwrap());
        assert_eq!(n, rows / 7 + usize::from(!rows.is_multiple_of(7)));
        // The pushed-down selection ran inside the workers: exactly one
        // instance of the labeled selection primitive per worker (a
        // non-pushed Select above the exchange would create just one).
        // `reports()` is the unmerged view — `merged_reports()` would
        // fold the per-worker instances back into a single entry.
        drop(op);
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(
            sel_instances, 4,
            "expected one pushed-down selection instance per worker"
        );
    }

    #[test]
    fn partitioned_agg_runs_one_instance_per_partition() {
        // Big enough to shard: the planner must route the aggregation
        // through a hash-partitioning exchange with one private
        // HashAggregate per partition — visible as `workers` instances of
        // each aggregation primitive under the same label.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .filter(NamedPred::cmp_val("k", CmpKind::Lt, Value::I32(5)), "sel")
            .hash_agg(&["k"], vec![count(), sum_i64("v")], "agg")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        let mut out: Vec<(i32, i64)> = chunks
            .iter()
            .flat_map(|ch| {
                ch.live_positions()
                    .into_iter()
                    .map(|p| (ch.column(0).as_i32()[p], ch.column(2).as_i64()[p]))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        assert_eq!(out, agg_totals(1, rows));
        let count_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label == "agg/aggr_count")
            .count();
        assert_eq!(
            count_instances, 4,
            "expected one aggregate instance per partition"
        );
        // Producers (scan + pushed-down filter) stay one per worker.
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(sel_instances, 4);
    }

    #[test]
    fn agg_over_serial_input_partitions_by_group_estimate() {
        // An aggregate whose input is NOT a shardable scan chain (a hash
        // join intervenes) partitions only when the *proven group bound*
        // clears the threshold. Group key `k` has exactly 7 distinct
        // values, and the equi-join against `dk ∈ [0, 2]` narrows it to
        // NDV ≤ 3 — so the bound is 3, not the 1000-row input estimate.
        let c = catalog(1000);
        let build = PlanBuilder::scan(&c, "d", &["dk", "dv"]);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(build, &[("k", "dk")], &["dv"], JoinKind::Inner, false, "j")
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        // Below the default threshold: single.
        assert_eq!(root_partitions(&plan, &cfg), 1);
        // Verdict flip vs the raw row estimate: 1000 input rows used to
        // clear a threshold of 100, but at most 3 groups can exist.
        cfg.agg_min_partition_groups = 100;
        assert_eq!(root_partitions(&plan, &cfg), 1);
        // The bound itself gates exactly: threshold == 3 partitions. The
        // cost model sizes P to the demand/threshold ratio (here 1,
        // clamped to the 2-partition minimum), not the worker count.
        cfg.agg_min_partition_groups = 3;
        assert_eq!(root_partitions(&plan, &cfg), 2);
        // ... one past it does not.
        cfg.agg_min_partition_groups = 4;
        assert_eq!(root_partitions(&plan, &cfg), 1);
        // An explicit partition count overrides worker-following...
        cfg.agg_min_partition_groups = 3;
        cfg.agg_partitions = 2;
        assert_eq!(root_partitions(&plan, &cfg), 2);
        // ... and `1` disables partitioning outright.
        cfg.agg_partitions = 1;
        assert_eq!(root_partitions(&plan, &cfg), 1);
        // Execution with a forced partition count still matches.
        let mut cfg = ExecConfig::fixed_default();
        cfg.agg_min_partition_groups = 3;
        cfg.agg_partitions = 3;
        let ctx = QueryContext::new(Arc::new(build_dictionary()), cfg);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        let total: i64 = chunks
            .iter()
            .flat_map(|ch| {
                ch.live_positions()
                    .into_iter()
                    .map(|p| ch.column(1).as_i64()[p])
                    .collect::<Vec<_>>()
            })
            .sum();
        // Keys 0..2 match the 3-row dimension; each key appears 1000/7
        // times (rounded up for k < 1000 % 7 = 6... keys 0,1,2 all get
        // ceil).
        assert_eq!(total, 143 * 3);
        let agg_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label == "agg/aggr_count")
            .count();
        assert_eq!(agg_instances, 3);
    }

    #[test]
    fn verdicts_flip_exactly_at_the_row_count_threshold() {
        // Scan estimates are exact base-table row counts (the
        // `Catalog::row_count` contract), and `v` is unique, so the group
        // bound for a group-by-`v` aggregate is exactly the row count: a
        // threshold equal to it partitions and one past it does not — no
        // slack in either direction.
        let rows = 1000;
        let c = catalog(rows);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_agg(&["v"], vec![count()], "agg")
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = rows;
        assert_eq!(root_partitions(&plan, &cfg), 2);
        cfg.agg_min_partition_groups = rows + 1;
        assert_eq!(root_partitions(&plan, &cfg), 1);

        // Grouping by `k` (exactly 7 distinct values) instead caps the
        // bound at the key's NDV, not the 1000-row input: the verdict
        // flips at 7/8 even though every threshold below 1000 used to
        // partition.
        let by_k = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_agg(&["k"], vec![count()], "agg")
            .build()
            .unwrap();
        cfg.agg_min_partition_groups = 7;
        assert_eq!(root_partitions(&by_k, &cfg), 2);
        cfg.agg_min_partition_groups = 8;
        assert_eq!(root_partitions(&by_k, &cfg), 1);

        // Join verdict: the larger side (the probe scan, 1000 exact rows)
        // gates identically.
        let join = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(
                PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &["dv"],
                JoinKind::Inner,
                false,
                "j",
            )
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.join_min_partition_rows = rows;
        assert_eq!(root_partitions(&join, &cfg), 2);
        cfg.join_min_partition_rows = rows + 1;
        assert_eq!(root_partitions(&join, &cfg), 1);
        // Explicit partition count overrides worker-following; `1`
        // disables outright.
        cfg.join_min_partition_rows = rows;
        cfg.join_partitions = 2;
        assert_eq!(root_partitions(&join, &cfg), 2);
        cfg.join_partitions = 1;
        assert_eq!(root_partitions(&join, &cfg), 1);
    }

    #[test]
    fn inner_join_estimate_takes_the_larger_side() {
        // A big build table under a small probe: the build key `k` is NOT
        // distinct (7 values over 1000 rows), so each probe tuple can
        // match many build rows and the sound bound is the N·M product —
        // the estimate must not collapse to the 3-row probe side (it used
        // to, silently under-firing every verdict above the join).
        let rows = 1000;
        let c = catalog(rows);
        let join = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .hash_join(
                PlanBuilder::scan(&c, "t", &["k", "v"]),
                &[("dk", "k")],
                &["v"],
                JoinKind::Inner,
                false,
                "j",
            )
            .build()
            .unwrap();
        assert_eq!(row_bound(&join), 3 * rows);
        // The aggregation verdict directly above the join gates on the
        // payload key's NDV (`v` is unique over 1000 build rows), not the
        // 3000-row product estimate.
        let by_v = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .hash_join(
                PlanBuilder::scan(&c, "t", &["k", "v"]),
                &[("dk", "k")],
                &["v"],
                JoinKind::Inner,
                false,
                "j",
            )
            .hash_agg(&["v"], vec![count()], "agg")
            .build()
            .unwrap();
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = rows;
        assert_eq!(root_partitions(&by_v, &cfg), 2);
        cfg.agg_min_partition_groups = rows + 1;
        assert_eq!(root_partitions(&by_v, &cfg), 1);

        // Semi joins stay probe-bounded exactly: at most one output row
        // per probe tuple, regardless of the build side's size.
        let semi = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .hash_join(
                PlanBuilder::scan(&c, "t", &["k", "v"]),
                &[("dk", "k")],
                &[],
                JoinKind::Semi,
                false,
                "s",
            )
            .build()
            .unwrap();
        assert_eq!(row_bound(&semi), 3);

        // Merge join: the left key `v` is provably all-distinct (NDV ==
        // row count), so the unique-key contract is proven and the bound
        // is the streaming right side's 3 rows — not the 1000-row left.
        let mj = PlanBuilder::scan(&c, "d", &["dk", "dv"])
            .merge_join(
                PlanBuilder::scan(&c, "t", &["v", "k"]),
                ("dk", "v"),
                &["k"],
                "mj",
            )
            .build()
            .unwrap();
        assert_eq!(row_bound(&mj), 3);
    }

    #[test]
    fn catalog_row_count_is_the_estimate_source() {
        // The scan's row estimate comes from `Catalog::row_count`,
        // captured at plan-build time — not from the materialized table.
        // A metadata-backed catalog that answers a different count must
        // shift the estimate (and with it the partitioning verdicts).
        struct MetaCatalog(HashMap<String, Arc<Table>>);
        impl crate::plan::Catalog for MetaCatalog {
            fn lookup(&self, name: &str) -> Option<Arc<Table>> {
                self.0.get(name).cloned()
            }
            fn row_count(&self, name: &str) -> Option<usize> {
                // Pretend the stored table is a 10-row sample of a
                // metadata-known cardinality.
                self.0.get(name).map(|_| 500_000)
            }
        }
        let c = MetaCatalog(catalog(1000));
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"]).build().unwrap();
        assert_eq!(row_bound(&plan), 500_000);
        // The default-impl path (HashMap catalog) reports the exact
        // materialized count, as does `from_table`.
        let default_c = catalog(1000);
        let plan = PlanBuilder::scan(&default_c, "t", &["k", "v"])
            .build()
            .unwrap();
        assert_eq!(row_bound(&plan), 1000);
        let t = default_c.get("t").unwrap().clone();
        let plan = PlanBuilder::from_table(t, &["k", "v"]).build().unwrap();
        assert_eq!(row_bound(&plan), 1000);
    }

    #[test]
    fn partitioned_join_runs_one_instance_per_partition() {
        // The probe side is a sharded scan chain, so the planner must
        // partition the join: 4 private HashJoin instances (visible as 4
        // probe-hash instances under the plan node's label), results
        // identical to the single-instance join.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let mk_plan = |c: &HashMap<String, Arc<Table>>| {
            PlanBuilder::scan(c, "t", &["k", "v"])
                .hash_join(
                    PlanBuilder::scan(c, "d", &["dk", "dv"]),
                    &[("k", "dk")],
                    &["dv"],
                    JoinKind::Inner,
                    false,
                    "j",
                )
                .build()
                .unwrap()
        };
        let run = |workers: usize| {
            let plan = mk_plan(&c);
            let ctx = ctx_with_workers(workers);
            let mut op = lower(&plan, &ctx).unwrap();
            let chunks = collect(op.as_mut()).unwrap();
            drop(op);
            let mut out: Vec<(i32, i64, i64)> = chunks
                .iter()
                .flat_map(|ch| {
                    ch.live_positions()
                        .into_iter()
                        .map(|p| {
                            (
                                ch.column(0).as_i32()[p],
                                ch.column(1).as_i64()[p],
                                ch.column(2).as_i64()[p],
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            out.sort_unstable();
            (out, ctx)
        };
        let (seq, ctx1) = run(1);
        let (par, ctx4) = run(4);
        assert_eq!(seq, par, "partitioned join must match the single join");
        assert_eq!(seq.len(), (0..rows).filter(|i| i % 7 < 3).count());
        for &(k, _, dv) in &seq {
            assert_eq!(dv, k as i64 * 100);
        }
        let hash_instances = |ctx: &QueryContext| {
            ctx.reports()
                .iter()
                .filter(|r| r.label == "j/map_hash")
                .count()
        };
        assert_eq!(hash_instances(&ctx1), 1);
        assert_eq!(
            hash_instances(&ctx4),
            4,
            "expected one join instance per partition"
        );
    }

    #[test]
    fn semi_anti_and_left_single_joins_partition_exactly() {
        // Every key lands in one partition on both lanes, so the
        // partitioned union must be exact for all join kinds — including
        // the ones that depend on *absence* of matches.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let run = |workers: usize| {
                let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
                    .hash_join(
                        PlanBuilder::scan(&c, "d", &["dk"]),
                        &[("k", "dk")],
                        &[],
                        kind,
                        false,
                        "j",
                    )
                    .build()
                    .unwrap();
                let ctx = ctx_with_workers(workers);
                let mut op = lower(&plan, &ctx).unwrap();
                let mut vals: Vec<i64> = collect(op.as_mut())
                    .unwrap()
                    .iter()
                    .flat_map(|ch| {
                        ch.live_positions()
                            .into_iter()
                            .map(|p| ch.column(1).as_i64()[p])
                            .collect::<Vec<_>>()
                    })
                    .collect();
                vals.sort_unstable();
                vals
            };
            assert_eq!(run(1), run(4), "{kind:?} join not partition-exact");
        }
        // LeftSingle: unmatched probe tuples must get defaults in their
        // partition, exactly once.
        let run_ls = |workers: usize| {
            let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
                .left_single_join(
                    PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                    &[("k", "dk")],
                    &[("dv", Value::I64(-1))],
                    "ls",
                )
                .build()
                .unwrap();
            let ctx = ctx_with_workers(workers);
            let mut op = lower(&plan, &ctx).unwrap();
            let mut vals: Vec<(i64, i64)> = collect(op.as_mut())
                .unwrap()
                .iter()
                .flat_map(|ch| {
                    ch.live_positions()
                        .into_iter()
                        .map(|p| (ch.column(1).as_i64()[p], ch.column(2).as_i64()[p]))
                        .collect::<Vec<_>>()
                })
                .collect();
            vals.sort_unstable();
            vals
        };
        let (one, four) = (run_ls(1), run_ls(4));
        assert_eq!(one.len(), rows, "left-single keeps every probe tuple");
        assert_eq!(one, four);
    }

    #[test]
    fn sort_resets_order_under_merge_join() {
        // The left input of a merge join is explicitly sorted: everything
        // beneath the Sort is order-insensitive and shards into an
        // arrival-order Parallel union. The right (streaming) side is a
        // clustering-key chain, so it *also* shards — behind a merging
        // exchange that restores key order.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let left = PlanBuilder::scan(&c, "t", &["v as lv", "k as lk"])
            .filter(
                NamedPred::cmp_val("lv", CmpKind::Lt, Value::I64(50_000)),
                "lsel",
            )
            .sort(&[asc("lv")]);
        let plan = PlanBuilder::scan(&c, "t", &["v", "k"])
            .filter(
                NamedPred::cmp_val("v", CmpKind::Lt, Value::I64(10_000)),
                "rsel",
            )
            .merge_join(left, ("v", "lv"), &["lk"], "mj")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        assert_eq!(total_rows(&chunks), 10_000);
        let mut last = -1i64;
        for ch in &chunks {
            for p in ch.live_positions() {
                let v = ch.column(0).as_i64()[p];
                assert!(v > last, "merge join output not in key order");
                last = v;
            }
        }
        let count_label = |prefix: &str| {
            ctx.reports()
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .count()
        };
        assert_eq!(
            count_label("lsel/"),
            4,
            "sort-reset subtree should shard into 4 workers"
        );
        assert_eq!(
            count_label("rsel/"),
            4,
            "clustering-key merge-join input should shard behind a merging exchange"
        );
    }

    #[test]
    fn merge_join_inputs_shard_behind_merging_exchange() {
        // A merge join over a table large enough to shard: both inputs
        // are clustering-key chains, so the planner shards them behind
        // merging exchanges — correct, *sorted* results prove the merge
        // restored the order the join needs.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        // left: unique keys 0..rows (v is unique and sorted); right: same
        // table filtered — both sorted by v.
        let left = PlanBuilder::scan(&c, "t", &["v as lv", "k as lk"]);
        let plan = PlanBuilder::scan(&c, "t", &["v", "k"])
            .filter(
                NamedPred::cmp_val("v", CmpKind::Lt, Value::I64(10_000)),
                "sel",
            )
            .merge_join(left, ("v", "lv"), &["lk"], "mj")
            .build()
            .unwrap();
        assert_eq!(plan.schema().names(), vec!["v", "k", "lk"]);
        let ctx = ctx_with_workers(4);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        drop(op);
        assert_eq!(total_rows(&chunks), 10_000);
        let mut last = -1i64;
        for ch in &chunks {
            for p in ch.live_positions() {
                let v = ch.column(0).as_i64()[p];
                assert!(v > last, "merge join output not in key order");
                last = v;
                assert_eq!(ch.column(1).as_i32()[p], ch.column(2).as_i32()[p]);
            }
        }
        // Both sides ran sharded: one filter instance per worker on the
        // right, and the kernel still saw sorted streams (asserted above).
        let sel_instances = ctx
            .reports()
            .iter()
            .filter(|r| r.label.starts_with("sel/"))
            .count();
        assert_eq!(sel_instances, 4);
    }

    #[test]
    fn non_clustering_merge_key_stays_sequential() {
        // The planner's merge verdict mirrors the builder's structural
        // check: only a key that traces to the scanned table's clustering
        // (first) column shards behind a merging exchange; any other key
        // has no stored order to merge by and stays sequential.
        let rows = 3 * VECTORS_PER_MORSEL * 1024;
        let c = catalog(rows);
        let scan = || Box::new(PlanBuilder::scan(&c, "t", &["v", "k"]).build().unwrap());
        // A merge join on column `key` of both sides (hand-built: the
        // builder rejects a non-clustering key outright).
        let merge_on = |key: usize| LogicalPlan::MergeJoin {
            left: scan(),
            right: scan(),
            left_key: key,
            right_key: key,
            payload: vec![],
            label: "mj".into(),
            schema: scan().schema().clone(),
        };
        // The producer count behind each input's merging exchange.
        let producers = |plan: &LogicalPlan, cfg: &ExecConfig| -> Vec<usize> {
            let phys = plan_physical(plan, cfg);
            phys.children
                .iter()
                .map(|c| match c.kind {
                    PhysKind::Merge { .. } => c.instances,
                    _ => 1,
                })
                .collect()
        };
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        // Key 0 (`v`) is the clustering column: shards behind a merge.
        assert_eq!(producers(&merge_on(0), &cfg), vec![4, 4]);
        // Key 1 (`k`) has no stored order: sequential.
        assert_eq!(producers(&merge_on(1), &cfg), vec![1, 1]);
        // Single-worker engines never merge-shard.
        cfg.worker_threads = 1;
        assert_eq!(producers(&merge_on(0), &cfg), vec![1, 1]);
    }

    #[test]
    fn join_project_topn_pipeline() {
        let c = catalog(1000);
        let build = PlanBuilder::scan(&c, "d", &["dk", "dv"]);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .hash_join(build, &[("k", "dk")], &["dv"], JoinKind::Inner, true, "j")
            .project(
                vec![("k", col("k")), ("score", col("v").add(col("dv")))],
                "proj",
            )
            .top_n(&[desc("score")], 5)
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        assert_eq!(total_rows(&chunks), 5);
        let scores = chunks[0].column(1).as_i64();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn left_single_join_lowers_with_defaults() {
        let c = catalog(1000);
        let plan = PlanBuilder::scan(&c, "t", &["k", "v"])
            .left_single_join(
                PlanBuilder::scan(&c, "d", &["dk", "dv"]),
                &[("k", "dk")],
                &[("dv", Value::I64(-1))],
                "ls",
            )
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let chunks = collect(op.as_mut()).unwrap();
        assert_eq!(total_rows(&chunks), 1000);
        for ch in &chunks {
            for p in ch.live_positions() {
                let k = ch.column(0).as_i32()[p];
                let dv = ch.column(2).as_i64()[p];
                assert_eq!(dv, if k < 3 { k as i64 * 100 } else { -1 });
            }
        }
    }

    #[test]
    fn stream_agg_and_expr_lowering() {
        let c = catalog(100);
        let plan = PlanBuilder::scan(&c, "t", &["v"])
            .project(vec![("v2", col("v").mul(lit_i64(2)))], "proj")
            .stream_agg(vec![sum_i64("v2").named("total"), count()], "agg")
            .build()
            .unwrap();
        let ctx = ctx_with_workers(1);
        let mut op = lower(&plan, &ctx).unwrap();
        let ch = op.next().unwrap().unwrap();
        assert_eq!(ch.column(0).as_i64()[0], 99 * 100);
        assert_eq!(ch.column(1).as_i64()[0], 100);
    }
}
