//! The physical plan: every parallelism decision, made once.
//!
//! [`plan_physical`] walks a [`LogicalPlan`] under an [`ExecConfig`] and
//! records, per operator, how it will run — in a [`PhysPlan`] tree whose
//! nodes carry a node id, the stats label, the kind, the instance count,
//! any routed lanes, and the node's proven per-instance bytes and work
//! ([`mod@crate::cost`]'s formulas). It is the only caller of the verdict
//! functions in this module; every other pass reads their answers from
//! the tree:
//!
//! * [`crate::plan::lower`] instantiates operators from it;
//! * [`crate::verify`]'s physical phase checks its exchange placement;
//! * [`crate::cost()`] folds its nodes into per-stage rows;
//! * [`crate::plan::explain_physical`] renders it.
//!
//! The decisions:
//!
//! * **Sharding.** A Filter/Project chain over a scan under an
//!   order-insensitive consumer, with `worker_threads > 1` and enough rows
//!   to bother, becomes `n` morsel-driven worker fragments united by a
//!   [`PhysKind::Parallel`] exchange. The chain's selection and map
//!   primitives run *inside* each fragment, so every worker owns its own
//!   bandit state for them (per-worker micro adaptivity, DESIGN.md §5).
//! * **Partitioned aggregation.** A hash aggregation over a sharded chain
//!   — or over any input with enough proven groups — becomes a
//!   [`PhysKind::HashPartition`] exchange: producers route tuples by
//!   `hash(group keys) % P` to `P` private aggregate instances whose
//!   disjoint results union in arrival order (DESIGN.md §7).
//! * **Partitioned join builds.** A hash join over big enough inputs
//!   becomes a *two-lane* partition exchange: both sides route by
//!   `hash(join keys) % P` into `P` private join instances, so equal keys
//!   meet in the same partition and the union is exact for every join
//!   kind (DESIGN.md §8). A lane over a shardable chain takes the worker
//!   fragments themselves as its producers (no double exchange).
//! * **Order sensitivity.** A merge join needs key-sorted inputs, which an
//!   arrival-order union would break. The planner threads the required
//!   key down as an [`OrderCtx`]: a chain whose key traces to the table's
//!   clustering (first) column still shards — each morsel fragment is
//!   internally sorted, and a [`PhysKind::Merge`] exchange K-way-merges
//!   them back. Chains that can't prove the key's order stay sequential,
//!   and nodes that *reset* order (sorts, aggregates, join builds) drop
//!   back to unordered mode for their inputs.

use ma_vector::{DataType, VECTORS_PER_MORSEL};

use crate::analyze::RowBounds;
use crate::config::ExecConfig;
use crate::cost;
use crate::ops::ProjItem;
use crate::plan::builder::clustered_key_chain;
use crate::plan::LogicalPlan;

/// What a [`PhysPlan`] node runs.
#[derive(Debug, Clone)]
pub enum PhysKind<'a> {
    /// A base-table scan; `ordered` when an order-sensitive ancestor
    /// constrains it.
    Scan {
        /// Planned under an order constraint.
        ordered: bool,
    },
    /// A selection.
    Filter,
    /// A projection.
    Project,
    /// A hash aggregation.
    HashAgg {
        /// The proven group-count bound (the group table's sizing hint).
        groups: usize,
    },
    /// An ungrouped aggregation.
    StreamAgg,
    /// A hash join; children are build then probe.
    HashJoin {
        /// The proven build-side row bound (the build table's sizing hint).
        build_rows: usize,
    },
    /// A merge join over key-sorted inputs; children are left then right.
    MergeJoin,
    /// A sort (optionally a top-N).
    Sort,
    /// `instances` morsel fragments of the child chain, united in arrival
    /// order.
    Parallel {
        /// Byte bound of one exchanged chunk (the exchange's tracker bound).
        chunk_bytes: u64,
    },
    /// `instances` morsel fragments of the child chain, K-way merged back
    /// into key order.
    Merge {
        /// Merge key columns (the K-way merge compares exactly one).
        key_cols: Vec<usize>,
        /// Merge key types (must be integer).
        key_types: Vec<DataType>,
        /// Byte bound of one exchanged chunk (the exchange's tracker bound).
        chunk_bytes: u64,
    },
    /// Routed lanes feeding `partitions` instances of the child consumer
    /// (one lane for an aggregation, build and probe lanes for a join).
    /// `instances` is the widest lane's producer count.
    HashPartition {
        /// Consumer partition count.
        partitions: usize,
        /// Routed input lanes.
        lanes: Vec<PhysLane<'a>>,
        /// Byte bound of one exchanged chunk (the exchange's tracker bound).
        chunk_bytes: u64,
    },
}

impl PhysKind<'_> {
    /// The operator kind as [`crate::OpCost::kind`] reports it.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PhysKind::Scan { .. } => "scan",
            PhysKind::Filter => "filter",
            PhysKind::Project => "project",
            PhysKind::HashAgg { .. } => "hash-agg",
            PhysKind::StreamAgg => "stream-agg",
            PhysKind::HashJoin { .. } => "hash-join",
            PhysKind::MergeJoin => "merge-join",
            PhysKind::Sort => "sort",
            PhysKind::Parallel { .. } | PhysKind::Merge { .. } | PhysKind::HashPartition { .. } => {
                "exchange"
            }
        }
    }
}

/// One routed lane of a [`PhysKind::HashPartition`] exchange.
#[derive(Debug, Clone)]
pub struct PhysLane<'a> {
    /// Producer fragments feeding the lane. Two or more means `input` is
    /// a morsel-sharded scan chain instantiated once per producer; one
    /// means `input` is lowered as an ordinary subtree.
    pub producers: usize,
    /// The columns (of `input`'s output) the lane routes by.
    pub key_cols: Vec<usize>,
    /// Their types (compared by class: all integer widths hash as `i64`).
    pub key_types: Vec<DataType>,
    /// The partition count the lane routes to.
    pub partitions: usize,
    /// The producer-side plan.
    pub input: PhysPlan<'a>,
}

/// One node of the physical plan. Fields are public so tests can
/// hand-build shapes the planner never produces.
#[derive(Debug, Clone)]
pub struct PhysPlan<'a> {
    /// Preorder position in the plan (exchange, consumer, children, lanes).
    pub id: usize,
    /// Stats / memory-tracker label.
    pub label: String,
    /// What runs, with the decision's parameters.
    pub kind: PhysKind<'a>,
    /// Parallel instances: partitions for an operator, producers for an
    /// exchange, 1 for a node inside a fragment (one per fragment).
    pub instances: usize,
    /// Peak resident bytes proven for **one** instance.
    pub per_instance_bytes: u64,
    /// Work bound: input tuples × a per-operator cost constant.
    pub work: u64,
    /// Inputs (build before probe, left before right); the consumer
    /// under a [`PhysKind::HashPartition`]; the fragment chain under a
    /// [`PhysKind::Parallel`] or [`PhysKind::Merge`].
    pub children: Vec<PhysPlan<'a>>,
    /// The logical node this one instantiates (the chain top for a morsel
    /// exchange, the consumer for a partition exchange).
    pub logical: &'a LogicalPlan,
}

impl<'a> PhysPlan<'a> {
    /// Visits every node in id order: the node, its children, then the
    /// inputs of its lanes.
    pub fn visit(&self, f: &mut dyn FnMut(&PhysPlan<'a>)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
        if let PhysKind::HashPartition { lanes, .. } = &self.kind {
            for lane in lanes {
                lane.input.visit(f);
            }
        }
    }
}

/// Decides how `plan` runs under `cfg`: sharding, merging, partition
/// counts and lane shapes, plus every node's proven bounds.
pub fn plan_physical<'a>(plan: &'a LogicalPlan, cfg: &ExecConfig) -> PhysPlan<'a> {
    plan_with(plan, cfg, RowBounds::of(plan))
}

/// [`plan_physical`] over row bounds the caller already derived.
pub(crate) fn plan_with<'a>(
    plan: &'a LogicalPlan,
    cfg: &ExecConfig,
    bounds: RowBounds<'a>,
) -> PhysPlan<'a> {
    let mut planner = Planner {
        cfg,
        bounds,
        next_id: 0,
    };
    planner.node(plan, OrderCtx::Free, false)
}

/// The ordering constraint an ancestor imposes on a node's output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderCtx {
    /// No order-sensitive ancestor: scans may shard freely.
    Free,
    /// An ancestor consumes the output sorted ascending by this output
    /// column. Scans may still shard — behind a merging exchange on the
    /// key — when the key provably carries the table's clustering order.
    Key(usize),
    /// Ordered, but the key doesn't survive the mapping to this node's
    /// schema (e.g. a computed projection): sequential scans only.
    Pinned,
}

struct Planner<'a, 'c> {
    cfg: &'c ExecConfig,
    /// Row bounds of every node of the plan being planned.
    bounds: RowBounds<'a>,
    next_id: usize,
}

impl<'a> Planner<'a, '_> {
    fn id(&mut self) -> usize {
        self.next_id += 1;
        self.next_id - 1
    }

    /// `plan` under the ancestor constraint `order`. Inside a fragment
    /// (`fragment`) the chain is already sharded and never re-exchanges.
    fn node(&mut self, plan: &'a LogicalPlan, order: OrderCtx, fragment: bool) -> PhysPlan<'a> {
        if !fragment {
            if let Some(exchange) = self.morsel_exchange(plan, order) {
                return exchange;
            }
        }
        self.op(plan, order, fragment)
    }

    /// The morsel exchange over a shardable chain: an arrival-order union
    /// under a free consumer, a merging exchange under an ordered one
    /// whose key carries the clustering order, `None` otherwise.
    fn morsel_exchange(&mut self, plan: &'a LogicalPlan, order: OrderCtx) -> Option<PhysPlan<'a>> {
        let (producers, merge_key) = match order {
            OrderCtx::Free if shardable_chain(plan, self.cfg) => {
                (self.cfg.worker_threads.max(1), None)
            }
            OrderCtx::Key(key) => match merge_workers(plan, key, self.cfg) {
                producers if producers >= 2 => (producers, Some(key)),
                _ => return None,
            },
            _ => return None,
        };
        let chunk_bytes = cost::chunk_bound(plan, self.cfg.vector_size);
        let (label, kind) = match merge_key {
            None => ("exchange/parallel", PhysKind::Parallel { chunk_bytes }),
            Some(key) => (
                "exchange/merge",
                PhysKind::Merge {
                    key_cols: vec![key],
                    key_types: vec![plan.schema().field(key).ty],
                    chunk_bytes,
                },
            ),
        };
        let id = self.id();
        let (per_instance_bytes, work) =
            cost::exchange_bounds(&self.bounds, plan, producers, 1, self.cfg.vector_size);
        let chain = self.node(plan, order, true);
        Some(PhysPlan {
            id,
            label: label.to_string(),
            kind,
            instances: producers,
            per_instance_bytes,
            work,
            children: vec![chain],
            logical: plan,
        })
    }

    fn op(&mut self, plan: &'a LogicalPlan, order: OrderCtx, fragment: bool) -> PhysPlan<'a> {
        let id = self.id();
        let free = order == OrderCtx::Free;
        let kind = match plan {
            LogicalPlan::Scan { .. } => PhysKind::Scan { ordered: !free },
            LogicalPlan::Filter { .. } => PhysKind::Filter,
            LogicalPlan::Project { .. } => PhysKind::Project,
            LogicalPlan::HashAgg { input, keys, .. } => {
                let kind = PhysKind::HashAgg {
                    groups: self.bounds.rows(plan),
                };
                // Aggregation resets order for its input, but an ordered
                // *ancestor* still pins the aggregate itself to a single
                // (deterministically ordered) instance.
                let partitions = if free {
                    agg_partition_count(input, keys, self.bounds.rows(plan), self.cfg)
                } else {
                    1
                };
                if partitions >= 2 {
                    return self.partitioned(id, plan, kind, partitions, &[(&**input, keys)]);
                }
                kind
            }
            LogicalPlan::StreamAgg { .. } => PhysKind::StreamAgg,
            LogicalPlan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                ..
            } => {
                let kind = PhysKind::HashJoin {
                    build_rows: self.bounds.rows(build),
                };
                // A partitioned join's outputs union in arrival order, so
                // an ordered ancestor pins the join to a single instance.
                let partitions = if free {
                    join_partition_count(build, probe, self.cfg, &self.bounds)
                } else {
                    1
                };
                if partitions >= 2 {
                    let lanes = [(&**build, build_keys), (&**probe, probe_keys)];
                    return self.partitioned(id, plan, kind, partitions, &lanes);
                }
                kind
            }
            LogicalPlan::MergeJoin { .. } => PhysKind::MergeJoin,
            LogicalPlan::Sort { .. } => PhysKind::Sort,
        };
        // Only chains reach here inside a fragment, so `fragment` passes
        // down unchanged.
        let children = plan
            .inputs()
            .into_iter()
            .enumerate()
            .map(|(i, input)| self.node(input, child_order(plan, i, order), fragment))
            .collect();
        let (per_instance_bytes, work) = cost::op_bounds(&self.bounds, plan, self.cfg.vector_size);
        PhysPlan {
            id,
            label: label_of(plan),
            kind,
            instances: 1,
            per_instance_bytes,
            work,
            children,
            logical: plan,
        }
    }

    /// A partition exchange (node `id`) routing one lane per `(input,
    /// keys)` into `partitions` instances of the consumer `plan`. Every
    /// instance carries the consumer's full proven bound: hash routing
    /// makes no distribution promise, so one partition may receive all.
    fn partitioned(
        &mut self,
        id: usize,
        plan: &'a LogicalPlan,
        kind: PhysKind<'a>,
        partitions: usize,
        inputs: &[(&'a LogicalPlan, &'a Vec<usize>)],
    ) -> PhysPlan<'a> {
        let vector_size = self.cfg.vector_size;
        let (per_instance_bytes, work) = cost::op_bounds(&self.bounds, plan, vector_size);
        let consumer = PhysPlan {
            id: self.id(),
            label: label_of(plan),
            kind,
            instances: partitions,
            per_instance_bytes,
            work,
            children: vec![],
            logical: plan,
        };
        let lanes: Vec<PhysLane<'a>> = inputs
            .iter()
            .map(|&(input, keys)| self.lane(input, keys, partitions))
            .collect();
        let producers = lanes.iter().map(|l| l.producers).max().unwrap_or(1);
        let (per_instance_bytes, work) =
            cost::exchange_bounds(&self.bounds, plan, producers, partitions, vector_size);
        let chunk_bytes = cost::exchange_chunk(plan, vector_size);
        PhysPlan {
            id,
            label: format!("{}/exchange", consumer.label),
            kind: PhysKind::HashPartition {
                partitions,
                lanes,
                chunk_bytes,
            },
            instances: producers,
            per_instance_bytes,
            work,
            children: vec![consumer],
            logical: plan,
        }
    }

    /// A routed lane: the worker fragments themselves when the input is a
    /// shardable chain (no double exchange), the input's own plan
    /// otherwise.
    fn lane(&mut self, input: &'a LogicalPlan, keys: &[usize], partitions: usize) -> PhysLane<'a> {
        let sharded = shardable_chain(input, self.cfg);
        PhysLane {
            producers: if sharded {
                self.cfg.worker_threads.max(1)
            } else {
                1
            },
            key_cols: keys.to_vec(),
            key_types: keys.iter().map(|&k| input.schema().field(k).ty).collect(),
            partitions,
            input: self.node(input, OrderCtx::Free, sharded),
        }
    }
}

/// The stats / tracker label of the operator `plan` lowers to.
fn label_of(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table, .. } => table.name().to_string(),
        LogicalPlan::Filter { label, .. }
        | LogicalPlan::Project { label, .. }
        | LogicalPlan::HashAgg { label, .. }
        | LogicalPlan::StreamAgg { label, .. }
        | LogicalPlan::HashJoin { label, .. }
        | LogicalPlan::MergeJoin { label, .. } => label.clone(),
        LogicalPlan::Sort { .. } => "sort".to_string(),
    }
}

// ---------------------------------------------------------------------------
// the verdicts
// ---------------------------------------------------------------------------

/// Ordered-mode propagation from `plan` to its child at `idx` (0 = input/
/// build/left, 1 = probe/right), given the constraint on the node itself:
///
/// * Filter streams through — the constraint (and its key index) passes;
/// * Project passes the constraint through pass-through items, mapping
///   the key index; a computed key pins the subtree sequential;
/// * Sort re-sorts and aggregates materialize — order *resets*, the
///   subtree may shard even under a merge join;
/// * a hash join's build side materializes (resets) while its probe side
///   streams (inherits; a key pointing at a build payload column pins);
/// * a merge join imposes its key on both children.
pub(crate) fn child_order(plan: &LogicalPlan, idx: usize, order: OrderCtx) -> OrderCtx {
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } => order,
        LogicalPlan::Project { items, .. } => match order {
            OrderCtx::Key(k) => match items.get(k) {
                Some(ProjItem::Pass(i)) => OrderCtx::Key(*i),
                _ => OrderCtx::Pinned,
            },
            other => other,
        },
        LogicalPlan::HashAgg { .. } | LogicalPlan::StreamAgg { .. } | LogicalPlan::Sort { .. } => {
            OrderCtx::Free
        }
        LogicalPlan::HashJoin { probe, .. } => {
            if idx == 0 {
                OrderCtx::Free
            } else {
                match order {
                    OrderCtx::Key(k) if k >= probe.schema().fields().len() => OrderCtx::Pinned,
                    other => other,
                }
            }
        }
        LogicalPlan::MergeJoin {
            left_key,
            right_key,
            ..
        } => OrderCtx::Key(if idx == 0 { *left_key } else { *right_key }),
    }
}

/// Whether `plan` is a Filter/Project chain over a scan that shards into
/// morsel fragments: not when the pipeline contains a blocking/join node,
/// the engine is single-threaded, or the table yields too few morsels to
/// bother.
pub(crate) fn shardable_chain(plan: &LogicalPlan, cfg: &ExecConfig) -> bool {
    if cfg.worker_threads.max(1) == 1 {
        return false;
    }
    match plan {
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            shardable_chain(input, cfg)
        }
        // Sharding a table that yields only a couple of morsels buys
        // nothing.
        LogicalPlan::Scan { table, .. } => table.rows() >= 2 * VECTORS_PER_MORSEL * cfg.vector_size,
        _ => false,
    }
}

/// The sharding verdict for an *ordered* pipeline: the producer count
/// behind a merging exchange on output column `key` (`< 2` means a
/// sequential scan).
///
/// Shards when the node is a shardable chain *and* the key provably
/// carries the scanned table's clustering (first-column) order — the same
/// structural test the plan builder applies to merge-join inputs
/// ([`clustered_key_chain`]). Each morsel fragment then emits disjoint
/// ascending key ranges (workers claim morsels in increasing row order),
/// so the K-way merge restores the global order exactly.
pub(crate) fn merge_workers(plan: &LogicalPlan, key: usize, cfg: &ExecConfig) -> usize {
    if !shardable_chain(plan, cfg) || !clustered_key_chain(plan, key) {
        return 1;
    }
    cfg.worker_threads.max(1)
}

/// The partitioning verdict for a hash aggregation over `input`: the
/// partition count (`< 2` means a single aggregate instance).
///
/// Partition when the input is itself a sharded scan chain (the producers
/// are already parallel — serializing them behind one aggregate would be
/// the Amdahl bottleneck this exchange exists to remove), or when the
/// **proven group-count bound** reaches
/// [`ExecConfig::agg_min_partition_groups`] (a heavy aggregate behind a
/// serial producer still parallelizes its hash-table work). The bound is
/// the abstract interpreter's `min(row bound, Π key NDV)`
/// (`groups`, the aggregate's row bound) — a low-NDV key (e.g. a flag column)
/// provably caps the group count, so the aggregate stays single where the
/// raw row estimate would over-trigger partitioning.
pub(crate) fn agg_partition_count(
    input: &LogicalPlan,
    keys: &[usize],
    groups: usize,
    cfg: &ExecConfig,
) -> usize {
    let partitions = if cfg.agg_partitions == 0 {
        cfg.worker_threads.max(1)
    } else {
        cfg.agg_partitions
    };
    if partitions < 2 {
        return 1;
    }
    if shardable_chain(input, cfg) {
        return partitions;
    }
    // Group demand in raw-width units, discounted when the key columns
    // arrive dictionary-coded (DESIGN.md §13): the per-group resident
    // footprint shrinks with the keys, so fewer partitions are needed to
    // keep each under the threshold.
    let demand = cost::enc_weighted_demand(groups, input, Some(keys));
    if demand >= cfg.agg_min_partition_groups {
        // An explicit `agg_partitions` knob is an exact override; in auto
        // mode the cost model sizes the partition count to the proven
        // demand instead of fanning out to every worker unconditionally.
        return if cfg.agg_partitions != 0 {
            partitions
        } else {
            cost::pick_partitions(demand, cfg.agg_min_partition_groups, partitions)
        };
    }
    1
}

/// The partitioning verdict for a hash join: the partition count (`< 2`
/// means one join instance with a single shared build table).
///
/// Partition when either side is itself a sharded scan chain (its
/// producers are already parallel; a single build would serialize them),
/// or when the larger side's proven row bound
/// ([`RowBounds::rows`], anchored on exact base-table row
/// counts) reaches [`ExecConfig::join_min_partition_rows`]. Equal keys
/// route to the same partition on both lanes, so per-partition joins are
/// exact — but their outputs union in arrival order, so the caller must
/// not partition under an ordered ancestor.
pub(crate) fn join_partition_count(
    build: &LogicalPlan,
    probe: &LogicalPlan,
    cfg: &ExecConfig,
    bounds: &RowBounds<'_>,
) -> usize {
    let partitions = if cfg.join_partitions == 0 {
        cfg.worker_threads.max(1)
    } else {
        cfg.join_partitions
    };
    if partitions < 2 {
        return 1;
    }
    if shardable_chain(probe, cfg) || shardable_chain(build, cfg) {
        return partitions;
    }
    // Each side's row demand, discounted by its encoded/raw row-width
    // ratio when its columns arrive dictionary-coded (DESIGN.md §13).
    let demand = cost::enc_weighted_demand(bounds.rows(build), build, None)
        .max(cost::enc_weighted_demand(bounds.rows(probe), probe, None));
    if demand >= cfg.join_min_partition_rows {
        // Explicit `join_partitions` overrides; auto mode lets the cost
        // model size the fan-out to the proven demand.
        return if cfg.join_partitions != 0 {
            partitions
        } else {
            cost::pick_partitions(demand, cfg.join_min_partition_rows, partitions)
        };
    }
    1
}
