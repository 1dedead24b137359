//! `EXPLAIN`-style rendering of physical plans.
//!
//! A [`PhysPlan`] implements [`std::fmt::Display`] as an indented tree.
//! Every line shows the operator, its parameters mapped back to column
//! *names*, and the resolved output schema, plus the verdicts the plan
//! records: `HashAgg (partitioned ×P)` / `HashJoin (partitioned ×P)` for a
//! consumer behind a hash-partitioning exchange, a `Merge ×N` node above
//! each ordered chain sharded into `(morsel)` scans, and per scan
//! `(shardable)` when no order-sensitive ancestor constrains it or
//! `(ordered)` when one does. Arrival-order unions are not drawn: their
//! scans already read `(shardable)`.
//!
//! [`explain_physical`] renders the plan [`crate::plan::lower`] will run
//! under a concrete [`ExecConfig`]. [`LogicalPlan`]'s own `Display` is the
//! single-worker rendering, which carries no exchange at all.

use std::fmt;

use ma_vector::Schema;

use crate::config::ExecConfig;
use crate::expr::{CmpKind, CmpRhs, Expr, Pred, Value};
use crate::ops::{AggSpec, JoinKind, ProjItem, SortKey};
use crate::plan::physical::{plan_physical, PhysKind, PhysPlan};
use crate::plan::LogicalPlan;

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", plan_physical(self, &ExecConfig::default()))
    }
}

impl fmt::Display for PhysPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_node(f, self, 0, None, false)
    }
}

/// Renders the physical plan of `plan` under `config` (worker count,
/// partition knobs): operators the planner partitions are annotated
/// `(partitioned ×P)`, and ordered chains it shards render under a
/// `Merge ×N` node with `(morsel)` scans.
pub fn explain_physical(plan: &LogicalPlan, config: &ExecConfig) -> String {
    plan_physical(plan, config).to_string()
}

/// `morsel`: the node is part of a chain sharded under a `Merge ×N` node.
fn fmt_node(
    f: &mut fmt::Formatter<'_>,
    node: &PhysPlan<'_>,
    indent: usize,
    tag: Option<&str>,
    morsel: bool,
) -> fmt::Result {
    let inputs: Vec<&PhysPlan<'_>> = match &node.kind {
        PhysKind::Parallel { .. } => return fmt_node(f, &node.children[0], indent, tag, morsel),
        PhysKind::HashPartition { lanes, .. } => lanes.iter().map(|l| &l.input).collect(),
        _ => node.children.iter().collect(),
    };
    write!(f, "{:indent$}", "", indent = indent * 2)?;
    if let Some(t) = tag {
        write!(f, "{t}: ")?;
    }
    if let PhysKind::Merge { key_cols, .. } = &node.kind {
        let schema = node.logical.schema();
        let key = &schema.field(key_cols[0]).name;
        writeln!(f, "Merge \u{d7}{} on {key} -> {schema}", node.instances)?;
        return fmt_node(f, &node.children[0], indent + 1, None, true);
    }
    fmt_line(f, node, morsel)?;
    let tags: [Option<&str>; 2] = match node.logical {
        LogicalPlan::HashJoin { .. } => [Some("build"), Some("probe")],
        LogicalPlan::MergeJoin { .. } => [Some("left"), Some("right")],
        _ => [None, None],
    };
    for (input, tag) in inputs.into_iter().zip(tags) {
        fmt_node(f, input, indent + 1, tag, morsel)?;
    }
    Ok(())
}

/// One operator's line: its logical node plus the verdicts `node`
/// records (the partition count of a partition exchange's consumer, a
/// scan's mode).
fn fmt_line(f: &mut fmt::Formatter<'_>, node: &PhysPlan<'_>, morsel: bool) -> fmt::Result {
    let partitioned = match node.kind {
        PhysKind::HashPartition { partitions, .. } => format!("(partitioned \u{d7}{partitions}) "),
        _ => String::new(),
    };
    match node.logical {
        LogicalPlan::Scan {
            table,
            cols,
            schema,
            ..
        } => {
            let mode = match node.kind {
                _ if morsel => "morsel",
                PhysKind::Scan { ordered: true } => "ordered",
                _ => "shardable",
            };
            // Per-column storage codecs, so the plan shows which scans
            // decode through flavored primitives (`enc=[col:codec, ..]`).
            let encs: Vec<String> = cols
                .iter()
                .filter_map(|name| {
                    let i = table.column_index(name).ok()?;
                    let e = table.column_at(i).encoding()?;
                    Some(format!("{name}:{e}"))
                })
                .collect();
            if encs.is_empty() {
                writeln!(f, "Scan {} ({mode}) -> {schema}", table.name())
            } else {
                writeln!(
                    f,
                    "Scan {} ({mode}) enc=[{}] -> {schema}",
                    table.name(),
                    encs.join(", ")
                )
            }
        }
        LogicalPlan::Filter {
            input,
            pred,
            schema,
            ..
        } => writeln!(
            f,
            "Filter {} -> {schema}",
            render_pred(pred, input.schema())
        ),
        LogicalPlan::Project {
            input,
            items,
            schema,
            ..
        } => {
            let parts: Vec<String> = items
                .iter()
                .zip(schema.fields())
                .map(|(item, field)| match item {
                    ProjItem::Pass(i) if input.schema().field(*i).name == field.name => {
                        field.name.clone()
                    }
                    ProjItem::Pass(i) => {
                        format!("{}={}", field.name, input.schema().field(*i).name)
                    }
                    ProjItem::Expr(e) => {
                        format!("{}={}", field.name, render_expr(e, input.schema()))
                    }
                })
                .collect();
            writeln!(f, "Project [{}] -> {schema}", parts.join(", "))
        }
        LogicalPlan::HashAgg {
            input,
            keys,
            aggs,
            schema,
            ..
        } => {
            let key_names: Vec<&str> = keys
                .iter()
                .map(|&i| input.schema().field(i).name.as_str())
                .collect();
            writeln!(
                f,
                "HashAgg {partitioned}keys=[{}] aggs=[{}] -> {schema}",
                key_names.join(", "),
                render_aggs(aggs, keys.len(), input.schema(), schema)
            )
        }
        LogicalPlan::StreamAgg {
            input,
            aggs,
            schema,
            ..
        } => writeln!(
            f,
            "StreamAgg [{}] -> {schema}",
            render_aggs(aggs, 0, input.schema(), schema)
        ),
        LogicalPlan::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            payload,
            kind,
            bloom,
            schema,
            ..
        } => {
            let kind_name = match kind {
                JoinKind::Inner => "inner",
                JoinKind::Semi => "semi",
                JoinKind::Anti => "anti",
                JoinKind::LeftSingle => "left-single",
            };
            let on: Vec<String> = probe_keys
                .iter()
                .zip(build_keys)
                .map(|(&p, &b)| {
                    format!(
                        "{} = {}",
                        probe.schema().field(p).name,
                        build.schema().field(b).name
                    )
                })
                .collect();
            let pay: Vec<&str> = payload
                .iter()
                .map(|&i| build.schema().field(i).name.as_str())
                .collect();
            write!(
                f,
                "HashJoin {partitioned}{kind_name} on ({})",
                on.join(", ")
            )?;
            if !pay.is_empty() {
                write!(f, " payload=[{}]", pay.join(", "))?;
            }
            if *bloom {
                write!(f, " bloom")?;
            }
            writeln!(f, " -> {schema}")
        }
        LogicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            payload,
            schema,
            ..
        } => {
            let pay: Vec<&str> = payload
                .iter()
                .map(|&i| left.schema().field(i).name.as_str())
                .collect();
            write!(
                f,
                "MergeJoin on ({} = {})",
                right.schema().field(*right_key).name,
                left.schema().field(*left_key).name
            )?;
            if !pay.is_empty() {
                write!(f, " payload=[{}]", pay.join(", "))?;
            }
            writeln!(f, " -> {schema}")
        }
        LogicalPlan::Sort {
            input,
            keys,
            limit,
            schema,
        } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|k: &SortKey| {
                    format!(
                        "{} {}",
                        input.schema().field(k.col).name,
                        if k.desc { "desc" } else { "asc" }
                    )
                })
                .collect();
            write!(f, "Sort [{}]", ks.join(", "))?;
            if let Some(l) = limit {
                write!(f, " limit={l}")?;
            }
            writeln!(f, " -> {schema}")
        }
    }
}

fn render_aggs(aggs: &[AggSpec], key_count: usize, input: &Schema, out: &Schema) -> String {
    aggs.iter()
        .enumerate()
        .map(|(i, spec)| {
            let out_name = &out.field(key_count + i).name;
            let body = match spec {
                AggSpec::SumI64(c) => format!("sum_i64({})", input.field(*c).name),
                AggSpec::SumF64(c) => format!("sum_f64({})", input.field(*c).name),
                AggSpec::CountStar => "count(*)".to_string(),
                AggSpec::MinI64(c) => format!("min_i64({})", input.field(*c).name),
                AggSpec::MaxI64(c) => format!("max_i64({})", input.field(*c).name),
                AggSpec::MinF64(c) => format!("min_f64({})", input.field(*c).name),
                AggSpec::MaxF64(c) => format!("max_f64({})", input.field(*c).name),
            };
            format!("{out_name}={body}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_value(v: &Value) -> String {
    match v {
        Value::I16(x) => x.to_string(),
        Value::I32(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

fn cmp_symbol(op: CmpKind) -> &'static str {
    match op {
        CmpKind::Lt => "<",
        CmpKind::Le => "<=",
        CmpKind::Gt => ">",
        CmpKind::Ge => ">=",
        CmpKind::Eq => "=",
        CmpKind::Ne => "<>",
    }
}

/// Renders a resolved predicate with indices mapped back to names.
pub(crate) fn render_pred(pred: &Pred, schema: &Schema) -> String {
    match pred {
        Pred::Cmp { col, op, rhs } => {
            let lhs = &schema.field(*col).name;
            let rhs = match rhs {
                CmpRhs::Const(v) => render_value(v),
                CmpRhs::Col(i) => schema.field(*i).name.clone(),
            };
            format!("{lhs} {} {rhs}", cmp_symbol(*op))
        }
        Pred::Like { col, pattern } => format!("{} LIKE '{pattern}'", schema.field(*col).name),
        Pred::NotLike { col, pattern } => {
            format!("{} NOT LIKE '{pattern}'", schema.field(*col).name)
        }
        Pred::InStr { col, values } => {
            let vs: Vec<String> = values.iter().map(|v| format!("'{v}'")).collect();
            format!("{} IN ({})", schema.field(*col).name, vs.join(", "))
        }
        Pred::And(ps) => ps
            .iter()
            .map(|p| paren_composite(p, schema))
            .collect::<Vec<_>>()
            .join(" AND "),
        Pred::Or(ps) => ps
            .iter()
            .map(|p| paren_composite(p, schema))
            .collect::<Vec<_>>()
            .join(" OR "),
    }
}

fn paren_composite(p: &Pred, schema: &Schema) -> String {
    match p {
        Pred::And(_) | Pred::Or(_) => format!("({})", render_pred(p, schema)),
        _ => render_pred(p, schema),
    }
}

/// Renders a resolved expression with indices mapped back to names.
pub(crate) fn render_expr(expr: &Expr, schema: &Schema) -> String {
    match expr {
        Expr::Col(i) => schema.field(*i).name.clone(),
        Expr::Const(v) => render_value(v),
        Expr::Arith { op, lhs, rhs } => {
            let sym = match op {
                crate::expr::ArithKind::Add => "+",
                crate::expr::ArithKind::Sub => "-",
                crate::expr::ArithKind::Mul => "*",
                crate::expr::ArithKind::Div => "/",
            };
            format!(
                "({} {sym} {})",
                render_expr(lhs, schema),
                render_expr(rhs, schema)
            )
        }
        Expr::Cast { to, inner } => format!("{to}({})", render_expr(inner, schema)),
        Expr::Substr { col, start, len } => {
            format!("substr({}, {start}, {len})", schema.field(*col).name)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::JoinKind;
    use crate::plan::expr::{asc, col, count, lit_f64, sum_f64};
    use crate::plan::{NamedPred, PlanBuilder};
    use ma_vector::{ColumnBuilder, DataType, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn catalog() -> HashMap<String, Arc<Table>> {
        let mk = |name: &str| {
            let mut k = ColumnBuilder::with_capacity(DataType::I32, 4);
            let mut s = ColumnBuilder::with_capacity(DataType::Str, 4);
            let mut x = ColumnBuilder::with_capacity(DataType::F64, 4);
            for i in 0..4 {
                k.push_i32(i as i32);
                s.push_str(["a", "b", "c", "d"][i]);
                x.push_f64(i as f64);
            }
            Arc::new(
                Table::new(
                    name,
                    vec![
                        ("k".into(), k.finish()),
                        ("s".into(), s.finish()),
                        ("x".into(), x.finish()),
                    ],
                )
                .unwrap(),
            )
        };
        let mut c = HashMap::new();
        c.insert("t".to_string(), mk("t"));
        c.insert("d".to_string(), mk("d"));
        c
    }

    #[test]
    fn renders_full_tree_with_schemas() {
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s", "x"])
            .filter(NamedPred::in_str("s", ["a", "b"]), "sel")
            .hash_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "x as dx"]),
                &[("k", "dk")],
                &["dx"],
                JoinKind::Inner,
                true,
                "j",
            )
            .project(
                vec![("s", col("s")), ("y", col("x").mul(lit_f64(2.0)))],
                "p",
            )
            .hash_agg(&["s"], vec![count(), sum_f64("y")], "agg")
            .sort(&[asc("s")])
            .build()
            .unwrap();
        let text = plan.to_string();
        let expected = "\
Sort [s asc] -> (s:str, count:i64, sum_y:f64)
  HashAgg keys=[s] aggs=[count=count(*), sum_y=sum_f64(y)] -> (s:str, count:i64, sum_y:f64)
    Project [s, y=(x * 2)] -> (s:str, y:f64)
      HashJoin inner on (k = dk) payload=[dx] bloom -> (k:i32, s:str, x:f64, dx:f64)
        build: Scan d (shardable) -> (dk:i32, dx:f64)
        probe: Filter s IN ('a', 'b') -> (k:i32, s:str, x:f64)
          Scan t (shardable) -> (k:i32, s:str, x:f64)
";
        assert_eq!(text, expected);
    }

    #[test]
    fn merge_join_marks_scans_ordered() {
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s"])
            .merge_join(
                PlanBuilder::scan(&c, "d", &["k as dk", "s as ds"]),
                ("k", "dk"),
                &["ds"],
                "mj",
            )
            .build()
            .unwrap();
        let text = plan.to_string();
        assert!(text.contains("left: Scan d (ordered)"), "{text}");
        assert!(text.contains("right: Scan t (ordered)"), "{text}");
        assert!(!text.contains("shardable"), "{text}");
    }

    #[test]
    fn physical_rendering_shows_partition_verdict() {
        use crate::config::ExecConfig;
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "x"])
            .hash_agg(&["k"], vec![count(), sum_f64("x")], "agg")
            .build()
            .unwrap();
        // Structural rendering carries no physical verdict.
        assert!(!plan.to_string().contains("partitioned"), "{plan}");
        // 4 workers + a trivial group threshold: the planner partitions.
        let mut cfg = ExecConfig::fixed_default();
        cfg.worker_threads = 4;
        cfg.agg_min_partition_groups = 1;
        let text = super::explain_physical(&plan, &cfg);
        assert!(
            text.contains("HashAgg (partitioned \u{d7}4) keys=[k]"),
            "{text}"
        );
        // A single-worker config renders the same tree unannotated.
        let text1 = super::explain_physical(&plan, &ExecConfig::fixed_default());
        assert_eq!(text1, plan.to_string());
    }

    #[test]
    fn pred_rendering_covers_all_forms() {
        use crate::expr::{CmpKind, Value};
        let c = catalog();
        let plan = PlanBuilder::scan(&c, "t", &["k", "s", "x"])
            .filter(
                NamedPred::Or(vec![
                    NamedPred::And(vec![
                        NamedPred::cmp_val("k", CmpKind::Ge, Value::I32(1)),
                        NamedPred::not_like("s", "%z%"),
                    ]),
                    NamedPred::cmp_col("x", CmpKind::Lt, "x"),
                ]),
                "sel",
            )
            .build()
            .unwrap();
        let text = plan.to_string();
        assert!(
            text.contains("Filter (k >= 1 AND s NOT LIKE '%z%') OR x < x"),
            "{text}"
        );
    }
}
