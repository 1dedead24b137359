//! Workloads, flavor modes and the two ways of running one query: plain
//! (what the timed phase does) and traced (every layer call timed, and
//! the engine's public reports read afterwards).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ma_bench::experiments::checksums_match;
use ma_core::{ticks_now, PrimitiveDictionary, SplitMix64};
use ma_executor::frontend::{compile, parse};
use ma_executor::ops::{materialize, FrozenStore};
use ma_executor::{
    analyze, cost, lower, verify, ExecConfig, FlavorAxis, InstanceReport, MemReport, QueryContext,
};
use ma_primitives::build_dictionary;
use ma_tpch::fuzz::{compare_stores, Fuzzer};
use ma_tpch::queries::query_plan;
use ma_tpch::{run_query, Params, TpchData};
use ma_vector::Vector;

/// Which query set a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The 22 TPC-H queries on encoded storage.
    Tpch,
    /// A seeded stream of generated pipe-DSL queries on the raw twin.
    Dsl {
        /// Distinct queries in the stream.
        queries: usize,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// TPC-H scale factor of the generated data.
    pub sf: f64,
    /// Query set.
    pub kind: Kind,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Every workload, in `BENCHMARK.json` order. Timed runs use one
/// worker: with 2 workers on a 2-core host the run-to-run spread exceeded
/// the bounds (see `NOTES.md`), so 2 workers are measured only in the
/// traced run's exchange comparison.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "tpch_power",
        sf: 0.1,
        kind: Kind::Tpch,
        setup_reps: 3,
    },
    Spec {
        name: "dsl_adhoc",
        sf: 0.001,
        kind: Kind::Dsl { queries: 12000 },
        setup_reps: 15,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Independent streams derived from the workload seed.
pub mod stream {
    /// The generated database.
    pub const DATA: u64 = 1;
    /// The DSL query stream.
    pub const QUERIES: u64 = 2;
    /// Bandit seeds; the pass index is added.
    pub const BANDIT: u64 = 3;
}

/// Derives the seed of stream `stream` (+ `index`) from the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    rng.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Flavor resolution of one execution (Table 11's three columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The stock engine: default flavor everywhere.
    Base,
    /// The hard-coded §4.2 heuristics.
    Heuristic,
    /// Micro Adaptivity over every flavor set.
    Adaptive,
}

/// All modes; each query runs once per mode per pass.
pub const MODES: [Mode; 3] = [Mode::Base, Mode::Heuristic, Mode::Adaptive];

impl Mode {
    /// Engine configuration for this mode.
    pub fn config(self, workers: usize, bandit_seed: u64) -> ExecConfig {
        let cfg = match self {
            Mode::Base => ExecConfig::fixed_default(),
            Mode::Heuristic => ExecConfig::heuristic(),
            Mode::Adaptive => ExecConfig::adaptive(FlavorAxis::All),
        };
        cfg.with_workers(workers).with_seed(bandit_seed)
    }

    /// Index into [`MODES`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One query of a workload's query set.
#[derive(Clone, Debug)]
pub enum Query {
    /// TPC-H query number (1–22).
    Tpch(usize),
    /// Pipe-DSL text.
    Dsl(String),
}

/// The workload's query set: the 22 TPC-H queries, or `n` generated DSL
/// queries rendered to text.
pub fn query_set(kind: Kind, encoded: &Arc<TpchData>, seed: u64) -> Vec<Query> {
    match kind {
        Kind::Tpch => (1..=22).map(Query::Tpch).collect(),
        Kind::Dsl { queries } => dsl_stream(encoded, seed, queries)
            .into_iter()
            .map(Query::Dsl)
            .collect(),
    }
}

/// `n` generated DSL queries for the workload seed, rendered to text.
pub fn dsl_stream(db: &Arc<TpchData>, seed: u64, n: usize) -> Vec<String> {
    let fuzzer = Fuzzer::new(Arc::clone(db));
    let stream_seed = derive(seed, stream::QUERIES, 0);
    (0..n as u64)
        .map(|i| fuzzer.generate(stream_seed, i).to_string())
        .collect()
}

/// A checked result.
pub enum Answer {
    /// TPC-H: row count and configuration-independent checksum.
    Checksum {
        /// Result rows.
        rows: usize,
        /// Result checksum.
        checksum: f64,
    },
    /// DSL: the whole result, compared as a multiset.
    Rows(FrozenStore),
}

impl Answer {
    /// Result row count.
    pub fn rows(&self) -> usize {
        match self {
            Answer::Checksum { rows, .. } => *rows,
            Answer::Rows(store) => store.rows(),
        }
    }

    /// Compares against the reference answer.
    pub fn check(&self, reference: &Answer) -> Result<(), String> {
        match (reference, self) {
            (
                Answer::Checksum {
                    rows: r0,
                    checksum: c0,
                },
                Answer::Checksum { rows, checksum },
            ) => {
                if rows != r0 {
                    Err(format!("{rows} rows, reference {r0}"))
                } else if !checksums_match(*c0, *checksum) {
                    Err(format!("checksum {checksum}, reference {c0}"))
                } else {
                    Ok(())
                }
            }
            // Row-for-row bitwise equality implies multiset equality, so
            // the (much slower) multiset comparison runs only when rows
            // come back in another order or with other float bits.
            (Answer::Rows(a), Answer::Rows(b)) if identical(a, b) => Ok(()),
            (Answer::Rows(a), Answer::Rows(b)) => compare_stores("reference", a, "run", b),
            _ => Err("answer kinds differ".to_string()),
        }
    }
}

/// True when both stores hold the same rows in the same order, bit for bit.
fn identical(a: &FrozenStore, b: &FrozenStore) -> bool {
    a.types() == b.types()
        && a.rows() == b.rows()
        && (0..a.types().len()).all(|c| match (a.col(c), b.col(c)) {
            (Vector::I16(x), Vector::I16(y)) => x == y,
            (Vector::I32(x), Vector::I32(y)) => x == y,
            (Vector::I64(x), Vector::I64(y)) => x == y,
            (Vector::F64(x), Vector::F64(y)) => x
                .iter()
                .map(|v| v.to_bits())
                .eq(y.iter().map(|v| v.to_bits())),
            (Vector::Str(x), Vector::Str(y)) => (0..a.rows()).all(|r| x.get(r) == y.get(r)),
            _ => false,
        })
}

/// Plan-time layers timed by a traced run, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `frontend::parse` (DSL only).
    Parse,
    /// `frontend::compile` (DSL only).
    Compile,
    /// `PlanBuilder::build`; on TPC-H also `queries::query_plan`.
    Build,
    /// `verify`.
    Verify,
    /// `analyze`.
    Analyze,
    /// `cost`.
    Cost,
    /// `lower`.
    Lower,
}

/// Every plan-time layer with its metric name.
pub const LAYERS: [(Layer, &str); 7] = [
    (Layer::Parse, "frontend.parse_us"),
    (Layer::Compile, "frontend.compile_us"),
    (Layer::Build, "plan.build_us"),
    (Layer::Verify, "verify.us"),
    (Layer::Analyze, "analyze.us"),
    (Layer::Cost, "cost.us"),
    (Layer::Lower, "plan.lower_us"),
];

/// What a traced execution measured.
pub struct Trace {
    /// Microseconds per plan-time layer, indexed like [`LAYERS`]; `None`
    /// where the query does not pass through the layer.
    pub layer_us: [Option<f64>; 7],
    /// Wall time of execution proper (TPC-H: `run_query`; DSL:
    /// `materialize`), in seconds.
    pub exec_s: f64,
    /// The same interval in cycle ticks, the unit of instance reports.
    pub exec_ticks: u64,
    /// `QueryContext::reports` after execution.
    pub instances: Vec<InstanceReport>,
    /// `QueryContext::mem_reports` after execution.
    pub mem: Vec<MemReport>,
}

/// Shared, immutable engine inputs.
pub struct Engine {
    dict: Arc<PrimitiveDictionary>,
    params: Params,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            dict: Arc::new(build_dictionary()),
            params: Params::default(),
        }
    }
}

/// Runs `f`, turning an error or a panic into `Err`.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        }
    }
}

/// Microseconds since `t`.
fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Engine {
    /// Runs one query the way the timed phase does: TPC-H through
    /// `run_query`; DSL text through parse, compile, build, verify,
    /// analyze, cost, lower and materialize.
    pub fn run(&self, db: &TpchData, q: &Query, cfg: ExecConfig) -> Result<Answer, String> {
        guarded(|| match q {
            Query::Tpch(n) => {
                let ctx = QueryContext::new(Arc::clone(&self.dict), cfg);
                let out = run_query(*n, db, &ctx, &self.params).map_err(|e| e.to_string())?;
                Ok(Answer::Checksum {
                    rows: out.rows,
                    checksum: out.checksum,
                })
            }
            Query::Dsl(text) => {
                let ast = parse(text).map_err(|e| e.to_string())?;
                let plan = compile(&ast, db)
                    .map_err(|e| e.to_string())?
                    .build()
                    .map_err(|e| e.to_string())?;
                verify(&plan, &cfg).map_err(|e| e.to_string())?;
                black_box(analyze(&plan));
                black_box(cost(&plan, &cfg));
                let ctx = QueryContext::new(Arc::clone(&self.dict), cfg);
                let mut op = lower(&plan, &ctx).map_err(|e| e.to_string())?;
                let store = materialize(op.as_mut()).map_err(|e| e.to_string())?;
                Ok(Answer::Rows(store))
            }
        })
    }

    /// Runs one query with every layer call timed and the engine's
    /// reports read afterwards. On TPC-H the plan-time layers are timed
    /// on the first-phase plan (`queries::query_plan`), separately from
    /// `run_query`, which builds and lowers its phases internally.
    pub fn run_traced(
        &self,
        db: &TpchData,
        q: &Query,
        cfg: ExecConfig,
    ) -> Result<(Answer, Trace), String> {
        guarded(|| {
            let mut layer_us = [None; 7];
            let ctx = QueryContext::new(Arc::clone(&self.dict), cfg.clone());
            let (answer, exec_s, exec_ticks) = match q {
                Query::Tpch(n) => {
                    let t = Instant::now();
                    let plan = query_plan(*n, db, &self.params)
                        .and_then(|pb| Ok(pb.build()?))
                        .map_err(|e| e.to_string())?;
                    layer_us[Layer::Build as usize] = Some(us_since(t));
                    self.static_passes(&plan, &cfg, &mut layer_us)?;
                    let t = Instant::now();
                    let probe = QueryContext::new(Arc::clone(&self.dict), cfg.clone());
                    drop(lower(&plan, &probe).map_err(|e| e.to_string())?);
                    layer_us[Layer::Lower as usize] = Some(us_since(t));

                    let (t, k) = (Instant::now(), ticks_now());
                    let out = run_query(*n, db, &ctx, &self.params).map_err(|e| e.to_string())?;
                    let ticks = ticks_now().saturating_sub(k);
                    let answer = Answer::Checksum {
                        rows: out.rows,
                        checksum: out.checksum,
                    };
                    (answer, t.elapsed().as_secs_f64(), ticks)
                }
                Query::Dsl(text) => {
                    let t = Instant::now();
                    let ast = parse(text).map_err(|e| e.to_string())?;
                    layer_us[Layer::Parse as usize] = Some(us_since(t));
                    let t = Instant::now();
                    let pb = compile(&ast, db).map_err(|e| e.to_string())?;
                    layer_us[Layer::Compile as usize] = Some(us_since(t));
                    let t = Instant::now();
                    let plan = pb.build().map_err(|e| e.to_string())?;
                    layer_us[Layer::Build as usize] = Some(us_since(t));
                    self.static_passes(&plan, &cfg, &mut layer_us)?;
                    let t = Instant::now();
                    let mut op = lower(&plan, &ctx).map_err(|e| e.to_string())?;
                    layer_us[Layer::Lower as usize] = Some(us_since(t));

                    let (t, k) = (Instant::now(), ticks_now());
                    let store = materialize(op.as_mut()).map_err(|e| e.to_string())?;
                    let ticks = ticks_now().saturating_sub(k);
                    let exec_s = t.elapsed().as_secs_f64();
                    // Live instances publish their last calls on drop.
                    drop(op);
                    (Answer::Rows(store), exec_s, ticks)
                }
            };
            let trace = Trace {
                layer_us,
                exec_s,
                exec_ticks,
                instances: ctx.reports(),
                mem: ctx.mem_reports(),
            };
            Ok((answer, trace))
        })
    }

    /// Times `verify`, `analyze` and `cost` on a built plan.
    fn static_passes(
        &self,
        plan: &ma_executor::LogicalPlan,
        cfg: &ExecConfig,
        layer_us: &mut [Option<f64>; 7],
    ) -> Result<(), String> {
        let t = Instant::now();
        verify(plan, cfg).map_err(|e| e.to_string())?;
        layer_us[Layer::Verify as usize] = Some(us_since(t));
        let t = Instant::now();
        black_box(analyze(plan));
        layer_us[Layer::Analyze as usize] = Some(us_since(t));
        let t = Instant::now();
        black_box(cost(plan, cfg));
        layer_us[Layer::Cost as usize] = Some(us_since(t));
        Ok(())
    }
}
