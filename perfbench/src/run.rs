//! The closed loop: one client runs the query set pass after pass, each
//! query under every mode, until the phase's time is up. Every answer is
//! checked against the untimed reference.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ma_tpch::TpchData;

use crate::stats::{geomean, median};
use crate::workload::{derive, stream, Answer, Engine, Mode, Query, Trace, MODES};

/// Primitive signature families, by signature prefix. Order matters:
/// the first matching prefix wins.
const FAMILIES: [(&str, &str); 11] = [
    ("sel_bloomfilter", "bloom"),
    ("sel_", "sel"),
    ("map_fetch_", "fetch"),
    ("map_hash_", "hash"),
    ("map_rehash_", "hash"),
    ("hash_", "hash"),
    ("map_", "map"),
    ("aggr", "aggr"),
    ("mergejoin_", "join"),
    ("decode_", "decode"),
    ("", "other"),
];

/// The family of a primitive signature.
pub fn family(signature: &str) -> &'static str {
    FAMILIES
        .iter()
        .find(|(prefix, _)| signature.starts_with(prefix))
        .map(|(_, fam)| *fam)
        .expect("the empty prefix matches everything")
}

/// The untimed reference pass: every query once under the stock engine
/// with one worker, on encoded storage.
pub struct Reference {
    /// One answer per query; `None` where the reference run failed.
    pub answers: Vec<Option<Answer>>,
    /// Σ result rows (exact).
    pub rows_out: u64,
    /// Σ primitive calls (exact under fixed flavors).
    pub prim_calls: u64,
    /// Executions attempted.
    pub attempted: u64,
    /// Executions that errored or panicked.
    pub failed: u64,
}

impl Reference {
    /// Runs the reference pass.
    pub fn compute(engine: &Engine, encoded: &TpchData, queries: &[Query]) -> Reference {
        let mut r = Reference {
            answers: Vec::with_capacity(queries.len()),
            rows_out: 0,
            prim_calls: 0,
            attempted: 0,
            failed: 0,
        };
        for (i, q) in queries.iter().enumerate() {
            r.attempted += 1;
            match engine.run_traced(encoded, q, Mode::Base.config(1, 0)) {
                Ok((answer, trace)) => {
                    r.rows_out += answer.rows() as u64;
                    r.prim_calls += trace.instances.iter().map(|i| i.calls).sum::<u64>();
                    r.answers.push(Some(answer));
                }
                Err(e) => {
                    eprintln!("reference run of query #{i} failed: {e}");
                    r.failed += 1;
                    r.answers.push(None);
                }
            }
        }
        r
    }
}

/// Per-layer aggregates of a traced phase.
#[derive(Default)]
pub struct TraceAgg {
    /// Per query, per layer: (Σ µs, calls).
    pub layers: Vec<[(f64, u32); 7]>,
    /// Executions of the workload's own configurations.
    pub execs: u64,
    /// Σ execution wall seconds over `execs`.
    pub exec_s: f64,
    /// Σ execution ticks over `execs`.
    pub exec_ticks: u64,
    /// Σ primitive ticks over `execs`.
    pub prim_ticks: u64,
    /// Per family: (Σ ticks, Σ tuples) over `execs`.
    pub families: BTreeMap<&'static str, (u64, u64)>,
    /// Adaptive executions among `execs`.
    pub adaptive_execs: u64,
    /// Σ calls of adaptive executions.
    pub adaptive_calls: u64,
    /// Σ calls not on their instance's most-called flavor.
    pub minority_calls: u64,
    /// Σ instances that called more than one flavor.
    pub multi_flavor_instances: u64,
    /// Σ tracked high-water bytes over `execs`.
    pub mem_high: u64,
    /// Σ proven byte bounds over `execs`.
    pub mem_bound: u64,
    /// Largest high-water mark of any tracked instance.
    pub mem_peak: u64,
    /// Adaptive execution seconds per query, with 1 and with 2 workers.
    pub exec_by_workers: [Vec<Vec<f64>>; 2],
    /// Σ adaptive primitive ticks, with 1 and with 2 workers.
    pub prim_by_workers: [u64; 2],
}

impl TraceAgg {
    fn new(queries: usize) -> Self {
        TraceAgg {
            layers: vec![[(0.0, 0); 7]; queries],
            exec_by_workers: [vec![Vec::new(); queries], vec![Vec::new(); queries]],
            ..TraceAgg::default()
        }
    }

    /// Folds an execution of one of the workload's own configurations.
    fn add(&mut self, qi: usize, mode: Mode, trace: &Trace) {
        for (slot, us) in self.layers[qi].iter_mut().zip(trace.layer_us) {
            if let Some(us) = us {
                slot.0 += us;
                slot.1 += 1;
            }
        }
        self.execs += 1;
        self.exec_s += trace.exec_s;
        self.exec_ticks += trace.exec_ticks;
        for inst in &trace.instances {
            self.prim_ticks += inst.ticks;
            let f = self.families.entry(family(&inst.signature)).or_default();
            f.0 += inst.ticks;
            f.1 += inst.tuples;
        }
        if mode == Mode::Adaptive {
            self.adaptive_execs += 1;
            for inst in &trace.instances {
                let top = inst.flavor_calls.iter().map(|(_, c)| *c).max().unwrap_or(0);
                self.adaptive_calls += inst.calls;
                self.minority_calls += inst.calls.saturating_sub(top);
                let used = inst.flavor_calls.iter().filter(|(_, c)| *c > 0).count();
                self.multi_flavor_instances += u64::from(used > 1);
            }
        }
        for m in &trace.mem {
            self.mem_high += m.high_water;
            self.mem_bound += m.bound;
            self.mem_peak = self.mem_peak.max(m.high_water);
        }
    }

    /// Folds an adaptive execution with `workers` (1 or 2) workers, for
    /// the exchange comparison.
    fn add_workers(&mut self, qi: usize, workers: usize, trace: &Trace) {
        let w = workers - 1;
        self.exec_by_workers[w][qi].push(trace.exec_s);
        self.prim_by_workers[w] += trace.instances.iter().map(|i| i.ticks).sum::<u64>();
    }

    /// Median over queries of each query's mean time in `layer`, in µs;
    /// `None` if no query passed through it.
    pub fn layer_us(&self, layer: usize) -> Option<f64> {
        let means: Vec<f64> = self
            .layers
            .iter()
            .filter(|l| l[layer].1 > 0)
            .map(|l| l[layer].0 / f64::from(l[layer].1))
            .collect();
        (!means.is_empty()).then(|| median(&means))
    }

    /// Geometric mean over queries of median(1 worker) / median(2 workers).
    pub fn wall_speedup(&self) -> f64 {
        let ratios: Vec<f64> = self.exec_by_workers[0]
            .iter()
            .zip(&self.exec_by_workers[1])
            .filter(|(a, b)| !a.is_empty() && !b.is_empty())
            .map(|(a, b)| median(a) / median(b))
            .collect();
        geomean(&ratios)
    }
}

/// What one timed (or traced) phase measured.
pub struct Phase {
    /// Latency samples in ms, per mode, per query.
    pub samples: [Vec<Vec<f64>>; 3],
    /// Every latency sample in ms, in completion order.
    pub pooled: Vec<f64>,
    /// Wall seconds of the phase minus the benchmark's own answer
    /// checking (and, when traced, the extra 2-worker runs).
    pub busy_s: f64,
    /// Complete passes over the query set.
    pub passes: u64,
    /// Executions attempted (including extra traced runs).
    pub attempted: u64,
    /// Errors, panics and wrong answers.
    pub failed: u64,
    /// Per-layer aggregates, for a traced phase.
    pub trace: Option<TraceAgg>,
}

impl Phase {
    /// Geometric mean over queries of each query's median latency under
    /// `mode`.
    pub fn geomean_ms(&self, mode: Mode) -> f64 {
        let medians: Vec<f64> = self.samples[mode.index()]
            .iter()
            .map(|s| median(s))
            .collect();
        geomean(&medians)
    }

    /// Geometric mean over queries of median(base) / median(adaptive).
    pub fn ma_speedup(&self) -> f64 {
        let ratios: Vec<f64> = self.samples[Mode::Base.index()]
            .iter()
            .zip(&self.samples[Mode::Adaptive.index()])
            .map(|(b, a)| median(b) / median(a))
            .collect();
        geomean(&ratios)
    }

    /// Queries completed per busy second.
    pub fn throughput_qps(&self) -> f64 {
        self.pooled.len() as f64 / self.busy_s
    }
}

/// Inputs of a phase.
pub struct PhaseInput<'a> {
    /// Engine inputs.
    pub engine: &'a Engine,
    /// The storage the workload queries.
    pub db: &'a TpchData,
    /// The query set.
    pub queries: &'a [Query],
    /// Reference answers, aligned with `queries`.
    pub reference: &'a Reference,
    /// The workload seed.
    pub seed: u64,
}

/// Runs whole passes over the query set until `seconds` have passed, so
/// every query has the same number of samples per mode. Within a pass
/// each query runs under all three modes back to back, the starting mode
/// rotating so no mode always runs on a cache warmed by another. Adaptive
/// runs of pass `p` use the bandit seed derived from the workload seed and
/// `p`. Timed runs use one worker; a traced phase adds an adaptive run
/// with 2 workers to each query's rotation, for the exchange metrics.
pub fn phase(input: &PhaseInput<'_>, seconds: f64, traced: bool) -> Phase {
    let n = input.queries.len();
    let mut out = Phase {
        samples: [
            vec![Vec::new(); n],
            vec![Vec::new(); n],
            vec![Vec::new(); n],
        ],
        pooled: Vec::new(),
        busy_s: 0.0,
        passes: 0,
        attempted: 0,
        failed: 0,
        trace: traced.then(|| TraceAgg::new(n)),
    };
    let mut runs: Vec<(Mode, usize)> = MODES.iter().map(|&mode| (mode, 1)).collect();
    if traced {
        runs.push((Mode::Adaptive, 2));
    }
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    for pass in 0u64.. {
        let bandit_seed = derive(input.seed, stream::BANDIT, pass);
        for (qi, q) in input.queries.iter().enumerate() {
            for k in 0..runs.len() {
                let (mode, workers) = runs[(k + qi + pass as usize) % runs.len()];
                let cfg = mode.config(workers, bandit_seed);
                out.attempted += 1;
                let t = Instant::now();
                let result = if traced {
                    input
                        .engine
                        .run_traced(input.db, q, cfg)
                        .map(|(a, t)| (a, Some(t)))
                } else {
                    input.engine.run(input.db, q, cfg).map(|a| (a, None))
                };
                let elapsed = t.elapsed();
                if workers > 1 {
                    // Feeds only the exchange comparison, not the phase.
                    excluded += elapsed;
                }
                let t = Instant::now();
                match result.and_then(|(answer, trace)| check(input, qi, &answer).map(|()| trace)) {
                    Ok(trace) => {
                        if workers == 1 {
                            let ms = elapsed.as_secs_f64() * 1e3;
                            out.samples[mode.index()][qi].push(ms);
                            out.pooled.push(ms);
                        }
                        if let (Some(agg), Some(trace)) = (out.trace.as_mut(), trace) {
                            if workers == 1 {
                                agg.add(qi, mode, &trace);
                            }
                            if mode == Mode::Adaptive {
                                agg.add_workers(qi, workers, &trace);
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!(
                            "query #{qi} ({mode:?}, {workers} worker(s), pass {pass}) failed: {e}"
                        );
                        out.failed += 1;
                    }
                }
                excluded += t.elapsed();
            }
        }
        out.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.busy_s = (start.elapsed() - excluded).as_secs_f64();
    out
}

/// Checks an answer against the reference answer of query `qi`.
fn check(input: &PhaseInput<'_>, qi: usize, answer: &Answer) -> Result<(), String> {
    match &input.reference.answers[qi] {
        Some(reference) => answer.check(reference),
        None => Err("no reference answer".to_string()),
    }
}
