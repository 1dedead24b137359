//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_power|dsl_adhoc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop with one client. It
//! sets up (data generation, encoding, the raw twin) several times and
//! keeps the last database, computes reference answers untimed, then
//! measures for `--seconds`. Every answer is checked. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it runs an
//! untraced half and a traced half and reports the per-layer metrics,
//! including the traced-minus-untraced overhead. Human-readable lines
//! come first; the last line of standard output is one JSON object. The
//! process exits 1 if any execution failed or gave a wrong answer, and 2
//! on bad arguments. See `perfbench/NOTES.md` for what each metric means
//! and which layer it belongs to.

mod run;
mod setup;
mod stats;
mod workload;

use std::process::ExitCode;

use run::{phase, Phase, PhaseInput, Reference, TraceAgg};
use setup::SetupTimes;
use stats::{median, quantile};
use workload::{derive, query_set, stream, Engine, Kind, Mode, Spec, LAYERS, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::spec(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count or provenance, for the human-readable line.
    note: String,
    /// Part of the final JSON object (else a human-readable line only).
    json: bool,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.push(name, value, unit, note.into(), true);
    }

    fn line(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.push(name, value, unit, note.into(), false);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, note: String, json: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
            json,
        });
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn samples_note(n: usize) -> String {
    format!("n={n}")
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(r: &mut Report, setups: &[SetupTimes], p: &Phase, bytes_ratio: f64, rss: f64) {
    let per_query = |mode: Mode| {
        let n: usize = p.samples[mode.index()].iter().map(Vec::len).sum();
        format!(
            "{} queries, median of each, n={n} samples, {} passes",
            p.samples[mode.index()].len(),
            p.passes
        )
    };
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    r.json("setup_s", median(&totals), "s", samples_note(totals.len()));
    r.json(
        "power_geomean_ms",
        p.geomean_ms(Mode::Adaptive),
        "ms",
        per_query(Mode::Adaptive),
    );
    r.json(
        "power_geomean_ms.base",
        p.geomean_ms(Mode::Base),
        "ms",
        per_query(Mode::Base),
    );
    r.json(
        "power_geomean_ms.heuristic",
        p.geomean_ms(Mode::Heuristic),
        "ms",
        per_query(Mode::Heuristic),
    );
    r.json(
        "ma_speedup_geomean",
        p.ma_speedup(),
        "x",
        "geomean of base/adaptive per-query medians",
    );
    let n = p.pooled.len();
    r.json(
        "throughput_qps",
        p.throughput_qps(),
        "1/s",
        format!("{n} queries in {:.3} busy s", p.busy_s),
    );
    for (name, q) in [
        ("latency_p50_ms", 0.5),
        ("latency_p90_ms", 0.9),
        ("latency_p99_ms", 0.99),
    ] {
        r.json(name, quantile(&p.pooled, q), "ms", samples_note(n));
    }
    r.json(
        "bytes_per_raw_byte",
        bytes_ratio,
        "ratio",
        "resident / raw bytes of the encoded database",
    );
    r.json("peak_rss_mib", rss, "MiB", "VmHWM at the end of the run");
}

/// Per-query adaptive medians of the TPC-H queries (`q01_ms` …).
fn per_query_lines(r: &mut Report, p: &Phase) {
    for (qi, s) in p.samples[Mode::Adaptive.index()].iter().enumerate() {
        r.line(
            &format!("q{:02}_ms", qi + 1),
            median(s),
            "ms",
            samples_note(s.len()),
        );
    }
}

/// The per-layer metrics of a traced phase (`plain` is the untraced half
/// of the same run, for the overhead).
fn per_layer(
    r: &mut Report,
    setups: &[SetupTimes],
    reference: &Reference,
    plain: &Phase,
    traced: &Phase,
    agg: &TraceAgg,
) {
    let reps = samples_note(setups.len());
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    r.json(
        "dbgen.generate_raw_s",
        med(|s| s.generate_s),
        "s",
        reps.clone(),
    );
    r.json(
        "vector.encode_table_s",
        med(|s| s.encode_s),
        "s",
        reps.clone(),
    );
    r.json("vector.decode_table_s", med(|s| s.decode_s), "s", reps);

    for (i, (layer, name)) in LAYERS.iter().enumerate() {
        let front_end = matches!(layer, workload::Layer::Parse | workload::Layer::Compile);
        match agg.layer_us(i) {
            Some(us) if front_end => r.line(name, us, "us", "median over queries of the mean"),
            Some(us) => r.json(name, us, "us", "median over queries of the mean"),
            None => eprintln!("{name}: this workload's queries do not pass through the layer"),
        }
    }

    let execs = agg.execs as f64;
    r.json(
        "ops.execute_ms",
        agg.exec_s / execs * 1e3,
        "ms",
        format!("mean over {} traced executions", agg.execs),
    );
    r.json(
        "ops.rows_out",
        reference.rows_out as f64,
        "count",
        "Σ result rows of the reference pass (exact)",
    );
    let prim_share = agg.prim_ticks as f64 / agg.exec_ticks as f64;
    r.json(
        "ops.non_primitive_share",
        1.0 - prim_share,
        "share",
        "1 - prim.share",
    );
    r.json(
        "prim.share",
        prim_share,
        "share",
        "Σ instance ticks / Σ execute ticks (thread-summed)",
    );
    r.json(
        "prim.calls",
        reference.prim_calls as f64,
        "count",
        "Σ primitive calls of the reference pass (fixed flavors, exact)",
    );
    for fam in FAMILY_METRICS {
        let (ticks, tuples) = agg.families.get(fam).copied().unwrap_or((0, 0));
        let name = format!("prim.ticks_per_tuple.{fam}");
        let note = format!("{tuples} tuples");
        if tuples == 0 {
            eprintln!("{name}: no {fam} primitive ran in this workload");
        } else if fam == "decode" {
            r.line(&name, ticks as f64 / tuples as f64, "ticks", note);
        } else {
            r.json(&name, ticks as f64 / tuples as f64, "ticks", note);
        }
    }
    let decode_ticks = agg.families.get("decode").map_or(0, |f| f.0);
    r.json(
        "decode.share",
        decode_ticks as f64 / agg.exec_ticks as f64,
        "share",
        "decode ticks / execute ticks",
    );
    r.json(
        "bandit.minority_call_share",
        agg.minority_calls as f64 / agg.adaptive_calls as f64,
        "share",
        format!("{} adaptive calls", agg.adaptive_calls),
    );
    r.json(
        "bandit.multi_flavor_instances",
        agg.multi_flavor_instances as f64 / agg.adaptive_execs as f64,
        "count",
        format!("mean per adaptive execution, n={}", agg.adaptive_execs),
    );
    r.json(
        "exchange.wall_speedup",
        agg.wall_speedup(),
        "x",
        "geomean of 1-worker / 2-worker adaptive execute medians",
    );
    r.json(
        "exchange.prim_work_inflation",
        agg.prim_by_workers[1] as f64 / agg.prim_by_workers[0] as f64,
        "x",
        "Σ 2-worker / Σ 1-worker adaptive primitive ticks",
    );
    r.json(
        "mem.peak_tracked_bytes",
        agg.mem_peak as f64,
        "bytes",
        "largest high-water mark of a tracked operator instance",
    );
    r.json(
        "cost.bound_tightness",
        agg.mem_high as f64 / agg.mem_bound as f64,
        "share",
        "Σ high_water / Σ proven bound",
    );
    r.json(
        "trace.geomean_overhead_ms",
        traced.geomean_ms(Mode::Adaptive) - plain.geomean_ms(Mode::Adaptive),
        "ms",
        format!(
            "traced {} - untraced {} power_geomean_ms",
            traced.geomean_ms(Mode::Adaptive),
            plain.geomean_ms(Mode::Adaptive)
        ),
    );
    r.json(
        "trace.qps_overhead",
        traced.throughput_qps() - plain.throughput_qps(),
        "1/s",
        format!(
            "traced {} - untraced {} throughput_qps",
            traced.throughput_qps(),
            plain.throughput_qps()
        ),
    );
}

/// Signature families reported as `prim.ticks_per_tuple.<family>`.
const FAMILY_METRICS: [&str; 8] = [
    "sel", "map", "aggr", "hash", "join", "fetch", "bloom", "decode",
];

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A workload ready to measure.
struct Prepared {
    db: setup::Db,
    setups: Vec<SetupTimes>,
    queries: Vec<workload::Query>,
    reference: Reference,
}

/// Sets up (timed, repeated), generates the query set and computes the
/// reference answers (untimed), all from the workload seed.
fn prepare(spec: Spec, seed: u64, engine: &Engine) -> Prepared {
    let (db, setups) =
        setup::build_repeated(spec.sf, derive(seed, stream::DATA, 0), spec.setup_reps);
    let queries = query_set(spec.kind, &db.encoded, seed);
    let reference = Reference::compute(engine, &db.encoded, &queries);
    Prepared {
        db,
        setups,
        queries,
        reference,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let engine = Engine::default();
    let Prepared {
        db,
        setups,
        queries,
        reference,
    } = prepare(spec, args.seed, &engine);
    let queried = match spec.kind {
        Kind::Tpch => &db.encoded,
        Kind::Dsl { .. } => &db.raw,
    };
    let (resident, raw) = setup::bytes(queried);
    println!(
        "workload {} seed {} sf {} queries {} rows {} resident_bytes {resident} raw_bytes {raw}",
        spec.name,
        args.seed,
        spec.sf,
        queries.len(),
        setup::total_rows(queried),
    );
    let input = PhaseInput {
        engine: &engine,
        db: queried,
        queries: &queries,
        reference: &reference,
        seed: args.seed,
    };

    let mut report = Report::default();
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);
    let phases = if args.trace {
        let plain = phase(&input, args.seconds / 2.0, false);
        let traced = phase(&input, args.seconds / 2.0, true);
        let agg = traced.trace.as_ref().expect("a traced phase aggregates");
        per_layer(&mut report, &setups, &reference, &plain, &traced, agg);
        vec![plain, traced]
    } else {
        let p = phase(&input, args.seconds, false);
        let rss = peak_rss_mib().unwrap_or(f64::NAN);
        end_to_end(
            &mut report,
            &setups,
            &p,
            setup::bytes_per_raw_byte(&db.encoded),
            rss,
        );
        vec![p]
    };
    if spec.kind == Kind::Tpch {
        per_query_lines(&mut report, &phases[0]);
    }
    for p in &phases {
        attempted += p.attempted;
        failed += p.failed;
    }
    report.line(
        "failed_share",
        failed as f64 / attempted as f64,
        "share",
        format!("{failed} of {attempted} executions"),
    );

    let mut correct = failed == 0;
    for m in &report.metrics {
        if !m.value.is_finite() {
            eprintln!("metric {} is not a finite number", m.name);
            correct = false;
        }
        println!("{} {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    report.metrics.retain(|m| m.value.is_finite());
    println!("{}", json_line(correct, attempted, failed, &report.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Query;

    /// A small DSL workload: the same code paths at a test-sized scale.
    const SMALL_DSL: Spec = Spec {
        name: "small_dsl",
        sf: 0.001,
        kind: Kind::Dsl { queries: 60 },
        setup_reps: 1,
    };

    fn texts(queries: &[Query]) -> Vec<String> {
        queries
            .iter()
            .map(|q| match q {
                Query::Dsl(text) => text.clone(),
                Query::Tpch(n) => format!("Q{n}"),
            })
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_stream_and_the_exact_counts() {
        let engine = Engine::default();
        let a = prepare(SMALL_DSL, 7, &engine);
        let b = prepare(SMALL_DSL, 7, &engine);
        assert_eq!(texts(&a.queries), texts(&b.queries));
        assert_eq!(a.reference.failed, 0);
        assert_eq!(a.reference.rows_out, b.reference.rows_out);
        assert_eq!(a.reference.prim_calls, b.reference.prim_calls);
        assert!(a.reference.prim_calls > 0);
        assert_eq!(
            setup::bytes(&a.db.encoded),
            setup::bytes(&b.db.encoded),
            "bytes_per_raw_byte inputs"
        );
    }

    #[test]
    fn another_seed_gives_another_stream() {
        let engine = Engine::default();
        let a = prepare(SMALL_DSL, 7, &engine);
        let b = prepare(SMALL_DSL, 8, &engine);
        assert_ne!(texts(&a.queries), texts(&b.queries));
    }

    #[test]
    fn every_generated_query_parses() {
        let (db, _) = setup::build(0.001, derive(11, stream::DATA, 0));
        for text in workload::dsl_stream(&db.encoded, 11, 500) {
            if let Err(e) = ma_executor::frontend::parse(&text) {
                panic!("{text:?} does not parse: {e}");
            }
        }
    }

    #[test]
    fn tpch_counts_repeat_exactly() {
        let small = Spec {
            name: "small_tpch",
            sf: 0.002,
            kind: Kind::Tpch,
            ..SMALL_DSL
        };
        let engine = Engine::default();
        let a = prepare(small, 3, &engine);
        let b = prepare(small, 3, &engine);
        assert_eq!(a.reference.failed, 0);
        assert_eq!(a.reference.rows_out, b.reference.rows_out);
        assert_eq!(a.reference.prim_calls, b.reference.prim_calls);
    }

    #[test]
    fn a_short_phase_checks_every_answer() {
        let engine = Engine::default();
        let p = prepare(SMALL_DSL, 5, &engine);
        let input = PhaseInput {
            engine: &engine,
            db: &p.db.raw,
            queries: &p.queries,
            reference: &p.reference,
            seed: 5,
        };
        let traced = phase(&input, 0.0, true);
        assert_eq!(traced.passes, 1);
        assert_eq!(traced.failed, 0);
        // Three modes plus the 2-worker run per query.
        assert_eq!(traced.attempted, 4 * p.queries.len() as u64);
        assert_eq!(traced.pooled.len(), 3 * p.queries.len());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload tpch_power --seed 1 --seconds 5 --trace 0").is_ok());
        assert!(args("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload dsl_adhoc --seed x --seconds 5 --trace 0").is_err());
        assert!(args("--workload dsl_adhoc --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload dsl_adhoc --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload dsl_adhoc --seed 1 --seconds 5").is_err());
    }
}
