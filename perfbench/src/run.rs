//! One benchmark run: passes of a workload for a set time, their checks,
//! and the metrics they yield.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trix_bench::suite::{self, SuiteOutcome, Violation};
use trix_runner::BenchReport;

use crate::check::{self, Verdict};
use crate::host::{self, quote};
use crate::trace::{self, Tracer};
use crate::workload::{Size, Workload};

/// Share of each pass's wall time given to the set-up repeats that
/// follow it (at least one repeat follows every pass).
const SETUP_SHARE: f64 = 0.125;

/// Fewest set-up repeats whose median is reported.
const MIN_SETUPS: usize = 3;

/// Most set-up repeats (cheap set-ups stop here).
const MAX_SETUPS: usize = 101;

/// Every experiment name a workload's records carry, for the
/// `bench.<experiment>_s` metrics: the `paper_tables` experiments in suite
/// order, then the three grid workloads' experiments.
pub const EXPERIMENTS: [&str; 24] = [
    "table1",
    "fig1_skew",
    "fig1_hex",
    "fig23",
    "fig4",
    "fig5",
    "thm11",
    "thm12",
    "thm13",
    "thm14",
    "thm16",
    "thm16_layer0",
    "lem_a1",
    "cor423",
    "missing_policy",
    "kappa_sweep",
    "ext_f2",
    "lynch_welch",
    "recovery",
    "adversary",
    "exp_topology",
    "exp_scale",
    "exp_modes",
    "exp_fault_sweep",
];

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Paper size or smoke size.
    pub size: Size,
    /// Harness base seed.
    pub seed: u64,
    /// Seconds of passes to measure (at least one pass runs).
    pub seconds: f64,
    /// `(scenario workers, dataflow workers)`, already resolved.
    pub split: (usize, usize),
}

impl RunSpec {
    fn out_dir(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    fn out_file(&self, what: &str) -> PathBuf {
        self.out_dir().join(format!(
            "{what}_{}_{}_{}.json",
            self.workload.name(),
            self.size.name(),
            self.seed
        ))
    }

    fn reference(&self) -> Option<Vec<u64>> {
        (self.seed == check::DEFAULT_SEED)
            .then(|| check::reference(self.workload, self.size))
            .flatten()
    }
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Runs attempted and failed over every pass.
    pub verdict: Verdict,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Canonical records of the run's first pass.
    pub canonical_json: String,
    /// Canonical records of the run's last traced pass (traced runs).
    pub traced_json: Option<String>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.failed == 0,
            self.verdict.attempted,
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints for the `f64`.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One pass: the workload's scenarios through `suite::run_scenarios`,
/// then the canonical records written out.
struct Pass {
    wall_s: f64,
    /// Seconds inside `suite::run_scenarios`.
    run_s: f64,
    write_s: f64,
    record_bytes: usize,
    report: BenchReport,
    canonical: BenchReport,
    canonical_json: String,
    violations: Vec<Violation>,
}

/// Canonicalizes, serializes and writes a pass's records, and closes the
/// pass's clock.
fn finish_pass(spec: &RunSpec, start: Instant, run_s: f64, outcome: SuiteOutcome) -> Pass {
    let write = Instant::now();
    let canonical = outcome.report.canonicalized();
    let canonical_json = canonical.to_json();
    fs::write(spec.out_file("records"), &canonical_json).expect("write the pass's records");
    let write_s = write.elapsed().as_secs_f64();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        run_s,
        write_s,
        record_bytes: canonical_json.len(),
        report: outcome.report,
        canonical,
        canonical_json,
        violations: outcome.violations,
    }
}

/// An untraced pass through the harness's own scenario constructors.
fn pass(spec: &RunSpec) -> Pass {
    let start = Instant::now();
    let scenarios = spec.workload.scenarios(spec.size, spec.seed, spec.split.1);
    let run = Instant::now();
    let outcome = suite::run_scenarios(scenarios, spec.size.scale(), spec.seed, spec.split.0);
    let run_s = run.elapsed().as_secs_f64();
    finish_pass(spec, start, run_s, outcome)
}

/// A traced pass: the grid workloads' scenarios rebuilt from `base`'s
/// records out of spanned calls; `paper_tables` runs the harness jobs.
fn traced_pass(spec: &RunSpec, base: &Pass, t: &Tracer) -> Pass {
    t.span("bench.pass", None, |pass_id| {
        let start = Instant::now();
        let mut run_s = 0.0;
        let outcome = t.span("runner.run_scenarios", Some(pass_id), |id| {
            let scenarios = match spec.workload {
                Workload::PaperTables => {
                    spec.workload.scenarios(spec.size, spec.seed, spec.split.1)
                }
                w => trace::traced_scenarios(w, &base.report.records, spec.split.1, t, id),
            };
            let run = Instant::now();
            let outcome =
                suite::run_scenarios(scenarios, spec.size.scale(), spec.seed, spec.split.0);
            run_s = run.elapsed().as_secs_f64();
            outcome
        });
        t.span("runner.record_write", Some(pass_id), |_| {
            finish_pass(spec, start, run_s, outcome)
        })
    })
}

fn check(spec: &RunSpec, pass: &Pass, expected: Option<&str>) -> Verdict {
    check::check_pass(
        &pass.canonical,
        &pass.canonical_json,
        &pass.violations,
        spec.reference().as_deref(),
        expected,
    )
}

/// The untraced run: passes until they add up to `spec.seconds`, each
/// followed by set-up repeats; reports the end-to-end metrics, with the
/// first pass left out of `wall_s` as a warm-up when more passes follow.
pub fn run_untraced(spec: &RunSpec) -> RunResult {
    fs::create_dir_all(spec.out_dir()).expect("create the output directory");
    let first = pass(spec);
    let mut verdict = check(spec, &first, None);
    let records = &first.report.records;
    let setup = || {
        spec.workload
            .setup(spec.size, spec.seed, spec.split.1, records)
    };
    let mut walls = vec![first.wall_s];
    let mut setups = Vec::new();
    loop {
        // Set-up repeats follow every pass, so that, like the passes,
        // they sample the host over the whole run.
        let budget = SETUP_SHARE * walls[walls.len() - 1];
        let mut spent = 0.0;
        while setups.len() < MAX_SETUPS && (spent == 0.0 || spent < budget) {
            let secs = setup();
            spent += secs;
            setups.push(secs);
        }
        if walls.iter().sum::<f64>() >= spec.seconds {
            break;
        }
        let next = pass(spec);
        verdict.add(check(spec, &next, Some(&first.canonical_json)));
        walls.push(next.wall_s);
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup());
    }
    let peak_rss_mb = host::peak_rss_mib();

    // The first pass warms caches, page tables and the allocator; it is
    // left out whenever later passes exist.
    let timed = if walls.len() > 1 {
        &walls[1..]
    } else {
        &walls[..]
    };
    eprintln!(
        "{} pass(es), wall s {:.4?} (first left out if more follow); {} set-up(s), median {:.4} s",
        walls.len(),
        walls,
        setups.len(),
        median(&setups)
    );
    let events: u64 = records.iter().map(|r| r.events).sum();
    let wall_s = median(timed);
    let setup_s = median(&setups);
    RunResult {
        verdict,
        metrics: vec![
            metric("wall_s", wall_s, "s"),
            metric(
                "node_pulses_per_s",
                events as f64 / (wall_s - setup_s),
                "1/s",
            ),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        canonical_json: first.canonical_json,
        traced_json: None,
    }
}

/// Per-layer numbers of one traced pass, in metric order.
fn layer_metrics(spec: &RunSpec, t: &Tracer, pass: &Pass) -> Vec<Metric> {
    let driver = t.secs("sim.driver");
    let hooks = t.all_hook_secs();
    let records = &pass.report.records;
    let wall_sum = records.iter().fold(0.0, |acc, r| acc + r.wall_secs);
    let (node_pulses, rows) = match spec.workload {
        // The full-trace jobs are opaque: their pulses are the harness's
        // event count, their rows are not observable from outside.
        Workload::PaperTables => (records.iter().map(|r| r.events).sum(), 0),
        _ => (t.counter("sim.node_pulses"), t.counter("sim.rows")),
    };
    let mut out = vec![
        metric("topology.build_s", t.secs("topology.build"), "s"),
        metric("sim.env_build_s", t.secs("sim.env_build"), "s"),
        metric("core.layer0_s", t.secs("core.layer0"), "s"),
        metric("faults.campaign_s", t.secs("faults.campaign"), "s"),
        metric("sim.pulse_loop_s", driver - hooks, "s"),
        metric("sim.node_pulses", node_pulses as f64, "count"),
        metric("sim.rows", rows as f64, "count"),
        metric(
            "sim.flusher_obs_share",
            if driver > 0.0 { hooks / driver } else { 0.0 },
            "ratio",
        ),
        metric("obs.skew.ingest_s", t.secs("obs.skew.ingest"), "s"),
        metric("obs.skew.finish_s", t.secs("obs.skew.finish"), "s"),
        metric("obs.ring.ingest_s", t.secs("obs.ring.ingest"), "s"),
        metric("obs.sketch.ingest_s", t.secs("obs.sketch.ingest"), "s"),
        metric("obs.sketch.finish_s", t.secs("obs.sketch.finish"), "s"),
        metric(
            "analysis.probe.ingest_s",
            t.secs("analysis.probe.ingest"),
            "s",
        ),
        metric(
            "obs.fault_class.ingest_s",
            t.secs("obs.fault_class.ingest"),
            "s",
        ),
        metric("sim.env_bytes", t.counter("sim.env_bytes") as f64, "bytes"),
        metric(
            "obs.state_bytes",
            t.counter("obs.state_bytes") as f64,
            "bytes",
        ),
        metric(
            "runner.shard_util",
            wall_sum / (spec.split.0 as f64 * pass.run_s),
            "ratio",
        ),
        metric(
            "runner.scenario_max_s",
            records.iter().map(|r| r.wall_secs).fold(0.0, f64::max),
            "s",
        ),
        metric("runner.record_write_s", pass.write_s, "s"),
        metric("runner.record_bytes", pass.record_bytes as f64, "bytes"),
    ];
    for experiment in EXPERIMENTS {
        let secs = records
            .iter()
            .filter(|r| r.experiment == experiment)
            .fold(0.0, |acc, r| acc + r.wall_secs);
        out.push(metric(format!("bench.{experiment}_s"), secs, "s"));
    }
    out
}

/// The traced run: one untraced pass as the reference, then traced and
/// untraced passes in turn for `spec.seconds` (at least one of each),
/// then the driver replays. Reports the per-layer metrics (medians over
/// the traced passes) and writes the spans. Tracing overhead compares
/// the traced passes with the untraced ones after the first, so that
/// both sides run warm.
pub fn run_traced(spec: &RunSpec) -> RunResult {
    fs::create_dir_all(spec.out_dir()).expect("create the output directory");
    let clock = Instant::now();
    let base = pass(spec);
    let mut verdict = check(spec, &base, None);
    let mut per_pass: Vec<Vec<Metric>> = Vec::new();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut traced_json = String::new();
    while per_pass.is_empty() || clock.elapsed().as_secs_f64() < spec.seconds {
        let t = Tracer::new();
        let traced = traced_pass(spec, &base, &t);
        // Fidelity: a traced pass must reproduce the untraced records.
        verdict.add(check(spec, &traced, Some(&base.canonical_json)));
        per_pass.push(layer_metrics(spec, &t, &traced));
        traced_walls.push(traced.wall_s);
        spans.push(t.spans());
        traced_json = traced.canonical_json;
        let untraced = pass(spec);
        verdict.add(check(spec, &untraced, Some(&base.canonical_json)));
        untraced_walls.push(untraced.wall_s);
    }

    let replays = trace::replays(spec.workload, &base.report.records, spec.split.1);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            metric(m.name.clone(), median(&values), m.unit)
        })
        .collect();
    metrics.extend([
        metric(
            "sim.frontier_speedup",
            ratio(replays.serial_s, replays.frontier_s),
            "ratio",
        ),
        metric(
            "obs.overhead_ratio",
            ratio(replays.observed_s - replays.null_s, replays.null_s),
            "ratio",
        ),
        metric(
            "bench.trace_overhead_s",
            median(&traced_walls) - median(&untraced_walls),
            "s",
        ),
        metric(
            "failed_share",
            ratio(verdict.failed as f64, verdict.attempted as f64),
            "ratio",
        ),
    ]);
    write_spans(spec, &spans);
    RunResult {
        verdict,
        metrics,
        canonical_json: base.canonical_json,
        traced_json: Some(traced_json),
    }
}

/// Writes every traced pass's spans as one JSON array.
fn write_spans(spec: &RunSpec, passes: &[Vec<trace::Span>]) {
    let run = format!("{}/{}", spec.workload.name(), spec.seed);
    let lines: Vec<String> = passes
        .iter()
        .enumerate()
        .flat_map(|(pass, spans)| {
            let run = &run;
            spans.iter().enumerate().map(move |(id, s)| {
                format!(
                    "  {{\"run\": {}, \"pass\": {pass}, \"id\": {id}, \"name\": {}, \"parent\": {}, \
                     \"start_s\": {}, \"end_s\": {}}}",
                    quote(run),
                    quote(s.name),
                    s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                    number(s.start),
                    number(s.end)
                )
            })
        })
        .collect();
    fs::write(
        spec.out_file("spans"),
        format!("[\n{}\n]\n", lines.join(",\n")),
    )
    .expect("write the spans");
}

/// The whole `reference.txt`: every workload at both sizes, for the
/// default seed.
pub fn reference_file(split_of: impl Fn(Workload) -> (usize, usize)) -> String {
    let mut out = check::REFERENCE_HEADER.to_owned();
    for size in [Size::Smoke, Size::Full] {
        for workload in Workload::ALL {
            let spec = RunSpec {
                workload,
                size,
                seed: check::DEFAULT_SEED,
                seconds: 0.0,
                split: split_of(workload),
            };
            fs::create_dir_all(spec.out_dir()).expect("create the output directory");
            out += &check::reference_lines(workload, size, &pass(&spec).canonical);
        }
    }
    out
}
