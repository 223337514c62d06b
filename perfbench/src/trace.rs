//! The traced run's instruments: spans around calls into each crate's
//! public functions, observer wrappers that time the row hooks, and
//! re-compositions of the grid workloads' scenario jobs out of those
//! calls.
//!
//! A harness scenario job is an opaque closure, so the traced run cannot
//! reach inside it. Instead it rebuilds each scenario of the untraced
//! pass from its record (params and derived seeds) with the same public
//! calls the harness job makes — `common::grid`,
//! `StaticEnvironment::random`, `Layer0Line::random_for_line`, the
//! dataflow drivers, the observers — each wrapped in a span. The traced
//! pass then runs through `suite::run_scenarios` like the untraced one,
//! and its canonical records must equal the untraced pass's bit for bit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trix_analysis::{fmt_f64, theory, ModeProbe, ModeReport, Table};
use trix_bench::common::STREAMING_HEADERS;
use trix_bench::common::{grid, merge_snapshots, standard_params, streaming_monitor};
use trix_bench::exp_fault_sweep::{self, PatternClass, FAULT_FACTOR};
use trix_bench::exp_modes;
use trix_bench::suite::{Scenario, ScenarioResult};
use trix_core::{GradientTrixRule, Layer0Line};
use trix_obs::{FaultClassSkew, PodSketch, SkewStats, StreamingSkew, TraceEvent, TraceRing};
use trix_runner::{BenchRecord, SketchSummary};
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, CorrectSends, NullObserver, Observer, SendModel,
    StaticEnvironment,
};
use trix_time::Time;
use trix_topology::{LayeredGraph, NodeId};

use crate::workload::{campaign_checked, env_and_layer0, env_for, layer0_for, param, Workload};

/// Pulse events `exp_scale` keeps in its post-mortem ring.
const SCALE_RING_CAPACITY: usize = 256;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, e.g. `sim.env_build`.
    pub name: &'static str,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Seconds since the log's origin.
    pub start: f64,
    /// Seconds since the log's origin.
    pub end: f64,
}

#[derive(Debug)]
struct Log {
    origin: Instant,
    spans: Vec<Span>,
    /// Time summed inside observer hooks, which are too many for spans.
    hook_secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

/// A shared, in-memory span log. Clones share the log, so scenario jobs
/// on sweep worker threads record into the pass's log.
#[derive(Clone, Debug)]
pub struct Tracer(Arc<Mutex<Log>>);

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(Log {
            origin: Instant::now(),
            spans: Vec::new(),
            hook_secs: BTreeMap::new(),
            counts: BTreeMap::new(),
        })))
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.0
            .lock()
            .expect("span log poisoned by a panicking scenario")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// as the parent for nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut log = self.log();
            let start = log.origin.elapsed().as_secs_f64();
            log.spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            log.spans.len() - 1
        };
        let out = f(id);
        let mut log = self.log();
        log.spans[id].end = log.origin.elapsed().as_secs_f64();
        out
    }

    /// Adds time spent inside an observer's hooks.
    pub fn add_hook_secs(&self, name: &'static str, secs: f64) {
        *self.log().hook_secs.entry(name).or_default() += secs;
    }

    /// Adds to a counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.log().counts.entry(name).or_default() += n;
    }

    /// Summed duration of the spans named `name`, plus hook time
    /// recorded under that name.
    pub fn secs(&self, name: &str) -> f64 {
        let log = self.log();
        let spans: f64 = log
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum();
        spans + log.hook_secs.get(name).copied().unwrap_or(0.0)
    }

    /// Total hook time over every observer.
    pub fn all_hook_secs(&self) -> f64 {
        self.log().hook_secs.values().sum()
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        self.log().counts.get(name).copied().unwrap_or(0)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Times an observer's row hook on the calling thread: one pair of clock
/// reads per `on_pulse_row`. Every other hook is forwarded untimed (the
/// dataflow drivers emit rows only).
pub struct Timed<O> {
    name: &'static str,
    inner: O,
    secs: f64,
}

impl<O> Timed<O> {
    /// Wraps `inner`, recording its hook time under `name`.
    pub fn new(name: &'static str, inner: O) -> Self {
        Self {
            name,
            inner,
            secs: 0.0,
        }
    }

    /// Moves the summed hook time into the log.
    pub fn report(&self, t: &Tracer) {
        t.add_hook_secs(self.name, self.secs);
    }
}

impl<O: Observer> Observer for Timed<O> {
    fn on_faulty(&mut self, node: NodeId) {
        self.inner.on_faulty(node);
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.inner.on_pulse(k, node, t);
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        let start = Instant::now();
        self.inner.on_pulse_row(k, layer, row);
        self.secs += start.elapsed().as_secs_f64();
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        self.inner.on_broadcast(node, t);
    }
}

/// Counts the rows a driver emits and the pulses in them.
struct Counted<O> {
    inner: O,
    rows: u64,
    pulses: u64,
}

impl<O: Observer> Observer for Counted<O> {
    fn on_faulty(&mut self, node: NodeId) {
        self.inner.on_faulty(node);
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.inner.on_pulse(k, node, t);
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        self.rows += 1;
        self.pulses += row.iter().filter(|t| t.is_some()).count() as u64;
        self.inner.on_pulse_row(k, layer, row);
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        self.inner.on_broadcast(node, t);
    }
}

/// One seed's inputs: environment and layer-0 source, each in a span.
fn traced_inputs(
    t: &Tracer,
    parent: usize,
    g: &LayeredGraph,
    seed: u64,
) -> (StaticEnvironment, Layer0Line) {
    let env = t.span("sim.env_build", Some(parent), |_| env_for(g, seed));
    let layer0 = t.span("core.layer0", Some(parent), |_| layer0_for(g, seed));
    record_max(t, "sim.env_bytes", env_bytes(&env));
    (env, layer0)
}

/// Keeps the largest value seen under a counter name.
fn record_max(t: &Tracer, name: &'static str, value: u64) {
    let mut log = t.log();
    let slot = log.counts.entry(name).or_default();
    *slot = (*slot).max(value);
}

/// Computed bytes of an environment's delay and clock arrays.
fn env_bytes(env: &StaticEnvironment) -> u64 {
    (std::mem::size_of_val(env.delays()) + std::mem::size_of_val(env.clocks())) as u64
}

/// Computed bytes of a `StreamingSkew`'s per-node state: the faulty
/// flags and the two pulse fronts.
fn skew_state_bytes(g: &LayeredGraph) -> u64 {
    (g.node_count() * (std::mem::size_of::<bool>() + 2 * std::mem::size_of::<Option<Time>>()))
        as u64
}

/// Builds one seed's inputs, then runs the workload's dataflow driver
/// (`threads == 1`: serial, else the frontier driver) in a `sim.driver`
/// span and counts what it emits. The inputs are freed when the driver
/// returns, as in `common::run_gradient_trix_streaming`.
#[allow(clippy::too_many_arguments)] // the driver signature plus the span context
fn traced_drive<O: Observer>(
    t: &Tracer,
    parent: usize,
    g: &LayeredGraph,
    seed: u64,
    sends: &(impl SendModel + Sync),
    pulses: usize,
    threads: usize,
    obs: O,
) -> O {
    let (env, layer0) = traced_inputs(t, parent, g, seed);
    let rule = GradientTrixRule::new(standard_params());
    let mut counted = Counted {
        inner: obs,
        rows: 0,
        pulses: 0,
    };
    t.span("sim.driver", Some(parent), |_| {
        drive(
            g,
            &env,
            &layer0,
            &rule,
            sends,
            pulses,
            threads,
            &mut counted,
        )
    });
    t.count("sim.rows", counted.rows);
    t.count("sim.node_pulses", counted.pulses);
    counted.inner
}

#[allow(clippy::too_many_arguments)] // mirrors the driver signature
fn drive(
    g: &LayeredGraph,
    env: &StaticEnvironment,
    layer0: &Layer0Line,
    rule: &GradientTrixRule,
    sends: &(impl SendModel + Sync),
    pulses: usize,
    threads: usize,
    obs: &mut impl Observer,
) {
    if threads == 1 {
        run_dataflow_observed(g, env, layer0, rule, sends, pulses, obs);
    } else {
        run_dataflow_parallel(g, env, layer0, rule, sends, pulses, threads, obs);
    }
}

/// Rebuilds the scenarios of an untraced pass from its records, each job
/// composed of spanned public calls. `parent` is the span the jobs nest
/// under.
pub fn traced_scenarios(
    workload: Workload,
    records: &[BenchRecord],
    sim_threads: usize,
    t: &Tracer,
    parent: usize,
) -> Vec<Scenario> {
    records
        .iter()
        .map(|r| {
            let (t, record) = (t.clone(), r.clone());
            let job = move || {
                t.span("bench.scenario", Some(parent), |id| match workload {
                    Workload::ScaleW3200 => scale_job(&t, id, &record, sim_threads),
                    Workload::ModesW1280R16 => modes_job(&t, id, &record, sim_threads),
                    Workload::FaultSweepW256 => fault_job(&t, id, &record, sim_threads),
                    Workload::PaperTables => unreachable!("paper_tables runs the harness jobs"),
                })
            };
            let experiment: &'static str = match workload {
                Workload::ScaleW3200 => "exp_scale",
                Workload::ModesW1280R16 => "exp_modes",
                Workload::FaultSweepW256 => "exp_fault_sweep",
                Workload::PaperTables => unreachable!("paper_tables runs the harness jobs"),
            };
            let scenario = Scenario::new(
                experiment,
                r.scenario.clone(),
                r.params.clone(),
                &r.seeds,
                job,
            )
            .with_sim_threads(sim_threads);
            match &r.campaign {
                Some(c) => scenario.with_campaign(c.clone()),
                None => scenario,
            }
        })
        .collect()
}

/// `exp_scale::run`: `StreamingSkew` plus a post-mortem `TraceRing` per
/// seed, folded into the streaming table.
fn scale_job(t: &Tracer, id: usize, r: &BenchRecord, sim_threads: usize) -> ScenarioResult {
    let (width, pulses) = (param(r, "width"), param(r, "pulses"));
    let p = standard_params();
    let g = t.span("topology.build", Some(id), |_| grid(width, width));
    let mut ring = TraceRing::new(SCALE_RING_CAPACITY);
    let snaps: Vec<SkewStats> = r
        .seeds
        .iter()
        .map(|&seed| {
            let mut skew = streaming_monitor(&g, &p);
            let obs = (
                Timed::new("obs.skew.ingest", &mut skew),
                Timed::new("obs.ring.ingest", &mut ring),
            );
            let obs = traced_drive(t, id, &g, seed, &CorrectSends, pulses, sim_threads, obs);
            obs.0.report(t);
            obs.1.report(t);
            t.span("obs.skew.finish", Some(id), |_| skew.finish());
            skew.snapshot()
        })
        .collect();
    record_max(
        t,
        "obs.state_bytes",
        skew_state_bytes(&g) + (SCALE_RING_CAPACITY * std::mem::size_of::<TraceEvent>()) as u64,
    );
    let mut result = streaming_table(
        "exp_scale — streaming skew at 10× full-trace grid widths",
        &g,
        (width, width, pulses),
        &snaps,
    );
    for v in &mut result.violations {
        *v = format!("{v}; {}", ring.dump(8));
    }
    result
}

/// The table, statistics and Thm 1.1 oracle of
/// `common::streaming_skew_result_observed`.
/// `spec` is the grid's `(width, layers, pulses)`.
fn streaming_table(
    title: &str,
    g: &LayeredGraph,
    spec: (usize, usize, usize),
    snaps: &[SkewStats],
) -> ScenarioResult {
    let (width, layers, pulses) = spec;
    let p = standard_params();
    let summary = merge_snapshots(snaps);
    let d = g.base().diameter();
    let bound = theory::thm_1_1_bound(&p, d).as_f64();
    let mut table = Table::new(title, &STREAMING_HEADERS);
    table.row_values(&[
        width.to_string(),
        layers.to_string(),
        d.to_string(),
        g.node_count().to_string(),
        pulses.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(summary.max_full),
        fmt_f64(summary.max_global),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_intra / bound),
    ]);
    let violations = if summary.max_intra > bound {
        vec![format!(
            "streaming L_intra {} exceeds the Thm 1.1 bound {bound} (fault-free run)",
            summary.max_intra
        )]
    } else {
        Vec::new()
    };
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: None,
    }
}

/// `exp_modes::run` for a grid point: per seed, the sketch pass through
/// `(StreamingSkew, PodSketch)`, then the `ModeProbe` pass.
fn modes_job(t: &Tracer, id: usize, r: &BenchRecord, sim_threads: usize) -> ScenarioResult {
    let point = exp_modes::point_from_params(&r.params).expect("exp_modes params");
    assert_eq!(
        point.workload,
        exp_modes::Workload::Grid,
        "only grid points are traced"
    );
    let p = standard_params();
    let g = t.span("topology.build", Some(id), |_| point.layered());
    let mut violations = Vec::new();
    let mut snaps = Vec::new();
    let mut first = None;
    for &seed in &r.seeds {
        let mut skew = streaming_monitor(&g, &p);
        let mut sketch = PodSketch::new(&g, point.rank);
        let obs = (
            Timed::new("obs.skew.ingest", &mut skew),
            Timed::new("obs.sketch.ingest", &mut sketch),
        );
        let obs = traced_drive(
            t,
            id,
            &g,
            seed,
            &CorrectSends,
            point.pulses,
            sim_threads,
            obs,
        );
        obs.0.report(t);
        obs.1.report(t);
        t.span("obs.skew.finish", Some(id), |_| skew.finish());
        let snap = t.span("obs.sketch.finish", Some(id), |_| {
            sketch.finish();
            sketch.snapshot()
        });
        record_max(
            t,
            "obs.state_bytes",
            skew_state_bytes(&g) + snap.approx_bytes() as u64,
        );
        let probe = Timed::new("analysis.probe.ingest", ModeProbe::new(snap.clone()));
        let probe = traced_drive(
            t,
            id,
            &g,
            seed,
            &CorrectSends,
            point.pulses,
            sim_threads,
            probe,
        );
        probe.report(t);
        let report = probe.inner.into_report();
        if report.rows != snap.rows {
            violations.push(format!(
                "seed {seed}: probe consumed {} rows but the sketch folded {}",
                report.rows, snap.rows
            ));
        }
        if report.measured_error > snap.error_bound {
            violations.push(format!(
                "seed {seed}: measured reconstruction error {} exceeds the certified bound {}",
                report.measured_error, snap.error_bound
            ));
        }
        snaps.push(skew.snapshot());
        first.get_or_insert((snap, report));
    }
    let (snap, report): (trix_obs::PodSnapshot, ModeReport) = first.expect("at least one seed");
    let capture = if snap.energy > 0.0 {
        snap.captured_energy() / snap.energy
    } else {
        1.0
    };
    let v_dom = report
        .modes
        .first()
        .and_then(|m| m.velocity)
        .map_or_else(|| "-".to_owned(), fmt_f64);
    let mut table = Table::new(
        "exp_modes — POD sketch certificates and mode analytics at no-trace scale",
        &[
            "workload",
            "rank",
            "cols",
            "layers",
            "pulses",
            "rows",
            "capture",
            "cert err",
            "measured err",
            "meas/cert",
            "sketch bytes",
            "v_dom (layers/pulse)",
        ],
    );
    table.row_values(&[
        point.workload.name().to_owned(),
        point.rank.to_string(),
        snap.cols.to_string(),
        g.layer_count().to_string(),
        point.pulses.to_string(),
        snap.rows.to_string(),
        fmt_f64(capture),
        fmt_f64(snap.error_bound),
        fmt_f64(report.measured_error),
        fmt_f64(if snap.error_bound > 0.0 {
            report.measured_error / snap.error_bound
        } else {
            0.0
        }),
        snap.approx_bytes().to_string(),
        v_dom,
    ]);
    let sketch = SketchSummary {
        rank: snap.rank,
        cols: snap.cols,
        rows: snap.rows,
        singular_values: snap.singular_values,
        basis: snap.basis,
        error_bound: snap.error_bound,
        measured_error: report.measured_error,
        energy: snap.energy,
    };
    ScenarioResult {
        table,
        violations,
        skew: Some(merge_snapshots(&snaps)),
        sketch: Some(sketch),
    }
}

/// `exp_fault_sweep::run`: per seed, the campaign and its one-locality
/// checks, then the run through `(StreamingSkew, FaultClassSkew)`.
fn fault_job(t: &Tracer, id: usize, r: &BenchRecord, sim_threads: usize) -> ScenarioResult {
    let point = exp_fault_sweep::point_from_params(&r.params).expect("exp_fault_sweep params");
    let p = standard_params();
    let g = t.span("topology.build", Some(id), |_| {
        grid(point.width, point.width)
    });
    let mut violations = Vec::new();
    let mut snaps = Vec::new();
    let mut class_snaps: Vec<trix_obs::FaultClassStats> = Vec::new();
    let (mut worst_faults, mut worst_concurrent) = (0usize, 0usize);
    for &seed in &r.seeds {
        let (campaign, not_local) = t.span("faults.campaign", Some(id), |_| {
            campaign_checked(&g, &point, seed)
        });
        worst_faults = worst_faults.max(campaign.fault_count());
        worst_concurrent = worst_concurrent.max(campaign.max_concurrent(point.pulses));
        if not_local > 0 {
            violations.push(format!(
                "seed {seed}: `{}` fails {not_local} one-locality check(s)",
                campaign.descriptor()
            ));
        }
        let mut skew = streaming_monitor(&g, &p);
        let mut classes = FaultClassSkew::with_histogram(
            &g,
            p.kappa().as_f64() / 2.0,
            StreamingSkew::DEFAULT_HIST_BINS,
        );
        let obs = (
            Timed::new("obs.skew.ingest", &mut skew),
            Timed::new("obs.fault_class.ingest", &mut classes),
        );
        let obs = traced_drive(t, id, &g, seed, &campaign, point.pulses, sim_threads, obs);
        obs.0.report(t);
        obs.1.report(t);
        t.span("obs.skew.finish", Some(id), |_| skew.finish());
        classes.finish();
        record_max(t, "obs.state_bytes", skew_state_bytes(&g));
        snaps.push(skew.snapshot());
        class_snaps.push(classes.snapshot());
    }
    let summary = merge_snapshots(&snaps);
    let mut classes = class_snaps.into_iter();
    let mut merged = classes.next().expect("at least one seed");
    for s in classes {
        merged.merge(&s);
    }
    // `exp_fault_sweep`'s envelope: exact Thm 1.1 for the fault-free
    // control, Thm 1.2 for clustered stacks, FAULT_FACTOR × Thm 1.1
    // otherwise.
    let d = g.base().diameter();
    let base = theory::thm_1_1_bound(&p, d).as_f64();
    let bound = if point.density_centi == 0 && point.pattern == PatternClass::Iid {
        base
    } else if point.pattern == PatternClass::Cluster {
        theory::thm_1_2_envelope(&p, d, worst_concurrent as u32).as_f64()
    } else {
        base * FAULT_FACTOR
    };
    let mut table = Table::new(
        "exp_fault_sweep — time-varying fault campaigns: density × behavior × pattern",
        &[
            "width",
            "density",
            "behavior",
            "pattern",
            "faults (worst seed)",
            "max concurrent",
            "L_intra",
            "L_frontier",
            "L_healthy",
            "mean L_intra",
            "bound",
            "measured/bound",
        ],
    );
    table.row_values(&[
        point.width.to_string(),
        fmt_f64(point.density_centi as f64 / 100.0),
        point.behavior.name().to_owned(),
        point.pattern.name().to_owned(),
        worst_faults.to_string(),
        worst_concurrent.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(merged.frontier_max),
        fmt_f64(merged.healthy_max),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_intra / bound),
    ]);
    if summary.max_intra > bound {
        violations.push(format!(
            "campaign `{}`: L_intra {} exceeds its envelope {bound}",
            point.descriptor(),
            summary.max_intra
        ));
    }
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: None,
    }
}

/// Driver seconds of one seed's replays, summed over records.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replays {
    /// The workload's driver with `NullObserver`.
    pub null_s: f64,
    /// The workload's driver with the workload's observers.
    pub observed_s: f64,
    /// The serial driver with the workload's observers.
    pub serial_s: f64,
    /// The frontier driver (two workers) with the workload's observers.
    pub frontier_s: f64,
}

/// Replays each record's first seed outside the pass: with
/// `NullObserver` on the workload's driver, and with fresh copies of the
/// workload's (first-pass) observers on the serial and on the frontier
/// driver.
pub fn replays(workload: Workload, records: &[BenchRecord], sim_threads: usize) -> Replays {
    let mut out = Replays::default();
    if workload == Workload::PaperTables {
        return out;
    }
    let p = standard_params();
    let hist = p.kappa().as_f64() / 2.0;
    for r in records {
        let seed = r.seeds[0];
        match workload {
            Workload::ScaleW3200 => {
                let g = grid(param(r, "width"), param(r, "width"));
                let make = || {
                    (
                        streaming_monitor(&g, &p),
                        TraceRing::new(SCALE_RING_CAPACITY),
                    )
                };
                replay(
                    &mut out,
                    &g,
                    seed,
                    &CorrectSends,
                    param(r, "pulses"),
                    sim_threads,
                    make,
                );
            }
            Workload::ModesW1280R16 => {
                let point = exp_modes::point_from_params(&r.params).expect("exp_modes params");
                let g = point.layered();
                let make = || (streaming_monitor(&g, &p), PodSketch::new(&g, point.rank));
                replay(
                    &mut out,
                    &g,
                    seed,
                    &CorrectSends,
                    point.pulses,
                    sim_threads,
                    make,
                );
            }
            Workload::FaultSweepW256 => {
                let point =
                    exp_fault_sweep::point_from_params(&r.params).expect("exp_fault_sweep params");
                let g = grid(point.width, point.width);
                let campaign = exp_fault_sweep::campaign_for(&g, &point, seed);
                let make = || {
                    (
                        streaming_monitor(&g, &p),
                        FaultClassSkew::with_histogram(&g, hist, StreamingSkew::DEFAULT_HIST_BINS),
                    )
                };
                replay(
                    &mut out,
                    &g,
                    seed,
                    &campaign,
                    point.pulses,
                    sim_threads,
                    make,
                );
            }
            Workload::PaperTables => {}
        }
    }
    out
}

fn replay<O: Observer>(
    out: &mut Replays,
    g: &LayeredGraph,
    seed: u64,
    sends: &(impl SendModel + Sync),
    pulses: usize,
    sim_threads: usize,
    make: impl Fn() -> O,
) {
    let (env, layer0) = env_and_layer0(g, seed);
    let rule = GradientTrixRule::new(standard_params());
    let time = |threads: usize, mut obs: &mut dyn Observer| {
        let start = Instant::now();
        drive(g, &env, &layer0, &rule, sends, pulses, threads, &mut obs);
        start.elapsed().as_secs_f64()
    };
    out.null_s += time(sim_threads, &mut NullObserver);
    let observed = time(sim_threads, &mut make());
    out.observed_s += observed;
    let other = if sim_threads == 1 { 2 } else { 1 };
    let other_s = time(other, &mut make());
    let (serial, frontier) = if sim_threads == 1 {
        (observed, other_s)
    } else {
        (other_s, observed)
    };
    out.serial_s += serial;
    out.frontier_s += frontier;
}
