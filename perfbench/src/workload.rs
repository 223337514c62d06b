//! The four benchmark workloads: which harness scenarios each one runs,
//! with which thread split, and the set-up work each pass performs.

use std::time::Instant;
use trix_bench::common::{grid, standard_params};
use trix_bench::suite::Scenario;
use trix_bench::{
    exp_adversary, exp_cor423, exp_ext_f2, exp_fault_sweep, exp_fig1, exp_fig23, exp_fig4,
    exp_fig5, exp_kappa_sweep, exp_lem_a1, exp_lynch_welch, exp_missing_policy, exp_modes,
    exp_recovery, exp_scale, exp_table1, exp_thm11, exp_thm12, exp_thm13, exp_thm14, exp_thm16,
    exp_topology, Scale,
};
use trix_core::Layer0Line;
use trix_runner::BenchRecord;
use trix_sim::{Rng, StaticEnvironment};
use trix_topology::LayeredGraph;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `exp_scale` w=3200 grid on the frontier engine.
    ScaleW3200,
    /// The `exp_modes` grid point w=1280, r=16 on the serial driver.
    ModesW1280R16,
    /// The 16 `exp_fault_sweep` scenarios at width 256.
    FaultSweepW256,
    /// Every full-trace paper experiment, sharded over two workers.
    PaperTables,
}

/// Paper scale, or the smoke-size variant the benchmark's tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny sizes with the same code paths, for the tests.
    Smoke,
}

impl Size {
    /// The harness scale this size selects.
    pub fn scale(self) -> Scale {
        match self {
            Size::Full => Scale::Full,
            Size::Smoke => Scale::Smoke,
        }
    }

    /// The size's lowercase name.
    pub fn name(self) -> &'static str {
        self.scale().name()
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ScaleW3200,
        Workload::ModesW1280R16,
        Workload::FaultSweepW256,
        Workload::PaperTables,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleW3200 => "scale_w3200",
            Workload::ModesW1280R16 => "modes_w1280_r16",
            Workload::FaultSweepW256 => "fault_sweep_w256",
            Workload::PaperTables => "paper_tables",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `(--threads, --sim-threads)` request: scenario workers and
    /// dataflow workers inside each scenario. Resolved through
    /// `trix_runner::resolve_thread_split` before use.
    pub fn thread_request(self) -> (usize, usize) {
        match self {
            Workload::ScaleW3200 | Workload::FaultSweepW256 => (1, 2),
            Workload::ModesW1280R16 => (1, 1),
            Workload::PaperTables => (2, 1),
        }
    }

    /// Grid width the workload selects from its experiment (`None` for
    /// `paper_tables`, which runs whole experiments).
    pub fn width(self, size: Size) -> Option<usize> {
        let (full, smoke) = match self {
            Workload::ScaleW3200 => (3200, 40),
            Workload::ModesW1280R16 => (1280, 12),
            Workload::FaultSweepW256 => (256, 12),
            Workload::PaperTables => return None,
        };
        Some(match size {
            Size::Full => full,
            Size::Smoke => smoke,
        })
    }

    /// The harness scenarios of one pass, built through the public
    /// `exp_*::scenarios` constructors with `seed` as the base seed.
    pub fn scenarios(self, size: Size, seed: u64, sim_threads: usize) -> Vec<Scenario> {
        let scale = size.scale();
        let width = self.width(size);
        let mut scenarios = match self {
            Workload::ScaleW3200 => exp_scale::scenarios(scale, seed, sim_threads),
            Workload::ModesW1280R16 => exp_modes::scenarios(scale, seed, sim_threads, None, false),
            Workload::FaultSweepW256 => exp_fault_sweep::scenarios(scale, seed, sim_threads),
            Workload::PaperTables => return paper_tables(scale, seed, sim_threads),
        };
        scenarios.retain(|s| match (self, width) {
            (Workload::ScaleW3200, Some(w)) => s.label() == format!("w={w}"),
            (Workload::ModesW1280R16, Some(w)) => s.label() == format!("grid w={w} r=16"),
            (Workload::FaultSweepW256, Some(w)) => s.label().ends_with(&format!(" w={w}")),
            _ => unreachable!("grid workloads have a width"),
        });
        scenarios
    }

    /// Repeats the set-up work one pass performs — topology, environment,
    /// layer-0 source and, where used, the fault campaign, for every seed
    /// of the pass — and returns its duration in seconds. The work is read
    /// off the pass's records (params and derived seeds). For
    /// `paper_tables`, whose scenarios build their inputs inside opaque
    /// jobs, set-up is the construction of the scenario list.
    pub fn setup(self, size: Size, seed: u64, sim_threads: usize, records: &[BenchRecord]) -> f64 {
        let start = Instant::now();
        match self {
            Workload::PaperTables => {
                std::hint::black_box(self.scenarios(size, seed, sim_threads));
            }
            Workload::ScaleW3200 => {
                for r in records {
                    let width: usize = param(r, "width");
                    let g = grid(width, width);
                    for &s in &r.seeds {
                        std::hint::black_box(env_and_layer0(&g, s));
                    }
                }
            }
            Workload::ModesW1280R16 => {
                for r in records {
                    let point = exp_modes::point_from_params(&r.params).expect("exp_modes params");
                    let g = point.layered();
                    // Both passes of a seed (sketch, then probe) build
                    // their own environment and layer-0 source.
                    for &s in &r.seeds {
                        for _ in 0..2 {
                            std::hint::black_box(env_and_layer0(&g, s));
                        }
                    }
                }
            }
            Workload::FaultSweepW256 => {
                for r in records {
                    let point = exp_fault_sweep::point_from_params(&r.params)
                        .expect("exp_fault_sweep params");
                    let g = grid(point.width, point.width);
                    for &s in &r.seeds {
                        std::hint::black_box(campaign_checked(&g, &point, s));
                        std::hint::black_box(env_and_layer0(&g, s));
                    }
                }
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// The full-trace suite of `trix_bench::all_scenarios` without the four
/// streaming sweeps (`exp_scale`, `exp_modes`, `exp_fault_sweep`,
/// `exp_churn`), in suite order.
fn paper_tables(scale: Scale, seed: u64, sim_threads: usize) -> Vec<Scenario> {
    [
        exp_table1::scenarios(scale, seed),
        exp_fig1::scenarios(scale, seed),
        exp_fig23::scenarios(scale, seed),
        exp_fig4::scenarios(scale, seed),
        exp_fig5::scenarios(scale, seed),
        exp_thm11::scenarios(scale, seed),
        exp_thm12::scenarios(scale, seed),
        exp_thm13::scenarios(scale, seed),
        exp_thm14::scenarios(scale, seed),
        exp_thm16::scenarios(scale, seed),
        exp_lem_a1::scenarios(scale, seed),
        exp_cor423::scenarios(scale, seed),
        exp_missing_policy::scenarios(scale, seed),
        exp_kappa_sweep::scenarios(scale, seed),
        exp_ext_f2::scenarios(scale, seed),
        exp_lynch_welch::scenarios(scale, seed),
        exp_recovery::scenarios(scale, seed),
        exp_adversary::scenarios(scale, seed),
        exp_topology::scenarios(scale, seed, sim_threads),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// A record param parsed as a number.
pub fn param(record: &BenchRecord, key: &str) -> usize {
    record
        .params
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("record `{}` has no numeric `{key}`", record.scenario))
}

/// The random environment of one seed, derived as
/// `trix_bench::common::run_gradient_trix_streaming` derives it (from
/// `fork(1)` of the seed's generator).
pub fn env_for(g: &LayeredGraph, seed: u64) -> StaticEnvironment {
    let p = standard_params();
    StaticEnvironment::random(
        g,
        p.d(),
        p.u(),
        p.theta(),
        &mut Rng::seed_from(seed).fork(1),
    )
}

/// The Appendix-A layer-0 line of one seed (from `fork(2)`).
pub fn layer0_for(g: &LayeredGraph, seed: u64) -> Layer0Line {
    Layer0Line::random_for_line(
        &standard_params(),
        g.width(),
        &mut Rng::seed_from(seed).fork(2),
    )
}

/// Both inputs of one seed's run.
pub fn env_and_layer0(g: &LayeredGraph, seed: u64) -> (StaticEnvironment, Layer0Line) {
    (env_for(g, seed), layer0_for(g, seed))
}

/// One fault-sweep seed's campaign plus the one-locality checks
/// `exp_fault_sweep::run` makes on it; returns the campaign and the
/// number of checks that failed.
pub fn campaign_checked(
    g: &LayeredGraph,
    point: &exp_fault_sweep::SweepPoint,
    seed: u64,
) -> (trix_faults::FaultCampaign, usize) {
    let campaign = exp_fault_sweep::campaign_for(g, point, seed);
    let ever = campaign.faulty_nodes().into_iter().collect();
    let mut failed = usize::from(!trix_faults::is_one_local(g, &ever));
    for k in 0..point.pulses {
        failed += usize::from(!trix_faults::is_one_local(g, &campaign.active_set(k)));
    }
    (campaign, failed)
}
