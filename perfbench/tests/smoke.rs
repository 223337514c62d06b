//! Smoke-size variants of every workload: the same code paths as the
//! benchmark runs, at sizes that finish in well under a second, so the
//! benchmark cannot rot unnoticed.

use trix_perfbench::check::{self, DEFAULT_SEED};
use trix_perfbench::run::{self, RunSpec, EXPERIMENTS};
use trix_perfbench::workload::{Size, Workload};

fn spec(workload: Workload, seed: u64) -> RunSpec {
    let (threads, sim_threads) = workload.thread_request();
    RunSpec {
        workload,
        size: Size::Smoke,
        seed,
        // Zero seconds: exactly one pass (one traced pass) per run.
        seconds: 0.0,
        split: trix_runner::resolve_thread_split(threads, sim_threads),
    }
}

/// Default seed: oracles plus reference digests, untraced and traced,
/// and the traced records equal the untraced ones bit for bit.
fn default_seed_passes(workload: Workload) {
    assert!(
        check::reference(workload, Size::Smoke).is_some(),
        "no smoke reference for {}",
        workload.name()
    );
    let untraced = run::run_untraced(&spec(workload, DEFAULT_SEED));
    assert!(untraced.verdict.attempted > 0);
    assert_eq!(
        untraced.verdict.failed, 0,
        "{:?}",
        untraced.verdict.messages
    );
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        ["wall_s", "node_pulses_per_s", "setup_s", "peak_rss_mb"]
    );
    assert!(
        untraced.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        untraced.metrics
    );

    let traced = run::run_traced(&spec(workload, DEFAULT_SEED));
    assert_eq!(traced.verdict.failed, 0, "{:?}", traced.verdict.messages);
    assert_eq!(
        traced.traced_json.as_deref(),
        Some(untraced.canonical_json.as_str())
    );
    let failed_share = traced.metrics.iter().find(|m| m.name == "failed_share");
    assert_eq!(failed_share.map(|m| m.value), Some(0.0));
    let counted = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("no metric {name}"))
    };
    assert!(counted("sim.node_pulses") > 0.0);
    if workload != Workload::PaperTables {
        assert!(counted("sim.rows") > 0.0);
        assert!(counted("sim.env_build_s") > 0.0);
        assert!(counted("sim.frontier_speedup") > 0.0);
    }
}

/// A held-out seed gets the oracles (and the traced/untraced equality)
/// only.
fn held_out_seed_passes(workload: Workload) {
    let traced = run::run_traced(&spec(workload, 7));
    assert!(traced.verdict.attempted > 0);
    assert_eq!(traced.verdict.failed, 0, "{:?}", traced.verdict.messages);
    assert_eq!(
        traced.traced_json.as_deref(),
        Some(traced.canonical_json.as_str())
    );
}

#[test]
fn scale_w3200_smoke() {
    default_seed_passes(Workload::ScaleW3200);
    held_out_seed_passes(Workload::ScaleW3200);
}

#[test]
fn modes_w1280_r16_smoke() {
    default_seed_passes(Workload::ModesW1280R16);
    held_out_seed_passes(Workload::ModesW1280R16);
}

#[test]
fn fault_sweep_w256_smoke() {
    default_seed_passes(Workload::FaultSweepW256);
    held_out_seed_passes(Workload::FaultSweepW256);
}

#[test]
fn paper_tables_smoke() {
    default_seed_passes(Workload::PaperTables);
    held_out_seed_passes(Workload::PaperTables);
}

/// The digest check is live: a reference that disagrees with the records
/// fails every run it covers.
#[test]
fn a_wrong_reference_fails_every_run() {
    let workload = Workload::FaultSweepW256;
    let mut digests = check::reference(workload, Size::Smoke).expect("smoke reference");
    digests[0] ^= 1;
    let scenarios = workload.scenarios(Size::Smoke, DEFAULT_SEED, 1);
    let outcome = trix_bench::suite::run_scenarios(scenarios, Size::Smoke.scale(), DEFAULT_SEED, 1);
    let canonical = outcome.report.canonicalized();
    let json = canonical.to_json();
    let verdict = check::check_pass(&canonical, &json, &outcome.violations, Some(&digests), None);
    assert_eq!(verdict.failed, canonical.records[0].seeds.len() as u64);
    let verdict = check::check_pass(&canonical, &json, &outcome.violations, None, Some("{}"));
    assert_eq!(verdict.failed, verdict.attempted);
}

/// Every experiment a workload records has its `bench.<experiment>_s`
/// metric.
#[test]
fn every_recorded_experiment_has_a_metric() {
    for workload in Workload::ALL {
        for line in std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt"))
            .expect("reference.txt")
            .lines()
            .filter(|l| l.starts_with(workload.name()))
        {
            let label = line.split_whitespace().nth(4).expect("label column");
            let experiment = label.split('/').next().expect("experiment");
            assert!(
                EXPERIMENTS.contains(&experiment),
                "{experiment} has no metric"
            );
        }
    }
}
