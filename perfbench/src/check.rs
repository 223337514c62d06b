//! Output checks of one pass: the harness oracles, and a digest of every
//! canonical record against the reference kept for the default seed.

use crate::workload::{Size, Workload};
use trix_bench::suite::Violation;
use trix_runner::{BenchRecord, BenchReport, Fnv};

/// The harness's default base seed; the reference digests are for it.
pub const DEFAULT_SEED: u64 = 0;

/// Reference digests: `workload size index digest label` per line.
const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a digest of one record's canonical JSON (a report holding only
/// that record, with every execution-volatile field zeroed).
pub fn record_digest(canonical: &BenchReport, index: usize) -> u64 {
    let single = BenchReport {
        records: vec![canonical.records[index].clone()],
        ..canonical.clone()
    };
    let mut h = Fnv::new();
    h.write_str(&single.to_json());
    h.finish()
}

/// The reference digests of `workload` at `size`, in record order, or
/// `None` when the reference holds none.
pub fn reference(workload: Workload, size: Size) -> Option<Vec<u64>> {
    let digests: Vec<u64> = REFERENCE
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, _index, digest) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (w == workload.name() && s == size.name())
                .then(|| u64::from_str_radix(digest, 16).expect("hex digest in reference.txt"))
        })
        .collect();
    (!digests.is_empty()).then_some(digests)
}

/// The header of `reference.txt`.
pub const REFERENCE_HEADER: &str = "\
# Reference digests of the canonical records for the default seed (0).
# Columns: workload, size, record index, FNV-1a digest of the record's
# canonical JSON, experiment/scenario. Regenerate the file with
#   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \\
#       --reference > perfbench/reference.txt
# only in a change that means to move a simulated statistic.
";

/// The reference lines for one pass's canonical records.
pub fn reference_lines(workload: Workload, size: Size, canonical: &BenchReport) -> String {
    (0..canonical.records.len())
        .map(|i| {
            format!(
                "{} {} {i} {:016x} {}/{}\n",
                workload.name(),
                size.name(),
                record_digest(canonical, i),
                canonical.records[i].experiment,
                canonical.records[i].scenario,
            )
        })
        .collect()
}

/// Runs attempted and failed in one pass. A run is one scenario with
/// one seed (a seedless scenario is one run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose scenario reported an oracle violation or whose
    /// canonical record differs from the reference.
    pub failed: u64,
    /// One line per failing scenario.
    pub messages: Vec<String>,
}

impl Verdict {
    /// Adds another pass's counts.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }
}

fn runs(record: &BenchRecord) -> u64 {
    record.seeds.len().max(1) as u64
}

/// Checks one pass. `reference` is the digest list for the default seed
/// (`None` for a held-out seed, which gets the oracles only); `expected`
/// is the canonical JSON every pass of the run must reproduce (`None`
/// for the first pass).
pub fn check_pass(
    canonical: &BenchReport,
    canonical_json: &str,
    violations: &[Violation],
    reference: Option<&[u64]>,
    expected: Option<&str>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let repeated = expected.is_none_or(|e| e == canonical_json);
    let count_ok = reference.is_none_or(|r| r.len() == canonical.records.len());
    for (i, record) in canonical.records.iter().enumerate() {
        verdict.attempted += runs(record);
        let oracle: Vec<&Violation> = violations
            .iter()
            .filter(|v| v.experiment == record.experiment && v.scenario == record.scenario)
            .collect();
        let digest_ok = reference.is_none_or(|r| r.get(i) == Some(&record_digest(canonical, i)));
        if oracle.is_empty() && digest_ok && count_ok && repeated {
            continue;
        }
        verdict.failed += runs(record);
        let mut why: Vec<String> = oracle.iter().map(|v| v.message.clone()).collect();
        if !digest_ok || !count_ok {
            why.push("canonical records differ from the reference".to_owned());
        }
        if !repeated {
            why.push("canonical records differ from the run's first pass".to_owned());
        }
        verdict.messages.push(format!(
            "{}/{}: {}",
            record.experiment,
            record.scenario,
            why.join("; ")
        ));
    }
    verdict
}
