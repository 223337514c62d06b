//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --reference > perfbench/reference.txt
//! ```
//!
//! The last line of standard output is the result object. Bad arguments,
//! a failed CPU detection, or a thread request above the CPU count exit
//! with code 2 and print no result.

use std::process::ExitCode;
use trix_perfbench::host::HostStamp;
use trix_perfbench::run::{self, RunSpec};
use trix_perfbench::workload::{Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// `None` asks for the reference file.
fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    if raw == ["--reference"] {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (trix_perfbench::check::DEFAULT_SEED, 10, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// The host stamp for `workload`, or the reason it must not run.
fn stamp(workload: Workload) -> Result<HostStamp, String> {
    let stamp = HostStamp::current(workload.thread_request());
    match stamp.refusal() {
        Some(why) => Err(format!("refusing to run {}: {why}", workload.name())),
        None => Ok(stamp),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => {
            let stamps: Result<Vec<HostStamp>, String> =
                Workload::ALL.into_iter().map(stamp).collect();
            if let Err(why) = stamps {
                eprintln!("{why}");
                return ExitCode::from(2);
            }
            print!(
                "{}",
                run::reference_file(|w| HostStamp::current(w.thread_request()).split)
            );
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "{message}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n   \
                 or: --reference",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let stamp = match stamp(args.workload) {
        Ok(stamp) => stamp,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let spec = RunSpec {
        workload: args.workload,
        size: Size::Full,
        seed: args.seed,
        seconds: args.seconds as f64,
        split: stamp.split,
    };
    println!("host: {}", stamp.to_json());
    let result = if args.trace {
        run::run_traced(&spec)
    } else {
        run::run_untraced(&spec)
    };
    for message in &result.verdict.messages {
        eprintln!("FAILED {message}");
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
