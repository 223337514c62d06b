//! The host stamp printed with every result, and the thread-budget check.

use std::fs;

/// What the numbers of one run were measured on.
#[derive(Clone, Debug)]
pub struct HostStamp {
    /// CPUs detected by `trix_sim::detected_parallelism`.
    pub nproc: usize,
    /// Whether that detection failed (and `nproc` is the fallback).
    pub detection_failed: bool,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Unified L2 size of CPU 0, as sysfs prints it (e.g. `2048K`).
    pub l2: String,
    /// Unified L3 size of CPU 0.
    pub l3: String,
    /// The compiler the benchmark was built with.
    pub rustc: &'static str,
    /// `(scenario workers, dataflow workers)` after
    /// `trix_runner::resolve_thread_split`.
    pub split: (usize, usize),
}

impl HostStamp {
    /// Stamps the current host for a run with the given thread request.
    pub fn current(request: (usize, usize)) -> Self {
        let detected = trix_sim::detected_parallelism();
        Self {
            nproc: detected.workers,
            detection_failed: detected.detection_failed,
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            l2: cache_size(2).unwrap_or_else(|| "unknown".to_owned()),
            l3: cache_size(3).unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            split: trix_runner::resolve_thread_split(request.0, request.1),
        }
    }

    /// Why the run must not start, if it must not: CPU detection failed,
    /// or the workload would start more threads than there are CPUs.
    pub fn refusal(&self) -> Option<String> {
        if self.detection_failed {
            return Some(
                "CPU detection failed (trix_sim::detected_parallelism); thread counts \
                 would rest on the fallback"
                    .to_owned(),
            );
        }
        let threads = self.split.0 * self.split.1;
        (threads > self.nproc).then(|| {
            format!(
                "the workload starts {} scenario worker(s) × {} dataflow worker(s) = {threads} \
                 threads, more than the {} CPU(s) detected",
                self.split.0, self.split.1, self.nproc
            )
        })
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"detection_failed\": {}, \"cpu_model\": {}, \"l2\": {}, \
             \"l3\": {}, \"rustc\": {}, \"threads\": {}, \"sim_threads\": {}}}",
            self.nproc,
            self.detection_failed,
            quote(&self.cpu_model),
            quote(&self.l2),
            quote(&self.l3),
            quote(self.rustc),
            self.split.0,
            self.split.1
        )
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", trix_runner::json_escape(s))
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

fn cache_size(level: u32) -> Option<String> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.flatten().find_map(|entry| {
        let path = entry.path();
        let read = |f: &str| fs::read_to_string(path.join(f)).ok();
        let at_level = read("level")?.trim().parse::<u32>().ok()? == level;
        let unified = read("type")?.trim() == "Unified";
        (at_level && unified)
            .then(|| read("size"))?
            .map(|s| s.trim().to_owned())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
