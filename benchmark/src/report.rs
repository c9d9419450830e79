//! Output: the environment block every run prints, one `metric` line per
//! value (the form `--selfcheck` and `--smoke` read back), and the contract's
//! JSON object as the last line of standard output.

use crate::spec::Workload;
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Prefix of the machine-readable metric lines.
pub const METRIC_PREFIX: &str = "metric";

impl Report {
    pub fn print(&self, w: &Workload) -> Result<(), String> {
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not finite: {}", m.name, m.value));
            }
            println!(
                "{METRIC_PREFIX} {} {} {} {}",
                w.name, m.name, m.value, m.unit
            );
        }
        println!(
            "operations {}: {} attempted, {} failed",
            w.name, self.attempted, self.failed
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

/// The environment block: what a reader needs to compare two runs.
pub fn print_environment(w: &Workload, seed: u64, seconds: u64, scale: usize, work: &Path) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!("workload {}: {}", w.name, w.why);
    println!(
        "environment: git {} | nproc {nproc} | {} | work dir {} on {} | fsync {}",
        env("MMDB_BENCH_GIT_SHA"),
        env("MMDB_BENCH_RUSTC"),
        work.display(),
        crate::sys::fs_type(work.parent().unwrap_or(work)),
        w.fsync.label()
    );
    println!(
        "parameters: seed {seed} | seconds {seconds} | scale 1/{scale} | dataset {} x {} bases | {} shard(s) | snapshot_every {} | {:?} | {} ops per round",
        w.dataset.name(),
        w.bases,
        w.shards,
        w.snapshot_every,
        w.drive,
        w.ops_per_round
    );
}
