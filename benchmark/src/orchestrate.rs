//! The modes that run more than one workload. Each workload runs in a fresh
//! process (this executable, re-invoked with `--workload`), so no run
//! inherits another's heap, page cache warm-up or telemetry registry.

use crate::report::METRIC_PREFIX;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs per workload in each of `--selfcheck`'s two sets. One run against
/// one run compares two moments of the guest, not two builds.
const SELFCHECK_RUNS: u64 = 3;

/// Scale and steady-phase seconds of `--smoke`.
const SMOKE_SCALE: usize = 50;
const SMOKE_SECONDS: u64 = 1;

/// `(workload, metric) → value`, parsed back from a child's `metric` lines.
type Values = BTreeMap<(String, String), f64>;

struct Child {
    values: Values,
    failed_operations: bool,
}

/// Runs one workload in a child process, echoing its output.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    scale: usize,
    seconds: u64,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let mut values = Values::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(METRIC_PREFIX) {
            continue;
        }
        if let (Some(w), Some(name), Some(value)) = (fields.next(), fields.next(), fields.next()) {
            let value = value
                .parse()
                .map_err(|_| format!("unreadable line: {line}"))?;
            values.insert((w.to_owned(), name.to_owned()), value);
        }
    }
    Ok(Child {
        values,
        failed_operations: !text.contains("\"failed\": 0,"),
    })
}

/// The default mode: every workload, one process each.
pub fn every_workload(args: &Args) -> Result<(), String> {
    let mut any_failed = false;
    for w in &WORKLOADS {
        any_failed |= child(
            args,
            w.name,
            args.seed,
            args.trace,
            args.scale,
            args.seconds,
        )?
        .failed_operations;
    }
    if any_failed {
        return Err("some operations failed".to_owned());
    }
    Ok(())
}

/// Runs two sets of the full untraced suite back to back on the same build
/// — each set is [`SELFCHECK_RUNS`] runs per workload on consecutive seeds,
/// reduced to medians, as a comparison of two commits would be — and prints,
/// for every (workload, metric) pair, how much worse the second median is
/// next to the metric's bound. Fails on a breach.
pub fn selfcheck(args: &Args) -> Result<(), String> {
    let mut passes = Vec::with_capacity(2);
    for pass in 1..=2 {
        println!("== selfcheck set {pass} ==");
        let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for w in &WORKLOADS {
            for k in 0..SELFCHECK_RUNS {
                let run = child(args, w.name, args.seed + k, false, args.scale, args.seconds)?;
                if run.failed_operations {
                    return Err(format!("{}: operations failed", w.name));
                }
                for (key, value) in run.values {
                    samples.entry(key).or_default().push(value);
                }
            }
        }
        let medians: Values = samples
            .into_iter()
            .map(|(key, values)| (key, crate::sys::median(&values)))
            .collect();
        passes.push(medians);
    }
    println!(
        "== selfcheck: medians of {SELFCHECK_RUNS} runs, second set against first, same build =="
    );
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut breaches = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_owned(), m.name.to_owned());
            let (Some(&first), Some(&second)) = (passes[0].get(&key), passes[1].get(&key)) else {
                return Err(format!("{} did not report {}", w.name, m.name));
            };
            let worse = match m.better {
                Better::Lower => second / first - 1.0,
                Better::Higher => first / second - 1.0,
            };
            let breach = worse > m.bound;
            breaches += usize::from(breach);
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%{}",
                w.name,
                m.name,
                first,
                second,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "selfcheck: {breaches} metric(s) outside their bound"
        ));
    }
    println!("selfcheck: every pair within its bound");
    Ok(())
}

/// A 1/50-scale run of every workload, untraced and traced, asserting that
/// each emits every name `BENCHMARK.json` lists, finite (end-to-end: also
/// positive; per-layer: not negative, save the four that are differences),
/// with zero failed operations — and that `BENCHMARK.json` is what
/// `src/spec.rs` generates.
pub fn smoke(args: &Args) -> Result<(), String> {
    let manifest_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
    if on_disk != spec::manifest() {
        return Err(format!(
            "{} differs from `run.sh --manifest`; regenerate it",
            manifest_path.display()
        ));
    }
    // Differences of two measured values, which noise can push below zero.
    let signed = [
        "telemetry.gate_cost_share",
        "bench.trace_overhead_share",
        "mmdbms.fanout_self_us",
        "server.transport_self_us",
    ];
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let run = child(args, w.name, args.seed, trace, SMOKE_SCALE, SMOKE_SECONDS)?;
            if run.failed_operations {
                problems.push(format!("{}: operations failed", w.name));
            }
            let names: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            if run.values.len() != names.len() {
                problems.push(format!(
                    "{} (trace {trace}): {} metrics, BENCHMARK.json lists {}",
                    w.name,
                    run.values.len(),
                    names.len()
                ));
            }
            for name in names {
                match run.values.get(&(w.name.to_owned(), name.to_owned())) {
                    None => problems.push(format!("{}: {name} missing", w.name)),
                    Some(v) if !v.is_finite() => {
                        problems.push(format!("{}: {name} = {v}", w.name));
                    }
                    Some(&v) if (!trace && v <= 0.0) || (v < 0.0 && !signed.contains(&name)) => {
                        problems.push(format!("{}: {name} = {v}", w.name));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if problems.is_empty() {
        println!(
            "smoke: {} workloads x ({} end-to-end + {} per-layer) metrics present, zero failed operations",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        Ok(())
    } else {
        Err(format!("smoke:\n  {}", problems.join("\n  ")))
    }
}
