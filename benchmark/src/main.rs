//! `mmdb-benchmark` — the repository's benchmark. Start it through
//! `benchmark/run.sh`, which builds it; `benchmark/README.md` defines every
//! workload and metric.

mod dataset;
mod layers;
mod oracle;
mod orchestrate;
mod recover;
mod report;
mod requests;
mod rng;
mod run;
mod spec;
mod stage;
mod steady;
mod sys;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds N] [--trace [0|1]]
                        [--scale K] [--out-dir DIR]
       benchmark/run.sh --selfcheck | --smoke | --manifest

  --workload W   one of point_1shard, fanout_16shard, scan_paper, churn_durable;
                 without it every workload runs, each in a fresh process
  --seed N       fixes datasets and request streams (default 1)
  --seconds N    how long the steady phase measures (default 45)
  --trace        per-layer metrics and benchmark/out/trace-<workload>.json
  --scale K      divide dataset and operation counts by K (default 1)
  --selfcheck    two sets of 3 runs per workload; compare every median with its bound
  --smoke        1/50-scale run of everything; checks names against BENCHMARK.json
  --manifest     print BENCHMARK.json as generated from src/spec.rs";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: usize,
    pub out_dir: PathBuf,
}

enum Mode {
    Run,
    Selfcheck,
    Smoke,
    Manifest,
}

fn parse(argv: &[String]) -> Result<(Mode, Args), String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        scale: 1,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut mode = Mode::Run;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i, "--workload")?),
            "--seed" => args.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => {
                args.seconds = number(value(&mut i, "--seconds")?, "--seconds")?.max(1);
            }
            "--scale" => args.scale = number(value(&mut i, "--scale")?, "--scale")?.max(1) as usize,
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => mode = Mode::Selfcheck,
            "--smoke" => mode = Mode::Smoke,
            "--manifest" => mode = Mode::Manifest,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            return Err(format!("unknown workload {name:?}\n{USAGE}"));
        }
    }
    Ok((mode, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|(mode, args)| match mode {
        Mode::Manifest => {
            print!("{}", spec::manifest());
            Ok(())
        }
        Mode::Selfcheck => orchestrate::selfcheck(&args),
        Mode::Smoke => orchestrate::smoke(&args),
        Mode::Run => match args.workload.as_deref().and_then(spec::workload) {
            Some(w) => one(w, &args),
            None => orchestrate::every_workload(&args),
        },
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints its report.
fn one(w: &spec::Workload, args: &Args) -> Result<(), String> {
    let work = args
        .out_dir
        .join(format!("work-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    report::print_environment(w, args.seed, args.seconds, args.scale, &work);
    run::run(w, args, &work)?.print(w)
}
