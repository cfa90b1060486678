//! `ffmr-perfbench` — the repository's end-to-end and per-layer
//! benchmark. `perfbench/run.py` builds the release `ffmr` binary and
//! this program, then runs:
//!
//! ```text
//! ffmr-perfbench --ffmr PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `serve_unique` and `serve_mixed`, a real `ffmr serve`
//! over TCP. The traced `serve_unique` run also measures the paper's
//! FF5 job layer by layer. The last line of standard output is the JSON
//! result; everything else goes to standard error. Inputs, spans and
//! summaries are written under `perfbench/out/`.

mod inputs;
mod mr;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serve::Mix;

/// One invocation's settings.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed of the query streams.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The release `ffmr` binary.
    pub ffmr: PathBuf,
    /// Where inputs and trace files go (`perfbench/out`).
    pub out: PathBuf,
}

/// The workloads by name.
const WORKLOADS: &[(&str, Mix)] = &[("serve_unique", Mix::Unique), ("serve_mixed", Mix::Mixed)];

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ffmr: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} '{value}'");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--ffmr" => run.ffmr = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == run.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !run.ffmr.is_file() {
        return Err(format!("--ffmr {} is not a file", run.ffmr.display()));
    }
    Ok(run)
}

fn bench(args: &[String]) -> Result<String, String> {
    let run = parse(args)?;
    std::fs::create_dir_all(&run.out).map_err(|e| format!("{}: {e}", run.out.display()))?;
    let mix = WORKLOADS
        .iter()
        .find(|(w, _)| *w == run.workload)
        .map(|(_, m)| *m)
        .expect("validated");
    let dataset = mix.dataset();
    let graph = run.out.join(format!("{}.txt", dataset.name()));
    dataset
        .write(&graph)
        .map_err(|e| format!("{}: {e}", graph.display()))?;
    let report = serve::run(mix, &run, &graph)?;
    report.to_json(run.trace)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
