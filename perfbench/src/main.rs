//! perfbench — the per-layer benchmark of the CodeGen+ pipeline.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--seed-base B]
//! ```
//!
//! Workloads: `kernels-cold`, `kernels-warm`, `population`, `daemon`, or
//! `all` (each of the four in its own child process, one after another).
//! Every workload checks its outputs, prints its run metadata, every
//! end-to-end and per-layer metric by name with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}` whose
//! metrics are the end-to-end ones with `--trace 0` and the per-layer ones
//! with `--trace 1`. The exit code is non-zero when any output was wrong.
//!
//! The workloads' inputs are fixed: the five Table 1 kernels, and the
//! population drawn from difftest seeds `B .. B + 1000` (`--seed-base`,
//! default 0; seeds from 1000000 on are the held-out range). `--seed` is
//! recorded with the result; it changes no input, so every count repeats
//! exactly from run to run.

mod affinity;
mod calib;
mod common;
mod daemon;
mod kernels;
mod library;
mod population;
mod stat;

use common::{Metric, Outcome};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["kernels-cold", "kernels-warm", "population", "daemon"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub seed_base: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        seed_base: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)? as f64,
            "--trace" => args.trace = num(value()?)? != 0,
            "--seed-base" => args.seed_base = num(value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, so the daemon's
/// process-wide span hooks never tax a library workload.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        let mut args = forwarded.clone();
        let at = args.iter().position(|a| a == "--workload").expect("parsed");
        args[at + 1] = w.to_owned();
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn report(args: &Args, out: &mut Outcome, started: Instant, nproc: usize) {
    out.at_reference_speed();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} seed_base={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.seed_base
    );
    println!(
        "meta threads={} intra={} nproc={nproc}",
        common::SINGLE.threads,
        common::SINGLE.intra
    );
    for (k, v) in &out.meta {
        println!("meta {k}={v}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("e2e  {:<28} {:>16} frac", "fail_frac", fail_frac);
    for m in &out.e2e {
        println!("e2e  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in out.layers.iter().chain(&out.extra) {
        println!("layer {:<27} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!("meta wall_s={:.3}", started.elapsed().as_secs_f64());
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    // Before the workload pins itself to one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = match args.workload.as_str() {
        "kernels-cold" => kernels::run(&args, true),
        "kernels-warm" => kernels::run(&args, false),
        "population" => population::run(&args),
        _ => match daemon::run(&args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: daemon workload failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    report(&args, &mut out, started, nproc);
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
