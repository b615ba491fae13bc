//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! emca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints `#` header lines, one `workload metric value unit` line
//! per metric, and a final JSON object. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `manifest`
//! prints `BENCHMARK.json`; `agree` compares whole sets of runs (see
//! `benchmark/README.md`).

mod agree;
mod closed;
mod common;
mod direct;
mod inputs;
mod micro;
mod oracle;
mod schema;
mod serve;
mod sim;
mod spans;
mod stats;
mod sys;

use common::{Ctx, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed the development runs used; see README for the one held back.
const DEFAULT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage: emca-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       emca-benchmark manifest\n       emca-benchmark agree [--repeats N] [--seed N] [--seconds S]",
        schema::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the optional subcommand.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", schema::manifest_json());
            ExitCode::SUCCESS
        }
        Some("agree") => agree::main(&args[1..]),
        // Started by `sys::KeepAwake` only.
        Some("spin") => sys::spin(),
        _ => match run_one(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("emca-benchmark: {e}");
                usage()
            }
        },
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload = schema::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .name;
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(f64::from(schema::RUN_SECONDS));
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    let nproc = sys::nproc();
    let ctx = Ctx {
        workload,
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
        width: nproc.min(4),
    };
    // The threads backend sizes its pool from this; set before the
    // first harness call, while the process is still single-threaded.
    std::env::set_var("EMCA_THREADS", ctx.width.to_string());

    let load_start = sys::loadavg();
    let steal_start = sys::steal_seconds();
    let commit = sys::first_line_of("git", &["rev-parse", "HEAD"]);
    let rustc = sys::first_line_of("rustc", &["--version"]);
    let noisy = load_start > ctx.width as f64;
    note!(
        "emca-benchmark workload={workload} seed={} seconds={seconds} trace={} W={} nproc={nproc} commit={commit} rustc={rustc:?} loadavg_start={load_start}{}",
        ctx.seed,
        u8::from(trace),
        ctx.width,
        if noisy { " NOISY" } else { "" }
    );
    if std::env::var_os("MALLOC_TRIM_THRESHOLD_").is_none() {
        note!("glibc malloc is not pinned (started without run.sh): numbers are louder and not comparable with pinned runs");
    }
    if seconds < f64::from(schema::RUN_SECONDS) {
        note!("shorter than the declared run_seconds: a smoke run, unfit for claims");
    }

    let Outcome {
        report,
        attempted,
        failed,
        correct,
    } = match workload {
        "olap_closed" => closed::run_workload(&ctx, &closed::OLAP),
        "small_closed" => closed::run_workload(&ctx, &closed::SMALL),
        "serve_open" => serve::run_workload(&ctx),
        "sim_closed" => sim::run_closed(&ctx),
        "sim_churn" => sim::run_churn(&ctx),
        _ => unreachable!("workload names come from the schema"),
    };
    let metrics = match report.finish() {
        Ok(m) => m,
        Err(missing) => {
            eprintln!("emca-benchmark: metrics without a finite value: {missing:?}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let attempted = attempted.max(1);
    note!(
        "failed_share {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let mut json = String::new();
    for (i, (decl, value)) in metrics.iter().enumerate() {
        println!("{workload} {} {value} {}", decl.name, decl.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            decl.name, decl.unit
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );

    let load_end = sys::loadavg();
    let provenance = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \"commit\": \"{commit}\", \"nproc\": {nproc}, \"W\": {}, \"rustc\": \"{rustc}\", \"loadavg_start\": {load_start}, \"loadavg_end\": {load_end}, \"noisy\": {noisy}, \"result\": {result}}}\n",
        ctx.seed,
        u8::from(trace),
        ctx.width
    );
    let out = std::path::Path::new("benchmark/out");
    let path = out.join(format!("run-{workload}-trace{}.json", u8::from(trace)));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, provenance)) {
        note!("could not write {}: {e}", path.display());
    }
    // Time the host took from this guest during the run: with it,
    // everything above is slower and louder than the program makes it.
    note!(
        "loadavg_end={load_end} steal_s={:.2}",
        sys::steal_seconds() - steal_start
    );

    println!("{result}");
    if correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("emca-benchmark: {workload}: a correctness, accounting or delivery check failed");
        Ok(ExitCode::FAILURE)
    }
}
