//! `agree`: runs whole sets of the five workloads, each workload in a
//! fresh process, and checks that the end-to-end metrics repeat.
//!
//! Without `--repeats` it runs the set twice on one seed (A, B) and
//! fails unless every metric of every workload agrees within the
//! metric's own bound. With `--repeats N` it runs N sets on N
//! consecutive seeds and prints each metric's median, quartiles and
//! spread, failing when a spread exceeds the bound. `--workload NAME`
//! restricts either mode to one workload.

use crate::schema::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{quartiles, spread};
use crate::{flag, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Runs one workload untraced in a child process and returns its
/// end-to-end metrics by name.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(name), Some(v)) if w == workload => {
                    v.parse().ok().map(|v| (name.to_string(), v))
                }
                _ => None,
            }
        })
        .collect())
}

pub fn main(args: &[String]) -> ExitCode {
    let parsed = (|| {
        Ok::<_, String>((
            flag::<usize>(args, "--repeats")?,
            flag::<u64>(args, "--seed")?.unwrap_or(DEFAULT_SEED),
            flag::<f64>(args, "--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
            flag::<String>(args, "--workload")?,
        ))
    })();
    let (repeats, seed, seconds, only) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("emca-benchmark agree: {e}");
            return ExitCode::from(2);
        }
    };
    let sets = repeats.unwrap_or(2).max(2);
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o == w.name))
    {
        let mut runs = Vec::new();
        for i in 0..sets {
            // A/B sets share the seed; repeat sets each take their own.
            let s = if repeats.is_some() {
                seed + i as u64
            } else {
                seed
            };
            match child(w.name, s, seconds) {
                Ok(m) => runs.push(m),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(m.name).copied()).collect();
            if values.len() != sets {
                eprintln!("{} did not print {}", w.name, m.name);
                return ExitCode::FAILURE;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (shown, off) = if repeats.is_some() {
                let [q1, q2, q3] = quartiles(&values);
                let sp = spread(&values);
                (
                    format!(
                        "median {q2:.4} q1 {q1:.4} q3 {q3:.4} spread {:.2}%",
                        sp * 100.0
                    ),
                    // Set-up time is bounded on its median only.
                    m.name != "setup_s" && sp > bound,
                )
            } else {
                let (a, b) = (values[0], values[1]);
                let diff = (a - b).abs() / ((a + b) / 2.0).abs().max(f64::MIN_POSITIVE);
                (
                    format!("A {a:.4} B {b:.4} differ {:.2}%", diff * 100.0),
                    diff > bound,
                )
            };
            println!(
                "{} {} {} {shown} bound {:.0}%{}",
                w.name,
                m.name,
                m.unit,
                bound * 100.0,
                if off { " OUTSIDE" } else { "" }
            );
            ok &= !off;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("emca-benchmark agree: some metric is outside its bound");
        ExitCode::FAILURE
    }
}
