//! What every workload shares: its context, its outcome, the timed
//! set-up of a threads workload, and where traces go.

use crate::oracle::Golden;
use crate::schema::Report;
use crate::spans::{self, Span};
use crate::stats::{highest_supported_percentile, median, percentile};
use elastic_numa::volcano_db::exec::BaseData;
use elastic_numa::volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
use std::sync::Arc;
use std::time::Instant;

/// How often set-up is repeated in an untraced run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// One invocation: which workload, drawn from which seed, measured for
/// how long, on how wide a pool.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `W = min(nproc, 4)`: pool width and closed-loop client count.
    pub width: usize,
}

impl Ctx {
    /// Set-up is repeated only where `setup_s` is reported for real: in
    /// an untraced run of full length.
    pub fn setup_repeats(&self) -> usize {
        if self.trace || self.seconds < f64::from(crate::schema::RUN_SECONDS) {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// False on any oracle, accounting or schedule-delivery violation.
    pub correct: bool,
}

/// Prints a `#`-prefixed header line: context a reader needs, not a
/// metric.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        println!("# {}", format!($($arg)*))
    };
}

/// A generated database, its worker-side snapshot and its oracle.
pub struct Prepared {
    pub data: TpchData,
    pub base: Arc<BaseData>,
    pub golden: Golden,
    /// Median seconds of one full set-up.
    pub setup_s: f64,
    /// Median seconds of `TpchData::generate` alone.
    pub generate_s: f64,
}

/// Set-up of a threads workload, `repeats` times over: generate the
/// data, snapshot it for the workers, run every spec once on a
/// `width`-wide pool for the golden digests, and run `warm` — the
/// workload's fixed warm-up through the path it measures (page faults,
/// thread spawn, allocator growth are paid there). The last repeat's
/// products are kept, with what every repeat's warm-up returned.
pub fn prepare<T>(
    scale: TpchScale,
    width: usize,
    specs: &[QuerySpec],
    repeats: usize,
    warm: impl Fn(&Prepared) -> T,
) -> (Prepared, Vec<T>) {
    let (mut setups, mut generates, mut warmed) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..repeats {
        // Drop the previous repeat first so peak memory is one database.
        drop(kept.take());
        let t = Instant::now();
        let data = TpchData::generate(scale);
        generates.push(t.elapsed().as_secs_f64());
        let base = Arc::new(BaseData::from_tpch(&data));
        let golden = Golden::compute(&base, width, specs);
        let p = Prepared {
            data,
            base,
            golden,
            setup_s: 0.0,
            generate_s: 0.0,
        };
        warmed.push(warm(&p));
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(p);
    }
    let mut p = kept.expect("set-up ran at least once");
    p.setup_s = median(&setups);
    p.generate_s = median(&generates);
    (p, warmed)
}

/// Median and p95 of `latencies_ms`, with a header line stating the
/// sample count and the highest percentile the sample supports.
pub fn latency_summary(what: &str, latencies_ms: &[f64]) -> (f64, f64) {
    let p = |q| percentile(latencies_ms, q).unwrap_or(f64::NAN);
    match highest_supported_percentile(latencies_ms.len()) {
        Some(q) => note!(
            "{what}: {} latency samples, highest supported percentile p{} = {:.3} ms",
            latencies_ms.len(),
            q * 100.0,
            p(q)
        ),
        None => note!(
            "{what}: {} latency samples, too few for any percentile",
            latencies_ms.len()
        ),
    }
    (p(0.5), p(0.95))
}

/// Writes a traced run's spans and counters to
/// `benchmark/out/trace-<workload>.json` and reports where the time
/// went. Returns false when some request's self times do not add up to
/// its duration within a tenth.
pub fn write_trace(workload: &str, spans: &[Span], counters: &[(&str, f64)]) -> bool {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(workload, spans, counters)));
    match written {
        Ok(()) => note!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => note!("could not write {}: {e}", path.display()),
    }
    let by_name = spans::self_time_by_name(spans);
    let total: u64 = by_name.iter().map(|e| e.1).sum();
    for (name, ns, count) in by_name {
        note!(
            "self time {name}: {:.1} % ({:.1} us mean over {count} spans)",
            ns as f64 / total.max(1) as f64 * 100.0,
            ns as f64 / 1e3 / count as f64
        );
    }
    let gap = spans::worst_self_time_gap(spans);
    note!(
        "worst gap between a request's duration and its self times: {:.2} %",
        gap * 100.0
    );
    gap <= 0.10
}
