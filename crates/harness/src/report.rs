//! Aggregation and rendering helpers shared by the figure binaries.

use crate::runner::RunOutput;
use elastic_core::TransitionEvent;
use emca_metrics::stats;
use emca_metrics::table::{fnum, Table};
use emca_metrics::{FxHashMap, SimDuration, TimeSeries};
use numa_sim::{EnergyBreakdown, EnergyModel};
use os_sim::SchedTrace;
use volcano_db::exec::engine::QueryResult;

/// Per-query-tag aggregates (one row of Fig. 19 / Fig. 20).
#[derive(Clone, Debug, Default)]
pub struct TagStats {
    /// Number of executions.
    pub n: usize,
    /// Mean response time.
    pub mean_response: SimDuration,
    /// Mean per-query HT/IMC ratio.
    pub mean_ht_imc: f64,
    /// Mean busy time per execution.
    pub mean_busy: SimDuration,
    /// Mean HT bytes per execution.
    pub mean_ht_bytes: f64,
}

/// Groups results by their spec tag (query number).
pub fn by_tag(results: &[QueryResult]) -> Vec<(u32, TagStats)> {
    let mut groups: FxHashMap<u32, Vec<&QueryResult>> = FxHashMap::default();
    for r in results {
        groups.entry(r.spec_tag).or_default().push(r);
    }
    let mut out: Vec<(u32, TagStats)> = groups
        .into_iter()
        .map(|(tag, rs)| {
            let n = rs.len();
            let total_resp: SimDuration = rs.iter().map(|r| r.response()).sum();
            let ratios: Vec<f64> = rs.iter().filter_map(|r| r.traffic.ht_imc_ratio()).collect();
            let total_busy: SimDuration = rs.iter().map(|r| r.busy).sum();
            let ht_bytes: f64 =
                rs.iter().map(|r| r.traffic.ht_bytes as f64).sum::<f64>() / n as f64;
            (
                tag,
                TagStats {
                    n,
                    mean_response: total_resp / n as u64,
                    mean_ht_imc: stats::mean(&ratios).unwrap_or(0.0),
                    mean_busy: total_busy / n as u64,
                    mean_ht_bytes: ht_bytes,
                },
            )
        })
        .collect();
    out.sort_by_key(|&(tag, _)| tag);
    out
}

/// Speedup of `improved` over `baseline` per tag (baseline/improved
/// response-time ratio, the topmost numbers of Fig. 19).
pub fn speedup_by_tag(baseline: &[QueryResult], improved: &[QueryResult]) -> Vec<(u32, f64)> {
    let base = by_tag(baseline);
    let imp: FxHashMap<u32, TagStats> = by_tag(improved).into_iter().collect();
    base.into_iter()
        .filter_map(|(tag, b)| {
            let i = imp.get(&tag)?;
            stats::speedup(b.mean_response.as_secs_f64(), i.mean_response.as_secs_f64())
                .map(|s| (tag, s))
        })
        .collect()
}

/// Per-query energy estimates (Fig. 20 methodology).
pub fn energy_by_tag(
    results: &[QueryResult],
    model: &EnergyModel,
    n_sockets: usize,
) -> Vec<(u32, EnergyBreakdown)> {
    by_tag(results)
        .into_iter()
        .map(|(tag, s)| {
            let e = model.per_query(
                s.mean_response,
                s.mean_busy,
                n_sockets,
                s.mean_ht_bytes as u64,
            );
            (tag, e)
        })
        .collect()
}

/// Renders a time-series bundle as one table: `time, <series...>`.
/// Series are resampled onto the first series' timestamps.
pub fn render_series(title: &str, series: &[&TimeSeries]) -> Table {
    let mut headers: Vec<&str> = vec!["time_s"];
    for s in series {
        headers.push(s.name());
    }
    let mut t = Table::new(title, &headers);
    if series.is_empty() || series[0].is_empty() {
        return t;
    }
    let n = series[0].len();
    for i in 0..n {
        let (at, _) = series[0].samples()[i];
        let mut row = vec![fnum(at.as_secs_f64(), 3)];
        for s in series {
            let v = s.samples().get(i).map(|&(_, v)| v).unwrap_or(f64::NAN);
            row.push(fnum(v, 3));
        }
        t.row(row);
    }
    t
}

/// The CSV header of [`render_transitions`] — what a scenario writing
/// that table declares in its schemas.
pub const TRANSITIONS_HEADER: &str = "time_s,transition,state,u,cpu_load_pct,cores";

/// The CSV header of [`render_migration_map`].
pub const MIGRATION_MAP_HEADER: &str = "thread,name_hint,core,node,start_ms,end_ms";

/// The CSV header of [`render_tomograph`].
pub const TOMOGRAPH_HEADER: &str = "operator,calls,total_time";

/// Renders the mechanism's transition log (Fig. 7).
pub fn render_transitions(title: &str, events: &[TransitionEvent]) -> Table {
    let mut t = Table::with_header(title, TRANSITIONS_HEADER);
    for e in events {
        t.row(vec![
            fnum(e.at.as_secs_f64(), 3),
            e.label.clone(),
            e.state.name().to_string(),
            e.u.to_string(),
            fnum(e.cpu_load_pct, 1),
            e.nalloc.to_string(),
        ]);
    }
    t
}

/// Renders a scheduler trace as the migration map of Figs. 5/16: one row
/// per span (`thread, core, node, start_ms, end_ms`). On the threads
/// backend the trace holds *host* CPU ids, which may lie outside the
/// simulated topology — those rows get a blank node column.
pub fn render_migration_map(title: &str, trace: &SchedTrace, topo: &numa_sim::Topology) -> Table {
    let mut t = Table::with_header(title, MIGRATION_MAP_HEADER);
    for span in trace.spans() {
        let node = if span.core.idx() < topo.n_cores() {
            topo.node_of(span.core).0.to_string()
        } else {
            "-".to_string()
        };
        t.row(vec![
            format!("T{}", span.tid.0),
            String::new(),
            span.core.0.to_string(),
            node,
            fnum(span.start.as_secs_f64() * 1e3, 3),
            fnum(span.end.as_secs_f64() * 1e3, 3),
        ]);
    }
    t
}

/// Renders the Tomograph operator table (Fig. 6).
pub fn render_tomograph(title: &str, out: &RunOutput) -> Table {
    let mut t = Table::with_header(title, TOMOGRAPH_HEADER);
    for (op, s) in out.tomograph.by_time() {
        t.row(vec![
            op.to_string(),
            s.calls.to_string(),
            format!("{}", s.total_time),
        ]);
    }
    t
}

/// Migration count per thread from a trace (summary row of Figs. 5/16).
pub fn migration_summary(trace: &SchedTrace) -> (usize, usize) {
    let threads = trace.threads();
    let total: usize = threads.iter().map(|&t| trace.migrations_of(t)).sum();
    (threads.len(), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emca_metrics::SimTime;
    use numa_sim::StreamTraffic;
    use volcano_db::exec::mat::Mat;
    use volcano_db::exec::task::QueryId;

    fn qr(tag: u32, resp_ms: u64, ht: u64, imc: u64) -> QueryResult {
        QueryResult {
            qid: QueryId(0),
            label: format!("Q{tag}"),
            spec_tag: tag,
            submitted: SimTime::ZERO,
            finished: SimTime::from_millis(resp_ms),
            traffic: StreamTraffic {
                ht_bytes: ht,
                imc_bytes: imc,
                l3_misses: 0,
            },
            busy: SimDuration::from_millis(resp_ms / 2),
            result: Mat::Scalar(0.0),
        }
    }

    #[test]
    fn by_tag_groups_and_averages() {
        let results = vec![qr(1, 100, 10, 100), qr(1, 300, 30, 100), qr(2, 50, 0, 100)];
        let tags = by_tag(&results);
        assert_eq!(tags.len(), 2);
        let (tag, s) = &tags[0];
        assert_eq!(*tag, 1);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean_response, SimDuration::from_millis(200));
        assert!((s.mean_ht_imc - 0.2).abs() < 1e-12);
    }

    #[test]
    fn speedup_compares_baseline() {
        let base = vec![qr(1, 200, 0, 1), qr(2, 100, 0, 1)];
        let imp = vec![qr(1, 100, 0, 1), qr(2, 100, 0, 1)];
        let sp = speedup_by_tag(&base, &imp);
        assert_eq!(sp.len(), 2);
        assert!((sp[0].1 - 2.0).abs() < 1e-12);
        assert!((sp[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_by_tag_produces_breakdowns() {
        let results = vec![qr(1, 1000, 1_000_000_000, 2_000_000_000)];
        let model = EnergyModel::opteron_8387();
        let e = energy_by_tag(&results, &model, 4);
        assert_eq!(e.len(), 1);
        assert!(e[0].1.cpu_j > 0.0);
        assert!(e[0].1.ht_j > 0.0);
    }

    #[test]
    fn render_series_aligns_rows() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        a.push(SimTime::from_millis(0), 1.0);
        a.push(SimTime::from_millis(100), 2.0);
        b.push(SimTime::from_millis(0), 3.0);
        b.push(SimTime::from_millis(100), 4.0);
        let t = render_series("demo", &[&a, &b]);
        assert_eq!(t.n_rows(), 2);
        let csv = t.to_csv();
        assert!(csv.starts_with("time_s,a,b"));
    }

    #[test]
    fn render_transitions_rows() {
        let events = vec![TransitionEvent {
            at: SimTime::from_millis(50),
            label: "t1-Overload-t5".into(),
            state: prt_petrinet::StateKind::Overload,
            action: prt_petrinet::AllocAction::Allocate,
            u: 99,
            cpu_load_pct: 99.0,
            nalloc: 4,
        }];
        let t = render_transitions("fig7", &events);
        assert_eq!(t.n_rows(), 1);
        assert!(t.render().contains("t1-Overload-t5"));
    }
}
