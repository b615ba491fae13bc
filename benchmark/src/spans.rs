//! In-memory spans recorded by the benchmark's own drivers around the
//! calls into each layer, written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `request_id`;
/// `parent` indexes the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// A single-threaded span recorder. Every recording thread owns one,
/// all started from the same `t0`; [`SpanLog::merge`] joins them. A
/// log that is switched off records nothing and reads no clock, so a
/// driver calls it unconditionally.
pub struct SpanLog {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(t0: Instant, on: bool) -> Self {
        SpanLog {
            t0,
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request_id: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.open_at(name, parent, request_id, start_ns)
    }

    /// Opens a span that began at `start_ns` (an open-loop request
    /// starts when it was due, not when the driver noticed it).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request_id: u64,
        start_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p as usize].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => by_name.push((s.name, t, 1)),
        }
    }
    by_name.sort_by_key(|e| std::cmp::Reverse(e.1));
    by_name
}

/// The largest relative gap, over all root spans, between a request's
/// duration and the self times of the spans in its tree. Zero when every
/// child lies inside its parent.
pub fn worst_self_time_gap(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    // Parents are recorded before their children, so one forward pass
    // resolves every span's root.
    let mut root: Vec<usize> = (0..spans.len()).collect();
    let mut sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            root[i] = root[p as usize];
        }
        sum[root[i]] += selfs[i];
    }
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.parent.is_none() && root[*i] == *i && s.end_ns > s.start_ns)
        .map(|(i, s)| {
            let dur = (s.end_ns - s.start_ns) as f64;
            (dur - sum[i] as f64).abs() / dur
        })
        .fold(0.0, f64::max)
}

/// Spans and counter deltas as one JSON document.
pub fn to_json(workload: &str, spans: &[Span], counters: &[(&str, f64)]) -> String {
    let mut s = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(s, "{{\"workload\": \"{workload}\", \"counters\": {{");
    for (i, (k, v)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{k}\": {v}");
    }
    s.push_str("}, \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}{sep}",
            sp.name, sp.start_ns, sp.end_ns, parent, sp.request_id
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("submit", 10, 30, Some(0)),
            span("wait", 30, 90, Some(0)),
            span("inner", 40, 50, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 20, 50, 10]);
        assert_eq!(worst_self_time_gap(&spans), 0.0);
        let by = self_time_by_name(&spans);
        assert_eq!(by[0], ("wait", 50, 1));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span("request", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        // Covered: 110..160 and 190..200.
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        // a + b + late self times exceed what the parent lost: the gap
        // shows spans that are not properly nested.
        assert!(worst_self_time_gap(&spans) > 0.10);
    }

    #[test]
    fn merge_keeps_parent_links() {
        let t0 = Instant::now();
        let mut a = SpanLog::new(t0, true);
        let r = a.open("request", None, 1);
        let c = a.open("child", Some(r), 1);
        a.close(c);
        a.close(r);
        let mut b = SpanLog::new(t0, true);
        let r2 = b.open_at("request", None, 2, 5);
        let c2 = b.open("child", Some(r2), 2);
        b.close(c2);
        b.close(r2);
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[2].start_ns, 5);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = to_json("w", spans, &[("tasks", 3.0)]);
        assert!(json.contains("\"parent\": null") && json.contains("\"tasks\": 3"));
    }

    #[test]
    fn a_log_switched_off_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let r = log.open("request", None, 1);
        let c = log.open_at("child", Some(r), 1, 5);
        log.close(c);
        log.close(r);
        assert!(log.spans().is_empty());
    }
}
