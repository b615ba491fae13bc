//! The correctness oracle: a golden digest per query spec, computed at
//! set-up on a pool of the run's width. Partitioning depends only on the
//! pool width, so every later threads result must match bit for bit.

use elastic_numa::volcano_db::client::{materialize_phases, Workload};
use elastic_numa::volcano_db::exec::{BaseData, Mat, ParEngine, ParEngineConfig, QueryResult};
use elastic_numa::volcano_db::tpch::{build_query, QuerySpec};
use std::fmt::Write;
use std::sync::Arc;

/// FNV-1a over whatever is formatted into it.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a query result: its `Debug` rendering, hashed.
pub fn digest(result: &Mat) -> u64 {
    let mut h = Fnv::default();
    write!(h, "{result:?}").expect("hashing never fails");
    h.0
}

/// Golden digests of a spec list.
pub struct Golden(Vec<(QuerySpec, u64)>);

impl Golden {
    /// Runs every spec once on a `width`-wide pool with one active
    /// worker. Doubles as the first warm-up pass over the data.
    pub fn compute(base: &Arc<BaseData>, width: usize, specs: &[QuerySpec]) -> Self {
        let engine = ParEngine::new(
            ParEngineConfig {
                n_workers: width,
                initial_active: 1,
                ..ParEngineConfig::default()
            },
            Arc::clone(base),
        );
        Golden(
            specs
                .iter()
                .map(|spec| {
                    let qid = engine.submit(Arc::new(build_query(spec)), spec.tag());
                    let r = engine
                        .wait_result(qid)
                        .unwrap_or_else(|e| panic!("golden pass: {spec:?} failed: {e}"));
                    (*spec, digest(&r.result))
                })
                .collect(),
        )
    }

    /// True when `result` is bit-for-bit the golden answer of `spec`.
    pub fn matches(&self, spec: &QuerySpec, result: &Mat) -> bool {
        self.0
            .iter()
            .find(|(s, _)| s == spec)
            .is_some_and(|(_, d)| *d == digest(result))
    }

    /// Checks the results of a `run()` call. The runner returns each
    /// client's results as one contiguous block but not which client a
    /// block belongs to, so blocks are matched to the clients' seeded
    /// streams by their query-number sequence first. Returns how many
    /// results are wrong (an unmatched block counts whole).
    pub fn mismatches(
        &self,
        results: &[QueryResult],
        workload: &Workload,
        clients: usize,
    ) -> usize {
        let mut streams: Vec<Option<Vec<QuerySpec>>> = (0..clients)
            .map(|c| Some(materialize_phases(workload, c).concat()))
            .collect();
        let per_client = streams[0].as_ref().map_or(0, Vec::len);
        if per_client == 0 || results.len() != per_client * clients {
            return results.len().max(1);
        }
        results
            .chunks(per_client)
            .map(|block| {
                let owner = streams.iter_mut().find(|s| {
                    s.as_ref().is_some_and(|specs| {
                        specs.iter().zip(block).all(|(s, r)| s.tag() == r.spec_tag)
                    })
                });
                match owner.and_then(Option::take) {
                    Some(specs) => specs
                        .iter()
                        .zip(block)
                        .filter(|(s, r)| !self.matches(s, &r.result))
                        .count(),
                    None => block.len(),
                }
            })
            .sum()
    }
}
