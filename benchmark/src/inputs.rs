//! Everything a workload is fed, derived from `--seed`: data scale,
//! query streams, arrival schedules, the churn plan. The program under
//! test sees only these generated inputs.

use elastic_numa::emca_harness::{Arrival, ArrivalSchedule, ChurnPlan, ChurnSpec};
use elastic_numa::emca_metrics::SimDuration;
use elastic_numa::volcano_db::client::Workload;
use elastic_numa::volcano_db::tpch::{QuerySpec, TpchScale};

/// Independent input streams drawn from the one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Mixed = 1,
    Arrivals = 2,
    ServeMix = 3,
    Churn = 4,
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs do
/// not depend on the workspace's vendored `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Self {
        let mut r = Rng(seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64
    }
}

/// A sub-seed for one of the program's own seeded generators.
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// Seed of every generated database (the harness's own default).
const DATA_SEED: u64 = 42;

/// Database scale `sf`. The contents are the same under every `--seed`:
/// the seed varies what is asked of the database, not the database, as
/// a query's cost moves by several percent from one generated database
/// to the next and that would be read as run-to-run noise.
pub fn scale(sf: f64) -> TpchScale {
    TpchScale {
        sf,
        seed: DATA_SEED,
    }
}

/// TPC-H 1–22 × parameter variants 0–3.
pub fn tpch_specs() -> Vec<QuerySpec> {
    (1..=22u8)
        .flat_map(|number| (0..4u8).map(move |variant| QuerySpec::Tpch { number, variant }))
        .collect()
}

/// The closed-loop stream: every client draws uniformly from the 88
/// specs.
pub fn mixed(seed: u64, iterations: u32) -> Workload {
    Workload::Mixed {
        specs: tpch_specs(),
        iterations,
        seed: sub_seed(seed, Stream::Mixed),
    }
}

/// The specs the serving mix draws from.
pub fn serve_specs() -> Vec<QuerySpec> {
    (0..4u8)
        .flat_map(|variant| {
            [
                QuerySpec::Q6 { variant },
                QuerySpec::Tpch {
                    number: 14,
                    variant,
                },
                QuerySpec::Tpch {
                    number: 12,
                    variant,
                },
                QuerySpec::Tpch { number: 3, variant },
            ]
        })
        .collect()
}

/// One query of the serving mix: 70 % Q6, 10 % each Q14, Q12, Q3, at a
/// uniform variant 0–3.
fn serve_spec(rng: &mut Rng) -> QuerySpec {
    let variant = rng.below(4) as u8;
    match rng.below(10) {
        0..=6 => QuerySpec::Q6 { variant },
        7 => QuerySpec::Tpch {
            number: 14,
            variant,
        },
        8 => QuerySpec::Tpch {
            number: 12,
            variant,
        },
        _ => QuerySpec::Tpch { number: 3, variant },
    }
}

/// `n` queries of the serving mix for a closed-loop client.
pub fn serve_stream(seed: u64, n: usize) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed, Stream::ServeMix);
    (0..n).map(|_| serve_spec(&mut rng)).collect()
}

/// One fixed-rate open-loop step: exactly `rate × secs` arrivals at
/// independent uniform times — a Poisson process conditioned on its
/// count, so the burstiness is Poisson's while the offered load is the
/// same under every seed. `step` decorrelates the steps of one run.
pub fn serve_step(seed: u64, step: u64, rate: f64, secs: f64) -> ArrivalSchedule {
    let n = (rate * secs).round() as usize;
    let mut times = Rng::new(seed.wrapping_add(step), Stream::Arrivals);
    let mut mix = Rng::new(seed.wrapping_add(step), Stream::ServeMix);
    let mut at: Vec<f64> = (0..n).map(|_| times.unit() * secs).collect();
    at.sort_by(f64::total_cmp);
    ArrivalSchedule {
        arrivals: at
            .into_iter()
            .map(|t| Arrival {
                at: SimDuration::from_secs_f64(t),
                spec: serve_spec(&mut mix),
            })
            .collect(),
        horizon: SimDuration::from_secs_f64(secs),
    }
}

/// The churn population: 256 tenants through 16 resident slots, with
/// Zipf demand scaled inside `max_iters`.
pub fn churn_plan(seed: u64, tenants: u32, max_iters: u32) -> ChurnPlan {
    let mut spec = ChurnSpec::new(tenants);
    spec.resident = Some(16);
    spec.plan(sub_seed(seed, Stream::Churn), 4, max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let render = |s: &ArrivalSchedule| s.render();
        assert_eq!(
            render(&serve_step(42, 0, 100.0, 2.0)),
            render(&serve_step(42, 0, 100.0, 2.0))
        );
        assert_ne!(
            render(&serve_step(42, 0, 100.0, 2.0)),
            render(&serve_step(43, 0, 100.0, 2.0))
        );
        assert_ne!(
            render(&serve_step(42, 0, 100.0, 2.0)),
            render(&serve_step(42, 1, 100.0, 2.0))
        );
        assert_eq!(serve_stream(7, 50), serve_stream(7, 50));
        assert_eq!(
            churn_plan(42, 64, 3).expected_completions(),
            churn_plan(42, 64, 3).expected_completions()
        );
        assert_ne!(sub_seed(42, Stream::Churn), sub_seed(42, Stream::Mixed));
    }

    #[test]
    fn a_step_offers_exactly_its_rate_in_order_inside_the_horizon() {
        let s = serve_step(42, 2, 160.0, 3.0);
        assert_eq!(s.arrivals.len(), 480);
        assert!(s
            .arrivals
            .windows(2)
            .all(|w| w[0].at <= w[1].at && w[1].at < s.horizon));
        let q6 = s
            .arrivals
            .iter()
            .filter(|a| matches!(a.spec, QuerySpec::Q6 { .. }))
            .count();
        assert!((280..=390).contains(&q6), "70% of 480 is 336, got {q6}");
        assert!(s.arrivals.iter().all(|a| serve_specs().contains(&a.spec)));
    }

    #[test]
    fn the_closed_loop_stream_covers_all_88_specs() {
        assert_eq!(tpch_specs().len(), 88);
    }
}
