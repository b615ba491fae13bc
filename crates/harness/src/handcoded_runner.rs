//! Runner for the hand-coded C Q6 baseline of §II-B (Fig. 4).

use emca_metrics::SimDuration;
use numa_sim::{CoreId, HwSnapshot};
use os_sim::{CoreMask, Kernel, ThreadState, Tid};
use std::rc::Rc;
use volcano_db::handcoded::{CAffinity, HandcodedClient, HandcodedData};
use volcano_db::tpch::TpchData;

/// Output of one hand-coded sweep point.
pub struct HandcodedOutput {
    /// Affinity policy.
    pub affinity: CAffinity,
    /// Concurrent clients.
    pub clients: usize,
    /// All `(response, revenue)` runs.
    pub runs: Vec<(SimDuration, f64)>,
    /// Wall time of the whole experiment.
    pub wall: SimDuration,
    /// The counters' growth over the experiment.
    pub hw: HwSnapshot,
}

/// Runs `clients` concurrent hand-coded Q6 programs, each forking a team
/// of `team_size` threads per execution, `iterations` times.
pub fn run_handcoded(
    data: &TpchData,
    affinity: CAffinity,
    clients: usize,
    team_size: usize,
    iterations: u32,
    deadline: SimDuration,
) -> HandcodedOutput {
    let mut kernel = Kernel::opteron_4x4();
    let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));

    let hc_data = Rc::new(HandcodedData::load(kernel.machine_mut(), data, CoreId(0)));
    let mut logs = Vec::new();
    for c in 0..clients {
        let (body, log) = HandcodedClient::new(
            Rc::clone(&hc_data),
            affinity,
            team_size,
            group,
            iterations,
            (c as u64 + 1) * 1_000_000,
        );
        kernel.spawn(format!("hc-client{c}"), group, None, Box::new(body));
        logs.push(log);
    }

    let hw_before = kernel.machine().counters().snapshot();
    let start = kernel.now();
    let coordinators: Vec<Tid> = (0..kernel.n_threads() as u32)
        .map(Tid)
        .filter(|&t| kernel.thread_name(t).starts_with("hc-client"))
        .collect();
    let finished = kernel.run_until_cond(start + deadline, |k| {
        coordinators
            .iter()
            .all(|&t| k.thread_state(t) == ThreadState::Finished)
    });
    if !finished {
        panic!(
            "{}",
            crate::timing::RunAborted {
                label: "hand-coded run".to_string(),
                deadline_s: deadline.as_secs_f64(),
                hint: "run_handcoded's deadline argument",
            }
        );
    }

    let runs = logs.iter().flat_map(|l| l.borrow().runs.clone()).collect();
    HandcodedOutput {
        affinity,
        clients,
        runs,
        wall: kernel.now().since(start),
        hw: kernel.machine().counters().snapshot().since(&hw_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_db::tpch::{queries::YEAR_DAYS, TpchScale};

    fn reference_revenue(data: &TpchData) -> f64 {
        let qty = data.column("lineitem", "l_quantity").as_f64();
        let ship = data.column("lineitem", "l_shipdate").as_i64();
        let disc = data.column("lineitem", "l_discount").as_f64();
        let price = data.column("lineitem", "l_extendedprice").as_f64();
        let d0 = 5.0 * YEAR_DAYS;
        let d1 = d0 + YEAR_DAYS;
        (0..qty.len())
            .filter(|&i| {
                let s = ship[i] as f64;
                s >= d0 && s < d1 && disc[i] >= 0.06 && disc[i] <= 0.08 && qty[i] < 24.0
            })
            .map(|i| price[i] * disc[i])
            .sum()
    }

    #[test]
    fn handcoded_q6_computes_correct_revenue() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let out = run_handcoded(&data, CAffinity::Os, 1, 4, 1, SimDuration::from_secs(60));
        assert_eq!(out.runs.len(), 1);
        let want = reference_revenue(&data);
        let got = out.runs[0].1;
        assert!(
            (got - want).abs() <= want.abs() * 1e-9 + 1e-6,
            "revenue mismatch: got {got} want {want}"
        );
        assert!(out.wall > SimDuration::ZERO);
    }

    #[test]
    fn dense_affinity_stays_on_node0() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let out = run_handcoded(&data, CAffinity::Dense, 2, 4, 1, SimDuration::from_secs(60));
        assert_eq!(out.runs.len(), 2);
        // All compute on node 0's cores (0..4); loader also ran there.
        let off_node0: u64 = out.hw.busy_ns[4..].iter().sum();
        assert_eq!(
            off_node0, 0,
            "dense teams escaped node 0: {:?}",
            out.hw.busy_ns
        );
        // Dense over local data crosses no links.
        assert_eq!(out.hw.link_bytes.iter().sum::<u64>(), 0);
    }

    #[test]
    fn sparse_affinity_crosses_links() {
        let data = TpchData::generate(TpchScale::test_tiny());
        let out = run_handcoded(
            &data,
            CAffinity::Sparse,
            1,
            8,
            1,
            SimDuration::from_secs(60),
        );
        // Teams on nodes 1..3 read node-0-homed data: HT traffic appears.
        assert!(
            out.hw.link_bytes.iter().sum::<u64>() > 0,
            "sparse must generate link traffic"
        );
    }
}
