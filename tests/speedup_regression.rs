//! Headline-claim regression: the adaptive mechanism must beat the OS
//! baseline on the paper's mixed TPC-H workload. This is the same
//! comparison `tab_summary` tabulates (and the CI fidelity job
//! enforces), pinned at the default scale the acceptance criteria
//! name: `--sf 0.25`, 64 users. Release-only — roughly half a
//! minute of deterministic simulation.

use emca_harness::{report, run, Alloc, RunConfig};
use emca_metrics::stats;
use volcano_db::client::Workload;
use volcano_db::exec::engine::Flavor;
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

fn mixed(iters: u32) -> Workload {
    let specs: Vec<QuerySpec> = (1..=22)
        .flat_map(|n| {
            (0..4).map(move |v| QuerySpec::Tpch {
                number: n,
                variant: v,
            })
        })
        .collect();
    Workload::Mixed {
        specs,
        iterations: iters,
        seed: 7,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "default-scale run is release-only; CI's fidelity job gates it"
)]
fn adaptive_beats_os_on_mixed_workload() {
    let data = TpchData::generate(TpchScale { sf: 0.25, seed: 42 });
    for flavor in [Flavor::MonetDb, Flavor::SqlServer] {
        let os = run(
            RunConfig::new(Alloc::OsAll, 64, mixed(6))
                .with_scale(data.scale)
                .with_flavor(flavor),
            &data,
        );
        let ad = run(
            RunConfig::new(Alloc::Adaptive, 64, mixed(6))
                .with_scale(data.scale)
                .with_flavor(flavor),
            &data,
        );
        let speedups: Vec<f64> = report::speedup_by_tag(&os.results, &ad.results)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let max = stats::max(&speedups).expect("speedups measured");
        let avg = stats::mean(&speedups).expect("speedups measured");
        assert!(
            max > 1.0,
            "{flavor:?}: adaptive max speedup {max:.2} must exceed 1.0"
        );
        assert!(
            avg > 1.0,
            "{flavor:?}: adaptive avg speedup {avg:.2} must exceed 1.0"
        );
    }
}
