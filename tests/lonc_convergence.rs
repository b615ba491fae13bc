//! LONC convergence properties (§IV-A): across scale factors and user
//! counts, the elastic allocation must reach a *fixed point* — ramp up,
//! settle, and (once clients drain) release — without oscillating
//! between allocate and release on successive control ticks. PR 1's
//! first runs showed exactly that oscillation at small scale factors;
//! the windowed-demand metric plus release hysteresis pin it down.
//!
//! The property is checked over the whole grid
//! `sf ∈ {0.002, 0.02, 0.25} × users ∈ {4, 16, 64}`; the expensive
//! sf=0.25 column only runs in release builds (the CI fidelity job
//! covers that scale too).

use emca_harness::{run, Alloc, RunConfig, RunOutput};
use prt_petrinet::AllocAction;
use volcano_db::client::Workload;
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

fn q6(iters: u32) -> Workload {
    Workload::Repeat {
        spec: QuerySpec::Q6 { variant: 0 },
        iterations: iters,
    }
}

/// Number of allocate↔release direction flips in the transition log.
/// A healthy trajectory is ramp-up (allocates), a long hold, then the
/// end-of-run drain (releases): at most one flip. Oscillation — shedding
/// a core that the very next tick re-allocates — shows up as many flips.
fn direction_flips(out: &RunOutput) -> usize {
    let mut flips = 0;
    let mut last: Option<AllocAction> = None;
    for e in &out.transitions {
        match e.action {
            AllocAction::Hold => {}
            a => {
                if let Some(prev) = last {
                    if prev != a {
                        flips += 1;
                    }
                }
                last = Some(a);
            }
        }
    }
    flips
}

/// The longest run of control steps holding one allocation, as a
/// fraction of all control steps.
fn longest_hold_fraction(out: &RunOutput) -> f64 {
    let n = out.transitions.len();
    if n == 0 {
        return 1.0;
    }
    let mut best = 0usize;
    let mut cur = 0usize;
    let mut nalloc = u32::MAX;
    for e in &out.transitions {
        if e.nalloc == nalloc {
            cur += 1;
        } else {
            nalloc = e.nalloc;
            cur = 1;
        }
        best = best.max(cur);
    }
    best as f64 / n as f64
}

fn check_grid(alloc: Alloc, min_hold: f64, sfs: &[f64], users: &[usize]) {
    for &sf in sfs {
        let data = TpchData::generate(TpchScale { sf, seed: 42 });
        for &n in users {
            let out = run(
                RunConfig::new(alloc, n, q6(2)).with_scale(data.scale),
                &data,
            );
            let flips = direction_flips(&out);
            assert!(
                flips <= 3,
                "sf={sf} users={n}: allocation oscillates \
                 ({flips} allocate/release direction flips over {} steps)",
                out.transitions.len(),
            );
            // A fixed point exists: some allocation is held for a
            // meaningful share of the control steps. Runs short enough
            // to be all ramp (a handful of control steps before the
            // clients drain) have no settling phase to measure.
            let hold = longest_hold_fraction(&out);
            if out.transitions.len() >= 48 {
                assert!(
                    hold >= min_hold,
                    "sf={sf} users={n}: no stable allocation (longest hold \
                     {hold:.2} of {} steps)",
                    out.transitions.len(),
                );
            }
            // And the bounds always hold.
            for e in &out.transitions {
                assert!((1..=16).contains(&e.nalloc), "nalloc out of range: {e:?}");
            }
        }
    }
}

#[test]
fn lonc_converges_at_small_scale() {
    check_grid(Alloc::Adaptive, 0.25, &[0.002, 0.02], &[4, 16, 64]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "sf=0.25 grid is release-only; CI's fidelity job covers it"
)]
fn lonc_converges_at_default_scale() {
    check_grid(Alloc::Adaptive, 0.25, &[0.25], &[4, 16, 64]);
}

// The hill climber must satisfy the same fixed-point property as the
// guard-driven adaptive mode over the same grid: its probe/revert cycle
// may not oscillate the allocation (a revert immediately re-grown, a
// growth immediately reverted and retried every tick). Its hold bound
// is looser: a climber *probes* its way up, so short Q6 runs spend a
// larger share of their control steps visiting candidate sizes — the
// flip count above is the real oscillation guard.

#[test]
fn hillclimb_converges_at_small_scale() {
    check_grid(Alloc::HillClimb, 0.15, &[0.002, 0.02], &[4, 16, 64]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "sf=0.25 grid is release-only; CI's fidelity job covers it"
)]
fn hillclimb_converges_at_default_scale() {
    check_grid(Alloc::HillClimb, 0.15, &[0.25], &[4, 16, 64]);
}
