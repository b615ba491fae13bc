//! Direct measurements of single layers: each public function is called
//! in a loop from outside and timed. They do not depend on the workload,
//! so every traced run reports the same set.

use crate::inputs;
use crate::schema::Report;
use crate::stats::median;
use elastic_numa::elastic_core::tenant::reference::ReferenceArbiter;
use elastic_numa::elastic_core::{
    ArbiterMode, ElasticMechanism, MechanismConfig, PolicyId, PoolConfig, PoolController,
    TenantArbiter, TenantId,
};
use elastic_numa::emca_harness::{build_admission, AdmissionSpec, ArrivalSchedule};
use elastic_numa::emca_metrics::{SimDuration, SimTime};
use elastic_numa::numa_sim::{AccessKind, CoreId, Machine, StreamId, SEG_BYTES};
use elastic_numa::os_sim::{CoreMask, Kernel, SpinWork};
use elastic_numa::prt_petrinet::{ElasticNet, Thresholds};
use elastic_numa::volcano_db::exec::eval::{self, reference};
use elastic_numa::volcano_db::exec::mat::{FlatJoinMap, JoinTable};
use elastic_numa::volcano_db::exec::plan::{AggKind, ArithOp, CmpOp, ScalarPred};
use elastic_numa::volcano_db::exec::{BaseData, ParEngine, ParEngineConfig};
use elastic_numa::volcano_db::storage::ColData;
use elastic_numa::volcano_db::tpch::{build_query, QuerySpec, TpchData};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time spent on one measurement.
const BUDGET: Duration = Duration::from_millis(40);
/// Rows the eval kernels run over (a partition-scale slice).
const ROWS: usize = 1 << 18;
/// A load pattern that exercises every sub-net of the PrT net.
const LOADS: [i64; 8] = [99, 99, 40, 8, 8, 75, 5, 50];

/// Keeps `v` from being optimised away, then drops it.
fn sink<T>(v: T) {
    drop(black_box(v));
}

/// Nanoseconds per call of `f`: the median over batches, each sized to
/// last about a millisecond, run until [`BUDGET`] is spent.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as u64;
    let batch = (1_000_000 / once).clamp(1, 100_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

fn eval_kernels(r: &mut Report) {
    let n = ROWS;
    let f64s = |m: usize| ColData::F64(Arc::new((0..n).map(|i| (i % m) as f64).collect()));
    let qty = f64s(50);
    let other = f64s(50);
    let gkeys = ColData::I64(Arc::new((0..n as i64).map(|i| (i * 37) % 1000).collect()));
    let bkeys = ColData::I64(Arc::new(
        (0..n as i64).map(|i| (i * 7) % (n as i64)).collect(),
    ));
    let probe_keys = ColData::I64(Arc::new(
        (0..n as i64).map(|i| (i * 13) % (2 * n as i64)).collect(),
    ));
    let cands: Vec<u32> = (0..n as u32).step_by(2).collect();
    let lt = ScalarPred::Cmp(CmpOp::Lt, 24.0);
    let between = ScalarPred::Between(10.0, 30.0);

    // (metric stem, rows the per-row cost divides by, kernel ns, reference ns)
    let mut rows: Vec<(&str, usize, f64, Option<f64>)> = Vec::new();
    rows.push((
        "scan_select",
        n,
        ns_per_call(|| sink(eval::scan_select(&qty, 0, n, &lt))),
        Some(ns_per_call(|| {
            sink(reference::scan_select(&qty, 0, n, &lt))
        })),
    ));
    rows.push((
        "select_and",
        cands.len(),
        ns_per_call(|| sink(eval::select_and(&cands, &qty, &between))),
        Some(ns_per_call(|| {
            sink(reference::select_and(&cands, &qty, &between))
        })),
    ));
    rows.push((
        "project",
        cands.len(),
        ns_per_call(|| sink(eval::project(&cands, &qty))),
        None,
    ));
    rows.push((
        "bin_op",
        n,
        ns_per_call(|| sink(eval::bin_op(&qty, &other, ArithOp::Mul, 0, n))),
        Some(ns_per_call(|| {
            sink(reference::bin_op(&qty, &other, ArithOp::Mul, 0, n))
        })),
    ));
    rows.push((
        "aggr_sum",
        n,
        ns_per_call(|| sink(eval::aggr_sum(&qty, 0, n))),
        Some(ns_per_call(|| sink(reference::aggr_sum(&qty, 0, n)))),
    ));
    rows.push((
        "group_agg",
        n,
        ns_per_call(|| sink(eval::group_agg(&gkeys, Some(&qty), AggKind::Sum, 0, n))),
        Some(ns_per_call(|| {
            sink(reference::group_agg(&gkeys, Some(&qty), AggKind::Sum, 0, n))
        })),
    ));
    rows.push((
        "build_hash",
        n,
        ns_per_call(|| {
            sink(FlatJoinMap::from_parts([eval::build_hash_part(
                &bkeys, 0, n,
            )]))
        }),
        Some(ns_per_call(|| sink(reference::build_hash(&bkeys, 0, n)))),
    ));
    let table = JoinTable {
        map: FlatJoinMap::from_parts([eval::build_hash_part(&bkeys, 0, n)]),
        build_origin: None,
        build_table: "orders",
    };
    let ref_map = reference::merge_hash([reference::build_hash(&bkeys, 0, n)]);
    rows.push((
        "probe_hash",
        n,
        ns_per_call(|| sink(eval::probe_hash(&table, &probe_keys, None, None, 0, n))),
        Some(ns_per_call(|| {
            sink(reference::probe_hash(
                &ref_map,
                &probe_keys,
                None,
                None,
                0,
                n,
            ))
        })),
    ));
    // Four partials over quarter ranges, as four workers would leave
    // them. Merging consumes its input, so both sides pay one clone.
    let quarter = n / 4;
    let parts: Vec<eval::GroupAcc> = (0..4)
        .map(|p| {
            eval::group_agg(
                &gkeys,
                Some(&qty),
                AggKind::Sum,
                p * quarter,
                (p + 1) * quarter,
            )
        })
        .collect();
    let ref_parts: Vec<_> = (0..4)
        .map(|p| {
            reference::group_agg(
                &gkeys,
                Some(&qty),
                AggKind::Sum,
                p * quarter,
                (p + 1) * quarter,
            )
        })
        .collect();
    let n_groups: usize = parts.iter().map(eval::GroupAcc::n_groups).sum();
    let merge = ns_per_call(|| sink(eval::merge_groups(parts.clone())));
    let merge_ref = ns_per_call(|| sink(reference::merge_groups(ref_parts.clone())));
    r.set("eval.merge_groups_ns_group", merge / n_groups as f64);
    r.set("eval.merge_groups_ref_ratio", merge / merge_ref);

    let groups: Vec<(i64, f64)> = (0..10_000).map(|i| (i, (i * 31 % 997) as f64)).collect();
    rows.push((
        "top_n",
        groups.len(),
        ns_per_call(|| sink(eval::top_n(&groups, 100))),
        Some(ns_per_call(|| sink(reference::top_n(&groups, 100)))),
    ));
    for (stem, per, ns, ref_ns) in rows {
        r.set(&format!("eval.{stem}_ns_row"), ns / per as f64);
        if let Some(ref_ns) = ref_ns {
            r.set(&format!("eval.{stem}_ref_ratio"), ns / ref_ns);
        }
    }
}

/// `submit` → `wait_result` of the cheapest plan there is, on an idle
/// sf 0.01 pool: what one trip through the dispatch machinery costs.
fn par_dispatch(r: &mut Report, width: usize) {
    let data = TpchData::generate(inputs::scale(0.01));
    let base = Arc::new(BaseData::from_tpch(&data));
    let spec = QuerySpec::ThetaSubselect { sel_pct: 0 };
    let plan = Arc::new(build_query(&spec));
    let roundtrips = |n_workers: usize| -> (f64, f64, f64) {
        let engine = ParEngine::new(
            ParEngineConfig {
                n_workers,
                initial_active: n_workers,
                ..ParEngineConfig::default()
            },
            Arc::clone(&base),
        );
        let (mut submit_us, mut trip_us) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < 2 * BUDGET {
            let t = Instant::now();
            let qid = engine.submit(Arc::clone(&plan), spec.tag());
            let submitted = t.elapsed();
            engine.wait_result(qid).expect("theta scan cannot fail");
            trip_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            submit_us.push(submitted.as_nanos() as f64 / 1e3);
        }
        let set_active_ns = ns_per_call(|| {
            engine.set_active(1);
            engine.set_active(n_workers);
        }) / 2.0;
        (median(&submit_us), median(&trip_us), set_active_ns / 1e3)
    };
    let (_, trip_w1, _) = roundtrips(1);
    let (submit, trip_wn, set_active) = roundtrips(width);
    r.set("par.submit_us", submit);
    r.set("par.roundtrip_us_w1", trip_w1);
    r.set("par.roundtrip_us_wN", trip_wn);
    r.set("par.set_active_us", set_active);
}

fn control(r: &mut Report) {
    // A fresh controller per batch keeps its transition log short.
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < BUDGET {
        let mut c = PoolController::new(PoolConfig::cpu_load(16));
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        for i in 0..2000 {
            now += SimDuration::from_millis(1);
            black_box(c.observe(now, LOADS[i % LOADS.len()] as f64));
        }
        samples.push(t.elapsed().as_nanos() as f64 / 2000.0);
    }
    r.set("pool.observe_ns", median(&samples));

    let mut net = ElasticNet::new(Thresholds::cpu_load_default(), 16, 1);
    let mut i = 0;
    r.set(
        "petrinet.step_ns",
        ns_per_call(|| {
            i += 1;
            black_box(net.step(LOADS[i % LOADS.len()]));
        }),
    );

    let mut gate = build_admission(
        &AdmissionSpec::Limit {
            max_inflight: 4,
            queue: Some(64),
        },
        SimDuration::from_millis(50),
    );
    let mut i = 0usize;
    r.set(
        "serve.admission_ns",
        ns_per_call(|| {
            i += 1;
            black_box(gate.on_arrival(i % 6, i % 3));
            black_box(gate.may_dispatch(i % 6));
        }),
    );
    let arrivals = ArrivalSchedule::poisson(1000.0, SimDuration::from_secs(1), 42)
        .arrivals
        .len();
    let per_schedule = ns_per_call(|| {
        black_box(ArrivalSchedule::poisson(
            1000.0,
            SimDuration::from_secs(1),
            42,
        ));
    });
    r.set(
        "serve.schedule_us_karrival",
        per_schedule / 1e3 * 1000.0 / arrivals as f64,
    );
}

fn spinning_kernel(threads: usize) -> (Kernel, elastic_numa::os_sim::GroupId) {
    let mut kernel = Kernel::opteron_4x4();
    let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
    for i in 0..threads {
        kernel.spawn(
            format!("w{i}"),
            group,
            None,
            Box::new(SpinWork::new(SimDuration::from_secs(3600))),
        );
    }
    (kernel, group)
}

fn simulator(r: &mut Report) {
    let (mut kernel, _) = spinning_kernel(64);
    r.set(
        "os_sim.run_tick_ns_64",
        ns_per_call(|| {
            kernel.run_tick();
            black_box(kernel.now());
        }),
    );

    let mut m = Machine::opteron_4x4();
    let space = m.create_space();
    // Far larger than L3: every access in the cycle is a miss.
    let region = m.alloc(space, 1024 * SEG_BYTES);
    let segs: Vec<_> = region.segments().collect();
    let mut i = 0;
    r.set(
        "numa_sim.access_dram_ns",
        ns_per_call(|| {
            i += 1;
            black_box(m.access_segment(
                CoreId(0),
                segs[i % segs.len()],
                AccessKind::Read,
                StreamId(0),
            ));
        }),
    );
    let mut m = Machine::opteron_4x4();
    r.set("numa_sim.end_tick_ns", ns_per_call(|| m.end_tick()));

    // poll() is called once per tick and is cheap when nothing is due,
    // so it is timed call by call between ticks, net of the timer's own
    // cost.
    let (mut kernel, group) = spinning_kernel(16);
    let space = kernel.machine_mut().create_space();
    let mut mech = ElasticMechanism::install(
        &mut kernel,
        group,
        space,
        PolicyId::Adaptive.build(),
        MechanismConfig::cpu_load(),
    );
    let (mut polls, mut timer) = (0u128, 0u128);
    let mut calls = 0u32;
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        kernel.run_tick();
        let t = Instant::now();
        mech.poll(&mut kernel);
        polls += t.elapsed().as_nanos();
        let t = Instant::now();
        timer += black_box(t.elapsed()).as_nanos();
        calls += 1;
    }
    r.set(
        "mechanism.poll_ns",
        polls.saturating_sub(timer) as f64 / f64::from(calls.max(1)),
    );
}

/// Churns `$tenants` tenants through a 64-core arbiter, 16 resident at
/// a time, eight control rounds per resident set; one tick is a demand
/// note, a claim attempt and a yield check. The two arbiters share
/// method names but no trait. Returns ns per tick.
macro_rules! arbiter_tick_ns {
    ($new:expr, $tenants:expr) => {{
        const CORES: u32 = 64;
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < 3 || start.elapsed() < BUDGET {
            let mut arb = $new(ArbiterMode::FairShare, CORES);
            let mut active: VecDeque<TenantId> = VecDeque::new();
            let (mut registered, mut ticks) = (0u32, 0u64);
            let t = Instant::now();
            while registered < $tenants || !active.is_empty() {
                while registered < $tenants && active.len() < 16 {
                    let id = arb.register(format!("t{registered}"), 1 + registered % 4, None);
                    let free = (0..CORES as u16)
                        .map(CoreId)
                        .find(|&c| !arb.foreign_mask(id).contains(c));
                    if let Some(c) = free {
                        arb.claim_initial(id, c);
                    }
                    active.push_back(id);
                    registered += 1;
                }
                for _ in 0..8 {
                    for &id in &active {
                        arb.note(id, true);
                        let wanted = (0..CORES as u16).map(CoreId).find(|&c| {
                            !arb.owned(id).contains(c) && !arb.foreign_mask(id).contains(c)
                        });
                        if let Some(c) = wanted {
                            black_box(arb.try_claim(id, c));
                        }
                        if arb.must_yield(id) {
                            if let Some(c) = arb.owned(id).iter().last() {
                                arb.release(id, c);
                            }
                        }
                        ticks += 1;
                    }
                }
                if let Some(id) = active.pop_front() {
                    arb.deregister(id);
                }
            }
            samples.push(t.elapsed().as_nanos() as f64 / ticks as f64);
        }
        median(&samples)
    }};
}

fn tenant_arbiter(r: &mut Report) {
    let indexed_256 = arbiter_tick_ns!(TenantArbiter::new, 256);
    r.set(
        "tenant.tick_ns_64",
        arbiter_tick_ns!(TenantArbiter::new, 64),
    );
    r.set("tenant.tick_ns_256", indexed_256);
    r.set(
        "tenant.ref_ratio_256",
        indexed_256 / arbiter_tick_ns!(ReferenceArbiter::new, 256),
    );
}

/// Runs every direct measurement into `r`.
pub fn run(r: &mut Report, width: usize) {
    let specs = inputs::tpch_specs();
    let all = ns_per_call(|| {
        for s in &specs {
            black_box(build_query(s));
        }
    });
    r.set("tpch.build_query_us", all / 1e3 / specs.len() as f64);
    eval_kernels(r);
    par_dispatch(r, width);
    control(r);
    simulator(r);
    tenant_arbiter(r);
}
