//! Property-based tests (proptest) over the core invariants of every
//! layer: PrT net safety, cache model bounds, mask algebra, allocation
//! mode orderings, operator correctness vs naive references,
//! scheduler confinement, and the query dataflow's result purity.

use proptest::prelude::*;

// ---------- PrT net safety --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any sequence of load samples, the net keeps 1 <= nalloc <=
    /// ntotal and its structural invariants.
    #[test]
    fn prt_net_is_safe(us in proptest::collection::vec(-20i64..140, 1..200),
                       ntotal in 1u32..64,
                       n0 in 1u32..64) {
        let n0 = n0.min(ntotal);
        let mut net = prt_petrinet::ElasticNet::new(
            prt_petrinet::Thresholds::cpu_load_default(), ntotal, n0);
        for u in us {
            let report = net.step(u);
            prop_assert!((1..=ntotal).contains(&report.nalloc));
            net.check_invariants();
            // Classification must be exhaustive and exclusive.
            let th = net.thresholds();
            let expected = if u <= th.thmin {
                prt_petrinet::StateKind::Idle
            } else if u >= th.thmax {
                prt_petrinet::StateKind::Overload
            } else {
                prt_petrinet::StateKind::Stable
            };
            prop_assert_eq!(report.state, expected);
        }
    }

    /// Allocate/Release actions exactly track the nalloc delta.
    #[test]
    fn prt_actions_match_deltas(us in proptest::collection::vec(0i64..100, 1..100)) {
        let mut net = prt_petrinet::ElasticNet::new(
            prt_petrinet::Thresholds::cpu_load_default(), 16, 8);
        let mut prev = net.nalloc();
        for u in us {
            let report = net.step(u);
            let expected = match report.action {
                prt_petrinet::AllocAction::Allocate => prev + 1,
                prt_petrinet::AllocAction::Release => prev - 1,
                prt_petrinet::AllocAction::Hold => prev,
            };
            prop_assert_eq!(report.nalloc, expected);
            prev = report.nalloc;
        }
    }
}

// ---------- Cache model ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LRU never exceeds capacity and a just-inserted entry always
    /// hits at its version.
    #[test]
    fn lru_capacity_and_hit(ops in proptest::collection::vec((0u64..50, 0u32..3), 1..300),
                            cap in 1usize..16) {
        let mut cache = numa_sim::LruCache::new(cap);
        for (seg, version) in ops {
            let seg = numa_sim::SegId(seg);
            cache.insert(seg, version);
            prop_assert!(cache.len() <= cap);
            prop_assert!(cache.contains_current(seg, version));
            prop_assert!(!cache.contains_current(seg, version.wrapping_add(1)));
        }
    }
}

// ---------- Core masks -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mask algebra is consistent with set semantics.
    #[test]
    fn mask_set_semantics(a in proptest::collection::btree_set(0u16..16, 0..16),
                          b in proptest::collection::btree_set(0u16..16, 0..16)) {
        use os_sim::CoreMask;
        use numa_sim::CoreId;
        let ma = CoreMask::from_cores(a.iter().map(|&c| CoreId(c)));
        let mb = CoreMask::from_cores(b.iter().map(|&c| CoreId(c)));
        prop_assert_eq!(ma.count(), a.len());
        let inter: Vec<u16> = a.intersection(&b).copied().collect();
        prop_assert_eq!(ma.and(mb).count(), inter.len());
        let union: Vec<u16> = a.union(&b).copied().collect();
        prop_assert_eq!(ma.or(mb).count(), union.len());
        for &c in &a {
            prop_assert!(ma.contains(CoreId(c)));
        }
        // Iteration is sorted and complete.
        let listed: Vec<u16> = ma.iter().map(|c| c.0).collect();
        let sorted: Vec<u16> = a.iter().copied().collect();
        prop_assert_eq!(listed, sorted);
    }
}

// ---------- Allocation modes -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// From any starting mask, repeatedly asking a mode for the next core
    /// fills the machine with no duplicates; releasing never drops the
    /// last core.
    #[test]
    fn modes_fill_without_duplicates(start in proptest::collection::btree_set(0u16..16, 0..8),
                                     pages in proptest::collection::vec(0u64..1000, 4),
                                     which in 0usize..3) {
        use elastic_core::{DenseMode, SparseMode, AdaptiveMode, ModeCtx, Policy};
        use os_sim::CoreMask;
        use numa_sim::{CoreId, Topology};
        let topo = Topology::opteron_4x4();
        let mut mode: Box<dyn Policy> = match which {
            0 => Box::new(DenseMode),
            1 => Box::new(SparseMode),
            _ => Box::new(AdaptiveMode::default()),
        };
        let mut mask = CoreMask::from_cores(start.iter().map(|&c| CoreId(c)));
        let mut added = 0;
        while let Some(core) = mode.next_core(&ModeCtx {
            topology: &topo,
            current: mask,
            barred: CoreMask::EMPTY,
            pages_per_node: &pages,
            mc_util_per_node: &[],
        }) {
            prop_assert!(!mask.contains(core), "duplicate allocation of {core:?}");
            mask.insert(core);
            added += 1;
            prop_assert!(added <= 16);
        }
        prop_assert_eq!(mask.count(), 16, "machine must end full");
        // Now release everything down to one core.
        while let Some(core) = mode.release_core(&ModeCtx {
            topology: &topo,
            current: mask,
            barred: CoreMask::EMPTY,
            pages_per_node: &pages,
            mc_util_per_node: &[],
        }) {
            prop_assert!(mask.contains(core));
            mask.remove(core);
        }
        prop_assert_eq!(mask.count(), 1, "release must stop at one core");
    }
}

// ---------- Operator correctness ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// scan_select over any partition split equals the naive filter.
    #[test]
    fn scan_select_partition_invariant(values in proptest::collection::vec(0.0f64..100.0, 1..500),
                                       threshold in 0.0f64..100.0,
                                       n_parts in 1u32..8) {
        use volcano_db::exec::eval::scan_select;
        use volcano_db::exec::plan::{CmpOp, ScalarPred};
        use volcano_db::exec::task::part_range;
        use volcano_db::storage::ColData;
        use std::sync::Arc;
        let col = ColData::F64(Arc::new(values.clone()));
        let pred = ScalarPred::Cmp(CmpOp::Lt, threshold);
        let mut split: Vec<u32> = Vec::new();
        for p in 0..n_parts {
            let (s, e) = part_range(values.len(), p, n_parts);
            split.extend(scan_select(&col, s, e, &pred));
        }
        let naive: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < threshold)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(split, naive);
    }

    /// group_agg merged over any partition split equals a single pass.
    #[test]
    fn group_agg_partition_invariant(rows in proptest::collection::vec((0i64..10, 0.0f64..10.0), 1..300),
                                     n_parts in 1u32..6) {
        use volcano_db::exec::eval::{group_agg, merge_groups};
        use volcano_db::exec::plan::AggKind;
        use volcano_db::exec::task::part_range;
        use volcano_db::storage::ColData;
        use std::sync::Arc;
        let keys = ColData::I64(Arc::new(rows.iter().map(|r| r.0).collect()));
        let vals = ColData::F64(Arc::new(rows.iter().map(|r| r.1).collect()));
        let parts = (0..n_parts).map(|p| {
            let (s, e) = part_range(rows.len(), p, n_parts);
            group_agg(&keys, Some(&vals), AggKind::Sum, s, e)
        });
        let merged = merge_groups(parts);
        let single = merge_groups([group_agg(&keys, Some(&vals), AggKind::Sum, 0, rows.len())]);
        prop_assert_eq!(merged.len(), single.len());
        for (a, b) in merged.iter().zip(&single) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1 - b.1).abs() < 1e-9);
        }
    }
}

// ---------- Scheduler confinement ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Work only ever runs on cores the group mask allows, for any mask.
    #[test]
    fn scheduler_confines_to_mask(cores in proptest::collection::btree_set(0u16..16, 1..16),
                                  n_threads in 1usize..8) {
        use os_sim::{Kernel, CoreMask, SpinWork};
        use emca_metrics::{SimDuration, SimTime};
        use numa_sim::CoreId;
        let mut kernel = Kernel::opteron_4x4();
        let mask = CoreMask::from_cores(cores.iter().map(|&c| CoreId(c)));
        let group = kernel.create_group(mask);
        for i in 0..n_threads {
            kernel.spawn(
                format!("w{i}"),
                group,
                None,
                Box::new(SpinWork::new(SimDuration::from_millis(3))),
            );
        }
        kernel.run_until(SimTime::from_millis(50));
        let busy = kernel.machine().counters().busy_ns.snapshot();
        for (idx, &b) in busy.iter().enumerate() {
            if !cores.contains(&(idx as u16)) {
                prop_assert_eq!(b, 0, "core {} ran masked work", idx);
            }
        }
        prop_assert_eq!(kernel.n_live_threads(), 0);
    }
}

// ---------- Dataflow: allocation never reaches results -----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A query's result on the thread pool is a function of the plan, the
    /// data and the pool width only. The query id (it seeds the slice
    /// round-robin), the active count and the wake order (they decide who
    /// runs and steals what, hence every commit order and every lineage
    /// preference downstream) change timing, never a bit of the answer.
    #[test]
    fn pool_result_ignores_qid_allocation_and_wake_order(number in 1u8..23,
                                                         variant in 0u8..4,
                                                         width in 1usize..17,
                                                         earlier in 0usize..4,
                                                         active in 1usize..17,
                                                         rotate in 0usize..16) {
        use std::sync::{Arc, OnceLock};
        use volcano_db::exec::{BaseData, ParEngine, ParEngineConfig};
        use volcano_db::tpch::queries::build_query;
        use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
        static BASE: OnceLock<Arc<BaseData>> = OnceLock::new();
        let base = BASE.get_or_init(|| {
            Arc::new(BaseData::from_tpch(&TpchData::generate(TpchScale::test_tiny())))
        });
        let pool = |initial_active: usize| {
            let cfg = ParEngineConfig { n_workers: width, initial_active, ..ParEngineConfig::default() };
            ParEngine::new(cfg, Arc::clone(base))
        };
        let spec = QuerySpec::Tpch { number, variant };
        let run = |engine: &ParEngine| {
            let qid = engine.submit(Arc::new(build_query(&spec)), spec.tag());
            let r = engine.wait_result(qid).expect("query completes");
            format!("{:?}", r.result)
        };
        let plain = pool(width);
        let want = run(&plain);

        let shaped = pool(active.min(width));
        let order: Vec<usize> = (0..width).map(|w| (w + rotate) % width).collect();
        shaped.set_wake_order(&order);
        for _ in 0..earlier {
            run(&shaped);
        }
        prop_assert_eq!(run(&shaped), want);
    }
}
