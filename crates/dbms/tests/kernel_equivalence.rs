//! Property tests: every monomorphized typed kernel in `exec::eval`
//! must be *output-identical* to its per-row naive reference
//! (`exec::eval::reference`) — the typed-kernel rework is a pure
//! wall-time optimisation.
//!
//! Covered: all three `ScalarPred` forms × both `ColData` types for the
//! selection kernels, both column-compare modes, all arithmetic /
//! aggregate shapes, flat-vs-hash group-by (with the merge combining
//! mixed accumulator forms), the flat join build/probe roundtrip with
//! provenance, and `top_n`.
//!
//! Values are drawn from ranges where f64 arithmetic is exact (the
//! engine's generated data lives well inside them), so float aggregate
//! totals must match bit for bit. Cases are deterministic per the
//! vendored proptest shim: fixed per-test seeds, `PROPTEST_CASES`
//! override honoured.

use proptest::prelude::*;
use std::sync::Arc;
use volcano_db::exec::eval::{self, reference, GroupAcc};
use volcano_db::exec::mat::{FlatJoinMap, JoinTable};
use volcano_db::exec::plan::{AggKind, ArithOp, CmpOp, ScalarPred};
use volcano_db::storage::ColData;

const CASES: u32 = 64;

fn i64_col(vals: &[i64]) -> ColData {
    ColData::I64(Arc::new(vals.to_vec()))
}

fn f64_col(vals: &[i64]) -> ColData {
    ColData::F64(Arc::new(vals.iter().map(|&v| v as f64).collect()))
}

/// Both typed views of the same logical values.
fn both_cols(vals: &[i64]) -> [ColData; 2] {
    [i64_col(vals), f64_col(vals)]
}

fn cmp_op(idx: u8) -> CmpOp {
    [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ge,
        CmpOp::Gt,
        CmpOp::Ne,
    ][idx as usize % 6]
}

fn arith_op(idx: u8) -> ArithOp {
    [
        ArithOp::Add,
        ArithOp::Sub,
        ArithOp::Mul,
        ArithOp::MulOneMinus,
    ][idx as usize % 4]
}

/// Every predicate form over the generated value domain, including a
/// fractional constant (so integer columns exercise the f64 compare)
/// and sets both below and above the sorted-probe cutoff.
fn preds(k: i64, lo: i64, hi: i64, set: &[i64]) -> Vec<ScalarPred> {
    let mut out = vec![
        ScalarPred::Between(lo as f64, hi as f64),
        ScalarPred::Between(lo as f64 + 0.5, hi as f64 + 0.5),
        ScalarPred::InSet(set.to_vec()),
    ];
    for i in 0..6 {
        out.push(ScalarPred::Cmp(cmp_op(i), k as f64));
        out.push(ScalarPred::Cmp(cmp_op(i), k as f64 + 0.5));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn scan_select_matches_reference(
        vals in proptest::collection::vec(-50i64..50, 1..300),
        k in -50i64..50,
        bounds in (-50i64..50, 0i64..30),
        small_set in proptest::collection::vec(-50i64..50, 1..6),
        large_set in proptest::collection::vec(-50i64..50, 12..20),
        cut in (0usize..100, 0usize..100),
    ) {
        let (lo, width) = bounds;
        let start = cut.0 * vals.len() / 100;
        let end = start + cut.1 * (vals.len() - start) / 100;
        for col in both_cols(&vals) {
            for pred in preds(k, lo, lo + width, &small_set)
                .into_iter()
                .chain([ScalarPred::InSet(large_set.clone())])
            {
                prop_assert_eq!(
                    eval::scan_select(&col, start, end, &pred),
                    reference::scan_select(&col, start, end, &pred),
                    "pred {:?} over {:?}", pred, col.col_type()
                );
            }
        }
    }

    #[test]
    fn select_and_matches_reference(
        vals in proptest::collection::vec(-50i64..50, 1..300),
        picks in proptest::collection::vec(0usize..300, 0..120),
        k in -50i64..50,
        set in proptest::collection::vec(-50i64..50, 9..14),
    ) {
        let cands: Vec<u32> = picks
            .iter()
            .map(|&p| (p % vals.len()) as u32)
            .collect();
        for col in both_cols(&vals) {
            for pred in preds(k, k - 5, k + 5, &set) {
                prop_assert_eq!(
                    eval::select_and(&cands, &col, &pred),
                    reference::select_and(&cands, &col, &pred)
                );
            }
        }
    }

    #[test]
    fn select_col_cmp_matches_reference(
        l in proptest::collection::vec(-40i64..40, 1..200),
        r_off in proptest::collection::vec(-3i64..3, 1..200),
        op_idx in 0u8..6,
        picks in proptest::collection::vec(0usize..200, 0..80),
    ) {
        let n = l.len().min(r_off.len());
        let l = &l[..n];
        let r: Vec<i64> = (0..n).map(|i| l[i] + r_off[i]).collect();
        let op = cmp_op(op_idx);
        let cands: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
        // All four type pairings, both modes.
        for lc in both_cols(l) {
            for rc in both_cols(&r) {
                prop_assert_eq!(
                    eval::select_col_cmp(None, &lc, &rc, op, (0, n)),
                    reference::select_col_cmp(None, &lc, &rc, op, (0, n))
                );
                prop_assert_eq!(
                    eval::select_col_cmp(Some(&cands), &lc, &rc, op, (0, 0)),
                    reference::select_col_cmp(Some(&cands), &lc, &rc, op, (0, 0))
                );
            }
        }
    }

    #[test]
    fn bin_op_and_sum_match_reference(
        vals in proptest::collection::vec(-1000i64..1000, 1..200),
        r_vals in proptest::collection::vec(-1000i64..1000, 1..200),
        op_idx in 0u8..4,
        cut in 0usize..100,
    ) {
        let n = vals.len().min(r_vals.len());
        let start = cut * n / 100;
        let op = arith_op(op_idx);
        for lc in both_cols(&vals[..n]) {
            for rc in both_cols(&r_vals[..n]) {
                prop_assert_eq!(
                    eval::bin_op(&lc, &rc, op, start, n),
                    reference::bin_op(&lc, &rc, op, start, n)
                );
            }
            prop_assert_eq!(
                eval::aggr_sum(&lc, start, n),
                reference::aggr_sum(&lc, start, n)
            );
        }
    }

    #[test]
    fn group_agg_flat_matches_hash_reference(
        keys in proptest::collection::vec(-200i64..200, 1..300),
        wide in proptest::collection::vec(0i64..2, 1..300),
        vals in proptest::collection::vec(-1000i64..1000, 1..300),
        count_mode in 0u8..2,
        n_parts in 1usize..5,
    ) {
        let n = keys.len().min(vals.len()).min(wide.len());
        // Mix in wide outliers so some partitions hash while others
        // stay dense — the merge must combine both forms.
        let keys: Vec<i64> = (0..n)
            .map(|i| keys[i] + wide[i] * (eval::DENSE_GROUP_SPAN as i64 + 7))
            .collect();
        let kc = i64_col(&keys);
        let vc = f64_col(&vals[..n]);
        let agg = if count_mode == 0 { AggKind::Sum } else { AggKind::Count };
        let values = if count_mode == 0 { Some(&vc) } else { None };

        let mut parts: Vec<GroupAcc> = Vec::new();
        let mut ref_parts = Vec::new();
        for p in 0..n_parts {
            let (s, e) = (n * p / n_parts, n * (p + 1) / n_parts);
            parts.push(eval::group_agg(&kc, values, agg, s, e));
            ref_parts.push(reference::group_agg(&kc, values, agg, s, e));
        }
        prop_assert_eq!(
            eval::merge_groups(parts),
            reference::merge_groups(ref_parts)
        );
    }

    #[test]
    fn join_roundtrip_matches_reference(
        build in proptest::collection::vec(0i64..60, 1..200),
        probe in proptest::collection::vec(0i64..80, 1..200),
        wide in 0u8..2,
        n_parts in 1usize..5,
        with_origins in 0u8..2,
    ) {
        // `wide` shifts one build key far away, forcing the hashed
        // layout; otherwise the direct layout handles the narrow span.
        let mut build = build;
        if wide == 1 {
            let n = build.len();
            build[n - 1] += 1 << 30;
        }
        let n = build.len();
        let parts: Vec<Vec<i64>> = (0..n_parts)
            .map(|p| {
                let (s, e) = (n * p / n_parts, n * (p + 1) / n_parts);
                eval::build_hash_part(&i64_col(&build), s, e)
            })
            .collect();
        let table = JoinTable {
            map: FlatJoinMap::from_parts(parts),
            build_origin: None,
            build_table: "orders",
        };
        let ref_map = reference::merge_hash(
            (0..n_parts).map(|p| {
                let (s, e) = (n * p / n_parts, n * (p + 1) / n_parts);
                reference::build_hash(&i64_col(&build), s, e)
            }),
        );
        let probe_col = i64_col(&probe);
        let (po, bo);
        if with_origins == 1 {
            let probe_origin: Vec<u32> = (0..probe.len() as u32).map(|i| i * 3 + 1).collect();
            let build_origin: Vec<u32> = (0..n as u32).map(|i| i * 5 + 2).collect();
            po = eval::probe_hash(
                &table, &probe_col, Some(&probe_origin), Some(&build_origin), 0, probe.len(),
            );
            bo = reference::probe_hash(
                &ref_map, &probe_col, Some(&probe_origin), Some(&build_origin), 0, probe.len(),
            );
        } else {
            po = eval::probe_hash(&table, &probe_col, None, None, 0, probe.len());
            bo = reference::probe_hash(&ref_map, &probe_col, None, None, 0, probe.len());
        }
        prop_assert_eq!(po, bo);
    }

    #[test]
    fn top_n_matches_reference(
        entries in proptest::collection::vec((-100i64..100, -50i64..50), 0..120),
        n in 0usize..140,
    ) {
        // Dedup keys so ties resolve identically; duplicate values stay
        // (the tie-by-key ordering is the interesting part).
        let mut groups: Vec<(i64, f64)> = entries
            .iter()
            .map(|&(k, v)| (k, v as f64))
            .collect();
        groups.sort_by_key(|&(k, _)| k);
        groups.dedup_by_key(|e| e.0);
        prop_assert_eq!(eval::top_n(&groups, n), reference::top_n(&groups, n));
    }
}
