//! Genuine operator evaluation.
//!
//! Operators compute real results over the generated columns, so
//! selectivities, join fan-outs and group cardinalities are authentic —
//! the simulation only *times* the work, it does not fake the data flow.
//! All functions operate on partition slices so tasks can evaluate their
//! chunk independently.
//!
//! The public kernels are *monomorphized*: each dispatches on the
//! `ColData` variant and the predicate/operator shape **once per call**,
//! then runs a tight typed loop over `&[i64]` / `&[f64]` slices with a
//! capacity-estimated output. The straightforward per-row formulations
//! they replaced live on in [`mod@reference`], which the property tests and
//! the operator benches use as the equivalence/`before` baseline. Every
//! kernel is output-identical to its reference — the rework is a pure
//! wall-time optimisation (simulated time is charged by the cost model,
//! not measured).

use crate::exec::mat::JoinTable;
use crate::exec::plan::{AggKind, ArithOp, CmpOp, ScalarPred};
use crate::storage::bat::ColData;
use emca_metrics::FxHashMap;

impl ScalarPred {
    /// Tests one value (integer columns compare exactly in f64 for the
    /// generated ranges; `InSet` uses the i64 view). Per-row path kept
    /// for the reference implementations; the kernels below hoist this
    /// dispatch out of their loops.
    #[inline]
    pub fn test(&self, data: &ColData, row: usize) -> bool {
        match self {
            ScalarPred::Cmp(op, k) => op.apply(data.value_f64(row), *k),
            ScalarPred::Between(lo, hi) => {
                let v = data.value_f64(row);
                v >= *lo && v <= *hi
            }
            ScalarPred::InSet(set) => set.contains(&data.value_i64(row)),
        }
    }
}

/// Output capacity estimate for a selection over `len` rows: generous
/// enough that common selectivities rarely reallocate, capped so a
/// partition-sized reservation does not page in fresh kernel memory per
/// task (partials outlive the call, so buffers cannot be pooled).
#[inline]
fn sel_capacity(len: usize) -> usize {
    (len / 4).clamp(64, 16384).min(len.max(1))
}

/// Block size of the branchless selection kernels: the staging buffer
/// stays L1-resident, survivors append in one bulk copy.
const SEL_BLOCK: usize = 4096;

/// Appends `base + i` for every slice element satisfying `f`.
///
/// Branchless selection: within each block the position is written
/// unconditionally and the write cursor advances by the predicate
/// result, so mid-range selectivities pay no branch mispredictions.
#[inline(always)]
fn scan_positions<T: Copy>(s: &[T], base: u32, out: &mut Vec<u32>, f: impl Fn(T) -> bool) {
    let mut buf = [0u32; SEL_BLOCK];
    let mut pos = base;
    for chunk in s.chunks(SEL_BLOCK) {
        let mut j = 0usize;
        for &x in chunk {
            buf[j] = pos;
            j += f(x) as usize;
            pos += 1;
        }
        out.extend_from_slice(&buf[..j]);
    }
}

/// Appends every candidate position whose value satisfies `f`
/// (branchless, block-staged like [`scan_positions`]).
#[inline(always)]
fn filter_positions<T: Copy>(cands: &[u32], v: &[T], out: &mut Vec<u32>, f: impl Fn(T) -> bool) {
    let mut buf = [0u32; SEL_BLOCK];
    for chunk in cands.chunks(SEL_BLOCK) {
        let mut j = 0usize;
        for &p in chunk {
            buf[j] = p;
            j += f(v[p as usize]) as usize;
        }
        out.extend_from_slice(&buf[..j]);
    }
}

/// Monomorphizes the six comparison shapes over one typed slice scan.
#[inline(always)]
fn scan_cmp<T: Copy>(
    s: &[T],
    base: u32,
    out: &mut Vec<u32>,
    op: CmpOp,
    k: f64,
    conv: impl Fn(T) -> f64,
) {
    match op {
        CmpOp::Lt => scan_positions(s, base, out, |x| conv(x) < k),
        CmpOp::Le => scan_positions(s, base, out, |x| conv(x) <= k),
        CmpOp::Eq => scan_positions(s, base, out, |x| conv(x) == k),
        CmpOp::Ge => scan_positions(s, base, out, |x| conv(x) >= k),
        CmpOp::Gt => scan_positions(s, base, out, |x| conv(x) > k),
        CmpOp::Ne => scan_positions(s, base, out, |x| conv(x) != k),
    }
}

/// Monomorphizes the six comparison shapes over a candidate gather.
#[inline(always)]
fn filter_cmp<T: Copy>(
    cands: &[u32],
    v: &[T],
    out: &mut Vec<u32>,
    op: CmpOp,
    k: f64,
    conv: impl Fn(T) -> f64,
) {
    match op {
        CmpOp::Lt => filter_positions(cands, v, out, |x| conv(x) < k),
        CmpOp::Le => filter_positions(cands, v, out, |x| conv(x) <= k),
        CmpOp::Eq => filter_positions(cands, v, out, |x| conv(x) == k),
        CmpOp::Ge => filter_positions(cands, v, out, |x| conv(x) >= k),
        CmpOp::Gt => filter_positions(cands, v, out, |x| conv(x) > k),
        CmpOp::Ne => filter_positions(cands, v, out, |x| conv(x) != k),
    }
}

/// `IN (set)` membership test factory: small sets probe linearly in the
/// original order, larger sets are sorted once and binary-searched.
/// Membership is order-insensitive, so both agree with `Vec::contains`.
enum SetProbe<'a> {
    Linear(&'a [i64]),
    Sorted(Vec<i64>),
}

impl<'a> SetProbe<'a> {
    fn new(set: &'a [i64]) -> Self {
        if set.len() <= 8 {
            SetProbe::Linear(set)
        } else {
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            SetProbe::Sorted(sorted)
        }
    }

    #[inline(always)]
    fn contains(&self, k: i64) -> bool {
        match self {
            SetProbe::Linear(s) => s.contains(&k),
            SetProbe::Sorted(s) => s.binary_search(&k).is_ok(),
        }
    }
}

/// `thetasubselect`: positions in `[start, end)` of `col` satisfying
/// `pred`.
pub fn scan_select(col: &ColData, start: usize, end: usize, pred: &ScalarPred) -> Vec<u32> {
    let mut out = Vec::with_capacity(sel_capacity(end.saturating_sub(start)));
    let base = start as u32;
    match (col, pred) {
        (ColData::I64(v), ScalarPred::Cmp(op, k)) => {
            scan_cmp(&v[start..end], base, &mut out, *op, *k, |x| x as f64)
        }
        (ColData::F64(v), ScalarPred::Cmp(op, k)) => {
            scan_cmp(&v[start..end], base, &mut out, *op, *k, |x| x)
        }
        (ColData::I64(v), ScalarPred::Between(lo, hi)) => {
            let (lo, hi) = (*lo, *hi);
            scan_positions(&v[start..end], base, &mut out, |x| {
                let x = x as f64;
                x >= lo && x <= hi
            });
        }
        (ColData::F64(v), ScalarPred::Between(lo, hi)) => {
            let (lo, hi) = (*lo, *hi);
            scan_positions(&v[start..end], base, &mut out, |x| x >= lo && x <= hi);
        }
        (ColData::I64(v), ScalarPred::InSet(set)) => {
            let probe = SetProbe::new(set);
            scan_positions(&v[start..end], base, &mut out, |x| probe.contains(x));
        }
        (ColData::F64(v), ScalarPred::InSet(set)) => {
            let probe = SetProbe::new(set);
            scan_positions(&v[start..end], base, &mut out, |x| probe.contains(x as i64));
        }
    }
    out
}

/// `subselect`: refine candidate positions by a predicate on `col`.
pub fn select_and(cands: &[u32], col: &ColData, pred: &ScalarPred) -> Vec<u32> {
    let mut out = Vec::with_capacity(cands.len().min(16384));
    match (col, pred) {
        (ColData::I64(v), ScalarPred::Cmp(op, k)) => {
            filter_cmp(cands, v, &mut out, *op, *k, |x| x as f64)
        }
        (ColData::F64(v), ScalarPred::Cmp(op, k)) => filter_cmp(cands, v, &mut out, *op, *k, |x| x),
        (ColData::I64(v), ScalarPred::Between(lo, hi)) => {
            let (lo, hi) = (*lo, *hi);
            filter_positions(cands, v, &mut out, |x| {
                let x = x as f64;
                x >= lo && x <= hi
            });
        }
        (ColData::F64(v), ScalarPred::Between(lo, hi)) => {
            let (lo, hi) = (*lo, *hi);
            filter_positions(cands, v, &mut out, |x| x >= lo && x <= hi);
        }
        (ColData::I64(v), ScalarPred::InSet(set)) => {
            let probe = SetProbe::new(set);
            filter_positions(cands, v, &mut out, |x| probe.contains(x));
        }
        (ColData::F64(v), ScalarPred::InSet(set)) => {
            let probe = SetProbe::new(set);
            filter_positions(cands, v, &mut out, |x| probe.contains(x as i64));
        }
    }
    out
}

/// Column-vs-column compare over candidates (or a full range when
/// `cands` is `None`).
pub fn select_col_cmp(
    cands: Option<&[u32]>,
    left: &ColData,
    right: &ColData,
    op: CmpOp,
    range: (usize, usize),
) -> Vec<u32> {
    match cands {
        Some(cs) => {
            let mut out = Vec::with_capacity(cs.len().min(16384));
            match (left, right) {
                (ColData::I64(l), ColData::I64(r)) => {
                    cmp_pairs(cs, l, r, op, &mut out, |x| x as f64);
                }
                (ColData::F64(l), ColData::F64(r)) => {
                    cmp_pairs(cs, l, r, op, &mut out, |x| x);
                }
                _ => {
                    for &p in cs {
                        if op.apply(left.value_f64(p as usize), right.value_f64(p as usize)) {
                            out.push(p);
                        }
                    }
                }
            }
            out
        }
        None => {
            let (start, end) = range;
            let mut out = Vec::with_capacity(sel_capacity(end.saturating_sub(start)));
            let base = start as u32;
            match (left, right) {
                (ColData::I64(l), ColData::I64(r)) => {
                    zip_cmp(&l[start..end], &r[start..end], base, op, &mut out, |x| {
                        x as f64
                    });
                }
                (ColData::F64(l), ColData::F64(r)) => {
                    zip_cmp(&l[start..end], &r[start..end], base, op, &mut out, |x| x);
                }
                _ => {
                    for i in start..end {
                        if op.apply(left.value_f64(i), right.value_f64(i)) {
                            out.push(i as u32);
                        }
                    }
                }
            }
            out
        }
    }
}

/// Candidate-gather column-vs-column comparison, monomorphized per op.
#[inline(always)]
fn cmp_pairs<T: Copy>(
    cands: &[u32],
    l: &[T],
    r: &[T],
    op: CmpOp,
    out: &mut Vec<u32>,
    conv: impl Fn(T) -> f64 + Copy,
) {
    macro_rules! arm {
        ($cmp:tt) => {
            for &p in cands {
                let i = p as usize;
                if conv(l[i]) $cmp conv(r[i]) {
                    out.push(p);
                }
            }
        };
    }
    match op {
        CmpOp::Lt => arm!(<),
        CmpOp::Le => arm!(<=),
        CmpOp::Eq => arm!(==),
        CmpOp::Ge => arm!(>=),
        CmpOp::Gt => arm!(>),
        CmpOp::Ne => arm!(!=),
    }
}

/// Aligned column-vs-column comparison, monomorphized per op.
#[inline(always)]
fn zip_cmp<T: Copy>(
    l: &[T],
    r: &[T],
    base: u32,
    op: CmpOp,
    out: &mut Vec<u32>,
    conv: impl Fn(T) -> f64 + Copy,
) {
    macro_rules! arm {
        ($cmp:tt) => {
            for (i, (&a, &b)) in l.iter().zip(r.iter()).enumerate() {
                if conv(a) $cmp conv(b) {
                    out.push(base + i as u32);
                }
            }
        };
    }
    match op {
        CmpOp::Lt => arm!(<),
        CmpOp::Le => arm!(<=),
        CmpOp::Eq => arm!(==),
        CmpOp::Ge => arm!(>=),
        CmpOp::Gt => arm!(>),
        CmpOp::Ne => arm!(!=),
    }
}

/// `projection`: fetch `col[positions]`, preserving the column type.
pub fn project(positions: &[u32], col: &ColData) -> ColData {
    match col {
        ColData::I64(v) => ColData::I64(std::sync::Arc::new(
            positions.iter().map(|&p| v[p as usize]).collect(),
        )),
        ColData::F64(v) => ColData::F64(std::sync::Arc::new(
            positions.iter().map(|&p| v[p as usize]).collect(),
        )),
    }
}

/// `batcalc`: element-wise arithmetic over aligned slices.
pub fn bin_op(left: &ColData, right: &ColData, op: ArithOp, start: usize, end: usize) -> Vec<f64> {
    match (left, right) {
        (ColData::F64(l), ColData::F64(r)) => {
            zip_arith(&l[start..end], &r[start..end], op, |x| x, |x| x)
        }
        (ColData::I64(l), ColData::I64(r)) => zip_arith(
            &l[start..end],
            &r[start..end],
            op,
            |x| x as f64,
            |x| x as f64,
        ),
        (ColData::I64(l), ColData::F64(r)) => {
            zip_arith(&l[start..end], &r[start..end], op, |x| x as f64, |x| x)
        }
        (ColData::F64(l), ColData::I64(r)) => {
            zip_arith(&l[start..end], &r[start..end], op, |x| x, |x| x as f64)
        }
    }
}

/// Typed element-wise arithmetic, monomorphized per op and type pair.
#[inline(always)]
fn zip_arith<L: Copy, R: Copy>(
    l: &[L],
    r: &[R],
    op: ArithOp,
    cl: impl Fn(L) -> f64 + Copy,
    cr: impl Fn(R) -> f64 + Copy,
) -> Vec<f64> {
    let zip = l.iter().zip(r.iter());
    match op {
        ArithOp::Add => zip.map(|(&a, &b)| cl(a) + cr(b)).collect(),
        ArithOp::Sub => zip.map(|(&a, &b)| cl(a) - cr(b)).collect(),
        ArithOp::Mul => zip.map(|(&a, &b)| cl(a) * cr(b)).collect(),
        ArithOp::MulOneMinus => zip.map(|(&a, &b)| cl(a) * (1.0 - cr(b))).collect(),
    }
}

/// `aggr.sum` over a slice. Integer columns sum in the integer domain
/// (one conversion at the end instead of one per row) — identical to the
/// sequential f64 sum for the generated value ranges, where every
/// partial sum is exactly representable.
pub fn aggr_sum(values: &ColData, start: usize, end: usize) -> f64 {
    match values {
        ColData::F64(v) => v[start..end].iter().sum(),
        ColData::I64(v) => v[start..end].iter().map(|&x| x as i128).sum::<i128>() as f64,
    }
}

/// Dense group-by accumulator limit: key spans up to this wide use the
/// flat array form (covers every group domain TPC-H produces — dates,
/// priorities, cust/part/order keys at default scale); wider spans fall
/// back to hashing.
pub const DENSE_GROUP_SPAN: usize = 1 << 19;

/// Union-span limit for the all-dense `merge_groups` fast path.
const DENSE_MERGE_SPAN: usize = 1 << 20;

/// A partial group-by result. The dense form is a flat array indexed by
/// `key - base` with a presence bitmap; the hash form is the fallback
/// for wide key domains; `Pairs` carries already-reduced `(key, value)`
/// rows (top-n partials).
#[derive(Clone, Debug)]
pub enum GroupAcc {
    /// Flat accumulator over a contiguous key span.
    Dense {
        /// Smallest key in the span.
        base: i64,
        /// Per-key running aggregate, indexed by `key - base`.
        sums: Vec<f64>,
        /// Presence bitmap over the same index space.
        seen: Vec<u64>,
    },
    /// Hash fallback for wide key domains.
    Hash(FxHashMap<i64, f64>),
    /// Already-reduced unique `(key, value)` rows.
    Pairs(Vec<(i64, f64)>),
}

impl GroupAcc {
    /// An empty accumulator.
    pub fn empty() -> Self {
        GroupAcc::Hash(FxHashMap::default())
    }

    /// Number of distinct groups.
    pub fn n_groups(&self) -> usize {
        match self {
            GroupAcc::Dense { seen, .. } => seen.iter().map(|w| w.count_ones() as usize).sum(),
            GroupAcc::Hash(m) => m.len(),
            GroupAcc::Pairs(v) => v.len(),
        }
    }

    /// Visits every `(key, value)` group. Dense accumulators visit in
    /// ascending key order; each key appears exactly once.
    pub fn for_each(&self, mut f: impl FnMut(i64, f64)) {
        match self {
            GroupAcc::Dense { base, sums, seen } => {
                for (w, &word) in seen.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let b = word.trailing_zeros() as usize;
                        let idx = w * 64 + b;
                        f(base + idx as i64, sums[idx]);
                        word &= word - 1;
                    }
                }
            }
            GroupAcc::Hash(m) => {
                for (&k, &v) in m {
                    f(k, v);
                }
            }
            GroupAcc::Pairs(v) => {
                for &(k, s) in v {
                    f(k, s);
                }
            }
        }
    }

    /// The groups as a key-sorted vector.
    pub fn into_sorted(self) -> Vec<(i64, f64)> {
        let mut out = Vec::with_capacity(self.n_groups());
        self.for_each(|k, v| out.push((k, v)));
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

/// Min/max of a key slice — the span measurement behind both the dense
/// group-by cutoff and the direct-addressed join layout. `(i64::MAX,
/// i64::MIN)` for an empty slice.
pub(crate) fn key_bounds(keys: &[i64]) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for &k in keys {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    (lo, hi)
}

#[inline(always)]
fn dense_mark(seen: &mut [u64], idx: usize) {
    seen[idx / 64] |= 1u64 << (idx % 64);
}

/// ORs `src` into `dst` at a bit offset of `off` (word-level shifts, not
/// per-bit probes — the dense merge is bitmap-bound for sparse groups).
fn or_shifted(dst: &mut [u64], src: &[u64], off: usize) {
    let (w, s) = (off / 64, off % 64);
    if s == 0 {
        for (d, &x) in dst[w..].iter_mut().zip(src) {
            *d |= x;
        }
    } else {
        let mut carry = 0u64;
        for (i, &x) in src.iter().enumerate() {
            dst[w + i] |= (x << s) | carry;
            carry = x >> (64 - s);
        }
        if carry != 0 {
            dst[w + src.len()] |= carry;
        }
    }
}

/// Partial hash group-by over aligned key/value slices. Small key
/// domains accumulate into a flat dense array; wide domains hash.
pub fn group_agg(
    keys: &ColData,
    values: Option<&ColData>,
    agg: AggKind,
    start: usize,
    end: usize,
) -> GroupAcc {
    if start >= end {
        return GroupAcc::empty();
    }
    if let (AggKind::Sum, None) = (agg, values) {
        panic!("Sum aggregate without a value column");
    }
    let ColData::I64(kv) = keys else {
        // Float key columns are not produced by the planner; keep the
        // straightforward per-row path for completeness.
        return GroupAcc::Hash(reference::group_agg(keys, values, agg, start, end));
    };
    let ks = &kv[start..end];
    let (lo, hi) = key_bounds(ks);
    let span = (hi as i128 - lo as i128) + 1;
    // Dense pays a span-sized zeroing up front: only worth it when the
    // partition has enough rows to amortise it (the representation is
    // merge-compatible either way, so the cutoff is pure tuning).
    if span <= DENSE_GROUP_SPAN as i128 && span <= 8 * (end - start) as i128 {
        let span = span as usize;
        let mut sums = vec![0.0f64; span];
        let mut seen = vec![0u64; span.div_ceil(64)];
        match (agg, values) {
            (AggKind::Count, _) => {
                for &k in ks {
                    let idx = (k - lo) as usize;
                    sums[idx] += 1.0;
                    dense_mark(&mut seen, idx);
                }
            }
            (AggKind::Sum, Some(ColData::F64(vv))) => {
                for (&k, &v) in ks.iter().zip(&vv[start..end]) {
                    let idx = (k - lo) as usize;
                    sums[idx] += v;
                    dense_mark(&mut seen, idx);
                }
            }
            (AggKind::Sum, Some(ColData::I64(vv))) => {
                for (&k, &v) in ks.iter().zip(&vv[start..end]) {
                    let idx = (k - lo) as usize;
                    sums[idx] += v as f64;
                    dense_mark(&mut seen, idx);
                }
            }
            (AggKind::Sum, None) => unreachable!("checked above"),
        }
        GroupAcc::Dense {
            base: lo,
            sums,
            seen,
        }
    } else {
        // Wide-domain fallback: group count is unknown but bounded by
        // the row count; reserving it up front avoids the rehash ladder
        // (each doubling re-inserts everything).
        let mut m = FxHashMap::with_capacity_and_hasher(end - start, Default::default());
        match (agg, values) {
            (AggKind::Count, _) => {
                for &k in ks {
                    *m.entry(k).or_insert(0.0) += 1.0;
                }
            }
            (AggKind::Sum, Some(ColData::F64(vv))) => {
                for (&k, &v) in ks.iter().zip(&vv[start..end]) {
                    *m.entry(k).or_insert(0.0) += v;
                }
            }
            (AggKind::Sum, Some(ColData::I64(vv))) => {
                for (&k, &v) in ks.iter().zip(&vv[start..end]) {
                    *m.entry(k).or_insert(0.0) += v as f64;
                }
            }
            (AggKind::Sum, None) => unreachable!("checked above"),
        }
        GroupAcc::Hash(m)
    }
}

/// Merges partial group accumulators into a sorted groups vector.
/// Partials are combined in order, so per-key addition order (and
/// therefore every float total) matches the sequential merge exactly.
pub fn merge_groups(parts: impl IntoIterator<Item = GroupAcc>) -> Vec<(i64, f64)> {
    let parts: Vec<GroupAcc> = parts.into_iter().collect();
    match parts.len() {
        0 => return Vec::new(),
        1 => return parts.into_iter().next().expect("one part").into_sorted(),
        _ => {}
    }
    // All-dense fast path: merge on the flat arrays.
    let dense_bounds = parts.iter().try_fold((i64::MAX, i64::MIN), |(lo, hi), p| {
        if let GroupAcc::Dense { base, sums, .. } = p {
            Some((lo.min(*base), hi.max(*base + sums.len() as i64 - 1)))
        } else {
            None
        }
    });
    if let Some((lo, hi)) = dense_bounds {
        let span = (hi as i128 - lo as i128) + 1;
        if span <= DENSE_MERGE_SPAN as i128 {
            let span = span as usize;
            let mut sums = vec![0.0f64; span];
            let mut seen = vec![0u64; span.div_ceil(64)];
            for part in &parts {
                let GroupAcc::Dense {
                    base,
                    sums: ps,
                    seen: pseen,
                } = part
                else {
                    unreachable!("dense_bounds only resolves for all-dense parts");
                };
                let off = (base - lo) as usize;
                // Unconditional slice add: unseen entries hold exactly
                // +0.0, and `x + 0.0 == x` for every x the engine can
                // produce (no -0.0 group totals from the generated
                // data), so totals match the seen-only merge bit for
                // bit while the loop stays branch-free and vector-wide.
                for (d, &v) in sums[off..off + ps.len()].iter_mut().zip(ps) {
                    *d += v;
                }
                or_shifted(&mut seen, pseen, off);
            }
            return GroupAcc::Dense {
                base: lo,
                sums,
                seen,
            }
            .into_sorted();
        }
    }
    let cap: usize = parts.iter().map(GroupAcc::n_groups).sum();
    let mut total: FxHashMap<i64, f64> =
        FxHashMap::with_capacity_and_hasher(cap, Default::default());
    for part in &parts {
        part.for_each(|k, v| *total.entry(k).or_insert(0.0) += v);
    }
    let mut out: Vec<(i64, f64)> = total.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Partial hash-join build: the partition's key values, contiguous with
/// the global build-row index space (partition `[start, end)` produces
/// keys for global rows `start..end`, so partials concatenate directly).
/// The actual bucket linking happens once, at merge, in
/// [`FlatJoinMap::from_parts`](crate::exec::mat::FlatJoinMap::from_parts) — no per-key allocation, no re-hash.
pub fn build_hash_part(keys: &ColData, start: usize, end: usize) -> Vec<i64> {
    match keys {
        ColData::I64(v) => v[start..end].to_vec(),
        ColData::F64(v) => v[start..end].iter().map(|&x| x as i64).collect(),
    }
}

/// Probe: for probe rows `[start, end)` of `probe_keys`, emit
/// `(probe_base_pos, build_base_pos)` for every match. Base positions are
/// resolved through the provenance maps (`None` = the key vector indexes
/// the base table directly); resolution shape is hoisted out of the
/// match loop. Matches per key are emitted in ascending build index —
/// the same order the per-key vectors used to store.
pub fn probe_hash(
    table: &JoinTable,
    probe_keys: &ColData,
    probe_origin: Option<&[u32]>,
    build_origin: Option<&[u32]>,
    start: usize,
    end: usize,
) -> (Vec<u32>, Vec<u32>) {
    // Modest initial reservation: fan-out is unknown, and reserving the
    // full probe width per task costs fresh kernel pages (the partials
    // outlive the call, so buffers cannot be pooled). Doubling from a
    // block-sized floor amortises the growth.
    let cap = (end.saturating_sub(start)).clamp(16, 16384);
    let mut probe_out = Vec::with_capacity(cap);
    let mut build_out = Vec::with_capacity(cap);
    let map = &table.map;
    macro_rules! walk {
        ($key_of:expr, $pres:expr, $bres:expr) => {
            for i in start..end {
                map.for_each_match($key_of(i), |b| {
                    probe_out.push($pres(i));
                    build_out.push($bres(b));
                });
            }
        };
    }
    macro_rules! dispatch_origins {
        ($key_of:expr) => {
            match (probe_origin, build_origin) {
                (None, None) => walk!($key_of, |i| i as u32, |b| b),
                (Some(po), None) => walk!($key_of, |i: usize| po[i], |b| b),
                (None, Some(bo)) => walk!($key_of, |i| i as u32, |b: u32| bo[b as usize]),
                (Some(po), Some(bo)) => walk!($key_of, |i: usize| po[i], |b: u32| bo[b as usize]),
            }
        };
    }
    match probe_keys {
        ColData::I64(v) => dispatch_origins!(|i: usize| v[i]),
        ColData::F64(v) => dispatch_origins!(|i: usize| v[i] as i64),
    }
    (probe_out, build_out)
}

/// Top-N groups by aggregate value, descending (ties by key for
/// determinism). Partitions with `select_nth_unstable_by` and sorts only
/// the kept prefix instead of fully sorting every group.
pub fn top_n(groups: &[(i64, f64)], n: usize) -> Vec<(i64, f64)> {
    let cmp = |a: &(i64, f64), b: &(i64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if n == 0 {
        return Vec::new();
    }
    let mut kept = groups.to_vec();
    if kept.len() > n {
        kept.select_nth_unstable_by(n - 1, cmp);
        kept.truncate(n);
    }
    kept.sort_unstable_by(cmp);
    kept
}

/// The straightforward per-row formulations the typed kernels replaced.
///
/// Retained as the *reference semantics*: the property tests assert the
/// kernels agree with these on every predicate form and column type, and
/// the repo benchmark times both so its `eval.*_ref_ratio` metrics track
/// the before/after spread.
pub mod reference {
    use super::*;

    /// Per-row `scan_select`.
    pub fn scan_select(col: &ColData, start: usize, end: usize, pred: &ScalarPred) -> Vec<u32> {
        (start..end)
            .filter(|&r| pred.test(col, r))
            .map(|r| r as u32)
            .collect()
    }

    /// Per-row `select_and`.
    pub fn select_and(cands: &[u32], col: &ColData, pred: &ScalarPred) -> Vec<u32> {
        cands
            .iter()
            .copied()
            .filter(|&p| pred.test(col, p as usize))
            .collect()
    }

    /// Per-row `select_col_cmp`.
    pub fn select_col_cmp(
        cands: Option<&[u32]>,
        left: &ColData,
        right: &ColData,
        op: CmpOp,
        range: (usize, usize),
    ) -> Vec<u32> {
        match cands {
            Some(cs) => cs
                .iter()
                .copied()
                .filter(|&p| op.apply(left.value_f64(p as usize), right.value_f64(p as usize)))
                .collect(),
            None => (range.0..range.1)
                .filter(|&r| op.apply(left.value_f64(r), right.value_f64(r)))
                .map(|r| r as u32)
                .collect(),
        }
    }

    /// Per-row `bin_op`.
    pub fn bin_op(
        left: &ColData,
        right: &ColData,
        op: ArithOp,
        start: usize,
        end: usize,
    ) -> Vec<f64> {
        (start..end)
            .map(|i| op.apply(left.value_f64(i), right.value_f64(i)))
            .collect()
    }

    /// Per-row `aggr_sum`.
    pub fn aggr_sum(values: &ColData, start: usize, end: usize) -> f64 {
        (start..end).map(|i| values.value_f64(i)).sum()
    }

    /// Per-row hash group-by.
    pub fn group_agg(
        keys: &ColData,
        values: Option<&ColData>,
        agg: AggKind,
        start: usize,
        end: usize,
    ) -> FxHashMap<i64, f64> {
        let mut m =
            FxHashMap::with_capacity_and_hasher((end - start).min(4096), Default::default());
        for i in start..end {
            let k = keys.value_i64(i);
            let v = match (agg, values) {
                (AggKind::Sum, Some(vals)) => vals.value_f64(i),
                (AggKind::Count, _) => 1.0,
                (AggKind::Sum, None) => panic!("Sum aggregate without a value column"),
            };
            *m.entry(k).or_insert(0.0) += v;
        }
        m
    }

    /// Merges reference group maps into a sorted groups vector.
    pub fn merge_groups(parts: impl IntoIterator<Item = FxHashMap<i64, f64>>) -> Vec<(i64, f64)> {
        let parts: Vec<FxHashMap<i64, f64>> = parts.into_iter().collect();
        let cap: usize = parts.iter().map(FxHashMap::len).sum();
        let mut total: FxHashMap<i64, f64> =
            FxHashMap::with_capacity_and_hasher(cap, Default::default());
        for part in parts {
            for (k, v) in part {
                *total.entry(k).or_insert(0.0) += v;
            }
        }
        let mut out: Vec<(i64, f64)> = total.into_iter().collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Per-key-`Vec` hash-join build.
    pub fn build_hash(keys: &ColData, start: usize, end: usize) -> FxHashMap<i64, Vec<u32>> {
        let mut m: FxHashMap<i64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(end - start, Default::default());
        for i in start..end {
            m.entry(keys.value_i64(i)).or_default().push(i as u32);
        }
        m
    }

    /// Merges reference build maps (capacity-hinted from partial sizes).
    pub fn merge_hash(
        parts: impl IntoIterator<Item = FxHashMap<i64, Vec<u32>>>,
    ) -> FxHashMap<i64, Vec<u32>> {
        let parts: Vec<FxHashMap<i64, Vec<u32>>> = parts.into_iter().collect();
        let cap: usize = parts.iter().map(FxHashMap::len).sum();
        let mut total: FxHashMap<i64, Vec<u32>> =
            FxHashMap::with_capacity_and_hasher(cap, Default::default());
        for part in parts {
            for (k, mut v) in part {
                total.entry(k).or_default().append(&mut v);
            }
        }
        total
    }

    /// Reference probe over the per-key-`Vec` map form.
    pub fn probe_hash(
        map: &FxHashMap<i64, Vec<u32>>,
        probe_keys: &ColData,
        probe_origin: Option<&[u32]>,
        build_origin: Option<&[u32]>,
        start: usize,
        end: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut probe_out = Vec::new();
        let mut build_out = Vec::new();
        for i in start..end {
            if let Some(matches) = map.get(&probe_keys.value_i64(i)) {
                let p_base = probe_origin.map_or(i as u32, |o| o[i]);
                for &b in matches {
                    let b_base = build_origin.map_or(b, |o| o[b as usize]);
                    probe_out.push(p_base);
                    build_out.push(b_base);
                }
            }
        }
        (probe_out, build_out)
    }

    /// Clone-and-fully-sort top-n.
    pub fn top_n(groups: &[(i64, f64)], n: usize) -> Vec<(i64, f64)> {
        let mut sorted = groups.to_vec();
        sorted.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(n);
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::mat::FlatJoinMap;
    use std::sync::Arc;

    fn f64s(v: Vec<f64>) -> ColData {
        ColData::F64(Arc::new(v))
    }

    fn i64s(v: Vec<i64>) -> ColData {
        ColData::I64(Arc::new(v))
    }

    #[test]
    fn scan_select_matches_filter() {
        let c = f64s(vec![5.0, 30.0, 10.0, 23.9, 24.0]);
        let pred = ScalarPred::Cmp(CmpOp::Lt, 24.0);
        assert_eq!(scan_select(&c, 0, 5, &pred), vec![0, 2, 3]);
        // partition subrange
        assert_eq!(scan_select(&c, 2, 5, &pred), vec![2, 3]);
    }

    #[test]
    fn preds_cover_all_forms() {
        let c = f64s(vec![0.05, 0.07, 0.09]);
        assert!(ScalarPred::Between(0.06, 0.08).test(&c, 1));
        assert!(!ScalarPred::Between(0.06, 0.08).test(&c, 0));
        let k = i64s(vec![3, 5, 7]);
        assert!(ScalarPred::InSet(vec![5, 9]).test(&k, 1));
        assert!(!ScalarPred::InSet(vec![5, 9]).test(&k, 2));
    }

    #[test]
    fn in_set_large_sets_sort_and_probe() {
        // > 8 elements exercises the sorted binary-search path.
        let set: Vec<i64> = vec![90, 10, 20, 30, 40, 50, 60, 70, 80, 10];
        let c = i64s((0..100).collect());
        let pred = ScalarPred::InSet(set.clone());
        let fast = scan_select(&c, 0, 100, &pred);
        let slow = reference::scan_select(&c, 0, 100, &pred);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 9);
    }

    #[test]
    fn select_and_refines() {
        let c = f64s(vec![1.0, 2.0, 3.0, 4.0]);
        let cands = vec![1, 3];
        let out = select_and(&cands, &c, &ScalarPred::Cmp(CmpOp::Gt, 2.5));
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn col_cmp_both_modes() {
        let a = i64s(vec![1, 5, 3]);
        let b = i64s(vec![2, 4, 3]);
        assert_eq!(select_col_cmp(None, &a, &b, CmpOp::Lt, (0, 3)), vec![0]);
        assert_eq!(
            select_col_cmp(Some(&[1, 2]), &a, &b, CmpOp::Ge, (0, 0)),
            vec![1, 2]
        );
    }

    #[test]
    fn col_cmp_mixed_types_fall_back() {
        let a = i64s(vec![1, 5, 3]);
        let b = f64s(vec![2.0, 4.0, 3.0]);
        assert_eq!(select_col_cmp(None, &a, &b, CmpOp::Lt, (0, 3)), vec![0]);
        assert_eq!(
            select_col_cmp(Some(&[0, 1, 2]), &a, &b, CmpOp::Eq, (0, 0)),
            vec![2]
        );
    }

    #[test]
    fn project_preserves_type() {
        let c = i64s(vec![10, 20, 30]);
        let out = project(&[2, 0], &c);
        assert_eq!(out.as_i64(), &[30, 10]);
        let f = f64s(vec![1.5, 2.5]);
        assert_eq!(project(&[1], &f).as_f64(), &[2.5]);
    }

    #[test]
    fn binop_and_sum() {
        let l = f64s(vec![100.0, 200.0]);
        let r = f64s(vec![0.1, 0.2]);
        assert_eq!(bin_op(&l, &r, ArithOp::Mul, 0, 2), vec![10.0, 40.0]);
        assert_eq!(aggr_sum(&f64s(vec![1.0, 2.0, 3.0]), 0, 3), 6.0);
        assert_eq!(aggr_sum(&f64s(vec![1.0, 2.0, 3.0]), 1, 2), 2.0);
        // Integer sum stays in the integer domain.
        assert_eq!(aggr_sum(&i64s(vec![2, 3, 4]), 0, 3), 9.0);
    }

    #[test]
    fn binop_typed_combinations() {
        let l = i64s(vec![10, 20]);
        let r = f64s(vec![0.5, 0.25]);
        assert_eq!(bin_op(&l, &r, ArithOp::MulOneMinus, 0, 2), vec![5.0, 15.0]);
        assert_eq!(bin_op(&r, &l, ArithOp::Add, 0, 2), vec![10.5, 20.25]);
        let r2 = i64s(vec![1, 2]);
        assert_eq!(bin_op(&l, &r2, ArithOp::Sub, 0, 2), vec![9.0, 18.0]);
    }

    #[test]
    fn group_agg_sum_and_count() {
        let keys = i64s(vec![1, 2, 1, 2, 1]);
        let vals = f64s(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        let m = group_agg(&keys, Some(&vals), AggKind::Sum, 0, 5);
        assert!(matches!(m, GroupAcc::Dense { .. }));
        assert_eq!(m.n_groups(), 2);
        let c = group_agg(&keys, None, AggKind::Count, 0, 5);
        let merged = merge_groups([m, c]);
        assert_eq!(merged, vec![(1, 93.0), (2, 62.0)]);
    }

    #[test]
    fn group_agg_wide_domain_hashes() {
        let keys = i64s(vec![0, 1 << 30, 0]);
        let vals = f64s(vec![1.0, 2.0, 3.0]);
        let acc = group_agg(&keys, Some(&vals), AggKind::Sum, 0, 3);
        assert!(matches!(acc, GroupAcc::Hash(_)));
        assert_eq!(acc.into_sorted(), vec![(0, 4.0), (1 << 30, 2.0)]);
    }

    #[test]
    fn merge_groups_mixed_forms() {
        // One dense, one hash, one pairs partial — per-key totals must
        // still combine in part order.
        let dense = group_agg(
            &i64s(vec![5, 6, 5]),
            Some(&f64s(vec![1.0, 2.0, 3.0])),
            AggKind::Sum,
            0,
            3,
        );
        let mut h = FxHashMap::default();
        h.insert(6i64, 10.0);
        h.insert(99i64, 1.0);
        let pairs = GroupAcc::Pairs(vec![(5, 0.5)]);
        let merged = merge_groups([dense, GroupAcc::Hash(h), pairs]);
        assert_eq!(merged, vec![(5, 4.5), (6, 12.0), (99, 1.0)]);
    }

    #[test]
    fn hash_join_roundtrip() {
        let build_keys = i64s(vec![10, 20, 10]);
        let table = JoinTable {
            map: FlatJoinMap::from_parts([build_hash_part(&build_keys, 0, 3)]),
            build_origin: None,
            build_table: "orders",
        };
        let probe_keys = i64s(vec![20, 10, 99]);
        let (p, b) = probe_hash(&table, &probe_keys, None, None, 0, 3);
        // probe row 0 matches build row 1; probe row 1 matches build 0 and 2.
        assert_eq!(p, vec![0, 1, 1]);
        assert_eq!(b, vec![1, 0, 2]);
    }

    #[test]
    fn flat_join_partials_concatenate() {
        // Two partitions of the build keys merge by concatenation; the
        // probe still sees ascending global build indices per key.
        let build_keys = i64s(vec![7, 8, 7, 7]);
        let table = JoinTable {
            map: FlatJoinMap::from_parts([
                build_hash_part(&build_keys, 0, 2),
                build_hash_part(&build_keys, 2, 4),
            ]),
            build_origin: None,
            build_table: "orders",
        };
        let probe_keys = i64s(vec![7]);
        let (p, b) = probe_hash(&table, &probe_keys, None, None, 0, 1);
        assert_eq!(p, vec![0, 0, 0]);
        assert_eq!(b, vec![0, 2, 3]);
    }

    #[test]
    fn probe_resolves_provenance() {
        let build_keys = i64s(vec![7]);
        let table = JoinTable {
            map: FlatJoinMap::from_parts([build_hash_part(&build_keys, 0, 1)]),
            build_origin: None,
            build_table: "orders",
        };
        let probe_keys = i64s(vec![7]);
        let probe_origin = vec![42u32];
        let build_origin = vec![99u32];
        let (p, b) = probe_hash(
            &table,
            &probe_keys,
            Some(&probe_origin),
            Some(&build_origin),
            0,
            1,
        );
        assert_eq!(p, vec![42]);
        assert_eq!(b, vec![99]);
    }

    #[test]
    fn top_n_orders_descending() {
        let g = vec![(1, 5.0), (2, 9.0), (3, 9.0), (4, 1.0)];
        assert_eq!(top_n(&g, 2), vec![(2, 9.0), (3, 9.0)]);
        assert_eq!(top_n(&g, 10).len(), 4);
        assert!(top_n(&g, 0).is_empty());
        assert_eq!(top_n(&g, 2), reference::top_n(&g, 2));
    }

    #[test]
    fn scan_select_equals_naive_reference() {
        // Property-style check against an independent reference.
        let vals: Vec<f64> = (0..1000).map(|i| (i * 37 % 100) as f64).collect();
        let c = f64s(vals.clone());
        let pred = ScalarPred::Between(20.0, 60.0);
        let fast = scan_select(&c, 0, 1000, &pred);
        let slow: Vec<u32> = vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| (20.0..=60.0).contains(&v))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(fast, slow);
    }
}
