//! Deterministic TPC-H-style data generation.
//!
//! The paper evaluates on TPC-H at 1 GB (scale factor 1, lineitem ≈ 6 M
//! rows). The simulator works at 64 KiB segment granularity, so we expose
//! a fractional [`TpchScale`] and run the same protocols at reduced scale
//! (shapes are preserved; see EXPERIMENTS.md). Distributions follow the
//! TPC-H spec closely enough for the selectivities the 22 plans rely on:
//! uniform quantities 1..=50, discounts 0..=0.10 in cents, ship dates
//! spread over 1992–1998, 25 nations in 5 regions, low-cardinality
//! dictionary columns with uniform codes.

use crate::exec::cache::EvalCache;
use crate::storage::bat::ColData;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Number of days covered by order dates (1992-01-01 .. 1998-08-02).
pub const ORDER_DATE_DAYS: i64 = 2406;

/// Maximum l_shipdate value (orderdate + up to 121 days).
pub const MAX_SHIP_DAY: i64 = ORDER_DATE_DAYS + 121;

/// Scale of the generated database.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TpchScale {
    /// Fraction of TPC-H SF1 (1.0 = 6 M lineitem rows ≈ 1 GB raw).
    pub sf: f64,
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
}

impl TpchScale {
    /// A scale suitable for unit tests (lineitem ≈ 12 k rows).
    pub fn test_tiny() -> Self {
        TpchScale {
            sf: 0.002,
            seed: 42,
        }
    }

    /// The default harness scale (lineitem ≈ 600 k rows, ≈ 100 MB-class
    /// database): large enough to exceed all caches, small enough to
    /// sweep many configurations.
    pub fn harness_default() -> Self {
        TpchScale { sf: 0.1, seed: 42 }
    }

    /// Lineitem row count at this scale.
    pub fn lineitem_rows(&self) -> usize {
        ((6_000_000.0 * self.sf) as usize).max(64)
    }

    /// Orders row count.
    pub fn orders_rows(&self) -> usize {
        ((1_500_000.0 * self.sf) as usize).max(16)
    }

    /// Customer row count.
    pub fn customer_rows(&self) -> usize {
        ((150_000.0 * self.sf) as usize).max(8)
    }

    /// Part row count.
    pub fn part_rows(&self) -> usize {
        ((200_000.0 * self.sf) as usize).max(8)
    }

    /// Supplier row count.
    pub fn supplier_rows(&self) -> usize {
        ((10_000.0 * self.sf) as usize).max(4)
    }

    /// Partsupp row count.
    pub fn partsupp_rows(&self) -> usize {
        ((800_000.0 * self.sf) as usize).max(16)
    }
}

/// One generated column.
pub struct GenColumn {
    /// Column name.
    pub name: &'static str,
    /// Values.
    pub data: ColData,
}

/// One generated table.
pub struct GenTable {
    /// Table name.
    pub name: &'static str,
    /// Columns in schema order.
    pub columns: Vec<GenColumn>,
}

/// The full generated database (pure data; the engine binds it to
/// simulated memory at load time).
pub struct TpchData {
    /// Tables in load order.
    pub tables: Vec<GenTable>,
    /// The scale it was generated at.
    pub scale: TpchScale,
    /// What plan nodes evaluate to over these tables, shared by every
    /// simulated engine loaded from them.
    eval_cache: EvalCache,
}

fn i64_col(name: &'static str, v: Vec<i64>) -> GenColumn {
    GenColumn {
        name,
        data: ColData::I64(Arc::new(v)),
    }
}

fn f64_col(name: &'static str, v: Vec<f64>) -> GenColumn {
    GenColumn {
        name,
        data: ColData::F64(Arc::new(v)),
    }
}

impl TpchData {
    /// Generates the database.
    pub fn generate(scale: TpchScale) -> Self {
        let mut rng = StdRng::seed_from_u64(scale.seed);
        let n_li = scale.lineitem_rows();
        let n_ord = scale.orders_rows();
        let n_cust = scale.customer_rows();
        let n_part = scale.part_rows();
        let n_supp = scale.supplier_rows();
        let n_ps = scale.partsupp_rows();

        // --- orders (generated first; lineitem references orderdates) ---
        let o_orderkey: Vec<i64> = (0..n_ord as i64).collect();
        let o_custkey: Vec<i64> = (0..n_ord)
            .map(|_| rng.random_range(0..n_cust as i64))
            .collect();
        let o_orderdate: Vec<i64> = (0..n_ord)
            .map(|_| rng.random_range(0..ORDER_DATE_DAYS))
            .collect();
        let o_totalprice: Vec<f64> = (0..n_ord)
            .map(|_| rng.random_range(1_000.0..500_000.0))
            .collect();
        let o_orderpriority: Vec<i64> = (0..n_ord).map(|_| rng.random_range(0..5)).collect();
        // TPC-H: roughly half the orders are 'F' (0), rest 'O'/'P'.
        let o_orderstatus: Vec<i64> = (0..n_ord)
            .map(|_| {
                if rng.random_bool(0.49) {
                    0
                } else {
                    rng.random_range(1..3)
                }
            })
            .collect();

        // --- lineitem ---
        let mut l_orderkey = Vec::with_capacity(n_li);
        let mut l_shipdate = Vec::with_capacity(n_li);
        let mut l_commitdate = Vec::with_capacity(n_li);
        let mut l_receiptdate = Vec::with_capacity(n_li);
        for _ in 0..n_li {
            let ok = rng.random_range(0..n_ord as i64);
            let od = o_orderdate[ok as usize];
            let ship = od + rng.random_range(1i64..=121);
            let commit = od + rng.random_range(30i64..=90);
            let receipt = ship + rng.random_range(1i64..=30);
            l_orderkey.push(ok);
            l_shipdate.push(ship);
            l_commitdate.push(commit);
            l_receiptdate.push(receipt);
        }
        let l_partkey: Vec<i64> = (0..n_li)
            .map(|_| rng.random_range(0..n_part as i64))
            .collect();
        let l_suppkey: Vec<i64> = (0..n_li)
            .map(|_| rng.random_range(0..n_supp as i64))
            .collect();
        let l_quantity: Vec<f64> = (0..n_li).map(|_| rng.random_range(1..=50) as f64).collect();
        let l_extendedprice: Vec<f64> = (0..n_li)
            .map(|_| rng.random_range(900.0..105_000.0))
            .collect();
        let l_discount: Vec<f64> = (0..n_li)
            .map(|_| rng.random_range(0..=10) as f64 / 100.0)
            .collect();
        let l_tax: Vec<f64> = (0..n_li)
            .map(|_| rng.random_range(0..=8) as f64 / 100.0)
            .collect();
        let l_returnflag: Vec<i64> = (0..n_li)
            .map(|_| {
                if rng.random_bool(0.25) {
                    2
                } else {
                    rng.random_range(0..2)
                }
            })
            .collect();
        let l_linestatus: Vec<i64> = (0..n_li).map(|_| rng.random_range(0..2)).collect();
        let l_shipmode: Vec<i64> = (0..n_li).map(|_| rng.random_range(0..7)).collect();

        // --- customer ---
        let c_custkey: Vec<i64> = (0..n_cust as i64).collect();
        let c_nationkey: Vec<i64> = (0..n_cust).map(|_| rng.random_range(0..25)).collect();
        let c_acctbal: Vec<f64> = (0..n_cust)
            .map(|_| rng.random_range(-999.99..9_999.99))
            .collect();
        let c_mktsegment: Vec<i64> = (0..n_cust).map(|_| rng.random_range(0..5)).collect();
        let c_phone_cc: Vec<i64> = (0..n_cust).map(|_| rng.random_range(10..35)).collect();

        // --- part ---
        let p_partkey: Vec<i64> = (0..n_part as i64).collect();
        let p_size: Vec<i64> = (0..n_part).map(|_| rng.random_range(1..=50)).collect();
        let p_brand: Vec<i64> = (0..n_part).map(|_| rng.random_range(0..25)).collect();
        let p_container: Vec<i64> = (0..n_part).map(|_| rng.random_range(0..40)).collect();
        let p_type: Vec<i64> = (0..n_part).map(|_| rng.random_range(0..150)).collect();

        // --- supplier ---
        let s_suppkey: Vec<i64> = (0..n_supp as i64).collect();
        let s_nationkey: Vec<i64> = (0..n_supp).map(|_| rng.random_range(0..25)).collect();
        let s_acctbal: Vec<f64> = (0..n_supp)
            .map(|_| rng.random_range(-999.99..9_999.99))
            .collect();

        // --- partsupp ---
        let ps_partkey: Vec<i64> = (0..n_ps).map(|i| (i % n_part) as i64).collect();
        let ps_suppkey: Vec<i64> = (0..n_ps)
            .map(|_| rng.random_range(0..n_supp as i64))
            .collect();
        let ps_supplycost: Vec<f64> = (0..n_ps).map(|_| rng.random_range(1.0..1_000.0)).collect();
        let ps_availqty: Vec<i64> = (0..n_ps).map(|_| rng.random_range(1..10_000)).collect();

        // --- nation / region ---
        let n_nationkey: Vec<i64> = (0..25).collect();
        let n_regionkey: Vec<i64> = (0..25).map(|i| i % 5).collect();
        let r_regionkey: Vec<i64> = (0..5).collect();

        let tables = vec![
            GenTable {
                name: "lineitem",
                columns: vec![
                    i64_col("l_orderkey", l_orderkey),
                    i64_col("l_partkey", l_partkey),
                    i64_col("l_suppkey", l_suppkey),
                    f64_col("l_quantity", l_quantity),
                    f64_col("l_extendedprice", l_extendedprice),
                    f64_col("l_discount", l_discount),
                    f64_col("l_tax", l_tax),
                    i64_col("l_shipdate", l_shipdate),
                    i64_col("l_commitdate", l_commitdate),
                    i64_col("l_receiptdate", l_receiptdate),
                    i64_col("l_returnflag", l_returnflag),
                    i64_col("l_linestatus", l_linestatus),
                    i64_col("l_shipmode", l_shipmode),
                ],
            },
            GenTable {
                name: "orders",
                columns: vec![
                    i64_col("o_orderkey", o_orderkey),
                    i64_col("o_custkey", o_custkey),
                    i64_col("o_orderdate", o_orderdate),
                    f64_col("o_totalprice", o_totalprice),
                    i64_col("o_orderpriority", o_orderpriority),
                    i64_col("o_orderstatus", o_orderstatus),
                ],
            },
            GenTable {
                name: "customer",
                columns: vec![
                    i64_col("c_custkey", c_custkey),
                    i64_col("c_nationkey", c_nationkey),
                    f64_col("c_acctbal", c_acctbal),
                    i64_col("c_mktsegment", c_mktsegment),
                    i64_col("c_phone_cc", c_phone_cc),
                ],
            },
            GenTable {
                name: "part",
                columns: vec![
                    i64_col("p_partkey", p_partkey),
                    i64_col("p_size", p_size),
                    i64_col("p_brand", p_brand),
                    i64_col("p_container", p_container),
                    i64_col("p_type", p_type),
                ],
            },
            GenTable {
                name: "supplier",
                columns: vec![
                    i64_col("s_suppkey", s_suppkey),
                    i64_col("s_nationkey", s_nationkey),
                    f64_col("s_acctbal", s_acctbal),
                ],
            },
            GenTable {
                name: "partsupp",
                columns: vec![
                    i64_col("ps_partkey", ps_partkey),
                    i64_col("ps_suppkey", ps_suppkey),
                    f64_col("ps_supplycost", ps_supplycost),
                    i64_col("ps_availqty", ps_availqty),
                ],
            },
            GenTable {
                name: "nation",
                columns: vec![
                    i64_col("n_nationkey", n_nationkey),
                    i64_col("n_regionkey", n_regionkey),
                ],
            },
            GenTable {
                name: "region",
                columns: vec![i64_col("r_regionkey", r_regionkey)],
            },
        ];

        TpchData {
            eval_cache: EvalCache::new(raw_bytes(&tables)),
            tables,
            scale,
        }
    }

    /// The dataset's evaluation cache (bound by `Engine::load`).
    pub(crate) fn eval_cache(&self) -> &EvalCache {
        &self.eval_cache
    }

    /// Finds a table by name.
    pub fn table(&self, name: &str) -> &GenTable {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("unknown table {name}"))
    }

    /// Finds a column by `table.column`.
    pub fn column(&self, table: &str, column: &str) -> &ColData {
        &self
            .table(table)
            .columns
            .iter()
            .find(|c| c.name == column)
            .unwrap_or_else(|| panic!("unknown column {table}.{column}"))
            .data
    }

    /// Total raw bytes across all columns (8 bytes per value).
    pub fn raw_bytes(&self) -> u64 {
        raw_bytes(&self.tables)
    }
}

fn raw_bytes(tables: &[GenTable]) -> u64 {
    tables
        .iter()
        .flat_map(|t| t.columns.iter())
        .map(|c| c.data.len() as u64 * 8)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = TpchData::generate(TpchScale::test_tiny());
        let b = TpchData::generate(TpchScale::test_tiny());
        assert_eq!(
            a.column("lineitem", "l_quantity").as_f64(),
            b.column("lineitem", "l_quantity").as_f64()
        );
        let c = TpchData::generate(TpchScale {
            seed: 7,
            ..TpchScale::test_tiny()
        });
        assert_ne!(
            a.column("lineitem", "l_quantity").as_f64(),
            c.column("lineitem", "l_quantity").as_f64()
        );
    }

    #[test]
    fn row_counts_scale() {
        let s = TpchScale::test_tiny();
        let d = TpchData::generate(s);
        assert_eq!(d.column("lineitem", "l_orderkey").len(), s.lineitem_rows());
        assert_eq!(d.column("orders", "o_orderkey").len(), s.orders_rows());
        assert_eq!(d.column("nation", "n_nationkey").len(), 25);
        assert_eq!(d.column("region", "r_regionkey").len(), 5);
    }

    #[test]
    fn quantity_distribution_supports_paper_selectivities() {
        // The paper's thetasubselect uses l_quantity < 24 at ~45%
        // selectivity; quantities are uniform 1..=50 so the fraction must
        // be close to 46%.
        let d = TpchData::generate(TpchScale::test_tiny());
        let q = d.column("lineitem", "l_quantity").as_f64();
        let sel = q.iter().filter(|&&v| v < 24.0).count() as f64 / q.len() as f64;
        assert!((sel - 0.46).abs() < 0.03, "selectivity {sel}");
    }

    #[test]
    fn dates_are_consistent() {
        let d = TpchData::generate(TpchScale::test_tiny());
        let ship = d.column("lineitem", "l_shipdate").as_i64();
        let receipt = d.column("lineitem", "l_receiptdate").as_i64();
        assert!(ship.iter().zip(receipt).all(|(s, r)| r > s));
        assert!(ship.iter().all(|&s| (1..=MAX_SHIP_DAY).contains(&s)));
    }

    #[test]
    fn foreign_keys_in_range() {
        let d = TpchData::generate(TpchScale::test_tiny());
        let s = d.scale;
        let lok = d.column("lineitem", "l_orderkey").as_i64();
        assert!(lok.iter().all(|&k| (k as usize) < s.orders_rows()));
        let ock = d.column("orders", "o_custkey").as_i64();
        assert!(ock.iter().all(|&k| (k as usize) < s.customer_rows()));
        let nk = d.column("customer", "c_nationkey").as_i64();
        assert!(nk.iter().all(|&k| k < 25));
    }

    #[test]
    fn raw_bytes_accounting() {
        let d = TpchData::generate(TpchScale::test_tiny());
        let expected: u64 = d
            .tables
            .iter()
            .flat_map(|t| t.columns.iter())
            .map(|c| c.data.len() as u64 * 8)
            .sum();
        assert_eq!(d.raw_bytes(), expected);
        assert!(d.raw_bytes() > 0);
    }
}
