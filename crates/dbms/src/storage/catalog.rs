//! The catalog: named tables of named columns, and the TPC-H schema.

use crate::storage::bat::{BatId, BatStore, ColType};
use emca_metrics::FxHashMap;

/// A column declaration.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Column name (e.g. `l_quantity`).
    pub name: &'static str,
    /// Storage type.
    pub col_type: ColType,
}

/// A table declaration.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name (e.g. `lineitem`).
    pub name: &'static str,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
}

/// Maps `table.column` names to live BATs.
#[derive(Default)]
pub struct Catalog {
    tables: FxHashMap<&'static str, FxHashMap<&'static str, BatId>>,
    row_counts: FxHashMap<&'static str, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a column BAT under `table.column`.
    pub fn register(
        &mut self,
        table: &'static str,
        column: &'static str,
        id: BatId,
        store: &BatStore,
    ) {
        let rows = store.get(id).len();
        let prev = self.row_counts.insert(table, rows);
        if let Some(p) = prev {
            assert_eq!(p, rows, "ragged table {table}: {p} vs {rows} rows");
        }
        self.tables.entry(table).or_default().insert(column, id);
    }

    /// Resolves `table.column` (panics on unknown names — plan bugs).
    pub fn column(&self, table: &str, column: &str) -> BatId {
        *self
            .tables
            .get(table)
            .unwrap_or_else(|| panic!("unknown table {table}"))
            .get(column)
            .unwrap_or_else(|| panic!("unknown column {table}.{column}"))
    }

    /// Row count of a table.
    pub fn rows(&self, table: &str) -> usize {
        *self
            .row_counts
            .get(table)
            .unwrap_or_else(|| panic!("unknown table {table}"))
    }
}

/// The TPC-H-style schema used by the 22 query plans. Strings are
/// dictionary codes (`I64`); dates are days since 1992-01-01 (`I64`).
pub fn tpch_schema() -> Vec<TableDef> {
    use ColType::{F64, I64};
    let col = |name, col_type| ColumnDef { name, col_type };
    vec![
        TableDef {
            name: "lineitem",
            columns: vec![
                col("l_orderkey", I64),
                col("l_partkey", I64),
                col("l_suppkey", I64),
                col("l_quantity", F64),
                col("l_extendedprice", F64),
                col("l_discount", F64),
                col("l_tax", F64),
                col("l_shipdate", I64),
                col("l_commitdate", I64),
                col("l_receiptdate", I64),
                col("l_returnflag", I64),
                col("l_linestatus", I64),
                col("l_shipmode", I64),
            ],
        },
        TableDef {
            name: "orders",
            columns: vec![
                col("o_orderkey", I64),
                col("o_custkey", I64),
                col("o_orderdate", I64),
                col("o_totalprice", F64),
                col("o_orderpriority", I64),
                col("o_orderstatus", I64),
            ],
        },
        TableDef {
            name: "customer",
            columns: vec![
                col("c_custkey", I64),
                col("c_nationkey", I64),
                col("c_acctbal", F64),
                col("c_mktsegment", I64),
                col("c_phone_cc", I64),
            ],
        },
        TableDef {
            name: "part",
            columns: vec![
                col("p_partkey", I64),
                col("p_size", I64),
                col("p_brand", I64),
                col("p_container", I64),
                col("p_type", I64),
            ],
        },
        TableDef {
            name: "supplier",
            columns: vec![
                col("s_suppkey", I64),
                col("s_nationkey", I64),
                col("s_acctbal", F64),
            ],
        },
        TableDef {
            name: "partsupp",
            columns: vec![
                col("ps_partkey", I64),
                col("ps_suppkey", I64),
                col("ps_supplycost", F64),
                col("ps_availqty", I64),
            ],
        },
        TableDef {
            name: "nation",
            columns: vec![col("n_nationkey", I64), col("n_regionkey", I64)],
        },
        TableDef {
            name: "region",
            columns: vec![col("r_regionkey", I64)],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::bat::{Bat, ColData};
    use numa_sim::Machine;
    use std::sync::Arc;

    #[test]
    fn schema_has_all_tables() {
        let s = tpch_schema();
        let names: Vec<_> = s.iter().map(|t| t.name).collect();
        for t in [
            "lineitem", "orders", "customer", "part", "supplier", "partsupp", "nation", "region",
        ] {
            assert!(names.contains(&t), "missing {t}");
        }
        let li = s.iter().find(|t| t.name == "lineitem").unwrap();
        assert!(li.columns.iter().any(|c| c.name == "l_quantity"));
        assert_eq!(
            li.columns
                .iter()
                .find(|c| c.name == "l_quantity")
                .unwrap()
                .col_type,
            ColType::F64
        );
    }

    #[test]
    fn register_and_resolve() {
        let mut m = Machine::opteron_4x4();
        let sp = m.create_space();
        let mut store = BatStore::new();
        let mut cat = Catalog::new();
        let id = store.insert(Bat::new(
            &mut m,
            sp,
            "l_quantity",
            ColData::F64(Arc::new(vec![1.0, 2.0])),
        ));
        cat.register("lineitem", "l_quantity", id, &store);
        assert_eq!(cat.column("lineitem", "l_quantity"), id);
        assert_eq!(cat.rows("lineitem"), 2);
    }

    #[test]
    #[should_panic(expected = "ragged table")]
    fn ragged_registration_panics() {
        let mut m = Machine::opteron_4x4();
        let sp = m.create_space();
        let mut store = BatStore::new();
        let mut cat = Catalog::new();
        let a = store.insert(Bat::new(&mut m, sp, "a", ColData::I64(Arc::new(vec![1]))));
        let b = store.insert(Bat::new(
            &mut m,
            sp,
            "b",
            ColData::I64(Arc::new(vec![1, 2])),
        ));
        cat.register("t", "a", a, &store);
        cat.register("t", "b", b, &store);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_panics() {
        let cat = Catalog::new();
        let mut cat2 = cat;
        let mut m = Machine::opteron_4x4();
        let sp = m.create_space();
        let mut store = BatStore::new();
        let id = store.insert(Bat::new(&mut m, sp, "a", ColData::I64(Arc::new(vec![1]))));
        cat2.register("t", "a", id, &store);
        let _ = cat2.column("t", "zzz");
    }
}
