//! A small query builder over tables: filter → project → order → limit.
//!
//! Execution is plan-driven: the filter goes through [`Table::plan`], rows
//! are tracked as storage positions until the limit has been applied, and
//! only the surviving rows/columns are cloned. [`Query::explain`] renders
//! the chosen plan without executing anything.

use confluence_core::error::{Error, Result};

use crate::expr::Expr;
use crate::store::Store;
use crate::table::Table;
use crate::value::{Row, Value};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A declarative query against one table.
#[derive(Debug, Clone)]
pub struct Query {
    table: String,
    filter: Option<Expr>,
    projection: Option<Vec<String>>,
    order_by: Option<(String, Order)>,
    limit: Option<usize>,
}

impl Query {
    /// Start a query over `table`.
    pub fn from(table: &str) -> Query {
        Query {
            table: table.to_string(),
            filter: None,
            projection: None,
            order_by: None,
            limit: None,
        }
    }

    /// Restrict to rows matching `pred` (ANDed with any previous filter).
    pub fn filter(mut self, pred: Expr) -> Query {
        self.filter = Some(match self.filter {
            Some(existing) => existing.and(pred),
            None => pred,
        });
        self
    }

    /// Keep only the named columns, in the given order.
    pub fn project(mut self, columns: &[&str]) -> Query {
        self.projection = Some(columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sort by one column.
    pub fn order_by(mut self, column: &str, order: Order) -> Query {
        self.order_by = Some((column.to_string(), order));
        self
    }

    /// Return at most `n` rows (applied after sorting).
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Execute against a store.
    pub fn execute(&self, store: &Store) -> Result<Vec<Row>> {
        self.execute_on(store.table(&self.table)?)
    }

    /// Execute against a table directly. Matching rows are tracked as
    /// positions — stably sorted (ties keep storage order), truncated, and
    /// only then cloned (projected columns only).
    pub fn execute_on(&self, table: &Table) -> Result<Vec<Row>> {
        let schema = table.schema();
        let proj: Option<Vec<usize>> = self
            .projection
            .as_ref()
            .map(|cols| cols.iter().map(|c| schema.column_index(c)).collect::<Result<_>>())
            .transpose()?;
        let mut positions = table.filtered_positions(self.filter.as_ref())?;
        if let Some((column, order)) = &self.order_by {
            let idx = schema.column_index(column)?;
            // Positions arrive in storage order; the stable sort keeps
            // that order for ties.
            positions.sort_by(|&a, &b| {
                let ord = table.row_at(a).cell(idx).cmp(&table.row_at(b).cell(idx));
                match order {
                    Order::Asc => ord,
                    Order::Desc => ord.reverse(),
                }
            });
        }
        if let Some(n) = self.limit {
            positions.truncate(n);
        }
        Ok(match &proj {
            None => positions.into_iter().map(|p| table.row_at(p).to_vec()).collect(),
            Some(idxs) => positions
                .into_iter()
                .map(|p| {
                    let r = table.row_at(p);
                    idxs.iter().map(|&i| r.cell(i)).collect()
                })
                .collect(),
        })
    }

    /// Execute and return the single value of a one-column, one-row result
    /// (`None` when no row matched). Errors if the result is wider.
    pub fn scalar(&self, store: &Store) -> Result<Option<Value>> {
        // A scalar probe needs one row; push the limit down so the query
        // stops paying for every other match — unless an order_by forces
        // total ordering or an explicit limit already shapes the result.
        let rows = if self.order_by.is_none() && self.limit.is_none() {
            self.clone().limit(1).execute(store)?
        } else {
            self.execute(store)?
        };
        match rows.first() {
            None => Ok(None),
            Some(row) if row.len() == 1 => Ok(Some(row[0].clone())),
            Some(row) => Err(Error::Store(format!(
                "scalar() on a {}-column result",
                row.len()
            ))),
        }
    }

    /// Render the plan this query would execute, without running it.
    pub fn explain(&self, store: &Store) -> Result<String> {
        self.explain_on(store.table(&self.table)?)
    }

    /// Render the plan against a table directly. The format is stable and
    /// asserted in tests:
    ///
    /// ```text
    /// Query(minute_speeds)
    ///   plan: IndexRange(ordered(xway,dir,seg→minute)) eq=[0, 1, 5] range=[3, 7] est=4.0
    ///   order_by: minute asc
    ///   limit: 5
    ///   project: [speed]
    /// ```
    pub fn explain_on(&self, table: &Table) -> Result<String> {
        use std::fmt::Write as _;
        let schema = table.schema();
        if let Some(cols) = &self.projection {
            for c in cols {
                schema.column_index(c)?;
            }
        }
        let plan = table.plan(self.filter.as_ref());
        let mut out = format!("Query({})\n  plan: {plan}", self.table);
        if let Some((column, order)) = &self.order_by {
            schema.column_index(column)?;
            let dir = match order {
                Order::Asc => "asc",
                Order::Desc => "desc",
            };
            let _ = write!(out, "\n  order_by: {column} {dir}");
        }
        if let Some(n) = self.limit {
            let _ = write!(out, "\n  limit: {n}");
        }
        if let Some(cols) = &self.projection {
            let _ = write!(out, "\n  project: [{}]", cols.join(","));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn store() -> Store {
        let mut s = Store::new();
        s.create_table(
            "t",
            Schema::builder()
                .column("id", ValueType::Int)
                .column("g", ValueType::Int)
                .column("v", ValueType::Float)
                .primary_key(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..10i64 {
            s.table_mut("t")
                .unwrap()
                .insert(vec![i.into(), (i % 3).into(), (i as f64 * 1.5).into()])
                .unwrap();
        }
        s
    }

    #[test]
    fn filter_project_order_limit() {
        let s = store();
        let rows = Query::from("t")
            .filter(col("g").eq(lit(1)))
            .order_by("v", Order::Desc)
            .limit(2)
            .project(&["id"])
            .execute(&s)
            .unwrap();
        // g == 1 → ids 1, 4, 7; descending v → 7, 4; limit 2.
        assert_eq!(rows, vec![vec![Value::Int(7)], vec![Value::Int(4)]]);
    }

    #[test]
    fn chained_filters_and() {
        let s = store();
        let rows = Query::from("t")
            .filter(col("g").eq(lit(0)))
            .filter(col("id").gt(lit(3)))
            .execute(&s)
            .unwrap();
        assert_eq!(rows.len(), 2, "ids 6 and 9");
    }

    #[test]
    fn ascending_order() {
        let s = store();
        let rows = Query::from("t")
            .order_by("id", Order::Asc)
            .limit(3)
            .project(&["id"])
            .execute(&s)
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(0)], vec![Value::Int(1)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn scalar_access() {
        let s = store();
        let v = Query::from("t")
            .filter(col("id").eq(lit(4)))
            .project(&["v"])
            .scalar(&s)
            .unwrap();
        assert_eq!(v, Some(Value::Float(6.0)));
        let none = Query::from("t")
            .filter(col("id").eq(lit(99)))
            .project(&["v"])
            .scalar(&s)
            .unwrap();
        assert_eq!(none, None);
        // Too wide.
        assert!(Query::from("t").filter(col("id").eq(lit(4))).scalar(&s).is_err());
        // With order_by set the implicit limit(1) must not kick in (and
        // the result is still the post-sort first row).
        let top = Query::from("t")
            .order_by("v", Order::Desc)
            .project(&["v"])
            .scalar(&s)
            .unwrap();
        assert_eq!(top, Some(Value::Float(13.5)));
    }

    #[test]
    fn duplicate_projection_columns_still_clone() {
        let s = store();
        let rows = Query::from("t")
            .filter(col("id").eq(lit(4)))
            .project(&["v", "v", "id"])
            .execute(&s)
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Float(6.0), Value::Float(6.0), Value::Int(4)]]
        );
    }

    #[test]
    fn order_by_limit_with_an_ordered_index_on_the_sort_column() {
        let mut s = store();
        s.table_mut("t")
            .unwrap()
            .create_ordered_index(&["g"], "v")
            .unwrap();
        // Same shape, and answer, as `filter_project_order_limit`.
        let rows = Query::from("t")
            .filter(col("g").eq(lit(1)))
            .order_by("v", Order::Desc)
            .limit(2)
            .project(&["id"])
            .execute(&s)
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(7)], vec![Value::Int(4)]]);
        // A conjunct the index does not cover still filters.
        let rows = Query::from("t")
            .filter(col("g").eq(lit(1)).and(col("id").lt(lit(7))))
            .order_by("v", Order::Desc)
            .limit(2)
            .project(&["id"])
            .execute(&s)
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(4)], vec![Value::Int(1)]]);
        // Missing partition → empty result, not an error.
        let rows = Query::from("t")
            .filter(col("g").eq(lit(9)))
            .order_by("v", Order::Asc)
            .limit(5)
            .execute(&s)
            .unwrap();
        assert!(rows.is_empty());
        // Unfiltered, beside an index with no equality columns.
        s.table_mut("t")
            .unwrap()
            .create_ordered_index(&[], "id")
            .unwrap();
        let rows = Query::from("t")
            .order_by("id", Order::Asc)
            .limit(3)
            .project(&["id"])
            .execute(&s)
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(0)], vec![Value::Int(1)], vec![Value::Int(2)]]
        );
        // Sorting by a non-indexed column.
        let via_sort = Query::from("t")
            .order_by("g", Order::Asc)
            .limit(4)
            .execute(&s)
            .unwrap();
        assert_eq!(via_sort.len(), 4);
    }

    #[test]
    fn unknown_table_and_columns_error() {
        let s = store();
        assert!(Query::from("nope").execute(&s).is_err());
        assert!(Query::from("t").project(&["zz"]).execute(&s).is_err());
        assert!(Query::from("t").order_by("zz", Order::Asc).execute(&s).is_err());
        assert!(Query::from("nope").explain(&s).is_err());
        assert!(Query::from("t").project(&["zz"]).explain(&s).is_err());
        assert!(Query::from("t").order_by("zz", Order::Asc).explain(&s).is_err());
    }

    #[test]
    fn explain_renders_stable_plans() {
        let s = store();
        // A 10-row table: the cost model keeps the scan.
        assert_eq!(
            Query::from("t").explain(&s).unwrap(),
            "Query(t)\n  plan: FullScan(rows=10) est=10.0"
        );
        let q = Query::from("t")
            .filter(col("id").eq(lit(4)))
            .project(&["v"]);
        assert_eq!(
            q.explain(&s).unwrap(),
            "Query(t)\n  plan: IndexEq(pk(id)) key=[4] est=1.0\n  project: [v]"
        );
        // The plan is the filter's; order and limit are stages after it.
        let mut s = store();
        s.table_mut("t").unwrap().create_ordered_index(&["g"], "v").unwrap();
        let q = Query::from("t")
            .filter(col("g").eq(lit(1)))
            .order_by("v", Order::Desc)
            .limit(2);
        assert_eq!(
            q.explain(&s).unwrap(),
            "Query(t)\n  plan: IndexRange(ordered(g→v)) eq=[1] range=(-∞, +∞) est=3.3\n  order_by: v desc\n  limit: 2"
        );
        let q = Query::from("t").order_by("id", Order::Asc).limit(3);
        assert_eq!(
            q.explain(&s).unwrap(),
            "Query(t)\n  plan: FullScan(rows=10) est=10.0\n  order_by: id asc\n  limit: 3"
        );
    }
}
