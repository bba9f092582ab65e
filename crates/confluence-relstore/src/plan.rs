//! The query plan IR.
//!
//! A [`Plan`] is the planner's chosen access path plus its cost-model
//! verdict, produced by `Table::plan` (and `Table::plan_group_by` for a
//! grouped aggregation) before any row is touched. The IR is executable —
//! nodes carry concrete index references, probe keys, and bounds — and
//! renderable: `Display` output is stable and asserted in tests, which is
//! what `Query::explain()` surfaces. There are four node kinds, one per
//! access path a statement in this repository reaches; `OR` and `IN` are
//! not planned but evaluated row by row on whatever the rest of the
//! predicate selected.
//!
//! Every node is equivalence-gated against the full-scan path: a plan
//! changes how rows are *found*, never which rows come back or in what
//! order.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use confluence_core::token::Token;

/// Which physical index a node reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexRef {
    /// The unique primary-key hash index.
    PrimaryKey,
    /// The n-th declared secondary hash index.
    Secondary(usize),
    /// The n-th declared ordered composite index.
    Ordered(usize),
}

/// One node of the plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Visit every live row.
    FullScan {
        /// Live rows at plan time.
        rows: usize,
    },
    /// One equality probe of a hash index (primary or secondary).
    IndexEq {
        /// Probed index.
        index: IndexRef,
        /// Display label of the index (`pk(a,b)` / `secondary(a,b)`).
        label: Arc<str>,
        /// Probe key, in the index's column order.
        key: Vec<Token>,
    },
    /// A range scan of one ordered-index partition. Produced for
    /// `eq… AND range_col ⋈ bounds` shapes; an equality on the range
    /// column pins both bounds, an unconstrained range column leaves both
    /// unbounded (a whole-partition scan).
    IndexRange {
        /// Ordered-index ordinal.
        index: usize,
        /// Display label (`ordered(a,b→c)`).
        label: Arc<str>,
        /// Partition key over the index's equality columns.
        eq_key: Vec<Token>,
        /// Lower bound on the range column.
        lo: Bound<Token>,
        /// Upper bound on the range column.
        hi: Bound<Token>,
    },
    /// Grouped aggregation served from an index whose key columns cover
    /// the grouping columns: per-bucket streaming aggregates, groups
    /// re-emitted in first-match order.
    GroupByIndex {
        /// Covering index.
        index: IndexRef,
        /// Display label.
        label: Arc<str>,
        /// Grouping columns, in request order.
        group_cols: Vec<String>,
    },
}

/// A chosen plan with the cost model's estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The access path.
    pub node: PlanNode,
    /// Estimated candidate rows the path visits.
    pub est_rows: f64,
    /// Cost-model score (unit: row visits; see [`crate::cost`]).
    pub cost: f64,
}

fn fmt_key(f: &mut fmt::Formatter<'_>, key: &[Token]) -> fmt::Result {
    write!(f, "[")?;
    for (i, v) in key.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, "]")
}

fn fmt_bounds(f: &mut fmt::Formatter<'_>, lo: &Bound<Token>, hi: &Bound<Token>) -> fmt::Result {
    match lo {
        Bound::Included(v) => write!(f, "[{v}, ")?,
        Bound::Excluded(v) => write!(f, "({v}, ")?,
        Bound::Unbounded => write!(f, "(-∞, ")?,
    }
    match hi {
        Bound::Included(v) => write!(f, "{v}]"),
        Bound::Excluded(v) => write!(f, "{v})"),
        Bound::Unbounded => write!(f, "+∞)"),
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanNode::FullScan { rows } => write!(f, "FullScan(rows={rows})"),
            PlanNode::IndexEq { label, key, .. } => {
                write!(f, "IndexEq({label}) key=")?;
                fmt_key(f, key)
            }
            PlanNode::IndexRange { label, eq_key, lo, hi, .. } => {
                write!(f, "IndexRange({label}) eq=")?;
                fmt_key(f, eq_key)?;
                write!(f, " range=")?;
                fmt_bounds(f, lo, hi)
            }
            PlanNode::GroupByIndex { label, group_cols, .. } => {
                write!(f, "GroupByIndex({label}) groups=[{}]", group_cols.join(","))
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} est={:.1}", self.node, self.est_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable() {
        let eq = PlanNode::IndexEq {
            index: IndexRef::Secondary(0),
            label: "secondary(seg)".into(),
            key: vec![Token::Int(5)],
        };
        assert_eq!(eq.to_string(), "IndexEq(secondary(seg)) key=[5]");

        let named = PlanNode::IndexEq {
            index: IndexRef::PrimaryKey,
            label: "pk(name,note)".into(),
            key: vec![Token::str("alpha"), Token::Unit],
        };
        assert_eq!(named.to_string(), r#"IndexEq(pk(name,note)) key=["alpha", ()]"#);

        let range = PlanNode::IndexRange {
            index: 0,
            label: "ordered(xway,dir→time)".into(),
            eq_key: vec![Token::Int(0), Token::Int(1)],
            lo: Bound::Excluded(Token::Int(120)),
            hi: Bound::Unbounded,
        };
        assert_eq!(
            range.to_string(),
            "IndexRange(ordered(xway,dir→time)) eq=[0, 1] range=(120, +∞)"
        );

        let scan = Plan { node: PlanNode::FullScan { rows: 40 }, est_rows: 40.0, cost: 40.0 };
        assert_eq!(scan.to_string(), "FullScan(rows=40) est=40.0");

        let grp = PlanNode::GroupByIndex {
            index: IndexRef::Secondary(1),
            label: "secondary(g,s)".into(),
            group_cols: vec!["g".into(), "s".into()],
        };
        assert_eq!(grp.to_string(), "GroupByIndex(secondary(g,s)) groups=[g,s]");
    }
}
