//! Predicate and scalar expressions over rows.
//!
//! A small expression AST — columns, literals, comparisons, boolean
//! connectives, arithmetic — rich enough to express the Linear Road toll
//! query's conditions (`LAV < 40 AND numOfCars > 50 AND seg BETWEEN ...`)
//! against a schema-resolved row.

use confluence_core::error::{Error, Result};

use crate::schema::Schema;
use crate::value::Value;

/// A scalar expression evaluated against one row.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A column reference (resolved by name at evaluation).
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// NULL test.
    IsNull(Box<Expr>),
    /// Membership test: `expr IN (e1, e2, …)`. An empty list is always
    /// false.
    InList(Box<Expr>, Vec<Expr>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A per-column range constraint extracted from a conjunction, with
/// strict (`<`/`>`) and inclusive (`<=`/`>=`) sides kept distinct. Both
/// sides are the *tightest* bounds found, so candidate sets stay supersets
/// of the true match set under any combination of conjuncts.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRange {
    /// Constrained column.
    pub column: String,
    /// Lower bound.
    pub lo: std::ops::Bound<Value>,
    /// Upper bound.
    pub hi: std::ops::Bound<Value>,
}

/// A row an expression reads, one cell at a time: a slice of values, or a
/// table's row read where it is stored (`RowRef`), which decodes only the
/// cells the expression names.
pub trait ReadCell {
    /// The value in column `col`.
    fn cell(&self, col: usize) -> Value;
}

impl ReadCell for [Value] {
    fn cell(&self, col: usize) -> Value {
        self[col].clone()
    }
}

/// Shorthand: column reference.
pub fn col(name: &str) -> Expr {
    Expr::Col(name.to_string())
}

/// Shorthand: literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

impl Expr {
    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(other))
    }
    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ne, Box::new(other))
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(other))
    }
    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(other))
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(other))
    }
    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(other))
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self + other`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Add, Box::new(other))
    }
    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Sub, Box::new(other))
    }
    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Mul, Box::new(other))
    }
    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Div, Box::new(other))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self BETWEEN lo AND hi` (inclusive).
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().ge(lo).and(self.le(hi))
    }
    /// `self IN (items…)` — true when `self` equals any item (NULLs never
    /// match, as with `=`). Only a one-value list binds an index, as `=`.
    pub fn in_list(self, items: Vec<Expr>) -> Expr {
        Expr::InList(Box::new(self), items)
    }

    /// Evaluate to a scalar value against a row.
    pub fn eval<R: ReadCell + ?Sized>(&self, schema: &Schema, row: &R) -> Result<Value> {
        Ok(match self {
            Expr::Col(name) => row.cell(schema.column_index(name)?),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(a, op, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                if va.is_null() || vb.is_null() {
                    // SQL-ish: comparisons with NULL are false.
                    return Ok(Value::Bool(false));
                }
                let ord = va.cmp(&vb);
                Value::Bool(match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                })
            }
            Expr::And(a, b) => {
                Value::Bool(a.eval(schema, row)?.as_bool()? && b.eval(schema, row)?.as_bool()?)
            }
            Expr::Or(a, b) => {
                Value::Bool(a.eval(schema, row)?.as_bool()? || b.eval(schema, row)?.as_bool()?)
            }
            Expr::Not(a) => Value::Bool(!a.eval(schema, row)?.as_bool()?),
            Expr::Arith(a, op, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                match (&va, &vb) {
                    (Value::Int(x), Value::Int(y)) => match op {
                        ArithOp::Add => Value::Int(x + y),
                        ArithOp::Sub => Value::Int(x - y),
                        ArithOp::Mul => Value::Int(x * y),
                        ArithOp::Div => {
                            if *y == 0 {
                                return Err(Error::Store("integer division by zero".into()));
                            }
                            Value::Int(x / y)
                        }
                    },
                    _ => {
                        let x = va.as_float()?;
                        let y = vb.as_float()?;
                        Value::Float(match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => x / y,
                        })
                    }
                }
            }
            Expr::IsNull(a) => Value::Bool(a.eval(schema, row)?.is_null()),
            Expr::InList(e, items) => {
                let v = e.eval(schema, row)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let mut hit = false;
                for item in items {
                    let iv = item.eval(schema, row)?;
                    if !iv.is_null() && iv == v {
                        hit = true;
                        break;
                    }
                }
                Value::Bool(hit)
            }
        })
    }

    /// Evaluate as a boolean predicate.
    pub fn matches<R: ReadCell + ?Sized>(&self, schema: &Schema, row: &R) -> Result<bool> {
        self.eval(schema, row)?.as_bool()
    }

    /// If this predicate constrains the given columns to constants via
    /// equality conjunctions (`a = 1 AND b = 2 AND <rest>`), return the
    /// constant for each column — the index-lookup fast path.
    pub fn equality_bindings(&self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        self.collect_eq(&mut out);
        out
    }

    fn collect_eq(&self, out: &mut Vec<(String, Value)>) {
        match self {
            Expr::And(a, b) => {
                a.collect_eq(out);
                b.collect_eq(out);
            }
            Expr::Cmp(a, CmpOp::Eq, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => {
                    out.push((c.clone(), v.clone()));
                }
                _ => {}
            },
            // A one-value `IN` is an equality.
            Expr::InList(e, items) => {
                if let (Expr::Col(c), [Expr::Lit(v)]) = (e.as_ref(), items.as_slice()) {
                    out.push((c.clone(), v.clone()));
                }
            }
            _ => {}
        }
    }

    /// Range constraints on columns in the top-level conjunction, strict
    /// and inclusive bounds alike.
    /// Multiple constraints on one column intersect to the tightest pair,
    /// which is still a superset of the conjunction's matches.
    pub fn range_constraints(&self) -> Vec<ColRange> {
        use std::cmp::Ordering;
        use std::ops::Bound;
        // The tighter of two bounds on one side of a range; `wins` is how
        // the tighter value compares (`Greater` for a lower bound, `Less`
        // for an upper). At equal values the exclusive bound is tighter.
        fn tighter(a: Bound<Value>, b: Bound<Value>, wins: Ordering) -> Bound<Value> {
            match (&a, &b) {
                (Bound::Unbounded, _) => b,
                (_, Bound::Unbounded) => a,
                (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
                    let ord = x.cmp(y);
                    if ord == wins || (ord == Ordering::Equal && matches!(a, Bound::Excluded(_))) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
        fn add(out: &mut Vec<ColRange>, c: &str, lo: Bound<Value>, hi: Bound<Value>) {
            if let Some(r) = out.iter_mut().find(|r| r.column == c) {
                r.lo = tighter(std::mem::replace(&mut r.lo, Bound::Unbounded), lo, Ordering::Greater);
                r.hi = tighter(std::mem::replace(&mut r.hi, Bound::Unbounded), hi, Ordering::Less);
            } else {
                out.push(ColRange { column: c.to_string(), lo, hi });
            }
        }
        fn walk(e: &Expr, out: &mut Vec<ColRange>) {
            use Bound::{Excluded, Included, Unbounded};
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::Cmp(a, op, b) => {
                    // Normalize to column-on-the-left.
                    let (c, op, v) = match (a.as_ref(), b.as_ref()) {
                        (Expr::Col(c), Expr::Lit(v)) => (c, *op, v),
                        (Expr::Lit(v), Expr::Col(c)) => {
                            let flipped = match op {
                                CmpOp::Lt => CmpOp::Gt,
                                CmpOp::Le => CmpOp::Ge,
                                CmpOp::Gt => CmpOp::Lt,
                                CmpOp::Ge => CmpOp::Le,
                                other => *other,
                            };
                            (c, flipped, v)
                        }
                        _ => return,
                    };
                    match op {
                        CmpOp::Ge => add(out, c, Included(v.clone()), Unbounded),
                        CmpOp::Gt => add(out, c, Excluded(v.clone()), Unbounded),
                        CmpOp::Le => add(out, c, Unbounded, Included(v.clone())),
                        CmpOp::Lt => add(out, c, Unbounded, Excluded(v.clone())),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Whether `f` holds for every top-level AND-conjunct, flattened (a
    /// non-AND expression is its own single conjunct), left to right and
    /// stopping at the first that fails. Used by the planner's residual-free
    /// check, on every read, so it allocates nothing.
    pub fn all_conjuncts(&self, f: &mut impl FnMut(&Expr) -> bool) -> bool {
        match self {
            Expr::And(a, b) => a.all_conjuncts(f) && b.all_conjuncts(f),
            other => f(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::builder()
            .column("a", ValueType::Int)
            .column("b", ValueType::Float)
            .nullable_column("c", ValueType::Str)
            .build()
            .unwrap()
    }

    fn row() -> crate::Row {
        vec![5.into(), 2.5.into(), Value::Null]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        assert!(col("a").eq(lit(5)).matches(&s, &r[..]).unwrap());
        assert!(col("a").ne(lit(4)).matches(&s, &r[..]).unwrap());
        assert!(col("a").gt(lit(4)).matches(&s, &r[..]).unwrap());
        assert!(col("a").ge(lit(5)).matches(&s, &r[..]).unwrap());
        assert!(col("b").lt(lit(3.0)).matches(&s, &r[..]).unwrap());
        assert!(col("b").le(lit(2.5)).matches(&s, &r[..]).unwrap());
        // Cross-type numeric comparison.
        assert!(col("a").gt(lit(4.5)).matches(&s, &r[..]).unwrap());
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let r = row();
        assert!(!col("c").eq(lit("x")).matches(&s, &r[..]).unwrap());
        assert!(col("c").is_null().matches(&s, &r[..]).unwrap());
        assert!(!col("a").is_null().matches(&s, &r[..]).unwrap());
        assert_eq!(
            col("c").add(lit(1)).eval(&s, &r[..]).unwrap(),
            Value::Null,
            "arithmetic with NULL is NULL"
        );
    }

    #[test]
    fn logic_and_between() {
        let s = schema();
        let r = row();
        let p = col("a").gt(lit(1)).and(col("b").lt(lit(10)));
        assert!(p.matches(&s, &r[..]).unwrap());
        assert!(!p.clone().not().matches(&s, &r[..]).unwrap());
        assert!(col("a").eq(lit(9)).or(col("a").eq(lit(5))).matches(&s, &r[..]).unwrap());
        assert!(col("a").between(lit(4), lit(6)).matches(&s, &r[..]).unwrap());
        assert!(!col("a").between(lit(6), lit(9)).matches(&s, &r[..]).unwrap());
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let r = row();
        assert_eq!(col("a").add(lit(2)).eval(&s, &r[..]).unwrap(), Value::Int(7));
        assert_eq!(col("a").sub(lit(2)).eval(&s, &r[..]).unwrap(), Value::Int(3));
        assert_eq!(col("a").mul(lit(3)).eval(&s, &r[..]).unwrap(), Value::Int(15));
        assert_eq!(col("a").div(lit(2)).eval(&s, &r[..]).unwrap(), Value::Int(2));
        assert_eq!(
            col("b").mul(lit(2)).eval(&s, &r[..]).unwrap(),
            Value::Float(5.0)
        );
        assert!(col("a").div(lit(0)).eval(&s, &r[..]).is_err());
        // The toll formula shape: 2·(cars − 50)².
        let cars = col("a");
        let toll = lit(2).mul(cars.clone().sub(lit(3)).mul(cars.sub(lit(3))));
        assert_eq!(toll.eval(&s, &r[..]).unwrap(), Value::Int(8));
    }

    #[test]
    fn equality_bindings_extracted() {
        let p = col("x")
            .eq(lit(1))
            .and(lit(2).eq(col("y")))
            .and(col("z").gt(lit(3)));
        let binds = p.equality_bindings();
        assert_eq!(binds.len(), 2);
        assert_eq!(binds[0], ("x".to_string(), Value::Int(1)));
        assert_eq!(binds[1], ("y".to_string(), Value::Int(2)));
        // OR breaks the conjunction fast path.
        let q = col("x").eq(lit(1)).or(col("y").eq(lit(2)));
        assert!(q.equality_bindings().is_empty());
    }

    #[test]
    fn one_value_in_binds_like_an_equality() {
        let p = col("x").in_list(vec![lit(7)]).and(col("y").eq(lit(2)));
        assert_eq!(
            p.equality_bindings(),
            vec![("x".to_string(), Value::Int(7)), ("y".to_string(), Value::Int(2))]
        );
        // Two values, no values, or a non-literal item bind nothing.
        assert!(col("x").in_list(vec![lit(1), lit(2)]).equality_bindings().is_empty());
        assert!(col("x").in_list(vec![]).equality_bindings().is_empty());
        assert!(col("x").in_list(vec![col("y")]).equality_bindings().is_empty());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        assert!(col("nope").eval(&s, &row()[..]).is_err());
    }

    #[test]
    fn in_list_membership() {
        let s = schema();
        let r = row();
        assert!(col("a").in_list(vec![lit(1), lit(5)]).matches(&s, &r[..]).unwrap());
        assert!(!col("a").in_list(vec![lit(1), lit(2)]).matches(&s, &r[..]).unwrap());
        assert!(!col("a").in_list(vec![]).matches(&s, &r[..]).unwrap(), "empty IN is false");
        // NULL on either side never matches.
        assert!(!col("c").in_list(vec![lit("x")]).matches(&s, &r[..]).unwrap());
        assert!(!col("a").in_list(vec![Expr::Lit(Value::Null)]).matches(&s, &r[..]).unwrap());
    }

    #[test]
    fn range_constraints_keep_tightest_bounds() {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        // `between` is an inclusive pair, found beside an equality.
        let p = col("x").between(lit(1), lit(5)).and(col("y").eq(lit(2)));
        let r = p.range_constraints();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].lo, Included(Value::Int(1)));
        assert_eq!(r[0].hi, Included(Value::Int(5)));
        // Strict bounds are visible.
        let p = col("x").gt(lit(3));
        let r = p.range_constraints();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].lo, Excluded(Value::Int(3)));
        assert_eq!(r[0].hi, Unbounded);
        // Literal-on-the-left flips the operator.
        let p = lit(10).gt(col("x"));
        assert_eq!(p.range_constraints()[0].hi, Excluded(Value::Int(10)));
        // Multiple constraints intersect to the tightest pair; at equal
        // values the exclusive side wins.
        let p = col("x")
            .ge(lit(1))
            .and(col("x").gt(lit(1)))
            .and(col("x").le(lit(9)))
            .and(col("x").lt(lit(7)));
        let r = p.range_constraints();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].lo, Excluded(Value::Int(1)));
        assert_eq!(r[0].hi, Excluded(Value::Int(7)));
        // OR breaks the conjunction.
        assert!(col("x").gt(lit(1)).or(col("x").lt(lit(0))).range_constraints().is_empty());
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = col("a")
            .eq(lit(1))
            .and(col("b").gt(lit(2)).and(col("c").is_null()));
        let count = |e: &Expr| {
            let mut n = 0;
            assert!(e.all_conjuncts(&mut |_| {
                n += 1;
                true
            }));
            n
        };
        assert_eq!(count(&p), 3);
        let single = col("a").eq(lit(1)).or(col("b").eq(lit(2)));
        assert_eq!(count(&single), 1);
        assert!(!p.all_conjuncts(&mut |c| !matches!(c, Expr::IsNull(_))), "c IS NULL fails");
    }
}
