//! Cell values of the relational store.
//!
//! A deliberately small scalar universe (the Linear Road tables hold
//! integers, floats, and the occasional string), with total ordering and
//! hashing so values can key indexes, plus lossless conversion to and
//! from workflow [`Token`]s.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use confluence_core::error::{Error, Result};
use confluence_core::token::{int_float_cmp, Token};

/// A scalar cell value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Shared string, behind a thin pointer so a `Value` is 16 bytes. A
    /// table stores none: its cells are 8 bytes or less, a typed vector per
    /// column (see [`crate::table`]).
    Str(Arc<String>),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// Type tags for schema declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// Boolean column.
    Bool,
    /// Integer column.
    Int,
    /// Float column.
    Float,
    /// String column.
    Str,
}

impl Value {
    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::new(s.to_owned()))
    }

    /// The value's type, or `None` for NULL (NULL inhabits every type).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::Store(format!("expected Int, found {other}"))),
        }
    }

    /// Float accessor (widens Int).
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(Error::Store(format!("expected Float, found {other}"))),
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(Error::Store(format!("expected Bool, found {other}"))),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v.as_str()),
            other => Err(Error::Store(format!("expected Str, found {other}"))),
        }
    }

    /// Convert a workflow token to a cell value. Records and arrays are
    /// rejected (they are not scalars).
    pub fn from_token(token: &Token) -> Result<Value> {
        Ok(match token {
            Token::Unit => Value::Null,
            Token::Bool(b) => Value::Bool(*b),
            Token::Int(i) => Value::Int(*i),
            Token::Float(f) => Value::Float(*f),
            Token::Str(s) => Value::Str(s.clone()),
            other => {
                return Err(Error::Store(format!(
                    "non-scalar token {} cannot be stored",
                    other.type_name()
                )))
            }
        })
    }

    /// Convert back to a workflow token (NULL becomes Unit).
    pub fn to_token(&self) -> Token {
        match self {
            Value::Null => Token::Unit,
            Value::Bool(b) => Token::Bool(*b),
            Value::Int(i) => Token::Int(*i),
            Value::Float(f) => Token::Float(*f),
            Value::Str(s) => Token::Str(s.clone()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < Bool < numbers < Str. Int and Float compare
    /// exactly: by `total_cmp` of the integer widened to f64, then, when
    /// the widening rounded them together, by the integer value itself.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal: hash the
            // f64 bit pattern of the numeric value.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A row: one value per schema column, in column order.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn accessors_and_types() {
        assert_eq!(Value::Int(4).as_int().unwrap(), 4);
        assert_eq!(Value::Int(4).as_float().unwrap(), 4.0);
        assert_eq!(Value::Float(1.5).as_float().unwrap(), 1.5);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::str("x").as_str().unwrap(), "x");
        assert!(Value::Null.is_null());
        assert!(Value::Null.value_type().is_none());
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert!(Value::str("x").as_int().is_err());
    }

    #[test]
    fn token_round_trip() {
        for t in [
            Token::Unit,
            Token::Bool(true),
            Token::Int(7),
            Token::Float(2.5),
            Token::str("hello"),
        ] {
            let v = Value::from_token(&t).unwrap();
            assert_eq!(v.to_token(), t);
        }
        assert!(Value::from_token(&Token::record().build()).is_err());
        assert!(Value::from_token(&Token::array(vec![])).is_err());
    }

    #[test]
    fn strings_cross_to_and_from_tokens_without_a_copy() {
        let token = Token::str("Sacramento");
        let value = Value::from_token(&token).unwrap();
        let (Token::Str(t), Value::Str(v)) = (&token, &value) else { panic!("strings") };
        assert!(Arc::ptr_eq(t, v), "token to value shares the string");
        let Token::Str(back) = value.to_token() else { panic!("a string") };
        assert!(Arc::ptr_eq(&back, v), "value to token shares the string");
    }

    #[test]
    fn cross_type_numeric_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn total_order() {
        let mut v = vec![
            Value::str("a"),
            Value::Int(5),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(1.5),
                Value::Int(5),
                Value::str("a"),
            ]
        );
    }

    #[test]
    fn int_and_float_order_exactly_near_two_to_the_53() {
        const P: i64 = 1 << 53;
        let (pf, max) = (P as f64, i64::MAX as f64);
        // `2^53 + 1 as f64` rounds to 2^53: the old widening compare had
        // Int(2^53 + 1) == Float(2^53) == Int(2^53) < Int(2^53 + 1).
        assert!(Value::Int(P + 1) > Value::Float(pf));
        assert_eq!(Value::Float(pf), Value::Int(P));
        assert!(Value::Int(i64::MAX) < Value::Float(max), "2^63 - 1 < 2^63");
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Float(-0.0) < Value::Int(0));
        let vs = [
            Value::Int(P - 1),
            Value::Int(P),
            Value::Int(P + 1),
            Value::Int(P + 2),
            Value::Int(P + 3),
            Value::Float(pf - 1.0),
            Value::Float(pf),
            Value::Float(pf + 2.0),
            Value::Float(pf + 4.0),
            Value::Int(i64::MAX),
            Value::Float(max),
            Value::Int(i64::MIN),
            Value::Float(i64::MIN as f64),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
        ];
        for a in &vs {
            for b in &vs {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a} vs {b}");
                if a == b {
                    assert_eq!(h(a), h(b), "{a} == {b} must hash alike");
                }
                for c in &vs {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a} <= {b} <= {c}");
                    }
                }
            }
        }
        let mut sorted = vs.to_vec();
        sorted.sort();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let ints: Vec<&Value> = sorted.iter().filter(|v| matches!(v, Value::Int(_))).collect();
        assert!(ints.windows(2).all(|w| w[0].as_int().unwrap() <= w[1].as_int().unwrap()));
    }

    #[test]
    fn strings_keep_their_text_order_and_hash() {
        for s in ["", "a", "ünï", "a b"] {
            let v = Value::str(s);
            assert_eq!(v.as_str().unwrap(), s);
            assert_eq!(v.to_string(), format!("'{s}'"));
            let mut expect = DefaultHasher::new();
            3u8.hash(&mut expect);
            s.hash(&mut expect);
            assert_eq!(h(&v), expect.finish(), "hashes as the str it holds");
            let back = Value::from_token(&Token::str(s)).unwrap();
            assert_eq!(back, v);
            assert_eq!(back.to_token(), Token::str(s));
        }
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::str("b") < Value::str("ba"));
        assert!(Value::Float(f64::INFINITY) < Value::str(""));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    #[test]
    fn conversions() {
        let _: Value = 1i64.into();
        let _: Value = 1i32.into();
        let _: Value = 1.5f64.into();
        let _: Value = true.into();
        let _: Value = "s".into();
    }
}
