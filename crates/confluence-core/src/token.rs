//! Dynamic, self-describing data items flowing through a workflow.
//!
//! Kepler calls the data items exchanged between actors *tokens*; we keep
//! the name. A [`Token`] is a small dynamically-typed value: scalars,
//! strings, records (named fields), and arrays. Records are the workhorse —
//! a Linear Road position report, for example, is a record with fields
//! `time`, `carid`, `speed`, `xway`, `lane`, `dir`, `seg`, `pos`.
//!
//! Tokens are cheap to clone: strings, records, and arrays are reference
//! counted. Records of one shape share a [`Schema`]: the field names exist
//! once per shape, a record itself is its values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};

/// A dynamically-typed data item.
#[derive(Debug, Clone, Default)]
pub enum Token {
    /// The unit token: pure trigger, carries no data.
    #[default]
    Unit,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable shared string, behind a thin pointer: a token is 16 bytes.
    Str(Arc<String>),
    /// Record with named fields, in declaration order.
    Record(Arc<Record>),
    /// Immutable array of tokens, behind a thin pointer like `Str`.
    Array(Arc<Vec<Token>>),
}

const _: () = assert!(std::mem::size_of::<Token>() == 16);

/// Schemas at or below this many fields are probed linearly on lookup —
/// a handful of short string compares beats binary-search bookkeeping.
const SMALL_RECORD: usize = 8;

/// The field names of one record *shape*, in declaration order. Records
/// built through the same `Arc<Schema>` share it: a constructor of many
/// records creates the schema once and calls [`Schema::record`].
#[derive(Debug)]
pub struct Schema {
    names: Box<[Arc<str>]>,
    /// Field positions ordered by name, populated only past
    /// [`SMALL_RECORD`] fields: lookups binary-search this permutation
    /// instead of re-scanning the declaration order.
    sorted: Box<[u16]>,
}

impl Schema {
    /// The schema with the given field names, in order.
    pub fn new(names: &[&str]) -> Arc<Schema> {
        Self::from_names(names.iter().map(|n| Arc::from(*n)).collect())
    }

    /// [`Schema::new`] over names that are shared strings already (those
    /// of the schema this one derives from).
    pub fn from_names(names: Vec<Arc<str>>) -> Arc<Schema> {
        let sorted = if names.len() > SMALL_RECORD && names.len() <= u16::MAX as usize {
            let mut index: Vec<u16> = (0..names.len() as u16).collect();
            index.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
            index.into_boxed_slice()
        } else {
            Box::default()
        };
        Arc::new(Schema {
            names: names.into_boxed_slice(),
            sorted,
        })
    }

    /// The field names, in declaration order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Declaration-order position of field `name`: a linear probe for
    /// small schemas, a binary search over the name-sorted permutation
    /// otherwise.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if self.sorted.is_empty() {
            return self.names.iter().position(|n| n.as_ref() == name);
        }
        let at = self
            .sorted
            .partition_point(|&i| self.names[i as usize].as_ref() < name);
        let &i = self.sorted.get(at)?;
        (self.names[i as usize].as_ref() == name).then_some(i as usize)
    }

    /// A record token of this shape, `values[i]` being the value of field
    /// `names()[i]`: two allocations (the record and its values), none per
    /// name. Panics unless there is exactly one value per field.
    pub fn record(self: &Arc<Self>, values: impl Into<Box<[Token]>>) -> Token {
        let values = values.into();
        assert_eq!(values.len(), self.names.len(), "one value per schema field");
        Token::Record(Arc::new(Record {
            schema: self.clone(),
            values,
        }))
    }
}

/// A record token's payload: the values of the fields its [`Schema`] names.
#[derive(Debug, Clone)]
pub struct Record {
    schema: Arc<Schema>,
    values: Box<[Token]>,
}

impl Record {
    /// Create a record from `(name, value)` pairs, keeping order, with a
    /// schema of its own ([`Schema::record`] is the shared form).
    pub fn new(fields: Vec<(Arc<str>, Token)>) -> Self {
        let (names, values): (Vec<_>, Vec<_>) = fields.into_iter().unzip();
        Record {
            schema: Schema::from_names(names),
            values: values.into_boxed_slice(),
        }
    }

    /// The shape this record was built with.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Declaration-order position of field `name`. Pairs with
    /// [`Record::get_at`] so hot loops can resolve a field name once and
    /// index thereafter.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Look a field up by name.
    pub fn get(&self, name: &str) -> Option<&Token> {
        self.index_of(name).map(|i| &self.values[i])
    }

    /// Field value at declaration-order position `index` (from
    /// [`Record::index_of`]).
    pub fn get_at(&self, index: usize) -> Option<&Token> {
        self.values.get(index)
    }

    /// Iterate the fields in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Token)> {
        self.schema.names.iter().map(|n| n.as_ref()).zip(self.values.iter())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A copy of this record with `name` set to `value` (replacing an
    /// existing field, which keeps the schema, or appending a new one).
    pub fn with(&self, name: &str, value: Token) -> Record {
        let mut values = self.values.to_vec();
        let schema = match self.index_of(name) {
            Some(i) => {
                values[i] = value;
                self.schema.clone()
            }
            None => {
                values.push(value);
                let names = self.schema.names.iter().cloned();
                Schema::from_names(names.chain([Arc::from(name)]).collect())
            }
        };
        Record {
            schema,
            values: values.into(),
        }
    }
}

/// Field-wise equality of names and values; which `Schema` allocation a
/// record points at is not part of its value.
impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.schema, &other.schema) || self.schema.names == other.schema.names)
            && self.values == other.values
    }
}

/// Fluent builder for record tokens.
///
/// ```
/// use confluence_core::token::Token;
/// let report = Token::record()
///     .field("carid", 107)
///     .field("speed", 54.5)
///     .build();
/// assert_eq!(report.get("carid").unwrap().as_int().unwrap(), 107);
/// ```
#[derive(Debug, Default)]
pub struct RecordBuilder {
    fields: Vec<(Arc<str>, Token)>,
}

impl RecordBuilder {
    /// Append a field.
    pub fn field(mut self, name: &str, value: impl Into<Token>) -> Self {
        self.fields.push((Arc::from(name), value.into()));
        self
    }

    /// Finish, producing a record token.
    pub fn build(self) -> Token {
        Token::Record(Arc::new(Record::new(self.fields)))
    }
}

impl Token {
    /// Start building a record token.
    pub fn record() -> RecordBuilder {
        RecordBuilder::default()
    }

    /// Build a string token.
    pub fn str(s: &str) -> Token {
        Token::Str(Arc::new(s.to_owned()))
    }

    /// Build an array token.
    pub fn array(items: Vec<Token>) -> Token {
        Token::Array(Arc::new(items))
    }

    /// The variant name, used in type-error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Token::Unit => "Unit",
            Token::Bool(_) => "Bool",
            Token::Int(_) => "Int",
            Token::Float(_) => "Float",
            Token::Str(_) => "Str",
            Token::Record(_) => "Record",
            Token::Array(_) => "Array",
        }
    }

    /// Interpret as integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Token::Int(v) => Ok(*v),
            other => Err(Error::TokenType {
                expected: "Int",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as float, widening integers.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Token::Float(v) => Ok(*v),
            Token::Int(v) => Ok(*v as f64),
            other => Err(Error::TokenType {
                expected: "Float",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Token::Bool(v) => Ok(*v),
            other => Err(Error::TokenType {
                expected: "Bool",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Token::Str(v) => Ok(v.as_str()),
            other => Err(Error::TokenType {
                expected: "Str",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as record.
    pub fn as_record(&self) -> Result<&Record> {
        match self {
            Token::Record(v) => Ok(v.as_ref()),
            other => Err(Error::TokenType {
                expected: "Record",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as array slice.
    pub fn as_array(&self) -> Result<&[Token]> {
        match self {
            Token::Array(v) => Ok(v.as_slice()),
            other => Err(Error::TokenType {
                expected: "Array",
                found: other.type_name(),
            }),
        }
    }

    /// Record field access: `token.get("seg")`.
    ///
    /// Returns `Err` if the token is not a record; `Ok(None)` if the field
    /// is absent.
    pub fn get(&self, name: &str) -> Result<&Token> {
        self.as_record()?
            .get(name)
            .ok_or_else(|| Error::MissingField(name.to_string()))
    }

    /// Shorthand: integer field of a record.
    pub fn int_field(&self, name: &str) -> Result<i64> {
        self.get(name)?.as_int()
    }

    /// Shorthand: float field of a record.
    pub fn float_field(&self, name: &str) -> Result<f64> {
        self.get(name)?.as_float()
    }

    /// Project a record onto a subset of its fields (used by group-by key
    /// extraction). Missing fields become an error. The projection shares
    /// the source schema's name strings.
    pub fn project(&self, names: &[impl AsRef<str>]) -> Result<Token> {
        let rec = self.as_record()?;
        let mut shared = Vec::with_capacity(names.len());
        let mut values = Vec::with_capacity(names.len());
        for name in names {
            let name = name.as_ref();
            let at = rec
                .index_of(name)
                .ok_or_else(|| Error::MissingField(name.to_string()))?;
            shared.push(rec.schema.names[at].clone());
            values.push(rec.values[at].clone());
        }
        Ok(Schema::from_names(shared).record(values))
    }
}

impl From<i64> for Token {
    fn from(v: i64) -> Self {
        Token::Int(v)
    }
}
impl From<i32> for Token {
    fn from(v: i32) -> Self {
        Token::Int(v as i64)
    }
}
impl From<u32> for Token {
    fn from(v: u32) -> Self {
        Token::Int(v as i64)
    }
}
impl From<f64> for Token {
    fn from(v: f64) -> Self {
        Token::Float(v)
    }
}
impl From<bool> for Token {
    fn from(v: bool) -> Self {
        Token::Bool(v)
    }
}
impl From<&str> for Token {
    fn from(v: &str) -> Self {
        Token::str(v)
    }
}
impl From<String> for Token {
    fn from(v: String) -> Self {
        Token::Str(Arc::new(v))
    }
}

impl PartialEq for Token {
    fn eq(&self, other: &Self) -> bool {
        use Token::*;
        match (self, other) {
            (Unit, Unit) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => int_float_cmp(*a, *b).is_eq(),
            (Str(a), Str(b)) => a == b,
            (Record(a), Record(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Token {}

impl Hash for Token {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Token::Unit => state.write_u8(0),
            Token::Bool(v) => {
                state.write_u8(1);
                v.hash(state);
            }
            // `Int 3` equals `Float 3.0`, so they hash alike: one tag and
            // the f64 bit pattern of the numeric value.
            Token::Int(v) => {
                state.write_u8(2);
                state.write_u64((*v as f64).to_bits());
            }
            Token::Float(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
            Token::Str(v) => {
                state.write_u8(3);
                v.hash(state);
            }
            Token::Record(rec) => hash_record(rec.values.iter(), state),
            Token::Array(items) => {
                state.write_u8(5);
                for v in items.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

/// What a record of these values, in field order, feeds a hasher: field
/// count + values (equal records have equal names, so the names would add
/// nothing but rounds per key lookup). A window operator hashes an input
/// record's key fields through this, without building the key record.
pub(crate) fn hash_record<'a, H: Hasher>(values: impl ExactSizeIterator<Item = &'a Token>, state: &mut H) {
    state.write_u8(4);
    state.write_u64(values.len() as u64);
    for v in values {
        v.hash(state);
    }
}

/// `a` against `b`, exactly: the one Int/Float rule of tokens and store
/// values. Rounding is monotone, so only a tie of `a as f64` with `b`
/// needs more; it leaves `b` integral and within ±2^63, where `b as i128`
/// is exact. Exactly-equal numbers have equal f64 bits, so hashing the
/// widened bits stays consistent with this equality.
pub fn int_float_cmp(a: i64, b: f64) -> Ordering {
    (a as f64).total_cmp(&b).then_with(|| (a as i128).cmp(&(b as i128)))
}

impl PartialOrd for Token {
    /// Total order within comparable variants; cross-type comparisons (other
    /// than Int/Float) order by variant. This gives group keys and sort keys
    /// a stable, deterministic order.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Token {
    fn cmp(&self, other: &Self) -> Ordering {
        use Token::*;
        fn rank(t: &Token) -> u8 {
            match t {
                Unit => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Record(_) => 4,
                Array(_) => 5,
            }
        }
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Record(a), Record(b)) => {
                for ((na, va), (nb, vb)) in a.iter().zip(b.iter()) {
                    match na.cmp(nb).then_with(|| va.cmp(vb)) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Array(a), Array(b)) => {
                for (va, vb) in a.iter().zip(b.iter()) {
                    match va.cmp(vb) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Unit => write!(f, "()"),
            Token::Bool(v) => write!(f, "{v}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(v) => write!(f, "{v:?}"),
            Token::Record(rec) => {
                write!(f, "{{")?;
                for (i, (n, v)) in rec.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
            Token::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(t: &Token) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Token::Int(5).as_int().unwrap(), 5);
        assert_eq!(Token::Int(5).as_float().unwrap(), 5.0);
        assert_eq!(Token::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Token::Bool(true).as_bool().unwrap());
        assert_eq!(Token::str("hi").as_str().unwrap(), "hi");
        assert!(matches!(
            Token::Int(1).as_str(),
            Err(Error::TokenType {
                expected: "Str",
                found: "Int"
            })
        ));
    }

    #[test]
    fn record_building_and_access() {
        let t = Token::record().field("a", 1).field("b", 2.0).build();
        assert_eq!(t.int_field("a").unwrap(), 1);
        assert_eq!(t.float_field("b").unwrap(), 2.0);
        assert!(matches!(t.get("c"), Err(Error::MissingField(_))));
        let rec = t.as_record().unwrap();
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        let names: Vec<&str> = rec.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn record_with_replaces_or_appends() {
        let t = Token::record().field("a", 1).build();
        let rec = t.as_record().unwrap();
        let updated = rec.with("a", Token::Int(9));
        assert_eq!(updated.get("a").unwrap().as_int().unwrap(), 9);
        let extended = rec.with("b", Token::Int(2));
        assert_eq!(extended.len(), 2);
        assert_eq!(extended.get("b").unwrap().as_int().unwrap(), 2);
    }

    #[test]
    fn index_of_and_get_agree_across_probe_paths() {
        // Small record: linear probe path.
        let small = Token::record().field("carid", 1).field("seg", 2).build();
        let rec = small.as_record().unwrap();
        assert_eq!(rec.index_of("carid"), Some(0));
        assert_eq!(rec.index_of("seg"), Some(1));
        assert_eq!(rec.index_of("nope"), None);
        assert_eq!(rec.get_at(1).unwrap().as_int().unwrap(), 2);
        assert_eq!(rec.get_at(9), None);
        // Large record: binary search over the name-sorted permutation.
        let mut b = Token::record();
        for i in 0..20 {
            b = b.field(&format!("f{i:02}"), i);
        }
        let large = b.field("seg", 99).build();
        let rec = large.as_record().unwrap();
        for i in 0..20 {
            let name = format!("f{i:02}");
            let at = rec.index_of(&name).unwrap();
            assert_eq!(at, i as usize, "declaration order is preserved");
            assert_eq!(rec.get_at(at), rec.get(&name));
        }
        assert_eq!(rec.index_of("seg"), Some(20));
        assert_eq!(large.int_field("seg").unwrap(), 99);
        assert_eq!(rec.index_of("zzz"), None);
        assert_eq!(rec.index_of(""), None);
    }

    #[test]
    fn record_equality_ignores_lookup_index() {
        let mut a = Token::record();
        let mut b = Token::record();
        for i in 0..12 {
            a = a.field(&format!("k{i}"), i);
            b = b.field(&format!("k{i}"), i);
        }
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn projection_extracts_group_keys() {
        let t = Token::record()
            .field("xway", 0)
            .field("seg", 42)
            .field("speed", 55.0)
            .build();
        let key = t.project(&["xway", "seg"]).unwrap();
        assert_eq!(
            key,
            Token::record().field("xway", 0).field("seg", 42).build()
        );
        assert!(t.project(&["nope"]).is_err());
        assert!(Token::Int(1).project(&["x"]).is_err());
    }

    #[test]
    fn eq_and_hash_consistent_for_floats() {
        let a = Token::Float(1.0);
        let b = Token::Int(1);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b), "equal tokens hash alike");
        let key = |v: Token| Token::record().field("k", v).build();
        assert_eq!(key(Token::Int(3)), key(Token::Float(3.0)));
        assert_eq!(hash_of(&key(Token::Int(3))), hash_of(&key(Token::Float(3.0))));
        assert_ne!(hash_of(&Token::Int(3)), hash_of(&Token::Int(4)));
        // NaN equals itself under bit-pattern equality → usable as a key.
        let nan = Token::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn int_float_equality_and_order_are_exact() {
        // 2^53 + 1 widens to 2^53: equal to neither that float nor to 2^53.
        let (lo, float, hi) = (Token::Int(1 << 53), Token::Float((1u64 << 53) as f64), Token::Int((1 << 53) + 1));
        assert_eq!(lo, float);
        assert_ne!(float, hi);
        assert_ne!(hi, float);
        assert_ne!(lo, hi);
        assert_eq!(lo.cmp(&float), Ordering::Equal);
        assert_eq!(float.cmp(&hi), Ordering::Less);
        assert_eq!(hi.cmp(&float), Ordering::Greater);
        assert_eq!(lo.cmp(&hi), Ordering::Less);
        assert_eq!(hash_of(&lo), hash_of(&float), "exactly-equal numbers hash alike");
        assert_eq!(Token::Int(i64::MAX).cmp(&Token::Float(i64::MAX as f64)), Ordering::Less);
        assert_eq!(Token::Int(0).cmp(&Token::Float(f64::NAN)), Ordering::Less);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![
            Token::str("b"),
            Token::Int(2),
            Token::Unit,
            Token::Float(1.5),
            Token::str("a"),
            Token::Bool(false),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Token::Unit,
                Token::Bool(false),
                Token::Float(1.5),
                Token::Int(2),
                Token::str("a"),
                Token::str("b"),
            ]
        );
    }

    #[test]
    fn array_and_record_ordering() {
        let a = Token::array(vec![Token::Int(1), Token::Int(2)]);
        let b = Token::array(vec![Token::Int(1), Token::Int(3)]);
        let c = Token::array(vec![Token::Int(1)]);
        assert!(a < b);
        assert!(c < a);
        let r1 = Token::record().field("k", 1).build();
        let r2 = Token::record().field("k", 2).build();
        assert!(r1 < r2);
    }

    #[test]
    fn display_renders_values() {
        let t = Token::record()
            .field("id", 7)
            .field("tags", Token::array(vec![Token::str("x")]))
            .build();
        assert_eq!(t.to_string(), "{id: 7, tags: [\"x\"]}");
        assert_eq!(Token::Unit.to_string(), "()");
    }

    #[test]
    fn conversions() {
        let _: Token = 1i64.into();
        let _: Token = 1i32.into();
        let _: Token = 1u32.into();
        let _: Token = 1.0f64.into();
        let _: Token = true.into();
        let _: Token = "s".into();
        let _: Token = String::from("s").into();
        assert_eq!(Token::from(3i32), Token::Int(3));
    }

    #[test]
    fn type_names() {
        for (t, n) in [
            (Token::Unit, "Unit"),
            (Token::Bool(true), "Bool"),
            (Token::Int(0), "Int"),
            (Token::Float(0.0), "Float"),
            (Token::str(""), "Str"),
            (Token::record().build(), "Record"),
            (Token::array(vec![]), "Array"),
        ] {
            assert_eq!(t.type_name(), n);
        }
    }
}
