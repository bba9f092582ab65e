//! Table schemas: column declarations, primary keys, row validation.

use confluence_core::error::{Error, Result};

use crate::value::{Value, ValueType};

/// One column declaration.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (unique within the schema).
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// Whether the column can hold `v` (type, nullability).
    pub(crate) fn check(&self, v: &Value) -> Result<()> {
        match v.value_type() {
            None if self.nullable => Ok(()),
            None => Err(Error::Store(format!("NULL in non-nullable column `{}`", self.name))),
            // Ints widen into float columns.
            Some(t) if t == self.ty || (t == ValueType::Int && self.ty == ValueType::Float) => {
                Ok(())
            }
            Some(t) => Err(Error::Store(format!(
                "type mismatch in column `{}`: expected {:?}, got {:?}",
                self.name, self.ty, t
            ))),
        }
    }
}

/// A table schema: ordered columns plus an optional primary key.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<Column>,
    /// Column indexes forming the primary key (empty = no key).
    primary_key: Vec<usize>,
}

/// Fluent schema builder.
///
/// ```
/// use confluence_relstore::schema::SchemaBuilder;
/// use confluence_relstore::value::ValueType;
/// let schema = SchemaBuilder::new()
///     .column("xway", ValueType::Int)
///     .column("seg", ValueType::Int)
///     .column("lav", ValueType::Float)
///     .primary_key(&["xway", "seg"])
///     .build()
///     .unwrap();
/// assert_eq!(schema.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    columns: Vec<Column>,
    primary_key: Vec<String>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a non-nullable column.
    pub fn column(mut self, name: &str, ty: ValueType) -> Self {
        self.columns.push(Column {
            name: name.to_string(),
            ty,
            nullable: false,
        });
        self
    }

    /// Add a nullable column.
    pub fn nullable_column(mut self, name: &str, ty: ValueType) -> Self {
        self.columns.push(Column {
            name: name.to_string(),
            ty,
            nullable: true,
        });
        self
    }

    /// Declare the primary key columns.
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.primary_key = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Validate and produce the schema.
    pub fn build(self) -> Result<Schema> {
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::Store(format!("duplicate column `{}`", c.name)));
            }
        }
        let mut pk = Vec::with_capacity(self.primary_key.len());
        for name in &self.primary_key {
            let idx = self
                .columns
                .iter()
                .position(|c| c.name == *name)
                .ok_or_else(|| Error::Store(format!("primary key column `{name}` not found")))?;
            if self.columns[idx].nullable {
                return Err(Error::Store(format!(
                    "primary key column `{name}` must not be nullable"
                )));
            }
            if pk.contains(&idx) {
                return Err(Error::Store(format!("duplicate primary key column `{name}`")));
            }
            pk.push(idx);
        }
        Ok(Schema {
            columns: self.columns,
            primary_key: pk,
        })
    }
}

impl Schema {
    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::new()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::Store(format!("unknown column `{name}`")))
    }

    /// Name of the column at `index`.
    pub(crate) fn name(&self, index: usize) -> &str {
        &self.columns[index].name
    }

    /// Primary key column indexes (empty when keyless).
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Extract a row's primary key values (empty when keyless).
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Validate a row against the schema (arity, types, nullability).
    pub fn validate(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::Store(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        row.iter().zip(&self.columns).try_for_each(|(v, c)| c.check(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ValueType::Int)
            .column("speed", ValueType::Float)
            .nullable_column("note", ValueType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.column_index("speed").unwrap(), 1);
        assert!(s.column_index("nope").is_err());
        assert_eq!(s.primary_key(), &[0]);
        assert_eq!(s.columns()[2].name, "note");
    }

    #[test]
    fn validation_rules() {
        let s = schema();
        assert!(s.validate(&[1.into(), 2.5.into(), Value::Null]).is_ok());
        // Int widens into float column.
        assert!(s.validate(&[1.into(), 2.into(), Value::str("x")]).is_ok());
        // Wrong arity.
        assert!(s.validate(&[1.into()]).is_err());
        // NULL in non-nullable.
        assert!(s.validate(&[Value::Null, 2.5.into(), Value::Null]).is_err());
        // Type mismatch.
        assert!(s
            .validate(&[Value::str("x"), 2.5.into(), Value::Null])
            .is_err());
    }

    #[test]
    fn key_extraction() {
        let s = schema();
        let row: crate::Row = vec![42.into(), 1.0.into(), Value::Null];
        assert_eq!(s.key_of(&row), vec![Value::Int(42)]);
    }

    #[test]
    fn bad_schemas_rejected() {
        assert!(Schema::builder()
            .column("a", ValueType::Int)
            .column("a", ValueType::Int)
            .build()
            .is_err());
        assert!(Schema::builder()
            .column("a", ValueType::Int)
            .primary_key(&["b"])
            .build()
            .is_err());
        assert!(Schema::builder()
            .nullable_column("a", ValueType::Int)
            .primary_key(&["a"])
            .build()
            .is_err());
        assert!(Schema::builder()
            .column("a", ValueType::Int)
            .primary_key(&["a", "a"])
            .build()
            .is_err());
    }
}
