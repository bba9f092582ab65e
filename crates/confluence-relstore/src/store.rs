//! The store: a named collection of tables behind a shareable handle.
//!
//! Workflow actors hold a [`StoreHandle`] (cheaply cloneable, thread-safe)
//! — the Linear Road workflow's `Insert Accident`, `Accident
//! Notification`, and `Toll Calculation` actors all talk to the same
//! store, exactly as the paper's implementation shares one relational
//! database.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use confluence_core::checkpoint::codec::{Decoder, Encoder};
use confluence_core::checkpoint::CheckpointResource;
use confluence_core::error::{Error, Result};

use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// An in-memory relational store.
#[derive(Debug, Default)]
pub struct Store {
    tables: BTreeMap<String, Table>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(Error::Store(format!("table `{name}` already exists")));
        }
        self.tables.insert(name.to_string(), Table::new(schema));
        Ok(())
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::Store(format!("unknown table `{name}`")))
    }

    /// Borrow a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::Store(format!("unknown table `{name}`")))
    }

    /// Names of all tables, sorted by name.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

/// A thread-safe shared handle to a [`Store`].
#[derive(Debug, Clone, Default)]
pub struct StoreHandle {
    inner: Arc<RwLock<Store>>,
}

impl StoreHandle {
    /// A handle to a fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run a read-only closure against the store.
    pub fn read<T>(&self, f: impl FnOnce(&Store) -> T) -> T {
        f(&self.inner.read())
    }

    /// Run a read-write closure against the store.
    pub fn write<T>(&self, f: impl FnOnce(&mut Store) -> T) -> T {
        f(&mut self.inner.write())
    }
}

fn encode_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(3);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
    }
}

fn decode_value(d: &mut Decoder<'_>) -> Result<Value> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Bool(d.bool()?),
        2 => Value::Int(d.i64()?),
        3 => Value::Float(d.f64()?),
        4 => Value::str(d.str()?),
        tag => return Err(Error::Checkpoint(format!("unknown value tag {tag}"))),
    })
}

/// Snapshots the *contents* of every table (rows only, sorted by table
/// name): the recovering process re-creates the tables, schemas, and
/// indexes itself — exactly as it built them before the crash — and the
/// restore refills them. Register the handle on the engine:
///
/// ```ignore
/// let engine = Engine::new(wf)
///     .register_checkpoint_resource("relstore", Arc::new(store.clone()));
/// ```
impl CheckpointResource for StoreHandle {
    fn save(&self) -> Result<Vec<u8>> {
        self.read(|s| {
            let mut e = Encoder::new();
            e.u32(s.tables.len() as u32);
            for (name, table) in &s.tables {
                e.str(name);
                e.u32(table.len() as u32);
                for row in table.iter() {
                    e.seq(row.iter(), |e, v| encode_value(e, &v));
                }
            }
            Ok(e.into_bytes())
        })
    }

    /// All or nothing: every table is refilled beside the one it replaces,
    /// and none takes its place unless the whole snapshot decoded and
    /// inserted cleanly.
    fn restore(&self, bytes: &[u8]) -> Result<()> {
        self.write(|s| {
            let mut d = Decoder::new(bytes);
            let tables = d.u32()?;
            let mut refilled = Vec::new();
            for _ in 0..tables {
                let name = d.str()?;
                let mut table = s.table(name)?.empty_like();
                for _ in 0..d.u32()? {
                    table.insert(d.seq(decode_value)?)?;
                }
                refilled.push((name.to_string(), table));
            }
            s.tables.extend(refilled);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::value::{Value, ValueType};

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ValueType::Int)
            .column("v", ValueType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn create_query_drop() {
        let mut s = Store::new();
        s.create_table("t", schema()).unwrap();
        assert!(s.create_table("t", schema()).is_err());
        s.table_mut("t").unwrap().insert(vec![1.into(), 10.into()]).unwrap();
        let rows = s
            .table("t")
            .unwrap()
            .select(Some(&col("id").eq(lit(1))))
            .unwrap();
        assert_eq!(rows[0][1], Value::Int(10));
        assert_eq!(s.table_names(), vec!["t"]);
        assert!(s.table("nope").is_err());
        assert!(s.table_mut("nope").is_err());
    }

    #[test]
    fn store_contents_round_trip_through_checkpoint_resource() {
        let h = StoreHandle::new();
        h.write(|s| s.create_table("t", schema())).unwrap();
        h.write(|s| {
            let t = s.table_mut("t").unwrap();
            t.create_index(&["v"])?;
            t.insert(vec![1.into(), 10.into()])?;
            t.insert(vec![2.into(), 20.into()])
        })
        .unwrap();
        let bytes = h.save().unwrap();

        // A "fresh process": the same DDL, no data.
        let h2 = StoreHandle::new();
        h2.write(|s| s.create_table("t", schema())).unwrap();
        h2.write(|s| s.table_mut("t").unwrap().create_index(&["v"]))
            .unwrap();
        h2.restore(&bytes).unwrap();
        assert_eq!(h2.read(|s| s.table("t").unwrap().len()), 2);
        let rows = h2
            .read(|s| s.table("t").unwrap().select(Some(&col("id").eq(lit(2)))))
            .unwrap();
        assert_eq!(rows[0][1], Value::Int(20));
        // The secondary index is rebuilt through the normal insert path.
        let by_v = h2
            .read(|s| s.table("t").unwrap().select(Some(&col("v").eq(lit(10)))))
            .unwrap();
        assert_eq!(by_v.len(), 1);

        // Restoring over existing data replaces it.
        h2.write(|s| s.table_mut("t").unwrap().insert(vec![3.into(), 30.into()]))
            .unwrap();
        h2.restore(&bytes).unwrap();
        assert_eq!(h2.read(|s| s.table("t").unwrap().len()), 2);
    }

    /// A table of every cell kind, string keys in each index kind.
    fn mixed_store() -> StoreHandle {
        let h = StoreHandle::new();
        let schema = Schema::builder()
            .column("name", ValueType::Str)
            .column("n", ValueType::Int)
            .nullable_column("x", ValueType::Float)
            .nullable_column("ok", ValueType::Bool)
            .nullable_column("tag", ValueType::Str)
            .primary_key(&["name"])
            .build()
            .unwrap();
        h.write(|s| {
            s.create_table("mixed", schema)?;
            let t = s.table_mut("mixed")?;
            t.create_index(&["tag"])?;
            t.create_ordered_index(&["n"], "tag")?;
            t.insert(vec![Value::str("alpha"), 1.into(), 1.5.into(), true.into(), Value::str("b")])?;
            t.insert(vec![Value::str(""), (-7).into(), Value::Null, false.into(), Value::Null])?;
            t.insert(vec![Value::str("ünï"), i64::MAX.into(), 2.into(), Value::Null, Value::str("a")])
        })
        .unwrap();
        h
    }

    #[test]
    fn save_bytes_are_pinned_and_restore_round_trips() {
        // Taken from the store before `Value::Str` became `Arc<String>`.
        const GOLDEN: &str = "01000000050000006d6978656403000000050000000405000000616c7068610201000000\
            0000000003000000000000f83f010104010000006205000000040000000002f9ffffffffffffff0001000005\
            0000000405000000c3bc6ec3af02ffffffffffffff7f02020000000000000000040100000061";
        let h = mixed_store();
        let bytes = h.save().unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let h2 = mixed_store();
        h2.write(|s| s.table_mut("mixed").unwrap().clear());
        h2.restore(&bytes).unwrap();
        assert_eq!(h2.save().unwrap(), bytes);
        let rows = h2.read(|s| s.table("mixed").unwrap().select(Some(&col("tag").eq(lit("a")))));
        assert_eq!(rows.unwrap()[0][0], Value::str("ünï"));
        let x = h2.read(|s| s.table("mixed").unwrap().get(&[Value::str("alpha")]).unwrap().cell(2));
        assert_eq!(x, Value::Float(1.5));
    }

    #[test]
    fn a_failed_restore_leaves_the_store_as_it_was() {
        let fill = |h: &StoreHandle, ids: std::ops::Range<i64>| {
            h.write(|s| {
                let t = s.table_mut("t")?;
                t.create_index(&["v"])?;
                ids.into_iter().try_for_each(|id| t.insert(vec![id.into(), (id % 7).into()]))
            })
            .unwrap();
        };
        let h = StoreHandle::new();
        h.write(|s| s.create_table("t", schema())).unwrap();
        fill(&h, 0..100);
        let snapshot = h.save().unwrap();
        // The store a failed restore must not touch: other rows, same DDL.
        let target = StoreHandle::new();
        target.write(|s| s.create_table("t", schema())).unwrap();
        fill(&target, 500..505);
        let before = target.save().unwrap();
        // Hand-made snapshots: one table a snapshot of `rows`, then `extra` names.
        let snapshot_of = |rows: &[[i64; 2]], extra: &[&str]| {
            let mut e = Encoder::new();
            e.u32(1 + extra.len() as u32);
            e.str("t");
            e.u32(rows.len() as u32);
            for row in rows {
                e.seq(&row.map(Value::Int), encode_value);
            }
            for name in extra {
                e.str(name);
                e.u32(0);
            }
            e.into_bytes()
        };
        let truncated = &snapshot[..snapshot.len() / 2];
        let duplicate_key = snapshot_of(&[[1, 10], [2, 20], [1, 11]], &[]);
        let unknown_table = snapshot_of(&[[1, 10]], &["zz"]);
        for bad in [truncated, &duplicate_key, &unknown_table] {
            assert!(target.restore(bad).is_err());
            assert_eq!(target.save().unwrap(), before);
        }
        target.restore(&snapshot).unwrap();
        assert_eq!(target.save().unwrap(), snapshot);
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let h = StoreHandle::new();
        h.write(|s| s.create_table("t", schema())).unwrap();
        let h2 = h.clone();
        let t = std::thread::spawn(move || {
            h2.write(|s| {
                s.table_mut("t")
                    .unwrap()
                    .insert(vec![7.into(), 70.into()])
            })
            .unwrap();
        });
        t.join().unwrap();
        let n = h.read(|s| s.table("t").unwrap().len());
        assert_eq!(n, 1);
    }
}
