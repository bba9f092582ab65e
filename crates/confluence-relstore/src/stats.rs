//! Maintained per-index statistics feeding the cost model.
//!
//! Every index keeps an [`IndexStats`]: how many row entries it holds and
//! how many distinct keys those entries spread over. Both counters are
//! updated incrementally on insert/upsert/delete (and reset on clear), so
//! planning never scans an index to size it — the estimates the cost
//! model needs are O(1) reads of numbers the mutation path already paid
//! for.

/// Incrementally maintained statistics of one index.
///
/// For a secondary hash index a "key" is the indexed column tuple; for an
/// ordered composite index it is the `(equality-columns, range-column)`
/// pair, with the partition count tracked separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total row entries in the index (equals the table's live rows for a
    /// total index).
    pub entries: usize,
    /// Distinct keys currently holding at least one entry.
    pub distinct_keys: usize,
}

impl IndexStats {
    /// Record one entry added; `new_key` when it created its key bucket.
    pub fn on_insert(&mut self, new_key: bool) {
        self.entries += 1;
        if new_key {
            self.distinct_keys += 1;
        }
    }

    /// Record one entry removed; `key_emptied` when its bucket vanished.
    pub fn on_remove(&mut self, key_emptied: bool) {
        self.entries = self.entries.saturating_sub(1);
        if key_emptied {
            self.distinct_keys = self.distinct_keys.saturating_sub(1);
        }
    }

    /// Expected entries under one key: the planner's estimate of how many
    /// rows an equality probe returns. Zero for an empty index.
    pub fn avg_bucket(&self) -> f64 {
        if self.distinct_keys == 0 {
            0.0
        } else {
            self.entries as f64 / self.distinct_keys as f64
        }
    }
}

/// A read-only snapshot of one index's identity and statistics, for
/// `explain()` consumers and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStatsView {
    /// Display label (`secondary(a,b)` / `ordered(a,b→c)`).
    pub label: String,
    /// Entry/distinct-key counters.
    pub stats: IndexStats,
    /// Hash partitions (ordered indexes only; equals `distinct_keys` for
    /// secondary indexes).
    pub partitions: usize,
}

/// Table-level statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live rows in the table.
    pub rows: usize,
    /// One view per declared index, in declaration order (secondary
    /// indexes first, then ordered).
    pub indexes: Vec<IndexStatsView>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_inserts_and_removes() {
        let mut s = IndexStats::default();
        s.on_insert(true);
        s.on_insert(false);
        s.on_insert(true);
        assert_eq!(s, IndexStats { entries: 3, distinct_keys: 2 });
        assert_eq!(s.avg_bucket(), 1.5);
        s.on_remove(false);
        s.on_remove(true);
        assert_eq!(s, IndexStats { entries: 1, distinct_keys: 1 });
        assert_eq!(IndexStats::default().avg_bucket(), 0.0);
    }

    #[test]
    fn removal_saturates() {
        let mut s = IndexStats::default();
        s.on_remove(true);
        assert_eq!(s, IndexStats::default());
    }
}
