//! A hash table of `u32` ids that owns no keys.
//!
//! An entry is a position: a relstore row (or the id of a bucket of rows),
//! a window operator's group. The key it stands for is read out of what it
//! points at, so the table stores eight bytes per slot whatever the key's
//! width. Callers pass the key's hash and an equality closure over ids —
//! the table never sees a key. Each slot keeps the upper half of the hash
//! beside the id: a probe reads what an id points at only on a 32-bit
//! match, and growing or deleting reads nothing at all.

use std::hash::Hasher;

const EMPTY: u64 = u64::MAX;

/// Open addressing with linear probing over `hash32 << 32 | id` slots.
/// Deletion shifts the rest of the cluster back, so there are no
/// tombstones and a delete-heavy table never grows.
#[derive(Debug, Default)]
pub struct PosTable {
    /// Empty (nothing allocated) or a power of two, at most 3/4 full.
    slots: Vec<u64>,
    len: usize,
}

impl PosTable {
    /// Ids held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every id; the slots stay allocated for the refill.
    #[inline]
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    fn slot_of(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if slot >> 32 == tag && eq(slot as u32) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id with this hash that `eq` accepts.
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.slot_of(hash, eq).map(|i| self.slots[i] as u32)
    }

    #[inline]
    fn place(slots: &mut [u64], entry: u64) {
        let mask = slots.len() - 1;
        let mut i = (entry >> 32) as usize & mask;
        while slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = entry;
    }

    /// Add an id the table does not hold. `u32::MAX` is not an id.
    #[inline]
    pub fn insert(&mut self, hash: u64, id: u32) {
        debug_assert_ne!(id, u32::MAX);
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![EMPTY; (self.slots.len() * 2).max(8)];
            for entry in std::mem::replace(&mut self.slots, doubled) {
                if entry != EMPTY {
                    Self::place(&mut self.slots, entry);
                }
            }
        }
        Self::place(&mut self.slots, (hash >> 32 << 32) | u64::from(id));
        self.len += 1;
    }

    /// Remove exactly this id; `false` when it is not there.
    #[inline]
    pub fn remove(&mut self, hash: u64, id: u32) -> bool {
        let Some(mut hole) = self.slot_of(hash, |held| held == id) else {
            return false;
        };
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let entry = self.slots[i];
            if entry == EMPTY {
                break;
            }
            // An entry may move back into the hole unless its home slot
            // lies after the hole (cyclically, up to where it sits now).
            let home = (entry >> 32) as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = entry;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        true
    }
}

/// The fixed-seed hasher of every position table: a folded 64×64→128-bit
/// multiply per word. Unseeded on purpose — a table's layout, and with it
/// the process's memory profile, is the same from run to run.
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    #[inline]
    fn default() -> Self {
        KeyHasher(0x243f_6a88_85a3_08d3)
    }
}

impl KeyHasher {
    /// A hasher in its start state.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (wide >> 64) as u64 ^ wide as u64;
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word) ^ ((chunk.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn spread(key: u32) -> u64 {
        let mut h = KeyHasher::new();
        h.write_u64(u64::from(key));
        h.finish()
    }

    fn collide(_: u32) -> u64 {
        7 << 32
    }

    /// Ids are keys' values in `model`; `keys[id]` is the "row" the table
    /// reads a key from.
    fn check(hash: fn(u32) -> u64, ops: &[(bool, u32)]) {
        let mut table = PosTable::default();
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut keys: Vec<u32> = Vec::new();
        for &(insert, key) in ops {
            let found = table.find(hash(key), |id| keys[id as usize] == key);
            assert_eq!(found, model.get(&key).copied(), "find {key}");
            if insert && found.is_none() {
                let id = keys.len() as u32;
                keys.push(key);
                table.insert(hash(key), id);
                model.insert(key, id);
            } else if !insert {
                let removed = found.is_some_and(|id| table.remove(hash(key), id));
                assert_eq!(removed, model.remove(&key).is_some(), "remove {key}");
                assert!(!table.remove(hash(key), u32::MAX - 1), "absent id");
            }
            assert_eq!(table.len(), model.len());
        }
        for (key, id) in &model {
            assert_eq!(
                table.find(hash(*key), |i| keys[i as usize] == *key),
                Some(*id)
            );
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(bool, u32)>> {
        prop::collection::vec(
            (0..3u32, 0..48u32).prop_map(|(k, key)| (k != 0, key)),
            0..400,
        )
    }

    proptest! {
        #[test]
        fn agrees_with_a_hash_map(ops in ops()) {
            check(spread, &ops);
        }

        #[test]
        fn agrees_with_a_hash_map_when_every_key_collides(ops in ops()) {
            check(collide, &ops);
        }
    }

    #[test]
    fn empty_table_allocates_nothing_and_churn_does_not_grow_it() {
        let mut table = PosTable::default();
        assert_eq!(table.slots.capacity(), 0);
        assert_eq!(table.find(spread(1), |_| true), None);
        for id in 0..100u32 {
            table.insert(spread(id), id);
        }
        let slots = table.slots.len();
        assert_eq!(slots, 256, "100 ids at most 3/4 full");
        // A delete-heavy steady state: 100 live ids, 100k replaced.
        for id in 100..100_100u32 {
            assert!(table.remove(spread(id - 100), id - 100));
            table.insert(spread(id), id);
        }
        assert_eq!(table.slots.len(), slots);
        assert_eq!(table.len(), 100);
        for id in 100_000..100_100u32 {
            assert_eq!(table.find(spread(id), |held| held == id), Some(id));
        }
        table.clear();
        assert_eq!((table.len(), table.slots.len()), (0, slots));
        assert_eq!(table.find(spread(100_050), |_| true), None);
    }

    #[test]
    fn token_keys_are_read_out_of_what_the_ids_point_at() {
        use crate::token::Token;
        use std::hash::Hash;
        let hash = |key: &Token| {
            let mut h = KeyHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        let car = |id: i64| Token::record().field("carid", id).field("dir", id % 2).build();
        let keys: Vec<Token> = (0..500).map(car).chain([Token::Unit, Token::str("k"), Token::Int(3)]).collect();
        let mut table = PosTable::default();
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(table.find(hash(key), |held| keys[held as usize] == *key), None);
            table.insert(hash(key), id as u32);
        }
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(table.find(hash(key), |held| keys[held as usize] == *key), Some(id as u32));
        }
        // Equal keys hash alike, whatever they are made of.
        let float = Token::Float(3.0);
        assert_eq!(table.find(hash(&float), |held| keys[held as usize] == float), Some(502));
        let float_car = Token::record().field("carid", 7.0).field("dir", 1.0).build();
        assert_eq!(table.find(hash(&float_car), |held| keys[held as usize] == float_car), Some(7));
        assert!(table.remove(hash(&keys[7]), 7));
        assert_eq!(table.find(hash(&float_car), |held| keys[held as usize] == float_car), None);
        assert_eq!(table.len(), keys.len() - 1);
    }

    #[test]
    fn hasher_separates_small_integers_and_string_lengths() {
        let tags: std::collections::HashSet<u64> = (0..10_000).map(|k| spread(k) >> 32).collect();
        assert!(
            tags.len() > 9_990,
            "{} distinct upper halves of 10000",
            tags.len()
        );
        let of = |bytes: &[u8]| {
            let mut h = KeyHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(of(b"ab"), of(b"ab\0"));
        assert_ne!(of(b"12345678"), of(b"12345678\0"));
    }
}
