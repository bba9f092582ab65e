//! Records share a schema; nothing a caller can observe may depend on it.
//!
//! The model is the layout records had before: a plain list of
//! `(name, value)` pairs. Lookup, order, update, projection, equality,
//! ordering, display, hashing and the checkpoint bytes of a record must
//! agree with it however the record was built.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;

use confluence_core::checkpoint::codec::{Decoder, Encoder};
use confluence_core::event::CwEvent;
use confluence_core::time::Timestamp;
use confluence_core::token::{Record, Schema, Token};
use confluence_core::wave::WaveTag;

type Model = Vec<(String, Token)>;

fn value() -> impl Strategy<Value = Token> {
    prop_oneof![
        Just(Token::Unit),
        (0..2u8).prop_map(|b| Token::Bool(b == 1)),
        (-3..4i64).prop_map(Token::Int),
        (-2..3i64).prop_map(|v| Token::Float(v as f64 / 2.0)),
        (0..3u8).prop_map(|s| Token::str(["", "a", "seg"][s as usize])),
        prop::collection::vec((-3..4i64).prop_map(Token::Int), 0..3).prop_map(Token::array),
        (-3..4i64).prop_map(|v| Token::record().field("k", v).build()),
    ]
}

/// Up to twelve fields (past the linear-probe limit of eight) with names
/// from a small alphabet, so records collide on names and on prefixes;
/// names are distinct within a record.
fn fields() -> impl Strategy<Value = Model> {
    prop::collection::vec((0..14usize, value()), 0..13).prop_map(|raw| {
        let mut model = Model::new();
        for (n, v) in raw {
            let name = format!("f{n:02}");
            if !model.iter().any(|(m, _)| *m == name) {
                model.push((name, v));
            }
        }
        model
    })
}

/// The same record three ways: the builder, `Record::new`, and a schema
/// allocated apart from both.
fn build(model: &Model) -> [Token; 3] {
    let built = model
        .iter()
        .fold(Token::record(), |b, (n, v)| b.field(n, v.clone()))
        .build();
    let pairs = model.iter().map(|(n, v)| (Arc::from(n.as_str()), v.clone()));
    let names: Vec<&str> = model.iter().map(|(n, _)| n.as_str()).collect();
    let values: Vec<Token> = model.iter().map(|(_, v)| v.clone()).collect();
    [
        built,
        Token::Record(Arc::new(Record::new(pairs.collect()))),
        Schema::new(&names).record(values),
    ]
}

fn hash_of(t: &Token) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn display(model: &Model) -> String {
    let fields: Vec<String> = model.iter().map(|(n, v)| format!("{n}: {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn encode(t: &Token) -> Vec<u8> {
    let mut e = Encoder::new();
    e.token(t);
    e.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_record_reads_like_its_list_of_pairs(model in fields(), probe in 0..14usize) {
        let probe = format!("f{probe:02}");
        for token in build(&model) {
            let rec = token.as_record().unwrap();
            prop_assert_eq!(rec.len(), model.len());
            prop_assert_eq!(rec.is_empty(), model.is_empty());
            let listed: Model = rec.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            prop_assert_eq!(&listed, &model);
            let at = model.iter().position(|(n, _)| *n == probe);
            prop_assert_eq!(rec.index_of(&probe), at);
            prop_assert_eq!(rec.get(&probe), at.map(|i| &model[i].1));
            prop_assert_eq!(rec.get_at(model.len()), None);
            for (i, (name, v)) in model.iter().enumerate() {
                prop_assert_eq!(rec.index_of(name), Some(i));
                prop_assert_eq!(rec.get_at(i), Some(v));
            }
            prop_assert_eq!(token.to_string(), display(&model));
        }
    }

    #[test]
    fn with_replaces_in_place_or_appends(model in fields(), name in 0..14usize, v in value()) {
        let name = format!("f{name:02}");
        let mut expected = model.clone();
        match expected.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v.clone(),
            None => expected.push((name.clone(), v.clone())),
        }
        for token in build(&model) {
            let updated = Token::Record(Arc::new(token.as_record().unwrap().with(&name, v.clone())));
            prop_assert_eq!(&updated, &build(&expected)[0]);
            prop_assert_eq!(updated.to_string(), display(&expected));
        }
    }

    #[test]
    fn project_picks_fields_in_the_order_asked(model in fields(), picks in prop::collection::vec(0..14usize, 0..5)) {
        let names: Vec<String> = picks.iter().map(|n| format!("f{n:02}")).collect();
        let expected: Option<Model> = names
            .iter()
            .map(|n| model.iter().find(|(m, _)| m == n).cloned())
            .collect();
        for token in build(&model) {
            match (&expected, token.project(&names)) {
                (Some(expected), Ok(key)) => prop_assert_eq!(&key, &build(expected)[2]),
                (None, Err(_)) => {}
                (expected, got) => prop_assert!(false, "model {expected:?}, record {got:?}"),
            }
        }
    }

    #[test]
    fn equality_order_and_hash_ignore_the_schema_allocation(a in fields(), b in fields()) {
        for x in build(&a) {
            for y in build(&a) {
                prop_assert_eq!(&x, &y);
                prop_assert_eq!(hash_of(&x), hash_of(&y));
                prop_assert_eq!(encode(&x), encode(&y));
            }
            for y in build(&b) {
                prop_assert_eq!(x == y, a == b);
                // The order records always had: pairwise by (name, value),
                // then by length.
                prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            }
        }
    }

    #[test]
    fn checkpoint_bytes_are_stable_through_a_round_trip(models in prop::collection::vec(fields(), 1..6)) {
        // One decoder for the lot, as a snapshot is read: records of one
        // shape come back sharing a schema, and encode as they did.
        let tokens: Vec<Token> = models.iter().map(|m| build(m)[2].clone()).collect();
        let mut e = Encoder::new();
        tokens.iter().for_each(|t| e.token(t));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let decoded: Vec<Token> = tokens.iter().map(|_| d.token().unwrap()).collect();
        prop_assert!(d.is_exhausted());
        prop_assert_eq!(&decoded, &tokens);
        let mut again = Encoder::new();
        decoded.iter().for_each(|t| again.token(t));
        prop_assert_eq!(again.into_bytes(), bytes);
        for (i, x) in decoded.iter().enumerate() {
            for (j, y) in decoded.iter().enumerate() {
                let (x, y) = (x.as_record().unwrap(), y.as_record().unwrap());
                let same_names = x.iter().map(|f| f.0).eq(y.iter().map(|f| f.0));
                prop_assert_eq!(Arc::ptr_eq(x.schema(), y.schema()), same_names, "records {} and {}", i, j);
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// What the commit before the shared-schema layout wrote for these three
/// tokens: snapshots and event logs written then still read, and what is
/// written now reads there.
#[test]
fn record_encoding_is_the_one_older_snapshots_hold() {
    let report = Token::record()
        .field("time", 95)
        .field("carid", 42)
        .field("speed", 57.5)
        .field("xway", 0)
        .field("lane", 2)
        .field("dir", 1)
        .field("seg", 17)
        .field("pos", 89_860)
        .build();
    let nested = Token::record()
        .field("id", 7)
        .field("tags", Token::array(vec![Token::str("x"), Token::Unit, Token::Bool(true)]))
        .field("inner", Token::record().field("k", -1).field("f", 0.25).build())
        .build();
    let wide = (0..10)
        .fold(Token::record(), |b, i| b.field(&format!("f{i:02}"), (9 - i) as i64))
        .build();
    let fixtures = [
        (report, "05080000000400000074696d65025f00000000000000050000006361726964022a00000000000000050000007370656564030000000000c04c400400000078776179020000000000000000040000006c616e65020200000000000000030000006469720201000000000000000300000073656702110000000000000003000000706f7302045f010000000000"),
        (nested, "05030000000200000069640207000000000000000400000074616773060300000004010000007800010105000000696e6e65720502000000010000006b02ffffffffffffffff010000006603000000000000d03f"),
        (wide, "050a00000003000000663030020900000000000000030000006630310208000000000000000300000066303202070000000000000003000000663033020600000000000000030000006630340205000000000000000300000066303502040000000000000003000000663036020300000000000000030000006630370202000000000000000300000066303802010000000000000003000000663039020000000000000000"),
    ];
    for (token, pinned) in fixtures {
        let bytes = encode(&token);
        assert_eq!(hex(&bytes), pinned);
        let decoded = Decoder::new(&bytes).token().unwrap();
        assert_eq!(decoded, token);
        assert_eq!(hex(&encode(&decoded)), pinned);
    }
}

/// What the commit before the exact-size wave path wrote for two events,
/// one two levels into its wave and one external: the in-memory tag
/// changed shape, the format-2 bytes did not.
#[test]
fn event_encoding_is_the_one_older_snapshots_hold() {
    let report = Token::record().field("carid", 42).field("speed", 57.5).build();
    let wave = WaveTag::external(Timestamp(95_000_000)).child(3, false).child(1, true);
    let fixtures = [
        (CwEvent { token: report, timestamp: Timestamp(95_000_250), wave }, "0502000000050000006361726964022a00000000000000050000007370656564030000000000c04c40ba96a90500000000c095a905000000000200000003000000000100000001"),
        (CwEvent::external(Token::str("seg"), Timestamp(7)), "04030000007365670700000000000000070000000000000000000000"),
    ];
    for (event, pinned) in fixtures {
        let mut e = Encoder::new();
        e.event(&event);
        let bytes = e.into_bytes();
        assert_eq!(hex(&bytes), pinned);
        let decoded = Decoder::new(&bytes).event().unwrap();
        assert_eq!(decoded, event);
        assert_eq!(decoded.wave.depth(), event.wave.depth());
    }
}
