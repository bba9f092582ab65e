//! A declarative workflow specification language.
//!
//! Kepler's decoupling rests on workflows being *specified* separately
//! from their execution: a designer drags actors onto a canvas, connects
//! ports, and configures window parameters in dialogs, producing a MoML
//! document the engine loads. This module is that surface in textual
//! form: a small language describing actors (instantiated through an
//! [`ActorRegistry`]), channels with full window semantics, priorities,
//! and expired-item handlers — parsed into a
//! [`Workflow`](crate::graph::Workflow) ready for any director.
//!
//! ```text
//! workflow demo {
//!     actor feed   = ticks()
//!     actor dedup  = dedup(keys: [carid], capacity: 1000)
//!     actor toll   = toll()
//!     actor out    = sink()
//!
//!     connect feed.out -> dedup.in
//!         window tuples(4, 1) group_by(carid) delete_used timeout(5s)
//!     connect dedup.out -> toll.in
//!         window tuples(2, 1) group_by(carid)
//!     connect toll.out -> out.in
//!
//!     priority out = 5
//!     expired dedup.in -> out.in
//! }
//! ```
//!
//! Errors, including numbers out of range, name their line.
//!
//! Actor *types* (`ticks`, `dedup`, `sink` above) come from the registry:
//! the standard library types are pre-registered by
//! [`ActorRegistry::with_standard_actors`], and applications register
//! their own constructors (closing over feeds, stores, collectors) with
//! [`ActorRegistry::register`].

mod parser;
mod registry;

pub use parser::parse;
pub use registry::{ActorRegistry, Params};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{Collector, VecSource};
    use crate::director::ddf::DdfDirector;
    use crate::director::Director;
    use crate::token::Token;
    use crate::window::Measure;

    fn registry_with(collector: &Collector, items: Vec<Token>) -> ActorRegistry {
        let mut reg = ActorRegistry::with_standard_actors();
        let c = collector.clone();
        let items = std::sync::Mutex::new(Some(items));
        reg.register("numbers", move |_params| {
            let data = items.lock().unwrap().take().unwrap_or_default();
            Ok(Box::new(VecSource::new(data)))
        });
        reg.register("collect", move |_params| Ok(Box::new(c.actor())));
        reg
    }

    #[test]
    fn end_to_end_spec_run() {
        let out = Collector::new();
        let reg = registry_with(&out, (1..=6).map(Token::Int).collect());
        let spec = r#"
            workflow demo {
                actor src  = numbers()
                actor pass = union(inputs: 1)
                actor sink = collect()

                connect src.out -> pass.in0
                    window tuples(2, 2) delete_used
                connect pass.out -> sink.in

                priority sink = 5
            }
        "#;
        let mut wf = parse(spec, &reg).unwrap();
        assert_eq!(wf.name(), "demo");
        assert_eq!(wf.actor_count(), 3);
        let sink = wf.find("sink").unwrap();
        assert_eq!(wf.node(sink).priority, 5);
        let pass = wf.find("pass").unwrap();
        assert_eq!(wf.window_spec(pass, 0).size, Measure::Tuples(2));
        DdfDirector::new().run(&mut wf).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn expired_handlers_in_spec() {
        let out = Collector::new();
        let audit = Collector::new();
        let mut reg = registry_with(&out, (0..4).map(Token::Int).collect());
        let a = audit.clone();
        reg.register("audit", move |_| Ok(Box::new(a.actor())));
        let spec = r#"
            workflow expired-demo {
                actor src   = numbers()
                actor sink  = collect()
                actor audit = audit()
                connect src.out -> sink.in
                    window tuples(2, 2) delete_used
                expired sink.in -> audit.in
            }
        "#;
        let mut wf = parse(spec, &reg).unwrap();
        DdfDirector::new().run(&mut wf).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(audit.len(), 4, "consumed events expired to the auditor");
    }

    #[test]
    fn time_windows_group_by_and_timeout() {
        let out = Collector::new();
        let reg = registry_with(&out, vec![]);
        let spec = r#"
            workflow w {
                actor src  = numbers()
                actor sink = collect()
                connect src.out -> sink.in
                    window time(60s, 30s) group_by(xway, seg) timeout(5s)
            }
        "#;
        let wf = parse(spec, &reg).unwrap();
        let sink = wf.find("sink").unwrap();
        let spec = wf.window_spec(sink, 0);
        assert_eq!(spec.size, Measure::Time(crate::time::Micros::from_secs(60)));
        assert_eq!(spec.step, Measure::Time(crate::time::Micros::from_secs(30)));
        assert_eq!(spec.timeout, Some(crate::time::Micros::from_secs(5)));
        assert!(matches!(
            &spec.group_by,
            crate::window::GroupBy::Fields(f) if f.names().len() == 2
        ));
    }

    #[test]
    fn wave_window_and_ms_units() {
        let out = Collector::new();
        let reg = registry_with(&out, vec![]);
        let spec = r#"
            workflow w {
                actor src  = numbers()
                actor sink = collect()
                connect src.out -> sink.in window wave timeout(250ms)
            }
        "#;
        let wf = parse(spec, &reg).unwrap();
        let sink = wf.find("sink").unwrap();
        let w = wf.window_spec(sink, 0);
        assert_eq!(w.size, Measure::Wave);
        assert_eq!(w.timeout, Some(crate::time::Micros::from_millis(250)));
    }

    #[test]
    fn good_errors() {
        let out = Collector::new();
        let reg = registry_with(&out, vec![]);
        // Unknown actor type.
        let err = parse("workflow w { actor a = nope() }", &reg).unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        // Unknown actor in connect.
        let err = parse(
            "workflow w { actor a = numbers() connect a.out -> b.in }",
            &reg,
        )
        .unwrap_err();
        assert!(err.to_string().contains('b'), "{err}");
        // Syntax error.
        let err = parse("workflow w { actor = }", &reg).unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");
        // Garbage after the workflow block.
        let err = parse("workflow w { } trailing", &reg).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn standard_actor_types_instantiable() {
        let out = Collector::new();
        let mut reg = registry_with(&out, vec![Token::record().field("k", 1).build()]);
        let c2 = out.clone();
        reg.register("collect2", move |_| Ok(Box::new(c2.actor())));
        let spec = r#"
            workflow std {
                actor src   = numbers()
                actor uniq  = dedup(keys: [k], capacity: 10)
                actor gate  = throttle(max: 100, per_ms: 1000)
                actor both  = union(inputs: 2)
                actor sink  = collect()
                connect src.out  -> uniq.in
                connect uniq.out -> gate.in
                connect gate.out -> both.in0
                connect src.out  -> both.in1
                connect both.out -> sink.in
            }
        "#;
        let mut wf = parse(spec, &reg).unwrap();
        DdfDirector::new().run(&mut wf).unwrap();
        assert_eq!(out.len(), 2, "one via dedup/throttle path, one direct");
    }
}
