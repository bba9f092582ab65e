//! Layer replays: inputs taken from a Linear Road trace (or the relstore
//! op stream) of the run's seed, driven straight into each layer's public
//! functions and timed from outside. Every replay is repeated and its
//! median reported, in ns per call unless the name says otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use confluence_core::checkpoint::{self, Checkpoint, EventLog};
use confluence_core::director::pool_policy::{ReadyEntry, ReadyQueue};
use confluence_core::director::Fabric;
use confluence_core::event::CwEvent;
use confluence_core::graph::ActorId;
use confluence_core::receiver::{ActorInbox, PortReceiver};
use confluence_core::telemetry::{
    FireRecord, MetricsRecorder, MultiObserver, Observer, QuantileSketch,
};
use confluence_core::time::{Micros, Timestamp};
use confluence_core::token::Token;
use confluence_core::wave::WaveTag;
use confluence_core::window::{GroupBy, WindowOperator, WindowSpec};
use confluence_linearroad::{build, tables, LrOptions, Workload};
use confluence_sched::{ActorInfo, FifoScheduler, Scheduler, StatsModule};

use crate::relmix::{self, Op};
use crate::stats;

/// How often each replay is repeated.
const REPEATS: usize = 5;

/// Median over [`REPEATS`] of `f`, which returns `(nanoseconds, calls)`.
fn per_call(mut f: impl FnMut() -> (f64, usize)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, calls) = f();
            ns / calls.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

fn ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as f64)
}

fn events(w: &Workload) -> Vec<CwEvent> {
    w.reports
        .iter()
        .map(|r| CwEvent::external(r.to_token(), r.arrival()))
        .collect()
}

/// Run every replay; `scratch` is a directory inside the checkout.
pub fn replay_all(w: &Workload, seed: u64, scratch: &Path) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let n = w.reports.len();
    let tokens: Vec<Token> = w.reports.iter().map(|r| r.to_token()).collect();

    // --- token, wave -------------------------------------------------------
    put(
        "token.record_build_ns",
        per_call(|| {
            let (_, t) = ns(|| w.reports.iter().map(|r| r.to_token()).collect::<Vec<_>>());
            (t, n)
        }),
    );
    put(
        "token.field_get_ns",
        per_call(|| {
            let (_, t) = ns(|| {
                tokens.iter().fold(0i64, |acc, tok| {
                    acc + tok.int_field("carid").expect("carid")
                        + tok.int_field("seg").expect("seg")
                        + tok.int_field("time").expect("time")
                        + tok.int_field("pos").expect("pos")
                })
            });
            (t, 4 * n)
        }),
    );
    put(
        "wave.derive_ns",
        per_call(|| {
            let roots: Vec<WaveTag> = w
                .reports
                .iter()
                .map(|r| WaveTag::external(r.arrival()))
                .collect();
            let (_, t) = ns(|| {
                roots
                    .iter()
                    .map(|root| root.child(1, false).child(2, true))
                    .collect::<Vec<_>>()
            });
            (t, 2 * n)
        }),
    );

    // --- window operators --------------------------------------------------
    let tuple_spec = || WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"]));
    let minute = Micros::from_secs(60);
    let time_spec = || {
        WindowSpec::time(minute, minute).group_by(GroupBy::fields(&["carid", "xway", "dir", "seg"]))
    };
    let mut formed_per_push = 0.0;
    put(
        "window.push_tuple_ns",
        per_call(|| {
            let mut op = WindowOperator::new(tuple_spec()).expect("spec is valid");
            let input = events(w);
            let (formed, t) = ns(|| {
                let mut formed = 0usize;
                for e in input {
                    let now = e.origin();
                    formed += op.push(e, now).expect("push");
                    while op.pop_window().is_some() {}
                }
                formed
            });
            formed_per_push = formed as f64 / n as f64;
            (t, n)
        }),
    );
    put("window.windows_per_push", formed_per_push);
    put(
        "window.push_time_ns",
        per_call(|| {
            let mut op = WindowOperator::new(time_spec()).expect("spec is valid");
            let input = events(w);
            let (_, t) = ns(|| {
                for e in input {
                    let now = e.origin();
                    op.push(e, now).expect("push");
                    while op.pop_window().is_some() {}
                }
            });
            (t, n)
        }),
    );
    put(
        "window.snapshot_ns",
        per_call(|| {
            let mut op = WindowOperator::new(time_spec()).expect("spec is valid");
            for e in events(w).into_iter().take(2_000) {
                let now = e.origin();
                op.push(e, now).expect("push");
            }
            let buffered = op.pending_events();
            let (_, t) = ns(|| op.snapshot());
            (t, buffered)
        }),
    );

    // --- receiver, inbox ---------------------------------------------------
    let mut pop_ns = 0.0;
    put(
        "receiver.put_batch_ns",
        per_call(|| {
            let inbox = ActorInbox::new(1);
            let rx = PortReceiver::new(tuple_spec(), inbox.clone(), 0, 1).expect("receiver");
            let batches: Vec<Vec<CwEvent>> =
                events(w).chunks(100).map(<[CwEvent]>::to_vec).collect();
            let (_, t) = ns(|| {
                for batch in batches {
                    rx.put_batch(batch, Timestamp::ZERO).expect("put_batch");
                }
            });
            let queued = inbox.len();
            let (_, tp) = ns(|| while inbox.try_pop().is_some() {});
            pop_ns = tp / queued.max(1) as f64;
            (t, n)
        }),
    );
    put("receiver.inbox_pop_ns", pop_ns);

    // --- fabric ------------------------------------------------------------
    let lr = build(w, &LrOptions::default()).expect("workflow builds");
    let source = lr.workflow.find("source").expect("source");
    put(
        "fabric.build_ns",
        per_call(|| {
            let (_, t) = ns(|| Fabric::build(&lr.workflow).expect("fabric builds"));
            (t, 1)
        }),
    );
    put(
        "fabric.route_ns",
        per_call(|| {
            let fabric = Fabric::build(&lr.workflow).expect("fabric builds");
            let bursts: Vec<(Timestamp, Vec<(usize, Token)>)> = w
                .reports
                .chunks(100)
                .map(|c| {
                    (
                        c[0].arrival(),
                        c.iter().map(|r| (0, r.to_token())).collect(),
                    )
                })
                .collect();
            let (_, t) = ns(|| {
                for (now, burst) in bursts {
                    fabric.route(source, burst, None, now).expect("route");
                }
            });
            (t, n)
        }),
    );

    // --- checkpoint --------------------------------------------------------
    // State: a fabric holding the trace's first 3,000 reports, unconsumed.
    let loaded = || {
        let fabric = Fabric::build(&lr.workflow).expect("fabric builds");
        let burst: Vec<(usize, Token)> = w
            .reports
            .iter()
            .take(3_000)
            .map(|r| (0, r.to_token()))
            .collect();
        fabric
            .route(source, burst, None, Timestamp::ZERO)
            .expect("route");
        fabric
    };
    let dir = scratch.join(format!("replay-{}", std::process::id()));
    let mut encode = Vec::new();
    let mut bytes = 0usize;
    put(
        "checkpoint.capture_ns",
        per_call(|| {
            let fabric = loaded();
            let (state, t) = ns(|| fabric.capture_state());
            let items = state.item_count();
            let cp = Checkpoint {
                actors: Vec::new(),
                fabric: state,
                resources: vec![("relstore".into(), Vec::new())],
            };
            let (encoded, te) = ns(|| cp.to_bytes());
            bytes = encoded.len();
            encode.push(te / items.max(1) as f64);
            (t, items)
        }),
    );
    put("checkpoint.encode_ns", stats::median(&encode));
    put("checkpoint.snapshot_bytes", bytes as f64);
    let state = loaded().capture_state();
    let items = state.item_count();
    let cp = Checkpoint {
        actors: Vec::new(),
        fabric: state,
        resources: Vec::new(),
    };
    put(
        "checkpoint.write_ns",
        per_call(|| {
            let (r, t) = ns(|| cp.write_to_dir(&dir));
            r.expect("snapshot writes");
            (t, 1)
        }),
    );
    put(
        "checkpoint.read_decode_ns",
        per_call(|| {
            let (r, t) = ns(|| Checkpoint::read_from_dir(&dir));
            r.expect("snapshot reads back");
            (t, items)
        }),
    );
    put(
        "checkpoint.restore_ns",
        per_call(|| {
            let fabric = Fabric::build(&lr.workflow).expect("fabric builds");
            let state = cp.fabric.clone();
            let (r, t) = ns(|| fabric.restore_state(state));
            r.expect("state restores");
            (t, items)
        }),
    );
    let log_path = checkpoint::log_path(&dir, "source");
    put(
        "checkpoint.log_record_ns",
        per_call(|| {
            let mut log = EventLog::create(&log_path).expect("log creates");
            let (_, t) = ns(|| {
                for (seq, tok) in tokens.iter().enumerate() {
                    log.record(seq as u64, 0, tok).expect("log appends");
                }
            });
            (t, n)
        }),
    );
    let log_bytes = std::fs::metadata(&log_path).map(|md| md.len()).unwrap_or(0);
    put("checkpoint.log_bytes_per_op", log_bytes as f64 / n as f64);
    let _ = std::fs::remove_dir_all(&dir);

    // --- schedulers --------------------------------------------------------
    let infos: Vec<ActorInfo> = lr
        .workflow
        .actor_ids()
        .map(|id| {
            let node = lr.workflow.node(id);
            ActorInfo {
                index: id.index(),
                name: node.name.clone(),
                priority: node.priority,
                is_source: node.is_source,
            }
        })
        .collect();
    let sched_stats = StatsModule::new(&lr.workflow);
    let internal: Vec<usize> = infos
        .iter()
        .filter(|a| !a.is_source)
        .map(|a| a.index)
        .collect();
    const CYCLES: usize = 200_000;
    put(
        "sched.next_actor_ns",
        per_call(|| {
            let mut policy = FifoScheduler::new(5);
            policy.init(&infos);
            let (_, t) = ns(|| {
                for i in 0..CYCLES {
                    policy.on_enqueue(internal[i % internal.len()], Timestamp(i as u64));
                    if let Some(a) = policy.next_actor() {
                        policy.after_fire(a, Micros(1), 0, &sched_stats);
                    }
                }
            });
            (t, CYCLES)
        }),
    );
    put(
        "pool_policy.push_pop_ns",
        per_call(|| {
            let mut q = ReadyQueue::new();
            let entry = |i: usize| ReadyEntry {
                key: (i * 7 % 13) as u64,
                seq: i as u64,
                actor: i % 13,
            };
            for i in 0..8 {
                q.push(entry(i), false);
            }
            let (_, t) = ns(|| {
                for i in 8..CYCLES + 8 {
                    q.push(entry(i), i % 4 == 0);
                    std::hint::black_box(q.pop_with(|a| (a * 7 % 13) as u64));
                }
            });
            (t, CYCLES)
        }),
    );
    put(
        "pool_policy.steal_ns",
        per_call(|| {
            let mut q = ReadyQueue::new();
            for i in 0..CYCLES {
                q.push(
                    ReadyEntry {
                        key: (i * 7 % 13) as u64,
                        seq: i as u64,
                        actor: i % 13,
                    },
                    false,
                );
            }
            let (_, t) = ns(|| while q.steal_best().is_some() {});
            (t, CYCLES)
        }),
    );

    // --- telemetry ---------------------------------------------------------
    let recorder = Arc::new(MetricsRecorder::for_workflow(&lr.workflow));
    let fan: Arc<dyn Observer> = Arc::new(MultiObserver::new(vec![recorder.clone()]));
    let toll = lr.workflow.find("TollCalculation").expect("toll actor");
    put(
        "telemetry.fire_dispatch_ns",
        per_call(|| {
            let (_, t) = ns(|| {
                for i in 0..CYCLES as u64 {
                    fan.on_fire_start(toll, Timestamp(i));
                    fan.on_fire_end(&fire_record(toll, i));
                }
            });
            (t, CYCLES)
        }),
    );
    put(
        "telemetry.sketch_record_ns",
        per_call(|| {
            let sketch = QuantileSketch::new();
            let (_, t) = ns(|| {
                for i in 0..CYCLES as u64 {
                    sketch.record(Micros(1 + i * 37 % 50_000));
                }
            });
            (t, CYCLES)
        }),
    );

    // --- relstore ----------------------------------------------------------
    let store = relmix::History::generate(seed).load();
    let ops = relmix::unit_ops(seed, 0);
    let mut relstore = |name: &str, pick: fn(&Op) -> bool| {
        let batch: Vec<&Op> = ops.iter().filter(|op| pick(op)).collect();
        let (_, t) = ns(|| {
            for op in &batch {
                std::hint::black_box(relmix::apply(&store, op));
            }
        });
        put(name, t / batch.len().max(1) as f64);
    };
    relstore("relstore.pk_get_ns", |op| {
        matches!(op, Op::CarsInSegment(_))
    });
    relstore("relstore.lav_range_ns", |op| matches!(op, Op::Lav(_)));
    relstore("relstore.in_union_ns", |op| {
        matches!(op, Op::AccidentNearby(_))
    });
    relstore("relstore.upsert_ns", |op| {
        matches!(op, Op::WriteCars(..) | Op::WriteSpeed(..))
    });
    relstore("relstore.insert_ns", |op| {
        matches!(op, Op::InsertAccident(_))
    });
    relstore("relstore.update_where_ns", |op| {
        matches!(op, Op::UpdateCars(_))
    });
    relstore("relstore.delete_where_ns", |op| {
        matches!(
            op,
            Op::DeleteSpeeds(_) | Op::DeleteCars(_) | Op::DeleteAccidents(..)
        )
    });
    put(
        "relstore.group_by_ns",
        per_call(|| {
            let (_, t) = ns(|| relmix::apply(&store, &Op::CongestionSummary));
            (t, 1)
        }),
    );
    put(
        "relstore.plan_ns",
        per_call(|| {
            let preds: Vec<_> = (0..2_000i64)
                .map(|i| tables::lav_predicate(i % 4, i % 2, i % 100, 80 + i % 4))
                .collect();
            let (_, t) = store.read(|s| {
                let table = s.table("minute_speeds").expect("table exists");
                ns(|| {
                    for p in &preds {
                        std::hint::black_box(table.plan(Some(p)));
                    }
                })
            });
            (t, preds.len())
        }),
    );
    m
}

fn fire_record(actor: ActorId, i: u64) -> FireRecord {
    FireRecord {
        actor,
        started: Timestamp(i),
        ended: Timestamp(i + 1),
        busy: Micros(1),
        events_in: 2,
        tokens_out: 1,
        origin: Some(Timestamp(i)),
        trigger: None,
        fired: true,
    }
}
