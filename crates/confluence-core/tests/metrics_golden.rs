//! Byte-for-byte goldens of the three `MetricsSnapshot` renderers.
//!
//! One synthetic recorder, fed only through the `Observer` hooks, touches
//! every section a snapshot can carry: escaped actor names, edges, a
//! reported topology with a live inbox, pool workers and the latency
//! sketch. The fixtures under
//! `tests/fixtures/metrics/` were written by the hand-rolled renderers the
//! column table replaced; any byte that moves here moves for every scraper.

use std::sync::Arc;

use confluence_core::graph::ActorId;
use confluence_core::receiver::ActorInbox;
use confluence_core::telemetry::{
    ActorTopology, FireRecord, MetricsRecorder, MetricsSnapshot, Observer, RunPhase,
    TopologySnapshot, WorkerMetrics,
};
use confluence_core::time::{Micros, Timestamp};
use confluence_core::window::Window;

const NAMES: [&str; 5] = ["src", "base#0", "base#1", "we\"ird\\na\nme", "sink"];

fn fire(actor: usize, busy: u64, origin: Option<u64>, ended: u64) -> FireRecord {
    FireRecord {
        actor: ActorId(actor),
        started: Timestamp(ended - busy),
        ended: Timestamp(ended),
        busy: Micros(busy),
        events_in: 2 + actor as u64,
        tokens_out: 3 * actor as u64 + 1,
        origin: origin.map(Timestamp),
        trigger: None,
        fired: true,
    }
}

fn window() -> Window {
    Window {
        events: Vec::new(),
        formed_at: Timestamp(0),
        timed_out: false,
    }
}

/// The snapshot every fixture renders, plus the inbox its port gauges read
/// (kept alive by the caller: the recorder only holds it weakly).
fn synthetic() -> (MetricsSnapshot, Arc<ActorInbox>) {
    let edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (3, 4, 0)]
        .map(|(from, to, port)| (ActorId(from), ActorId(to), port))
        .to_vec();
    let r = MetricsRecorder::with_names(
        NAMES.iter().map(|n| n.to_string()).collect(),
        vec![false, false, false, false, true],
    )
    .with_edges(edges);

    let inbox = ActorInbox::new(2);
    inbox.push(0, window());
    inbox.push(0, window());
    inbox.push(1, window());
    r.on_topology(&TopologySnapshot {
        actors: vec![
            ActorTopology {
                id: ActorId(3),
                name: NAMES[3].into(),
                ports: 2,
                inbox: Arc::downgrade(&inbox),
            },
            ActorTopology {
                id: ActorId(4),
                name: NAMES[4].into(),
                ports: 1,
                inbox: std::sync::Weak::new(),
            },
        ],
    });

    r.on_run_phase(RunPhase::Start, Timestamp(100));
    for (ended, replica) in [(110, 1), (120, 1), (130, 2), (140, 1)] {
        r.on_fire_end(&fire(0, 4, None, ended));
        r.on_route_edge(ActorId(0), ActorId(replica), 0, 1, Timestamp(ended));
    }
    r.on_fire_end(&fire(1, 11, Some(110), 150));
    r.on_fire_end(&fire(1, 12, Some(120), 170));
    r.on_fire_end(&fire(1, 13, Some(140), 190));
    r.on_fire_end(&fire(2, 21, Some(130), 200));
    r.on_fire_end(&FireRecord {
        fired: false,
        ..fire(2, 0, None, 201)
    });
    r.on_route_edge(ActorId(1), ActorId(3), 0, 3, Timestamp(190));
    r.on_route_edge(ActorId(2), ActorId(3), 1, 1, Timestamp(200));
    r.on_window_close(ActorId(1), 0, 3, 2, Timestamp(141));
    r.on_window_close(ActorId(2), 0, 1, 1, Timestamp(131));
    r.on_window_close(ActorId(3), 0, 2, 5, Timestamp(191));
    r.on_window_close(ActorId(3), 1, 2, 3, Timestamp(201));
    r.on_expire(ActorId(3), 0, 7, Timestamp(202));
    r.on_block(ActorId(3), 0, Micros(250), Timestamp(203));
    r.on_block(ActorId(3), 1, Micros(50), Timestamp(204));
    r.on_shed(ActorId(4), 0, 6, Timestamp(205));
    r.on_fire_end(&fire(3, 31, Some(110), 240));
    r.on_fire_end(&fire(3, 32, Some(130), 280));
    r.on_route_edge(ActorId(3), ActorId(4), 0, 2, Timestamp(280));
    r.on_window_close(ActorId(4), 0, 3, 3, Timestamp(281));
    // Three latency samples: only sink firings with an origin count.
    r.on_fire_end(&fire(4, 5, Some(110), 300));
    r.on_fire_end(&fire(4, 6, Some(120), 1_300));
    r.on_fire_end(&fire(4, 7, Some(130), 90_000));
    r.on_fire_end(&fire(4, 1, None, 90_001));

    r.on_worker(&WorkerMetrics {
        worker: 1,
        fires: 9,
        steals: 4,
        queue_depth: 6,
        busy_micros: 81,
    });
    r.on_worker(&WorkerMetrics {
        worker: 0,
        fires: 12,
        steals: 0,
        queue_depth: 3,
        busy_micros: 140,
    });

    r.on_run_phase(RunPhase::End, Timestamp(90_010));
    (r.snapshot(), inbox)
}

#[test]
fn renderers_match_the_committed_goldens() {
    let (snapshot, _inbox) = synthetic();
    // The synthetic run must reach every section, or a golden proves less
    // than it appears to.
    assert_eq!(snapshot.latency.count, 3);
    assert!(snapshot.workers.len() == 2);
    assert_eq!(snapshot.ports.iter().map(|p| p.depth).sum::<u64>(), 3);

    let rendered = [
        ("snapshot.json", snapshot.to_json(), include_str!("fixtures/metrics/snapshot.json")),
        ("metrics.prom", snapshot.to_prometheus(), include_str!("fixtures/metrics/metrics.prom")),
        ("table.txt", snapshot.render_table(), include_str!("fixtures/metrics/table.txt")),
    ];
    for (file, actual, golden) in rendered {
        assert!(
            actual == golden,
            "{file} moved from its golden\n--- golden\n{golden}\n--- actual\n{actual}"
        );
    }
}
