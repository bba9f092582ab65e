//! Hostile bytes against a real Linear Road checkpoint and its source
//! event log: a file cut at any frame boundary or inside any frame, a
//! length or a count announcing more than the file holds, a version-1
//! header and trailing bytes are each a typed error, and none of them
//! panics or allocates for what it announces. Reading the log from a
//! sequence number equals reading all of it and filtering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use confluence::core::checkpoint::{self, Checkpoint, EventLog};
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Error;
use confluence::core::time::Micros;
use confluence::linearroad::{self, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

thread_local! {
    /// The largest single allocation this thread has made since it was
    /// last reset: tests run on threads of their own.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local beside it is a `Cell` with a const initializer, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The crashed run's Linear Road reports: 60 s of a short trace.
fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        Workload::generate(WorkloadConfig {
            duration_secs: 60,
            base_initial_cars: 200,
            base_final_cars: 300,
            accident_every_secs: None,
            seed: 3,
            ..WorkloadConfig::default()
        })
    })
}

/// A short Linear Road run under SCWF, snapshotted every 400 firings and
/// killed at 1,500: its checkpoint directory, made once for all tests.
fn crashed_run() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("confluence-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = LrOptions {
            composite_subworkflows: false,
            ..LrOptions::default()
        };
        let lr = linearroad::build(workload(), &opts).unwrap();
        let store = lr.store.clone();
        let director = ScwfDirector::virtual_time(
            Box::new(FifoScheduler::new(5)),
            Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
        );
        Engine::new(lr.workflow)
            .register_checkpoint_resource("relstore", Arc::new(store))
            .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(400), &dir))
            .with_director(director)
            .run_until(StopCondition::Firings(1_500))
            .unwrap();
        dir
    })
}

fn snapshot() -> Vec<u8> {
    std::fs::read(crashed_run().join(checkpoint::SNAPSHOT_FILE)).unwrap()
}

/// Walks the version-3 layout (DESIGN.md, "Checkpointing") without the
/// reader under test, to find where its frames, byte strings and counts
/// are.
struct Layout3<'a> {
    bytes: &'a [u8],
    at: usize,
    /// `(offset of the length, offset past the body)` of every frame.
    frames: Vec<(usize, usize)>,
    /// Offset of the length of every actor state and resource.
    strings: Vec<usize>,
    /// Offset of the fabric's actor count, of every inbox count, and of
    /// every group's event count.
    counts: Counts,
}

#[derive(Default)]
struct Counts {
    actors: usize,
    inbox: Vec<usize>,
    group_events: Vec<usize>,
}

impl<'a> Layout3<'a> {
    fn walk(bytes: &'a [u8]) -> Self {
        let mut l = Layout3 {
            bytes,
            at: 8,
            frames: Vec::new(),
            strings: Vec::new(),
            counts: Counts::default(),
        };
        l.named();
        l.counts.actors = l.at;
        for _ in 0..l.u32() {
            l.counts.inbox.push(l.at);
            for _ in 0..l.u32() {
                l.frame(); // an inbox window
            }
            for _ in 0..l.u32() {
                for _ in 0..l.u32() {
                    // A group: its tag and key, then its event count.
                    let body = l.frame();
                    l.counts.group_events.push(l.token_end(body + 1));
                }
                for _ in 0..l.u32() {
                    l.frame(); // a ready window
                }
                l.frame(); // the expired events
            }
        }
        l.named();
        assert_eq!(l.at, bytes.len(), "the walk covers the file");
        l
    }

    fn u32(&mut self) -> usize {
        let v = u32::from_le_bytes(self.bytes[self.at..self.at + 4].try_into().unwrap());
        self.at += 4;
        v as usize
    }

    fn named(&mut self) {
        for _ in 0..self.u32() {
            let name = self.u32();
            self.at += name;
            self.strings.push(self.at);
            let state = self.u32();
            self.at += state;
        }
    }

    /// Step over one frame, and return where its body starts.
    fn frame(&mut self) -> usize {
        let start = self.at;
        let len = self.u32();
        self.at += len;
        self.frames.push((start, self.at));
        self.at - len
    }

    /// The offset past the token at `at`.
    fn token_end(&self, at: usize) -> usize {
        let u32_at = |at: usize| u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap());
        match self.bytes[at] {
            0 => at + 1,
            1 => at + 2,
            2 | 3 => at + 9,
            4 => at + 5 + u32_at(at + 1) as usize,
            5 | 7 => (0..u32_at(at + 1)).fold(at + 5, |at, _| {
                self.token_end(at + 4 + u32_at(at) as usize) // a name, then a value
            }),
            6 => (0..u32_at(at + 1)).fold(at + 5, |at, _| self.token_end(at)),
            8 => at + 5,
            tag => panic!("token tag {tag} at {at}"),
        }
    }
}

fn rejected(bytes: &[u8], what: &str) -> String {
    match Checkpoint::from_bytes(bytes) {
        Err(e @ Error::Checkpoint(_)) => e.to_string(),
        other => panic!("{what}: expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn the_checkpoint_is_a_real_one_and_reads_back() {
    let bytes = snapshot();
    let layout = Layout3::walk(&bytes);
    assert!(layout.frames.len() >= 100, "{} frames", layout.frames.len());
    let cp = Checkpoint::read_from_dir(crashed_run()).unwrap();
    assert!(cp.resources.iter().any(|(name, _)| name == "relstore"));
    assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
    assert_eq!(cp.to_bytes(), bytes, "re-encoding gives the file back");
}

#[test]
fn a_cut_at_or_inside_any_frame_is_an_error() {
    let bytes = snapshot();
    let layout = Layout3::walk(&bytes);
    let mut cuts: Vec<usize> = (0..8).collect();
    for &(start, end) in &layout.frames {
        // The boundary before it, inside its length, right after its
        // length, inside its body, one byte short of its end.
        cuts.extend([start, start + 2, start + 4, (start + 4 + end) / 2, end - 1]);
    }
    for &at in &layout.strings {
        cuts.extend([at, at + 1, at + 4]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts.into_iter().filter(|&cut| cut < bytes.len()) {
        rejected(&bytes[..cut], &format!("cut at {cut}"));
        // A reader promised the whole file that runs dry early.
        let mut short = &bytes[..cut];
        let promised = bytes.len() as u64;
        assert!(Checkpoint::read_from(&mut short, promised).is_err(), "short read at {cut}");
    }
}

#[test]
fn a_length_past_the_end_fails_before_allocating() {
    let bytes = snapshot();
    let layout = Layout3::walk(&bytes);
    let (first, last) = (layout.frames[0].0, layout.frames[layout.frames.len() - 1].0);
    for at in [first, last, layout.strings[0], *layout.strings.last().unwrap()] {
        for announced in [bytes.len() - at - 3, u32::MAX as usize] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&(announced as u32).to_le_bytes());
            LARGEST.with(|l| l.set(0));
            let err = rejected(&hostile, &format!("{announced} bytes announced at {at}"));
            let largest = LARGEST.with(Cell::get);
            assert!(err.contains("runs past the end"), "{err}");
            assert!(
                largest < bytes.len(),
                "{announced} bytes announced at {at}: a {largest}-byte allocation"
            );
        }
    }
}

#[test]
fn a_count_past_the_end_fails_before_allocating_for_it() {
    let bytes = snapshot();
    let counts = Layout3::walk(&bytes).counts;
    assert!(!counts.group_events.is_empty(), "the run buffers groups");
    let places = [
        ("the fabric's actor count", counts.actors),
        ("an inbox count", counts.inbox[0]),
        ("a group's event count", counts.group_events[0]),
    ];
    for (what, at) in places {
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        LARGEST.with(|l| l.set(0));
        rejected(&hostile, &format!("u32::MAX at {what}"));
        let largest = LARGEST.with(Cell::get);
        assert!(largest < bytes.len(), "u32::MAX at {what}: a {largest}-byte allocation");
    }
}

#[test]
fn a_version_1_header_and_trailing_bytes_are_errors() {
    let mut v1 = snapshot();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let err = rejected(&v1, "version 1");
    assert!(err.contains("unsupported checkpoint version 1"), "{err}");

    let mut trailing = snapshot();
    trailing.push(0);
    let err = rejected(&trailing, "one trailing byte");
    assert!(err.contains("trailing bytes"), "{err}");
}

#[test]
fn reading_the_log_from_a_sequence_number_filters_read_all() {
    // The crashed run's source resumes from its offset and keeps no log,
    // so the corpus is its reports, logged here one record each.
    let copy = std::env::temp_dir().join(format!("confluence-hostile-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    let log = copy.join("log.bin");
    let mut writer = EventLog::create(&log).unwrap();
    for (seq, report) in (0..).zip(workload().reports.iter()) {
        writer.record(seq, 0, &report.to_token()).unwrap();
    }
    drop(writer);
    let all = EventLog::read_all(&log).unwrap();
    let n = all.len() as u64;
    assert!(n >= 100, "{n} logged reports");
    let check = |all: &[checkpoint::LogEntry]| {
        for k in [0, 1, n / 3, n - 1, n, n + 7, u64::MAX] {
            let tail: Vec<_> = all.iter().filter(|e| e.seq >= k).cloned().collect();
            assert_eq!(EventLog::read_from(&log, k).unwrap(), tail, "from {k}");
        }
    };
    check(&all);

    // A frame torn by the kill: its length promises more than is there.
    let mut torn = std::fs::read(&log).unwrap();
    torn.extend_from_slice(&[200, 0, 0, 0, 1, 2, 3]);
    std::fs::write(&log, &torn).unwrap();
    assert_eq!(EventLog::read_all(&log).unwrap(), all, "torn tail ignored");
    check(&all);
    let _ = std::fs::remove_dir_all(&copy);
}
