//! Where the `lr_checkpoint_scwf` unit's resident-set peak comes from,
//! phase by phase. The benchmark's trace (90 s, the given seed), options,
//! director, snapshot interval (an eighth of the reference firings) and
//! crash point (nine sixteenths) are rebuilt here from the engine crates;
//! before each phase `VmHWM` is restarted through `/proc/self/clear_refs`.
//!
//! One markdown row per phase: the resident set when it starts, its
//! high-water mark, and the rise between them, in MB. The first three rows
//! are the benchmark's unit (crash, then recovery from a copy of the
//! directory), measured as the benchmark measures it. The last three repeat
//! one piece of recovery or of a checkpoint at a time on the crashed run's
//! untouched directory; before each, `malloc_trim(0)` hands the heap's free
//! pages back, so that the rise is what the phase holds above live memory
//! and not hidden in pages an earlier phase freed.
//!
//! Run it through `phase_hwm.sh`, which builds it inside a checkout.

use std::path::Path;
use std::sync::{Arc, Mutex};

use confluence::core::actor::Actor;
use confluence::core::checkpoint::{self, Checkpoint, LoggedSource};
use confluence::core::director::Director;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::telemetry::{Observer, RunPhase};
use confluence::core::time::{Micros, Timestamp};
use confluence::linearroad::{build, LinearRoad, LrOptions, Workload, WorkloadConfig};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::FifoScheduler;
use confluence::sched::ScwfDirector;

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status field");
    kb / 1024.0
}

fn restart_peak() -> f64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("VmHWM can be restarted");
    status_mb("VmRSS:")
}

extern "C" {
    /// glibc's: return the free memory of every heap to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// [`restart_peak`] from live memory alone.
fn restart_trimmed() -> f64 {
    // SAFETY: `malloc_trim` takes no pointer and only releases pages the
    // allocator holds free; Rust's global allocator here is glibc's malloc.
    unsafe { malloc_trim(0) };
    restart_peak()
}

fn scwf() -> ScwfDirector {
    ScwfDirector::virtual_time(
        Box::new(FifoScheduler::new(5)),
        Box::new(TableCostModel::uniform(Micros(1), Micros(0))),
    )
}

fn engine(lr: LinearRoad, config: ExecConfig) -> Engine {
    let store = lr.store.clone();
    Engine::new(lr.workflow)
        .register_checkpoint_resource("relstore", Arc::new(store))
        .configure(config)
        .with_director(scwf())
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Splits the recovering run where its segment starts: restoring the
/// snapshot is behind it, running the workflow ahead.
#[derive(Default)]
struct SegmentStart {
    /// `(high-water mark of the restore, resident set at the split)`.
    marks: Mutex<Option<(f64, f64)>>,
}

impl Observer for SegmentStart {
    fn on_run_phase(&self, phase: RunPhase, _at: Timestamp) {
        if matches!(phase, RunPhase::Start) {
            let restore_peak = status_mb("VmHWM:");
            *self.marks.lock().unwrap() = Some((restore_peak, restart_peak()));
        }
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).map_or(1, |s| s.parse().expect("seed"));
    let label = std::env::args().nth(2).unwrap_or_default();
    let workload = Workload::generate(WorkloadConfig {
        duration_secs: 90,
        seed,
        ..WorkloadConfig::default()
    });
    let opts = LrOptions {
        composite_subworkflows: false,
        ..LrOptions::default()
    };
    let lr = || build(&workload, &opts).unwrap();
    let total = scwf().run(&mut lr().workflow).unwrap().firings.max(16);

    let base = std::env::temp_dir().join(format!("phase-hwm-{}", std::process::id()));
    let (dir, copy, out) = (base.join("crashed"), base.join("recovered"), base.join("rewritten"));
    let _ = std::fs::remove_dir_all(&base);
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();

    let start = restart_peak();
    engine(lr(), ExecConfig::new().checkpoint_every(StopCondition::Firings(total / 8), &dir))
        .run_until(StopCondition::Firings(total * 9 / 16))
        .unwrap();
    rows.push(("crashed run, four checkpoints written", start, status_mb("VmHWM:")));

    copy_dir(&dir, &copy);
    let marks = Arc::new(SegmentStart::default());
    let mut recovering =
        engine(lr(), ExecConfig::new().recover_from(&copy)).with_observer(marks.clone());
    let start = restart_peak();
    recovering.run().unwrap();
    let (restore_peak, segment_start) = marks.marks.lock().unwrap().expect("the segment started");
    rows.push(("recovery: snapshot read and restored", start, restore_peak));
    rows.push(("recovery: resumed segment", segment_start, status_mb("VmHWM:")));
    drop(recovering);

    let start = restart_trimmed();
    let cp = Checkpoint::read_from_dir(&dir).unwrap();
    rows.push(("alone: `read_from_dir`", start, status_mb("VmHWM:")));

    let mut source_lr = lr();
    let id = source_lr.workflow.find("source").unwrap();
    let inner = source_lr.workflow.node_mut(id).take_actor();
    let mut source = LoggedSource::new(inner, checkpoint::log_path(&dir, "source"), false).unwrap();
    let saved = &cp.actors.iter().find(|(name, _)| name == "source").unwrap().1;
    let start = restart_trimmed();
    source.restore_state(saved).unwrap();
    rows.push(("alone: source `restore_state`", start, status_mb("VmHWM:")));
    drop((source, source_lr));

    let start = restart_trimmed();
    cp.write_to_dir(&out).unwrap();
    rows.push(("alone: `write_to_dir`", start, status_mb("VmHWM:")));

    let bytes = std::fs::metadata(dir.join(checkpoint::SNAPSHOT_FILE)).unwrap().len();
    for (name, start, peak) in rows {
        println!(
            "| {label} | {seed} | {name} | {start:.2} | {peak:.2} | {:+.2} |",
            peak - start
        );
    }
    println!("| {label} | {seed} | snapshot file | {:.2} MB | | |", bytes as f64 / 1048576.0);
    let _ = std::fs::remove_dir_all(&base);
}
