use std::sync::Arc;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::time::{Micros, Timestamp};
use confluence::linearroad::cost::staf_cost_model;
use confluence::linearroad::{build, LrOptions, Workload, WorkloadConfig};
use confluence::sched::policies::{FifoScheduler, RbScheduler};
use confluence::sched::{Scheduler, ScwfDirector};

fn run(w: &Workload, policy: Box<dyn Scheduler>, every: Option<u64>) -> (u64, Vec<(Timestamp, Micros)>) {
    let lr = build(w, &LrOptions { composite_subworkflows: false, ..LrOptions::default() }).unwrap();
    let out = lr.toll_output.clone();
    let store = lr.store.clone();
    let mut e = Engine::new(lr.workflow)
        .with_director(ScwfDirector::virtual_time(policy, Box::new(staf_cost_model())))
        .register_checkpoint_resource("relstore", Arc::new(store));
    let dir = std::env::temp_dir().join("probe_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(k) = every {
        e = e.configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(k), &dir));
    }
    let r = e.run().unwrap();
    (r.firings, out.latency_samples())
}

fn main() {
    let w = Workload::generate(WorkloadConfig {
        duration_secs: 90, l_rating: 0.2, expressways: 1, seed: 7,
        base_initial_cars: 20_000, base_final_cars: 60_000,
        accident_every_secs: None, accident_duration_secs: 0,
    });
    type Mk = fn() -> Box<dyn Scheduler>;
    let policies: [(&str, Mk); 2] = [("fifo", || Box::new(FifoScheduler::new(5))), ("rb", || Box::new(RbScheduler::new()))];
    for (name, mk) in policies {
        let (firings, whole) = run(&w, mk(), None);
        let (_, paused) = run(&w, mk(), Some(firings / 37));
        let moved = whole.iter().zip(&paused).filter(|(a, b)| a != b).count();
        let at = 1590.min(whole.len() - 1);
        println!("{name}: firings={firings} tolls={}/{} moved={moved} toll#{at}: {:?} vs {:?}",
            whole.len(), paused.len(), whole[at].1, paused[at].1);
    }
}
