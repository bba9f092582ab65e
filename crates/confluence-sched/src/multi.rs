//! Multiple-workflow execution: two-level scheduling (paper §5, Figure 9).
//!
//! At the low level each workflow's director enacts its own local
//! scheduling policy; at the top level a global scheduler manages the
//! workflow instances according to a CPU-capacity distribution policy,
//! allocating execution slices to each instance's `Manager` and switching
//! between them with `initialize()` / `pause()` / `resume()` / `stop()` —
//! the same control surface the paper's ConnectionController exposes for
//! externally managing running workflows.
//!
//! All instances share one virtual clock: a slice consumed by workflow A
//! delays workflow B, exactly like contending workflows on one node.

use std::sync::Arc;

use confluence_core::director::RunReport;
use confluence_core::error::{Error, Result};
use confluence_core::graph::Workflow;
use confluence_core::telemetry::Telemetry;
use confluence_core::time::{Micros, Timestamp, VirtualClock};

use crate::cost::CostModel;
use crate::framework::Scheduler;
use crate::scwf::{Progress, ScwfCore};

/// Lifecycle state of one managed workflow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerState {
    /// Eligible for execution slices.
    Running,
    /// Temporarily not scheduled (resume() to continue).
    Paused,
    /// Permanently stopped by the controller.
    Stopped,
    /// Ran to natural completion.
    Finished,
}

/// One workflow instance under global management (the paper's `Manager`).
pub struct WorkflowManager {
    /// Instance name.
    pub name: String,
    workflow: Workflow,
    core: ScwfCore,
    state: ManagerState,
    /// CPU share weight (slices are proportional to this).
    pub share: u32,
    pending_wake: Option<Timestamp>,
}

impl WorkflowManager {
    /// Current lifecycle state.
    pub fn state(&self) -> ManagerState {
        self.state
    }

    /// The instance's cumulative run report.
    pub fn report(&self) -> RunReport {
        self.core.report()
    }

    /// Local policy name.
    pub fn policy_name(&self) -> &'static str {
        self.core.policy_name()
    }

    /// Attach telemetry to this instance: firing and routing hooks flow to
    /// the observer; a stop request finishes the instance at the next
    /// firing boundary. Attach before the first slice so the instance's
    /// fabric is built observed.
    pub fn instrument(&mut self, telemetry: Telemetry) {
        self.core.set_telemetry(telemetry);
    }
}

/// The global scheduler plus connection controller: runs several workflow
/// instances on one shared (virtual) CPU with weighted slices.
pub struct MultiWorkflowExecutor {
    clock: Arc<VirtualClock>,
    managers: Vec<WorkflowManager>,
    /// Base execution slice granted per unit of share, in microseconds of
    /// virtual cost.
    pub base_slice: Micros,
}

impl MultiWorkflowExecutor {
    /// An executor with the given base slice.
    pub fn new(base_slice: Micros) -> Self {
        MultiWorkflowExecutor {
            clock: Arc::new(VirtualClock::new()),
            managers: Vec::new(),
            base_slice: Micros(base_slice.as_micros().max(1)),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// Register a workflow with its local policy, cost model, and CPU
    /// share. Returns its instance index.
    pub fn add_workflow(
        &mut self,
        name: impl Into<String>,
        workflow: Workflow,
        policy: Box<dyn Scheduler>,
        cost: Box<dyn CostModel>,
        share: u32,
    ) -> usize {
        let core = ScwfCore::new_virtual(policy, cost, self.clock.clone());
        self.managers.push(WorkflowManager {
            name: name.into(),
            workflow,
            core,
            state: ManagerState::Running,
            share: share.max(1),
            pending_wake: None,
        });
        self.managers.len() - 1
    }

    /// Access a managed instance.
    pub fn manager(&self, idx: usize) -> &WorkflowManager {
        &self.managers[idx]
    }

    /// Number of managed instances.
    pub fn len(&self) -> usize {
        self.managers.len()
    }

    /// Whether no instances are registered.
    pub fn is_empty(&self) -> bool {
        self.managers.is_empty()
    }

    /// Pause an instance (it keeps its queues; no slices until resume).
    pub fn pause(&mut self, idx: usize) -> Result<()> {
        let m = self
            .managers
            .get_mut(idx)
            .ok_or_else(|| Error::Scheduler(format!("no workflow instance {idx}")))?;
        if m.state == ManagerState::Running {
            m.state = ManagerState::Paused;
        }
        Ok(())
    }

    /// Resume a paused instance.
    pub fn resume(&mut self, idx: usize) -> Result<()> {
        let m = self
            .managers
            .get_mut(idx)
            .ok_or_else(|| Error::Scheduler(format!("no workflow instance {idx}")))?;
        if m.state == ManagerState::Paused {
            m.state = ManagerState::Running;
        }
        Ok(())
    }

    /// Attach telemetry to an instance (call before `run()` so the
    /// instance's fabric is built observed).
    pub fn instrument(&mut self, idx: usize, telemetry: Telemetry) -> Result<()> {
        let m = self
            .managers
            .get_mut(idx)
            .ok_or_else(|| Error::Scheduler(format!("no workflow instance {idx}")))?;
        m.instrument(telemetry);
        Ok(())
    }

    /// Permanently stop an instance.
    pub fn stop(&mut self, idx: usize) -> Result<()> {
        let m = self
            .managers
            .get_mut(idx)
            .ok_or_else(|| Error::Scheduler(format!("no workflow instance {idx}")))?;
        if m.state != ManagerState::Finished {
            m.state = ManagerState::Stopped;
        }
        Ok(())
    }

    /// Run every instance to completion (or stop/pause), interleaving
    /// weighted slices. Paused instances are skipped but keep the clock
    /// moving for the others.
    pub fn run(&mut self) -> Result<()> {
        loop {
            let mut any_progress = false;
            for m in self.managers.iter_mut() {
                if m.state != ManagerState::Running {
                    continue;
                }
                let budget = Micros(self.base_slice.as_micros() * m.share as u64);
                match m.core.run_for(&mut m.workflow, Some(budget))? {
                    Progress::BudgetExhausted => {
                        m.pending_wake = None;
                        any_progress = true;
                    }
                    Progress::IdleUntil(t) => {
                        m.pending_wake = Some(t);
                    }
                    Progress::Finished => {
                        m.state = ManagerState::Finished;
                        m.pending_wake = None;
                        any_progress = true;
                    }
                    Progress::Paused => {
                        // A checkpoint pause (no hook is attached through
                        // the manager today): park the instance.
                        m.state = ManagerState::Stopped;
                        m.pending_wake = None;
                        any_progress = true;
                    }
                }
            }
            let runnable = self
                .managers
                .iter()
                .filter(|m| m.state == ManagerState::Running)
                .count();
            if runnable == 0 {
                return Ok(());
            }
            if any_progress {
                continue;
            }
            // Every running instance is idle: advance the shared clock to
            // the earliest wake and notify everyone.
            let wake = self
                .managers
                .iter()
                .filter(|m| m.state == ManagerState::Running)
                .filter_map(|m| m.pending_wake)
                .min();
            match wake {
                Some(t) => {
                    for m in self.managers.iter_mut() {
                        if m.state == ManagerState::Running {
                            m.core.advance_to(&m.workflow, t);
                        }
                    }
                }
                None => {
                    // Idle instances with no wake time cannot exist
                    // (run_for closes and finishes them), but guard anyway.
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::policies::FifoScheduler;
    use confluence_core::actors::{Collector, TimedSource};
    use confluence_core::graph::WorkflowBuilder;
    use confluence_core::token::Token;

    fn stream_workflow(n: u64, period: u64) -> (Workflow, Collector) {
        let probe = Collector::new();
        let schedule: Vec<(Timestamp, Token)> = (0..n)
            .map(|i| (Timestamp(i * period), Token::Int(i as i64)))
            .collect();
        let mut b = WorkflowBuilder::new("stream");
        let s = b.add_actor("src", TimedSource::new(schedule));
        let k = b.add_actor("probe", probe.actor());
        b.link((s, "out"), (k, "in")).unwrap();
        (b.build().unwrap(), probe)
    }

    fn fifo() -> Box<dyn Scheduler> {
        Box::new(FifoScheduler::new(5))
    }

    fn cost(per_firing: u64) -> Box<dyn CostModel> {
        Box::new(TableCostModel::uniform(Micros(per_firing), Micros::ZERO))
    }

    #[test]
    fn two_workflows_complete_on_shared_clock() {
        let mut exec = MultiWorkflowExecutor::new(Micros(500));
        let (wf1, p1) = stream_workflow(20, 1_000);
        let (wf2, p2) = stream_workflow(10, 2_000);
        let a = exec.add_workflow("one", wf1, fifo(), cost(100), 1);
        let b = exec.add_workflow("two", wf2, fifo(), cost(100), 1);
        exec.run().unwrap();
        assert_eq!(exec.manager(a).state(), ManagerState::Finished);
        assert_eq!(exec.manager(b).state(), ManagerState::Finished);
        assert_eq!(p1.len(), 20);
        assert_eq!(p2.len(), 10);
        assert_eq!(exec.len(), 2);
        assert!(!exec.is_empty());
    }

    #[test]
    fn shares_skew_latency_under_contention() {
        // Both workflows are overloaded; the high-share instance should
        // see materially lower response times.
        let mut exec = MultiWorkflowExecutor::new(Micros(1_000));
        let (wf1, p1) = stream_workflow(200, 100);
        let (wf2, p2) = stream_workflow(200, 100);
        exec.add_workflow("favored", wf1, fifo(), cost(150), 8);
        exec.add_workflow("starved", wf2, fifo(), cost(150), 1);
        exec.run().unwrap();
        let m1 = p1.mean_latency().unwrap();
        let m2 = p2.mean_latency().unwrap();
        assert!(
            m1 < m2,
            "favored ({m1}) should beat starved ({m2}) under contention"
        );
    }

    #[test]
    fn pause_and_resume_control() {
        let mut exec = MultiWorkflowExecutor::new(Micros(500));
        let (wf1, p1) = stream_workflow(5, 100);
        let idx = exec.add_workflow("w", wf1, fifo(), cost(10), 1);
        exec.pause(idx).unwrap();
        // A paused-only population terminates immediately (no runnable).
        exec.run().unwrap();
        assert_eq!(p1.len(), 0);
        assert_eq!(exec.manager(idx).state(), ManagerState::Paused);
        exec.resume(idx).unwrap();
        exec.run().unwrap();
        assert_eq!(p1.len(), 5);
        assert_eq!(exec.manager(idx).state(), ManagerState::Finished);
    }

    #[test]
    fn stop_is_permanent() {
        let mut exec = MultiWorkflowExecutor::new(Micros(500));
        let (wf1, p1) = stream_workflow(5, 100);
        let idx = exec.add_workflow("w", wf1, fifo(), cost(10), 1);
        exec.stop(idx).unwrap();
        exec.resume(idx).unwrap(); // no-op on stopped
        exec.run().unwrap();
        assert_eq!(exec.manager(idx).state(), ManagerState::Stopped);
        assert_eq!(p1.len(), 0);
        assert!(exec.pause(99).is_err());
    }
}
