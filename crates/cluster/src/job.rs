//! Training-job lifecycle bookkeeping.

use simcore::{SimDuration, SimTime};
use workloads::TaskId;

/// Cluster-wide job identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler queue.
    Queued,
    /// Running on a device.
    Running,
    /// Temporarily paused (infeasible SLO or memory pressure).
    Paused,
    /// Finished.
    Completed,
}

/// One training job instance.
#[derive(Clone, Debug)]
pub struct TrainingJob {
    /// Identifier.
    pub id: JobId,
    /// The task type (a Tab. 3 row).
    pub task: TaskId,
    /// Submission time.
    pub submitted: SimTime,
    /// When it first started running.
    pub started: Option<SimTime>,
    /// When it completed.
    pub finished: Option<SimTime>,
    /// Current state.
    pub state: JobState,
    /// Device currently hosting the job (while running/paused).
    pub device: Option<usize>,
    /// Iterations completed.
    pub completed_iterations: f64,
    /// Total iterations required.
    pub total_iterations: u64,
    /// Times this job restarted after a crash or device failure.
    pub restarts: u32,
    /// Iterations redone because a fault rolled the job back to its
    /// last checkpoint.
    pub lost_iterations: f64,
}

impl TrainingJob {
    /// Creates a queued job.
    pub fn new(id: JobId, task: TaskId, submitted: SimTime, total_iterations: u64) -> Self {
        TrainingJob {
            id,
            task,
            submitted,
            started: None,
            finished: None,
            state: JobState::Queued,
            device: None,
            completed_iterations: 0.0,
            total_iterations,
            restarts: 0,
            lost_iterations: 0.0,
        }
    }

    /// Rolls the job back to `checkpoint_iters` after a fault,
    /// accounting the redone work and the restart.
    pub fn rollback_to(&mut self, checkpoint_iters: f64) {
        let lost = (self.completed_iterations - checkpoint_iters).max(0.0);
        self.lost_iterations += lost;
        self.completed_iterations = checkpoint_iters;
        self.restarts += 1;
    }

    /// Marks the job started on a device.
    pub fn start(&mut self, now: SimTime, device: usize) {
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.state = JobState::Running;
        self.device = Some(device);
    }

    /// Marks the job finished.
    pub fn finish(&mut self, now: SimTime) {
        self.finished = Some(now);
        self.state = JobState::Completed;
        self.device = None;
    }

    /// Remaining iterations.
    pub fn remaining_iterations(&self) -> f64 {
        (self.total_iterations as f64 - self.completed_iterations).max(0.0)
    }

    /// Waiting time before first start (`None` if never started).
    pub fn waiting_time(&self) -> Option<SimDuration> {
        self.started.map(|s| s - self.submitted)
    }

    /// Completion time (CT): submission to finish.
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.finished.map(|f| f - self.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_times() {
        let mut j = TrainingJob::new(JobId(1), TaskId(0), SimTime::from_secs(10.0), 100);
        assert_eq!(j.state, JobState::Queued);
        assert!(j.waiting_time().is_none());
        j.start(SimTime::from_secs(25.0), 3);
        assert_eq!(j.waiting_time().unwrap().as_secs(), 15.0);
        assert_eq!(j.device, Some(3));
        j.finish(SimTime::from_secs(100.0));
        assert_eq!(j.completion_time().unwrap().as_secs(), 90.0);
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.device, None);
    }

    #[test]
    fn restart_keeps_first_start_time() {
        let mut j = TrainingJob::new(JobId(2), TaskId(1), SimTime::ZERO, 100);
        j.start(SimTime::from_secs(5.0), 0);
        j.state = JobState::Paused;
        j.start(SimTime::from_secs(50.0), 1);
        assert_eq!(j.waiting_time().unwrap().as_secs(), 5.0);
    }

    #[test]
    fn rollback_accounts_lost_work() {
        let mut j = TrainingJob::new(JobId(4), TaskId(0), SimTime::ZERO, 1000);
        j.completed_iterations = 730.0;
        j.rollback_to(600.0);
        assert_eq!(j.completed_iterations, 600.0);
        assert_eq!(j.lost_iterations, 130.0);
        assert_eq!(j.restarts, 1);
        // A rollback to a point at or ahead of progress loses nothing.
        j.rollback_to(600.0);
        assert_eq!(j.lost_iterations, 130.0);
        assert_eq!(j.restarts, 2);
    }

    #[test]
    fn remaining_clamps_at_zero() {
        let mut j = TrainingJob::new(JobId(3), TaskId(0), SimTime::ZERO, 10);
        j.completed_iterations = 15.0;
        assert_eq!(j.remaining_iterations(), 0.0);
    }
}
