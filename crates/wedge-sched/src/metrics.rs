//! Placement counters, in the style of
//! [`wedge_core::KernelStats`]: cheap atomic counters accumulated on the
//! hot path, snapshotted into plain `Clone + PartialEq` structs for tests
//! and experiment harnesses.

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of link-placement activity, front-end-wide
/// ([`crate::Acceptor::stats`], [`crate::ShardSet::stats`]) or per shard
/// ([`crate::ShardStats`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Links accepted into a shard queue.
    pub submitted: u64,
    /// Links served to completion.
    pub completed: u64,
    /// Links refused by admission control (quota or full queues).
    pub rejected: u64,
    /// Links placed away from their first-choice shard (skips and
    /// kill-time re-routes).
    pub stolen: u64,
    /// Highest single-queue depth observed at enqueue time.
    pub peak_queue_depth: u64,
}

impl std::ops::AddAssign<&SchedStats> for SchedStats {
    /// Field-wise accumulation for aggregating per-shard counters, in the
    /// `KernelStats` style: counters sum, peak depths take the max. The
    /// exhaustive destructuring makes adding a field without extending
    /// this impl a compile error.
    fn add_assign(&mut self, other: &SchedStats) {
        let SchedStats {
            submitted,
            completed,
            rejected,
            stolen,
            peak_queue_depth,
        } = other;
        self.submitted += submitted;
        self.completed += completed;
        self.rejected += rejected;
        self.stolen += stolen;
        self.peak_queue_depth = self.peak_queue_depth.max(*peak_queue_depth);
    }
}

/// Internal atomic accumulator behind [`SchedStats`].
#[derive(Debug, Default)]
pub(crate) struct SchedCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) stolen: AtomicU64,
    pub(crate) peak_queue_depth: AtomicU64,
}

impl SchedCounters {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_depth(&self, depth: u64) {
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SchedStats {
        SchedStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_reflect_bumps() {
        let sched = SchedCounters::default();
        SchedCounters::bump(&sched.submitted);
        SchedCounters::bump(&sched.submitted);
        SchedCounters::bump(&sched.stolen);
        sched.observe_depth(3);
        sched.observe_depth(2);
        let snap = sched.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.stolen, 1);
        assert_eq!(snap.peak_queue_depth, 3);
    }

    #[test]
    fn sched_stats_aggregate_with_add_assign() {
        let mut total = SchedStats {
            submitted: 3,
            completed: 2,
            rejected: 1,
            stolen: 0,
            peak_queue_depth: 5,
        };
        total += &SchedStats {
            submitted: 4,
            completed: 4,
            rejected: 0,
            stolen: 2,
            peak_queue_depth: 3,
        };
        assert_eq!(total.submitted, 7);
        assert_eq!(total.completed, 6);
        assert_eq!(total.rejected, 1);
        assert_eq!(total.stolen, 2);
        assert_eq!(total.peak_queue_depth, 5, "peak takes the max, not the sum");
    }
}
