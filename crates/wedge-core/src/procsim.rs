//! Baseline concurrency/isolation primitives for the Figure 7 comparison.
//!
//! Figure 7 of the paper compares the creation/invocation latency of
//! pthreads, recycled callgates, sthreads, callgates and `fork`. The Wedge
//! primitives are measured directly from `wedge-core`; this module provides
//! the two familiar baselines:
//!
//! * [`PthreadSim`] — a bare OS thread spawn/join, the cheapest primitive.
//! * [`ForkSim`] — a fork-like primitive that, in addition to spawning a
//!   thread, duplicates the parent's entire address-space image and
//!   descriptor table, which is exactly the cost `fork` pays and an sthread
//!   avoids ("only those entries of the page table and those file
//!   descriptors specified in the security policy are copied", §6).

use std::thread;

/// A bare thread spawn/join — the pthread baseline.
pub struct PthreadSim;

impl PthreadSim {
    /// Spawn `body` on a new thread and wait for it (mirrors the
    /// microbenchmark's "create a pthread whose code immediately exits").
    pub fn spawn_and_join<R, F>(body: F) -> R
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        thread::spawn(body).join().expect("pthread body panicked")
    }
}

/// A fork-like primitive: the parent owns an address-space image that is
/// copied in full for every child.
pub struct ForkSim {
    /// The parent's memory image (page-table + data pages stand-in).
    image: Vec<u8>,
    /// The parent's descriptor table (names only; contents are irrelevant
    /// to the cost model).
    fd_table: Vec<String>,
}

impl ForkSim {
    /// Create a parent with an `image_bytes`-sized address space and
    /// `fd_count` open descriptors.
    pub fn new(image_bytes: usize, fd_count: usize) -> Self {
        ForkSim {
            image: vec![0xABu8; image_bytes],
            fd_table: (0..fd_count).map(|i| format!("fd{i}")).collect(),
        }
    }

    /// Fork: duplicate the full image and fd table, run `body` in the child
    /// "process" (a thread given the copies), and wait for it.
    pub fn fork_and_wait<R, F>(&self, body: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&[u8], &[String]) -> R + Send + 'static,
    {
        // The defining cost of fork: the child starts from a copy of
        // everything, whether or not it needs it.
        let image_copy = self.image.clone();
        let fd_copy = self.fd_table.clone();
        thread::spawn(move || body(&image_copy, &fd_copy))
            .join()
            .expect("forked child panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pthread_sim_runs_the_body() {
        let out = PthreadSim::spawn_and_join(|| 21 * 2);
        assert_eq!(out, 42);
    }

    #[test]
    fn fork_sim_copies_the_whole_image() {
        let parent = ForkSim::new(1 << 16, 8);
        let (len, fds) = parent.fork_and_wait(|image, fds| (image.len(), fds.len()));
        assert_eq!(len, 1 << 16);
        assert_eq!(fds, 8);
    }

    #[test]
    fn fork_child_modifications_do_not_affect_parent() {
        let parent = ForkSim::new(1024, 2);
        let child_first_byte = parent.fork_and_wait(|image, _| {
            let mut own = image.to_vec();
            own[0] = 0x00;
            own[0]
        });
        assert_eq!(child_first_byte, 0x00);
        assert_eq!(parent.image[0], 0xAB);
    }
}
