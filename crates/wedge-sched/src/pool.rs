//! Pools of pre-warmed pooled recycled workers.
//!
//! A [`WorkerPool`] owns N long-lived recycled workers for one workload
//! (one callgate entry + policy + trusted argument), all spawned at pool
//! creation so no connection ever pays compartment-creation latency.
//! Callers [`WorkerPool::checkout`] a worker, drive it with
//! [`PoolCheckout::invoke`], and return it by dropping the checkout. On
//! checkin the worker's private scratch is **zeroized** (unless configured
//! off) so the next principal can observe nothing of the previous one —
//! the mitigation for the §3.3 recycled-callgate residue leak.
//!
//! Admission control: when every worker is busy, callers queue on the pool;
//! when more than [`PoolConfig::max_waiters`] callers are already queued,
//! further checkouts are refused with
//! [`WedgeError::ResourceExhausted`] — the same backpressure signal the
//! resource quotas use, so servers can degrade by rejecting instead of
//! collapsing.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use wedge_core::callgate::{CgEntryId, CgInput, CgOutput, TrustedArg};
use wedge_core::{RecycledWorkerHandle, SecurityPolicy, SthreadCtx, WedgeError};

use crate::metrics::{PoolCounters, PoolStats};

/// Pool sizing and checkin behaviour.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of workers pre-warmed at pool creation.
    pub size: usize,
    /// Maximum callers allowed to wait for a free worker before further
    /// checkouts are rejected outright.
    pub max_waiters: usize,
    /// Zeroize each worker's private scratch on checkin. Disabling this
    /// recovers the plain recycled-callgate behaviour (faster checkins,
    /// residue visible to the next principal) — measurable, and tested, as
    /// the isolation/throughput trade-off.
    pub scrub_on_checkin: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 4,
            max_waiters: 64,
            scrub_on_checkin: true,
        }
    }
}

struct PoolState {
    free: Vec<RecycledWorkerHandle>,
    waiters: usize,
    /// Workers not permanently retired (free + checked out).
    live: usize,
}

struct PoolInner {
    state: Mutex<PoolState>,
    available: Condvar,
    counters: PoolCounters,
    config: PoolConfig,
}

/// A pool of pre-warmed recycled workers for one workload.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.inner.config.size)
            .field("available", &self.available())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `config.size` workers running `entry` under `policy` (subset
    /// validated against `ctx`, which acts as the workers' creator) with the
    /// kernel-held `trusted` argument.
    pub fn prewarm(
        ctx: &SthreadCtx,
        entry: CgEntryId,
        policy: &SecurityPolicy,
        trusted: Option<TrustedArg>,
        config: PoolConfig,
    ) -> Result<WorkerPool, WedgeError> {
        let size = config.size.max(1);
        let mut free = Vec::with_capacity(size);
        for _ in 0..size {
            free.push(ctx.recycled_worker_spawn(entry, policy, trusted.clone())?);
        }
        Ok(WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    live: free.len(),
                    free,
                    waiters: 0,
                }),
                available: Condvar::new(),
                counters: PoolCounters::default(),
                config: PoolConfig { size, ..config },
            }),
        })
    }

    /// Number of workers in the pool.
    pub fn size(&self) -> usize {
        self.inner.config.size
    }

    /// Workers currently free.
    pub fn available(&self) -> usize {
        self.inner.state.lock().free.len()
    }

    /// Workers still alive (free + checked out); shrinks when a failed
    /// checkin scrub retires a worker.
    pub fn live(&self) -> usize {
        self.inner.state.lock().live
    }

    /// Pool activity counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.counters.snapshot()
    }

    /// Check a worker out, blocking while all workers are busy. Fails with
    /// [`WedgeError::ResourceExhausted`] when `max_waiters` callers are
    /// already queued (admission control), or with
    /// [`WedgeError::InvalidOperation`] once every worker has been retired.
    pub fn checkout(&self) -> Result<PoolCheckout, WedgeError> {
        let mut state = self.inner.state.lock();
        if state.free.is_empty() {
            if state.live == 0 {
                return Err(WedgeError::InvalidOperation(
                    "pool has no live workers left".to_string(),
                ));
            }
            if state.waiters >= self.inner.config.max_waiters {
                PoolCounters::bump(&self.inner.counters.rejected);
                return Err(WedgeError::ResourceExhausted {
                    resource: "pool checkout waiters".to_string(),
                    limit: self.inner.config.max_waiters as u64,
                    attempted: state.waiters as u64 + 1,
                });
            }
            PoolCounters::bump(&self.inner.counters.contended);
            state.waiters += 1;
            while state.free.is_empty() {
                if state.live == 0 {
                    // Every worker was retired while we waited.
                    state.waiters -= 1;
                    return Err(WedgeError::InvalidOperation(
                        "pool has no live workers left".to_string(),
                    ));
                }
                self.inner.available.wait(&mut state);
            }
            state.waiters -= 1;
        }
        let worker = state.free.pop().expect("non-empty after wait");
        PoolCounters::bump(&self.inner.counters.checkouts);
        Ok(PoolCheckout {
            worker: Some(worker),
            inner: self.inner.clone(),
        })
    }

    /// Check a worker out without blocking; `Ok(None)` means all busy.
    pub fn try_checkout(&self) -> Option<PoolCheckout> {
        let mut state = self.inner.state.lock();
        let worker = state.free.pop()?;
        PoolCounters::bump(&self.inner.counters.checkouts);
        Some(PoolCheckout {
            worker: Some(worker),
            inner: self.inner.clone(),
        })
    }
}

/// A checked-out worker; dropping it checks the worker back in (scrubbing
/// its private scratch first unless the pool disables that).
pub struct PoolCheckout {
    worker: Option<RecycledWorkerHandle>,
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for PoolCheckout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCheckout")
            .field("activation", &self.worker().activation())
            .finish()
    }
}

impl PoolCheckout {
    fn worker(&self) -> &RecycledWorkerHandle {
        self.worker.as_ref().expect("present until drop")
    }

    /// Invoke the checked-out worker.
    pub fn invoke(&self, input: CgInput) -> Result<CgOutput, WedgeError> {
        self.worker().invoke(input)
    }

    /// Invoke and downcast the result.
    pub fn invoke_expect<T: std::any::Any>(&self, input: CgInput) -> Result<T, WedgeError> {
        self.worker().invoke_expect(input)
    }

    /// The worker's activation compartment.
    pub fn activation(&self) -> wedge_core::CompartmentId {
        self.worker().activation()
    }
}

impl Drop for PoolCheckout {
    fn drop(&mut self) {
        let worker = self.worker.take().expect("present until drop");
        if self.inner.config.scrub_on_checkin {
            // A failed scrub (e.g. the kernel lost the compartment) must not
            // return a tainted worker; retire it and wake every waiter so
            // none of them sleeps forever on a pool that just shrank.
            if worker.scrub().is_err() {
                let mut state = self.inner.state.lock();
                state.live -= 1;
                PoolCounters::bump(&self.inner.counters.retired);
                self.inner.available.notify_all();
                return;
            }
            PoolCounters::bump(&self.inner.counters.scrubs);
        }
        let mut state = self.inner.state.lock();
        state.free.push(worker);
        PoolCounters::bump(&self.inner.counters.checkins);
        self.inner.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wedge_core::callgate::typed_entry;
    use wedge_core::Wedge;

    fn echo_pool(size: usize, max_waiters: usize) -> (Wedge, WorkerPool) {
        let wedge = Wedge::init();
        let entry = wedge
            .kernel()
            .cgate_register("echo", typed_entry(|_ctx, _t, n: u64| Ok(n * 2)));
        let pool = WorkerPool::prewarm(
            &wedge.root(),
            entry,
            &SecurityPolicy::deny_all(),
            None,
            PoolConfig {
                size,
                max_waiters,
                scrub_on_checkin: true,
            },
        )
        .unwrap();
        (wedge, pool)
    }

    /// Several pools on ONE kernel drive tagged reads on distinct tags from
    /// many OS threads at once — the workload the kernel's sharded segment
    /// table and per-sthread permission caches exist for. This pins the
    /// concurrent-correctness half (every read sees its own tag's bytes,
    /// no cross-pool interference), while `wedge-bench`'s `fast_path`
    /// experiment reports the throughput half.
    #[test]
    fn pools_on_one_kernel_hit_sharded_tables_concurrently() {
        use wedge_core::MemProt;

        let wedge = Wedge::init();
        let root = wedge.root();
        const POOLS: usize = 3;
        const THREADS_PER_POOL: usize = 2;
        const ROUNDS: usize = 50;

        let pools: Vec<(StdArc<WorkerPool>, u8)> = (0..POOLS)
            .map(|i| {
                let fill = b'a' + i as u8;
                let tag = root.tag_new().unwrap();
                let buf = root.smalloc_init(tag, &[fill; 32]).unwrap();
                let entry = wedge.kernel().cgate_register(
                    &format!("reader-{i}"),
                    typed_entry(move |ctx, _t, _n: u64| ctx.read(&buf, 0, 32)),
                );
                let mut policy = SecurityPolicy::deny_all();
                policy.sc_mem_add(tag, MemProt::Read);
                let pool = WorkerPool::prewarm(
                    &root,
                    entry,
                    &policy,
                    None,
                    PoolConfig {
                        size: THREADS_PER_POOL,
                        max_waiters: 16,
                        scrub_on_checkin: false,
                    },
                )
                .unwrap();
                (StdArc::new(pool), fill)
            })
            .collect();

        let threads: Vec<_> = pools
            .iter()
            .flat_map(|(pool, fill)| {
                (0..THREADS_PER_POOL).map({
                    let pool = pool.clone();
                    let fill = *fill;
                    move |_| {
                        let pool = pool.clone();
                        std::thread::spawn(move || {
                            for _ in 0..ROUNDS {
                                let worker = pool.checkout().expect("checkout");
                                let bytes =
                                    worker.invoke_expect::<Vec<u8>>(Box::new(1u64)).unwrap();
                                assert_eq!(bytes, vec![fill; 32], "cross-tag interference");
                            }
                        })
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("pool reader thread");
        }
        let reads = wedge.kernel().stats().mem_reads;
        assert!(reads >= (POOLS * THREADS_PER_POOL * ROUNDS) as u64);
    }

    #[test]
    fn prewarm_creates_all_workers_up_front() {
        let (wedge, pool) = echo_pool(3, 8);
        assert_eq!(pool.size(), 3);
        assert_eq!(pool.available(), 3);
        // Root + three pooled workers.
        assert_eq!(wedge.kernel().live_compartments(), 4);
        assert_eq!(wedge.kernel().stats().sthreads_created, 3);
    }

    #[test]
    fn checkout_invoke_checkin_roundtrip() {
        let (_wedge, pool) = echo_pool(2, 8);
        {
            let worker = pool.checkout().unwrap();
            assert_eq!(worker.invoke_expect::<u64>(Box::new(21u64)).unwrap(), 42);
            assert_eq!(pool.available(), 1);
        }
        assert_eq!(pool.available(), 2);
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 1);
        assert_eq!(stats.checkins, 1);
        assert_eq!(stats.scrubs, 1);
    }

    #[test]
    fn exhausted_pool_rejects_when_waiters_capped() {
        let (_wedge, pool) = echo_pool(1, 0);
        let held = pool.checkout().unwrap();
        let err = pool.checkout().unwrap_err();
        assert!(matches!(err, WedgeError::ResourceExhausted { .. }));
        assert!(pool.try_checkout().is_none());
        drop(held);
        assert!(pool.checkout().is_ok());
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn blocked_checkout_wakes_on_checkin() {
        let (_wedge, pool) = echo_pool(1, 4);
        let pool = StdArc::new(pool);
        let held = pool.checkout().unwrap();
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let worker = pool.checkout().unwrap();
                worker.invoke_expect::<u64>(Box::new(5u64)).unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 10);
        assert_eq!(pool.stats().contended, 1);
    }

    #[test]
    fn scrub_on_checkin_is_reflected_in_kernel_stats() {
        let (wedge, pool) = echo_pool(1, 2);
        for _ in 0..3 {
            let worker = pool.checkout().unwrap();
            worker.invoke_expect::<u64>(Box::new(1u64)).unwrap();
        }
        assert_eq!(wedge.kernel().stats().private_scrubs, 3);
        assert_eq!(pool.stats().scrubs, 3);
    }
}
