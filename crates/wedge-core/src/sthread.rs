//! Sthreads: the compartment API application code programs against.
//!
//! [`SthreadCtx`] is the reproduction's stand-in for "executing inside a
//! compartment": it names the current compartment and forwards every
//! privileged operation (tagged-memory access, descriptor I/O,
//! sthread creation, callgate invocation) to the simulated kernel, which
//! checks the compartment's policy. The API mirrors Table 1 of the paper:
//! `sthread_create`/`sthread_join`, `tag_new`/`tag_delete`,
//! `smalloc`/`sfree`, `smalloc_on`/`smalloc_off`,
//! `BOUNDARY_VAR`/`BOUNDARY_TAG`, `sc_*` policy calls (on
//! [`crate::SecurityPolicy`]) and `cgate`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use wedge_telemetry::trace;

use crate::callgate::{downcast_output, CgEntryId, CgInput, CgOutput, TrustedArg};
use crate::error::WedgeError;
use crate::fdtable::FdId;
use crate::kernel::{ChildKind, Kernel, PermCache, RecycledWorker};
use crate::memory::SBuf;
use crate::policy::{SecurityPolicy, Uid};
use crate::tag::{CompartmentId, MemProt, Tag};

/// Extract a readable message from a panic payload (shared by sthread
/// joins, recycled workers and the `wedge-sched` scheduler).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Retires a compartment when the sthread body finishes or unwinds.
struct ExitGuard {
    kernel: Arc<Kernel>,
    id: CompartmentId,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.kernel.compartment_exited(self.id);
    }
}

/// The execution context of a compartment (an sthread or a callgate
/// activation).
#[derive(Clone)]
pub struct SthreadCtx {
    kernel: Arc<Kernel>,
    id: CompartmentId,
    name: String,
    /// The `smalloc_on` redirection state (per sthread, as in the paper).
    smalloc_redirect: Arc<Mutex<Option<Tag>>>,
    /// Per-sthread permission cache (tag → `MemProt`, fd → `FdProt`),
    /// revalidated against the compartment's version cell. Shared by clones
    /// of the same context — they name the same compartment, so sharing
    /// just warms the cache faster.
    perm_cache: Arc<Mutex<PermCache>>,
    /// The compartment whose `cgate` / `cgate_recycled` call this
    /// activation is serving, as the kernel recorded it: the only
    /// compartment [`Self::transition_identity`] can act on. `None` for
    /// sthreads and recycled-sthread runs.
    invoker: Option<CompartmentId>,
}

impl std::fmt::Debug for SthreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SthreadCtx")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl SthreadCtx {
    pub(crate) fn new(kernel: Arc<Kernel>, id: CompartmentId, name: &str) -> Self {
        let perm_cache = Arc::new(Mutex::new(PermCache::new()));
        kernel.adopt_cache(&perm_cache);
        SthreadCtx {
            kernel,
            id,
            name: name.to_string(),
            smalloc_redirect: Arc::new(Mutex::new(None)),
            perm_cache,
            invoker: None,
        }
    }

    /// This compartment's identifier.
    pub fn id(&self) -> CompartmentId {
        self.id
    }

    /// This compartment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulated kernel this compartment belongs to.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The compartment's current policy as stored by the kernel.
    ///
    /// # Panics
    /// If the compartment has exited: the kernel retires it, and a context
    /// clone that outlives its sthread names nothing.
    pub fn policy(&self) -> SecurityPolicy {
        self.kernel
            .policy_of(self.id)
            .expect("compartment must exist while its ctx is alive")
    }

    /// The uid this compartment currently runs as.
    pub fn uid(&self) -> Uid {
        self.policy().uid
    }

    // ------------------------------------------------------------------
    // Tagged memory
    // ------------------------------------------------------------------

    /// `tag_new()`: create a tag (a fresh or recycled memory segment). The
    /// creating compartment is granted read-write access.
    pub fn tag_new(&self) -> Result<Tag, WedgeError> {
        self.kernel.tag_new(self.id)
    }

    /// `tag_delete()`: delete a tag and recycle its segment.
    pub fn tag_delete(&self, tag: Tag) -> Result<(), WedgeError> {
        self.kernel.tag_delete(self.id, tag)
    }

    /// `smalloc()`: allocate `size` bytes from the segment with `tag`.
    pub fn smalloc(&self, size: usize, tag: Tag) -> Result<SBuf, WedgeError> {
        self.kernel
            .smalloc(self.id, size, tag, Some(&self.perm_cache))
    }

    /// `sfree()`: free a buffer obtained from `smalloc` / `malloc`.
    pub fn sfree(&self, buf: &SBuf) -> Result<(), WedgeError> {
        self.kernel.sfree(self.id, buf, Some(&self.perm_cache))?;
        self.kernel.emit_free(self.id, buf.tag, buf.offset);
        Ok(())
    }

    /// `malloc()`: the legacy allocation entry point. If `smalloc_on` is
    /// active the allocation is redirected to the designated tag; otherwise
    /// it goes to the compartment's private (untagged) segment, which can
    /// never be granted to another compartment.
    pub fn malloc(&self, size: usize) -> Result<SBuf, WedgeError> {
        let redirect = *self.smalloc_redirect.lock();
        match redirect {
            Some(tag) => self.smalloc(size, tag),
            None => self
                .kernel
                .private_alloc(self.id, size, Some(&self.perm_cache)),
        }
    }

    /// `smalloc_on()`: redirect subsequent `malloc` calls to `tag`.
    pub fn smalloc_on(&self, tag: Tag) {
        *self.smalloc_redirect.lock() = Some(tag);
    }

    /// `smalloc_off()`: stop redirecting `malloc`.
    pub(crate) fn smalloc_off(&self) {
        *self.smalloc_redirect.lock() = None;
    }

    /// Read `len` bytes at `offset` within a tagged buffer.
    #[inline]
    pub fn read(&self, buf: &SBuf, offset: usize, len: usize) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .mem_read_vec(self.id, buf, offset, len, Some(&self.perm_cache))
    }

    /// Read the whole buffer.
    pub fn read_all(&self, buf: &SBuf) -> Result<Vec<u8>, WedgeError> {
        self.read(buf, 0, buf.len)
    }

    /// Zero-copy read: fill `dst` from the tagged buffer starting at
    /// `offset`. With a warm permission cache and no tracer installed this
    /// performs no heap allocation — the fast path the `fast_path` bench
    /// measures.
    #[inline]
    pub fn read_into(&self, buf: &SBuf, offset: usize, dst: &mut [u8]) -> Result<(), WedgeError> {
        self.kernel
            .mem_read_into(self.id, buf, offset, dst, Some(&self.perm_cache))
    }

    /// Write `data` at `offset` within a tagged buffer.
    pub fn write(&self, buf: &SBuf, offset: usize, data: &[u8]) -> Result<(), WedgeError> {
        self.kernel
            .mem_write(self.id, buf, offset, data, Some(&self.perm_cache))
    }

    /// Allocate a tagged buffer and initialise it with `data`.
    pub fn smalloc_init(&self, tag: Tag, data: &[u8]) -> Result<SBuf, WedgeError> {
        let buf = self.smalloc(data.len().max(1), tag)?;
        if !data.is_empty() {
            self.write(&buf, 0, data)?;
        }
        Ok(buf)
    }

    // ------------------------------------------------------------------
    // Globals / boundary variables
    // ------------------------------------------------------------------

    /// Read a snapshot global (every compartment holds a COW view).
    pub fn global_read(&self, name: &str) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .global_read(self.id, name, Some(&self.perm_cache))
    }

    /// Write this compartment's COW view of a snapshot global.
    pub fn global_write(&self, name: &str, value: &[u8]) -> Result<(), WedgeError> {
        self.kernel
            .global_write(self.id, name, value, Some(&self.perm_cache))
    }

    /// `BOUNDARY_VAR`: declare a global protected by the boundary tag
    /// `boundary_id` instead of living in the default snapshot.
    pub fn boundary_var(
        &self,
        name: &str,
        initial: &[u8],
        boundary_id: u32,
    ) -> Result<SBuf, WedgeError> {
        self.kernel
            .boundary_var(self.id, name, initial, boundary_id)
    }

    /// `BOUNDARY_TAG`: the tag protecting globals declared with
    /// `boundary_id`.
    pub fn boundary_tag(&self, boundary_id: u32) -> Result<Tag, WedgeError> {
        self.kernel.boundary_tag(boundary_id)
    }

    /// The tagged buffer behind a boundary global.
    pub fn boundary_buf(&self, name: &str) -> Result<SBuf, WedgeError> {
        self.kernel.boundary_buf(name)
    }

    // ------------------------------------------------------------------
    // File descriptors
    // ------------------------------------------------------------------

    /// Create a file-backed descriptor; the creator gets read-write access.
    pub fn fd_create_file(&self, name: &str, data: &[u8]) -> Result<FdId, WedgeError> {
        self.kernel.fd_create_file(self.id, name, data.to_vec())
    }

    /// Create a stream-backed descriptor; the creator gets read-write
    /// access.
    pub fn fd_create_stream(&self, name: &str) -> Result<FdId, WedgeError> {
        self.kernel.fd_create_stream(self.id, name)
    }

    /// Read up to `len` bytes from a descriptor.
    pub fn fd_read(&self, fd: FdId, len: usize) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .fd_read(self.id, fd, len, Some(&self.perm_cache))
    }

    /// Write bytes to a descriptor.
    pub fn fd_write(&self, fd: FdId, data: &[u8]) -> Result<usize, WedgeError> {
        self.kernel
            .fd_write(self.id, fd, data, Some(&self.perm_cache))
    }

    // ------------------------------------------------------------------
    // Crowbar instrumentation helpers
    // ------------------------------------------------------------------

    /// Record a function entry for Crowbar's shadow backtraces; the returned
    /// guard records the exit when dropped. With no tracer installed there
    /// is no frame to keep, and nothing is allocated.
    pub fn trace_fn(&self, function: &str) -> FrameGuard {
        FrameGuard(self.kernel.tracer_active().then(|| {
            self.kernel.emit_call(self.id, function, true);
            (self.kernel.clone(), self.id, function.to_string())
        }))
    }

    // ------------------------------------------------------------------
    // Sthreads
    // ------------------------------------------------------------------

    /// `sthread_create()`: spawn a new compartment running `body` under
    /// `policy`. The policy must not exceed this compartment's privileges.
    pub fn sthread_create<R, F>(
        &self,
        name: &str,
        policy: &SecurityPolicy,
        body: F,
    ) -> Result<SthreadHandle<R>, WedgeError>
    where
        R: Send + 'static,
        F: FnOnce(&SthreadCtx) -> R + Send + 'static,
    {
        let child_id = self
            .kernel
            .register_child(self.id, name, policy, ChildKind::Sthread)?;
        let child_ctx = SthreadCtx::new(self.kernel.clone(), child_id, name);
        let kernel = self.kernel.clone();
        // Request traces follow the work: a child sthread spawned while
        // serving a traced request inherits the caller's ambient trace.
        let parent_trace = trace::current();
        let join = thread::spawn(move || {
            let _trace = parent_trace.map(trace::push);
            let _guard = ExitGuard {
                kernel,
                id: child_id,
            };
            body(&child_ctx)
        });
        Ok(SthreadHandle {
            id: child_id,
            join: Some(join),
        })
    }

    /// Change the uid / filesystem root of the compartment that invoked this
    /// callgate activation — the idiom authentication callgates use to "log
    /// the user in". The kernel names that compartment when it runs the gate
    /// (`cgate`, and each `cgate_recycled` call), so a gate acts on its own
    /// caller and no other. Refused with `IdentityDenied` outside a callgate
    /// activation (an sthread, root included, or a recycled-sthread run) and
    /// unless this compartment runs as root.
    pub fn transition_identity(
        &self,
        new_uid: Uid,
        new_fs_root: Option<&str>,
    ) -> Result<(), WedgeError> {
        let invoker = self.invoker.ok_or_else(|| {
            WedgeError::IdentityDenied(format!("{} is not a callgate activation", self.name))
        })?;
        self.kernel
            .transition_identity(self.id, invoker, new_uid, new_fs_root)
    }

    /// Add a runtime memory grant to another compartment's policy
    /// (`policy_add`). This compartment must itself hold a grant on `tag`
    /// that allows delegating `prot` (or be unconfined); private tags can
    /// never be granted. The target's permission cache revalidates on its
    /// next access.
    pub fn grant_mem(
        &self,
        target: CompartmentId,
        tag: Tag,
        prot: MemProt,
    ) -> Result<(), WedgeError> {
        self.kernel.policy_add(self.id, target, tag, prot)
    }

    /// Revoke a memory grant from another compartment's policy
    /// (`policy_del`). Permitted for the unconfined root, the target's
    /// parent, or the target itself. Once this returns, no access that
    /// starts afterwards can succeed through a stale cached grant — the
    /// version-cell bump forces every per-sthread cache to revalidate.
    pub fn revoke_mem(&self, target: CompartmentId, tag: Tag) -> Result<(), WedgeError> {
        self.kernel.policy_del(self.id, target, tag)
    }

    // ------------------------------------------------------------------
    // Callgates
    // ------------------------------------------------------------------

    /// `cgate()`: invoke a callgate this compartment has been granted. The
    /// callgate runs as a separate compartment with *its own* permissions
    /// (plus `extra` argument-reading grants, which must be a subset of the
    /// caller's); the caller blocks until it returns. The activation is a
    /// child of the instance's *creator*, so a gate whose creator has exited
    /// can no longer be invoked (`UnknownCompartment`).
    pub fn cgate(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<CgOutput, WedgeError> {
        let prepared = self.kernel.cgate_prepare(self.id, entry, extra, false)?;
        let mut act_ctx = self.gate_compartment(
            prepared.creator,
            "cgate",
            entry,
            &effective_policy(&prepared.policy, extra),
            ChildKind::Activation,
        )?;
        act_ctx.invoker = Some(self.id);
        let act_id = act_ctx.id();
        let entry_fn = prepared.entry_fn;
        let trusted = prepared.trusted;
        let kernel = self.kernel.clone();
        let parent_trace = trace::current();
        let join = thread::spawn(move || {
            let _trace = parent_trace.map(trace::push);
            let _guard = ExitGuard { kernel, id: act_id };
            entry_fn(&act_ctx, trusted.as_ref(), input)
        });
        match join.join() {
            Ok(result) => result,
            Err(payload) => Err(WedgeError::SthreadPanicked(panic_message(payload))),
        }
    }

    /// Invoke a callgate and downcast its result to `T`.
    pub fn cgate_expect<T: std::any::Any>(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<T, WedgeError> {
        downcast_output(self.cgate(entry, extra, input)?)
    }

    /// Invoke a *recycled* callgate: the first invocation creates a
    /// long-lived worker compartment; later invocations reuse it, paying
    /// only a message round trip (the paper's futex fast path). Extra
    /// argument grants widen the worker's policy monotonically — the
    /// isolation-for-throughput trade-off §3.3 warns about.
    pub(crate) fn cgate_recycled(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<CgOutput, WedgeError> {
        let prepared = self.kernel.cgate_prepare(self.id, entry, extra, true)?;
        // Recycled workers are keyed by (creator, entry): as in the paper,
        // a recycled callgate is a long-lived sthread that successive
        // callers — potentially acting for different principals — reuse.
        let worker_key = prepared.creator;
        let worker = match self.kernel.recycled_worker(worker_key, entry) {
            Some(worker) => {
                self.kernel.widen_policy(worker.activation, extra);
                worker
            }
            None => {
                let act_ctx = self.gate_compartment(
                    prepared.creator,
                    "recycled",
                    entry,
                    &effective_policy(&prepared.policy, extra),
                    ChildKind::Activation,
                )?;
                let worker = spawn_worker_loop(
                    self.kernel.clone(),
                    act_ctx,
                    prepared.entry_fn.clone(),
                    prepared.trusted.clone(),
                );
                self.kernel
                    .store_recycled_worker(worker_key, entry, worker.clone());
                worker
            }
        };
        let _serialise = worker.call_lock.lock();
        worker.call(input, Some(self.id))
    }

    /// Invoke a recycled callgate and downcast its result to `T`.
    pub fn cgate_recycled_expect<T: std::any::Any>(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<T, WedgeError> {
        downcast_output(self.cgate_recycled(entry, extra, input)?)
    }

    /// Register the compartment a gate's code runs in — `prefix:gate-name`,
    /// a child of `parent` — and build its context.
    fn gate_compartment(
        &self,
        parent: CompartmentId,
        prefix: &str,
        entry: CgEntryId,
        policy: &SecurityPolicy,
        kind: ChildKind,
    ) -> Result<SthreadCtx, WedgeError> {
        let name = match self.kernel.cgate_name(entry) {
            Some(gate) => format!("{prefix}:{gate}"),
            None => format!("{prefix}:entry{}", entry.0),
        };
        let id = self.kernel.register_child(parent, &name, policy, kind)?;
        Ok(SthreadCtx::new(self.kernel.clone(), id, &name))
    }
}

/// The policy an activation runs under: the instance's creator-fixed policy
/// plus the caller's (already validated) `extra` argument grants. Borrowed
/// as-is when there is nothing to merge.
fn effective_policy<'a>(
    instance: &'a SecurityPolicy,
    extra: &SecurityPolicy,
) -> std::borrow::Cow<'a, SecurityPolicy> {
    if instance.covers_grants(extra) {
        return std::borrow::Cow::Borrowed(instance);
    }
    let mut effective = instance.clone();
    effective.merge_grants(extra);
    std::borrow::Cow::Owned(effective)
}

/// Start the long-lived thread behind a recycled worker: a loop that
/// receives inputs, runs the entry function inside the activation
/// compartment (catching panics), and sends results back.
fn spawn_worker_loop(
    kernel: Arc<Kernel>,
    mut act_ctx: SthreadCtx,
    entry_fn: crate::callgate::CallgateFn,
    trusted: Option<TrustedArg>,
) -> Arc<RecycledWorker> {
    let act_id = act_ctx.id();
    let (in_tx, in_rx) = crossbeam::channel::unbounded::<(
        CgInput,
        Option<wedge_telemetry::ActiveTrace>,
        Option<CompartmentId>,
    )>();
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<Result<CgOutput, WedgeError>>();
    let loop_kernel = kernel.clone();
    thread::spawn(move || {
        while let Ok((input, caller_trace, invoker)) = in_rx.recv() {
            // Each invocation runs under the *invoking* request's trace and
            // names *its* caller — the worker thread itself is long-lived
            // and serves a sequence of callers.
            let _trace = caller_trace.map(trace::push);
            act_ctx.invoker = invoker;
            let result = catch_unwind(AssertUnwindSafe(|| {
                entry_fn(&act_ctx, trusted.as_ref(), input)
            }))
            .unwrap_or_else(|payload| Err(WedgeError::SthreadPanicked(panic_message(payload))));
            if out_tx.send(result).is_err() {
                break;
            }
        }
        loop_kernel.compartment_exited(act_id);
    });
    Arc::new(RecycledWorker {
        call_lock: Mutex::new(()),
        tx: in_tx,
        rx: out_rx,
        activation: act_id,
    })
}

impl RecycledWorker {
    /// One round trip to the worker loop on behalf of `invoker` (`None` for
    /// a recycled-sthread run); the caller holds `call_lock` (or its
    /// [`RecycledSthread`]'s call lock).
    fn call(&self, input: CgInput, invoker: Option<CompartmentId>) -> Result<CgOutput, WedgeError> {
        fn exited<E>(_: E) -> WedgeError {
            WedgeError::InvalidOperation("recycled worker exited".into())
        }
        self.tx
            .send((input, trace::current(), invoker))
            .map_err(exited)?;
        self.rx.recv().map_err(exited)?
    }
}

/// A **recycled sthread** — §3.3's recycling applied to sthreads: one
/// long-lived compartment that serves successive principals and is
/// scrubbed between them. Its body is a registered entry taking a typed
/// job, so it cannot close over its creator's environment; its policy and
/// kernel-held trusted argument are the creator's choice. Any creator,
/// confined or not, may build one: the worker is a child sthread of the
/// creator, its policy subset-validated against the creator's when it is
/// spawned — by the first [`RecycledSthread::run`], and again after one has
/// been retired. Dropping the `RecycledSthread` shuts it down. What the
/// scrub wipes and what recycling does *not* restore:
/// `crates/wedge-core/README.md`.
pub struct RecycledSthread {
    creator: SthreadCtx,
    entry: CgEntryId,
    policy: SecurityPolicy,
    trusted: Option<TrustedArg>,
    /// The call lock: its holder owns the worker from job to scrub.
    worker: Mutex<Option<LiveWorker>>,
}

/// The compartment behind a [`RecycledSthread`] and the loop running its
/// body. Dropping it closes the loop's channel; the loop exits and the
/// kernel retires the compartment.
struct LiveWorker {
    ctx: SthreadCtx,
    /// The spawn-time policy every scrub resets to.
    baseline: SecurityPolicy,
    worker: Arc<RecycledWorker>,
}

impl RecycledSthread {
    /// Describe a recycled sthread of `creator` running `entry` under
    /// `policy`; nothing is spawned (or validated) until the first run.
    pub fn new(
        creator: &SthreadCtx,
        entry: CgEntryId,
        policy: &SecurityPolicy,
        trusted: Option<TrustedArg>,
    ) -> RecycledSthread {
        RecycledSthread {
            creator: creator.clone(),
            entry,
            policy: policy.clone(),
            trusted,
            worker: Mutex::new(None),
        }
    }

    /// Serve one principal: run the body on `job`, then scrub the
    /// compartment, under **one** hold of the call lock — no second caller
    /// can slip between a principal and its scrub. A worker whose body
    /// panicked or whose scrub failed is retired, never handed on; the next
    /// run spawns a fresh one. Counted as `kernel.sthreads.recycled_runs`,
    /// not as a callgate invocation.
    pub fn run(&self, job: CgInput) -> Result<CgOutput, WedgeError> {
        let mut slot = self.worker.lock();
        let worker = match &mut *slot {
            Some(worker) => worker,
            None => slot.insert(self.spawn()?),
        };
        let kernel = &self.creator.kernel;
        kernel.note_recycled_run();
        let result = worker.worker.call(job, None);
        // The scrub: every segment the worker created is wiped, every
        // descriptor and copy-on-write view dropped, its `smalloc_on`
        // redirection cleared and its policy reset to the baseline.
        worker.ctx.smalloc_off();
        let scrubbed = kernel.scrub_compartment(worker.ctx.id(), &worker.baseline);
        if scrubbed.is_err() || matches!(result, Err(WedgeError::SthreadPanicked(_))) {
            *slot = None;
        }
        result
    }

    /// Spawn the worker: a child sthread of the creator under the
    /// subset-validated policy, looping over the entry with the creator's
    /// trusted argument. Its stored policy (after uid/fs_root inheritance)
    /// is the scrub baseline.
    fn spawn(&self) -> Result<LiveWorker, WedgeError> {
        let kernel = &self.creator.kernel;
        let entry_fn = kernel
            .cgate_entry_fn(self.entry)
            .ok_or(WedgeError::UnknownCallgate(self.entry))?;
        let ctx = self.creator.gate_compartment(
            self.creator.id,
            "worker",
            self.entry,
            &self.policy,
            ChildKind::Sthread,
        )?;
        let worker = spawn_worker_loop(kernel.clone(), ctx.clone(), entry_fn, self.trusted.clone());
        let baseline = kernel.policy_of(ctx.id())?;
        Ok(LiveWorker {
            ctx,
            baseline,
            worker,
        })
    }

    /// Run and downcast the body's result to `T`.
    pub fn run_expect<T: std::any::Any>(&self, job: CgInput) -> Result<T, WedgeError> {
        downcast_output(self.run(job)?)
    }
}

/// RAII guard recording a function exit for Crowbar backtraces (empty when
/// the entry was not traced).
pub struct FrameGuard(Option<(Arc<Kernel>, CompartmentId, String)>);

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if let Some((kernel, id, function)) = &self.0 {
            kernel.emit_call(*id, function, false);
        }
    }
}

/// Handle to a running sthread; `join` retrieves the body's return value
/// (the analogue of `sthread_join`).
pub struct SthreadHandle<R> {
    id: CompartmentId,
    join: Option<thread::JoinHandle<R>>,
}

impl<R> SthreadHandle<R> {
    /// The spawned compartment's id.
    pub fn id(&self) -> CompartmentId {
        self.id
    }

    /// Wait for the sthread to finish and collect its return value. A panic
    /// in the sthread body surfaces as [`WedgeError::SthreadPanicked`].
    pub fn join(mut self) -> Result<R, WedgeError> {
        let handle = self
            .join
            .take()
            .ok_or_else(|| WedgeError::InvalidOperation("sthread already joined".into()))?;
        handle
            .join()
            .map_err(|payload| WedgeError::SthreadPanicked(panic_message(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgate::typed_entry;
    use crate::callgate::TrustedArg;
    use crate::policy::SecurityPolicy;
    use crate::tag::MemProt;
    use crate::Wedge;

    #[test]
    fn default_deny_child_cannot_read_parents_tag() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let secret = root.smalloc_init(tag, b"rsa-private-key").unwrap();

        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.read(&secret, 0, 15)
            })
            .unwrap();
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(WedgeError::ProtectionFault { .. })));
    }

    #[test]
    fn granted_child_reads_but_cannot_escalate_to_write() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"configuration").unwrap();

        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let handle = root
            .sthread_create("reader", &policy, move |ctx| {
                let read = ctx.read(&buf, 0, 13)?;
                let write_attempt = ctx.write(&buf, 0, b"overwritten!!");
                Ok::<_, WedgeError>((read, write_attempt.is_err()))
            })
            .unwrap();
        let (read, write_denied) = handle.join().unwrap().unwrap();
        assert_eq!(read, b"configuration");
        assert!(write_denied);
    }

    #[test]
    fn child_cannot_spawn_grandchild_with_more_privileges() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();

        let mut child_policy = SecurityPolicy::deny_all();
        child_policy.sc_mem_add(tag, MemProt::Read);
        let handle = root
            .sthread_create("child", &child_policy, move |ctx| {
                let mut grandchild = SecurityPolicy::deny_all();
                grandchild.sc_mem_add(tag, MemProt::ReadWrite);
                ctx.sthread_create("grandchild", &grandchild, |_ctx| ())
                    .map(|_| ())
            })
            .unwrap();
        let result = handle.join().unwrap();
        assert!(matches!(
            result,
            Err(WedgeError::PrivilegeEscalation { .. })
        ));
    }

    #[test]
    fn sthread_panics_are_reported() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let handle = root
            .sthread_create("crasher", &SecurityPolicy::deny_all(), |_ctx| {
                panic!("exploit crashed the worker");
            })
            .unwrap();
        match handle.join() {
            Err(WedgeError::SthreadPanicked(msg)) => assert!(msg.contains("exploit")),
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn malloc_respects_smalloc_on_redirection() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();

        // Without redirection: private allocation.
        let private = root.malloc(16).unwrap();
        assert!(root.kernel().is_private_tag(private.tag));

        // With redirection: allocation lands in the designated tag.
        root.smalloc_on(tag);
        let redirected = root.malloc(16).unwrap();
        assert_eq!(redirected.tag, tag);
        root.smalloc_off();
        let private_again = root.malloc(16).unwrap();
        assert!(root.kernel().is_private_tag(private_again.tag));
        assert_eq!(*root.smalloc_redirect.lock(), None);
    }

    #[test]
    fn callgate_runs_with_its_own_privileges() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let key_tag = root.tag_new().unwrap();
        let key = root.smalloc_init(key_tag, b"private-key-bytes").unwrap();

        // The callgate may read the key and returns only its length.
        let entry = wedge.kernel().cgate_register(
            "key_len",
            typed_entry(move |ctx, trusted, _input: ()| {
                let key_buf = trusted
                    .and_then(|t| t.downcast::<SBuf>())
                    .copied()
                    .expect("trusted arg is the key buffer");
                let key = ctx.read_all(&key_buf)?;
                Ok(key.len())
            }),
        );

        let mut cg_policy = SecurityPolicy::deny_all();
        cg_policy.sc_mem_add(key_tag, MemProt::Read);
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(entry, cg_policy, Some(TrustedArg::new(key)));

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // The worker itself cannot read the key...
                let direct = ctx.read(&key, 0, 5);
                // ...but may learn its length through the callgate.
                let len =
                    ctx.cgate_expect::<usize>(entry, &SecurityPolicy::deny_all(), Box::new(()))?;
                Ok::<_, WedgeError>((direct.is_err(), len))
            })
            .unwrap();
        let (direct_denied, len) = handle.join().unwrap().unwrap();
        assert!(direct_denied);
        assert_eq!(len, b"private-key-bytes".len());
    }

    #[test]
    fn callgate_invocation_requires_a_grant() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, _i: ()| Ok(0u32)));

        // Worker policy does NOT include the callgate.
        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.cgate(entry, &SecurityPolicy::deny_all(), Box::new(()))
                    .map(|_| ())
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WedgeError::CallgateDenied { .. })
        ));
    }

    #[test]
    fn extra_argument_grants_must_be_subset_of_caller() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let arg_tag = root.tag_new().unwrap();
        let secret_tag = root.tag_new().unwrap();
        let _secret = root.smalloc_init(secret_tag, b"secret").unwrap();

        let entry = wedge
            .kernel()
            .cgate_register("consume", typed_entry(|_ctx, _t, _i: ()| Ok(())));

        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_mem_add(arg_tag, MemProt::ReadWrite);
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // Granting the callgate access to a tag the worker itself
                // cannot touch must be refused.
                let mut extra = SecurityPolicy::deny_all();
                extra.sc_mem_add(secret_tag, MemProt::Read);
                let escalate = ctx.cgate(entry, &extra, Box::new(()));
                // Granting access to the worker's own argument tag is fine.
                let mut ok_extra = SecurityPolicy::deny_all();
                ok_extra.sc_mem_add(arg_tag, MemProt::Read);
                let ok = ctx.cgate(entry, &ok_extra, Box::new(()));
                (escalate.is_err(), ok.is_ok())
            })
            .unwrap();
        let (escalation_refused, legitimate_ok) = handle.join().unwrap();
        assert!(escalation_refused);
        assert!(legitimate_ok);
    }

    #[test]
    fn recycled_callgates_reuse_a_worker() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("increment", typed_entry(|_ctx, _t, n: u64| Ok(n + 1)));
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                let mut results = Vec::new();
                for i in 0..5u64 {
                    results.push(
                        ctx.cgate_recycled_expect::<u64>(
                            entry,
                            &SecurityPolicy::deny_all(),
                            Box::new(i),
                        )
                        .unwrap(),
                    );
                }
                results
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), vec![1, 2, 3, 4, 5]);
        let stats = wedge.kernel().stats();
        assert_eq!(stats.recycled_invocations, 5);
        // Only one activation compartment was ever created for the gate.
        assert_eq!(stats.callgate_invocations, 1);
    }

    #[test]
    fn trusted_argument_is_not_forgeable_by_caller() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge.kernel().cgate_register(
            "reveal_trusted",
            typed_entry(|_ctx, trusted, _caller_input: String| {
                Ok(trusted
                    .and_then(|t| t.downcast::<String>())
                    .cloned()
                    .unwrap_or_default())
            }),
        );
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(
            entry,
            SecurityPolicy::deny_all(),
            Some(TrustedArg::new(String::from("creator-chosen"))),
        );
        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // The caller supplies its own input, but the trusted value the
                // callgate sees is the creator's, fetched from the kernel.
                ctx.cgate_expect::<String>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new("attacker-chosen".to_string()),
                )
                .unwrap()
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), "creator-chosen");
    }

    // ------------------------------------------------------------------
    // Recycled sthreads
    // ------------------------------------------------------------------

    /// Wait (without sleeping) until the kernel's live compartments settle
    /// at `want`: retired workers notice their closed channel on their own
    /// thread.
    fn live_settles_at(kernel: &Kernel, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while kernel.live_compartments() != want {
            assert!(
                std::time::Instant::now() < deadline,
                "live compartments stuck at {}, want {want}",
                kernel.live_compartments()
            );
            std::thread::yield_now();
        }
    }

    /// What a principal's body left lying around, as an exploit that
    /// remembers handles across runs would see it.
    struct Leftovers {
        scratch: SBuf,
        tagged: SBuf,
        fd: FdId,
    }

    /// The §3.3 residue argument, for everything a body can leave in the
    /// kernel: serving principal A the body allocates private scratch,
    /// makes a tag, opens a descriptor and reads through a grant made to
    /// it mid-life (warming its permission cache on it); serving B it
    /// finds none of that — and a run that kept nothing bumps nothing.
    #[test]
    fn recycled_sthread_serves_the_next_principal_from_a_clean_compartment() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let kernel = wedge.kernel().clone();
        let shared_tag = root.tag_new().unwrap();
        let shared = root.smalloc_init(shared_tag, b"granted mid-life").unwrap();
        let left: Arc<Mutex<Option<Leftovers>>> = Arc::default();
        let left_behind = left.clone();
        let (id_out, id_in) = std::sync::mpsc::channel();
        let entry = kernel.cgate_register(
            "leaky-body",
            typed_entry(move |ctx, _t, principal: &'static str| {
                if principal == "idle" {
                    id_out.send(ctx.id()).unwrap();
                    return Ok(Vec::new());
                }
                let Some(prev) = left.lock().take() else {
                    // Principal A: leave something in every place there is.
                    assert_eq!(ctx.read_all(&shared)?, b"granted mid-life");
                    assert_eq!(ctx.read_all(&shared)?, b"granted mid-life");
                    let scratch = ctx.malloc(16)?;
                    ctx.write(&scratch, 0, b"A's private data")?;
                    let tagged = ctx.smalloc_init(ctx.tag_new()?, b"A's tagged data")?;
                    let fd = ctx.fd_create_file("/tmp/a", b"A's file")?;
                    ctx.smalloc_on(tagged.tag);
                    *left.lock() = Some(Leftovers {
                        scratch,
                        tagged,
                        fd,
                    });
                    return Ok(Vec::new());
                };
                // Principal B: what of A's can still be reached?
                let mut found = Vec::new();
                for (what, probe) in [
                    ("scratch", ctx.read_all(&prev.scratch)),
                    ("tagged", ctx.read_all(&prev.tagged)),
                    ("fd", ctx.fd_read(prev.fd, usize::MAX / 2)),
                    ("grant", ctx.read_all(&shared)),
                ] {
                    match probe {
                        // The grant is gone before the segment is looked up.
                        Err(WedgeError::ProtectionFault { .. } | WedgeError::UnknownFd(_)) => {}
                        other => found.push(format!("{what}: {other:?}")),
                    }
                }
                // Fresh scratch is private again (the redirection is gone)
                // and reads as zeros, though it may recycle A's segment.
                let fresh = ctx.malloc(16)?;
                if !ctx.kernel().is_private_tag(fresh.tag) || ctx.read_all(&fresh)? != [0u8; 16] {
                    found.push("fresh scratch".to_string());
                }
                Ok(found)
            }),
        );
        let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
        let run = |principal: &'static str| {
            sthread
                .run_expect::<Vec<String>>(Box::new(principal))
                .unwrap()
        };

        // Nothing exists until the first run; idle runs leave the cell alone.
        assert_eq!(kernel.live_compartments(), 1);
        run("idle");
        assert_eq!(kernel.live_compartments(), 2);
        let worker = id_in.recv().unwrap();
        run("idle");
        assert_eq!(
            kernel.version_of(worker),
            Some(0),
            "a scrub with nothing to do bumps nothing"
        );

        root.grant_mem(worker, shared_tag, MemProt::Read).unwrap();
        assert!(run("A").is_empty());
        // Wiped, not merely ungranted: even the unconfined root finds no
        // segment and no descriptor behind A's handles.
        let (tagged, fd) = left_behind
            .lock()
            .as_ref()
            .map(|l| (l.tagged, l.fd))
            .unwrap();
        assert_eq!(
            root.read_all(&tagged),
            Err(WedgeError::UnknownTag(tagged.tag))
        );
        assert_eq!(
            root.fd_read(fd, usize::MAX / 2),
            Err(WedgeError::UnknownFd(fd))
        );
        assert_eq!(
            kernel.version_of(worker),
            Some(5),
            "the grant, A's scratch, tag and descriptor, and the scrub that reset them"
        );
        assert_eq!(run("B"), Vec::<String>::new(), "B reached A's leftovers");
        assert!(kernel.policy_of(worker).unwrap().mem_grants().is_empty());
        // Every scrub counts, whatever it found; a run is not a callgate.
        let stats = kernel.stats();
        assert_eq!(stats.private_scrubs, 4);
        assert_eq!(stats.sthreads_created, 1);
        assert_eq!(stats.recycled_invocations + stats.callgate_invocations, 0);
    }

    /// A tainted worker is never handed on: one whose body panicked, and
    /// one whose scrub failed (here: the kernel lost the compartment), is
    /// retired, and the next run is served by a fresh compartment.
    #[test]
    fn a_recycled_sthread_whose_body_panics_or_whose_scrub_fails_is_replaced() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let kernel = wedge.kernel().clone();
        let telemetry = wedge_telemetry::Telemetry::new();
        kernel.instrument(&telemetry);
        let entry = kernel.cgate_register(
            "fragile-body",
            typed_entry(|ctx, _t, crash: bool| {
                assert!(!crash, "exploit crashed the body");
                Ok(ctx.id())
            }),
        );
        let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
        let serve = || {
            sthread
                .run_expect::<CompartmentId>(Box::new(false))
                .unwrap()
        };

        let first = serve();
        assert_eq!(serve(), first, "one compartment serves successive runs");
        match sthread.run(Box::new(true)) {
            Err(WedgeError::SthreadPanicked(msg)) => assert!(msg.contains("exploit")),
            other => panic!("expected the panic report, got {:?}", other.map(|_| ())),
        }
        let second = serve();
        assert!(second > first, "a fresh compartment, never a reused id");
        live_settles_at(&kernel, 2);
        assert!(kernel.name_of(first).is_err(), "the crashed one retired");

        // The body still answers, but its compartment cannot be scrubbed.
        kernel.compartment_exited(second);
        assert_eq!(serve(), second);
        let third = serve();
        assert!(third > second);
        live_settles_at(&kernel, 2);

        assert_eq!(kernel.stats().sthreads_created, 3);
        let runs = telemetry
            .snapshot()
            .counter("kernel.sthreads.recycled_runs");
        assert_eq!(runs, 6, "every run is counted, served or crashed");
    }

    /// `run` holds the call lock from job to scrub: with two threads
    /// running principals through one recycled sthread as fast as they can,
    /// no body ever finds another principal's scratch (a job slipped in
    /// before the scrub) or loses its own mid-job (a scrub slipped in
    /// under the job).
    #[test]
    fn run_never_interleaves_a_principal_with_anothers_scrub() {
        const ROUNDS: u64 = 400;
        let wedge = Wedge::init();
        let root = wedge.root();
        let stash: Arc<Mutex<Option<SBuf>>> = Arc::default();
        let entry = wedge.kernel().cgate_register(
            "stash-body",
            typed_entry(move |ctx, _t, principal: u64| {
                let residue = stash.lock().take().map(|prev| ctx.read_all(&prev));
                let scratch = ctx.malloc(8)?;
                ctx.write(&scratch, 0, &principal.to_le_bytes())?;
                *stash.lock() = Some(scratch);
                // Every chance for the other caller to get in.
                std::thread::yield_now();
                let intact = ctx.read_all(&scratch) == Ok(principal.to_le_bytes().to_vec());
                Ok((matches!(residue, Some(Ok(_))), intact))
            }),
        );
        let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for caller in 0..2u64 {
                let (sthread, start) = (&sthread, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let (residue, intact) = sthread
                            .run_expect::<(bool, bool)>(Box::new(caller << 32 | round))
                            .unwrap();
                        assert!(
                            !residue,
                            "caller {caller} round {round}: ran before a scrub"
                        );
                        assert!(intact, "caller {caller} round {round}: scrubbed mid-job");
                    }
                });
            }
        });
        assert_eq!(wedge.kernel().stats().private_scrubs, 2 * ROUNDS);
        assert_eq!(wedge.kernel().live_compartments(), 2);
    }

    /// Several recycled sthreads on ONE kernel drive tagged reads on
    /// distinct tags from many OS threads at once — the workload the
    /// sharded segment table and per-sthread permission caches exist for:
    /// every read sees its own tag's bytes, whatever the others do.
    #[test]
    fn recycled_sthreads_on_one_kernel_read_their_own_tags_concurrently() {
        const STHREADS: usize = 3;
        const CALLERS: usize = 2;
        const ROUNDS: usize = 50;
        let wedge = Wedge::init();
        let root = wedge.root();
        let sthreads: Vec<(RecycledSthread, u8)> = (0..STHREADS)
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
                (RecycledSthread::new(&root, entry, &policy, None), fill)
            })
            .collect();
        std::thread::scope(|scope| {
            for (sthread, fill) in &sthreads {
                for _ in 0..CALLERS {
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            let bytes = sthread.run_expect::<Vec<u8>>(Box::new(1u64)).unwrap();
                            assert_eq!(bytes, vec![*fill; 32], "cross-tag interference");
                        }
                    });
                }
            }
        });
        let stats = wedge.kernel().stats();
        assert!(stats.mem_reads >= (STHREADS * CALLERS * ROUNDS) as u64);
        assert_eq!(stats.sthreads_created, STHREADS as u64);
    }

    /// The worker's policy is subset-validated against its creator's when
    /// the first run spawns it: a confined creator cannot hand its worker a
    /// grant it lacks, and an unknown entry is refused.
    #[test]
    fn recycled_sthread_policy_is_subset_validated() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, _i: ()| Ok(0u8)));
        let handle = root
            .sthread_create("confined", &SecurityPolicy::deny_all(), move |ctx| {
                let mut wanted = SecurityPolicy::deny_all();
                wanted.sc_mem_add(tag, MemProt::Read);
                RecycledSthread::new(ctx, entry, &wanted, None)
                    .run(Box::new(()))
                    .map(|_| ())
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WedgeError::PrivilegeEscalation { .. })
        ));

        let unknown = crate::CgEntryId(9999);
        assert!(matches!(
            RecycledSthread::new(&root, unknown, &SecurityPolicy::deny_all(), None)
                .run(Box::new(())),
            Err(WedgeError::UnknownCallgate(_))
        ));
        assert_eq!(wedge.kernel().stats().sthreads_created, 1);
    }

    /// The sneakier §3.3 residue channel: a body that stashes a principal's
    /// bytes in a tag it creates itself (not private scratch). The scrub
    /// wipes the tag and rolls back the implicit grant `tag_new` made.
    #[test]
    fn scrub_wipes_worker_created_tagged_segments_and_resets_policy() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let stash: Arc<Mutex<Option<SBuf>>> = Arc::default();
        let entry = wedge.kernel().cgate_register(
            "tagged_stash_or_dump",
            typed_entry(move |ctx, _t, input: Vec<u8>| {
                let mut stash = stash.lock();
                if input.is_empty() {
                    let dumped = match stash.as_ref() {
                        Some(prev) => ctx.read_all(prev).unwrap_or_default(),
                        None => Vec::new(),
                    };
                    return Ok((dumped, ctx.id()));
                }
                let tag = ctx.tag_new()?;
                *stash = Some(ctx.smalloc_init(tag, &input)?);
                let granted = ctx.kernel().policy_of(ctx.id())?.mem_grants().len();
                assert_eq!(granted, 1, "tag_new granted the worker RW on its stash tag");
                Ok((Vec::new(), ctx.id()))
            }),
        );
        let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
        let run = |input: &[u8]| {
            sthread
                .run_expect::<(Vec<u8>, CompartmentId)>(Box::new(input.to_vec()))
                .unwrap()
        };
        let (_, worker) = run(b"tagged secret");
        let (leaked, same) = run(b"");
        assert_eq!(same, worker, "one compartment serves both principals");
        assert!(leaked.is_empty(), "scrub must wipe worker-created tags");
        let policy_after = wedge.kernel().policy_of(worker).unwrap();
        assert!(policy_after.mem_grants().is_empty());
    }

    /// Dropping a `RecycledSthread` shuts its worker down and retires the
    /// compartment.
    #[test]
    fn dropping_a_recycled_sthread_retires_its_compartment() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));
        let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
        assert_eq!(sthread.run_expect::<u64>(Box::new(7u64)).unwrap(), 7);
        assert_eq!(wedge.kernel().live_compartments(), 2);
        drop(sthread);
        live_settles_at(wedge.kernel(), 1);
    }

    /// Retirement, from the attacker's side: a context smuggled out of an
    /// sthread body — with a permission cache that was warm on everything
    /// the sthread had been granted a microsecond earlier — can read,
    /// write, use and invoke nothing once the sthread has exited; the
    /// attempts land in the violation log; and no later compartment ever
    /// answers to the old id.
    #[test]
    fn a_smuggled_context_is_useless_once_its_sthread_exits() {
        use crate::kernel::Kernel;
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root");
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"granted page").unwrap();
        let fd = root.fd_create_file("/etc/motd", b"hello").unwrap();
        let entry = kernel.cgate_register("echo", typed_entry(|_ctx, _t, n: u64| Ok(n)));
        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::ReadWrite);
        policy.sc_fd_add(fd, crate::FdProt::Read);
        policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let (smuggle, smuggled) = std::sync::mpsc::channel();
        let handle = root
            .sthread_create("leaky", &policy, move |ctx| {
                // Everything works — and is cached — while it lives.
                let no_extra = SecurityPolicy::deny_all();
                assert_eq!(ctx.read(&buf, 0, 7).unwrap(), b"granted");
                ctx.write(&buf, 0, b"G").unwrap();
                assert_eq!(ctx.fd_read(fd, 2).unwrap(), b"he");
                assert_eq!(
                    ctx.cgate_expect::<u64>(entry, &no_extra, Box::new(7u64))
                        .unwrap(),
                    7
                );
                let own_tag = ctx.tag_new().unwrap();
                smuggle.send((ctx.clone(), own_tag)).unwrap();
            })
            .unwrap();
        let leaked_id = handle.id();
        handle.join().unwrap();
        let (ghost, own_tag): (SthreadCtx, Tag) = smuggled.recv().unwrap();
        assert_eq!(ghost.id(), leaked_id);
        kernel.clear_violations();

        let unknown = |e: &WedgeError| *e == WedgeError::UnknownCompartment(leaked_id);
        let no_extra = SecurityPolicy::deny_all();
        assert!(unknown(&ghost.read(&buf, 0, 7).unwrap_err()));
        assert!(unknown(&ghost.write(&buf, 0, b"x").unwrap_err()));
        assert!(unknown(&ghost.fd_read(fd, 2).unwrap_err()));
        assert!(matches!(
            ghost.cgate(entry, &no_extra, Box::new(7u64)),
            Err(WedgeError::CallgateDenied { .. })
        ));
        assert!(ghost
            .cgate_recycled(entry, &no_extra, Box::new(7u64))
            .is_err());
        assert!(unknown(
            &ghost
                .sthread_create("orphan", &no_extra, |_| ())
                .map(|_| ())
                .unwrap_err()
        ));
        assert!(unknown(&ghost.tag_new().unwrap_err()));
        assert!(unknown(&ghost.malloc(8).unwrap_err()));
        assert!(unknown(&ghost.smalloc(8, tag).unwrap_err()));
        assert!(RecycledSthread::new(&ghost, entry, &no_extra, None)
            .run(Box::new(7u64))
            .is_err());
        // A tag it created outlives it (it could have been granted on)
        // — but is no longer its to delete; the root still can.
        assert!(unknown(&ghost.tag_delete(own_tag).unwrap_err()));
        root.tag_delete(own_tag).unwrap();
        // The shared bytes were not touched after exit.
        assert_eq!(root.read(&buf, 0, 7).unwrap(), b"Granted");

        // The data-path denials are on the record, attributed to the
        // dead id, and emulation mode does not wave them through.
        let violations = kernel.violations();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.compartment == leaked_id && !v.emulated));
        kernel.set_emulation(true);
        assert!(unknown(&ghost.read(&buf, 0, 7).unwrap_err()));
        kernel.set_emulation(false);

        // Ids are never reused: a later compartment is a different one,
        // and the ghost stays dead after it exists.
        let later = root
            .sthread_create("later", &policy, |ctx| ctx.id())
            .unwrap();
        let later_id = later.join().unwrap();
        assert!(later_id > leaked_id);
        assert!(unknown(&ghost.read(&buf, 0, 7).unwrap_err()));
        assert_eq!(kernel.live_compartments(), 1, "only the root remains");
    }

    /// A recycled worker belongs to the compartment that created the gate
    /// instance; when that creator retires, the worker is shut down and
    /// retires too — nothing of either is left in the kernel.
    #[test]
    fn recycled_workers_retire_with_their_creator() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("echo", typed_entry(|_ctx, _t, n: u64| Ok(n)));
        let before = wedge.kernel().footprint();
        let creator = root
            .sthread_create("creator", &SecurityPolicy::deny_all(), move |ctx| {
                let mut caller_policy = SecurityPolicy::deny_all();
                caller_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
                let kernel = ctx.kernel().clone();
                ctx.sthread_create("caller", &caller_policy, move |ctx| {
                    let echoed = ctx.cgate_recycled_expect::<u64>(
                        entry,
                        &SecurityPolicy::deny_all(),
                        Box::new(9u64),
                    );
                    // creator + caller + the recycled worker, besides root.
                    (echoed, kernel.live_compartments())
                })
                .unwrap()
                .join()
                .unwrap()
            })
            .unwrap();
        let (echoed, live_during) = creator.join().unwrap();
        assert_eq!(echoed.unwrap(), 9);
        assert_eq!(live_during, 4);
        // The worker notices its closed channel asynchronously.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while wedge.kernel().live_compartments() > 1 {
            assert!(std::time::Instant::now() < deadline, "worker never retired");
            std::thread::yield_now();
        }
        assert_eq!(wedge.kernel().footprint(), before);
    }

    #[test]
    fn frame_guard_emits_call_events() {
        let wedge = Wedge::init();
        let sink = Arc::new(crate::trace::CountingSink::default());
        wedge.kernel().set_tracer(Some(sink.clone()));
        let root = wedge.root();
        {
            let _frame = root.trace_fn("handle_request");
            let _inner = root.trace_fn("parse_headers");
        }
        assert_eq!(
            sink.calls.load(std::sync::atomic::Ordering::Relaxed),
            4,
            "two entries and two exits"
        );
    }
}
