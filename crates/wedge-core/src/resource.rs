//! Per-compartment resource quotas — the DoS mitigation the paper leaves as
//! an open limitation.
//!
//! §7 of the paper is explicit: *"Wedge provides no direct mechanism to
//! prevent DoS attacks, either; an exploited sthread may maliciously consume
//! CPU and memory."* This module is an **extension** beyond the published
//! system that closes that gap in the reproduction's simulated kernel: a
//! [`ResourceLimits`] quota set can be attached to a compartment by wrapping
//! its [`SthreadCtx`] in a [`LimitedCtx`]. Every quota-relevant operation
//! performed through the wrapper (tag creation, tagged allocation, sthread
//! spawning, callgate invocation, and a voluntary CPU-tick account) is
//! charged against the quota; exceeding it fails with
//! [`WedgeError::ResourceExhausted`] instead of silently consuming the
//! machine.
//!
//! Children spawned through [`LimitedCtx::sthread_create`] share their
//! parent's accountant, so a compartment cannot escape its budget by
//! fork-bombing: the whole subtree draws from one allowance, mirroring how a
//! kernel cgroup would account a process subtree.
//!
//! The wrapper is deliberately *cooperative* on the CPU axis (code must call
//! [`LimitedCtx::charge_ticks`] or route reads/writes through the wrapper,
//! which charges one tick per byte moved): without kernel preemption a
//! userspace library can meter work but not interrupt it. The memory, tag,
//! sthread and callgate axes are enforced unconditionally because all of
//! those operations already go through the simulated kernel.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::callgate::{CgEntryId, CgInput, CgOutput};
use crate::error::WedgeError;
use crate::memory::SBuf;
use crate::policy::SecurityPolicy;
use crate::sthread::{SthreadCtx, SthreadHandle};
use crate::tag::Tag;

/// The resource classes a quota can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Bytes of live tagged (and private) memory allocated via the wrapper.
    TaggedBytes,
    /// Number of live tags created via the wrapper.
    Tags,
    /// Number of sthreads spawned via the wrapper (cumulative).
    Sthreads,
    /// Number of callgate invocations made via the wrapper (cumulative).
    CallgateInvocations,
    /// Voluntarily accounted CPU ticks (one tick per byte moved by wrapped
    /// reads/writes, plus explicit [`LimitedCtx::charge_ticks`] calls).
    CpuTicks,
}

impl ResourceKind {
    /// Human-readable name used in error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceKind::TaggedBytes => "tagged-memory bytes",
            ResourceKind::Tags => "memory tags",
            ResourceKind::Sthreads => "sthread spawns",
            ResourceKind::CallgateInvocations => "callgate invocations",
            ResourceKind::CpuTicks => "cpu ticks",
        }
    }
}

/// A quota set. `None` on an axis means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum live tagged bytes.
    pub max_tagged_bytes: Option<u64>,
    /// Maximum live tags.
    pub max_tags: Option<u64>,
    /// Maximum cumulative sthread spawns.
    pub max_sthreads: Option<u64>,
    /// Maximum cumulative callgate invocations.
    pub max_callgate_invocations: Option<u64>,
    /// Maximum accounted CPU ticks.
    pub max_cpu_ticks: Option<u64>,
}

impl ResourceLimits {
    /// No limits on any axis (the behaviour of the published system).
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// Bound live tagged memory.
    pub fn with_tagged_bytes(mut self, max: u64) -> Self {
        self.max_tagged_bytes = Some(max);
        self
    }

    /// Bound live tag count.
    pub fn with_tags(mut self, max: u64) -> Self {
        self.max_tags = Some(max);
        self
    }

    /// Bound cumulative sthread spawns.
    pub fn with_sthreads(mut self, max: u64) -> Self {
        self.max_sthreads = Some(max);
        self
    }

    /// Bound accounted CPU ticks.
    pub fn with_cpu_ticks(mut self, max: u64) -> Self {
        self.max_cpu_ticks = Some(max);
        self
    }

    /// The limit configured for `kind`, if any.
    pub fn limit(&self, kind: ResourceKind) -> Option<u64> {
        match kind {
            ResourceKind::TaggedBytes => self.max_tagged_bytes,
            ResourceKind::Tags => self.max_tags,
            ResourceKind::Sthreads => self.max_sthreads,
            ResourceKind::CallgateInvocations => self.max_callgate_invocations,
            ResourceKind::CpuTicks => self.max_cpu_ticks,
        }
    }
}

/// A snapshot of current usage under an accountant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Live tagged bytes.
    pub tagged_bytes: u64,
    /// Live tags.
    pub tags: u64,
    /// Cumulative sthread spawns.
    pub sthreads: u64,
    /// Cumulative callgate invocations.
    pub callgate_invocations: u64,
    /// Accounted CPU ticks.
    pub cpu_ticks: u64,
}

impl ResourceUsage {
    /// Current usage on the given axis.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::TaggedBytes => self.tagged_bytes,
            ResourceKind::Tags => self.tags,
            ResourceKind::Sthreads => self.sthreads,
            ResourceKind::CallgateInvocations => self.callgate_invocations,
            ResourceKind::CpuTicks => self.cpu_ticks,
        }
    }

    fn get_mut(&mut self, kind: ResourceKind) -> &mut u64 {
        match kind {
            ResourceKind::TaggedBytes => &mut self.tagged_bytes,
            ResourceKind::Tags => &mut self.tags,
            ResourceKind::Sthreads => &mut self.sthreads,
            ResourceKind::CallgateInvocations => &mut self.callgate_invocations,
            ResourceKind::CpuTicks => &mut self.cpu_ticks,
        }
    }
}

/// The shared accounting state: one per quota domain, shared by every
/// [`LimitedCtx`] in the subtree.
#[derive(Debug)]
pub struct ResourceAccountant {
    limits: ResourceLimits,
    usage: Mutex<ResourceUsage>,
}

impl ResourceAccountant {
    /// Create an accountant with the given quota set.
    pub fn new(limits: ResourceLimits) -> Arc<ResourceAccountant> {
        Arc::new(ResourceAccountant {
            limits,
            usage: Mutex::new(ResourceUsage::default()),
        })
    }

    /// The configured limits.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// A snapshot of current usage.
    pub fn usage(&self) -> ResourceUsage {
        *self.usage.lock()
    }

    /// How much headroom remains on an axis (`u64::MAX` when unlimited).
    pub fn remaining(&self, kind: ResourceKind) -> u64 {
        match self.limits.limit(kind) {
            None => u64::MAX,
            Some(limit) => limit.saturating_sub(self.usage().get(kind)),
        }
    }

    /// Charge `amount` on `kind`, failing without recording anything if the
    /// charge would exceed the configured limit.
    pub fn charge(&self, kind: ResourceKind, amount: u64) -> Result<(), WedgeError> {
        let mut usage = self.usage.lock();
        let current = usage.get(kind);
        let attempted = current.saturating_add(amount);
        if let Some(limit) = self.limits.limit(kind) {
            if attempted > limit {
                return Err(WedgeError::ResourceExhausted {
                    resource: kind.as_str().to_string(),
                    limit,
                    attempted,
                });
            }
        }
        *usage.get_mut(kind) = attempted;
        Ok(())
    }

    /// Credit `amount` back on `kind` (used when memory is freed or a tag is
    /// deleted). Never goes below zero.
    pub fn release(&self, kind: ResourceKind, amount: u64) {
        let mut usage = self.usage.lock();
        let current = usage.get(kind);
        *usage.get_mut(kind) = current.saturating_sub(amount);
    }
}

/// A quota-enforcing wrapper around an [`SthreadCtx`].
///
/// Operations not exposed by the wrapper can still be reached through
/// [`LimitedCtx::ctx`]; that escape hatch is intentional — the wrapper
/// meters the *resource-consuming* surface, it is not a second isolation
/// boundary (isolation is still the kernel's policy checks).
#[derive(Clone)]
pub struct LimitedCtx {
    inner: SthreadCtx,
    accountant: Arc<ResourceAccountant>,
}

impl LimitedCtx {
    /// Attach a fresh quota domain to `ctx`.
    pub fn new(ctx: SthreadCtx, limits: ResourceLimits) -> LimitedCtx {
        LimitedCtx {
            inner: ctx,
            accountant: ResourceAccountant::new(limits),
        }
    }

    /// Attach an existing (shared) accountant to `ctx`.
    pub(crate) fn with_accountant(
        ctx: SthreadCtx,
        accountant: Arc<ResourceAccountant>,
    ) -> LimitedCtx {
        LimitedCtx {
            inner: ctx,
            accountant,
        }
    }

    /// The wrapped context.
    pub fn ctx(&self) -> &SthreadCtx {
        &self.inner
    }

    /// The accountant shared by this quota domain.
    pub fn accountant(&self) -> &Arc<ResourceAccountant> {
        &self.accountant
    }

    /// Current usage in this quota domain.
    pub fn usage(&self) -> ResourceUsage {
        self.accountant.usage()
    }

    /// Remaining headroom on an axis.
    pub fn remaining(&self, kind: ResourceKind) -> u64 {
        self.accountant.remaining(kind)
    }

    /// Voluntarily account `ticks` of computation.
    pub fn charge_ticks(&self, ticks: u64) -> Result<(), WedgeError> {
        self.accountant.charge(ResourceKind::CpuTicks, ticks)
    }

    /// Quota-charged `tag_new`.
    pub fn tag_new(&self) -> Result<Tag, WedgeError> {
        self.accountant.charge(ResourceKind::Tags, 1)?;
        match self.inner.tag_new() {
            Ok(tag) => Ok(tag),
            Err(e) => {
                self.accountant.release(ResourceKind::Tags, 1);
                Err(e)
            }
        }
    }

    /// Quota-credited `tag_delete`.
    pub fn tag_delete(&self, tag: Tag) -> Result<(), WedgeError> {
        self.inner.tag_delete(tag)?;
        self.accountant.release(ResourceKind::Tags, 1);
        Ok(())
    }

    /// Quota-charged `smalloc`.
    pub fn smalloc(&self, size: usize, tag: Tag) -> Result<SBuf, WedgeError> {
        self.accountant
            .charge(ResourceKind::TaggedBytes, size as u64)?;
        match self.inner.smalloc(size, tag) {
            Ok(buf) => Ok(buf),
            Err(e) => {
                self.accountant
                    .release(ResourceKind::TaggedBytes, size as u64);
                Err(e)
            }
        }
    }

    /// Quota-charged `smalloc` + initialising write.
    pub fn smalloc_init(&self, tag: Tag, data: &[u8]) -> Result<SBuf, WedgeError> {
        let buf = self.smalloc(data.len().max(1), tag)?;
        if !data.is_empty() {
            self.write(&buf, 0, data)?;
        }
        Ok(buf)
    }

    /// Quota-charged `malloc` (private or redirected allocation).
    pub fn malloc(&self, size: usize) -> Result<SBuf, WedgeError> {
        self.accountant
            .charge(ResourceKind::TaggedBytes, size as u64)?;
        match self.inner.malloc(size) {
            Ok(buf) => Ok(buf),
            Err(e) => {
                self.accountant
                    .release(ResourceKind::TaggedBytes, size as u64);
                Err(e)
            }
        }
    }

    /// Quota-credited `sfree`.
    pub fn sfree(&self, buf: &SBuf) -> Result<(), WedgeError> {
        self.inner.sfree(buf)?;
        self.accountant
            .release(ResourceKind::TaggedBytes, buf.len as u64);
        Ok(())
    }

    /// Read through the wrapper, charging one CPU tick per byte.
    pub fn read(&self, buf: &SBuf, offset: usize, len: usize) -> Result<Vec<u8>, WedgeError> {
        self.accountant.charge(ResourceKind::CpuTicks, len as u64)?;
        self.inner.read(buf, offset, len)
    }

    /// Write through the wrapper, charging one CPU tick per byte.
    pub fn write(&self, buf: &SBuf, offset: usize, data: &[u8]) -> Result<(), WedgeError> {
        self.accountant
            .charge(ResourceKind::CpuTicks, data.len() as u64)?;
        self.inner.write(buf, offset, data)
    }

    /// Quota-charged sthread creation. The child's body receives a
    /// [`LimitedCtx`] sharing this quota domain, so the whole compartment
    /// subtree draws from one allowance.
    pub fn sthread_create<R, F>(
        &self,
        name: &str,
        policy: &SecurityPolicy,
        body: F,
    ) -> Result<SthreadHandle<R>, WedgeError>
    where
        R: Send + 'static,
        F: FnOnce(&LimitedCtx) -> R + Send + 'static,
    {
        self.accountant.charge(ResourceKind::Sthreads, 1)?;
        let accountant = self.accountant.clone();
        let result = self.inner.sthread_create(name, policy, move |ctx| {
            let limited = LimitedCtx::with_accountant(ctx.clone(), accountant);
            body(&limited)
        });
        if result.is_err() {
            self.accountant.release(ResourceKind::Sthreads, 1);
        }
        result
    }

    /// Quota-charged callgate invocation.
    pub fn cgate(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<CgOutput, WedgeError> {
        self.accountant
            .charge(ResourceKind::CallgateInvocations, 1)?;
        self.inner.cgate(entry, extra, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgate::typed_entry;
    use crate::tag::MemProt;
    use crate::Wedge;

    fn exhausted(err: &WedgeError) -> bool {
        matches!(err, WedgeError::ResourceExhausted { .. })
    }

    #[test]
    fn unlimited_never_refuses() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(wedge.root(), ResourceLimits::unlimited());
        for _ in 0..32 {
            let tag = limited.tag_new().unwrap();
            let buf = limited.smalloc(4096, tag).unwrap();
            limited.write(&buf, 0, &[0xAA; 4096]).unwrap();
        }
        assert_eq!(limited.remaining(ResourceKind::TaggedBytes), u64::MAX);
    }

    #[test]
    fn tagged_byte_quota_is_enforced_and_credited_on_free() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(
            wedge.root(),
            ResourceLimits::unlimited().with_tagged_bytes(1024),
        );
        let tag = limited.tag_new().unwrap();
        let a = limited.smalloc(600, tag).unwrap();
        let err = limited.smalloc(600, tag).unwrap_err();
        assert!(exhausted(&err), "{err}");
        assert_eq!(limited.usage().tagged_bytes, 600);

        limited.sfree(&a).unwrap();
        assert_eq!(limited.usage().tagged_bytes, 0);
        assert!(limited.smalloc(600, tag).is_ok());
    }

    #[test]
    fn failed_underlying_allocation_is_not_charged() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(
            wedge.root(),
            ResourceLimits::unlimited().with_tagged_bytes(1 << 20),
        );
        // Tag never created: the kernel refuses, and the quota must roll back.
        let err = limited.smalloc(512, Tag(999_999)).unwrap_err();
        assert!(!exhausted(&err));
        assert_eq!(limited.usage().tagged_bytes, 0);
    }

    #[test]
    fn tag_quota_is_enforced_and_credited_on_delete() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(wedge.root(), ResourceLimits::unlimited().with_tags(2));
        let t1 = limited.tag_new().unwrap();
        let _t2 = limited.tag_new().unwrap();
        assert!(exhausted(&limited.tag_new().unwrap_err()));
        limited.tag_delete(t1).unwrap();
        assert!(limited.tag_new().is_ok());
    }

    #[test]
    fn cpu_tick_quota_meters_reads_writes_and_explicit_charges() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(
            wedge.root(),
            ResourceLimits::unlimited().with_cpu_ticks(100),
        );
        let tag = limited.tag_new().unwrap();
        let buf = limited.smalloc(64, tag).unwrap();
        limited.write(&buf, 0, &[1u8; 60]).unwrap(); // 60 ticks
        limited.charge_ticks(30).unwrap(); // 90 ticks
        let err = limited.read(&buf, 0, 20).unwrap_err(); // would be 110
        assert!(exhausted(&err));
        assert_eq!(limited.usage().cpu_ticks, 90);
        // A smaller read still fits.
        assert!(limited.read(&buf, 0, 10).is_ok());
    }

    #[test]
    fn sthread_quota_bounds_the_whole_subtree() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let limited = LimitedCtx::new(root, ResourceLimits::unlimited().with_sthreads(3));

        // A "fork bomb": each child tries to spawn two more children.
        fn bomb(ctx: &LimitedCtx, depth: usize) -> u64 {
            if depth == 0 {
                return 0;
            }
            let mut spawned = 0;
            for i in 0..2 {
                let child = ctx.sthread_create(
                    &format!("bomb-{depth}-{i}"),
                    &SecurityPolicy::deny_all(),
                    move |child_ctx| bomb(child_ctx, depth - 1),
                );
                match child {
                    Ok(handle) => {
                        spawned += 1 + handle.join().unwrap_or(0);
                    }
                    Err(e) => {
                        assert!(matches!(e, WedgeError::ResourceExhausted { .. }));
                        break;
                    }
                }
            }
            spawned
        }

        let total = bomb(&limited, 4);
        assert!(total <= 3, "quota capped the subtree at 3, got {total}");
        assert_eq!(limited.usage().sthreads, 3);
    }

    #[test]
    fn callgate_quota_is_enforced() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _trusted, x: u32| Ok(x + 1)));

        let secret_tag = root.tag_new().unwrap();
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_mem_add(secret_tag, MemProt::Read);
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let limits = ResourceLimits {
            max_callgate_invocations: Some(2),
            ..ResourceLimits::unlimited()
        };
        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                let limited = LimitedCtx::new(ctx.clone(), limits);
                let mut results = Vec::new();
                for _ in 0..3 {
                    results.push(limited.cgate(entry, &SecurityPolicy::deny_all(), Box::new(1u32)));
                }
                results
            })
            .unwrap();
        let results = handle.join().unwrap();
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(exhausted(results[2].as_ref().unwrap_err()));
    }

    #[test]
    fn remaining_and_usage_reporting() {
        let wedge = Wedge::init();
        let limited = LimitedCtx::new(
            wedge.root(),
            ResourceLimits::unlimited()
                .with_tagged_bytes(1000)
                .with_tags(10),
        );
        let tag = limited.tag_new().unwrap();
        limited.smalloc(100, tag).unwrap();
        assert_eq!(limited.remaining(ResourceKind::TaggedBytes), 900);
        assert_eq!(limited.remaining(ResourceKind::Tags), 9);
        assert_eq!(limited.remaining(ResourceKind::Sthreads), u64::MAX);
        let usage = limited.usage();
        assert_eq!(usage.get(ResourceKind::TaggedBytes), 100);
        assert_eq!(usage.get(ResourceKind::Tags), 1);
    }

    #[test]
    fn resource_exhausted_error_is_not_an_access_denial() {
        let err = WedgeError::ResourceExhausted {
            resource: "cpu ticks".to_string(),
            limit: 10,
            attempted: 11,
        };
        assert!(!err.is_access_denial());
        let msg = err.to_string();
        assert!(msg.contains("cpu ticks"));
        assert!(msg.contains("10"));
        assert!(msg.contains("11"));
    }

    #[test]
    fn limits_builder_and_accessors() {
        let limits = ResourceLimits {
            max_callgate_invocations: Some(4),
            ..ResourceLimits::unlimited()
        }
        .with_tagged_bytes(1)
        .with_tags(2)
        .with_sthreads(3)
        .with_cpu_ticks(5);
        assert_eq!(limits.limit(ResourceKind::TaggedBytes), Some(1));
        assert_eq!(limits.limit(ResourceKind::Tags), Some(2));
        assert_eq!(limits.limit(ResourceKind::Sthreads), Some(3));
        assert_eq!(limits.limit(ResourceKind::CallgateInvocations), Some(4));
        assert_eq!(limits.limit(ResourceKind::CpuTicks), Some(5));
        assert_eq!(
            ResourceLimits::unlimited().limit(ResourceKind::CpuTicks),
            None
        );
    }
}
