//! Instrumentation hooks consumed by Crowbar's `cb-log`.
//!
//! The paper's `cb-log` uses Pin to instrument every memory load and store
//! and every function entry/exit. In the reproduction the mediated memory
//! layer *is* the instrumentation point: the simulated kernel invokes an
//! [`AccessSink`] (if one is installed) for every allocation, access,
//! violation and function-boundary event. The sink runs synchronously on
//! the accessing thread, so a tracer can maintain its own shadow call stack
//! per thread — exactly how Crowbar reconstructs backtraces.

use crate::fdtable::FdId;
use crate::kernel::ViolationRecord;
use crate::tag::{AccessMode, CompartmentId, Tag};

/// Where an access landed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// A tagged-segment access: the tag plus the payload offset of the
    /// allocation it hit.
    Tagged {
        /// The tag of the segment.
        tag: Tag,
        /// Offset of the containing allocation within the segment.
        alloc_offset: usize,
    },
    /// An access to a (snapshot) global variable.
    Global {
        /// The global's name.
        name: String,
    },
    /// A file-descriptor read or write.
    Fd {
        /// The descriptor.
        fd: FdId,
        /// Name of the backing object.
        name: String,
    },
}

/// A memory (or descriptor) access observed by the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccessEvent {
    /// The accessing compartment.
    pub compartment: CompartmentId,
    /// Human-readable compartment name.
    pub compartment_name: String,
    /// Where the access landed.
    pub region: MemRegion,
    /// Byte offset within the allocation / global / stream.
    pub offset: usize,
    /// Length of the access in bytes.
    pub len: usize,
    /// Read or write.
    pub mode: AccessMode,
    /// Whether the kernel allowed the access.
    pub allowed: bool,
}

/// An allocation event (`smalloc`, or a redirected `malloc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocEvent {
    /// The allocating compartment.
    pub compartment: CompartmentId,
    /// The tag allocated from.
    pub tag: Tag,
    /// Payload offset of the new allocation within the segment.
    pub alloc_offset: usize,
    /// Requested size in bytes.
    pub size: usize,
    /// Whether the allocation went to the compartment's private
    /// (untagged-equivalent) segment.
    pub private: bool,
}

/// A function entry or exit, used by Crowbar to maintain shadow backtraces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEvent {
    /// The compartment whose code crossed the function boundary.
    pub compartment: CompartmentId,
    /// Function name (source-level identifier supplied by the application).
    pub function: String,
    /// `true` for entry, `false` for exit.
    pub entering: bool,
}

/// The sink interface Crowbar implements. All methods have default no-op
/// implementations so simple sinks can override only what they need.
///
/// Callbacks run synchronously on the accessing thread, and some (the
/// borrowed-guard read path) run while the kernel holds internal locks: a
/// sink must record and return, never call back into kernel operations
/// (reads, writes, allocations, tag lifecycle) from inside a callback.
pub trait AccessSink: Send + Sync {
    /// A memory, global or descriptor access occurred.
    fn on_access(&self, _event: &MemAccessEvent) {}
    /// A tagged (or private) allocation occurred.
    fn on_alloc(&self, _event: &AllocEvent) {}
    /// A previously allocated buffer was freed.
    fn on_free(&self, _compartment: CompartmentId, _tag: Tag, _alloc_offset: usize) {}
    /// A function boundary was crossed (used for shadow backtraces).
    fn on_call(&self, _event: &CallEvent) {}
    /// A protection violation occurred (denied, or permitted in emulation
    /// mode, §3.4's sthread emulation library): the same record the
    /// kernel's violation log keeps.
    fn on_violation(&self, _record: &ViolationRecord) {}
}

/// A sink that counts events; useful in tests and as a minimal example of
/// the instrumentation interface.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of access events observed.
    pub accesses: std::sync::atomic::AtomicU64,
    /// Number of allocation events observed.
    pub allocs: std::sync::atomic::AtomicU64,
    /// Number of call-boundary events observed.
    pub calls: std::sync::atomic::AtomicU64,
    /// Number of violation events observed.
    pub violations: std::sync::atomic::AtomicU64,
}

impl AccessSink for CountingSink {
    fn on_access(&self, _event: &MemAccessEvent) {
        self.accesses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn on_alloc(&self, _event: &AllocEvent) {
        self.allocs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn on_call(&self, _event: &CallEvent) {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn on_violation(&self, _record: &ViolationRecord) {
        self.violations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn counting_sink_counts() {
        let sink = CountingSink::default();
        sink.on_access(&MemAccessEvent {
            compartment: CompartmentId(1),
            compartment_name: "x".into(),
            region: MemRegion::Global { name: "g".into() },
            offset: 0,
            len: 4,
            mode: AccessMode::Read,
            allowed: true,
        });
        sink.on_call(&CallEvent {
            compartment: CompartmentId(1),
            function: "f".into(),
            entering: true,
        });
        assert_eq!(sink.accesses.load(Ordering::Relaxed), 1);
        assert_eq!(sink.calls.load(Ordering::Relaxed), 1);
        assert_eq!(sink.allocs.load(Ordering::Relaxed), 0);
    }
}
