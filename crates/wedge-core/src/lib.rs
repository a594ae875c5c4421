//! # wedge-core — the Wedge isolation primitives
//!
//! This crate is the Rust reproduction of the Wedge programming model
//! (Bittau et al., NSDI 2008): **sthreads** (default-deny compartments),
//! **tagged memory** (privileges granted per allocation tag), and
//! **callgates** (code that runs with different privileges than its caller),
//! together with the supporting pieces the paper's implementation relies on
//! (security policies with subset-only delegation, a file-descriptor table
//! with per-descriptor grants, an SELinux-style syscall allow-list, the
//! pre-`main` snapshot of globals, and the sthread *emulation* mode used by
//! Crowbar).
//!
//! ## The simulated kernel
//!
//! The paper enforces compartment boundaries with hardware page protection
//! inside a patched Linux 2.6.19 kernel. A portable Rust library cannot
//! patch the kernel, so enforcement here is performed by a **simulated
//! kernel** ([`Kernel`]): all tagged memory lives in kernel-owned segments,
//! and every access by application code goes through a [`SthreadCtx`] handle
//! that names the *current compartment*. The kernel checks the compartment's
//! [`SecurityPolicy`] on every access and raises a
//! [`WedgeError::ProtectionFault`] on denial — the analogue of the SIGSEGV a
//! real sthread would receive. The **policy semantics** (default-deny,
//! per-tag grants, copy-on-write views, subset-only delegation, callgate
//! mediation, trusted arguments held by the kernel) follow the paper
//! exactly; only the trap mechanism differs.
//!
//! ## Quick tour
//!
//! ```
//! use wedge_core::{MemProt, SecurityPolicy, Wedge};
//!
//! // Initialise the Wedge runtime; `root` is the unconfined first
//! // compartment (the application before it starts partitioning itself).
//! let wedge = Wedge::init();
//! let root = wedge.root();
//!
//! // Allocate secret data in tagged memory.
//! let secret_tag = root.tag_new().unwrap();
//! let secret = root.smalloc(32, secret_tag).unwrap();
//! root.write(&secret, 0, b"top secret").unwrap();
//!
//! // Spawn a default-deny sthread: without a grant it cannot read the tag.
//! let child_policy = SecurityPolicy::deny_all();
//! let handle = root
//!     .sthread_create("worker", &child_policy, {
//!         let secret = secret;
//!         move |ctx| ctx.read(&secret, 0, 10)
//!     })
//!     .unwrap();
//! assert!(handle.join().unwrap().is_err(), "default-deny blocks the read");
//!
//! // Spawn another sthread with an explicit read grant.
//! let mut reader_policy = SecurityPolicy::deny_all();
//! reader_policy.sc_mem_add(secret_tag, MemProt::Read);
//! let handle = root
//!     .sthread_create("reader", &reader_policy, move |ctx| ctx.read(&secret, 0, 10))
//!     .unwrap();
//! assert_eq!(handle.join().unwrap().unwrap(), b"top secret");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgate;
pub mod error;
pub mod exploit;
pub mod fdtable;
pub mod kernel;
pub mod memory;
pub mod policy;
pub mod procsim;
pub mod resource;
pub mod sthread;
pub mod syscall;
pub mod tag;
pub mod trace;

pub use callgate::{CallgateFn, CgEntryId, CgInput, CgOutput, TrustedArg};
pub use error::WedgeError;
pub use exploit::Exploit;
pub use fdtable::{FdId, FdProt};
pub use kernel::{
    Kernel, KernelFootprint, KernelStats, MemReadGuard, ViolationRecord, SEGMENT_SHARDS,
};
pub use memory::SBuf;
pub use policy::{CallgateGrant, SecurityPolicy, Uid};
pub use resource::{LimitedCtx, ResourceKind, ResourceLimits, ResourceUsage};
pub use sthread::{
    panic_message, RecycledSthread, RecycledWorkerHandle, SthreadCtx, SthreadHandle,
};
pub use syscall::{Syscall, SyscallPolicy};
pub use tag::{AccessMode, CompartmentId, MemProt, Tag};
pub use trace::{AccessSink, AllocEvent, CallEvent, MemAccessEvent, MemRegion, ViolationEvent};

use std::sync::Arc;

/// The Wedge runtime: a simulated kernel plus the root compartment.
///
/// `Wedge::init()` corresponds to the state of a Wedge process just before
/// `main` runs: the kernel snapshot of globals is empty, the root
/// compartment is unconfined, and no tags or callgates exist yet.
#[derive(Clone)]
pub struct Wedge {
    kernel: Arc<Kernel>,
    root: SthreadCtx,
}

impl Wedge {
    /// Initialise the runtime with a fresh kernel and an unconfined root
    /// compartment.
    pub fn init() -> Wedge {
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root");
        Wedge { kernel, root }
    }

    /// The root compartment's context (unconfined; analogous to the
    /// pre-partitioning process).
    pub fn root(&self) -> SthreadCtx {
        self.root.clone()
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }
}

impl Default for Wedge {
    fn default() -> Self {
        Wedge::init()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_creates_unconfined_root() {
        let wedge = Wedge::init();
        let root = wedge.root();
        assert!(root.policy().is_unconfined());
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc(16, tag).unwrap();
        root.write(&buf, 0, b"hello").unwrap();
        assert_eq!(root.read(&buf, 0, 5).unwrap(), b"hello");
    }

    #[test]
    fn runtimes_have_independent_tag_namespaces() {
        let w1 = Wedge::init();
        let w2 = Wedge::init();
        let t1 = w1.root().tag_new().unwrap();
        let t2 = w2.root().tag_new().unwrap();
        assert!(w1.root().smalloc(8, t1).is_ok());
        assert!(w2.root().smalloc(8, t2).is_ok());
    }
}
