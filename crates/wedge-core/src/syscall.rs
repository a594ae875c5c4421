//! SELinux-style syscall allow-lists.
//!
//! An sthread's security policy includes "an SELinux policy, which limits
//! the system calls that may be invoked" (§3.1). The paper delegates the
//! actual mechanism to SELinux; the reproduction models it as an explicit
//! allow-list over the syscall surface the simulated kernel exposes, plus a
//! system-wide table of permitted *domain transitions* (a child may only
//! move to a different syscall policy if the transition is declared, §3.1).

use std::collections::BTreeSet;

/// The system calls the simulated kernel mediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Syscall {
    /// Open a file.
    Open,
    /// Read from a file descriptor.
    Read,
    /// Write to a file descriptor.
    Write,
    /// Create a socket / accept a connection.
    Socket,
    /// Send on a socket.
    Send,
    /// Receive on a socket.
    Recv,
    /// Change user id.
    Setuid,
    /// Change filesystem root.
    Chroot,
    /// Execute a new program image.
    Exec,
    /// Create a new compartment (sthread or callgate activation).
    SthreadCreate,
    /// Create or delete a memory tag.
    TagControl,
    /// Exit the compartment.
    Exit,
}

/// All syscalls, for building "allow everything" policies.
pub const ALL_SYSCALLS: [Syscall; 12] = [
    Syscall::Open,
    Syscall::Read,
    Syscall::Write,
    Syscall::Socket,
    Syscall::Send,
    Syscall::Recv,
    Syscall::Setuid,
    Syscall::Chroot,
    Syscall::Exec,
    Syscall::SthreadCreate,
    Syscall::TagControl,
    Syscall::Exit,
];

/// A named allow-list of system calls — the reproduction's stand-in for an
/// SELinux security context (`user:role:type`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallPolicy {
    /// The SELinux-style context name attached via `sc_sel_context`.
    pub context: String,
    allowed: BTreeSet<Syscall>,
}

impl SyscallPolicy {
    /// Allow every syscall (the paper's applications attach such a policy
    /// because the evaluation focuses on memory privileges, §5).
    pub(crate) fn allow_all() -> Self {
        SyscallPolicy {
            context: "wedge_u:wedge_r:unconfined_t".to_string(),
            allowed: ALL_SYSCALLS.iter().copied().collect(),
        }
    }

    /// Deny every syscall.
    pub fn deny_all() -> Self {
        SyscallPolicy {
            context: "wedge_u:wedge_r:deny_t".to_string(),
            allowed: BTreeSet::new(),
        }
    }

    /// Build a policy from an explicit list.
    pub fn allowing(context: &str, syscalls: &[Syscall]) -> Self {
        SyscallPolicy {
            context: context.to_string(),
            allowed: syscalls.iter().copied().collect(),
        }
    }

    /// Is `syscall` permitted?
    pub(crate) fn permits(&self, syscall: Syscall) -> bool {
        self.allowed.contains(&syscall)
    }

    /// Add a syscall to the allow-list.
    pub fn allow(&mut self, syscall: Syscall) -> &mut Self {
        self.allowed.insert(syscall);
        self
    }

    /// Remove a syscall from the allow-list.
    pub fn deny(&mut self, syscall: Syscall) -> &mut Self {
        self.allowed.remove(&syscall);
        self
    }

    /// Is this policy a subset of `other` (i.e. every call we allow, the
    /// other also allows)?
    pub(crate) fn is_subset_of(&self, other: &SyscallPolicy) -> bool {
        self.allowed.is_subset(&other.allowed)
    }
}

impl Default for SyscallPolicy {
    fn default() -> Self {
        SyscallPolicy::allow_all()
    }
}

/// The system-wide table of permitted domain transitions: `(from-context,
/// to-context)` pairs a child sthread may move between even though the
/// target policy is not a subset of the parent's.
#[derive(Debug, Default, Clone)]
pub struct DomainTransitions {
    allowed: BTreeSet<(String, String)>,
}

impl DomainTransitions {
    /// An empty transition table (no cross-domain moves allowed).
    pub fn new() -> Self {
        DomainTransitions::default()
    }

    /// Permit transitions from `from` to `to`.
    pub fn allow(&mut self, from: &str, to: &str) {
        self.allowed.insert((from.to_string(), to.to_string()));
    }

    /// Is the transition permitted?
    pub(crate) fn permits(&self, from: &str, to: &str) -> bool {
        from == to || self.allowed.contains(&(from.to_string(), to.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_permits_everything() {
        let p = SyscallPolicy::allow_all();
        for s in ALL_SYSCALLS {
            assert!(p.permits(s));
        }
    }

    #[test]
    fn deny_all_permits_nothing() {
        let p = SyscallPolicy::deny_all();
        for s in ALL_SYSCALLS {
            assert!(!p.permits(s));
        }
    }

    #[test]
    fn explicit_list_and_mutation() {
        let mut p = SyscallPolicy::allowing("net_t", &[Syscall::Send, Syscall::Recv]);
        assert!(p.permits(Syscall::Send));
        assert!(!p.permits(Syscall::Open));
        p.allow(Syscall::Open).deny(Syscall::Send);
        assert!(p.permits(Syscall::Open));
        assert!(!p.permits(Syscall::Send));
    }

    #[test]
    fn subset_relation() {
        let small = SyscallPolicy::allowing("a", &[Syscall::Read]);
        let big = SyscallPolicy::allowing("b", &[Syscall::Read, Syscall::Write]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&SyscallPolicy::allow_all()));
        assert!(SyscallPolicy::deny_all().is_subset_of(&small));
    }

    #[test]
    fn domain_transitions() {
        let mut dt = DomainTransitions::new();
        assert!(
            dt.permits("worker_t", "worker_t"),
            "same domain always allowed"
        );
        assert!(!dt.permits("worker_t", "auth_t"));
        dt.allow("worker_t", "auth_t");
        assert!(dt.permits("worker_t", "auth_t"));
        assert!(
            !dt.permits("auth_t", "worker_t"),
            "transitions are directional"
        );
    }
}
