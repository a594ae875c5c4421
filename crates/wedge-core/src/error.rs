//! The error type shared by all Wedge operations.

use crate::callgate::CgEntryId;
use crate::fdtable::FdId;
use crate::tag::{AccessMode, CompartmentId, Tag};

/// Errors raised by the simulated kernel and the Wedge primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WedgeError {
    /// A compartment touched tagged memory its policy does not allow — the
    /// analogue of the SIGSEGV a real sthread would receive.
    ProtectionFault {
        /// The faulting compartment.
        compartment: CompartmentId,
        /// The tag that was touched.
        tag: Tag,
        /// The access mode that was attempted.
        mode: AccessMode,
    },
    /// A compartment used a file descriptor without the required permission.
    FdFault {
        /// The faulting compartment.
        compartment: CompartmentId,
        /// The descriptor that was touched.
        fd: FdId,
        /// The access mode that was attempted.
        mode: AccessMode,
    },
    /// A compartment invoked a callgate it has not been granted.
    CallgateDenied {
        /// The faulting compartment.
        compartment: CompartmentId,
        /// The callgate entry point.
        entry: CgEntryId,
    },
    /// A parent tried to grant a child privileges exceeding its own
    /// (violates the subset-only delegation rule of §3.1).
    PrivilegeEscalation {
        /// Human-readable description of the excess grant.
        detail: String,
    },
    /// The named tag does not exist (never created, or already deleted).
    UnknownTag(Tag),
    /// The named compartment does not exist or has exited.
    UnknownCompartment(CompartmentId),
    /// The named file descriptor does not exist.
    UnknownFd(FdId),
    /// The named callgate entry point was never registered.
    UnknownCallgate(CgEntryId),
    /// The named global variable was never registered.
    UnknownGlobal(String),
    /// A tagged-memory access fell outside any live allocation.
    OutOfBounds {
        /// The tag being accessed.
        tag: Tag,
        /// Offset of the failed access within the segment.
        offset: usize,
        /// Length of the failed access.
        len: usize,
    },
    /// The underlying allocator refused the request.
    Alloc(String),
    /// A tag cannot be granted or delegated because it is private to a
    /// compartment (untagged allocations "cannot even be named in a
    /// security policy").
    PrivateTag(Tag),
    /// The sthread body panicked.
    SthreadPanicked(String),
    /// A callgate returned a value of an unexpected type.
    BadCallgateValue,
    /// Identity change (uid / filesystem root) refused.
    IdentityDenied(String),
    /// The operation is not valid in the current state (e.g. joining twice).
    InvalidOperation(String),
    /// A resource quota attached to a compartment was exhausted (the DoS
    /// mitigation extension of `crate::resource`; the paper notes Wedge
    /// itself "provides no direct mechanism to prevent DoS attacks", §7).
    ResourceExhausted {
        /// The resource class that hit its quota.
        resource: String,
        /// The configured limit.
        limit: u64,
        /// The usage the refused operation would have reached.
        attempted: u64,
    },
}

impl std::fmt::Display for WedgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WedgeError::ProtectionFault {
                compartment,
                tag,
                mode,
            } => {
                write!(
                    f,
                    "protection fault: {compartment} attempted {mode} on {tag}"
                )
            }
            WedgeError::FdFault {
                compartment,
                fd,
                mode,
            } => {
                write!(f, "fd fault: {compartment} attempted {mode} on fd{}", fd.0)
            }
            WedgeError::CallgateDenied { compartment, entry } => {
                write!(
                    f,
                    "callgate denied: {compartment} attempted to invoke entry {}",
                    entry.0
                )
            }
            WedgeError::PrivilegeEscalation { detail } => {
                write!(f, "privilege escalation refused: {detail}")
            }
            WedgeError::UnknownTag(t) => write!(f, "unknown {t}"),
            WedgeError::UnknownCompartment(c) => write!(f, "unknown compartment {c}"),
            WedgeError::UnknownFd(fd) => write!(f, "unknown fd{}", fd.0),
            WedgeError::UnknownCallgate(e) => write!(f, "unknown callgate entry {}", e.0),
            WedgeError::UnknownGlobal(name) => write!(f, "unknown global '{name}'"),
            WedgeError::OutOfBounds { tag, offset, len } => {
                write!(
                    f,
                    "out-of-bounds access on {tag}: offset {offset}, len {len}"
                )
            }
            WedgeError::Alloc(msg) => write!(f, "allocation failure: {msg}"),
            WedgeError::PrivateTag(t) => write!(f, "{t} is private and cannot be granted"),
            WedgeError::SthreadPanicked(msg) => write!(f, "sthread panicked: {msg}"),
            WedgeError::BadCallgateValue => {
                write!(f, "callgate returned a value of unexpected type")
            }
            WedgeError::IdentityDenied(msg) => write!(f, "identity change denied: {msg}"),
            WedgeError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            WedgeError::ResourceExhausted {
                resource,
                limit,
                attempted,
            } => write!(
                f,
                "resource quota exhausted: {resource} limit {limit}, attempted {attempted}"
            ),
        }
    }
}

impl std::error::Error for WedgeError {}

impl WedgeError {
    /// Is this error a policy-enforcement fault (as opposed to a programming
    /// or resource error)? Used by tests asserting that an attack was
    /// stopped by the isolation primitives rather than by accident.
    pub fn is_access_denial(&self) -> bool {
        matches!(
            self,
            WedgeError::ProtectionFault { .. }
                | WedgeError::FdFault { .. }
                | WedgeError::CallgateDenied { .. }
                | WedgeError::PrivilegeEscalation { .. }
                | WedgeError::PrivateTag(_)
                | WedgeError::IdentityDenied(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{AccessMode, CompartmentId, Tag};

    #[test]
    fn display_is_informative() {
        let e = WedgeError::ProtectionFault {
            compartment: CompartmentId(3),
            tag: Tag(7),
            mode: AccessMode::Write,
        };
        let s = e.to_string();
        assert!(s.contains("c3"));
        assert!(s.contains("tag7"));
        assert!(s.contains("write"));
    }

    #[test]
    fn access_denial_classification() {
        assert!(WedgeError::ProtectionFault {
            compartment: CompartmentId(1),
            tag: Tag(1),
            mode: AccessMode::Read
        }
        .is_access_denial());
        assert!(WedgeError::PrivilegeEscalation { detail: "x".into() }.is_access_denial());
        assert!(!WedgeError::UnknownTag(Tag(1)).is_access_denial());
        assert!(!WedgeError::Alloc("oom".into()).is_access_denial());
    }
}
