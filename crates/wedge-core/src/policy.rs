//! Security policies (`sc_t` in the paper's API) and the subset-only
//! delegation rule.
//!
//! A policy specifies the memory tags an sthread may access (and how), the
//! file descriptors it may use, the callgates it may invoke, and its UNIX
//! identity: user id and filesystem root (§3.1). A parent "can only grant a
//! child access to subsets of its memory tags, file descriptors, and
//! authorized callgates"; uid and root may only change according to UNIX
//! semantics (only a root-uid parent may change them). The paper's third
//! leg, an SELinux policy limiting system calls, is not modelled: §5 grants
//! every sthread all system calls, and the crate README says why.

use std::collections::HashMap;
use std::sync::Arc;

use crate::callgate::{CgEntryId, TrustedArg};
use crate::fdtable::{FdId, FdProt};
use crate::tag::{MemProt, Tag};

/// A UNIX user id. Uid 0 is the superuser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Is this the superuser?
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

/// Permission to invoke a callgate, attached to a policy by `sc_cgate_add`.
///
/// The callgate instance is implicitly created when the policy is bound to
/// a newly created sthread; its permissions must be a subset of the
/// *creator's* (not the eventual caller's) privileges.
#[derive(Debug, Clone)]
pub struct CallgateGrant {
    /// The entry point the grant refers to.
    pub entry: CgEntryId,
    /// The permissions the callgate will run with. Shared, not cloned, by
    /// every callgate instance created from this grant.
    pub policy: Arc<SecurityPolicy>,
    /// The kernel-held trusted argument, if any.
    pub trusted: Option<TrustedArg>,
}

/// An sthread security policy.
#[derive(Debug, Clone)]
pub struct SecurityPolicy {
    /// Unconfined policies (the root compartment) pass every check. All
    /// other policies are default-deny.
    unconfined: bool,
    /// Memory grants, per tag.
    mem: HashMap<Tag, MemProt>,
    /// File-descriptor grants.
    fds: HashMap<FdId, FdProt>,
    /// Callgates this sthread may invoke (instantiated at bind time).
    callgates: Vec<CallgateGrant>,
    /// UNIX user id the sthread runs as.
    pub uid: Uid,
    /// Filesystem root directory of the sthread.
    pub fs_root: String,
}

impl SecurityPolicy {
    /// The default-deny policy: no memory tags, no descriptors, no
    /// callgates; uid and filesystem root inherited at bind time.
    pub fn deny_all() -> Self {
        SecurityPolicy {
            unconfined: false,
            mem: HashMap::new(),
            fds: HashMap::new(),
            callgates: Vec::new(),
            uid: Uid::ROOT,
            fs_root: "/".to_string(),
        }
    }

    /// The unconfined policy used only for the root compartment.
    pub(crate) fn unconfined() -> Self {
        SecurityPolicy {
            unconfined: true,
            ..SecurityPolicy::deny_all()
        }
    }

    /// Is this the unconfined (root) policy?
    pub(crate) fn is_unconfined(&self) -> bool {
        self.unconfined
    }

    /// Grant access to memory tagged `tag` with protection `prot`
    /// (`sc_mem_add`).
    pub fn sc_mem_add(&mut self, tag: Tag, prot: MemProt) -> &mut Self {
        self.mem.insert(tag, prot);
        self
    }

    /// Grant access to file descriptor `fd` with permission `prot`
    /// (`sc_fd_add`).
    pub fn sc_fd_add(&mut self, fd: FdId, prot: FdProt) -> &mut Self {
        self.fds.insert(fd, prot);
        self
    }

    /// Remove the memory grant for `tag` (`sc_mem_del`), returning the
    /// revoked protection if one was held. Used by the kernel's runtime
    /// `policy_del`; the kernel bumps the compartment's version cell so
    /// per-sthread permission caches drop the stale entry.
    pub(crate) fn sc_mem_del(&mut self, tag: Tag) -> Option<MemProt> {
        self.mem.remove(&tag)
    }

    /// Grant permission to invoke the callgate at `entry`, to be
    /// instantiated with permissions `policy` and trusted argument
    /// `trusted` when this security policy is bound to a new sthread
    /// (`sc_cgate_add`).
    pub fn sc_cgate_add(
        &mut self,
        entry: CgEntryId,
        policy: SecurityPolicy,
        trusted: Option<TrustedArg>,
    ) -> &mut Self {
        self.callgates.push(CallgateGrant {
            entry,
            policy: Arc::new(policy),
            trusted,
        });
        self
    }

    /// Set the uid the sthread will run as.
    pub fn with_uid(mut self, uid: Uid) -> Self {
        self.uid = uid;
        self
    }

    /// Set the filesystem root the sthread will run with.
    pub fn with_fs_root(mut self, root: &str) -> Self {
        self.fs_root = root.to_string();
        self
    }

    /// The memory grant for `tag`, if any.
    pub fn mem_grant(&self, tag: Tag) -> Option<MemProt> {
        if self.unconfined {
            Some(MemProt::ReadWrite)
        } else {
            self.mem.get(&tag).copied()
        }
    }

    /// The descriptor grant for `fd`, if any.
    pub(crate) fn fd_grant(&self, fd: FdId) -> Option<FdProt> {
        if self.unconfined {
            Some(FdProt::ReadWrite)
        } else {
            self.fds.get(&fd).copied()
        }
    }

    /// All memory grants (empty for unconfined policies, which implicitly
    /// hold everything).
    pub fn mem_grants(&self) -> &HashMap<Tag, MemProt> {
        &self.mem
    }

    /// All descriptor grants.
    pub fn fd_grants(&self) -> &HashMap<FdId, FdProt> {
        &self.fds
    }

    /// Callgate grants attached to this policy.
    pub fn callgate_grants(&self) -> &[CallgateGrant] {
        &self.callgates
    }

    /// Merge extra memory/fd grants into this policy (used when a caller
    /// passes additional argument-reading permissions to a callgate).
    pub(crate) fn merge_grants(&mut self, extra: &SecurityPolicy) {
        for (tag, prot) in &extra.mem {
            self.mem.insert(*tag, *prot);
        }
        for (fd, prot) in &extra.fds {
            self.fds.insert(*fd, *prot);
        }
    }

    /// Would [`SecurityPolicy::merge_grants`] of `extra` leave this policy
    /// exactly as it is? (Always true for an `extra` carrying no grants.)
    pub(crate) fn covers_grants(&self, extra: &SecurityPolicy) -> bool {
        extra
            .mem
            .iter()
            .all(|(tag, prot)| self.mem.get(tag) == Some(prot))
            && extra
                .fds
                .iter()
                .all(|(fd, prot)| self.fds.get(fd) == Some(prot))
    }

    /// The first memory or descriptor grant in `extra` this policy's holder
    /// may not delegate, described for the error — `None` when `extra` is a
    /// subset of what the holder has (the §4.1 rule for the extra,
    /// argument-accessing permissions a caller passes to a callgate).
    pub(crate) fn undelegable_grant(&self, extra: &SecurityPolicy) -> Option<String> {
        let mem = extra
            .mem
            .iter()
            .find_map(|(tag, prot)| match self.mem_grant(*tag) {
                Some(have) if have.allows_delegation_of(*prot) => None,
                _ => Some(format!(
                    "extra grant {tag}:{prot:?} exceeds caller's privileges"
                )),
            });
        mem.or_else(|| {
            extra
                .fds
                .iter()
                .find_map(|(fd, prot)| match self.fd_grant(*fd) {
                    Some(have) if have.allows_delegation_of(*prot) => None,
                    _ => Some(format!(
                        "extra grant {fd}:{prot:?} exceeds caller's privileges"
                    )),
                })
        })
    }

    /// Validate that `child` does not exceed `self` when `self`'s holder
    /// creates an sthread bound to `child`. Returns a human-readable
    /// description of the first excess grant found.
    pub fn validate_child(&self, child: &SecurityPolicy) -> Result<(), String> {
        if self.unconfined {
            return Ok(());
        }
        if child.unconfined {
            return Err("child policy may not be unconfined".to_string());
        }
        for (tag, child_prot) in &child.mem {
            match self.mem.get(tag) {
                Some(parent_prot) if parent_prot.allows_delegation_of(*child_prot) => {}
                Some(_) => {
                    return Err(format!(
                        "memory grant {tag}:{child_prot:?} exceeds parent grant"
                    ))
                }
                None => return Err(format!("parent holds no grant for {tag}")),
            }
        }
        for (fd, child_prot) in &child.fds {
            match self.fds.get(fd) {
                Some(parent_prot) if parent_prot.allows_delegation_of(*child_prot) => {}
                Some(_) => {
                    return Err(format!("fd grant {fd}:{child_prot:?} exceeds parent grant"))
                }
                None => return Err(format!("parent holds no grant for {fd}")),
            }
        }
        // Callgate instances the child may invoke must each run with a
        // subset of the *creator's* (i.e. self's) privileges.
        for grant in &child.callgates {
            self.validate_child(&grant.policy).map_err(|e| {
                format!("callgate {} permissions exceed creator's: {e}", grant.entry)
            })?;
        }
        // UNIX semantics for uid / root changes: only a superuser parent may
        // change them.
        if child.uid != self.uid && !self.uid.is_root() {
            return Err(format!(
                "non-root parent (uid {}) cannot set child uid {}",
                self.uid.0, child.uid.0
            ));
        }
        if child.fs_root != self.fs_root && !self.uid.is_root() {
            return Err(format!(
                "non-root parent cannot change filesystem root to {}",
                child.fs_root
            ));
        }
        Ok(())
    }
}

impl Default for SecurityPolicy {
    fn default() -> Self {
        SecurityPolicy::deny_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_all_has_no_grants() {
        let p = SecurityPolicy::deny_all();
        assert!(!p.is_unconfined());
        assert_eq!(p.mem_grant(Tag(1)), None);
        assert_eq!(p.fd_grant(FdId(1)), None);
        assert!(p.callgate_grants().is_empty());
    }

    #[test]
    fn unconfined_grants_everything() {
        let p = SecurityPolicy::unconfined();
        assert_eq!(p.mem_grant(Tag(99)), Some(MemProt::ReadWrite));
        assert_eq!(p.fd_grant(FdId(99)), Some(FdProt::ReadWrite));
    }

    #[test]
    fn builder_methods_accumulate() {
        let mut p = SecurityPolicy::deny_all();
        p.sc_mem_add(Tag(1), MemProt::Read)
            .sc_mem_add(Tag(2), MemProt::ReadWrite)
            .sc_fd_add(FdId(3), FdProt::Write);
        assert_eq!(p.mem_grant(Tag(1)), Some(MemProt::Read));
        assert_eq!(p.mem_grant(Tag(2)), Some(MemProt::ReadWrite));
        assert_eq!(p.fd_grant(FdId(3)), Some(FdProt::Write));
    }

    #[test]
    fn revocation_removes_grants() {
        let mut p = SecurityPolicy::deny_all();
        p.sc_mem_add(Tag(1), MemProt::Read)
            .sc_fd_add(FdId(2), FdProt::Write);
        assert_eq!(p.sc_mem_del(Tag(1)), Some(MemProt::Read));
        assert_eq!(p.mem_grant(Tag(1)), None);
        assert_eq!(p.sc_mem_del(Tag(1)), None);
        assert_eq!(p.fds.remove(&FdId(2)), Some(FdProt::Write));
        assert_eq!(p.fd_grant(FdId(2)), None);
    }

    #[test]
    fn unconfined_parent_may_grant_anything() {
        let parent = SecurityPolicy::unconfined();
        let mut child = SecurityPolicy::deny_all();
        child.sc_mem_add(Tag(5), MemProt::ReadWrite);
        assert!(parent.validate_child(&child).is_ok());
    }

    #[test]
    fn child_cannot_be_unconfined_under_confined_parent() {
        let mut parent = SecurityPolicy::deny_all();
        parent.sc_mem_add(Tag(1), MemProt::ReadWrite);
        let child = SecurityPolicy::unconfined();
        assert!(parent.validate_child(&child).is_err());
    }

    #[test]
    fn subset_rule_for_memory() {
        let mut parent = SecurityPolicy::deny_all();
        parent.sc_mem_add(Tag(1), MemProt::Read);
        parent.sc_mem_add(Tag(2), MemProt::ReadWrite);

        // Equal or lesser grants are fine.
        let mut ok_child = SecurityPolicy::deny_all();
        ok_child.sc_mem_add(Tag(1), MemProt::Read);
        ok_child.sc_mem_add(Tag(2), MemProt::Read);
        assert!(parent.validate_child(&ok_child).is_ok());

        // Escalating read to read-write is refused.
        let mut bad_child = SecurityPolicy::deny_all();
        bad_child.sc_mem_add(Tag(1), MemProt::ReadWrite);
        assert!(parent.validate_child(&bad_child).is_err());

        // Granting a tag the parent does not hold is refused.
        let mut bad_child2 = SecurityPolicy::deny_all();
        bad_child2.sc_mem_add(Tag(3), MemProt::Read);
        assert!(parent.validate_child(&bad_child2).is_err());
    }

    #[test]
    fn subset_rule_for_fds() {
        let mut parent = SecurityPolicy::deny_all();
        parent.sc_fd_add(FdId(1), FdProt::Read);
        let mut bad = SecurityPolicy::deny_all();
        bad.sc_fd_add(FdId(1), FdProt::ReadWrite);
        assert!(parent.validate_child(&bad).is_err());
        let mut ok = SecurityPolicy::deny_all();
        ok.sc_fd_add(FdId(1), FdProt::Read);
        assert!(parent.validate_child(&ok).is_ok());
    }

    #[test]
    fn callgate_permissions_checked_against_creator() {
        let mut parent = SecurityPolicy::deny_all();
        parent.sc_mem_add(Tag(1), MemProt::Read);

        // Callgate wants RW on tag 1: more than the creator holds.
        let mut cg_policy = SecurityPolicy::deny_all();
        cg_policy.sc_mem_add(Tag(1), MemProt::ReadWrite);
        let mut child = SecurityPolicy::deny_all();
        child.sc_cgate_add(CgEntryId(1), cg_policy, None);
        assert!(parent.validate_child(&child).is_err());

        // Within the creator's privileges it is accepted.
        let mut cg_ok = SecurityPolicy::deny_all();
        cg_ok.sc_mem_add(Tag(1), MemProt::Read);
        let mut child_ok = SecurityPolicy::deny_all();
        child_ok.sc_cgate_add(CgEntryId(1), cg_ok, None);
        assert!(parent.validate_child(&child_ok).is_ok());
    }

    #[test]
    fn uid_and_root_changes_require_superuser_parent() {
        let parent_nonroot = SecurityPolicy::deny_all().with_uid(Uid(1000));
        let child_other_uid = SecurityPolicy::deny_all().with_uid(Uid(1001));
        assert!(parent_nonroot.validate_child(&child_other_uid).is_err());

        let parent_root = SecurityPolicy::deny_all().with_uid(Uid::ROOT);
        let child = SecurityPolicy::deny_all()
            .with_uid(Uid(1001))
            .with_fs_root("/var/empty");
        assert!(parent_root.validate_child(&child).is_ok());

        let child_chroot = SecurityPolicy::deny_all()
            .with_uid(Uid(1000))
            .with_fs_root("/jail");
        assert!(parent_nonroot.validate_child(&child_chroot).is_err());
    }

    #[test]
    fn merge_grants_unions_permissions() {
        let mut base = SecurityPolicy::deny_all();
        base.sc_mem_add(Tag(1), MemProt::Read);
        let mut extra = SecurityPolicy::deny_all();
        extra.sc_mem_add(Tag(2), MemProt::ReadWrite);
        extra.sc_fd_add(FdId(7), FdProt::Read);
        base.merge_grants(&extra);
        assert_eq!(base.mem_grant(Tag(1)), Some(MemProt::Read));
        assert_eq!(base.mem_grant(Tag(2)), Some(MemProt::ReadWrite));
        assert_eq!(base.fd_grant(FdId(7)), Some(FdProt::Read));
    }

    #[test]
    fn uid_root_helper() {
        assert!(Uid::ROOT.is_root());
        assert!(!Uid(1000).is_root());
    }
}
