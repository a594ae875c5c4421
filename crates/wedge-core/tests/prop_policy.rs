//! Property tests for the security-policy lattice (§3.1's subset-only
//! delegation rule) and the resource-accounting extension.
//!
//! The delegation rule is what makes Wedge's compartment tree monotone: "an
//! sthread can only create a child sthread with equal or lesser privileges
//! than its own". These properties check that the rule behaves like a
//! preorder over randomly generated policies — any faithful subset of a
//! parent is accepted, anything that adds or upgrades a grant is rejected —
//! and that the resource accountant never over- or under-counts under
//! arbitrary interleavings of charges and releases.

use proptest::prelude::*;

use wedge_core::resource::{ResourceAccountant, ResourceKind, ResourceLimits};
use wedge_core::{FdId, FdProt, MemProt, SecurityPolicy, Tag, Uid};

const TAG_POOL: u64 = 6;
const FD_POOL: u64 = 4;

fn arb_mem_prot() -> impl Strategy<Value = MemProt> {
    prop_oneof![
        Just(MemProt::Read),
        Just(MemProt::ReadWrite),
        Just(MemProt::CopyOnWrite),
    ]
}

fn arb_fd_prot() -> impl Strategy<Value = FdProt> {
    prop_oneof![
        Just(FdProt::Read),
        Just(FdProt::Write),
        Just(FdProt::ReadWrite)
    ]
}

/// A randomly populated (confined) policy over small tag/fd pools.
fn arb_policy() -> impl Strategy<Value = SecurityPolicy> {
    let mem = prop::collection::btree_map(0u64..TAG_POOL, arb_mem_prot(), 0..5);
    let fds = prop::collection::btree_map(0u64..FD_POOL, arb_fd_prot(), 0..4);
    (mem, fds).prop_map(|(mem, fds)| {
        let mut policy = SecurityPolicy::deny_all();
        for (tag, prot) in mem {
            policy.sc_mem_add(Tag(tag), prot);
        }
        for (fd, prot) in fds {
            policy.sc_fd_add(FdId(fd), prot);
        }
        policy
    })
}

/// Derive a child that is a faithful subset of `parent`: keep a random
/// subset of grants, possibly downgrading each to something the parent
/// grant may delegate.
fn subset_child(parent: &SecurityPolicy, keep: &[bool], downgrade: &[bool]) -> SecurityPolicy {
    let mut child = SecurityPolicy::deny_all();
    for (i, (tag, prot)) in parent.mem_grants().iter().enumerate() {
        if !keep.get(i).copied().unwrap_or(true) {
            continue;
        }
        let granted = if downgrade.get(i).copied().unwrap_or(false) {
            // Every protection may delegate Read or CopyOnWrite views.
            MemProt::Read
        } else {
            *prot
        };
        child.sc_mem_add(*tag, granted);
    }
    for (i, (fd, prot)) in parent.fd_grants().iter().enumerate() {
        if !keep.get(i + 8).copied().unwrap_or(true) {
            continue;
        }
        child.sc_fd_add(*fd, *prot);
    }
    child
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every policy validates an exact copy of itself and the empty policy.
    #[test]
    fn policy_accepts_itself_and_the_empty_child(parent in arb_policy()) {
        prop_assert!(parent.validate_child(&parent.clone()).is_ok());
        prop_assert!(parent
            .validate_child(&SecurityPolicy::deny_all())
            .is_ok());
    }

    /// Any faithful subset (dropping grants, downgrading to read) validates.
    #[test]
    fn policy_accepts_any_faithful_subset(
        parent in arb_policy(),
        keep in prop::collection::vec(any::<bool>(), 12),
        downgrade in prop::collection::vec(any::<bool>(), 12),
    ) {
        let child = subset_child(&parent, &keep, &downgrade);
        prop_assert!(
            parent.validate_child(&child).is_ok(),
            "faithful subset was rejected"
        );
    }

    /// Adding a grant the parent does not hold is always rejected.
    #[test]
    fn policy_rejects_grants_the_parent_lacks(
        parent in arb_policy(),
        extra_tag in 0u64..TAG_POOL * 4,
        prot in arb_mem_prot(),
    ) {
        prop_assume!(parent.mem_grant(Tag(extra_tag)).is_none());
        let mut child = SecurityPolicy::deny_all();
        child.sc_mem_add(Tag(extra_tag), prot);
        prop_assert!(parent.validate_child(&child).is_err());
    }

    /// Upgrading a read-only or copy-on-write grant to read-write is always
    /// rejected; so is a non-root parent changing uid or filesystem root.
    #[test]
    fn policy_rejects_privilege_escalation(
        parent in arb_policy(),
        uid in 1u32..5000,
    ) {
        for (tag, prot) in parent.mem_grants() {
            if !matches!(prot, MemProt::ReadWrite) {
                let mut child = SecurityPolicy::deny_all();
                child.sc_mem_add(*tag, MemProt::ReadWrite);
                prop_assert!(parent.validate_child(&child).is_err());
            }
        }
        let parent_nonroot = parent.clone().with_uid(Uid(uid));
        let child_other = SecurityPolicy::deny_all().with_uid(Uid(uid + 1));
        prop_assert!(parent_nonroot
            .validate_child(&child_other)
            .is_err());
    }

    /// The delegation preorder is transitive: a subset of a subset is a
    /// subset of the original (checked via validate_child chains).
    #[test]
    fn delegation_is_transitive(
        grandparent in arb_policy(),
        keep1 in prop::collection::vec(any::<bool>(), 12),
        down1 in prop::collection::vec(any::<bool>(), 12),
        keep2 in prop::collection::vec(any::<bool>(), 12),
        down2 in prop::collection::vec(any::<bool>(), 12),
    ) {
        let parent = subset_child(&grandparent, &keep1, &down1);
        let child = subset_child(&parent, &keep2, &down2);
        prop_assert!(grandparent.validate_child(&parent).is_ok());
        prop_assert!(parent.validate_child(&child).is_ok());
        prop_assert!(
            grandparent.validate_child(&child).is_ok(),
            "transitivity violated"
        );
    }

    /// The resource accountant never lets usage exceed the limit, never goes
    /// negative, and reports exactly the net of accepted charges minus
    /// releases, for arbitrary operation sequences.
    #[test]
    fn accountant_is_exact_under_arbitrary_sequences(
        limit in 1u64..10_000,
        ops in prop::collection::vec((any::<bool>(), 1u64..2_000), 1..64),
    ) {
        let accountant =
            ResourceAccountant::new(ResourceLimits::unlimited().with_tagged_bytes(limit));
        let mut expected: u64 = 0;
        for (is_charge, amount) in ops {
            if is_charge {
                match accountant.charge(ResourceKind::TaggedBytes, amount) {
                    Ok(()) => {
                        expected += amount;
                        prop_assert!(expected <= limit);
                    }
                    Err(err) => {
                        // A refused charge must actually have been over the
                        // limit, and must not change the books.
                        prop_assert!(expected + amount > limit, "spurious refusal: {err}");
                    }
                }
            } else {
                accountant.release(ResourceKind::TaggedBytes, amount);
                expected = expected.saturating_sub(amount);
            }
            prop_assert_eq!(accountant.usage().get(ResourceKind::TaggedBytes), expected);
            prop_assert_eq!(
                accountant.remaining(ResourceKind::TaggedBytes),
                limit - expected
            );
        }
    }

    /// Unlimited axes never refuse and always report `u64::MAX` headroom.
    #[test]
    fn unlimited_axes_never_refuse(
        charges in prop::collection::vec(1u64..1_000_000, 1..32),
    ) {
        let accountant = ResourceAccountant::new(ResourceLimits::unlimited());
        for amount in charges {
            prop_assert!(accountant.charge(ResourceKind::CpuTicks, amount).is_ok());
            prop_assert_eq!(accountant.remaining(ResourceKind::CpuTicks), u64::MAX);
        }
    }
}
