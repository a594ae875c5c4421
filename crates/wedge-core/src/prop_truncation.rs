//! Truncation ≡ replay, as a property.
//!
//! Arbitrary interleavings of create / grant / revoke / widen / scrub /
//! exit over a few compartments run against one kernel, with
//! replicas synced at arbitrary points and the log truncated at arbitrary
//! points ([`Kernel::force_truncate`], a test-only hook — which is why this
//! lives in the crate and not under `tests/`). The harness copies every
//! published op out of the log before any truncation can drop it; at the
//! end, every replica must answer for every `(compartment, tag)` exactly as
//! a fresh replica that replays that **full, untruncated** sequence, and
//! along the way every permission cache — each one sleeps for an arbitrary
//! stretch, across truncations (`seen_version < base`) and across its own
//! compartment's retirement — must answer as the authoritative table does.

use proptest::prelude::*;

use super::*;

const TAGS: usize = 3;
const MAX_COMPARTMENTS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Step {
    Create {
        grants: u8,
    },
    Grant {
        slot: usize,
        tag: usize,
        prot: MemProt,
    },
    Revoke {
        slot: usize,
        tag: usize,
    },
    Widen {
        slot: usize,
        tag: usize,
        prot: MemProt,
    },
    Scrub {
        slot: usize,
    },
    Exit {
        slot: usize,
    },
    SyncReplica {
        replica: usize,
    },
    Truncate,
    ReadThroughCache {
        slot: usize,
    },
}

fn arb_prot() -> impl Strategy<Value = MemProt> {
    prop_oneof![
        Just(MemProt::Read),
        Just(MemProt::ReadWrite),
        Just(MemProt::CopyOnWrite),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    let slot = || 0usize..MAX_COMPARTMENTS;
    let tag = || 0usize..TAGS;
    // Grants, truncations and cache reads are listed twice: double weight.
    prop_oneof![
        (0u8..8).prop_map(|grants| Step::Create { grants }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Grant { slot, tag, prot }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Grant { slot, tag, prot }),
        (slot(), tag()).prop_map(|(slot, tag)| Step::Revoke { slot, tag }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Widen { slot, tag, prot }),
        slot().prop_map(|slot| Step::Scrub { slot }),
        slot().prop_map(|slot| Step::Exit { slot }),
        (0usize..8).prop_map(|replica| Step::SyncReplica { replica }),
        Just(Step::Truncate),
        Just(Step::Truncate),
        slot().prop_map(|slot| Step::ReadThroughCache { slot }),
        slot().prop_map(|slot| Step::ReadThroughCache { slot }),
    ]
}

/// One compartment the run created: its id, its spawn-time policy (the
/// scrub baseline), a permission cache bound at creation, and whether the
/// run has retired it yet.
struct Slot {
    id: CompartmentId,
    baseline: SecurityPolicy,
    cache: Arc<Mutex<PermCache>>,
    live: bool,
}

struct Harness {
    kernel: Arc<Kernel>,
    root: CompartmentId,
    tags: Vec<Tag>,
    slots: Vec<Slot>,
    /// Every op the kernel ever published, copied out before truncation.
    history: Vec<PolicyOp>,
}

impl Harness {
    fn new() -> Harness {
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root").id();
        let tags = (0..TAGS).map(|_| kernel.tag_new(root).unwrap()).collect();
        let mut harness = Harness {
            kernel,
            root,
            tags,
            slots: Vec::new(),
            history: Vec::new(),
        };
        harness.copy_new_ops();
        harness
    }

    fn log(&self) -> &OpLog {
        &self.kernel.oplog
    }

    fn copy_new_ops(&mut self) {
        let (from, tail) = (self.history.len() as u64, self.log().tail());
        let mut fresh = Vec::new();
        assert!(
            self.log().scan(from, tail, |op| fresh.push(op.clone())),
            "the harness copies before it truncates"
        );
        self.history.extend(fresh);
    }

    /// What the authoritative table says `slot` holds on `tag`.
    fn authoritative(&self, slot: &Slot, tag: Tag) -> Result<Option<MemProt>, WedgeError> {
        self.kernel.policy_of(slot.id).map(|p| p.mem_grant(tag))
    }

    fn through_cache(&self, slot: &Slot, tag: Tag) -> Result<Option<MemProt>, WedgeError> {
        self.kernel
            .resolve_mem_grant(slot.id, tag, Some(&slot.cache), StatKind::None)
    }

    /// The slot a step's index lands on, once any compartment exists.
    fn pick(&self, slot: usize) -> Option<&Slot> {
        self.slots.get(slot % self.slots.len().max(1))
    }

    /// Run a fallible mutation aimed at `slot`: a live compartment accepts
    /// it, a retired one refuses it with `UnknownCompartment`.
    fn mutate(
        &self,
        slot: usize,
        op: impl FnOnce(&Slot) -> Result<(), WedgeError>,
    ) -> Result<(), TestCaseError> {
        if let Some(slot) = self.pick(slot) {
            let expected = match slot.live {
                true => Ok(()),
                false => Err(WedgeError::UnknownCompartment(slot.id)),
            };
            prop_assert_eq!(op(slot), expected);
        }
        Ok(())
    }

    fn apply(&mut self, step: Step) -> Result<(), TestCaseError> {
        let kernel = self.kernel.clone();
        match step {
            Step::Create { grants } if self.slots.len() < MAX_COMPARTMENTS => {
                let mut baseline = SecurityPolicy::deny_all();
                for (bit, tag) in self.tags.iter().enumerate() {
                    if grants & (1 << bit) != 0 {
                        baseline.sc_mem_add(*tag, MemProt::Read);
                    }
                }
                let id = kernel
                    .register_child(self.root, "slot", &baseline, ChildKind::Sthread)
                    .unwrap();
                let cache = Arc::new(Mutex::new(PermCache::new()));
                kernel.adopt_cache(&cache);
                let slot = Slot {
                    id,
                    baseline,
                    cache,
                    live: true,
                };
                // Warm the cache on everything, so it has something to be
                // wrong about later.
                for tag in &self.tags {
                    prop_assert_eq!(
                        self.through_cache(&slot, *tag),
                        self.authoritative(&slot, *tag)
                    );
                }
                self.slots.push(slot);
            }
            Step::Create { .. } => {}
            Step::Grant { slot, tag, prot } => self.mutate(slot, |slot| {
                kernel.policy_add(self.root, slot.id, self.tags[tag], prot)
            })?,
            Step::Revoke { slot, tag } => self.mutate(slot, |slot| {
                kernel.policy_del(self.root, slot.id, self.tags[tag])
            })?,
            Step::Scrub { slot } => self.mutate(slot, |slot| {
                kernel.scrub_compartment(slot.id, &slot.baseline)
            })?,
            Step::Widen { slot, tag, prot } => {
                if let Some(slot) = self.pick(slot) {
                    let mut extra = SecurityPolicy::deny_all();
                    extra.sc_mem_add(self.tags[tag], prot);
                    kernel.widen_policy(slot.id, &extra);
                }
            }
            Step::Exit { slot } => {
                let slots = self.slots.len().max(1);
                if let Some(slot) = self.slots.get_mut(slot % slots) {
                    kernel.compartment_exited(slot.id);
                    slot.live = false;
                }
            }
            Step::SyncReplica { replica } => {
                let replicas = &kernel.replicas;
                replicas[replica % replicas.len()].sync_to(self.log(), self.log().tail());
            }
            Step::Truncate => {
                kernel.force_truncate();
                prop_assert_eq!(self.log().resident(), 0);
                prop_assert_eq!(self.log().base(), self.log().tail());
            }
            Step::ReadThroughCache { slot } => {
                if let Some(slot) = self.pick(slot) {
                    for tag in &self.tags {
                        prop_assert_eq!(
                            self.through_cache(slot, *tag),
                            self.authoritative(slot, *tag),
                            "cache of {} on {} (live: {})",
                            slot.id,
                            tag,
                            slot.live
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Every replica, brought to the tail, against a fresh replica that
    /// replays the whole history from version 0.
    fn check_against_full_replay(&self) -> Result<(), TestCaseError> {
        let full_log = OpLog::new();
        for op in &self.history {
            full_log.publish(op.clone());
        }
        let reference = KernelReplica::new();
        reference.sync_to(&full_log, full_log.tail());

        let live = self.slots.iter().filter(|s| s.live).count();
        prop_assert_eq!(reference.views(), live + 1, "root + live compartments");
        prop_assert_eq!(self.kernel.live_compartments(), live + 1);
        for replica in &self.kernel.replicas {
            replica.sync_to(self.log(), self.log().tail());
            prop_assert_eq!(replica.views(), reference.views());
            for slot in &self.slots {
                for tag in &self.tags {
                    let answer = replica.mem_grant(slot.id, *tag);
                    prop_assert_eq!(answer, reference.mem_grant(slot.id, *tag));
                    prop_assert_eq!(answer, self.authoritative(slot, *tag).ok());
                    prop_assert_eq!(answer.is_some(), slot.live);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn truncated_replicas_and_sleepy_caches_agree_with_full_replay(
        steps in prop::collection::vec(arb_step(), 1..80)
    ) {
        let mut harness = Harness::new();
        for step in steps {
            harness.apply(step)?;
            harness.copy_new_ops();
        }
        harness.check_against_full_replay()?;
        // One more truncation, then the same answers from an empty log.
        harness.kernel.force_truncate();
        harness.check_against_full_replay()?;
    }
}

/// The two cases the property reaches only by luck, pinned: a warm cache
/// that sleeps across a truncation, and one whose compartment retires while
/// it sleeps.
#[test]
fn a_cache_that_sleeps_across_truncation_or_retirement_wakes_up_right() {
    let mut harness = Harness::new();
    harness.apply(Step::Create { grants: 0b011 }).unwrap();
    harness.apply(Step::Create { grants: 0b100 }).unwrap();
    let (tag0, tag2) = (harness.tags[0], harness.tags[2]);

    // Slot 0's cache is warm on tag0 = Read. Revoke it, bury the revoke
    // under a truncation, and wake the cache: `seen_version < base`.
    harness.apply(Step::Revoke { slot: 0, tag: 0 }).unwrap();
    harness.copy_new_ops();
    harness.apply(Step::Truncate).unwrap();
    let sleepy = &harness.slots[0];
    assert!(sleepy.cache.lock().seen_version < harness.log().base());
    assert_eq!(harness.through_cache(sleepy, tag0), Ok(None));

    // Slot 1's cache is warm on tag2. Retire the compartment, truncate the
    // `Retire` away, and wake the cache: unknown, not a stale grant.
    assert_eq!(
        harness.through_cache(&harness.slots[1], tag2),
        Ok(Some(MemProt::Read))
    );
    harness.apply(Step::Exit { slot: 1 }).unwrap();
    harness.copy_new_ops();
    harness.apply(Step::Truncate).unwrap();
    let retired = &harness.slots[1];
    assert_eq!(
        harness.through_cache(retired, tag2),
        Err(WedgeError::UnknownCompartment(retired.id))
    );
    // ...and the same when the cache folds the `Retire` itself.
    harness.apply(Step::Create { grants: 0b001 }).unwrap();
    let folded = harness.slots.len() - 1;
    harness.apply(Step::Exit { slot: folded }).unwrap();
    let retired = &harness.slots[folded];
    assert_eq!(
        harness.through_cache(retired, tag0),
        Err(WedgeError::UnknownCompartment(retired.id))
    );
    harness.copy_new_ops();
    harness.check_against_full_replay().unwrap();
}
