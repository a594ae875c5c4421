//! Cache ≡ table, as a property.
//!
//! Arbitrary interleavings of create / grant / revoke / widen / scrub /
//! exit — and `tag_new` / `fd_create` by the confined compartments
//! themselves, for the implicit creator grants — run against one kernel.
//! Each compartment's permission cache is bound at creation and then only
//! consulted at arbitrary points, so it sleeps through arbitrary stretches
//! of mutations, including its own compartment's retirement; whenever it
//! wakes, and again at the end, it must answer for every tag and
//! descriptor exactly as the authoritative table does. (In the crate, not
//! under `tests/`: it drives `Kernel`'s crate-private mutation entry points
//! and `PermCache` directly.)

use proptest::prelude::*;

use super::*;

const TAGS: usize = 3;
const MAX_TAGS: usize = 8;
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
    TagNew {
        slot: usize,
    },
    FdCreate {
        slot: usize,
    },
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
    let tag = || 0usize..MAX_TAGS;
    // Grants and cache reads are listed twice: double weight.
    prop_oneof![
        (0u8..8).prop_map(|grants| Step::Create { grants }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Grant { slot, tag, prot }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Grant { slot, tag, prot }),
        (slot(), tag()).prop_map(|(slot, tag)| Step::Revoke { slot, tag }),
        (slot(), tag(), arb_prot()).prop_map(|(slot, tag, prot)| Step::Widen { slot, tag, prot }),
        slot().prop_map(|slot| Step::Scrub { slot }),
        slot().prop_map(|slot| Step::Exit { slot }),
        slot().prop_map(|slot| Step::TagNew { slot }),
        slot().prop_map(|slot| Step::FdCreate { slot }),
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
    /// The root's [`TAGS`] tags, then those the compartments created.
    tags: Vec<Tag>,
    /// Descriptors the compartments created.
    fds: Vec<FdId>,
    slots: Vec<Slot>,
}

impl Harness {
    fn new() -> Harness {
        let kernel = Arc::new(Kernel::new());
        let root = kernel.create_root_compartment("root").id();
        let tags = (0..TAGS).map(|_| kernel.tag_new(root).unwrap()).collect();
        Harness {
            kernel,
            root,
            tags,
            fds: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn tag(&self, index: usize) -> Tag {
        self.tags[index % self.tags.len()]
    }

    /// The slot a step's index lands on, once any compartment exists.
    fn pick(&self, slot: usize) -> Option<&Slot> {
        self.slots.get(slot % self.slots.len().max(1))
    }

    /// Every tag and descriptor the run knows, asked through `slot`'s
    /// cache and of the authoritative table: the answers must be equal.
    fn cache_agrees_with_table(&self, slot: &Slot) -> Result<(), TestCaseError> {
        let policy = self.kernel.policy_of(slot.id);
        let cache = Some(&*slot.cache);
        for tag in &self.tags {
            prop_assert_eq!(
                self.kernel
                    .resolve_mem_grant(slot.id, *tag, cache, StatKind::None),
                policy
                    .as_ref()
                    .map(|p| p.mem_grant(*tag))
                    .map_err(Clone::clone),
                "cache of {} on {} (live: {})",
                slot.id,
                tag,
                slot.live
            );
        }
        for fd in &self.fds {
            prop_assert_eq!(
                self.kernel
                    .resolve_fd_grant(slot.id, *fd, cache, StatKind::None),
                policy
                    .as_ref()
                    .map(|p| p.fd_grant(*fd))
                    .map_err(Clone::clone),
                "cache of {} on {:?} (live: {})",
                slot.id,
                fd,
                slot.live
            );
        }
        Ok(())
    }

    /// Run a fallible mutation aimed at `slot`: a live compartment accepts
    /// it (handing back what it made), a retired one refuses it with
    /// `UnknownCompartment`.
    fn mutate<T>(
        &self,
        slot: usize,
        op: impl FnOnce(&Slot) -> Result<T, WedgeError>,
    ) -> Result<Option<T>, TestCaseError> {
        let Some(slot) = self.pick(slot) else {
            return Ok(None);
        };
        let outcome = op(slot);
        if !slot.live {
            prop_assert_eq!(outcome.err(), Some(WedgeError::UnknownCompartment(slot.id)));
            return Ok(None);
        }
        prop_assert!(outcome.is_ok(), "refused by a live compartment");
        Ok(outcome.ok())
    }

    fn apply(&mut self, step: Step) -> Result<(), TestCaseError> {
        let kernel = self.kernel.clone();
        match step {
            Step::Create { grants } if self.slots.len() < MAX_COMPARTMENTS => {
                let mut baseline = SecurityPolicy::deny_all();
                for (bit, tag) in self.tags.iter().take(TAGS).enumerate() {
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
                self.cache_agrees_with_table(&slot)?;
                self.slots.push(slot);
            }
            Step::Create { .. } => {}
            Step::Grant { slot, tag, prot } => {
                self.mutate(slot, |slot| {
                    kernel.policy_add(self.root, slot.id, self.tag(tag), prot)
                })?;
            }
            Step::Revoke { slot, tag } => {
                self.mutate(slot, |slot| {
                    kernel.policy_del(self.root, slot.id, self.tag(tag))
                })?;
            }
            Step::Scrub { slot } => {
                self.mutate(slot, |slot| {
                    kernel.scrub_compartment(slot.id, &slot.baseline)
                })?;
            }
            Step::Widen { slot, tag, prot } => {
                if let Some(slot) = self.pick(slot) {
                    let mut extra = SecurityPolicy::deny_all();
                    extra.sc_mem_add(self.tag(tag), prot);
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
            Step::TagNew { slot } if self.tags.len() < MAX_TAGS => {
                let made = self.mutate(slot, |slot| kernel.tag_new(slot.id))?;
                self.tags.extend(made);
            }
            Step::TagNew { .. } => {}
            Step::FdCreate { slot } => {
                let made = self.mutate(slot, |slot| kernel.fd_create_stream(slot.id, "fd"))?;
                self.fds.extend(made);
            }
            Step::ReadThroughCache { slot } => {
                if let Some(slot) = self.pick(slot) {
                    self.cache_agrees_with_table(slot)?;
                }
            }
        }
        Ok(())
    }

    /// Every cache wakes up, and the table holds the live compartments only.
    fn check_every_cache(&self) -> Result<(), TestCaseError> {
        let live = self.slots.iter().filter(|s| s.live).count();
        prop_assert_eq!(self.kernel.live_compartments(), live + 1, "root + live");
        for slot in &self.slots {
            self.cache_agrees_with_table(slot)?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sleepy_caches_answer_as_the_table_does(
        steps in prop::collection::vec(arb_step(), 1..80)
    ) {
        let mut harness = Harness::new();
        for step in steps {
            harness.apply(step)?;
        }
        harness.check_every_cache()?;
    }
}

/// The cases the property reaches only by luck, pinned: a warm cache that
/// sleeps through a revoke, through its compartment's own `tag_new` /
/// `fd_create`, through a scrub, and through its compartment's retirement.
#[test]
fn a_cache_that_sleeps_through_a_mutation_or_its_own_retirement_wakes_up_right() {
    let mut harness = Harness::new();
    harness.apply(Step::Create { grants: 0b011 }).unwrap();
    harness.apply(Step::Create { grants: 0b100 }).unwrap();
    let (tag0, tag2) = (harness.tags[0], harness.tags[2]);
    let through_cache = |harness: &Harness, slot: usize, tag: Tag| {
        let slot = &harness.slots[slot];
        harness
            .kernel
            .resolve_mem_grant(slot.id, tag, Some(&slot.cache), StatKind::None)
    };

    // Slot 0's cache is warm on tag0 = Read; the revoke flushes it.
    assert_eq!(through_cache(&harness, 0, tag0), Ok(Some(MemProt::Read)));
    harness.apply(Step::Revoke { slot: 0, tag: 0 }).unwrap();
    assert_eq!(through_cache(&harness, 0, tag0), Ok(None));

    // The implicit creator grants reach the creator's warm cache, and the
    // scrub that undoes them does too.
    harness.apply(Step::TagNew { slot: 0 }).unwrap();
    harness.apply(Step::FdCreate { slot: 0 }).unwrap();
    let (made, fd) = (*harness.tags.last().unwrap(), harness.fds[0]);
    let fd_through_cache = |harness: &Harness| {
        let slot = &harness.slots[0];
        harness
            .kernel
            .resolve_fd_grant(slot.id, fd, Some(&slot.cache), StatKind::None)
    };
    assert_eq!(
        through_cache(&harness, 0, made),
        Ok(Some(MemProt::ReadWrite))
    );
    assert_eq!(fd_through_cache(&harness), Ok(Some(FdProt::ReadWrite)));
    harness.apply(Step::Scrub { slot: 0 }).unwrap();
    assert_eq!(through_cache(&harness, 0, made), Ok(None));
    assert_eq!(fd_through_cache(&harness), Ok(None));
    assert_eq!(through_cache(&harness, 0, tag0), Ok(Some(MemProt::Read)));

    // Slot 1's cache is warm on tag2. Retire the compartment and wake the
    // cache: unknown, not a stale grant — on every attempt.
    assert_eq!(through_cache(&harness, 1, tag2), Ok(Some(MemProt::Read)));
    harness.apply(Step::Exit { slot: 1 }).unwrap();
    let retired = harness.slots[1].id;
    for _ in 0..2 {
        assert_eq!(
            through_cache(&harness, 1, tag2),
            Err(WedgeError::UnknownCompartment(retired))
        );
    }
    harness.check_every_cache().unwrap();
}
