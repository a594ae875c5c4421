//! The recycled-callgate trade-off of §3.3, end to end.
//!
//! The paper: *"Because they are reused, recycled callgates do trade some
//! isolation for performance, and must be used carefully; should a recycled
//! callgate be exploited, and called by sthreads acting on behalf of
//! different principals, sensitive arguments from one caller may become
//! visible to another."*
//!
//! These tests drive the same (deliberately exploitable) callgate entry in
//! both modes and check that the residue of one principal's call is visible
//! to the next principal **only** in the recycled mode: a standard callgate
//! activation is a fresh compartment, so the previous activation's private
//! scratch memory is gone by the time the second caller arrives.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wedge::core::callgate::typed_entry;
use wedge::core::{SBuf, SecurityPolicy, Wedge, WedgeError};

/// Register a callgate that stashes each caller's argument in its own
/// *private* (untagged) memory and — modelling an exploited callgate — dumps
/// the previous caller's stash when asked to.
///
/// The `stash` holds only the `SBuf` *handle*; whether the bytes behind it
/// are still reachable is decided entirely by the kernel (the compartment
/// that allocated them must still exist and must be the one reading).
fn register_leaky_gate(wedge: &Wedge) -> (wedge::core::CgEntryId, Arc<Mutex<Option<SBuf>>>) {
    let stash: Arc<Mutex<Option<SBuf>>> = Arc::new(Mutex::new(None));
    let stash_for_gate = stash.clone();
    let entry = wedge.kernel().cgate_register(
        "leaky_processor",
        typed_entry(move |ctx, _trusted, input: Vec<u8>| {
            let mut stash = stash_for_gate.lock().expect("stash lock");
            if input == b"__exploit_dump__" {
                // The "exploited" path: try to disclose whatever the previous
                // invocation left behind.
                let leaked = match stash.as_ref() {
                    Some(previous) => ctx.read_all(previous).unwrap_or_default(),
                    None => Vec::new(),
                };
                return Ok(leaked);
            }
            // The benign path: process the argument, leaving a copy in the
            // activation's private scratch memory (the PAM-style sloppiness
            // the paper warns about).
            let scratch = ctx.malloc(input.len().max(1))?;
            ctx.write(&scratch, 0, &input)?;
            *stash = Some(scratch);
            Ok(Vec::<u8>::new())
        }),
    );
    (entry, stash)
}

fn caller_policy(entry: wedge::core::CgEntryId) -> SecurityPolicy {
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
    policy
}

/// Run principal A (submits a secret) then principal B (runs the exploit
/// dump) against the gate, in either standard or recycled mode, and return
/// what principal B managed to read.
fn run_two_principals(recycled: bool) -> Vec<u8> {
    let wedge = Wedge::init();
    let root = wedge.root();
    let (entry, _stash) = register_leaky_gate(&wedge);
    let policy = caller_policy(entry);

    let secret = b"principal-A credit card 4111-1111".to_vec();
    let submit = {
        let secret = secret.clone();
        root.sthread_create("principal-a", &policy, move |ctx| {
            if recycled {
                ctx.cgate_recycled_expect::<Vec<u8>>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new(secret),
                )
            } else {
                ctx.cgate_expect::<Vec<u8>>(entry, &SecurityPolicy::deny_all(), Box::new(secret))
            }
        })
        .expect("principal A sthread")
    };
    submit.join().expect("join A").expect("gate call A");

    let probe = root
        .sthread_create("principal-b", &policy, move |ctx| {
            let payload = b"__exploit_dump__".to_vec();
            if recycled {
                ctx.cgate_recycled_expect::<Vec<u8>>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new(payload),
                )
            } else {
                ctx.cgate_expect::<Vec<u8>>(entry, &SecurityPolicy::deny_all(), Box::new(payload))
            }
        })
        .expect("principal B sthread");
    probe.join().expect("join B").expect("gate call B")
}

#[test]
fn recycled_callgate_exposes_previous_callers_arguments_when_exploited() {
    let leaked = run_two_principals(true);
    assert_eq!(
        leaked, b"principal-A credit card 4111-1111",
        "a recycled callgate reuses one activation, so an exploit in it can see residue"
    );
}

#[test]
fn standard_callgate_leaves_no_residue_between_principals() {
    let leaked = run_two_principals(false);
    assert!(
        leaked.is_empty(),
        "each standard callgate activation is a fresh compartment; the previous \
         activation's private scratch is unreachable, got {leaked:?}"
    );
}

#[test]
fn recycled_and_standard_callgates_compute_the_same_results() {
    // The trade-off is isolation vs. cost, not functionality: both modes give
    // callers the same answers for benign workloads.
    let wedge = Wedge::init();
    let root = wedge.root();
    let entry = wedge.kernel().cgate_register(
        "sum",
        typed_entry(|_ctx, _trusted, input: Vec<u8>| {
            Ok(input.iter().map(|b| *b as u64).sum::<u64>())
        }),
    );
    let policy = caller_policy(entry);

    let handle = root
        .sthread_create("caller", &policy, move |ctx| {
            let data = vec![1u8, 2, 3, 4, 5];
            let fresh = ctx.cgate_expect::<u64>(
                entry,
                &SecurityPolicy::deny_all(),
                Box::new(data.clone()),
            )?;
            let recycled = ctx.cgate_recycled_expect::<u64>(
                entry,
                &SecurityPolicy::deny_all(),
                Box::new(data),
            )?;
            Ok::<_, WedgeError>((fresh, recycled))
        })
        .expect("caller");
    let (fresh, recycled) = handle.join().expect("join").expect("calls");
    assert_eq!(fresh, 15);
    assert_eq!(recycled, 15);
}

/// A recycled gate is one long-lived activation serving a sequence of
/// callers, and the kernel names each invocation's own caller: two
/// compartments log in through it in turn, each ends with the identity it
/// asked for, and the second login leaves the first caller untouched. A
/// recycled-sthread run of the same body serves no caller, so its
/// transition is refused although the worker runs as root.
#[test]
fn a_recycled_gate_transitions_each_caller_and_only_that_caller() {
    use std::sync::mpsc;
    use wedge::core::{RecycledSthread, Uid};

    let wedge = Wedge::init();
    let root = wedge.root();
    let entry = wedge.kernel().cgate_register(
        "login",
        typed_entry(|ctx, _t, uid: u32| ctx.transition_identity(Uid(uid), None)),
    );
    let policy = caller_policy(entry).with_uid(Uid(74));
    let log_in = |uid: u32| {
        let (done_tx, done) = mpsc::channel();
        let (release_tx, release) = mpsc::channel::<()>();
        let caller = root
            .sthread_create("caller", &policy, move |ctx| {
                let login = ctx.cgate_recycled_expect::<()>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new(uid),
                );
                done_tx.send(login).expect("report login");
                // Stay alive until released.
                let _ = release.recv();
            })
            .expect("caller");
        done.recv().expect("login").expect("recycled login");
        (caller, release_tx)
    };
    let (first, release_first) = log_in(1001);
    let (second, release_second) = log_in(1002);
    assert_eq!(wedge.kernel().uid_of(first.id()), Ok(Uid(1001)));
    assert_eq!(wedge.kernel().uid_of(second.id()), Ok(Uid(1002)));
    assert_eq!(wedge.kernel().stats().recycled_invocations, 2);
    drop((release_first, release_second));
    first.join().expect("first caller");
    second.join().expect("second caller");

    let run = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None)
        .run_expect::<()>(Box::new(0u32));
    assert!(
        matches!(run, Err(WedgeError::IdentityDenied(_))),
        "got {run:?}"
    );
}

/// Concurrent safety of recycled sthreads: many OS threads hammer a small
/// set of them with per-principal secrets and exploit dumps. Because every
/// run ends in a scrub of the worker's private scratch — under the lock
/// that ran it — no thread may ever observe another principal's bytes, or
/// even its own from a previous run.
#[test]
fn pooled_workers_leak_nothing_across_principals_under_concurrency() {
    use wedge::core::RecycledSthread;

    let wedge = Wedge::init();
    let root = wedge.root();
    let (entry, _stash) = register_leaky_gate(&wedge);

    const WORKERS: usize = 4;
    let workers: Vec<RecycledSthread> = (0..WORKERS)
        .map(|_| RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None))
        .collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let workers = &workers;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let secret = format!("principal-{t} round-{round} card 4111-{t:04}");
                    workers[(t + round) % WORKERS]
                        .run_expect::<Vec<u8>>(Box::new(secret.into_bytes()))
                        .expect("benign call");
                    // That run's scrub zeroized the worker's scratch.
                    let leaked = workers[(t + 2 * round) % WORKERS]
                        .run_expect::<Vec<u8>>(Box::new(b"__exploit_dump__".to_vec()))
                        .expect("exploit dump");
                    assert!(
                        leaked.is_empty(),
                        "thread {t} round {round} observed residue: {:?}",
                        String::from_utf8_lossy(&leaked)
                    );
                }
            });
        }
    });

    // Every run scrubbed in the kernel, on the four compartments the first
    // runs created; none of it was a callgate invocation.
    let stats = wedge.kernel().stats();
    assert_eq!(stats.private_scrubs, (THREADS * ROUNDS * 2) as u64);
    assert_eq!(stats.sthreads_created, WORKERS as u64);
    assert_eq!(stats.recycled_invocations, 0);
}

/// The control experiment: the same gate served *without* a scrub (the
/// paper's recycled callgate, `cgate_recycled`) reproduces the §3.3
/// residue leak, proving the scrub in `run` — not compartment boundaries
/// alone — is what protects successive principals.
#[test]
fn pool_without_scrub_reproduces_the_recycled_residue_leak() {
    use wedge::core::RecycledSthread;

    let secret = b"principal-A credit card 4111-1111";
    assert_eq!(
        run_two_principals(true),
        secret,
        "without zeroization the single worker leaks across invocations"
    );

    let wedge = Wedge::init();
    let root = wedge.root();
    let (entry, _stash) = register_leaky_gate(&wedge);
    let scrubbed = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
    scrubbed
        .run_expect::<Vec<u8>>(Box::new(secret.to_vec()))
        .expect("benign call");
    let leaked = scrubbed
        .run_expect::<Vec<u8>>(Box::new(b"__exploit_dump__".to_vec()))
        .expect("exploit dump");
    assert!(leaked.is_empty(), "run() scrubs between principals");
}

/// A confined creator builds a recycled sthread under a subset of its own
/// grants, exactly as the unconfined root does; asking for more than it
/// holds is refused by the first run.
#[test]
fn a_confined_creator_runs_a_recycled_sthread_under_a_subset_of_its_grants() {
    use wedge::core::{MemProt, RecycledSthread};

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"read me").expect("buf");
    let entry = wedge.kernel().cgate_register(
        "reader",
        typed_entry(move |ctx, _t, _i: ()| ctx.read_all(&buf)),
    );
    let mut creator_policy = SecurityPolicy::deny_all();
    creator_policy.sc_mem_add(tag, MemProt::Read);
    let creator = root
        .sthread_create("confined-creator", &creator_policy, move |ctx| {
            let run_under = |prot| {
                let mut policy = SecurityPolicy::deny_all();
                policy.sc_mem_add(tag, prot);
                RecycledSthread::new(ctx, entry, &policy, None).run_expect::<Vec<u8>>(Box::new(()))
            };
            (run_under(MemProt::Read), run_under(MemProt::ReadWrite))
        })
        .expect("creator");
    let (read, escalated) = creator.join().expect("join");
    assert_eq!(read.expect("subset policy"), b"read me");
    assert!(
        matches!(escalated, Err(WedgeError::PrivilegeEscalation { .. })),
        "got {escalated:?}"
    );
}

#[test]
fn recycled_callgate_is_cheaper_than_standard_over_many_invocations() {
    // The reason recycled callgates exist at all (§3.3, Figure 7): amortise
    // activation creation over many invocations. Counted here, not timed: a
    // standard call creates one activation compartment per invocation, a
    // recycled gate creates at most one for all of them. The wall-clock
    // ordering is a release assertion in wedge-bench's `conn_path` tests.
    const N: u64 = 40;

    let wedge = Wedge::init();
    let root = wedge.root();
    let entry = wedge
        .kernel()
        .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));
    let policy = caller_policy(entry);
    let kernel = wedge.kernel().clone();

    let handle = root
        .sthread_create("counting-caller", &policy, move |ctx| {
            let before = kernel.stats();
            for _ in 0..N {
                ctx.cgate_expect::<u64>(entry, &SecurityPolicy::deny_all(), Box::new(1u64))
                    .expect("standard call");
            }
            let standard = kernel.stats();
            for _ in 0..N {
                ctx.cgate_recycled_expect::<u64>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new(1u64),
                )
                .expect("recycled call");
            }
            (before, standard, kernel.stats())
        })
        .expect("caller");
    let (before, standard, recycled) = handle.join().expect("join");
    assert_eq!(
        standard.callgate_invocations - before.callgate_invocations,
        N,
        "every standard call creates an activation"
    );
    assert_eq!(standard.recycled_invocations, before.recycled_invocations);
    assert!(
        recycled.callgate_invocations - standard.callgate_invocations <= 1,
        "{N} recycled calls created {} activations",
        recycled.callgate_invocations - standard.callgate_invocations
    );
    assert_eq!(
        recycled.recycled_invocations - standard.recycled_invocations,
        N
    );
}

/// Four long-lived sthreads holding `{tag: Read}` read `buf` in a loop
/// through their warm permission caches; once they have served from warm
/// caches, the root revokes each one's grant. A read that started after
/// its revoke returned and still succeeded is a stale cached grant — a
/// real TOCTOU hole — and panics its reader; every reader stops at its
/// first read that faults after the revoke.
fn revoke_under_readers(root: &wedge::core::SthreadCtx, buf: SBuf) {
    const READERS: u64 = 4;
    let revoked = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicU64::new(0));
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_mem_add(buf.tag, wedge::core::MemProt::Read);
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (revoked, successes) = (revoked.clone(), successes.clone());
            root.sthread_create("reader", &policy, move |ctx| loop {
                // Sample the flag *before* the read starts: if the revoke
                // had already returned by then, the read must fault.
                let revoke_returned = revoked.load(Ordering::SeqCst);
                if ctx.read_all(&buf).is_ok() {
                    successes.fetch_add(1, Ordering::SeqCst);
                    assert!(
                        !revoke_returned,
                        "stale cached grant served a read that started after revoke returned"
                    );
                } else if revoke_returned {
                    break;
                }
                // A pause per read (the timer's slack makes it tens of µs):
                // a read cadence like a worker round trip's, leaving the
                // other tests' threads the cores.
                std::thread::park_timeout(std::time::Duration::from_micros(10));
            })
            .expect("reader")
        })
        .collect();

    while successes.load(Ordering::SeqCst) < READERS * 5 {
        std::thread::yield_now();
    }
    for reader in &readers {
        root.revoke_mem(reader.id(), buf.tag).expect("revoke");
    }
    revoked.store(true, Ordering::SeqCst);
    for reader in readers {
        reader.join().expect("reader sthread");
    }
}

/// Cache-invalidation under concurrency (write the table entry, then bump
/// its version cell): four long-lived readers hammer reads on a shared tag
/// through warm per-sthread permission caches while the root revokes their
/// grants. Any read that *starts* after `revoke_mem` returns must fault.
#[test]
fn revoked_grant_is_immediately_invisible_to_concurrent_pooled_readers() {
    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"hot shared page").expect("buf");
    revoke_under_readers(&root, buf);
}

/// Revoke linearization under churn: four readers hammer warm reads while
/// a background mutator floods an unrelated compartment with
/// grants/revokes — which must leave the readers' caches warm — and then
/// the root revokes the readers' grants. Once `revoke_mem` returns, a read
/// that *starts* afterwards must fault: the mutator is released only after
/// the table entry is written and its version cell bumped, so no cache can
/// re-serve the revoked grant.
#[test]
fn revoke_is_linearized_under_unrelated_policy_churn() {
    use wedge::core::MemProt;

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"a granted page!").expect("buf");

    // An unrelated compartment the mutator floods with policy churn.
    let distractor_tag = root.tag_new().expect("distractor tag");
    // It stays alive for the churn (a retired compartment cannot be granted
    // anything): its body blocks until the test drops `release_bystander`.
    let (release_bystander, parked) = std::sync::mpsc::channel::<()>();
    let bystander = root
        .sthread_create("bystander", &SecurityPolicy::deny_all(), move |_| {
            let _ = parked.recv();
        })
        .expect("bystander");
    let bystander_id = bystander.id();

    let stop_churn = Arc::new(AtomicBool::new(false));
    let churner = {
        let root = root.clone();
        let stop = stop_churn.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                root.grant_mem(bystander_id, distractor_tag, MemProt::Read)
                    .expect("churn grant");
                root.revoke_mem(bystander_id, distractor_tag)
                    .expect("churn revoke");
            }
        })
    };
    revoke_under_readers(&root, buf);
    stop_churn.store(true, Ordering::SeqCst);
    churner.join().expect("churn thread");
    drop(release_bystander);
    bystander.join().expect("bystander exit");
}

/// The mirror of the bystander above: once an sthread has been joined its
/// compartment is retired, and every policy mutation aimed at its id is
/// refused with `UnknownCompartment` instead of editing a dead entry.
#[test]
fn policy_mutations_on_a_joined_sthread_are_refused() {
    use wedge::core::{MemProt, WedgeError};

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let gone = root
        .sthread_create("short-lived", &SecurityPolicy::deny_all(), |_| {})
        .expect("sthread");
    let gone_id = gone.id();
    gone.join().expect("join");

    let unknown = |result: Result<(), WedgeError>| matches!(result, Err(WedgeError::UnknownCompartment(id)) if id == gone_id);
    assert!(unknown(root.grant_mem(gone_id, tag, MemProt::Read)));
    assert!(unknown(root.revoke_mem(gone_id, tag)));
    assert!(wedge.kernel().name_of(gone_id).is_err());
    assert!(wedge.kernel().policy_of(gone_id).is_err());
    assert!(wedge.kernel().parent_of(gone_id).is_err());
    assert!(wedge.kernel().uid_of(gone_id).is_err());
}

/// Scrub resets the policy epoch: a grant made to a recycled sthread
/// between two runs, and cached by its permission cache, must not survive
/// the scrub that ends the run it served. The segment itself stays live —
/// the root owns it — so only the epoch bump can make the later read fault.
#[test]
fn scrub_resets_policy_epoch_and_drops_cached_grants() {
    use wedge::core::{CompartmentId, MemProt, RecycledSthread};

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"grant-cached").expect("buf");
    let entry = wedge.kernel().cgate_register(
        "epoch_probe",
        typed_entry(move |ctx, _t, _i: ()| {
            // Twice: the second read is served from the warm cache.
            let reads = [ctx.read_all(&buf).is_ok(), ctx.read_all(&buf).is_ok()];
            Ok((reads, ctx.id()))
        }),
    );
    let sthread = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
    let probe = || {
        sthread
            .run_expect::<([bool; 2], CompartmentId)>(Box::new(()))
            .expect("run")
    };

    // Spawn baseline: no grant.
    let (reads, worker) = probe();
    assert_eq!(reads, [false, false]);
    // A runtime grant (policy_add) becomes visible, then serves from cache.
    root.grant_mem(worker, tag, MemProt::Read).expect("grant");
    assert_eq!(probe(), ([true, true], worker));
    // That run's scrub reset the policy to the spawn baseline and bumped
    // the epoch; the cached grant died with it.
    assert_eq!(
        probe(),
        ([false, false], worker),
        "cached grant survived the scrub's epoch reset"
    );
    let policy_after = wedge.kernel().policy_of(worker).unwrap();
    assert!(policy_after.mem_grants().is_empty());
}
