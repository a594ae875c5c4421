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

/// The control experiment: the same worker driven *without* the scrub
/// (`invoke`, the owned recycled-callgate call) reproduces the §3.3
/// residue leak, proving the scrub in `run` — not compartment boundaries
/// alone — is what protects successive principals.
#[test]
fn pool_without_scrub_reproduces_the_recycled_residue_leak() {
    use wedge::core::RecycledSthread;

    let wedge = Wedge::init();
    let root = wedge.root();
    let (entry, _stash) = register_leaky_gate(&wedge);
    let secret = b"principal-A credit card 4111-1111";
    let dump = b"__exploit_dump__";

    let worker = root
        .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
        .expect("spawn worker");
    worker
        .invoke_expect::<Vec<u8>>(Box::new(secret.to_vec()))
        .expect("benign call");
    let leaked = worker
        .invoke_expect::<Vec<u8>>(Box::new(dump.to_vec()))
        .expect("exploit dump");
    assert_eq!(
        leaked, secret,
        "without zeroization the single worker leaks across invocations"
    );

    let scrubbed = RecycledSthread::new(&root, entry, &SecurityPolicy::deny_all(), None);
    scrubbed
        .run_expect::<Vec<u8>>(Box::new(secret.to_vec()))
        .expect("benign call");
    let leaked = scrubbed
        .run_expect::<Vec<u8>>(Box::new(dump.to_vec()))
        .expect("exploit dump");
    assert!(leaked.is_empty(), "run() scrubs between principals");
}

#[test]
fn recycled_callgate_is_cheaper_than_standard_over_many_invocations() {
    // The reason recycled callgates exist at all (§3.3, Figure 7): amortise
    // activation creation over many invocations. We only assert the ordering,
    // not a ratio — absolute costs belong to the Criterion benches.
    use std::time::Instant;

    let wedge = Wedge::init();
    let root = wedge.root();
    let entry = wedge
        .kernel()
        .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));
    let policy = caller_policy(entry);

    let handle = root
        .sthread_create("timing-caller", &policy, move |ctx| {
            const N: u32 = 40;
            let start = Instant::now();
            for _ in 0..N {
                ctx.cgate_expect::<u64>(entry, &SecurityPolicy::deny_all(), Box::new(1u64))
                    .expect("standard call");
            }
            let standard = start.elapsed();

            let start = Instant::now();
            for _ in 0..N {
                ctx.cgate_recycled_expect::<u64>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new(1u64),
                )
                .expect("recycled call");
            }
            let recycled = start.elapsed();
            (standard, recycled)
        })
        .expect("caller");
    let (standard, recycled) = handle.join().expect("join");
    assert!(
        recycled < standard,
        "recycled ({recycled:?}) should be cheaper than standard ({standard:?}) over many calls"
    );
}

/// Cache-invalidation under concurrency (write the table entry, then bump
/// its version cell): N pooled workers hammer reads on a shared tag through warm
/// per-sthread permission caches while the root revokes their grants. Any
/// read that *starts* after `revoke_mem` returns must fault — a stale
/// cached grant serving one more access would be a real TOCTOU hole.
#[test]
fn revoked_grant_is_immediately_invisible_to_concurrent_pooled_readers() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use wedge::core::MemProt;

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"hot shared page").expect("buf");
    let entry = wedge.kernel().cgate_register(
        "read_probe",
        typed_entry(move |ctx, _t, _i: ()| Ok(ctx.read(&buf, 0, 15).is_ok())),
    );

    const WORKERS: usize = 4;
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_mem_add(tag, MemProt::Read);
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            root.recycled_worker_spawn(entry, &policy, None)
                .expect("prewarm worker")
        })
        .collect();
    let activations: Vec<_> = workers.iter().map(|w| w.activation()).collect();

    let revoked = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = workers
        .into_iter()
        .map(|worker| {
            let revoked = revoked.clone();
            let successes = successes.clone();
            std::thread::spawn(move || loop {
                // Sample the flag *before* the read starts: if the revoke
                // had already returned by then, the read must fault.
                let revoke_returned = revoked.load(Ordering::SeqCst);
                let ok = worker
                    .invoke_expect::<bool>(Box::new(()))
                    .expect("invoke probe");
                if ok {
                    successes.fetch_add(1, Ordering::SeqCst);
                    assert!(
                        !revoke_returned,
                        "stale cached grant served a read that started after revoke returned"
                    );
                } else if revoke_returned {
                    break;
                }
            })
        })
        .collect();

    // Let every worker serve from a warm cache first.
    while successes.load(Ordering::SeqCst) < (WORKERS * 5) as u64 {
        std::thread::yield_now();
    }
    for activation in &activations {
        root.revoke_mem(*activation, tag).expect("revoke");
    }
    revoked.store(true, Ordering::SeqCst);
    for thread in threads {
        thread.join().expect("reader thread");
    }
    assert!(successes.load(Ordering::SeqCst) >= (WORKERS * 5) as u64);
}

/// Revoke linearization under churn: four pooled readers hammer warm
/// reads while a background mutator floods an unrelated compartment with
/// grants/revokes — which must leave the readers' caches warm — and then
/// the root revokes the readers' grants. Once `revoke_mem` returns, a read
/// that *starts* afterwards must fault: the mutator is released only after
/// the table entry is written and its version cell bumped, so no cache can
/// re-serve the revoked grant.
#[test]
fn revoke_is_linearized_under_unrelated_policy_churn() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use wedge::core::MemProt;

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"a granted page!").expect("buf");
    let entry = wedge.kernel().cgate_register(
        "revoke_probe",
        typed_entry(move |ctx, _t, _i: ()| Ok(ctx.read(&buf, 0, 15).is_ok())),
    );

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

    const WORKERS: usize = 4;
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_mem_add(tag, MemProt::Read);
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            root.recycled_worker_spawn(entry, &policy, None)
                .expect("prewarm worker")
        })
        .collect();
    let activations: Vec<_> = workers.iter().map(|w| w.activation()).collect();

    let revoked = Arc::new(AtomicBool::new(false));
    let stop_churn = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicU64::new(0));
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
    let threads: Vec<_> = workers
        .into_iter()
        .map(|worker| {
            let revoked = revoked.clone();
            let successes = successes.clone();
            std::thread::spawn(move || loop {
                // Sample the flag *before* the read starts: if the revoke
                // had already returned by then, the read must fault.
                let revoke_returned = revoked.load(Ordering::SeqCst);
                let ok = worker
                    .invoke_expect::<bool>(Box::new(()))
                    .expect("invoke probe");
                if ok {
                    successes.fetch_add(1, Ordering::SeqCst);
                    assert!(
                        !revoke_returned,
                        "a stale cache served a read that started after \
                         revoke returned"
                    );
                } else if revoke_returned {
                    break;
                }
            })
        })
        .collect();

    // Let every worker serve from a warm cache while the policy churns.
    while successes.load(Ordering::SeqCst) < (WORKERS * 5) as u64 {
        std::thread::yield_now();
    }
    for activation in &activations {
        root.revoke_mem(*activation, tag).expect("revoke");
    }
    revoked.store(true, Ordering::SeqCst);
    for thread in threads {
        thread.join().expect("reader thread");
    }
    stop_churn.store(true, Ordering::SeqCst);
    churner.join().expect("churn thread");
    drop(release_bystander);
    bystander.join().expect("bystander exit");
    assert!(successes.load(Ordering::SeqCst) >= (WORKERS * 5) as u64);
}

/// The mirror of the bystander above: once an sthread has been joined its
/// compartment is retired, and every policy mutation aimed at its id is
/// refused with `UnknownCompartment` instead of editing a dead entry.
#[test]
fn policy_mutations_on_a_joined_sthread_are_refused() {
    use wedge::core::{MemProt, Uid, WedgeError};

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
    assert!(unknown(root.transition_identity(gone_id, Uid(1000), None)));
    assert!(wedge.kernel().name_of(gone_id).is_err());
    assert!(wedge.kernel().policy_of(gone_id).is_err());
    assert!(wedge.kernel().parent_of(gone_id).is_err());
    assert!(wedge.kernel().uid_of(gone_id).is_err());
}

/// Scrub resets the policy epoch: a runtime grant cached by a pooled
/// worker's permission cache must not survive `scrub()`.
/// The segment itself stays live — the root owns it — so only the epoch
/// bump can make the post-scrub read fault.
#[test]
fn scrub_resets_policy_epoch_and_drops_cached_grants() {
    use wedge::core::MemProt;

    let wedge = Wedge::init();
    let root = wedge.root();
    let tag = root.tag_new().expect("tag");
    let buf = root.smalloc_init(tag, b"grant-cached").expect("buf");
    let entry = wedge.kernel().cgate_register(
        "epoch_probe",
        typed_entry(move |ctx, _t, _i: ()| Ok(ctx.read(&buf, 0, 12).is_ok())),
    );
    let worker = root
        .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
        .expect("prewarm worker");

    // Spawn baseline: no grant.
    assert!(!worker.invoke_expect::<bool>(Box::new(())).unwrap());
    // Runtime grant (policy_add) becomes visible, then serves from cache.
    root.grant_mem(worker.activation(), tag, MemProt::Read)
        .expect("grant");
    assert!(worker.invoke_expect::<bool>(Box::new(())).unwrap());
    assert!(worker.invoke_expect::<bool>(Box::new(())).unwrap());
    // Scrub resets the policy to the spawn baseline and bumps the epoch;
    // the cached grant must die with it.
    worker.scrub().expect("scrub");
    assert!(
        !worker.invoke_expect::<bool>(Box::new(())).unwrap(),
        "cached grant survived the scrub's epoch reset"
    );
    let policy_after = wedge.kernel().policy_of(worker.activation()).unwrap();
    assert!(policy_after.mem_grants().is_empty());
}
