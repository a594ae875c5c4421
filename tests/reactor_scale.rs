//! Reactor scale acceptance: one readiness-driven reactor sthread holds
//! a thousand registered idle links while the shards serve traffic on a
//! handful of active ones.
//!
//! This is the acceptance criterion for the deferred-accept serve loop:
//! before the reactor, every accepted link cost a queue slot (and
//! eventually a shard sthread) whether or not the client ever spoke, so
//! a sea of idle connections starved the active ones. With
//! `defer_accept` the accept loop parks each link on the front-end's
//! [`Reactor`] and only submits it to a shard once the client's first
//! byte (or hangup) arrives. The test floods a listener with idle
//! clients, drives real request/response traffic on a few active ones,
//! and asserts — via the `reactor.links` telemetry gauge — that the
//! idle crowd is all parked on the reactor, not occupying shard
//! capacity, while the scheduler's accounting balances
//! (`submitted == completed + rejected`) on every front.
//!
//! The release build runs the full 1,000-idle-link scale; the debug
//! variant scales down so plain `cargo test` stays fast.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wedge::core::{KernelStats, WedgeError};
use wedge::net::{Duplex, Listener, RecvTimeout, SourceAddr};
use wedge::sched::{FrontEndConfig, ShardServer, ShardedFrontEnd};
use wedge::telemetry::Telemetry;

/// How one accepted link resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EchoReport {
    shard: usize,
    /// `true` when the client spoke and got its echo; `false` when the
    /// link reached the shard already hung up (an idle client leaving).
    echoed: bool,
}

/// The smallest possible shard server: echo one request, stamp the
/// shard. No kernel underneath — the test is about the *front-end's*
/// accept path, not the workers.
struct EchoServer {
    served: AtomicUsize,
}

impl ShardServer for EchoServer {
    type Report = EchoReport;

    fn serve_link(&self, shard: usize, link: Duplex) -> Result<EchoReport, WedgeError> {
        self.served.fetch_add(1, Ordering::SeqCst);
        match link.recv(RecvTimeout::After(Duration::from_secs(5))) {
            Ok(request) => {
                let mut reply = b"echo:".to_vec();
                reply.extend_from_slice(&request);
                let _ = link.send(&reply);
                Ok(EchoReport {
                    shard,
                    echoed: true,
                })
            }
            // The client hung up without speaking — still a resolved
            // link, never a hang.
            Err(_) => Ok(EchoReport {
                shard,
                echoed: false,
            }),
        }
    }

    fn kernel_stats(&self) -> KernelStats {
        KernelStats::default()
    }
}

/// The scenario at a given scale: `idle` clients that connect and say
/// nothing, `active` clients that run a request/response exchange while
/// the idle crowd sits parked.
fn reactor_holds_idle_links(idle: usize, active: usize) {
    let front = ShardedFrontEnd::new(
        FrontEndConfig {
            shards: 2,
            queue_capacity: 16,
            ..FrontEndConfig::default()
        },
        |_shard| {
            Ok(EchoServer {
                served: AtomicUsize::new(0),
            })
        },
    )
    .expect("front-end");
    let telemetry = Telemetry::new();
    front.instrument(&telemetry);

    let listener = Listener::bind("reactor-scale", idle + active + 8);

    std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut outcomes = Vec::new();
            front.serve_listener_with(&listener, 64, |_arrival, outcome| outcomes.push(outcome));
            outcomes
        });

        // The idle flood: connect, never speak, keep the link open.
        let mut idle_links: Vec<Duplex> = Vec::with_capacity(idle);
        for i in 0..idle {
            let addr = SourceAddr::new([10, 99, (i >> 8) as u8, i as u8], 40_000);
            idle_links.push(listener.connect(addr).expect("idle connect"));
        }

        // A handful of active clients doing real traffic through the
        // same listener, interleaved with the idle crowd.
        let mut clients = Vec::new();
        for i in 0..active {
            let addr = SourceAddr::new([10, 98, 0, i as u8], 41_000);
            let link = listener.connect(addr).expect("active connect");
            clients.push(scope.spawn(move || {
                link.send(format!("req-{i}").as_bytes()).expect("send");
                let reply = link
                    .recv(RecvTimeout::After(Duration::from_secs(10)))
                    .expect("reply");
                assert!(
                    reply.starts_with(b"echo:req-"),
                    "active client {i} got {reply:?}"
                );
            }));
        }
        for client in clients {
            client.join().expect("active client");
        }

        // Every active link completed while the idle crowd is still
        // parked: the reactor — one sthread — holds all of them, and
        // none occupies a shard queue slot.
        let deadline = Instant::now() + Duration::from_secs(10);
        let completed = || telemetry.snapshot().counter("sched.completed");
        while completed() < active as u64 {
            assert!(Instant::now() < deadline, "active links never completed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let snapshot = telemetry.snapshot();
        assert!(
            snapshot.counter("reactor.links") >= idle as u64,
            "the reactor must hold every idle link: {} < {idle}",
            snapshot.counter("reactor.links")
        );
        assert!(
            snapshot.counter("reactor.wakeups") >= 1,
            "active traffic must have woken the reactor"
        );
        assert_eq!(snapshot.counter("sched.completed"), active as u64);
        assert_eq!(
            snapshot.counter("sched.submitted"),
            snapshot.counter("sched.completed") + snapshot.counter("sched.rejected"),
            "accounting must balance while idle links are parked"
        );

        // Hang up the idle crowd and close the listener: every parked
        // link must resolve (close readiness fires, the shard sees the
        // hangup) — zero links silently dropped.
        drop(idle_links);
        listener.close();
        let outcomes = pump.join().expect("serve_listener");
        assert_eq!(
            outcomes.len(),
            idle + active,
            "every accepted link resolves"
        );
        let mut echoed = 0usize;
        for outcome in outcomes {
            if outcome.expect("resolved").echoed {
                echoed += 1;
            }
        }
        assert_eq!(echoed, active, "exactly the active links exchanged data");
    });

    let snapshot = telemetry.snapshot();
    let [submitted, completed, rejected] = ["submitted", "completed", "rejected"]
        .map(|name| snapshot.counter(&format!("sched.{name}")));
    assert_eq!(completed, (idle + active) as u64);
    assert_eq!(
        submitted,
        completed + rejected,
        "final accounting must balance: {submitted} != {completed} + {rejected}"
    );
}

/// The ISSUE acceptance criterion, release-mode: one reactor sthread
/// holds ≥ 1,000 registered idle links while traffic is served on a
/// handful of active ones.
#[cfg(not(debug_assertions))]
#[test]
fn one_reactor_sthread_holds_a_thousand_idle_links() {
    reactor_holds_idle_links(1_000, 8);
}

/// Debug-build variant of the same scenario, small enough for plain
/// `cargo test`.
#[cfg(debug_assertions)]
#[test]
fn reactor_parks_idle_links_off_the_shards() {
    reactor_holds_idle_links(200, 8);
}
