//! A readiness-driven reactor over [`Duplex`] links: one sthread drives
//! thousands of idle links instead of one thread each.
//!
//! The pre-reactor serving stack spent a dedicated handler thread per
//! accepted link (`CacheNode`) or parked every idle link in a bounded
//! shard queue (`ShardedFrontEnd`), so per-link memory — a stack per
//! link — was the scale ceiling. The [`Reactor`] inverts that: links
//! register a **ready waker** on their incoming queue
//! ([`Duplex::set_ready_waker`]), the waker enqueues the link's id on
//! the reactor's ready list, and a single parked thread wakes only when
//! some link actually has data (or closed). Sweeps are O(ready events),
//! not O(registered links) — ten thousand idle links cost ten thousand
//! map entries and zero CPU.
//!
//! Two registration modes cover the stack's two consumers:
//!
//! * [`Reactor::register`] — **drain** mode: the reactor owns the link
//!   and calls a handler for every arriving message (and once on close).
//!   `CacheNode` serves its whole accept set this way — decode, apply,
//!   reply, all on the reactor thread.
//! * [`Reactor::watch`] — **readiness** mode: the reactor holds the link
//!   *without touching its messages* and hands it back through a
//!   one-shot callback the first time it becomes readable or closes.
//!   `ShardedFrontEnd` uses this as a `TCP_DEFER_ACCEPT` analogue: an
//!   accepted link enters a shard queue only once the client has
//!   actually sent bytes, so idle links can no longer clog the bounded
//!   queues. [`Reactor::take`] reclaims a still-idle watched link (the
//!   end-of-run flush), atomically against the hand-off.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};

use crate::duplex::{Duplex, NetError};

/// What a drain-mode handler saw on its link.
#[derive(Debug)]
pub enum LinkEvent {
    /// One message arrived (messages are delivered in FIFO order).
    Message(Vec<u8>),
    /// The peer hung up; this is the handler's last call for the link.
    Closed,
}

/// A drain-mode handler's verdict after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Keep serving this link.
    Keep,
    /// Deregister and close the link.
    Done,
}

/// A drain-mode handler, boxed for storage in the registration table.
type DrainHandler = Box<dyn FnMut(&Duplex, LinkEvent) -> LinkVerdict + Send>;

enum Entry {
    Drain {
        link: Arc<Duplex>,
        handler: DrainHandler,
    },
    Watch {
        link: Duplex,
        notify: Box<dyn FnOnce(Duplex) + Send>,
    },
}

/// One registered link. `entry` is `None` while the reactor thread has
/// the link checked out for processing; the slot stays in the map so
/// wakers arriving mid-processing still queue a re-visit.
struct Slot {
    queued: bool,
    entry: Option<Entry>,
}

#[derive(Default)]
struct ReactorState {
    entries: HashMap<u64, Slot>,
    ready: VecDeque<u64>,
    /// Wakers that fired before their entry was inserted (the waker is
    /// installed first so no arrival can be lost); registration drains
    /// this set under the same lock that inserts the entry.
    early_wakes: HashSet<u64>,
}

struct ReactorShared {
    state: Mutex<ReactorState>,
    cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Readiness events the reactor thread woke up to process.
    wakeups: AtomicU64,
    /// Messages delivered to drain-mode handlers.
    dispatched: AtomicU64,
    /// Watched links handed off to their ready callbacks.
    handoffs: AtomicU64,
}

impl ReactorShared {
    /// The waker body: mark the link ready exactly once until the
    /// reactor thread picks it up. Never called with a queue lock held.
    fn mark_ready(&self, id: u64) {
        let mut st = self.state.lock();
        match st.entries.get_mut(&id) {
            Some(slot) => {
                if !slot.queued {
                    slot.queued = true;
                    st.ready.push_back(id);
                    self.cv.notify_one();
                }
            }
            None => {
                // Registration in flight: remember the wake for the
                // insert to replay.
                st.early_wakes.insert(id);
            }
        }
    }

    /// Deregister checked-out link `id` for good. The waker goes first:
    /// clearing it waits out a wake in flight, so once the slot and any
    /// early wake are removed no wake can land for `id` again — ids are
    /// never reused, and an early wake left behind would stay forever.
    fn retire(&self, id: u64, link: &Duplex) {
        link.clear_ready_waker();
        let mut st = self.state.lock();
        st.entries.remove(&id);
        st.early_wakes.remove(&id);
    }

    fn insert(&self, id: u64, entry: Entry) {
        let mut st = self.state.lock();
        let replay = st.early_wakes.remove(&id);
        st.entries.insert(
            id,
            Slot {
                queued: replay,
                entry: Some(entry),
            },
        );
        if replay {
            st.ready.push_back(id);
            self.cv.notify_one();
        }
    }
}

/// The reactor: one thread, any number of registered links. Dropping it
/// shuts it down, closing every still-registered link.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Guards idempotent [`Reactor::instrument`].
    telemetry: std::sync::OnceLock<()>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("links", &self.links())
            .finish()
    }
}

impl Reactor {
    /// Spawn a reactor; `name` labels its thread in stack traces.
    pub fn spawn(name: &str) -> Reactor {
        let shared = Arc::new(ReactorShared {
            state: Mutex::new(ReactorState::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            wakeups: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
        });
        let run_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name(format!("reactor-{name}"))
            .spawn(move || run(&run_shared))
            .expect("spawn reactor thread");
        Reactor {
            shared,
            thread: Mutex::new(Some(thread)),
            telemetry: std::sync::OnceLock::new(),
        }
    }

    fn install_waker(&self, link: &Duplex, id: u64) {
        let weak: Weak<ReactorShared> = Arc::downgrade(&self.shared);
        link.set_ready_waker(Box::new(move || {
            if let Some(shared) = weak.upgrade() {
                shared.mark_ready(id);
            }
        }));
    }

    /// Register a link in **drain** mode: `handler` runs on the reactor
    /// thread for every arriving message, and once with
    /// [`LinkEvent::Closed`] when the peer hangs up. Returning
    /// [`LinkVerdict::Done`] (or the close event) deregisters and closes
    /// the link. Returns the link's registration id.
    pub fn register<H>(&self, link: Arc<Duplex>, handler: H) -> u64
    where
        H: FnMut(&Duplex, LinkEvent) -> LinkVerdict + Send + 'static,
    {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Waker first, entry second: a message landing in between is
        // recorded as an early wake and replayed by the insert.
        self.install_waker(&link, id);
        self.shared.insert(
            id,
            Entry::Drain {
                link,
                handler: Box::new(handler),
            },
        );
        id
    }

    /// Register a link in **readiness** mode: the reactor holds the link
    /// untouched and calls `on_ready(link)` (on the reactor thread)
    /// exactly once, the first time the link has pending data or closes.
    /// The link's messages are **not** consumed — the callback gets the
    /// link back intact. Returns the registration id for
    /// [`Reactor::take`].
    pub fn watch<F>(&self, link: Duplex, on_ready: F) -> u64
    where
        F: FnOnce(Duplex) + Send + 'static,
    {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.install_waker(&link, id);
        self.shared.insert(
            id,
            Entry::Watch {
                link,
                notify: Box::new(on_ready),
            },
        );
        id
    }

    /// Reclaim a still-idle watched link by its registration id,
    /// atomically against the ready hand-off: exactly one of `take` and
    /// the `on_ready` callback gets the link. `None` if the link was
    /// already handed off (or the id is unknown / drain-mode).
    pub fn take(&self, id: u64) -> Option<Duplex> {
        let link = {
            let mut st = self.shared.state.lock();
            let slot = st.entries.get_mut(&id)?;
            match slot.entry.take() {
                // Checked out: a wake landing now finds the slot and is
                // dropped with it below.
                Some(Entry::Watch { link, .. }) => link,
                Some(other) => {
                    // Drain-mode links are reactor-owned; put it back.
                    slot.entry = Some(other);
                    return None;
                }
                // Checked out by the reactor thread right now: the
                // hand-off wins.
                None => return None,
            }
        };
        self.shared.retire(id, &link);
        Some(link)
    }

    /// Links currently registered.
    pub fn links(&self) -> usize {
        self.shared.state.lock().entries.len()
    }

    /// Register this reactor on `telemetry` (idempotent): a pull
    /// collector exposing `reactor.links` (gauge, summed across
    /// instrumented reactors), `reactor.wakeups`, `reactor.dispatched`
    /// and `reactor.handoffs` (counters). The hot path touches only the
    /// reactor's own atomics — collection happens at snapshot time.
    pub fn instrument(&self, telemetry: &wedge_telemetry::Telemetry) {
        if self.telemetry.set(()).is_err() {
            return;
        }
        let shared = Arc::downgrade(&self.shared);
        telemetry.register_collector(move |sample| {
            let Some(shared) = shared.upgrade() else {
                return;
            };
            let links = shared.state.lock().entries.len();
            sample.gauge("reactor.links", links as u64);
            sample.counter("reactor.wakeups", shared.wakeups.load(Ordering::Relaxed));
            sample.counter(
                "reactor.dispatched",
                shared.dispatched.load(Ordering::Relaxed),
            );
            sample.counter("reactor.handoffs", shared.handoffs.load(Ordering::Relaxed));
        });
    }

    /// Stop the reactor: the thread exits and joins, then every
    /// still-registered link is closed (drain-mode peers observe the
    /// hang-up, exactly like the thread-per-link kill path did).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Through the state lock: the reactor thread checks the flag and
        // parks under it, so the notify cannot slip in between.
        drop(self.shared.state.lock());
        self.shared.cv.notify_all();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
        let entries: Vec<Entry> = {
            let mut st = self.shared.state.lock();
            st.ready.clear();
            st.early_wakes.clear();
            st.entries
                .drain()
                .filter_map(|(_, slot)| slot.entry)
                .collect()
        };
        for entry in entries {
            match entry {
                Entry::Drain { link, .. } => {
                    link.clear_ready_waker();
                    link.close();
                }
                Entry::Watch { link, .. } => {
                    link.clear_ready_waker();
                    link.close();
                }
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reactor thread: park until some link is ready, check its entry
/// out, process outside the lock, check it back in (or drop it).
fn run(shared: &Arc<ReactorShared>) {
    loop {
        let (id, entry) = {
            let mut st = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.ready.pop_front() {
                    let Some(slot) = st.entries.get_mut(&id) else {
                        continue; // deregistered since it queued
                    };
                    slot.queued = false;
                    let Some(entry) = slot.entry.take() else {
                        continue; // single-threaded: cannot happen, be safe
                    };
                    break (id, entry);
                }
                shared.cv.wait(&mut st);
            }
        };
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
        match entry {
            Entry::Drain { link, mut handler } => {
                let mut done = false;
                let mut closed = false;
                // Drain until the link would block: wakers coalesce, so
                // one readiness event may cover many messages.
                loop {
                    match link.try_recv() {
                        Ok(msg) => {
                            shared.dispatched.fetch_add(1, Ordering::Relaxed);
                            if handler(&link, LinkEvent::Message(msg)) == LinkVerdict::Done {
                                done = true;
                                break;
                            }
                        }
                        Err(NetError::WouldBlock) => break,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                if closed {
                    let _ = handler(&link, LinkEvent::Closed);
                }
                if done || closed {
                    shared.retire(id, &link);
                    link.close();
                } else {
                    // Check the entry back in; a waker that fired while
                    // it was out already re-queued the id on the slot.
                    let mut st = shared.state.lock();
                    if let Some(slot) = st.entries.get_mut(&id) {
                        slot.entry = Some(Entry::Drain { link, handler });
                    }
                }
            }
            Entry::Watch { link, notify } => {
                shared.retire(id, &link);
                shared.handoffs.fetch_add(1, Ordering::Relaxed);
                notify(link);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::duplex_pair;
    use crate::RecvTimeout;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn drain_mode_serves_messages_and_replies() {
        let reactor = Reactor::spawn("test");
        let telemetry = wedge_telemetry::Telemetry::new();
        reactor.instrument(&telemetry);
        let (client, server) = duplex_pair("c", "s");
        reactor.register(Arc::new(server), |link, event| {
            if let LinkEvent::Message(msg) = event {
                let mut reply = msg;
                reply.extend_from_slice(b"-ack");
                let _ = link.send(&reply);
            }
            LinkVerdict::Keep
        });
        client.send(b"one").unwrap();
        client.send(b"two").unwrap();
        assert_eq!(
            client
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap(),
            b"one-ack"
        );
        assert_eq!(
            client
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap(),
            b"two-ack"
        );
        assert_eq!(reactor.links(), 1);
        assert!(telemetry.snapshot().counter("reactor.dispatched") >= 2);
    }

    #[test]
    fn messages_sent_before_registration_are_not_lost() {
        let reactor = Reactor::spawn("pre");
        let (client, server) = duplex_pair("c", "s");
        client.send(b"early").unwrap();
        reactor.register(Arc::new(server), |link, event| {
            if let LinkEvent::Message(msg) = event {
                let _ = link.send(&msg);
            }
            LinkVerdict::Keep
        });
        assert_eq!(
            client
                .recv(RecvTimeout::After(Duration::from_secs(5)))
                .unwrap(),
            b"early"
        );
    }

    #[test]
    fn closed_links_deregister_and_fire_the_close_event() {
        let reactor = Reactor::spawn("close");
        let (client, server) = duplex_pair("c", "s");
        let (tx, rx) = mpsc::channel();
        reactor.register(Arc::new(server), move |_link, event| {
            if matches!(event, LinkEvent::Closed) {
                let _ = tx.send(());
            }
            LinkVerdict::Keep
        });
        drop(client);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("close event");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while reactor.links() != 0 {
            assert!(std::time::Instant::now() < deadline, "link never reaped");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn watch_hands_the_link_back_intact_on_first_data() {
        let reactor = Reactor::spawn("watch");
        let telemetry = wedge_telemetry::Telemetry::new();
        reactor.instrument(&telemetry);
        let (client, server) = duplex_pair("c", "s");
        let (tx, rx) = mpsc::channel();
        reactor.watch(server, move |link| {
            let _ = tx.send(link);
        });
        assert_eq!(reactor.links(), 1);
        client.send(b"hello").unwrap();
        let server = rx.recv_timeout(Duration::from_secs(5)).expect("hand-off");
        // The message was not consumed by the reactor.
        assert_eq!(server.try_recv().unwrap(), b"hello");
        assert_eq!(reactor.links(), 0);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("reactor.handoffs"), 1);
        assert_eq!(snapshot.counter("reactor.links"), 0);
    }

    #[test]
    fn watch_fires_on_close_too() {
        let reactor = Reactor::spawn("watch-close");
        let (client, server) = duplex_pair("c", "s");
        let (tx, rx) = mpsc::channel();
        reactor.watch(server, move |link| {
            let _ = tx.send(link);
        });
        drop(client);
        let server = rx.recv_timeout(Duration::from_secs(5)).expect("hand-off");
        assert_eq!(server.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn take_reclaims_idle_watched_links_exactly_once() {
        let reactor = Reactor::spawn("take");
        let (_client, server) = duplex_pair("c", "s");
        let id = reactor.watch(server, |_link| panic!("never ready"));
        let link = reactor.take(id).expect("still idle");
        assert_eq!(link.name(), "s");
        assert!(reactor.take(id).is_none(), "second take finds nothing");
        assert_eq!(reactor.links(), 0);
    }

    /// A wake that lands while a watched link is being deregistered — by
    /// `take` or by the hand-off — must not leave its id in
    /// `early_wakes`: ids are never reused, so it would stay forever. A
    /// client speaking without pause keeps a wake in flight through
    /// every round.
    #[test]
    fn retiring_a_watched_link_leaves_no_early_wake_behind() {
        let reactor = Reactor::spawn("retire");
        // A drain-mode link whose handler holds the reactor thread until
        // released, so `take` wins the link while its wakes keep landing.
        let (hold_client, hold_server) = duplex_pair("hold", "s");
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        reactor.register(Arc::new(hold_server), move |_link, _event| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
            LinkVerdict::Keep
        });
        for round in 0..100 {
            let by_take = round % 2 == 0;
            if by_take {
                hold_client.send(b"hold").unwrap();
                entered_rx.recv().unwrap();
            }
            let (client, server) = duplex_pair("c", "s");
            let (tx, rx) = mpsc::channel();
            let id = reactor.watch(server, move |link| {
                let _ = tx.send(link);
            });
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) && client.send(b"x").is_ok() {
                        std::hint::spin_loop();
                    }
                });
                if by_take {
                    let queued = || reactor.shared.state.lock().entries[&id].queued;
                    while !queued() {
                        std::thread::yield_now();
                    }
                    assert!(reactor.take(id).is_some(), "round {round}: take wins");
                    release_tx.send(()).unwrap();
                } else {
                    let handed_off = rx.recv_timeout(Duration::from_secs(5));
                    assert!(handed_off.is_ok(), "round {round}: hand-off");
                }
                stop.store(true, Ordering::Relaxed);
            });
            let state = reactor.shared.state.lock();
            assert!(state.early_wakes.is_empty(), "round {round} left a wake");
            assert!(state.entries.len() == 1, "round {round} left a slot");
        }
    }

    #[test]
    fn one_reactor_holds_many_idle_links_with_no_threads() {
        let reactor = Reactor::spawn("many");
        let mut clients = Vec::new();
        for n in 0..500 {
            let (client, server) = duplex_pair(&format!("c{n}"), "s");
            reactor.register(Arc::new(server), |_l, _e| LinkVerdict::Keep);
            clients.push(client);
        }
        assert_eq!(reactor.links(), 500);
        // Traffic on one link still flows while 499 idle.
        let (tx, rx) = mpsc::channel();
        let (client, server) = duplex_pair("active", "s");
        reactor.register(Arc::new(server), move |_l, event| {
            if let LinkEvent::Message(msg) = event {
                let _ = tx.send(msg);
            }
            LinkVerdict::Keep
        });
        client.send(b"ping").unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            b"ping".to_vec()
        );
    }

    #[test]
    fn shutdown_closes_registered_links() {
        let reactor = Reactor::spawn("bye");
        let (client, server) = duplex_pair("c", "s");
        reactor.register(Arc::new(server), |_l, _e| LinkVerdict::Keep);
        reactor.shutdown();
        assert_eq!(
            client.recv(RecvTimeout::After(Duration::from_secs(5))),
            Err(NetError::Disconnected)
        );
    }
}
