//! Bidirectional, message-oriented in-memory links.
//!
//! A [`Duplex`] endpoint sends discrete messages (byte vectors) to its peer
//! and receives the peer's messages in FIFO order. Endpoints are cheap to
//! move across threads, which is how server compartments (sthreads) in the
//! application reproductions own "their" connection file descriptor.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::listener::SourceAddr;

/// Errors produced by link operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer endpoint has been dropped; no more data will ever arrive.
    Disconnected,
    /// A blocking receive timed out.
    Timeout,
    /// The endpoint has no queued message (non-blocking receive only).
    WouldBlock,
    /// A listener refused the connection (backlog full).
    Refused,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::WouldBlock => write!(f, "no message available"),
            NetError::Refused => write!(f, "connection refused (backlog full)"),
        }
    }
}

impl std::error::Error for NetError {}

/// How long a blocking receive may wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout {
    /// Wait indefinitely (until the peer disconnects).
    Forever,
    /// Wait at most this long.
    After(Duration),
}

#[derive(Debug, Default)]
struct QueueState {
    messages: VecDeque<Vec<u8>>,
    closed: bool,
    /// Receivers blocked in [`Queue::pop`]: a push wakes one only if any.
    waiting: usize,
}

/// Callback a readiness-driven consumer (`crate::reactor::Reactor`)
/// installs on an endpoint's incoming queue: fired after every message
/// arrival and on close, never with any queue lock held.
pub type ReadyWaker = Box<dyn Fn() + Send + Sync>;

/// One direction of a duplex link.
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// Readiness hook, outside `state` so firing it (which may take a
    /// reactor's locks) never happens under a queue lock.
    waker: Mutex<Option<ReadyWaker>>,
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("state", &self.state)
            .field("waker", &self.waker.lock().is_some())
            .finish()
    }
}

impl Queue {
    fn new() -> Arc<Self> {
        Arc::new(Queue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            waker: Mutex::new(None),
        })
    }

    fn push(&self, msg: Vec<u8>) -> Result<(), NetError> {
        let waiting = {
            let mut st = self.state.lock();
            if st.closed {
                return Err(NetError::Disconnected);
            }
            st.messages.push_back(msg);
            st.waiting > 0
        };
        // After the unlock, so the woken receiver does not block on it. A
        // receiver counted itself under the lock and waits atomically with
        // releasing it, so it is already waiting when this fires.
        if waiting {
            self.ready.notify_one();
        }
        self.wake();
        Ok(())
    }

    /// Fire the installed waker, if any. Called with the state lock
    /// released, so a waker may take arbitrary consumer-side locks.
    fn wake(&self) {
        let waker = self.waker.lock();
        if let Some(waker) = waker.as_ref() {
            waker();
        }
    }

    /// Install `waker`, then re-check the queue: if messages are already
    /// pending (or the queue is closed) the waker fires immediately, so
    /// installation can never lose a wakeup. Install-then-check pairs
    /// with [`Queue::push`]'s mutate-then-fire: a push that misses the
    /// waker happened before installation, and the re-check sees its
    /// message.
    fn set_waker(&self, waker: ReadyWaker) {
        *self.waker.lock() = Some(waker);
        let fire = {
            let st = self.state.lock();
            !st.messages.is_empty() || st.closed
        };
        if fire {
            self.wake();
        }
    }

    fn clear_waker(&self) {
        *self.waker.lock() = None;
    }

    fn pop(&self, timeout: RecvTimeout) -> Result<Vec<u8>, NetError> {
        let mut st = self.state.lock();
        loop {
            if let Some(msg) = st.messages.pop_front() {
                return Ok(msg);
            }
            if st.closed {
                return Err(NetError::Disconnected);
            }
            st.waiting += 1;
            let timed_out = match timeout {
                RecvTimeout::Forever => {
                    self.ready.wait(&mut st);
                    false
                }
                RecvTimeout::After(d) => self.ready.wait_for(&mut st, d).timed_out(),
            };
            st.waiting -= 1;
            if timed_out && st.messages.is_empty() && !st.closed {
                return Err(NetError::Timeout);
            }
        }
    }

    fn try_pop(&self) -> Result<Vec<u8>, NetError> {
        let mut st = self.state.lock();
        if let Some(msg) = st.messages.pop_front() {
            Ok(msg)
        } else if st.closed {
            Err(NetError::Disconnected)
        } else {
            Err(NetError::WouldBlock)
        }
    }

    fn close(&self) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            self.ready.notify_all();
        }
        self.wake();
    }

    fn pending(&self) -> usize {
        self.state.lock().messages.len()
    }
}

/// One endpoint of a bidirectional message link.
#[derive(Debug)]
pub struct Duplex {
    /// Messages we send travel to the peer through this queue.
    outgoing: Arc<Queue>,
    /// Messages from the peer arrive here.
    incoming: Arc<Queue>,
    /// Human-readable endpoint name, used in traces.
    name: String,
    /// The client's source address, when the link came through a
    /// [`crate::Listener`]; `None` for bare `duplex_pair` links.
    source: Option<SourceAddr>,
    /// The root trace context this link carries, stamped at
    /// [`crate::Listener`] accept when a tracer is installed; `None`
    /// otherwise. Rides with the endpoint so whichever shard worker later
    /// serves the link can hang its spans under the right root.
    trace: Option<wedge_telemetry::LinkTrace>,
}

impl Duplex {
    /// Send one message to the peer, copied into the link.
    pub fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.send_owned(msg.to_vec())
    }

    /// Send one message to the peer, moving the buffer into the link.
    pub fn send_owned(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.outgoing.push(msg)
    }

    /// Receive the next message, blocking according to `timeout`.
    pub fn recv(&self, timeout: RecvTimeout) -> Result<Vec<u8>, NetError> {
        self.incoming.pop(timeout)
    }

    /// Receive the next message without blocking.
    pub fn try_recv(&self) -> Result<Vec<u8>, NetError> {
        self.incoming.try_pop()
    }

    /// Number of messages queued and not yet received by this endpoint.
    pub fn pending(&self) -> usize {
        self.incoming.pending()
    }

    /// Install a readiness waker on this endpoint's incoming queue: it
    /// fires after every arriving message and when the link closes,
    /// always with the queue's locks released. If data is already
    /// pending (or the link already closed) the waker fires immediately,
    /// so installation can never lose a wakeup. One waker per endpoint;
    /// installing replaces the previous one. This is the hook
    /// [`crate::Reactor`] drives thousands of idle links through.
    pub fn set_ready_waker(&self, waker: ReadyWaker) {
        self.incoming.set_waker(waker);
    }

    /// Remove the installed readiness waker, if any.
    pub(crate) fn clear_ready_waker(&self) {
        self.incoming.clear_waker();
    }

    /// Close this endpoint: the peer's receives will drain remaining
    /// messages and then report [`NetError::Disconnected`].
    pub fn close(&self) {
        self.outgoing.close();
        self.incoming.close();
    }

    /// The endpoint's name (for traces and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The client's source address, when known (links accepted through a
    /// [`crate::Listener`] always carry one).
    pub fn source(&self) -> Option<SourceAddr> {
        self.source
    }

    /// Stamp this endpoint with its request's root trace context (done by
    /// [`crate::Listener`] accept paths; links not accepted through a
    /// traced listener carry none).
    pub(crate) fn set_trace(&mut self, trace: wedge_telemetry::LinkTrace) {
        self.trace = Some(trace);
    }

    /// The root trace context stamped at accept, if any.
    pub fn trace(&self) -> Option<wedge_telemetry::LinkTrace> {
        self.trace
    }

    /// The affinity key placement layers should hash for this link: the
    /// source address's host key when the link carries one, else FNV-1a
    /// over the endpoint name (stable for clients that reconnect under the
    /// same name).
    pub fn affinity_key(&self) -> u64 {
        match self.source {
            Some(source) => source.affinity_key(),
            None => fnv1a(self.name.as_bytes()),
        }
    }
}

/// FNV-1a over a byte string — the stable hash behind every affinity key
/// in the stack (endpoint names here, host octets in
/// [`SourceAddr::affinity_key`], explicit keys in `wedge-sched`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl Drop for Duplex {
    fn drop(&mut self) {
        self.outgoing.close();
        self.incoming.close();
    }
}

/// Create a connected pair of endpoints, `(a, b)`: everything sent on `a`
/// arrives at `b` and vice versa.
pub fn duplex_pair(name_a: &str, name_b: &str) -> (Duplex, Duplex) {
    pair(name_a, name_b, None)
}

/// [`duplex_pair`], with both endpoints stamped with the client's
/// [`SourceAddr`] — what [`crate::Listener::connect`] builds.
pub(crate) fn duplex_pair_with_source(
    source: SourceAddr,
    name_a: &str,
    name_b: &str,
) -> (Duplex, Duplex) {
    pair(name_a, name_b, Some(source))
}

fn pair(name_a: &str, name_b: &str, source: Option<SourceAddr>) -> (Duplex, Duplex) {
    let ab = Queue::new();
    let ba = Queue::new();
    (
        Duplex {
            outgoing: ab.clone(),
            incoming: ba.clone(),
            name: name_a.to_string(),
            source,
            trace: None,
        },
        Duplex {
            outgoing: ba,
            incoming: ab,
            name: name_b.to_string(),
            source,
            trace: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn messages_flow_both_ways_in_order() {
        let (a, b) = duplex_pair("client", "server");
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        b.send(b"ack").unwrap();
        assert_eq!(b.recv(RecvTimeout::Forever).unwrap(), b"one");
        assert_eq!(b.recv(RecvTimeout::Forever).unwrap(), b"two");
        assert_eq!(a.recv(RecvTimeout::Forever).unwrap(), b"ack");
    }

    #[test]
    fn try_recv_reports_would_block() {
        let (a, b) = duplex_pair("a", "b");
        assert_eq!(a.try_recv(), Err(NetError::WouldBlock));
        b.send(b"x").unwrap();
        assert_eq!(a.try_recv().unwrap(), b"x");
    }

    #[test]
    fn recv_times_out() {
        let (a, _b) = duplex_pair("a", "b");
        let err = a
            .recv(RecvTimeout::After(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn dropping_peer_disconnects() {
        let (a, b) = duplex_pair("a", "b");
        b.send(b"last").unwrap();
        drop(b);
        // Already-queued data still drains...
        assert_eq!(a.recv(RecvTimeout::Forever).unwrap(), b"last");
        // ...then the disconnect is visible.
        assert_eq!(a.recv(RecvTimeout::Forever), Err(NetError::Disconnected));
        assert_eq!(a.send(b"x"), Err(NetError::Disconnected));
    }

    #[test]
    fn works_across_threads() {
        let (a, b) = duplex_pair("client", "server");
        let handle = std::thread::spawn(move || {
            let req = b.recv(RecvTimeout::Forever).unwrap();
            b.send(&[req, b" world".to_vec()].concat()).unwrap();
        });
        a.send(b"hello").unwrap();
        assert_eq!(a.recv(RecvTimeout::Forever).unwrap(), b"hello world");
        handle.join().unwrap();
    }

    #[test]
    fn pending_counts_queued_messages() {
        let (a, b) = duplex_pair("a", "b");
        assert_eq!(b.pending(), 0);
        a.send(b"1").unwrap();
        a.send(b"2").unwrap();
        assert_eq!(b.pending(), 2);
        b.recv(RecvTimeout::Forever).unwrap();
        assert_eq!(b.pending(), 1);
    }
}
