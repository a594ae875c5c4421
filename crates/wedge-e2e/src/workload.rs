//! The four workloads: what the seed turns into.
//!
//! Everything the stack sees — arrival times, which host connects, which
//! connections have forgotten their TLS session, when which fault hits —
//! is a pure function of the seed, generated here before the run starts.

use std::time::Duration;

use crate::stack::{Rng, Zipf, CACHE_NODES};

/// Front a connection targets; the value indexes the stack's fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Https = 0,
    Ssh = 1,
    Pop3 = 2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Page {
    /// The sample store's small page.
    Index,
    /// 128 KiB of seeded bytes.
    Blob,
}

impl Page {
    pub fn path(self) -> &'static str {
        match self {
            Page::Index => "/index.html",
            Page::Blob => "/blob.bin",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Each client starts its next connection when the previous completes.
    Closed {
        page: Page,
        /// Hosts each client thread owns (Zipf(1.0) over them); every
        /// connection resumes its host's session.
        hosts_per_client: usize,
        /// Draws per client in the counting window the `*_per_conn` ratios
        /// are taken over (after priming, before the warm-up).
        count_window: usize,
    },
    /// Arrivals on a fixed timeline, latency counted from the due time.
    Open {
        /// The evenly spaced streams the timeline merges.
        streams: &'static [Stream],
        /// HTTPS hosts (Zipf(1.0) over them).
        hosts: usize,
        /// Threads that dispatch the arrivals; each blocks on the
        /// connection it dispatched, so this caps the connections in flight.
        dispatchers: usize,
        /// Before the timeline starts every host handshakes once, so the
        /// run starts from the workload's steady state of held sessions, and
        /// the counting window runs on its own; otherwise the whole timeline
        /// is the counting window.
        primed: bool,
        chaos: bool,
    },
}

/// One protocol's arrivals: `per_s` connections per second, evenly spaced,
/// the first due `offset_ns` into the timeline.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub proto: Proto,
    pub per_s: u64,
    pub offset_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
}

/// Client threads of a closed loop (≤ the box's 2 cores).
pub const CLIENTS: usize = 2;

impl Workload {
    /// Whether a run pins its process to one CPU. An open loop leaves the
    /// box mostly idle, and its latency is a chain of thread wake-ups that
    /// cost 3 µs or 40 µs across CPUs depending on what the hypervisor did
    /// with the idle one (4 µs on one CPU, always); a closed loop is
    /// CPU-bound and its clients and shards need both.
    pub fn one_cpu(&self) -> bool {
        matches!(self.shape, Shape::Open { .. })
    }

    /// Threads that drive the workload's connections.
    pub fn clients(&self) -> usize {
        match self.shape {
            Shape::Closed { .. } => CLIENTS,
            Shape::Open { dispatchers, .. } => dispatchers,
        }
    }
}

/// `https_conn`: one HTTPS arrival every 2.5 ms.
const CONN_STREAMS: [Stream; 1] = [Stream {
    proto: Proto::Https,
    per_s: 400,
    offset_ns: 0,
}];
/// The mixed open loops: 40 connections per second, each protocol's first
/// arrival offset so the three evenly spaced streams never fall due together.
const MIXED_STREAMS: [Stream; 3] = [
    Stream {
        proto: Proto::Https,
        per_s: 20,
        offset_ns: 0,
    },
    Stream {
        proto: Proto::Ssh,
        per_s: 10,
        offset_ns: 12_500_000,
    },
    Stream {
        proto: Proto::Pop3,
        per_s: 10,
        offset_ns: 37_500_000,
    },
];
const fn mixed(chaos: bool) -> Shape {
    Shape::Open {
        streams: &MIXED_STREAMS,
        hosts: 256,
        dispatchers: 2,
        primed: false,
        chaos,
    }
}
/// Probability that an open-loop HTTPS arrival's host has forgotten its
/// session.
const OPEN_FORGET: f64 = 0.2;
pub const FLOOD_CONNECTIONS: u32 = 256;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "https_conn",
        why: "connection set-up: open loop, 400 small-page HTTPS conn/s over 2048 Zipf hosts, 20% cold, so sthread/callgate/alloc/handshake/cachenet dominate and bulk crypto is idle",
        // Not a closed loop: the accept loop drains a connection's
        // hand-back only when the next connection arrives, so closed-loop
        // clients lock into phases that differ from run to run (README,
        // "Why `https_conn` is not the issue's closed loop"). A timeline
        // wakes it every 2.5 ms whatever the stack does.
        shape: Shape::Open {
            streams: &CONN_STREAMS,
            hosts: 2048,
            // A connection takes 3.3 ms: one or two are in flight.
            dispatchers: 4,
            primed: true,
            chaos: false,
        },
    },
    Workload {
        name: "https_bulk",
        why: "bytes not connections: resumed sessions fetch a 128 KiB body, so cipher/MAC/record/copy paths dominate and set-up is amortised",
        shape: Shape::Closed {
            page: Page::Blob,
            hosts_per_client: 8,
            // A bulk connection takes ~0.2 s; 1,000 would outlast the run.
            count_window: 8,
        },
    },
    Workload {
        name: "mixed_open",
        why: "open loop at 40 conn/s (HTTPS+SSH+POP3): light load where accept/park/pump is the whole latency; POP3 is the no-park control",
        shape: mixed(false),
    },
    Workload {
        name: "mixed_chaos",
        why: "mixed_open's timeline plus seeded shard kills, a cache-node bounce and a flood: what a fault costs the same traffic",
        shape: mixed(true),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// One generated connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    pub proto: Proto,
    /// Host index (within the owning client thread for a closed loop).
    pub host: u32,
    /// The host has forgotten its session.
    pub cold: bool,
    /// Open loop: when the connection is due, ns from the timeline's start.
    pub due_ns: u64,
}

/// A closed-loop client's endless stream of draws.
pub struct ClosedDraws {
    rng: Rng,
    zipf: Zipf,
}

impl ClosedDraws {
    pub fn new(seed: u64, client: usize, hosts: usize) -> ClosedDraws {
        ClosedDraws {
            rng: Rng::new(seed).fork(client as u64 + 1),
            zipf: Zipf::new(hosts, 1.0),
        }
    }
}

impl Iterator for ClosedDraws {
    type Item = Draw;

    fn next(&mut self) -> Option<Draw> {
        Some(Draw {
            proto: Proto::Https,
            host: self.zipf.sample(&mut self.rng) as u32,
            cold: false,
            due_ns: 0,
        })
    }
}

/// The open-loop arrival timeline over `horizon`: each stream evenly
/// spaced at its rate, hosts Zipf-drawn over `hosts`, cold draws Bernoulli
/// — sorted by due time. No stream draws one host twice in a row: a host's
/// connections are serial, so the second would wait for the first to close
/// and, with the accept loop as it is, both for the arrival after them.
pub fn timeline(seed: u64, horizon: Duration, streams: &[Stream], hosts: usize) -> Vec<Draw> {
    let mut rng = Rng::new(seed).fork(0x71AE);
    let zipf = Zipf::new(hosts, 1.0);
    let mut draws = Vec::new();
    for stream in streams {
        let spacing_ns = 1_000_000_000 / stream.per_s;
        let mut due_ns = stream.offset_ns;
        let mut previous = None;
        while due_ns < horizon.as_nanos() as u64 {
            let host = loop {
                let host = zipf.sample(&mut rng) as u32;
                if Some(host) != previous {
                    break host;
                }
            };
            previous = Some(host);
            draws.push(Draw {
                proto: stream.proto,
                host,
                cold: stream.proto == Proto::Https && rng.next_f64() < OPEN_FORGET,
                due_ns,
            });
            due_ns += spacing_ns;
        }
    }
    draws.sort_by_key(|draw| draw.due_ns);
    draws
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    KillShard { front: usize, shard: usize },
    CacheKill { node: usize },
    CacheRestart { node: usize },
    Flood { front: usize, connections: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Offset from the start of the measured window.
    pub at: Duration,
    pub kind: FaultKind,
}

/// The chaos schedule: one shard kill per front, one cache-node kill and
/// its restart a tenth of the window later, one flood. The window's
/// middle 80 % is cut into five equal slots; the seed shuffles which fault
/// gets which slot, where in the slot it lands, and whom it hits — so
/// every seed spreads the same fault load over the run.
pub fn fault_plan(seed: u64, window: Duration) -> Vec<FaultSpec> {
    let mut rng = Rng::new(seed).fork(0xFA17);
    let mut kinds = vec![
        FaultKind::KillShard {
            front: 0,
            shard: rng.pick(2),
        },
        FaultKind::KillShard {
            front: 1,
            shard: rng.pick(2),
        },
        FaultKind::KillShard {
            front: 2,
            shard: rng.pick(2),
        },
        FaultKind::CacheKill {
            node: rng.pick(CACHE_NODES),
        },
        FaultKind::Flood {
            front: rng.pick(3),
            connections: FLOOD_CONNECTIONS,
        },
    ];
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.pick(i + 1));
    }
    let slot = window.mul_f64(0.8 / kinds.len() as f64);
    let mut plan = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let at = window.mul_f64(0.1) + slot * i as u32 + slot.mul_f64(0.8 * rng.next_f64());
        plan.push(FaultSpec { at, kind });
        if let FaultKind::CacheKill { node } = kind {
            plan.push(FaultSpec {
                at: at + window.mul_f64(0.1),
                kind: FaultKind::CacheRestart { node },
            });
        }
    }
    plan.sort_by_key(|fault| fault.at);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let horizon = Duration::from_secs(2);
        let mixed = |seed| timeline(seed, horizon, &MIXED_STREAMS, 256);
        assert_eq!(mixed(7), mixed(7));
        assert_ne!(mixed(7), mixed(8));
        assert_eq!(fault_plan(7, horizon), fault_plan(7, horizon));
        let a: Vec<Draw> = ClosedDraws::new(7, 0, 64).take(100).collect();
        let b: Vec<Draw> = ClosedDraws::new(7, 0, 64).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn open_loop_offers_forty_per_second() {
        let draws = timeline(1, Duration::from_secs(3), &MIXED_STREAMS, 256);
        assert_eq!(draws.len(), 120);
        let pop3 = draws.iter().filter(|d| d.proto == Proto::Pop3).count();
        assert_eq!(pop3, 30);
        assert!(draws.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
    }

    #[test]
    fn no_host_arrives_twice_in_a_row() {
        let draws = timeline(1, Duration::from_secs(3), &CONN_STREAMS, 2048);
        assert_eq!(draws.len(), 1200);
        assert!(draws.windows(2).all(|w| w[0].host != w[1].host));
        assert!(draws.iter().any(|d| d.cold) && draws.iter().any(|d| !d.cold));
    }

    #[test]
    fn every_fault_lands_inside_the_window() {
        for seed in 0..32 {
            let window = Duration::from_secs(20);
            let plan = fault_plan(seed, window);
            assert_eq!(plan.len(), 6);
            assert!(plan.iter().all(|f| f.at < window));
            for front in 0..3 {
                assert_eq!(
                    plan.iter()
                        .filter(|f| matches!(f.kind, FaultKind::KillShard { front: fr, .. } if fr == front))
                        .count(),
                    1
                );
            }
        }
    }
}
