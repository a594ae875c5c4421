//! # wedge — a Rust reproduction of *Wedge: Splitting Applications into
//! Reduced-Privilege Compartments* (Bittau, Marchenko, Handley, Karp; NSDI
//! 2008)
//!
//! This facade crate re-exports the workspace's pieces so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`core`] — sthreads (fresh per principal, or recycled and scrubbed
//!   between principals), tagged memory, callgates, default-deny policies
//!   and the simulated kernel (the paper's contribution).
//! * [`sched`] — concurrent compartment scheduling: the forked-shard
//!   front-end and admission control (the production-scale extension).
//! * [`crowbar`] — the cb-log/cb-analyze partitioning-assistance tools.
//! * [`alloc`] — the tag-segment allocator substrate.
//! * [`crypto`] / [`tls`] / [`net`] — the substrates behind the case
//!   studies (toy crypto, the SSL-like protocol, the simulated network with
//!   its man-in-the-middle attacker).
//! * [`cachenet`] — the distributed session-cache protocol: cache nodes
//!   behind listeners and the consistent-hash client ring that lets a TLS
//!   session resume on a different *machine*.
//! * [`apache`] / [`ssh`] / [`pop3`] — the partitioned applications of §2,
//!   §5.1 and §5.2, each with its monolithic baseline.
//! * [`telemetry`] — the unified observability plane: the metrics
//!   registry (counters, gauges, log-bucketed latency histograms), the
//!   lifecycle/audit event sinks, and the exportable snapshot every layer
//!   above reports into.
//! * [`chaos`] — seeded, replayable fault schedules (shard kills,
//!   cache-node epoch restarts, restart storms, rate-limit floods,
//!   cachenet brownouts) injected against the serving stack while
//!   `wedge-e2e`'s open-loop `mixed_chaos` workload keeps traffic
//!   arriving, every fault audited through [`telemetry`].
//!
//! Each subsystem's design notes are in its crate's README (the dated
//! kernel tables in `crates/wedge-core/README.md`); `CHANGES.md` is the
//! per-PR record of what was measured.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use crowbar;
pub use wedge_alloc as alloc;
pub use wedge_apache as apache;
pub use wedge_cachenet as cachenet;
pub use wedge_chaos as chaos;
pub use wedge_core as core;
pub use wedge_crypto as crypto;
pub use wedge_net as net;
pub use wedge_pop3 as pop3;
pub use wedge_sched as sched;
pub use wedge_ssh as ssh;
pub use wedge_telemetry as telemetry;
pub use wedge_tls as tls;

/// The version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let wedge = crate::core::Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"facade").unwrap();
        assert_eq!(root.read_all(&buf).unwrap(), b"facade");
        assert!(!crate::VERSION.is_empty());
    }
}
