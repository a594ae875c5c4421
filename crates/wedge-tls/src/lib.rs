//! # wedge-tls — a structure-faithful SSL/TLS-like protocol
//!
//! The Apache/OpenSSL case study in the Wedge paper (§5.1) is entirely about
//! *where the SSL handshake's secrets live* and *which compartment performs
//! which step*: the RSA-encrypted premaster secret, the client and server
//! randoms, the derived session/MAC keys, the hashed `finished_state`, and
//! the MAC'd record layer that carries application data. This crate
//! implements a small protocol with exactly that structure (RSA key
//! exchange, SSL-style key derivation, Finished messages computed over the
//! handshake transcript, an encrypt-then-MAC record layer, and session
//! caching/resumption), on top of the deliberately toy cryptography of
//! [`wedge_crypto`].
//!
//! **This is not TLS and is not secure**; it reproduces the data flows the
//! paper's partitioning reasons about, so that the attacks and defences of
//! §5.1.1–§5.1.2 can be exercised end to end.
//!
//! Layout:
//!
//! * [`messages`] — handshake message types and their wire encoding.
//! * [`session`] — premaster/master secrets, derived key material, and the
//!   server-side session cache (the concurrent, shard-shareable
//!   [`SharedSessionCache`], and the [`SessionStore`] trait that lets a
//!   server swap the in-process cache for a remote cache ring without
//!   noticing).
//! * [`record`] — the encrypt-then-MAC record layer.
//! * [`handshake`] — the individual handshake computations (kept as free
//!   functions so the partitioned server can wrap each one in a callgate)
//!   plus a complete client and a complete *monolithic* server used by the
//!   vanilla Apache baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handshake;
pub mod messages;
pub mod record;
pub mod session;

pub use handshake::{TlsClient, TlsClientConnection, TlsError};
pub use messages::{ClientHello, ClientKeyExchange, Finished, HandshakeMessage, ServerHello};
pub use record::RecordLayer;
pub use session::{
    instrument_store, SessionId, SessionKeys, SessionStore, SharedSessionCache,
    DEFAULT_SESSION_CACHE_CAPACITY,
};
