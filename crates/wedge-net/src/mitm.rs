//! Man-in-the-middle interposer.
//!
//! §5.1.2 threat model: "the attacker interposes himself between a
//! legitimate client and the server, and can eavesdrop on, forward, and
//! inject messages between them." [`Mitm`] holds the attacker-side ends of
//! two links (one towards the client, one towards the server) and exposes
//! exactly those verbs. The attack harnesses in `wedge-apache` drive it
//! explicitly (message by message) so tests are deterministic.

use crate::duplex::{duplex_pair, Duplex, NetError};
use crate::trace::{NetTrace, TraceEntry};

/// Direction of a forwarded or injected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the legitimate client towards the server.
    ClientToServer,
    /// From the server towards the legitimate client.
    ServerToClient,
}

/// A man-in-the-middle attacker holding the middle of a client↔server path.
#[derive(Debug)]
pub struct Mitm {
    /// Link towards the client (the client believes this is the server).
    to_client: Duplex,
    /// Link towards the server (the server believes this is the client).
    to_server: Duplex,
    /// Everything the attacker has observed.
    observed: NetTrace,
}

impl Mitm {
    /// Interpose an attacker on a fresh client↔server path. Returns
    /// `(client_endpoint, mitm, server_endpoint)`.
    pub fn interpose() -> (Duplex, Mitm, Duplex) {
        let (client_end, attacker_client_side) = duplex_pair("client", "mitm-facing-client");
        let (attacker_server_side, server_end) = duplex_pair("mitm-facing-server", "server");
        (
            client_end,
            Mitm {
                to_client: attacker_client_side,
                to_server: attacker_server_side,
                observed: NetTrace::new(),
            },
            server_end,
        )
    }

    /// Forward one pending message in `dir`, recording a copy. Returns the
    /// forwarded bytes, or an error if nothing is pending / the path closed.
    pub(crate) fn forward_one(&mut self, dir: Direction) -> Result<Vec<u8>, NetError> {
        let msg = match dir {
            Direction::ClientToServer => self.to_client.try_recv()?,
            Direction::ServerToClient => self.to_server.try_recv()?,
        };
        self.observed.record(TraceEntry::forwarded(dir, &msg));
        match dir {
            Direction::ClientToServer => self.to_server.send(&msg)?,
            Direction::ServerToClient => self.to_client.send(&msg)?,
        }
        Ok(msg)
    }

    /// Forward all currently pending messages in both directions; returns
    /// how many were forwarded. This is the "passively passes messages
    /// as-is" behaviour of the §5.1.2 attack.
    pub fn forward_all_pending(&mut self) -> usize {
        let mut count = 0;
        loop {
            let mut progressed = false;
            if self.forward_one(Direction::ClientToServer).is_ok() {
                count += 1;
                progressed = true;
            }
            if self.forward_one(Direction::ServerToClient).is_ok() {
                count += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        count
    }

    /// Inject an attacker-chosen message in `dir`.
    pub fn inject(&mut self, dir: Direction, msg: &[u8]) -> Result<(), NetError> {
        self.observed.record(TraceEntry::injected(dir, msg));
        match dir {
            Direction::ClientToServer => self.to_server.send(msg),
            Direction::ServerToClient => self.to_client.send(msg),
        }
    }

    /// Everything the attacker has observed so far (forwarded, dropped and
    /// injected messages).
    pub fn observed(&self) -> &NetTrace {
        &self.observed
    }

    /// Does any observed message (either direction) contain `needle`?
    pub fn saw_bytes(&self, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .observed
                .entries()
                .iter()
                .any(|e| e.payload.windows(needle.len()).any(|w| w == needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_preserves_bytes_and_order() {
        let (client, mut mitm, server) = Mitm::interpose();
        client.send(b"hello").unwrap();
        client.send(b"again").unwrap();
        assert_eq!(
            mitm.forward_one(Direction::ClientToServer).unwrap(),
            b"hello"
        );
        assert_eq!(
            mitm.forward_one(Direction::ClientToServer).unwrap(),
            b"again"
        );
        assert_eq!(server.try_recv().unwrap(), b"hello");
        assert_eq!(server.try_recv().unwrap(), b"again");
        server.send(b"resp").unwrap();
        mitm.forward_one(Direction::ServerToClient).unwrap();
        assert_eq!(client.try_recv().unwrap(), b"resp");
    }

    #[test]
    fn attacker_observes_forwarded_traffic() {
        let (client, mut mitm, _server) = Mitm::interpose();
        client.send(b"top-secret-session-key").unwrap();
        mitm.forward_one(Direction::ClientToServer).unwrap();
        assert!(mitm.saw_bytes(b"session-key"));
        assert!(!mitm.saw_bytes(b"not-present"));
    }

    #[test]
    fn injection_reaches_the_victim() {
        let (client, mut mitm, server) = Mitm::interpose();
        mitm.inject(Direction::ClientToServer, b"evil request")
            .unwrap();
        assert_eq!(server.try_recv().unwrap(), b"evil request");
        mitm.inject(Direction::ServerToClient, b"fake response")
            .unwrap();
        assert_eq!(client.try_recv().unwrap(), b"fake response");
    }

    #[test]
    fn forward_all_pending_drains_both_directions() {
        let (client, mut mitm, server) = Mitm::interpose();
        client.send(b"a").unwrap();
        client.send(b"b").unwrap();
        server.send(b"x").unwrap();
        assert_eq!(mitm.forward_all_pending(), 3);
        assert_eq!(server.pending(), 2);
        assert_eq!(client.pending(), 1);
    }
}
