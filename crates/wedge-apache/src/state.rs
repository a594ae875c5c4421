//! Per-connection session state shared *between callgates* through tagged
//! memory.
//!
//! In the §5.1.2 partitioning the session key and related secrets live in
//! tagged regions reachable only by the privileged callgates (Figure 4 and
//! Figure 5). Because each callgate invocation is a separate short-lived
//! compartment, the state must be serialised into those regions between
//! invocations; this module defines the fixed-size encodings.

use wedge_crypto::KeyMaterial;
use wedge_tls::SessionKeys;

/// Size reserved in tagged memory for a serialised [`SessionState`].
pub const SESSION_STATE_SIZE: usize = 512;
/// Size reserved in tagged memory for a serialised [`FinishedState`].
pub const FINISHED_STATE_SIZE: usize = 64;

/// The secrets of one SSL connection, as stored in the `session key` tagged
/// region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionState {
    /// The server's random contribution (generated inside the callgate,
    /// never chosen by the worker — the §5.1.1 defence).
    pub server_random: [u8; 32],
    /// The premaster secret recovered with the private key (or from the
    /// session cache).
    pub premaster: Vec<u8>,
    /// The derived master secret.
    pub master_secret: Vec<u8>,
    /// Client→server record encryption key.
    pub client_write_key: Vec<u8>,
    /// Server→client record encryption key.
    pub server_write_key: Vec<u8>,
    /// Client→server MAC key.
    pub client_mac_key: Vec<u8>,
    /// Server→client MAC key.
    pub server_mac_key: Vec<u8>,
    /// Sequence number of the next server→client record.
    pub send_seq: u64,
    /// Sequence number of the next expected client→server record.
    pub recv_seq: u64,
    /// Has key derivation completed?
    pub established: bool,
}

fn put_field(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u16).to_be_bytes());
    out.extend_from_slice(data);
}

fn get_field(input: &mut &[u8]) -> Option<Vec<u8>> {
    if input.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([input[0], input[1]]) as usize;
    if input.len() < 2 + len {
        return None;
    }
    let out = input[2..2 + len].to_vec();
    *input = &input[2 + len..];
    Some(out)
}

impl SessionState {
    /// Populate the key fields from freshly derived session keys.
    pub(crate) fn install_keys(&mut self, premaster: &[u8], keys: &SessionKeys) {
        self.premaster = premaster.to_vec();
        self.master_secret = keys.master_secret.clone();
        self.client_write_key = keys.material.client_write_key.clone();
        self.server_write_key = keys.material.server_write_key.clone();
        self.client_mac_key = keys.material.client_mac_key.clone();
        self.server_mac_key = keys.material.server_mac_key.clone();
        self.established = true;
    }

    /// Reconstruct the derived-keys view.
    pub fn keys(&self) -> SessionKeys {
        SessionKeys {
            master_secret: self.master_secret.clone(),
            material: KeyMaterial {
                client_write_key: self.client_write_key.clone(),
                server_write_key: self.server_write_key.clone(),
                client_mac_key: self.client_mac_key.clone(),
                server_mac_key: self.server_mac_key.clone(),
            },
        }
    }

    /// Serialise to the fixed-size tagged-memory representation.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SESSION_STATE_SIZE);
        out.push(u8::from(self.established));
        out.extend_from_slice(&self.server_random);
        out.extend_from_slice(&self.send_seq.to_be_bytes());
        out.extend_from_slice(&self.recv_seq.to_be_bytes());
        put_field(&mut out, &self.premaster);
        put_field(&mut out, &self.master_secret);
        put_field(&mut out, &self.client_write_key);
        put_field(&mut out, &self.server_write_key);
        put_field(&mut out, &self.client_mac_key);
        put_field(&mut out, &self.server_mac_key);
        assert!(
            out.len() <= SESSION_STATE_SIZE,
            "session state exceeds its reserved region"
        );
        out.resize(SESSION_STATE_SIZE, 0);
        out
    }

    /// Parse the tagged-memory representation.
    pub fn from_bytes(data: &[u8]) -> Option<SessionState> {
        if data.len() < 49 {
            return None;
        }
        let established = data[0] != 0;
        let mut server_random = [0u8; 32];
        server_random.copy_from_slice(&data[1..33]);
        let send_seq = u64::from_be_bytes(data[33..41].try_into().ok()?);
        let recv_seq = u64::from_be_bytes(data[41..49].try_into().ok()?);
        let mut rest = &data[49..];
        Some(SessionState {
            server_random,
            premaster: get_field(&mut rest)?,
            master_secret: get_field(&mut rest)?,
            client_write_key: get_field(&mut rest)?,
            server_write_key: get_field(&mut rest)?,
            client_mac_key: get_field(&mut rest)?,
            server_mac_key: get_field(&mut rest)?,
            send_seq,
            recv_seq,
            established,
        })
    }
}

/// The `finished_state` tagged region: the running transcript hash shared
/// only by the `receive_finished` and `send_finished` callgates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FinishedState {
    /// Hash covering all handshake messages up to and including the
    /// client's Finished message.
    pub transcript_hash: [u8; 32],
    /// Has `receive_finished` validated the client's Finished yet?
    pub client_verified: bool,
}

impl FinishedState {
    /// Serialise to the fixed-size representation.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FINISHED_STATE_SIZE);
        out.push(u8::from(self.client_verified));
        out.extend_from_slice(&self.transcript_hash);
        out.resize(FINISHED_STATE_SIZE, 0);
        out
    }

    /// Parse the fixed-size representation.
    pub fn from_bytes(data: &[u8]) -> Option<FinishedState> {
        if data.len() < 33 {
            return None;
        }
        let mut transcript_hash = [0u8; 32];
        transcript_hash.copy_from_slice(&data[1..33]);
        Some(FinishedState {
            transcript_hash,
            client_verified: data[0] != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_state_roundtrips() {
        let keys = SessionKeys::derive(b"premaster-secret", b"cr", b"sr");
        let mut state = SessionState {
            server_random: [7u8; 32],
            send_seq: 3,
            recv_seq: 5,
            ..SessionState::default()
        };
        state.install_keys(b"premaster-secret", &keys);
        let bytes = state.to_bytes();
        assert_eq!(bytes.len(), SESSION_STATE_SIZE);
        let parsed = SessionState::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, state);
        assert_eq!(parsed.keys().fingerprint(), keys.fingerprint());
    }

    #[test]
    fn default_state_is_not_established() {
        let state = SessionState::default();
        assert!(!state.established);
        let parsed = SessionState::from_bytes(&state.to_bytes()).unwrap();
        assert!(!parsed.established);
    }

    #[test]
    fn finished_state_roundtrips() {
        let state = FinishedState {
            transcript_hash: [9u8; 32],
            client_verified: true,
        };
        let parsed = FinishedState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(parsed, state);
    }

    #[test]
    fn truncated_state_is_rejected() {
        assert!(SessionState::from_bytes(&[0u8; 10]).is_none());
        assert!(FinishedState::from_bytes(&[0u8; 5]).is_none());
    }
}
