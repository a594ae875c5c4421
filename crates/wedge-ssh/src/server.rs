//! The Wedge-partitioned SSH server (§5.2).

use std::sync::Arc;

use parking_lot::Mutex;

use wedge_core::callgate::typed_entry;
use wedge_core::{
    CgEntryId, CgInput, MemProt, SBuf, SecurityPolicy, SthreadCtx, SthreadHandle, Tag, TrustedArg,
    Uid, Wedge, WedgeError,
};
use wedge_crypto::sha256::sha256;
use wedge_crypto::{RsaKeyPair, RsaPrivateKey, RsaPublicKey, WedgeRng};
use wedge_net::{Duplex, RecvTimeout};

use crate::authdb::{AuthDb, ServerConfig};
use crate::protocol::{ClientMessage, ServerMessage};

/// How long the worker waits for the next client message.
pub const SESSION_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// The uid the worker runs as before authentication (the unprivileged
/// `sshd` user).
pub const UNPRIVILEGED_UID: Uid = Uid(74);

/// The authentication methods the server supports (one callgate each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthMethod {
    /// Password authentication.
    Password,
    /// Public-key ("DSA" in the paper) authentication.
    Pubkey,
    /// S/Key one-time-password authentication.
    Skey,
}

/// The verdict returned by every authentication callgate. The `detail`
/// string is identical for "no such user" and "wrong credential" — the
/// dummy-passwd fix for the username-probing leak the paper found in
/// privilege-separated OpenSSH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthVerdict {
    /// Did authentication succeed?
    pub success: bool,
    /// The uid granted on success (0 otherwise).
    pub uid: u32,
    /// Constant-for-failures human-readable detail.
    pub detail: String,
}

impl AuthVerdict {
    fn denied() -> AuthVerdict {
        AuthVerdict {
            success: false,
            uid: 0,
            detail: "permission denied".to_string(),
        }
    }
}

/// Report returned by the worker when the session ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Did the client authenticate?
    pub authenticated: bool,
    /// The uid granted.
    pub uid: u32,
    /// Exec commands served.
    pub commands: u32,
    /// Bytes accepted over the scp path.
    pub scp_bytes: u64,
    /// The shard that served the session (0 outside a sharded front-end),
    /// so callers can attribute outcomes and failures.
    pub shard: usize,
}

fn serialize_private_key(keypair: &RsaKeyPair) -> Vec<u8> {
    let mut out = b"HOST-PRIVATE-KEY:".to_vec();
    out.extend_from_slice(&keypair.private.n.to_le_bytes());
    out.extend_from_slice(&keypair.private.d.to_le_bytes());
    out
}

fn parse_private_key(bytes: &[u8]) -> Option<RsaPrivateKey> {
    let rest = bytes.strip_prefix(b"HOST-PRIVATE-KEY:")?;
    if rest.len() < 16 {
        return None;
    }
    Some(RsaPrivateKey {
        n: u64::from_le_bytes(rest[0..8].try_into().ok()?),
        d: u64::from_le_bytes(rest[8..16].try_into().ok()?),
    })
}

struct HostSignTrusted {
    host_key: SBuf,
}

struct PasswordTrusted {
    shadow: SBuf,
}

struct PubkeyTrusted {
    authorized: SBuf,
    shadow: SBuf,
}

struct SkeyTrusted {
    skey: SBuf,
    shadow: SBuf,
    ledger: SkeyLedger,
}

/// Cross-server ledger of consumed one-time passwords, shared by every
/// monitor of a pooled front-end. Each `WedgeSsh` consumes OTPs in its own
/// tagged S/Key region; without a shared ledger, an OTP spent on one pooled
/// monitor would still be listed — and accepted — by its siblings. The
/// ledger is creator-held state inside the skey callgate's trusted argument
/// (the same pattern as the Apache session cache), so workers can neither
/// read nor tamper with it.
pub type SkeyLedger = Arc<Mutex<std::collections::HashSet<(String, String)>>>;

/// The Wedge-partitioned SSH server. Connections may overlap: each runs on
/// its own worker sthread, and an auth callgate escalates the worker the
/// kernel names as its invoker.
pub struct WedgeSsh {
    wedge: Wedge,
    host_public: RsaPublicKey,
    host_key_buf: SBuf,
    shadow_buf: SBuf,
    /// The worker sthread policy, built once: it depends only on state
    /// fixed at construction.
    worker_policy: SecurityPolicy,
    gates: Gates,
}

#[derive(Clone, Copy)]
struct Gates {
    host_sign: CgEntryId,
    password_auth: CgEntryId,
    pubkey_auth: CgEntryId,
    skey_auth: CgEntryId,
}

impl WedgeSsh {
    /// Build the server: place every credential store in its own tagged
    /// region, publish the configuration and host public key as snapshot
    /// globals (the worker may read those), and register the callgates.
    pub fn new(
        wedge: Wedge,
        host_keypair: RsaKeyPair,
        db: &AuthDb,
        config: &ServerConfig,
    ) -> Result<WedgeSsh, WedgeError> {
        Self::with_skey_ledger(
            wedge,
            host_keypair,
            db,
            config,
            Arc::new(Mutex::new(std::collections::HashSet::new())),
        )
    }

    /// Like [`WedgeSsh::new`], but sharing a consumed-OTP [`SkeyLedger`]
    /// with other server instances (pooled front-ends pass one ledger to
    /// every monitor so one-time passwords stay one-time across the pool).
    pub fn with_skey_ledger(
        wedge: Wedge,
        host_keypair: RsaKeyPair,
        db: &AuthDb,
        config: &ServerConfig,
        skey_ledger: SkeyLedger,
    ) -> Result<WedgeSsh, WedgeError> {
        let root = wedge.root();
        let host_key_tag = root.tag_new()?;
        let host_key_buf =
            root.smalloc_init(host_key_tag, &serialize_private_key(&host_keypair))?;
        let shadow_tag = root.tag_new()?;
        let shadow_buf = root.smalloc_init(shadow_tag, &db.serialize_shadow())?;
        let skey_tag = root.tag_new()?;
        let skey_buf = root.smalloc_init(skey_tag, &db.serialize_skey())?;
        let authorized_tag = root.tag_new()?;
        let authorized_buf = root.smalloc_init(authorized_tag, &db.serialize_authorized())?;

        wedge
            .kernel()
            .register_global("sshd_config", &config.serialize());
        wedge.kernel().register_global(
            "host_public_key",
            format!("{},{}", host_keypair.public.n, host_keypair.public.e).as_bytes(),
        );

        let kernel = wedge.kernel();
        let gates = Gates {
            host_sign: kernel.cgate_register(
                "host_sign",
                typed_entry(|ctx: &SthreadCtx, trusted, data: Vec<u8>| {
                    let _f = ctx.trace_fn("host_sign");
                    let t = trusted
                        .and_then(|t| t.downcast::<HostSignTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    host_sign(ctx, t, &data)
                }),
            ),
            password_auth: kernel.cgate_register(
                "password_auth",
                typed_entry(|ctx: &SthreadCtx, trusted, input: (String, String)| {
                    let _f = ctx.trace_fn("password_auth");
                    let t = trusted
                        .and_then(|t| t.downcast::<PasswordTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    password_auth(ctx, t, &input.0, &input.1)
                }),
            ),
            pubkey_auth: kernel.cgate_register(
                "pubkey_auth",
                typed_entry(
                    |ctx: &SthreadCtx, trusted, input: (String, Vec<u8>, Vec<u8>)| {
                        let _f = ctx.trace_fn("pubkey_auth");
                        let t = trusted
                            .and_then(|t| t.downcast::<PubkeyTrusted>())
                            .ok_or(WedgeError::BadCallgateValue)?;
                        pubkey_auth(ctx, t, &input.0, &input.1, &input.2)
                    },
                ),
            ),
            skey_auth: kernel.cgate_register(
                "skey_auth",
                typed_entry(|ctx: &SthreadCtx, trusted, input: (String, String)| {
                    let _f = ctx.trace_fn("skey_auth");
                    let t = trusted
                        .and_then(|t| t.downcast::<SkeyTrusted>())
                        .ok_or(WedgeError::BadCallgateValue)?;
                    skey_auth(ctx, t, &input.0, &input.1)
                }),
            ),
        };

        let gate_policy = |grants: &[(Tag, MemProt)]| {
            let mut policy = SecurityPolicy::deny_all();
            for &(tag, prot) in grants {
                policy.sc_mem_add(tag, prot);
            }
            policy
        };
        let mut worker_policy = SecurityPolicy::deny_all()
            .with_uid(UNPRIVILEGED_UID)
            .with_fs_root("/var/empty");
        worker_policy.sc_cgate_add(
            gates.host_sign,
            gate_policy(&[(host_key_tag, MemProt::Read)]),
            Some(TrustedArg::new(HostSignTrusted {
                host_key: host_key_buf,
            })),
        );
        worker_policy.sc_cgate_add(
            gates.password_auth,
            gate_policy(&[(shadow_tag, MemProt::Read)]),
            Some(TrustedArg::new(PasswordTrusted { shadow: shadow_buf })),
        );
        worker_policy.sc_cgate_add(
            gates.pubkey_auth,
            gate_policy(&[(authorized_tag, MemProt::Read), (shadow_tag, MemProt::Read)]),
            Some(TrustedArg::new(PubkeyTrusted {
                authorized: authorized_buf,
                shadow: shadow_buf,
            })),
        );
        worker_policy.sc_cgate_add(
            gates.skey_auth,
            gate_policy(&[(skey_tag, MemProt::ReadWrite), (shadow_tag, MemProt::Read)]),
            Some(TrustedArg::new(SkeyTrusted {
                skey: skey_buf,
                shadow: shadow_buf,
                ledger: skey_ledger,
            })),
        );

        Ok(WedgeSsh {
            wedge,
            host_public: host_keypair.public,
            host_key_buf,
            shadow_buf,
            worker_policy,
            gates,
        })
    }

    /// The Wedge runtime backing the server.
    pub fn wedge(&self) -> &Wedge {
        &self.wedge
    }

    /// The host public key (what clients pin).
    pub fn host_public(&self) -> RsaPublicKey {
        self.host_public
    }

    /// The host private-key region (for attack tests).
    pub fn host_key_buf(&self) -> SBuf {
        self.host_key_buf
    }

    /// The shadow-file region (for attack tests).
    pub fn shadow_buf(&self) -> SBuf {
        self.shadow_buf
    }

    /// The worker sthread policy: unprivileged uid, empty filesystem root,
    /// no credential-store grants, and the four callgates. The host *public*
    /// key and the configuration are snapshot globals, readable by default.
    pub fn worker_policy(&self) -> SecurityPolicy {
        self.worker_policy.clone()
    }

    /// Serve one connection on a fresh worker sthread.
    pub fn serve_connection(
        &self,
        link: Duplex,
    ) -> Result<SthreadHandle<SessionReport>, WedgeError> {
        let gates = self.gates;
        self.wedge
            .root()
            .sthread_create("ssh-worker", &self.worker_policy, move |ctx| {
                worker_main(ctx, &link, gates)
            })
    }
}

// ---------------------------------------------------------------------
// Callgate bodies
// ---------------------------------------------------------------------

fn host_sign(
    ctx: &SthreadCtx,
    trusted: &HostSignTrusted,
    data: &[u8],
) -> Result<Vec<u8>, WedgeError> {
    let key_bytes = ctx.read_all(&trusted.host_key)?;
    let Some(private) = parse_private_key(&key_bytes) else {
        return Err(WedgeError::BadCallgateValue);
    };
    // The callgate signs only a hash it computes itself, so the worker
    // cannot use it as a decryption oracle for arbitrary ciphertext.
    Ok(private.sign_digest(&sha256(data)))
}

/// Log the gate's caller in. The kernel names the worker that invoked this
/// gate, and the gate's inherited root uid lets it change that worker's uid
/// and filesystem root — a transition the worker itself could never make. A
/// refused transition is an error, so no verdict reports a login the worker
/// did not get.
fn escalate_worker(ctx: &SthreadCtx, uid: u32, home: &str) -> Result<AuthVerdict, WedgeError> {
    ctx.transition_identity(Uid(uid), Some(home))?;
    Ok(AuthVerdict {
        success: true,
        uid,
        detail: "ok".to_string(),
    })
}

fn password_auth(
    ctx: &SthreadCtx,
    trusted: &PasswordTrusted,
    user: &str,
    password: &str,
) -> Result<AuthVerdict, WedgeError> {
    let config = ServerConfig::parse(&ctx.global_read("sshd_config")?).unwrap_or_default();
    if !config.allow_password || (password.is_empty() && !config.permit_empty_passwords) {
        return Ok(AuthVerdict::denied());
    }
    let shadow = AuthDb::parse_shadow(&ctx.read_all(&trusted.shadow)?);
    // Unknown users take the same code path against a dummy entry, so the
    // caller cannot probe for valid usernames.
    match AuthDb::check_password(&shadow, user, password) {
        Some((uid, home)) => escalate_worker(ctx, uid, &home),
        None => Ok(AuthVerdict::denied()),
    }
}

fn pubkey_auth(
    ctx: &SthreadCtx,
    trusted: &PubkeyTrusted,
    user: &str,
    signature: &[u8],
    nonce: &[u8],
) -> Result<AuthVerdict, WedgeError> {
    let authorized = AuthDb::parse_authorized(&ctx.read_all(&trusted.authorized)?);
    let shadow = AuthDb::parse_shadow(&ctx.read_all(&trusted.shadow)?);
    let mut challenge = user.as_bytes().to_vec();
    challenge.extend_from_slice(nonce);
    let digest = sha256(&challenge);
    let valid = authorized
        .get(user)
        .map(|keys| {
            keys.iter()
                .any(|k| k.verify_digest(&digest, signature).is_ok())
        })
        .unwrap_or(false);
    if !valid {
        return Ok(AuthVerdict::denied());
    }
    match shadow.iter().find(|e| e.user == user) {
        Some(entry) => escalate_worker(ctx, entry.uid, &entry.home),
        None => Ok(AuthVerdict::denied()),
    }
}

fn skey_auth(
    ctx: &SthreadCtx,
    trusted: &SkeyTrusted,
    user: &str,
    otp: &str,
) -> Result<AuthVerdict, WedgeError> {
    let mut skey = AuthDb::parse_skey(&ctx.read_all(&trusted.skey)?);
    let shadow = AuthDb::parse_shadow(&ctx.read_all(&trusted.shadow)?);
    let Some(remaining) = skey.get_mut(user) else {
        // Same failure result whether or not the user has an S/Key entry —
        // the fix for the S/Key information-disclosure CVE the paper cites.
        return Ok(AuthVerdict::denied());
    };
    let Some(position) = remaining.iter().position(|candidate| candidate == otp) else {
        return Ok(AuthVerdict::denied());
    };
    // One-time passwords are consumed on use — both in this server's tagged
    // store and in the cross-server ledger, so a pooled sibling monitor
    // (whose own store still lists the OTP) also refuses a replay.
    {
        let mut ledger = trusted.ledger.lock();
        if !ledger.insert((user.to_string(), otp.to_string())) {
            return Ok(AuthVerdict::denied());
        }
    }
    remaining.remove(position);
    let mut serialized = String::new();
    for (u, otps) in &skey {
        serialized.push_str(&format!("{u}:{}\n", otps.join(",")));
    }
    let serialized = serialized.into_bytes();
    let mut padded = serialized.clone();
    padded.resize(trusted.skey.len, b'\n');
    ctx.write(&trusted.skey, 0, &padded)?;

    match shadow.iter().find(|e| e.user == user) {
        Some(entry) => escalate_worker(ctx, entry.uid, &entry.home),
        None => Ok(AuthVerdict::denied()),
    }
}

// ---------------------------------------------------------------------
// The unprivileged worker
// ---------------------------------------------------------------------

fn worker_main(ctx: &SthreadCtx, link: &Duplex, gates: Gates) -> SessionReport {
    let _frame = ctx.trace_fn("ssh_worker");
    let mut report = SessionReport::default();

    let Ok(first) = link.recv(RecvTimeout::After(SESSION_TIMEOUT)) else {
        return report;
    };
    if !matches!(
        ClientMessage::decode(&first),
        Some(ClientMessage::Hello { .. })
    ) {
        return report;
    }

    // The worker may read the configuration and the host *public* key (both
    // snapshot globals); the private key stays behind the host_sign gate.
    let config = ctx
        .global_read("sshd_config")
        .ok()
        .and_then(|b| ServerConfig::parse(&b))
        .unwrap_or_default();
    let host_key = ctx
        .global_read("host_public_key")
        .ok()
        .and_then(|b| {
            let text = String::from_utf8_lossy(&b).to_string();
            let (n, e) = text.split_once(',')?;
            Some(RsaPublicKey {
                n: n.parse().ok()?,
                e: e.parse().ok()?,
            })
        })
        .unwrap_or(RsaPublicKey { n: 0, e: 0 });

    let mut rng = WedgeRng::from_entropy();
    let nonce = rng.bytes(32);
    let host_proof = ctx
        .cgate_expect::<Vec<u8>>(
            gates.host_sign,
            &SecurityPolicy::deny_all(),
            Box::new(nonce.clone()),
        )
        .unwrap_or_default();
    let hello = ServerMessage::Hello {
        version: config.version_banner.clone(),
        host_key,
        host_proof,
        nonce: nonce.clone(),
    };
    if link.send(&hello.encode()).is_err() {
        return report;
    }

    while let Ok(raw) = link.recv(RecvTimeout::After(SESSION_TIMEOUT)) {
        let Some(message) = ClientMessage::decode(&raw) else {
            continue;
        };
        match message {
            ClientMessage::Hello { .. } => {}
            ClientMessage::AuthPassword { user, password } => {
                let input = Box::new((user, password));
                authenticate(ctx, link, &mut report, gates.password_auth, input);
            }
            ClientMessage::AuthPubkey { user, signature } => {
                let input = Box::new((user, signature, nonce.clone()));
                authenticate(ctx, link, &mut report, gates.pubkey_auth, input);
            }
            ClientMessage::AuthSkey { user, otp } => {
                let input = Box::new((user, otp));
                authenticate(ctx, link, &mut report, gates.skey_auth, input);
            }
            ClientMessage::Exec { command } => {
                // The session's privileges follow the worker's *actual* uid,
                // which only an authentication callgate can have changed.
                let output = if !ctx.uid().is_root() && ctx.uid() != UNPRIVILEGED_UID {
                    report.commands += 1;
                    run_command(ctx, &command)
                } else {
                    "permission denied".to_string()
                };
                let _ = link.send(&ServerMessage::ExecOutput { output }.encode());
            }
            ClientMessage::ScpChunk { data, last } => {
                if ctx.uid() != UNPRIVILEGED_UID {
                    report.scp_bytes += data.len() as u64;
                }
                let _ = link.send(
                    &ServerMessage::ScpAck {
                        received: report.scp_bytes,
                    }
                    .encode(),
                );
                if last && report.scp_bytes == 0 {
                    // Unauthenticated upload attempts end the session.
                    break;
                }
            }
            ClientMessage::Disconnect => {
                let _ = link.send(&ServerMessage::Goodbye.encode());
                break;
            }
        }
    }
    report
}

/// Run one authentication callgate on the client's credentials, record a
/// successful login in `report` and answer the client.
fn authenticate(
    ctx: &SthreadCtx,
    link: &Duplex,
    report: &mut SessionReport,
    gate: CgEntryId,
    input: CgInput,
) {
    let verdict = ctx
        .cgate_expect::<AuthVerdict>(gate, &SecurityPolicy::deny_all(), input)
        .unwrap_or_else(|_| AuthVerdict::denied());
    if verdict.success {
        report.authenticated = true;
        report.uid = verdict.uid;
    }
    let _ = link.send(
        &ServerMessage::AuthResult {
            success: verdict.success,
            uid: verdict.uid,
            detail: verdict.detail,
        }
        .encode(),
    );
}

fn run_command(ctx: &SthreadCtx, command: &str) -> String {
    match command.split_once(' ') {
        Some(("echo", rest)) => rest.to_string(),
        _ if command == "whoami" => format!("uid={} root={}", ctx.uid().0, ctx.policy().fs_root),
        _ => format!("unknown command: {command}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SshClient;
    use wedge_core::Exploit;
    use wedge_net::duplex_pair;

    fn server() -> WedgeSsh {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(1));
        WedgeSsh::new(
            Wedge::init(),
            keypair,
            &AuthDb::sample(),
            &ServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn password_login_and_exec() {
        let server = server();
        let (client_link, server_link) = duplex_pair("client", "sshd");
        let handle = server.serve_connection(server_link).unwrap();
        let mut client = SshClient::new();
        let hello = client.connect(&client_link).unwrap();
        assert!(hello.host_proof_valid);
        let auth = client
            .auth_password(&client_link, "alice", "correct horse battery")
            .unwrap();
        assert!(auth.0);
        assert_eq!(auth.1, 1001);
        let out = client.exec(&client_link, "whoami").unwrap();
        assert!(out.contains("uid=1001"));
        assert!(out.contains("/home/alice"));
        client.disconnect(&client_link).unwrap();
        let report = handle.join().unwrap();
        assert!(report.authenticated);
        assert_eq!(report.uid, 1001);
    }

    #[test]
    fn wrong_password_and_unknown_user_are_indistinguishable() {
        let server = server();
        let (client_link, server_link) = duplex_pair("client", "sshd");
        let handle = server.serve_connection(server_link).unwrap();
        let mut client = SshClient::new();
        client.connect(&client_link).unwrap();
        let wrong = client
            .auth_password(&client_link, "alice", "wrong")
            .unwrap();
        let unknown = client
            .auth_password(&client_link, "mallory", "wrong")
            .unwrap();
        assert!(!wrong.0 && !unknown.0);
        assert_eq!(
            wrong.2, unknown.2,
            "failure detail must not reveal user validity"
        );
        // Unauthenticated exec is refused.
        let out = client.exec(&client_link, "echo hi").unwrap();
        assert_eq!(out, "permission denied");
        client.disconnect(&client_link).unwrap();
        let report = handle.join().unwrap();
        assert!(!report.authenticated);
    }

    #[test]
    fn skey_otp_is_single_use() {
        let server = server();
        for (round, expect) in [(0, true), (1, false)] {
            let (client_link, server_link) = duplex_pair("client", "sshd");
            let handle = server.serve_connection(server_link).unwrap();
            let mut client = SshClient::new();
            client.connect(&client_link).unwrap();
            let result = client.auth_skey(&client_link, "alice", "otp-one").unwrap();
            assert_eq!(result.0, expect, "round {round}");
            client.disconnect(&client_link).unwrap();
            handle.join().unwrap();
        }
    }

    #[test]
    fn pubkey_login_works_and_bad_signature_fails() {
        let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(2));
        let user_key = RsaKeyPair::generate(&mut WedgeRng::from_seed(3));
        let mut db = AuthDb::sample();
        db.add_authorized_key("alice", user_key.public);
        let server = WedgeSsh::new(Wedge::init(), keypair, &db, &ServerConfig::default()).unwrap();

        let (client_link, server_link) = duplex_pair("client", "sshd");
        let handle = server.serve_connection(server_link).unwrap();
        let mut client = SshClient::new();
        client.connect(&client_link).unwrap();
        let ok = client
            .auth_pubkey(&client_link, "alice", &user_key.private)
            .unwrap();
        assert!(ok.0);
        client.disconnect(&client_link).unwrap();
        handle.join().unwrap();

        // A different key is rejected.
        let intruder_key = RsaKeyPair::generate(&mut WedgeRng::from_seed(4));
        let (client_link, server_link) = duplex_pair("client", "sshd");
        let handle = server.serve_connection(server_link).unwrap();
        let mut client = SshClient::new();
        client.connect(&client_link).unwrap();
        let bad = client
            .auth_pubkey(&client_link, "alice", &intruder_key.private)
            .unwrap();
        assert!(!bad.0);
        client.disconnect(&client_link).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn exploited_worker_cannot_read_credentials_or_escalate() {
        let server = server();
        let policy = server.worker_policy();
        let host_key_buf = server.host_key_buf();
        let shadow_buf = server.shadow_buf();
        let handle = server
            .wedge()
            .root()
            .sthread_create("exploited-worker", &policy, move |ctx| {
                let mut exploit = Exploit::seize(ctx);
                let key = exploit.try_read(&host_key_buf);
                let shadow = exploit.try_read(&shadow_buf);
                // Attempting to grant itself root fails: the worker is no
                // callgate activation, so it has no invoker to act on.
                let escalate = ctx.transition_identity(Uid(0), None);
                (key.is_err(), shadow.is_err(), escalate.is_err(), ctx.uid())
            })
            .unwrap();
        let (key_denied, shadow_denied, escalate_denied, uid) = handle.join().unwrap();
        assert!(key_denied, "host private key must be unreachable");
        assert!(shadow_denied, "shadow file must be unreachable");
        assert!(escalate_denied, "worker cannot change its own uid");
        assert_eq!(uid, UNPRIVILEGED_UID);
    }
}
