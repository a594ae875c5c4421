//! Credential stores: the shadow password file, S/Key one-time passwords,
//! authorized public keys, and the server configuration.

use std::collections::BTreeMap;

use wedge_crypto::sha256::{sha256, to_hex};
use wedge_crypto::RsaPublicKey;

/// One `/etc/shadow`-style entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowEntry {
    /// Username.
    pub user: String,
    /// Hex-encoded SHA-256 of the password.
    pub password_hash: String,
    /// Numeric uid assigned on login.
    pub uid: u32,
    /// Home directory (becomes the worker's filesystem root after login).
    pub home: String,
}

/// All credential material the server needs, with text serialisations so
/// each store can live in its own tagged memory region.
#[derive(Debug, Clone, Default)]
pub struct AuthDb {
    shadow: BTreeMap<String, ShadowEntry>,
    /// user → remaining one-time passwords.
    skey: BTreeMap<String, Vec<String>>,
    /// user → authorized public keys.
    authorized: BTreeMap<String, Vec<RsaPublicKey>>,
}

impl AuthDb {
    /// An empty database.
    pub fn new() -> AuthDb {
        AuthDb::default()
    }

    /// A sample database used by tests, examples and benches.
    pub fn sample() -> AuthDb {
        let mut db = AuthDb::new();
        db.add_password_user("alice", "correct horse battery", 1001, "/home/alice");
        db.add_password_user("bob", "hunter2", 1002, "/home/bob");
        db.add_skey("alice", &["otp-one", "otp-two"]);
        db
    }

    /// Add a password-authenticated user.
    pub fn add_password_user(&mut self, user: &str, password: &str, uid: u32, home: &str) {
        self.shadow.insert(
            user.to_string(),
            ShadowEntry {
                user: user.to_string(),
                password_hash: to_hex(&sha256(password.as_bytes())),
                uid,
                home: home.to_string(),
            },
        );
    }

    /// Register S/Key one-time passwords for a user.
    pub(crate) fn add_skey(&mut self, user: &str, otps: &[&str]) {
        self.skey.insert(
            user.to_string(),
            otps.iter().map(|s| s.to_string()).collect(),
        );
    }

    /// Register an authorized public key for a user.
    pub fn add_authorized_key(&mut self, user: &str, key: RsaPublicKey) {
        self.authorized
            .entry(user.to_string())
            .or_default()
            .push(key);
    }

    /// Serialise the shadow file (`user:hash:uid:home` per line).
    pub fn serialize_shadow(&self) -> Vec<u8> {
        let mut out = String::new();
        for entry in self.shadow.values() {
            out.push_str(&format!(
                "{}:{}:{}:{}\n",
                entry.user, entry.password_hash, entry.uid, entry.home
            ));
        }
        out.into_bytes()
    }

    /// Parse a serialised shadow file.
    pub fn parse_shadow(data: &[u8]) -> Vec<ShadowEntry> {
        String::from_utf8_lossy(data)
            .lines()
            .filter_map(|line| {
                let mut parts = line.split(':');
                Some(ShadowEntry {
                    user: parts.next()?.to_string(),
                    password_hash: parts.next()?.to_string(),
                    uid: parts.next()?.parse().ok()?,
                    home: parts.next()?.to_string(),
                })
            })
            .collect()
    }

    /// Serialise the S/Key store (`user:otp1,otp2,...`).
    pub(crate) fn serialize_skey(&self) -> Vec<u8> {
        let mut out = String::new();
        for (user, otps) in &self.skey {
            out.push_str(&format!("{user}:{}\n", otps.join(",")));
        }
        out.into_bytes()
    }

    /// Parse the S/Key store.
    pub(crate) fn parse_skey(data: &[u8]) -> BTreeMap<String, Vec<String>> {
        let mut out = BTreeMap::new();
        for line in String::from_utf8_lossy(data).lines() {
            if let Some((user, otps)) = line.split_once(':') {
                out.insert(
                    user.to_string(),
                    otps.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.to_string())
                        .collect(),
                );
            }
        }
        out
    }

    /// Serialise the authorized-keys store (`user:n,e;n,e...`).
    pub(crate) fn serialize_authorized(&self) -> Vec<u8> {
        let mut out = String::new();
        for (user, keys) in &self.authorized {
            let rendered: Vec<String> = keys.iter().map(|k| format!("{},{}", k.n, k.e)).collect();
            out.push_str(&format!("{user}:{}\n", rendered.join(";")));
        }
        out.into_bytes()
    }

    /// Parse the authorized-keys store.
    pub(crate) fn parse_authorized(data: &[u8]) -> BTreeMap<String, Vec<RsaPublicKey>> {
        let mut out = BTreeMap::new();
        for line in String::from_utf8_lossy(data).lines() {
            let Some((user, keys)) = line.split_once(':') else {
                continue;
            };
            let parsed: Vec<RsaPublicKey> = keys
                .split(';')
                .filter_map(|pair| {
                    let (n, e) = pair.split_once(',')?;
                    Some(RsaPublicKey {
                        n: n.parse().ok()?,
                        e: e.parse().ok()?,
                    })
                })
                .collect();
            out.insert(user.to_string(), parsed);
        }
        out
    }

    /// Check a password against the shadow data. Free function form so both
    /// the monolithic server and the password callgate share it.
    pub fn check_password(
        shadow: &[ShadowEntry],
        user: &str,
        password: &str,
    ) -> Option<(u32, String)> {
        let entry = shadow.iter().find(|e| e.user == user)?;
        if entry.password_hash == to_hex(&sha256(password.as_bytes())) {
            Some((entry.uid, entry.home.clone()))
        } else {
            None
        }
    }
}

/// The server configuration the worker may read (version banner, allowed
/// authentication methods, etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// The version banner sent to clients.
    pub version_banner: String,
    /// Whether password authentication is allowed.
    pub allow_password: bool,
    /// Whether empty passwords are permitted.
    pub permit_empty_passwords: bool,
    /// Ciphers advertised to the client.
    pub ciphers: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            version_banner: "SSH-2.0-wedge_ssh_0.1".to_string(),
            allow_password: true,
            permit_empty_passwords: false,
            ciphers: vec!["toy-stream".to_string(), "none".to_string()],
        }
    }
}

impl ServerConfig {
    /// Serialise for storage as a snapshot global.
    pub fn serialize(&self) -> Vec<u8> {
        format!(
            "{}\n{}\n{}\n{}",
            self.version_banner,
            self.allow_password,
            self.permit_empty_passwords,
            self.ciphers.join(",")
        )
        .into_bytes()
    }

    /// Parse the serialised form.
    pub fn parse(data: &[u8]) -> Option<ServerConfig> {
        let text = String::from_utf8_lossy(data);
        let mut lines = text.lines();
        Some(ServerConfig {
            version_banner: lines.next()?.to_string(),
            allow_password: lines.next()? == "true",
            permit_empty_passwords: lines.next()? == "true",
            ciphers: lines.next()?.split(',').map(|s| s.to_string()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::{RsaKeyPair, WedgeRng};

    #[test]
    fn shadow_roundtrip_and_password_check() {
        let db = AuthDb::sample();
        let entries = AuthDb::parse_shadow(&db.serialize_shadow());
        assert_eq!(entries.len(), 2);
        assert!(AuthDb::check_password(&entries, "alice", "correct horse battery").is_some());
        assert!(AuthDb::check_password(&entries, "alice", "wrong").is_none());
        assert!(AuthDb::check_password(&entries, "nobody", "x").is_none());
        let (uid, home) = AuthDb::check_password(&entries, "bob", "hunter2").unwrap();
        assert_eq!(uid, 1002);
        assert_eq!(home, "/home/bob");
    }

    #[test]
    fn skey_roundtrip() {
        let db = AuthDb::sample();
        let skey = AuthDb::parse_skey(&db.serialize_skey());
        assert_eq!(skey["alice"], vec!["otp-one", "otp-two"]);
    }

    #[test]
    fn authorized_keys_roundtrip() {
        let mut db = AuthDb::sample();
        let kp = RsaKeyPair::generate(&mut WedgeRng::from_seed(1));
        db.add_authorized_key("alice", kp.public);
        let parsed = AuthDb::parse_authorized(&db.serialize_authorized());
        assert_eq!(parsed["alice"], vec![kp.public]);
    }

    #[test]
    fn config_roundtrip() {
        let config = ServerConfig::default();
        assert_eq!(ServerConfig::parse(&config.serialize()).unwrap(), config);
    }
}
