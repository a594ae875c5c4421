//! The POP3 server's data: a password database and a per-user mail store,
//! with a simple text serialisation so both can live in tagged memory.

use std::collections::BTreeMap;

/// One user's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRecord {
    /// The user's password (plaintext; the example is about isolation, not
    /// password hashing).
    pub password: String,
    /// The numeric uid the login callgate stores on success.
    pub uid: u32,
    /// The user's messages.
    pub emails: Vec<String>,
}

/// The combined password database and mail store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MailDb {
    users: BTreeMap<String, UserRecord>,
}

impl MailDb {
    /// An empty database.
    pub fn new() -> MailDb {
        MailDb::default()
    }

    /// A small sample database used by examples and tests.
    pub fn sample() -> MailDb {
        let mut db = MailDb::new();
        db.add_user(
            "alice",
            UserRecord {
                password: "wonderland".to_string(),
                uid: 1001,
                emails: vec![
                    "From: bob\nSubject: lunch\n\nNoon?".to_string(),
                    "From: carol\nSubject: report\n\nAttached.".to_string(),
                ],
            },
        );
        db.add_user(
            "bob",
            UserRecord {
                password: "builder".to_string(),
                uid: 1002,
                emails: vec!["From: alice\nSubject: re: lunch\n\nYes.".to_string()],
            },
        );
        db
    }

    /// Insert or replace a user.
    pub(crate) fn add_user(&mut self, name: &str, record: UserRecord) {
        self.users.insert(name.to_string(), record);
    }

    /// Look up a user.
    pub fn user(&self, name: &str) -> Option<&UserRecord> {
        self.users.get(name)
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Serialise only the authentication data (username, password, uid) —
    /// what the login callgate's tagged region holds.
    pub(crate) fn serialize_auth(&self) -> Vec<u8> {
        let mut out = String::new();
        for (name, record) in &self.users {
            out.push_str(&format!("{name}\t{}\t{}\n", record.password, record.uid));
        }
        out.into_bytes()
    }

    /// Serialise only the mail store (uid and messages) — what the
    /// retriever callgate's tagged region holds. Messages are
    /// base-escaped so newlines survive.
    pub(crate) fn serialize_mail(&self) -> Vec<u8> {
        let mut out = String::new();
        for record in self.users.values() {
            for email in &record.emails {
                out.push_str(&format!("{}\t{}\n", record.uid, email.replace('\n', "\\n")));
            }
        }
        out.into_bytes()
    }

    /// Parse the auth serialisation into (username, password, uid) tuples.
    pub(crate) fn parse_auth(data: &[u8]) -> Vec<(String, String, u32)> {
        String::from_utf8_lossy(data)
            .lines()
            .filter_map(|line| {
                let mut parts = line.split('\t');
                let name = parts.next()?.to_string();
                let password = parts.next()?.to_string();
                let uid = parts.next()?.parse().ok()?;
                Some((name, password, uid))
            })
            .collect()
    }

    /// Parse the mail serialisation into (uid, message) tuples.
    pub(crate) fn parse_mail(data: &[u8]) -> Vec<(u32, String)> {
        String::from_utf8_lossy(data)
            .lines()
            .filter_map(|line| {
                let (uid, body) = line.split_once('\t')?;
                Some((uid.parse().ok()?, body.replace("\\n", "\n")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_database_has_users_and_mail() {
        let db = MailDb::sample();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.user("alice").unwrap().uid, 1001);
        assert_eq!(db.user("alice").unwrap().emails.len(), 2);
        assert!(db.user("mallory").is_none());
        assert_eq!(db.user("bob").unwrap().uid, 1002);
    }

    #[test]
    fn auth_serialisation_roundtrips() {
        let db = MailDb::sample();
        let parsed = MailDb::parse_auth(&db.serialize_auth());
        assert_eq!(parsed.len(), 2);
        assert!(parsed.contains(&("alice".to_string(), "wonderland".to_string(), 1001)));
    }

    #[test]
    fn mail_serialisation_roundtrips_with_newlines() {
        let db = MailDb::sample();
        let parsed = MailDb::parse_mail(&db.serialize_mail());
        assert_eq!(parsed.len(), 3);
        let alice_mail: Vec<&String> = parsed
            .iter()
            .filter(|(uid, _)| *uid == 1001)
            .map(|(_, m)| m)
            .collect();
        assert_eq!(alice_mail.len(), 2);
        assert!(alice_mail[0].contains("Subject: lunch"));
        assert!(alice_mail[0].contains('\n'));
    }

    #[test]
    fn parse_tolerates_garbage_lines() {
        let parsed = MailDb::parse_auth(b"not-a-valid-line\nalice\tpw\t3\n\tbroken\t\n");
        assert_eq!(parsed, vec![("alice".to_string(), "pw".to_string(), 3)]);
        let mail = MailDb::parse_mail(b"garbage\n12\thello\n");
        assert_eq!(mail, vec![(12, "hello".to_string())]);
    }
}
