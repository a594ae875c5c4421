//! The partitioned POP3 server (Figure 1 of the paper).

use wedge_core::callgate::typed_entry;
use wedge_core::{
    CgEntryId, MemProt, SBuf, SecurityPolicy, SthreadCtx, SthreadHandle, Tag, TrustedArg, Wedge,
    WedgeError,
};
use wedge_net::{Duplex, RecvTimeout};

use crate::maildb::MailDb;

/// Request accepted by the retriever callgate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrieveRequest {
    /// How many messages does the authenticated user have?
    Count,
    /// Fetch message `n` (zero-based) of the authenticated user.
    Message(usize),
}

/// Reply from the retriever callgate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrieveReply {
    /// Message count.
    Count(usize),
    /// A message body.
    Message(String),
    /// The connection has not authenticated yet (uid is still 0).
    NotAuthenticated,
    /// No message with that index.
    NoSuchMessage,
}

/// Per-connection statistics returned by the client handler when it exits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pop3Stats {
    /// Commands processed.
    pub commands: u32,
    /// Whether the session authenticated successfully.
    pub logged_in: bool,
    /// Messages retrieved.
    pub retrieved: u32,
}

/// Trusted argument handed to the login callgate: where the password
/// database lives and where this connection's authenticated uid is stored.
#[derive(Debug, Clone, Copy)]
struct LoginTrusted {
    passwords: SBuf,
    uid_cell: SBuf,
}

/// Trusted argument handed to the retriever callgate.
#[derive(Debug, Clone, Copy)]
struct RetrieveTrusted {
    mail: SBuf,
    uid_cell: SBuf,
}

/// The partitioned POP3 server.
pub struct Pop3Server {
    wedge: Wedge,
    passwords_tag: Tag,
    mail_tag: Tag,
    uid_tag: Tag,
    passwords_buf: SBuf,
    mail_buf: SBuf,
    login_entry: CgEntryId,
    retrieve_entry: CgEntryId,
}

impl Pop3Server {
    /// Build the server: load the database into tagged memory and register
    /// the two privileged callgates.
    pub fn new(wedge: Wedge, db: &MailDb) -> Result<Pop3Server, WedgeError> {
        let root = wedge.root();
        let passwords_tag = root.tag_new()?;
        let mail_tag = root.tag_new()?;
        let uid_tag = root.tag_new()?;
        let passwords_buf = root.smalloc_init(passwords_tag, &db.serialize_auth())?;
        let mail_buf = root.smalloc_init(mail_tag, &db.serialize_mail())?;

        // Login callgate: reads the password DB, writes the connection uid.
        let login_entry = wedge.kernel().cgate_register(
            "pop3_login",
            typed_entry(|ctx: &SthreadCtx, trusted, input: (String, String)| {
                let _frame = ctx.trace_fn("pop3_login");
                let trusted = trusted
                    .and_then(|t| t.downcast::<LoginTrusted>())
                    .copied()
                    .ok_or(WedgeError::BadCallgateValue)?;
                let auth_data = ctx.read_all(&trusted.passwords)?;
                let (username, password) = input;
                let entry = MailDb::parse_auth(&auth_data)
                    .into_iter()
                    .find(|(name, pass, _)| *name == username && *pass == password);
                match entry {
                    Some((_, _, uid)) => {
                        ctx.write(&trusted.uid_cell, 0, &uid.to_le_bytes())?;
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }),
        );

        // Retriever callgate: reads the mail store and the connection uid;
        // only ever serves the authenticated uid's mailbox.
        let retrieve_entry = wedge.kernel().cgate_register(
            "pop3_retrieve",
            typed_entry(|ctx: &SthreadCtx, trusted, request: RetrieveRequest| {
                let _frame = ctx.trace_fn("pop3_retrieve");
                let trusted = trusted
                    .and_then(|t| t.downcast::<RetrieveTrusted>())
                    .copied()
                    .ok_or(WedgeError::BadCallgateValue)?;
                let uid_bytes = ctx.read(&trusted.uid_cell, 0, 4)?;
                let uid = u32::from_le_bytes(uid_bytes.try_into().expect("4 bytes"));
                if uid == 0 {
                    return Ok(RetrieveReply::NotAuthenticated);
                }
                let mail = MailDb::parse_mail(&ctx.read_all(&trusted.mail)?);
                let mine: Vec<&String> = mail
                    .iter()
                    .filter(|(owner, _)| *owner == uid)
                    .map(|(_, body)| body)
                    .collect();
                Ok(match request {
                    RetrieveRequest::Count => RetrieveReply::Count(mine.len()),
                    RetrieveRequest::Message(index) => match mine.get(index) {
                        Some(body) => RetrieveReply::Message((*body).clone()),
                        None => RetrieveReply::NoSuchMessage,
                    },
                })
            }),
        );

        Ok(Pop3Server {
            wedge,
            passwords_tag,
            mail_tag,
            uid_tag,
            passwords_buf,
            mail_buf,
            login_entry,
            retrieve_entry,
        })
    }

    /// The Wedge runtime backing this server.
    pub fn wedge(&self) -> &Wedge {
        &self.wedge
    }

    /// Prepare the per-connection state: the connection's `uid` cell and the
    /// client handler's security policy (no direct memory grants — only the
    /// two callgates, each instantiated with the right trusted argument).
    /// The cell is the caller's to `sfree` once nothing can invoke those
    /// callgates any more; [`Self::serve_connection`] does so itself.
    pub(crate) fn connection_policy(&self) -> Result<(SecurityPolicy, SBuf), WedgeError> {
        let root = self.wedge.root();
        let uid_cell = root.smalloc(4, self.uid_tag)?;
        root.write(&uid_cell, 0, &0u32.to_le_bytes())?;

        let mut login_policy = SecurityPolicy::deny_all();
        login_policy.sc_mem_add(self.passwords_tag, MemProt::Read);
        login_policy.sc_mem_add(self.uid_tag, MemProt::ReadWrite);

        let mut retrieve_policy = SecurityPolicy::deny_all();
        retrieve_policy.sc_mem_add(self.mail_tag, MemProt::Read);
        retrieve_policy.sc_mem_add(self.uid_tag, MemProt::Read);

        let mut handler_policy = SecurityPolicy::deny_all();
        handler_policy.sc_cgate_add(
            self.login_entry,
            login_policy,
            Some(TrustedArg::new(LoginTrusted {
                passwords: self.passwords_buf,
                uid_cell,
            })),
        );
        handler_policy.sc_cgate_add(
            self.retrieve_entry,
            retrieve_policy,
            Some(TrustedArg::new(RetrieveTrusted {
                mail: self.mail_buf,
                uid_cell,
            })),
        );
        Ok((handler_policy, uid_cell))
    }

    /// Serve one connection: spawn the unprivileged client handler sthread
    /// and return its handle. `link` is the server side of the client's
    /// connection.
    pub fn serve_connection(&self, link: Duplex) -> Result<Pop3Connection, WedgeError> {
        let (policy, uid_cell) = self.connection_policy()?;
        // From here the cell is freed on every path, a failed spawn
        // included.
        let mut connection = Pop3Connection {
            handler: None,
            root: self.wedge.root(),
            uid_cell,
        };
        let login_entry = self.login_entry;
        let retrieve_entry = self.retrieve_entry;
        connection.handler = Some(connection.root.sthread_create(
            "pop3-client-handler",
            &policy,
            move |ctx| client_handler(ctx, &link, login_entry, retrieve_entry),
        )?);
        Ok(connection)
    }
}

/// A connection being served: the client handler's sthread, and the `uid`
/// cell its two callgates share. The cell must outlive the handler (a
/// freed cell is reused by the next connection, and a live handler's login
/// would then authenticate *that* one) and must not outlive it by long (a
/// shard's `uid` segment holds 2,048 of them), so this handle frees it
/// exactly when the handler has been joined.
pub struct Pop3Connection {
    handler: Option<SthreadHandle<Result<Pop3Stats, WedgeError>>>,
    root: SthreadCtx,
    uid_cell: SBuf,
}

impl Pop3Connection {
    /// Wait for the client handler to finish and collect its statistics
    /// (same shape as [`SthreadHandle::join`]), then free the `uid` cell.
    pub fn join(mut self) -> Result<Result<Pop3Stats, WedgeError>, WedgeError> {
        let handler = self.handler.take().expect("join consumes the handle");
        handler.join()
    }
}

impl Drop for Pop3Connection {
    /// Dropped without [`Pop3Connection::join`]: wait the handler out
    /// first — until the client hangs up or goes idle — so the cell is
    /// never freed under a live handler.
    fn drop(&mut self) {
        if let Some(handler) = self.handler.take() {
            let _ = handler.join();
        }
        let _ = self.root.sfree(&self.uid_cell);
    }
}

/// The unprivileged, network-facing command loop.
fn client_handler(
    ctx: &SthreadCtx,
    link: &Duplex,
    login_entry: CgEntryId,
    retrieve_entry: CgEntryId,
) -> Result<Pop3Stats, WedgeError> {
    let _frame = ctx.trace_fn("pop3_client_handler");
    let mut stats = Pop3Stats::default();
    let mut pending_user: Option<String> = None;
    let no_extra = SecurityPolicy::deny_all();
    let _ = link.send(b"+OK wedge-pop3 ready");

    while let Ok(raw) = link.recv(RecvTimeout::After(std::time::Duration::from_secs(5))) {
        stats.commands += 1;
        let line = String::from_utf8_lossy(&raw).trim().to_string();
        let mut parts = line.splitn(2, ' ');
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        let arg = parts.next().unwrap_or("").to_string();
        let reply: String = match verb.as_str() {
            "USER" => {
                pending_user = Some(arg);
                "+OK send PASS".to_string()
            }
            "PASS" => {
                let username = pending_user.clone().unwrap_or_default();
                let ok =
                    ctx.cgate_expect::<bool>(login_entry, &no_extra, Box::new((username, arg)))?;
                if ok {
                    stats.logged_in = true;
                    "+OK logged in".to_string()
                } else {
                    "-ERR authentication failed".to_string()
                }
            }
            "STAT" | "LIST" => {
                match ctx.cgate_expect::<RetrieveReply>(
                    retrieve_entry,
                    &no_extra,
                    Box::new(RetrieveRequest::Count),
                )? {
                    RetrieveReply::Count(n) => format!("+OK {n} messages"),
                    RetrieveReply::NotAuthenticated => "-ERR not authenticated".to_string(),
                    _ => "-ERR internal".to_string(),
                }
            }
            "RETR" => {
                let index = arg.parse::<usize>().unwrap_or(0).saturating_sub(1);
                match ctx.cgate_expect::<RetrieveReply>(
                    retrieve_entry,
                    &no_extra,
                    Box::new(RetrieveRequest::Message(index)),
                )? {
                    RetrieveReply::Message(body) => {
                        stats.retrieved += 1;
                        format!("+OK message follows\r\n{body}\r\n.")
                    }
                    RetrieveReply::NotAuthenticated => "-ERR not authenticated".to_string(),
                    RetrieveReply::NoSuchMessage => "-ERR no such message".to_string(),
                    _ => "-ERR internal".to_string(),
                }
            }
            "QUIT" => {
                let _ = link.send(b"+OK bye");
                break;
            }
            _ => "-ERR unknown command".to_string(),
        };
        if link.send(reply.as_bytes()).is_err() {
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_core::Exploit;
    use wedge_net::duplex_pair;

    fn send_cmd(client: &Duplex, cmd: &str) -> String {
        client.send(cmd.as_bytes()).unwrap();
        String::from_utf8_lossy(
            &client
                .recv(RecvTimeout::After(std::time::Duration::from_secs(5)))
                .unwrap(),
        )
        .to_string()
    }

    fn start() -> (Pop3Server, Duplex, Pop3Connection) {
        let server = Pop3Server::new(Wedge::init(), &MailDb::sample()).unwrap();
        let (client, server_link) = duplex_pair("pop3-client", "pop3-server");
        let handle = server.serve_connection(server_link).unwrap();
        // Consume the greeting.
        let greeting = client
            .recv(RecvTimeout::After(std::time::Duration::from_secs(5)))
            .unwrap();
        assert!(greeting.starts_with(b"+OK"));
        (server, client, handle)
    }

    #[test]
    fn authenticated_user_reads_own_mail() {
        let (_server, client, handle) = start();
        assert!(send_cmd(&client, "USER alice").starts_with("+OK"));
        assert!(send_cmd(&client, "PASS wonderland").starts_with("+OK"));
        assert_eq!(send_cmd(&client, "STAT"), "+OK 2 messages");
        let msg = send_cmd(&client, "RETR 1");
        assert!(msg.contains("Subject: lunch"));
        assert!(send_cmd(&client, "QUIT").starts_with("+OK"));
        let stats = handle.join().unwrap().unwrap();
        assert!(stats.logged_in);
        assert_eq!(stats.retrieved, 1);
    }

    #[test]
    fn wrong_password_is_rejected_and_mail_stays_closed() {
        let (_server, client, handle) = start();
        assert!(send_cmd(&client, "USER alice").starts_with("+OK"));
        assert!(send_cmd(&client, "PASS guess").starts_with("-ERR"));
        assert!(send_cmd(&client, "STAT").starts_with("-ERR not authenticated"));
        assert!(send_cmd(&client, "RETR 1").starts_with("-ERR not authenticated"));
        send_cmd(&client, "QUIT");
        drop(client);
        let stats = handle.join().unwrap().unwrap();
        assert!(!stats.logged_in);
        assert_eq!(stats.retrieved, 0);
    }

    #[test]
    fn unknown_command_and_missing_message_are_handled() {
        let (_server, client, handle) = start();
        assert!(send_cmd(&client, "XYZZY").starts_with("-ERR"));
        assert!(send_cmd(&client, "USER bob").starts_with("+OK"));
        assert!(send_cmd(&client, "PASS builder").starts_with("+OK"));
        assert!(send_cmd(&client, "RETR 99").starts_with("-ERR no such message"));
        // Hang up first: a dropped handle waits its handler out.
        drop(client);
        assert_eq!(handle.join().unwrap().unwrap().commands, 4);
    }

    #[test]
    fn exploited_client_handler_cannot_read_passwords_or_mail() {
        let server = Pop3Server::new(Wedge::init(), &MailDb::sample()).unwrap();
        let (policy, _uid) = server.connection_policy().unwrap();
        let passwords = server.passwords_buf;
        let mail = server.mail_buf;
        let handle = server
            .wedge()
            .root()
            .sthread_create("exploited-handler", &policy, move |ctx| {
                let mut exploit = Exploit::seize(ctx);
                let pw = exploit.try_read(&passwords);
                let mb = exploit.try_read(&mail);
                (
                    pw.is_err(),
                    mb.is_err(),
                    exploit.loot_contains(b"wonderland"),
                )
            })
            .unwrap();
        let (pw_denied, mail_denied, leaked_password) = handle.join().unwrap();
        assert!(pw_denied, "password DB must be unreadable from the handler");
        assert!(
            mail_denied,
            "mail store must be unreadable from the handler"
        );
        assert!(!leaked_password);
    }

    #[test]
    fn exploited_handler_cannot_skip_authentication() {
        let server = Pop3Server::new(Wedge::init(), &MailDb::sample()).unwrap();
        let (policy, uid_cell) = server.connection_policy().unwrap();
        let retrieve_entry = server.retrieve_entry;
        let handle = server
            .wedge()
            .root()
            .sthread_create("exploited-handler", &policy, move |ctx| {
                let mut exploit = Exploit::seize(ctx);
                // Attempt 1: forge the uid directly — denied, no grant on the
                // uid tag.
                let forged = exploit.try_write(&uid_cell, &1001u32.to_le_bytes());
                // Attempt 2: just ask the retriever without logging in — it
                // refuses because uid is still 0.
                let reply = ctx
                    .cgate_expect::<RetrieveReply>(
                        retrieve_entry,
                        &SecurityPolicy::deny_all(),
                        Box::new(RetrieveRequest::Message(0)),
                    )
                    .unwrap();
                (forged.is_err(), reply)
            })
            .unwrap();
        let (forge_denied, reply) = handle.join().unwrap();
        assert!(forge_denied, "uid cell must not be writable by the handler");
        assert_eq!(reply, RetrieveReply::NotAuthenticated);
    }

    #[test]
    fn two_connections_are_isolated_from_each_other() {
        let server = Pop3Server::new(Wedge::init(), &MailDb::sample()).unwrap();
        let (client_a, link_a) = duplex_pair("a", "server-a");
        let (client_b, link_b) = duplex_pair("b", "server-b");
        let h_a = server.serve_connection(link_a).unwrap();
        let h_b = server.serve_connection(link_b).unwrap();
        client_a.recv(RecvTimeout::Forever).unwrap();
        client_b.recv(RecvTimeout::Forever).unwrap();

        // Alice logs in on connection A; connection B stays unauthenticated.
        assert!(send_cmd(&client_a, "USER alice").starts_with("+OK"));
        assert!(send_cmd(&client_a, "PASS wonderland").starts_with("+OK"));
        assert!(send_cmd(&client_b, "STAT").starts_with("-ERR not authenticated"));
        assert_eq!(send_cmd(&client_a, "STAT"), "+OK 2 messages");
        send_cmd(&client_a, "QUIT");
        send_cmd(&client_b, "QUIT");
        assert!(h_a.join().unwrap().unwrap().logged_in);
        assert!(!h_b.join().unwrap().unwrap().logged_in);
    }
}
