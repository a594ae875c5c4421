//! Layer probes: tight loops over each layer's public functions.
//!
//! A probe answers "what does this layer cost alone", so that a change in
//! an end-to-end number can be set beside the layer that should explain
//! it. Latencies are the median of individually timed calls; throughputs
//! are bytes over the median call time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wedge_apache::{ApacheConfig, PageStore, VanillaApache, WedgeApache};
use wedge_core::callgate::typed_entry;
use wedge_core::{KernelStats, MemProt, SecurityPolicy, Wedge, WedgeError};
use wedge_crypto::{hmac_sha256, sha256, RsaKeyPair, StreamCipher, WedgeRng};
use wedge_net::{duplex_pair, Duplex, Reactor, RecvTimeout};
use wedge_pop3::{MailDb, ShardedPop3, ShardedPop3Config};
use wedge_sched::{FrontEndConfig, ShardServer, ShardedFrontEnd};
use wedge_ssh::authdb::ServerConfig;
use wedge_ssh::{AuthDb, SshClient, VanillaSsh, WedgeSsh};
use wedge_tls::{RecordLayer, TlsClient};

const WAIT: RecvTimeout = RecvTimeout::After(Duration::from_secs(5));

/// Median of `iters` individually timed calls of `op`, ns.
fn p50_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let started = Instant::now();
            op();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// [`p50_ns`] for operations too short to time singly: each sample times
/// `batch` calls.
fn p50_batched_ns(iters: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    p50_ns(iters, || (0..batch).for_each(|_| op())) / batch as f64
}

fn mb_per_s(bytes: usize, nanos: f64) -> f64 {
    bytes as f64 / 1e6 / (nanos / 1e9)
}

/// The fixed single-thread work timed before every slice: SHA-256 over
/// 1 MiB, ms, best of three. Its spread across a run's slices is `gen.calib_spread`.
pub fn calibrate_ms() -> f64 {
    static BUFFER: [u8; 1 << 20] = [0x5A; 1 << 20];
    // Best of three: the first pass after the clients pause runs on a
    // core whose caches and clock they left cold.
    (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(sha256(std::hint::black_box(&BUFFER)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::MAX, f64::min)
}

/// How many iterations each probe makes: `1` for a real run, larger
/// divisors for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Effort(pub usize);

impl Effort {
    fn of(self, iters: usize) -> usize {
        (iters / self.0).max(3)
    }
}

/// Run every probe; the result is `(metric name, value)` in report order.
pub fn run_all(effort: Effort) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    core(effort, &mut out).map_err(|err| format!("wedge-core probe: {err}"))?;
    crypto(effort, &mut out);
    net(effort, &mut out);
    sched(effort, &mut out).map_err(|err| format!("wedge-sched probe: {err}"))?;
    apps(effort, &mut out)?;
    Ok(out)
}

type Out = Vec<(&'static str, f64)>;

/// Figure 7's primitives (deny-all policy), tagged-memory access, policy
/// mutation, and the allocator underneath them.
fn core(effort: Effort, out: &mut Out) -> Result<(), WedgeError> {
    let wedge = Wedge::init();
    let root = wedge.root();
    let deny = SecurityPolicy::deny_all();

    let sthread = p50_ns(effort.of(2_000), || {
        let handle = root
            .sthread_create("probe-sthread", &deny, |_ctx| 1u32)
            .expect("sthread");
        std::hint::black_box(handle.join().expect("join"));
    });
    out.push(("wedge-core.sthread_create_us", sthread / 1e3));

    // Callgates are invoked from a persistent caller sthread, so only the
    // invocation is timed.
    let entry = wedge
        .kernel()
        .cgate_register("probe_noop", typed_entry(|_ctx, _t, n: u64| Ok(n + 1)));
    let mut caller_policy = SecurityPolicy::deny_all();
    caller_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
    for (name, recycled) in [
        ("wedge-core.callgate_us", false),
        ("wedge-core.recycled_callgate_us", true),
    ] {
        let (cmd_tx, cmd_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<u64>();
        let caller = root.sthread_create("probe-caller", &caller_policy, move |ctx| {
            let deny = SecurityPolicy::deny_all();
            while cmd_rx.recv().is_ok() {
                let result = if recycled {
                    ctx.cgate_recycled_expect::<u64>(entry, &deny, Box::new(1u64))
                } else {
                    ctx.cgate_expect::<u64>(entry, &deny, Box::new(1u64))
                };
                if done_tx.send(result.unwrap_or(0)).is_err() {
                    break;
                }
            }
        })?;
        let nanos = p50_ns(effort.of(2_000), || {
            cmd_tx.send(()).expect("caller alive");
            assert_eq!(done_rx.recv().expect("caller alive"), 2);
        });
        drop(cmd_tx);
        caller.join()?;
        out.push((name, nanos / 1e3));
    }

    let tag = root.tag_new()?;
    let small = root.smalloc_init(tag, &[7u8; 32])?;
    let mut word = [0u8; 32];
    root.read_into(&small, 0, &mut word)?;
    let read = p50_batched_ns(effort.of(2_000), 256, || {
        root.read_into(&small, 0, &mut word).expect("granted read");
    });
    out.push(("wedge-core.mem_read_ns", read));

    // The largest round size a default 64 KiB segment can hold beside its
    // allocator header.
    const CHUNK: usize = 32 * 1024;
    let big_tag = root.tag_new()?;
    let big = root.smalloc(CHUNK, big_tag)?;
    let mut chunk = vec![0u8; CHUNK];
    let copy = p50_ns(effort.of(2_000), || {
        root.read_into(&big, 0, &mut chunk).expect("granted read");
        root.write(&big, 0, &chunk).expect("granted write");
    });
    out.push(("wedge-core.mem_copy_mb_s", mb_per_s(2 * CHUNK, copy)));

    // One grant and one revoke: one op-log append each.
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let target = root.sthread_create("probe-target", &deny, move |_ctx| {
        let _ = hold_rx.recv();
    })?;
    let grant = p50_ns(effort.of(2_000), || {
        root.grant_mem(target.id(), tag, MemProt::Read)
            .expect("grant");
        root.revoke_mem(target.id(), tag).expect("revoke");
    });
    drop(hold_tx);
    target.join()?;
    out.push(("wedge-core.grant_revoke_us", grant / 1e3));

    let pair = p50_batched_ns(effort.of(2_000), 64, || {
        let buf = root.smalloc(64, tag).expect("smalloc");
        root.sfree(&buf).expect("sfree");
    });
    out.push(("wedge-alloc.smalloc_free_ns", pair));
    // The first deletions fill the tag cache; after that `tag_new` reuses.
    for _ in 0..8 {
        let warm = root.tag_new()?;
        root.tag_delete(warm)?;
    }
    let tag_new = p50_ns(effort.of(2_000), || {
        let fresh = root.tag_new().expect("tag_new");
        root.tag_delete(fresh).expect("tag_delete");
    });
    out.push(("wedge-alloc.tag_new_us", tag_new / 1e3));
    Ok(())
}

/// The bulk primitives under the record layer, and the record layer.
fn crypto(effort: Effort, out: &mut Out) {
    const CHUNK: usize = 64 * 1024;
    const RECORD: usize = 16 * 1024;
    let mut data = vec![0xA5u8; CHUNK];
    let mut cipher = StreamCipher::new(b"probe stream key");
    let stream = p50_ns(effort.of(12), || {
        cipher.apply(std::hint::black_box(&mut data))
    });
    out.push(("wedge-crypto.stream_mb_s", mb_per_s(CHUNK, stream)));
    let hmac = p50_ns(effort.of(200), || {
        std::hint::black_box(hmac_sha256(b"probe mac key", std::hint::black_box(&data)));
    });
    out.push(("wedge-crypto.hmac_mb_s", mb_per_s(CHUNK, hmac)));
    let hash = p50_ns(effort.of(200), || {
        std::hint::black_box(sha256(std::hint::black_box(&data)));
    });
    out.push(("wedge-crypto.sha256_mb_s", mb_per_s(CHUNK, hash)));

    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0xE2E2));
    let ciphertext = keypair.public.encrypt(&[0x42u8; 48]);
    let rsa = p50_ns(effort.of(2_000), || {
        std::hint::black_box(keypair.private.decrypt(&ciphertext).expect("decrypt"));
    });
    out.push(("wedge-crypto.rsa_decrypt_us", rsa / 1e3));

    let mut sealer = RecordLayer::new(b"probe write key", b"probe mac key");
    let mut opener = RecordLayer::new(b"probe write key", b"probe mac key");
    let plaintext = vec![0x3Cu8; RECORD];
    let iters = effort.of(24);
    let mut records = Vec::with_capacity(iters);
    let seal = p50_ns(iters, || records.push(sealer.seal(&plaintext)));
    let mut sealed = records.iter();
    let open = p50_ns(iters, || {
        let record = sealed.next().expect("one record per iteration");
        std::hint::black_box(opener.open(record).expect("open"));
    });
    out.push(("wedge-tls.seal_mb_s", mb_per_s(RECORD, seal)));
    out.push(("wedge-tls.open_mb_s", mb_per_s(RECORD, open)));
}

/// The in-memory link across two threads, and the reactor's park → wake.
fn net(effort: Effort, out: &mut Out) {
    let (near, far) = duplex_pair("probe-near", "probe-far");
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = far.recv(RecvTimeout::Forever) {
            if far.send(&msg[..msg.len().min(64)]).is_err() {
                break;
            }
        }
    });
    let ping = [0u8; 64];
    let rtt = p50_ns(effort.of(4_000), || {
        near.send(&ping).expect("echo alive");
        near.recv(WAIT).expect("echo alive");
    });
    out.push(("wedge-net.duplex_rtt_us", rtt / 1e3));
    // One way, 64 KiB: the send copies the message into the link and the
    // echo thread's receive takes it out; its 64-byte reply closes the
    // timing.
    let chunk = vec![0u8; 64 * 1024];
    let one_way = p50_ns(effort.of(2_000), || {
        near.send(&chunk).expect("echo alive");
        near.recv(WAIT).expect("echo alive");
    });
    out.push((
        "wedge-net.duplex_mb_s",
        mb_per_s(chunk.len(), (one_way - rtt).max(1.0)),
    ));
    drop(near);
    echo.join().expect("echo thread");

    let reactor = Reactor::spawn("probe");
    let (woke_tx, woke_rx) = mpsc::channel::<Duplex>();
    let wake = p50_ns(effort.of(1_000), || {
        let (client, server) = duplex_pair("probe-client", "probe-parked");
        let tx = woke_tx.clone();
        reactor.watch(server, move |link| {
            let _ = tx.send(link);
        });
        client.send(b"x").expect("parked link");
        drop(woke_rx.recv().expect("reactor hands the link back"));
    });
    reactor.shutdown();
    out.push(("wedge-net.park_wake_us", wake / 1e3));
}

struct Noop;

impl ShardServer for Noop {
    type Report = ();

    fn serve_link(&self, _shard: usize, _link: Duplex) -> Result<(), WedgeError> {
        Ok(())
    }

    fn kernel_stats(&self) -> KernelStats {
        KernelStats::default()
    }
}

/// Placement, queue, worker wake-up and join with nothing to serve.
fn sched(effort: Effort, out: &mut Out) -> Result<(), WedgeError> {
    let front = ShardedFrontEnd::new(
        FrontEndConfig {
            shards: 2,
            ..FrontEndConfig::default()
        },
        |_shard| Ok(Noop),
    )?;
    let nanos = p50_ns(effort.of(2_000), || {
        let (_client, server) = duplex_pair("probe-client", "probe-server");
        front
            .serve(server)
            .and_then(|handle| handle.join())
            .expect("no-op serve");
    });
    out.push(("wedge-sched.submit_join_us", nanos / 1e3));
    Ok(())
}

/// One resumed HTTPS request over a bare link, served by `serve`.
fn https_once(client: &mut TlsClient, serve: impl FnOnce(Duplex) + Send) {
    let (client_link, server_link) = duplex_pair("probe-client", "probe-server");
    std::thread::scope(|scope| {
        scope.spawn(move || serve(server_link));
        let mut conn = client.connect(&client_link).expect("handshake");
        conn.send(&client_link, b"GET /index.html HTTP/1.0\r\n\r\n")
            .expect("request");
        let response = conn.recv(&client_link).expect("response");
        assert!(response.starts_with(b"HTTP/1.0 200"));
        drop(client_link);
    });
}

/// One SSH password login over a bare link, served by `serve`.
fn ssh_once(serve: impl FnOnce(Duplex) + Send) {
    let (client_link, server_link) = duplex_pair("probe-client", "probe-server");
    std::thread::scope(|scope| {
        scope.spawn(move || serve(server_link));
        let mut client = SshClient::new();
        client.connect(&client_link).expect("hello");
        let (accepted, _, _) = client
            .auth_password(&client_link, super::SSH_USER.0, super::SSH_USER.1)
            .expect("auth");
        assert!(accepted);
        let _ = client.disconnect(&client_link);
    });
}

/// Table 2's shape — what partitioning costs one request — and the POP3
/// soak that finds the per-connection leak.
fn apps(effort: Effort, out: &mut Out) -> Result<(), String> {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(0xE2E3));
    let boot = |err: WedgeError| format!("app probe boot: {err}");
    let wedge_apache = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .map_err(boot)?;
    let vanilla_apache =
        VanillaApache::new(Wedge::init(), keypair, PageStore::sample()).map_err(boot)?;
    // Sessions cached: after the first connection every one resumes.
    let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(1));
    let wedge_ns = p50_ns(effort.of(400), || {
        https_once(&mut client, |link| {
            drop(wedge_apache.serve_connection(link))
        });
    });
    let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(2));
    let vanilla_ns = p50_ns(effort.of(400), || {
        https_once(&mut client, |link| {
            drop(vanilla_apache.serve_connection(&link))
        });
    });
    out.push(("wedge-apache.partition_overhead_x", wedge_ns / vanilla_ns));

    let (auth, config) = (AuthDb::sample(), ServerConfig::default());
    let wedge_ssh = WedgeSsh::new(Wedge::init(), keypair, &auth, &config).map_err(boot)?;
    let vanilla_ssh =
        VanillaSsh::new(Wedge::init(), keypair, auth.clone(), config.clone()).map_err(boot)?;
    let wedge_ns = p50_ns(effort.of(400), || {
        ssh_once(|link| {
            if let Ok(handle) = wedge_ssh.serve_connection(link) {
                drop(handle.join());
            }
        });
    });
    let vanilla_ns = p50_ns(effort.of(400), || {
        ssh_once(|link| {
            vanilla_ssh.serve_connection(&link);
        });
    });
    out.push(("wedge-ssh.login_overhead_x", wedge_ns / vanilla_ns));

    // 2,300 sessions at one shard: more than the 2,048 a shard survives
    // while `connection_policy` leaks a 32-byte uid cell per connection
    // into a 64 KiB segment.
    let pop3 = Arc::new(
        ShardedPop3::new(
            &MailDb::sample(),
            ShardedPop3Config {
                shards: 1,
                ..ShardedPop3Config::default()
            },
        )
        .map_err(boot)?,
    );
    let sessions = effort.of(2_300);
    let mut failed = 0usize;
    for _ in 0..sessions {
        let (client, server) = duplex_pair("probe-client", "probe-server");
        let Ok(handle) = pop3.serve(server) else {
            failed += 1;
            continue;
        };
        let ok = client
            .recv(WAIT)
            .is_ok_and(|greeting| greeting.starts_with(b"+OK"))
            && [
                format!("USER {}", super::POP3_USER.0),
                format!("PASS {}", super::POP3_USER.1),
                "QUIT".to_string(),
            ]
            .iter()
            .all(|command| {
                client.send(command.as_bytes()).is_ok()
                    && client
                        .recv(WAIT)
                        .is_ok_and(|reply| reply.starts_with(b"+OK"))
            });
        drop(client);
        if !ok || handle.join().is_err() {
            failed += 1;
        }
    }
    out.push((
        "wedge-pop3.soak_fail_share",
        failed as f64 / sessions as f64,
    ));
    Ok(())
}
