//! ROADMAP's aim 2 ("the same behaviour from the least code"), as three
//! tests: the product crates' non-test line counts may not grow past what
//! the last deletion PR left, no product crate may grow a new `*Stats`
//! struct beside the telemetry plane, and the public surface (`pub fn`)
//! holds only what something calls. A fourth holds `unsafe` code to the one
//! module that needs it.
//!
//! A file's non-test lines are the lines before its first column-0
//! `#[cfg(test)]`, over every `crates/*/src/**/*.rs`. Two things are not
//! product code and are skipped: `prop_cache.rs` (a test-only module
//! `kernel.rs` includes under `cfg(test)`) and `crates/wedge-e2e` (the
//! measuring apparatus). The test prints the per-crate table and holds the
//! seven [`CEILINGS`]; a PR that needs more room raises one on purpose, in
//! its own diff.
//!
//! A product `pub fn` is a non-test line matching `^\s*pub fn `. Its
//! callers are found by name (an approximation: two functions sharing a
//! name share their callers) over every `.rs` file under `crates/`,
//! `tests/`, `examples/` and `src/`, with `//` comments cut. Non-test code
//! anywhere — benches and `wedge-e2e` included — is a real caller;
//! `#[cfg(test)]` modules, integration tests and examples are tests.

use std::collections::{HashMap, HashSet};
use std::path::Path;

/// `(what, non-test lines allowed)`: one file, five crates, and the sum
/// over all product crates — each what the tree measured when last
/// lowered, rounded up to the next 50. The total is exact instead: it rose
/// from 21,900 by what `wedge-crypto`'s SHA-extension kernel added, net of
/// the lines the KDF's hoisted key schedule removed, then by what the TLS
/// record layer's message path (16 KiB records sealed and opened as they
/// stream) added, with `ssl_read` ending a connection a mid-message
/// rejection desynchronises and the attack model recovering multi-record
/// messages, then by what the counter-mode keystream kernel (blocks as
/// lanes in lockstep, counter inserted in registers, one dispatch with the
/// scalar rounds behind it) added net of the byte tail template, the pair
/// loop and the N-lane hash chain it replaced, then by what AES-256-CTR as
/// the record keystream (the scalar FIPS-197 key schedule and table-driven
/// block function as fallback and reference, the AES-NI key expansion and
/// four-block counter kernel, per-job detection before the one `unsafe`
/// call) added net of the SHA-256 counter keystream's kernel, lanes and
/// tail template it replaced, then by what sealing and opening a message
/// two records per pass added (`wedge-crypto`'s `etm` module, in-place
/// encrypt-then-MAC over one or two records, and the hash kernel's
/// two-chain lockstep; the record layer's pairing, net of its per-record
/// seal and verify bodies) with the satellites riding along: `wedge-sched`
/// splitting its change signal into health and capacity signals that
/// wake only counted waiters (its ceiling rose to 2,100 for it), and
/// `wedge-net` links taking a sent buffer by value and waking a receiver
/// only when one waits; and no further.
const CEILINGS: [(&str, usize); 7] = [
    ("wedge-core/src/kernel.rs", 2_250),
    ("wedge-core", 4_700),
    ("wedge-bench", 1_200),
    ("wedge-sched", 2_100),
    ("wedge-cachenet", 1_500),
    ("wedge-ssh", 1_850),
    ("total", 22_792),
];

/// The `pub struct …Stats` a product crate may declare. A layer's counts
/// live in its telemetry collector, one name each; these remain because
/// `wedge-e2e` names `KernelStats` and `ShardStats`, `wedge-alloc` sits
/// below telemetry in the crate graph (`AllocStats`), and `Pop3Stats` is
/// one connection's report, not a stats plane.
const STATS_ALLOWED: [&str; 4] = ["KernelStats", "ShardStats", "AllocStats", "Pop3Stats"];

const SKIPPED_CRATES: [&str; 1] = ["wedge-e2e"];
const SKIPPED_FILES: [&str; 1] = ["prop_cache.rs"];

/// The `pub struct …Stats` names `source` declares.
fn stats_structs(source: &str) -> Vec<&str> {
    source
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub struct "))
        .map(|rest| {
            rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
        })
        .filter(|name| name.ends_with("Stats"))
        .collect()
}

/// Every product crate's name, sorted.
fn product_crates(crates: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(crates)
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| !SKIPPED_CRATES.contains(&name.as_str()))
        .collect();
    names.sort();
    names
}

fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// `(path relative to crates/, source)` of every `.rs` file under `dir`,
/// recursively.
fn read_sources(dir: &Path, crates: &Path, out: &mut Vec<(String, String)>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            read_sources(&path, crates, out);
        } else if name.ends_with(".rs") && !SKIPPED_FILES.contains(&name) {
            let source = std::fs::read_to_string(&path).expect("source file");
            let relative = path.strip_prefix(crates).expect("under crates/");
            out.push((relative.display().to_string(), source));
        }
    }
}

/// `(crate, non-test lines matching ^\s*pub fn)`, plus their sum — each
/// what the tree counted when last lowered. Only ratchets down: a PR that
/// needs a new public function raises one on purpose, in its own diff.
/// `wedge-crypto` rose by two (`etm::seal`/`etm::open`, the record layer's
/// two-records-per-pass cipher and MAC) and `wedge-net` by one
/// (`Duplex::send_owned`, a send that moves the record buffer instead of
/// copying it).
const PUB_FN_CEILINGS: [(&str, usize); 15] = [
    ("crowbar", 48),
    ("wedge-alloc", 29),
    ("wedge-apache", 58),
    ("wedge-bench", 27),
    ("wedge-cachenet", 21),
    ("wedge-chaos", 15),
    ("wedge-core", 134),
    ("wedge-crypto", 27),
    ("wedge-net", 42),
    ("wedge-pop3", 20),
    ("wedge-sched", 33),
    ("wedge-ssh", 50),
    ("wedge-telemetry", 68),
    ("wedge-tls", 45),
    ("total", 617),
];

/// Why a [`PUB_FN_ALLOWED`] name stays public.
const ATTACK: &str = "attack API: the exploit and man-in-the-middle scenarios (paper §5) \
                      in tests/security_*.rs and examples/mitm_attack.rs";
const PAPER_API: &str = "the paper's compartment API (Table 1, §3)";
const PAPER_METRICS: &str = "the paper's partitioning metrics, printed by \
                             examples/partition_metrics.rs";
const SSH_LESSONS: &str = "the §5.2 OpenSSH lessons, checked by tests/security_ssh.rs";
const SSH_CLIENT: &str = "the SSH test client's verbs and credential setup, driven by \
                          tests/security_ssh.rs and examples/openssh_login.rs";
const CROWBAR: &str = "Crowbar's developer API (§4), driven by tests/crowbar_workflow.rs, \
                       tests/static_analysis_workflow.rs and the crowbar examples";
const INSPECT: &str = "state a security or robustness test outside the crate inspects";
const QUOTA: &str = "the resource-quota API tests/resource_limits.rs drives";
const TELEMETRY: &str = "telemetry API the snapshot tests, stress test and examples read";

/// `(name, reason)`: product `pub fn`s kept public although only tests or
/// examples call them (or nothing outside their own unit tests does).
const PUB_FN_ALLOWED: [(&str, &str); 57] = [
    ("try_read_global", ATTACK),
    ("try_write", ATTACK),
    ("try_cgate", ATTACK),
    ("scan", ATTACK),
    ("loot_contains", ATTACK),
    ("interpose", ATTACK),
    ("forward_all_pending", ATTACK),
    ("saw_bytes", ATTACK),
    ("decrypt_observed_client_records", ATTACK),
    ("plaintexts_contain", ATTACK),
    ("session_state_buf", ATTACK),
    ("finished_state_buf", ATTACK),
    ("smalloc_on", PAPER_API),
    ("trusted_fraction", PAPER_METRICS),
    ("change_fraction", PAPER_METRICS),
    ("paper_apache", PAPER_METRICS),
    ("paper_openssh", PAPER_METRICS),
    ("measured_apache", PAPER_METRICS),
    ("wedge_lookup_user", SSH_LESSONS),
    ("probing_leak_exists", SSH_LESSONS),
    ("demonstrate_scratch_leak", SSH_LESSONS),
    ("add_authorized_key", SSH_CLIENT),
    ("auth_pubkey", SSH_CLIENT),
    ("auth_skey", SSH_CLIENT),
    ("exec", SSH_CLIENT),
    ("to_security_policy", CROWBAR),
    ("users_of", CROWBAR),
    ("written_by", CROWBAR),
    ("suggest_policy", CROWBAR),
    ("suggest_policy_for_compartment", CROWBAR),
    ("violation_items", CROWBAR),
    ("uninstall", CROWBAR),
    ("render_suggestion", CROWBAR),
    ("writes", CROWBAR),
    ("reads_if", CROWBAR),
    ("writes_if", CROWBAR),
    ("from_trace", CROWBAR),
    ("unresolved_calls", CROWBAR),
    ("compare_with_trace", CROWBAR),
    ("is_superset", CROWBAR),
    ("excess_sensitive", CROWBAR),
    ("render", CROWBAR),
    ("clear_violations", INSPECT),
    ("parent_of", INSPECT),
    ("uid_of", INSPECT),
    ("is_access_denial", INSPECT),
    ("with_tags", QUOTA),
    ("with_sthreads", QUOTA),
    ("charge_ticks", QUOTA),
    ("retained_count", TELEMETRY),
    ("set_max", TELEMETRY),
    ("to_text", TELEMETRY),
    ("placed_on", INSPECT),
    ("route_of", INSPECT),
    ("live_allocations", INSPECT),
    ("live_ranges", INSPECT),
    ("check_consistency", INSPECT),
];

/// Where an identifier occurs, for [`pub_fn_callers`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    /// Non-test code of a crate (product, bench or `wedge-e2e`).
    Code,
    /// A `#[cfg(test)]` module, an integration test or an example.
    TestOrExample,
}

/// One scanned source file: its path relative to the repository root and
/// its text.
struct SourceFile {
    path: String,
    text: String,
}

impl SourceFile {
    /// Every line with its `//` comment cut and whether it is test or
    /// example code: the whole file under `tests/` or `examples/`, else
    /// from its first column-0 `#[cfg(test)]` on.
    fn code_lines(&self) -> impl Iterator<Item = (&str, Site)> {
        let whole_file_is_test = self.path.starts_with("tests/")
            || self.path.starts_with("examples/")
            || self.path.contains("/tests/")
            || self.path.contains("/examples/")
            || self.path.ends_with("prop_cache.rs");
        let mut in_test = whole_file_is_test;
        self.text.lines().map(move |line| {
            in_test |= line.starts_with("#[cfg(test)]");
            let code = line.split("//").next().unwrap_or("");
            let site = if in_test {
                Site::TestOrExample
            } else {
                Site::Code
            };
            (code, site)
        })
    }
}

/// The identifiers in one line of code.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The name a line declares with `pub fn`, if it does.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub fn ")?;
    identifiers(rest).next()
}

/// Every `.rs` file under `dir`, recursively, as a [`SourceFile`] with a
/// path relative to `root`.
fn read_tree(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            read_tree(&path, root, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(SourceFile {
                text: std::fs::read_to_string(&path).expect("source file"),
                path: path
                    .strip_prefix(root)
                    .expect("under root")
                    .display()
                    .to_string(),
            });
        }
    }
}

/// For each identifier, where it occurs outside a line that declares a
/// function of that name: `(file index, site)`.
fn pub_fn_callers(files: &[SourceFile]) -> HashMap<&str, Vec<(usize, Site)>> {
    let mut uses: HashMap<&str, Vec<(usize, Site)>> = HashMap::new();
    for (index, file) in files.iter().enumerate() {
        for (code, site) in file.code_lines() {
            let words: Vec<&str> = identifiers(code).collect();
            let declared: HashSet<&str> = words
                .windows(2)
                .filter(|pair| pair[0] == "fn")
                .map(|pair| pair[1])
                .collect();
            for word in words {
                if !declared.contains(word) {
                    uses.entry(word).or_default().push((index, site));
                }
            }
        }
    }
    uses
}

#[test]
fn the_public_surface_is_what_something_calls() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benches"] {
        read_tree(&root.join(dir), root, &mut files);
    }
    let product_crate = |path: &str| -> Option<String> {
        let name = path.strip_prefix("crates/")?.split('/').next()?;
        let src = format!("crates/{name}/src/");
        (path.starts_with(&src)
            && !SKIPPED_CRATES.contains(&name)
            && !SKIPPED_FILES.iter().any(|skipped| path.ends_with(skipped)))
        .then(|| name.to_string())
    };
    let uses = pub_fn_callers(&files);
    let allowed: HashSet<&str> = PUB_FN_ALLOWED.iter().map(|(name, _)| *name).collect();
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut unreferenced = Vec::new();
    let mut test_only = Vec::new();
    for (index, file) in files.iter().enumerate() {
        let Some(name) = product_crate(&file.path) else {
            continue;
        };
        for (code, site) in file.code_lines() {
            let Some(function) = pub_fn_name(code).filter(|_| site == Site::Code) else {
                continue;
            };
            *counts.entry(name.clone()).or_default() += 1;
            if allowed.contains(function) {
                continue;
            }
            let callers: Vec<Site> = uses
                .get(function)
                .into_iter()
                .flatten()
                .filter(|(at, at_site)| !(*at == index && *at_site == Site::TestOrExample))
                .map(|(_, at_site)| *at_site)
                .collect();
            let at = format!("{}::{function}", file.path);
            if callers.is_empty() {
                unreferenced.push(at);
            } else if !callers.contains(&Site::Code) {
                test_only.push(at);
            }
        }
    }
    let total: usize = counts.values().sum();
    counts.insert("total".to_string(), total);
    let mut over = Vec::new();
    for (what, ceiling) in PUB_FN_CEILINGS {
        let count = counts.get(what).copied().unwrap_or(0);
        println!("pub fn {what:<16} {count:>4}");
        if count > ceiling {
            over.push(format!("{what}: {count} `pub fn`s, ceiling {ceiling}"));
        }
    }
    assert!(
        unreferenced.is_empty(),
        "called only by their own unit tests, or by nothing: {unreferenced:#?}"
    );
    assert!(
        test_only.is_empty(),
        "called only by tests or examples (make them pub(crate), delete them, or \
         allow-list them with a reason): {test_only:#?}"
    );
    assert!(over.is_empty(), "{over:#?}");
    for (name, _) in PUB_FN_ALLOWED {
        assert!(
            files.iter().any(|file| file
                .code_lines()
                .any(|(code, _)| pub_fn_name(code) == Some(name))),
            "allow-listed `{name}` is no longer a pub fn"
        );
    }
}

#[test]
fn the_surface_scanner_separates_calls_from_declarations() {
    let files = [
        SourceFile {
            path: "crates/a/src/lib.rs".to_string(),
            text: "pub fn used() {}\npub fn lonely() { used() } // lonely()\n\
                   #[cfg(test)]\nmod tests { fn t() { lonely(); } }\n"
                .to_string(),
        },
        SourceFile {
            path: "tests/t.rs".to_string(),
            text: "fn used() {}\nfn t() { used(); }\n".to_string(),
        },
    ];
    let uses = pub_fn_callers(&files);
    assert_eq!(uses["used"], [(0, Site::Code), (1, Site::TestOrExample)]);
    assert_eq!(uses["lonely"], [(0, Site::TestOrExample)]);
    assert_eq!(pub_fn_name("    pub fn used<T>(x: T) {"), Some("used"));
    assert_eq!(pub_fn_name("pub(crate) fn hidden() {"), None);
}

#[test]
fn product_crates_stay_within_their_line_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut measured: Vec<(String, usize)> = Vec::new();
    let mut total = 0;
    for name in product_crates(&crates) {
        let mut sources = Vec::new();
        read_sources(&crates.join(&name).join("src"), &crates, &mut sources);
        let files: Vec<(String, usize)> = sources
            .iter()
            .map(|(path, source)| (path.clone(), non_test_lines(source)))
            .collect();
        let lines: usize = files.iter().map(|(_, lines)| lines).sum();
        println!("{name:<16} {lines:>6}");
        total += lines;
        measured.push((name.clone(), lines));
        measured.extend(files);
    }
    println!("{:<16} {total:>6}", "total");
    measured.push(("total".to_string(), total));

    for (what, ceiling) in CEILINGS {
        let (_, lines) = measured
            .iter()
            .find(|(name, _)| name == what)
            .unwrap_or_else(|| panic!("{what} was not measured"));
        assert!(
            lines <= &ceiling,
            "{what}: {lines} non-test lines, budget {ceiling}"
        );
    }
}

/// The product code `unsafe` is allowed in, and why: each crate root
/// forbids `unsafe_code` except `wedge-crypto`'s, which denies it and
/// allows it back on this one module.
const UNSAFE_ALLOWED: [(&str, &str); 1] = [(
    "wedge-crypto/src/lib.rs",
    "mod x86;", // the SHA-extension and AES-NI kernels, one call after detection
)];

/// `(file, item)` for each attribute in `sources` that allows (or expects)
/// `unsafe_code`, whole files, tests included: the item is the first line
/// after it that is not an attribute.
fn unsafe_allows(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    let mut allows = Vec::new();
    for (path, source) in sources {
        let mut lines = source.lines().map(str::trim_start);
        while let Some(line) = lines.next() {
            let lifts = line.contains("allow(") || line.contains("expect(");
            if line.starts_with('#') && lifts && line.contains("unsafe_code") {
                let item = lines.find(|line| !line.starts_with('#')).unwrap_or("");
                allows.push((path.as_str(), item));
            }
        }
    }
    allows
}

#[test]
fn unsafe_code_is_allowed_only_in_wedge_cryptos_x86_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = root.join("crates");
    let mut sources = Vec::new();
    let mut roots = vec![("wedge".to_string(), root.join("src/lib.rs"))];
    for name in product_crates(&crates) {
        read_sources(&crates.join(&name).join("src"), &crates, &mut sources);
        roots.push((name.clone(), crates.join(&name).join("src/lib.rs")));
    }
    for (name, lib) in roots {
        let source = std::fs::read_to_string(&lib).expect("crate root");
        let level = if name == "wedge-crypto" {
            "deny"
        } else {
            "forbid"
        };
        let attribute = format!("#![{level}(unsafe_code)]");
        assert!(
            source.lines().any(|line| line.trim() == attribute),
            "{}: the crate root must keep `{attribute}`",
            lib.display()
        );
    }
    assert_eq!(
        unsafe_allows(&sources),
        UNSAFE_ALLOWED,
        "`allow(unsafe_code)` outside its one allowed module"
    );
}

#[test]
fn the_unsafe_scanner_sees_allow_attributes_and_only_those() {
    let sources = [(
        "a.rs".to_string(),
        "// allow(unsafe_code) in a comment\n#[cfg(unix)]\n    #[allow(unsafe_code)]\n\
         #[inline]\nmod kernel;\n#[allow(dead_code, unsafe_code)]\nfn f() {}\n"
            .to_string(),
    )];
    assert_eq!(
        unsafe_allows(&sources),
        [("a.rs", "mod kernel;"), ("a.rs", "fn f() {}")]
    );
}

#[test]
fn no_product_crate_declares_a_stats_struct_outside_the_allow_list() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    for name in product_crates(&crates) {
        read_sources(&crates.join(name).join("src"), &crates, &mut sources);
    }
    let extra: Vec<(&str, &String)> = sources
        .iter()
        .flat_map(|(path, source)| {
            stats_structs(source)
                .into_iter()
                .map(move |name| (name, path))
        })
        .filter(|(name, _)| !STATS_ALLOWED.contains(name))
        .collect();
    assert!(
        extra.is_empty(),
        "name these counts in the layer's telemetry collector instead: {extra:?}"
    );
}

#[test]
fn the_stats_scanner_sees_pub_stats_structs_and_only_those() {
    let source = "pub struct FooStats {\n    pub struct BarStats;\nstruct Private Stats\n\
                  pub(crate) struct CrateStats;\npub struct Statsd;\npub struct KernelStats<T>;\n";
    assert_eq!(
        stats_structs(source),
        ["FooStats", "BarStats", "KernelStats"]
    );
}

#[test]
fn the_cut_is_the_first_column_zero_cfg_test() {
    let source = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(non_test_lines(source), 3);
    assert_eq!(non_test_lines("fn a() {}\n"), 1);
}
