//! ROADMAP's aim 2 ("the same behaviour from the least code"), as two
//! tests: the product crates' non-test line counts may not grow past what
//! the last deletion PR left, and no product crate may grow a new `*Stats`
//! struct beside the telemetry plane.
//!
//! A file's non-test lines are the lines before its first column-0
//! `#[cfg(test)]`, over every `crates/*/src/**/*.rs`. Two things are not
//! product code and are skipped: `prop_cache.rs` (a test-only module
//! `kernel.rs` includes under `cfg(test)`) and `crates/wedge-e2e` (the
//! measuring apparatus). The test prints the per-crate table and holds the
//! seven [`CEILINGS`]; a PR that needs more room raises one on purpose, in
//! its own diff.

use std::path::Path;

/// `(what, non-test lines allowed)`: one file, five crates, and the sum
/// over all product crates — each what the tree measured when last
/// lowered, rounded up to the next 50.
const CEILINGS: [(&str, usize); 7] = [
    ("wedge-core/src/kernel.rs", 2_450),
    ("wedge-core", 5_200),
    ("wedge-bench", 1_250),
    ("wedge-sched", 2_100),
    ("wedge-cachenet", 1_500),
    ("wedge-ssh", 1_900),
    ("total", 22_950),
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
