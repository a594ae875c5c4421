//! ROADMAP's aim 2 ("the same behaviour from the least code"), as a test:
//! the product crates' non-test line counts may not grow past what the
//! last deletion PR left.
//!
//! A file's non-test lines are the lines before its first column-0
//! `#[cfg(test)]`, over every `crates/*/src/**/*.rs`. Two things are not
//! product code and are skipped: `prop_cache.rs` (a test-only module
//! `kernel.rs` includes under `cfg(test)`) and `crates/wedge-e2e` (the
//! measuring apparatus). The test prints the per-crate table and holds the
//! five [`CEILINGS`]; a PR that needs more room raises one on purpose, in
//! its own diff.

use std::path::Path;

/// `(what, non-test lines allowed)`: one file, three crates, and the sum
/// over all product crates — each what the tree measured when last
/// lowered, rounded up to the next 50.
const CEILINGS: [(&str, usize); 5] = [
    ("wedge-core/src/kernel.rs", 2_450),
    ("wedge-core", 5_300),
    ("wedge-bench", 1_450),
    ("wedge-sched", 2_400),
    ("total", 24_600),
];

const SKIPPED_CRATES: [&str; 1] = ["wedge-e2e"];
const SKIPPED_FILES: [&str; 1] = ["prop_cache.rs"];

fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// `(path relative to crates/, non-test lines)` of every `.rs` file under
/// `dir`, recursively.
fn count_sources(dir: &Path, crates: &Path, out: &mut Vec<(String, usize)>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            count_sources(&path, crates, out);
        } else if name.ends_with(".rs") && !SKIPPED_FILES.contains(&name) {
            let source = std::fs::read_to_string(&path).expect("source file");
            let relative = path.strip_prefix(crates).expect("under crates/");
            out.push((relative.display().to_string(), non_test_lines(&source)));
        }
    }
}

#[test]
fn product_crates_stay_within_their_line_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| !SKIPPED_CRATES.contains(&name.as_str()))
        .collect();
    names.sort();

    let mut measured: Vec<(String, usize)> = Vec::new();
    let mut total = 0;
    for name in &names {
        let mut files = Vec::new();
        count_sources(&crates.join(name).join("src"), &crates, &mut files);
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
fn the_cut_is_the_first_column_zero_cfg_test() {
    let source = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
    assert_eq!(non_test_lines(source), 3);
    assert_eq!(non_test_lines("fn a() {}\n"), 1);
}
