//! ROADMAP's "no source file cites a document that is not in the tree"
//! gate, as a test.
//!
//! Every `.rs` file under `src/`, `examples/`, `tests/` and
//! `crates/*/{src,benches,tests}` is scanned for tokens that name an
//! upper-case markdown document (`CHANGES.md`,
//! `crates/wedge-core/README.md`), backticked or not. Each must resolve
//! from the workspace root, or — a crate's docs saying "see `README.md`" —
//! from the package the citing file belongs to.

use std::path::Path;

/// Every token in `text` that ends in `<UPPER_CASE>.md`, with whatever
/// relative path leads up to it.
fn cited_docs(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + ".md".len();
        if text[end..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let start = text[..at]
            .rfind(|c| !is_path(c))
            .map_or(0, |before| before + 1);
        let stem = text[start..at].rsplit('/').next().unwrap_or("");
        if !stem.is_empty() && stem.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            found.push(&text[start..end]);
        }
    }
    found
}

/// Every `.rs` file under `dir`, recursively (a missing `dir` is empty:
/// not every crate has `benches/` or `tests/`).
fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_cited_document_is_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let package = entry.expect("directory entry").path();
        for dir in ["src", "benches", "tests"] {
            rust_sources(&package.join(dir), &mut sources);
        }
    }
    // This file's own scanner test spells out a document that is missing.
    sources.retain(|path| !path.ends_with(file!()));

    let mut missing = Vec::new();
    let mut cited = 0;
    for path in &sources {
        let package = path
            .ancestors()
            .find(|dir| dir.join("Cargo.toml").exists())
            .expect("every source is in a package");
        let text = std::fs::read_to_string(path).expect("source file");
        for doc in cited_docs(&text) {
            cited += 1;
            if !root.join(doc).exists() && !package.join(doc).exists() {
                missing.push(format!("{}: {doc}", path.display()));
            }
        }
    }
    println!("{cited} citations in {} files", sources.len());
    assert!(cited > 0, "the scan found the citations");
    assert!(
        missing.is_empty(),
        "cited but not in the tree: {missing:#?}"
    );
}

#[test]
fn the_scanner_sees_upper_case_markdown_names_and_only_those() {
    let text = "//! See `README.md`, crates/wedge-core/README.md and EXPERIMENTS.md.\n\
                //! Not these: `notes.md`, README.mdx, `Design.md`, a bare .md.";
    assert_eq!(
        cited_docs(text),
        ["README.md", "crates/wedge-core/README.md", "EXPERIMENTS.md"]
    );
}
