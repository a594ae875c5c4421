//! Shared `BENCH_*.json` artifact emission.
//!
//! The bench targets that write a machine-readable artifact
//! (`fast_path.rs`, `cachenet.rs`) go through
//! [`wedge_telemetry::JsonWriter`] — the same writer behind
//! [`wedge_telemetry::TelemetrySnapshot::to_json`] — so string fields are
//! escaped correctly and the artifacts share one shape: a single JSON
//! object opening with `"bench": <name>`.

use std::time::Duration;

use wedge_telemetry::JsonWriter;

/// Build one `BENCH_*.json` artifact body: a JSON object whose first
/// field is `"bench": name`, filled by `fill`, newline-terminated.
pub fn bench_artifact(name: &str, fill: impl FnOnce(&mut JsonWriter)) -> String {
    let mut writer = JsonWriter::object();
    writer.field_str("bench", name);
    fill(&mut writer);
    let mut json = writer.finish();
    json.push('\n');
    json
}

/// Where bench `name`'s artifact goes: `WEDGE_BENCH_JSON` when set, else
/// `BENCH_<name>.json` at the workspace root (Cargo runs bench binaries
/// with the *package* directory as CWD, so the default is anchored to the
/// manifest, where `tests/snapshot_validity.rs` looks for it).
pub fn artifact_path(name: &str) -> String {
    artifact_path_with(name, std::env::var("WEDGE_BENCH_JSON").ok())
}

fn artifact_path_with(name: &str, override_path: Option<String>) -> String {
    override_path
        .unwrap_or_else(|| format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR")))
}

/// `d` in milliseconds (the unit the `*_ms` artifact fields use).
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `d` in microseconds (the unit the `*_us` artifact fields use).
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_opens_with_the_bench_name_and_escapes_strings() {
        let json = bench_artifact("demo", |w| {
            w.field_str("note", "quote \" and \\ backslash");
            w.field_u64("n", 3);
        });
        assert!(json.starts_with(r#"{"bench":"demo""#));
        assert!(json.ends_with("}\n"));
        assert!(json.contains(r#""note":"quote \" and \\ backslash""#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn artifact_path_honours_the_env_override() {
        // Setting the env var itself is unsafe under the parallel test
        // harness, so both arms are checked on the pure half.
        let default = artifact_path_with("cachenet", None);
        let default = std::path::Path::new(&default);
        assert_eq!(default.file_name().unwrap(), "BENCH_cachenet.json");
        let workspace = default.parent().unwrap();
        assert!(workspace.join("crates/wedge-bench/Cargo.toml").exists());
        assert_eq!(
            artifact_path_with("cachenet", Some("/tmp/elsewhere.json".into())),
            "/tmp/elsewhere.json"
        );
    }
}
