//! `wedge-e2e --smoke` runs every workload through the same code paths as
//! a real run and writes every metric `BENCHMARK.json` names, each with a
//! unit. `cargo test --workspace` runs this, so CI does.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

#[test]
fn smoke_run_reports_every_named_metric() {
    let out = std::env::temp_dir().join(format!("wedge-e2e-smoke-{}", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_wedge-e2e"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run wedge-e2e");
    assert!(status.success(), "smoke run is correct: {status}");

    let spec = Json::load(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCHMARK.json"
    )))
    .expect("BENCHMARK.json");
    let result = Json::load(&out.join("result.json")).expect("result.json");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    for workload in spec.get("workloads").expect("workloads").items() {
        let name = workload.get("name").and_then(Json::str).expect("name");
        let entry = result
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} missing"));
        for key in ["end_to_end", "per_layer"] {
            for def in spec.get(key).expect(key).items() {
                let metric = def.get("name").and_then(Json::str).expect("name");
                let reading = entry
                    .get(key)
                    .and_then(|readings| readings.get(metric))
                    .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                assert_eq!(reading.get("unit"), def.get("unit"), "{name}: {metric}");
            }
        }
    }
    for file in ["spans.jsonl", "layers.json"] {
        let len = std::fs::metadata(out.join(file)).expect(file).len();
        assert!(len > 0, "{file} is empty");
    }
    let _ = std::fs::remove_dir_all(&out);
}
