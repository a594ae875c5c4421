//! `wedge-e2e compare a/result.json b/result.json`: the metric × workload
//! table, then the per-layer deltas.
//!
//! A cell is `better` or `worse` when b's value left a's by more than the
//! metric's bound, `within-bound` when it did not, and `unresolved` when
//! either run's own slices spread wider than the bound — then the run
//! cannot tell a change of that size from its own noise.

use std::path::Path;

use crate::json::Json;
use crate::stats::spread;

fn reading<'a>(result: &'a Json, workload: &str, kind: &str, metric: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .get(workload)?
        .get(kind)?
        .get(metric)
}

fn value(reading: Option<&Json>) -> Option<f64> {
    reading?.get("value")?.num()
}

/// `(max − min) / median` of a reading's per-slice values, when it has any.
fn slice_spread(reading: Option<&Json>) -> Option<f64> {
    let slices: Vec<f64> = reading?
        .get("slices")?
        .items()
        .iter()
        .filter_map(Json::num)
        .collect();
    (slices.len() > 1).then(|| spread(&slices)).flatten()
}

/// How much worse b is than a, as a share of a (negative: better).
fn worsening(a: f64, b: f64, better: &str) -> Option<f64> {
    (a != 0.0).then(|| match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    })
}

fn verdict(a: Option<&Json>, b: Option<&Json>, better: &str, bound: f64) -> &'static str {
    let (Some(va), Some(vb)) = (value(a), value(b)) else {
        return "n/a";
    };
    if [a, b]
        .iter()
        .any(|r| slice_spread(*r).is_some_and(|s| s > bound))
    {
        return "unresolved";
    }
    match worsening(va, vb, better) {
        None => "n/a",
        Some(w) if w > bound => "worse",
        Some(w) if w < -bound => "better",
        Some(_) => "within-bound",
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a, b) = (Json::load(a_path)?, Json::load(b_path)?);
    let workloads: Vec<&str> = a
        .get("workloads")
        .map(|w| w.fields().iter().map(|(name, _)| name.as_str()).collect())
        .unwrap_or_default();
    if workloads.is_empty() {
        return Err(format!("{}: no workloads", a_path.display()));
    }
    let field = |def: &Json, key: &str| def.get(key).and_then(Json::str).unwrap_or("").to_string();

    println!("a = {}\nb = {}\n", a_path.display(), b_path.display());
    println!("end to end (b against a)");
    print!("{:<18}", "metric");
    for workload in &workloads {
        print!(" {workload:>30}");
    }
    println!();
    for def in a.get("end_to_end").map(Json::items).unwrap_or_default() {
        let (name, better) = (field(def, "name"), field(def, "better"));
        let bound = def.get("bound").and_then(Json::num).unwrap_or(0.0);
        print!("{name:<18}");
        for workload in &workloads {
            let ra = reading(&a, workload, "end_to_end", &name);
            let rb = reading(&b, workload, "end_to_end", &name);
            let change = match (value(ra), value(rb)) {
                (Some(va), Some(vb)) if va != 0.0 => format!("{:+.1}%", (vb - va) / va * 100.0),
                _ => String::new(),
            };
            print!(
                " {:>30}",
                format!("{change} {}", verdict(ra, rb, &better, bound))
            );
        }
        println!("  (bound {bound})");
    }

    println!("\nper layer (a -> b, changes over 1 % only)");
    for def in a.get("per_layer").map(Json::items).unwrap_or_default() {
        let (name, unit) = (field(def, "name"), field(def, "unit"));
        for workload in &workloads {
            let va = value(reading(&a, workload, "per_layer", &name));
            let vb = value(reading(&b, workload, "per_layer", &name));
            if let (Some(va), Some(vb)) = (va, vb) {
                let change = if va != 0.0 {
                    (vb - va) / va
                } else {
                    f64::from(vb != 0.0)
                };
                if change.abs() > 0.01 {
                    println!(
                        "  {name:<40} {workload:<12} {va:>12.3} -> {vb:>12.3} {unit:<6} {:+.1}%",
                        change * 100.0
                    );
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, slices: &[f64]) -> Json {
        let mut out = Json::obj();
        out.set("value", value).set(
            "slices",
            slices.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>(),
        );
        out
    }

    #[test]
    fn cells_follow_the_bound_and_the_spread() {
        let steady = reading(100.0, &[99.0, 100.0, 101.0]);
        let cell = |b: &Json, better| verdict(Some(&steady), Some(b), better, 0.10);
        assert_eq!(cell(&reading(105.0, &[]), "higher"), "within-bound");
        assert_eq!(cell(&reading(80.0, &[]), "higher"), "worse");
        assert_eq!(cell(&reading(80.0, &[]), "lower"), "better");
        assert_eq!(
            cell(&reading(80.0, &[60.0, 80.0, 100.0]), "higher"),
            "unresolved"
        );
        assert_eq!(verdict(Some(&steady), None, "higher", 0.10), "n/a");
    }
}
