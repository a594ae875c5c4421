//! `wedge-e2e`: the committed end-to-end benchmark of the Wedge serving
//! stack. See `README.md` beside this crate for what each workload and
//! metric means.
//!
//! ```text
//! wedge-e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//!                                              one run; last stdout line is one JSON object
//! wedge-e2e --seed <u64> --out <dir> [--smoke] every workload, each run in a process of its own
//! wedge-e2e compare <a/result.json> <b/result.json>
//! ```

mod compare;
mod json;
mod report;
mod runner;
mod spans;
mod stack;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use json::Json;
use report::Readings;
use runner::{RunConfig, RunOutput, Scale};
use stack::probes::{self, Effort};
use stack::Stack;
use workload::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;
/// Warm-up discarded before the measured window (a closed loop has primed
/// every host and run its counting window by then).
const WARM: Duration = Duration::from_secs(2);
const SLICE: Duration = Duration::from_secs(5);
/// Stack boots behind a run's `setup_s` median.
const SETUP_BOOTS: usize = 5;
/// How often the all-workloads run repeats a run the machine moved under.
const MAX_RERUNS: usize = 2;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        ..Args::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = Some(number(value()?)?.clamp(1, 600)),
            "--trace" => parsed.trace = number(value()?)? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)).map(|()| true),
            _ => Err("usage: wedge-e2e compare <a/result.json> <b/result.json>".to_string()),
        }
    } else {
        parse_args(&args).and_then(|args| match &args.workload {
            Some(name) => {
                let workload =
                    workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                single(workload, &args)
            }
            None => full(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("wedge-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// `{name: {value, unit}}` with every value a number, as the last line of
/// a single-workload run carries them. A reading the run cannot support
/// (a layer the workload never enters, a percentile short of samples) is 0.
fn metrics_line(run: &RunOutput, readings: &Readings) -> String {
    let mut metrics = Json::obj();
    for (def, reading) in readings {
        let mut entry = Json::obj();
        entry
            .set(
                "value",
                reading.value.filter(|v| v.is_finite()).unwrap_or(0.0),
            )
            .set("unit", def.unit);
        metrics.set(def.name, entry);
    }
    let mut line = Json::obj();
    line.set("correct", run.correct())
        .set("attempted", run.attempted.max(1))
        .set("failed", run.failed)
        .set("metrics", metrics);
    line.compact()
}

fn explain(workload: &Workload, run: &RunOutput) {
    for error in &run.errors {
        eprintln!("wedge-e2e: {}: {error}", workload.name);
    }
    if let Some(books) = &run.unbalanced {
        eprintln!(
            "wedge-e2e: {}: books do not balance: {books}",
            workload.name
        );
    }
    eprintln!(
        "wedge-e2e: {}: late_p90 {:?} us, calib_spread {:?} over {:?} ms{}",
        workload.name,
        run.late_p90_us(),
        run.calib_spread(),
        run.calib_ms,
        if run.noisy() { " (noisy)" } else { "" }
    );
}

fn part_path(out: &Path, workload: &Workload, traced: bool, suffix: &str) -> PathBuf {
    let kind = if traced { "traced" } else { "measured" };
    out.join(format!("part.{}.{kind}.{suffix}", workload.name))
}

/// One workload, one run, one JSON line: end-to-end metrics with
/// `--trace 0`, per-layer metrics with `--trace 1`. With `--out` the run's
/// whole account (and a traced run's spans) is left there as a part for the
/// all-workloads run to collect.
fn single(workload: &'static Workload, args: &Args) -> Result<bool, String> {
    if workload.one_cpu() {
        match sys::pin_to_one_cpu() {
            Some(cpu) => eprintln!("wedge-e2e: {}: pinned to CPU {cpu}", workload.name),
            None => eprintln!("wedge-e2e: {}: not pinned, expect noise", workload.name),
        }
    }
    let seconds = Duration::from_secs(args.seconds.unwrap_or(DEFAULT_SECONDS));
    // `--smoke` checks the code paths, not the numbers: small enough that
    // a debug build finishes.
    let (warm, scale, effort) = if args.smoke {
        let scale = Scale {
            max_hosts_per_client: 32,
            max_count_window: 16,
        };
        (Duration::from_millis(500), scale, Effort(40))
    } else {
        (WARM, Scale::FULL, Effort(1))
    };
    // The measured window: whole slices, at least one.
    let config = |seconds: Duration, traced: bool| {
        let slice = SLICE.min(seconds);
        let slices = (seconds.as_nanos() / slice.as_nanos()).max(1) as u32;
        RunConfig {
            workload,
            seed: args.seed,
            warm,
            measure: slice * slices,
            slice,
            traced,
            scale,
        }
    };
    let mut part = Json::obj();
    let (run, readings) = if args.trace {
        // The probes time single calls, so they go first, before a stack
        // has run in the process; the short untraced reference comes
        // before the traced window for the same reason. The three share
        // `--seconds`. The probes time cross-thread wake-ups, so they run
        // on one CPU whichever workload the run is for.
        let probes = std::thread::scope(|scope| {
            let pinned = scope.spawn(|| {
                sys::pin_to_one_cpu();
                probes::run_all(effort)
            });
            pinned.join().expect("probe thread")
        })?;
        let reference = runner::run(&config(seconds / 4, false))?;
        let traced = runner::run(&config(seconds / 2, true))?;
        let readings = report::per_layer(&traced, &reference, &probes);
        let budget = report::Budget::from_spans(&traced.spans, traced.window_ns);
        part.set("budget", budget.to_json());
        (traced, readings)
    } else {
        let run = runner::run(&config(seconds, false))?;
        // Set-up is timed over several boots; the run's own was the first.
        let mut setups = vec![run.setup_s];
        for _ in 1..SETUP_BOOTS {
            let (stack, setup_s) = Stack::boot(args.seed, None)
                .map_err(|failure| format!("stack boot: {}", failure.detail))?;
            stack.shutdown()?;
            setups.push(setup_s);
        }
        let setup_s = stats::median(&setups).expect("at least one boot");
        let readings = report::end_to_end(&run, setup_s);
        (run, readings)
    };
    explain(workload, &run);
    report::print_readings(&readings);
    if let Some(out) = &args.out {
        std::fs::create_dir_all(out).map_err(|err| format!("{}: {err}", out.display()))?;
        let mut counters = Json::obj();
        for (name, value) in &run.counters {
            counters.set(name, *value);
        }
        let errors: Vec<Json> = run.errors.iter().map(|e| Json::from(e.as_str())).collect();
        part.set("correct", run.correct())
            .set("noisy", run.noisy())
            .set("attempted", run.attempted)
            .set("failed", run.failed)
            .set("errors", errors)
            .set("readings", report::readings_json(&readings))
            .set("counters", counters);
        let path = part_path(out, workload, args.trace, "json");
        std::fs::write(&path, part.pretty()).map_err(|err| format!("{}: {err}", path.display()))?;
        if args.trace {
            let path = part_path(out, workload, true, "spans.jsonl");
            spans::write_jsonl(&path, workload.name, &run.spans)
                .map_err(|err| format!("{}: {err}", path.display()))?;
        }
    }
    println!("{}", metrics_line(&run, &readings));
    Ok(run.correct())
}

/// One run of the all-workloads run, in a process of its own: a dropped
/// front leaves its callgate workers (and what they hold: ~10 KiB per
/// connection served) behind, and a third `https_conn` run in one process
/// reads 20 % slower than the first. Repeats the run (at most `max_reruns`
/// times) while the machine moves under it; returns the last run's part and
/// how many repeats it took.
fn isolated(
    workload: &'static Workload,
    args: &Args,
    traced: bool,
    out: &Path,
    max_reruns: usize,
) -> Result<(Json, usize), String> {
    let exe = std::env::current_exe().map_err(|err| format!("own executable: {err}"))?;
    let seconds = if args.smoke {
        2
    } else {
        args.seconds.unwrap_or(DEFAULT_SECONDS)
    };
    let kind = if traced { "traced" } else { "measured" };
    let mut reruns = 0;
    loop {
        println!(
            "{}: {kind} run, {} clients",
            workload.name,
            workload.clients()
        );
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(out);
        if args.smoke {
            command.arg("--smoke");
        }
        let status = command
            .status()
            .map_err(|err| format!("{}: {err}", exe.display()))?;
        // 1 is a completed run that was not correct; its part says why.
        if !matches!(status.code(), Some(0 | 1)) {
            return Err(format!("{} {kind} run: {status}", workload.name));
        }
        let path = part_path(out, workload, traced, "json");
        let part = Json::load(&path)?;
        std::fs::remove_file(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        let noisy = part.get("noisy") == Some(&Json::Bool(true));
        if !noisy || reruns == max_reruns {
            return Ok((part, reruns));
        }
        reruns += 1;
        println!("  noisy run, repeating ({reruns}/{max_reruns})");
    }
}

/// Every workload: a measured run and a traced run (with its layer probes),
/// each printed by name as it finishes and collected under `--out`.
fn full(args: &Args) -> Result<bool, String> {
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/wedge-e2e"));
    std::fs::create_dir_all(&out).map_err(|err| format!("{}: {err}", out.display()))?;
    // A smoke run repeats nothing.
    let max_reruns = if args.smoke { 0 } else { MAX_RERUNS };
    println!(
        "wedge-e2e seed {} nproc {}, each run on one CPU{}",
        args.seed,
        sys::nproc(),
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut result = Json::obj();
    result
        .set("seed", args.seed)
        .set("nproc", sys::nproc() as u64)
        .set("git", sys::git_describe())
        .set("smoke", args.smoke)
        .set("end_to_end", report::definitions_json(&report::END_TO_END))
        .set("per_layer", report::definitions_json(&report::PER_LAYER));
    let mut layers = Json::obj();
    let mut workloads = Json::obj();
    let spans_path = out.join("spans.jsonl");
    let mut all_spans = std::fs::File::create(&spans_path)
        .map_err(|err| format!("{}: {err}", spans_path.display()))?;
    let mut correct = true;

    for workload in &WORKLOADS {
        let (measured, measured_reruns) = isolated(workload, args, false, &out, max_reruns)?;
        let (traced, traced_reruns) = isolated(workload, args, true, &out, max_reruns)?;
        let field = |part: &Json, key: &str| part.get(key).cloned().unwrap_or(Json::Null);
        let both_correct = [&measured, &traced]
            .iter()
            .all(|part| part.get("correct") == Some(&Json::Bool(true)));
        correct &= both_correct;
        let errors: Vec<Json> = [&measured, &traced]
            .iter()
            .flat_map(|part| part.get("errors").map(Json::items).unwrap_or_default())
            .cloned()
            .collect();

        let mut entry = Json::obj();
        entry
            .set("why", workload.why)
            .set("clients", workload.clients() as u64)
            .set("correct", both_correct)
            .set("noisy", field(&measured, "noisy"))
            .set("reruns", (measured_reruns + traced_reruns) as u64)
            .set("attempted", field(&measured, "attempted"))
            .set("failed", field(&measured, "failed"))
            .set("errors", errors)
            .set("end_to_end", field(&measured, "readings"))
            .set("per_layer", field(&traced, "readings"))
            .set("counters", field(&measured, "counters"));
        workloads.set(workload.name, entry);
        let mut layer_entry = Json::obj();
        layer_entry
            .set("budget", field(&traced, "budget"))
            .set("per_layer", field(&traced, "readings"));
        layers.set(workload.name, layer_entry);

        let part = part_path(&out, workload, true, "spans.jsonl");
        let mut spans =
            std::fs::File::open(&part).map_err(|err| format!("{}: {err}", part.display()))?;
        std::io::copy(&mut spans, &mut all_spans)
            .and_then(|_| std::fs::remove_file(&part))
            .map_err(|err| format!("{}: {err}", part.display()))?;
    }

    result.set("correct", correct).set("workloads", workloads);
    let write = |name: &str, value: &Json| {
        std::fs::write(out.join(name), value.pretty()).map_err(|err| format!("{name}: {err}"))
    };
    write("result.json", &result)?;
    write("layers.json", &layers)?;
    println!("wrote {}", out.join("result.json").display());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the compiled metric tables say the same thing,
    /// within the driver's contract.
    #[test]
    fn benchmark_json_matches_the_compiled_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|item| {
                    item.get("name")
                        .and_then(Json::str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
        for (key, defs) in [
            ("end_to_end", &report::END_TO_END[..]),
            ("per_layer", &report::PER_LAYER[..]),
        ] {
            let listed = spec.get(key).expect(key).items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (item, def) in listed.iter().zip(defs) {
                assert_eq!(item.get("name").and_then(Json::str), Some(def.name));
                assert_eq!(item.get("unit").and_then(Json::str), Some(def.unit));
                assert_eq!(
                    item.get("better").and_then(Json::str),
                    Some(def.better.as_str())
                );
                assert_eq!(
                    item.get("bound").and_then(Json::num),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        for (item, workload) in spec
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(item.get("why").and_then(Json::str), Some(workload.why));
            assert!(workload.why.len() <= 200);
        }
        let paths = spec.get("paths").expect("paths").items();
        assert_eq!(paths, [Json::from("crates/wedge-e2e")]);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::num),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
