//! The repository benchmark: seeded workloads run through the public
//! API, every count checked, every metric printed with its unit.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           [--out FILE] [--reference-offset K]
//! perfbench compare OLD.json NEW.json
//! ```
//!
//! A run prints its fingerprint, one line per metric, and as its last
//! line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! is the traced run, which reports the per-layer metrics and writes the
//! trace document. The exit code is 1 when any check failed.

mod harness;
mod mining;
mod probes;
mod span;
mod stats;
mod workload;

use harness::{RunArgs, RunResult, END_TO_END, PER_LAYER};
use serde::Value;
use span::Tracer;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload W --seed N --seconds S --trace 0|1 \
[--out FILE] [--reference-offset K]
       perfbench compare OLD.json NEW.json";

/// Seconds a run may take beyond `--seconds` (set-up, reference counts,
/// warm-up) before the watchdog declares it hung.
const RUN_GRACE_SECONDS: f64 = 120.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs, each flag at most once.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("{flag} given twice"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
}

fn parse<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<T, String> {
    let v = get(flags, name).ok_or_else(|| format!("{name} is required"))?;
    v.parse().map_err(|_| format!("{name}: '{v}' is not a valid value"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace", "--out", "--reference-offset"];
    let f = flags(args, &known)?;
    let name = get(&f, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds: f64 = parse(&f, "--seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    let trace = match get(&f, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let run = RunArgs {
        workload,
        seed: parse(&f, "--seed")?,
        seconds,
        trace,
        reference_offset: get(&f, "--reference-offset")
            .map_or(Ok(0), |_| parse(&f, "--reference-offset"))?,
    };
    // A run that is still going this long after its measured seconds is
    // hung; fail it rather than outlive the caller's patience. The
    // watchdog is never joined: it ends with the process.
    let deadline = std::time::Duration::from_secs_f64(seconds + RUN_GRACE_SECONDS);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("error: run still going after {deadline:?}; giving up");
        std::process::exit(4);
    });
    // Spans of one run share an id; the start time makes it unique.
    let run_id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let tracer = Tracer::new(trace);
    let mut result = mining::run(&run, &tracer);
    if trace {
        let spans = tracer.spans();
        let self_s = span::self_times(&spans);
        for (module, secs) in &self_s {
            result.metrics.set(module.self_metric(), *secs);
        }
        let doc = Value::Map(vec![
            ("run".into(), Value::UInt(run_id)),
            ("fingerprint".into(), result.fingerprint.to_value()),
            (
                "self_s".into(),
                Value::Map(
                    self_s.iter().map(|(m, s)| (m.name().to_string(), Value::Float(*s))).collect(),
                ),
            ),
            ("spans".into(), span::spans_json(&spans, run_id)),
            ("engine_report".into(), result.engine_report.clone()),
        ]);
        let path = format!(
            "{}/out/trace-{}-{}.json",
            env!("CARGO_MANIFEST_DIR"),
            workload.name(),
            run.seed
        );
        write(&path, &doc)?;
        println!("trace    {path}");
    } else {
        // The workload has stopped its engine: only the high-water mark
        // of its memory remains.
        result.metrics.set("peak_rss_mb", harness::peak_rss_mb());
    }
    let table: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    let record = report(&result, table);
    if let Some(path) = get(&f, "--out") {
        write(path, &record)?;
    }
    let last = Value::Map(
        record_fields(&record).into_iter().filter(|(k, _)| k != "fingerprint").collect(),
    );
    println!("{}", serde_json::to_string(&last).expect("in-memory write"));
    Ok(if result.tally.failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Prints the human-readable report and returns the full result record.
fn report(r: &RunResult, table: &[(&'static str, &'static str)]) -> Value {
    let fp = r.fingerprint.to_value();
    println!("inputs   {}", serde_json::to_string(&fp).expect("in-memory write"));
    for note in &r.notes {
        println!("note     {note}");
    }
    let rows = r.metrics.rows(table);
    for (name, unit, value) in &rows {
        println!("metric   {name:<30} {value:>16.6} {unit}");
    }
    let failed_frac = stats::ratio(r.tally.failed as f64, r.tally.attempted as f64);
    println!(
        "checks   {} attempted, {} failed, failed_frac {failed_frac} frac",
        r.tally.attempted, r.tally.failed
    );
    for failure in &r.tally.failures {
        println!("FAILED   {failure}");
    }
    Value::Map(vec![
        ("fingerprint".into(), fp),
        ("correct".into(), Value::Bool(r.tally.failed == 0 && r.tally.attempted > 0)),
        ("attempted".into(), Value::UInt(r.tally.attempted)),
        ("failed".into(), Value::UInt(r.tally.failed)),
        (
            "metrics".into(),
            Value::Map(
                rows.iter()
                    .map(|&(name, unit, value)| {
                        let m = Value::Map(vec![
                            ("value".into(), Value::Float(value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]);
                        (name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn record_fields(v: &Value) -> Vec<(String, Value)> {
    match v {
        Value::Map(entries) => entries.clone(),
        _ => Vec::new(),
    }
}

fn write(path: &str, v: &Value) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).expect("in-memory write");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
}

fn read(path: &str) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = gpm_obs::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(record_fields(&v))
}

fn field<'a>(record: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    record.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Compares two `--out` records metric by metric; refuses when their
/// fingerprints differ, since then the inputs differ.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [old_path, new_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    let fp = |r: &[(String, Value)], p: &str| {
        field(r, "fingerprint").cloned().ok_or_else(|| format!("{p} has no fingerprint"))
    };
    let (old_fp, new_fp) = (fp(&old, old_path)?, fp(&new, new_path)?);
    if old_fp != new_fp {
        let json = |v: &Value| serde_json::to_string(v).expect("in-memory write");
        let new_fields = record_fields(&new_fp);
        let diff: Vec<String> = record_fields(&old_fp)
            .iter()
            .filter(|(k, v)| field(&new_fields, k) != Some(v))
            .map(|(k, v)| {
                let new = field(&new_fields, k).map_or_else(|| "missing".into(), json);
                format!("{k}: {} vs {new}", json(v))
            })
            .collect();
        eprintln!("refusing to compare runs of different inputs: {}", diff.join("; "));
        return Ok(ExitCode::from(3));
    }
    let metrics =
        |r: &[(String, Value)]| field(r, "metrics").map(record_fields).unwrap_or_default();
    let new_metrics = metrics(&new);
    println!("{:<30} {:>16} {:>16} {:>9}", "metric", "old", "new", "change");
    for (name, m) in metrics(&old) {
        let value = |m: &Value| field(&record_fields(m), "value").and_then(number);
        let unit = field(&record_fields(&m), "unit").cloned();
        let (Some(a), Some(b)) = (value(&m), field(&new_metrics, &name).and_then(value)) else {
            continue;
        };
        let change = if a != 0.0 { format!("{:+.1}%", (b / a - 1.0) * 100.0) } else { "-".into() };
        let unit = match unit {
            Some(Value::Str(u)) => u,
            _ => String::new(),
        };
        println!("{name:<30} {a:>16.6} {b:>16.6} {change:>9} {unit}");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric table the binary reports is the one `BENCHMARK.json`
    /// declares, name for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = read(path).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match field(&doc, key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let m = record_fields(m);
                        let s = |k| match field(&m, k) {
                            Some(Value::Str(s)) => s.clone(),
                            other => panic!("{key} entry has no string {k}: {other:?}"),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match field(&doc, "workloads") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|w| match field(&record_fields(w), "name") {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("workload without a name: {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json has no workloads: {other:?}"),
        };
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn correctness_gate_counts_wrong_answers_and_errors() {
        let mut t = harness::Tally::default();
        t.check::<String>("right", Ok(5), 5);
        t.check::<String>("wrong", Ok(6), 5);
        t.check("error", Err("fetch failed"), 5);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.failures.len(), 2);
    }
}
