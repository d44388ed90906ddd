//! A/A agreement: run the whole suite twice on one build and check that the
//! benchmark agrees with itself within its own bounds — the same test the
//! acceptance driver applies, and the calibration source for the bounds in
//! `metrics::end_to_end`.
//!
//! Each set is `--runs` untraced runs per workload, each on another seed,
//! plus one traced run at the first seed. For every end-to-end metric the
//! two sets' medians must differ by less than the metric's bound in the
//! worsening direction, its spread (interquartile range over median) is
//! printed beside them, and every exact count of the traced runs must be
//! identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant as Wall;

use crate::metrics::{end_to_end, json_number, per_layer, Def};
use crate::stats::{median, quartiles, sorted};
use crate::workloads::SPECS;
use crate::{child_args, out_dir, Options};

/// Units whose metrics are exact for a seed.
const EXACT_UNITS: [&str; 2] = ["count", "bytes"];

/// The metrics of a run's result line, by name. The line is this
/// benchmark's own output, so a scan for `"name": {"value": x` suffices.
fn parse_result(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let line = stdout.lines().last()?;
    if !line.starts_with("{\"correct\": true") {
        return None;
    }
    // Names precede each value: walk the same splits for the quoted key.
    let mut named = BTreeMap::new();
    let mut pieces = line.split("{\"value\": ");
    let mut before = pieces.next()?;
    for part in pieces {
        let name = before.rsplit('"').nth(1)?;
        let value: f64 = part.split(',').next()?.parse().ok()?;
        named.insert(name.to_string(), value);
        before = part;
    }
    Some(named)
}

/// Run one child to completion and parse its result.
fn run_child(workload: &str, trace: bool, opts: &Options) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    // `output` waits for the child and collects its stdout.
    let out = Command::new(exe)
        .args(child_args(workload, trace, opts))
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        eprintln!("{workload} (seed {}, trace {}) failed:\n{stdout}", opts.seed, u8::from(trace));
        return None;
    }
    parse_result(&stdout)
}

/// One set of runs of one workload.
struct Set {
    /// End-to-end values per metric, one per seed.
    e2e: BTreeMap<String, Vec<f64>>,
    /// The traced run's metrics.
    layers: BTreeMap<String, f64>,
}

fn run_set(workload: &str, opts: &Options) -> Option<Set> {
    let mut e2e: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for k in 0..opts.runs {
        let run = Options { seed: opts.seed + k as u64, ..opts.clone() };
        for (name, value) in run_child(workload, false, &run)? {
            e2e.entry(name).or_default().push(value);
        }
    }
    Some(Set { e2e, layers: run_child(workload, true, opts)? })
}

fn git_rev() -> String {
    let out = Command::new("git").args(["rev-parse", "HEAD"]).stderr(Stdio::null()).output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// By how much of `a` the second median is worse than the first.
fn worsening(def: &Def, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// The `aa` command.
pub fn run(opts: &Options) -> ExitCode {
    let started = Wall::now();
    let exact: Vec<String> =
        per_layer().into_iter().filter(|d| EXACT_UNITS.contains(&d.unit)).map(|d| d.name).collect();
    let mut ok = true;
    let mut rows = String::new();
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for spec in &SPECS {
        let (Some(a), Some(b)) = (run_set(spec.name, opts), run_set(spec.name, opts)) else {
            eprintln!("{}: a run failed; no agreement to report", spec.name);
            return ExitCode::FAILURE;
        };
        for def in end_to_end() {
            let stat = |set: &Set| {
                let v = sorted(set.e2e[&def.name].clone());
                let (q1, q3) = quartiles(&v);
                (median(&v), (q3 - q1) / median(&v))
            };
            let ((med_a, spread_a), (med_b, spread_b)) = (stat(&a), stat(&b));
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(&def, med_a, med_b);
            let agrees = worse <= bound && spread_a <= bound && spread_b <= bound;
            ok &= agrees || def.name == "setup_s" && worse <= bound;
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}% {}",
                spec.name,
                def.name,
                med_a,
                med_b,
                -100.0 * worse,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * bound,
                if agrees { "" } else { "<-- outside the bound" }
            );
            let _ = writeln!(
                rows,
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"median_a\": {}, \"median_b\": {}, \
                 \"spread_a\": {}, \"spread_b\": {}, \"bound\": {bound}, \"agrees\": {agrees}}},",
                spec.name,
                def.name,
                json_number(med_a),
                json_number(med_b),
                json_number(spread_a),
                json_number(spread_b)
            );
        }
        for name in &exact {
            if a.layers.get(name) != b.layers.get(name) {
                ok = false;
                println!(
                    "{:<12} {name}: {:?} then {:?} <-- an exact count changed",
                    spec.name,
                    a.layers.get(name),
                    b.layers.get(name)
                );
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let report = format!(
        "{{\n  \"nproc\": {nproc},\n  \"git_rev\": \"{}\",\n  \"runs_per_set\": {},\n  \
         \"first_seed\": {},\n  \"run_seconds\": {},\n  \"wall_s\": {:.1},\n  \"agrees\": {ok},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        git_rev(),
        opts.runs,
        opts.seed,
        opts.seconds,
        started.elapsed().as_secs_f64(),
        rows.trim_end().trim_end_matches(',')
    );
    print!("{report}");
    let dir = out_dir();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join("aa.json"), &report))
    {
        eprintln!("writing {}: {e}", dir.join("aa.json").display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "noise\n{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"events_per_s\": {\"value\": 1234.5, \"unit\": \"events/s\"}, \
                    \"setup_s\": {\"value\": 0.00031, \"unit\": \"s\"}}}";
        let m = parse_result(line).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["events_per_s"], 1234.5);
        assert_eq!(m["setup_s"], 0.00031);
        assert!(parse_result("{\"correct\": false, \"attempted\": 1}").is_none());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let defs = end_to_end();
        let rate = defs.iter().find(|d| d.name == "events_per_s").unwrap();
        let latency = defs.iter().find(|d| d.name == "detect_p50_ms").unwrap();
        assert!((worsening(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(rate, 100.0, 110.0) < 0.0);
        assert!((worsening(latency, 10.0, 12.0) - 0.2).abs() < 1e-12);
    }
}
