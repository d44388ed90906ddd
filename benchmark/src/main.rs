//! The repo's benchmark. One run generates one workload from a seed, drives
//! the real pipeline — packet bytes -> `Session::feed` -> engine ->
//! checkpoint/publish -> `StoreSink` -> SWQL — checks the output against
//! `reference_records`, and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object. See
//! README.md for the commands, the metric glossary and the workloads.

mod aa;
mod layers;
mod metrics;
mod session;
mod sink;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant as Wall};

use swmon_runtime::{ShardedRuntime, ViolationSink};
use swmon_store::StoreSink;

use metrics::Metrics;
use session::{checked_pass, paced_pass, pinned, query_plan, Paced, Reference, Tally, SHAPES};
use stats::{median, percentile, sorted, Fastest};
use workloads::{Expected, Spec, Workload, DEFAULT_SEED, SPECS};

/// Closed-loop reps per paced pass.
const REPS_PER_CYCLE: usize = 4;
/// Session constructions timed before every rep and pass, so `setup_s`
/// samples the whole run, not one spell of the machine.
const SETUPS_PER_PASS: usize = 20;

const USAGE: &str = "\
usage: swmon-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       swmon-benchmark run <workload|all> [--seed <n>] [--seconds <s>] [--quick]
       swmon-benchmark trace <workload|all> [--seed <n>] [--seconds <s>] [--quick]
       swmon-benchmark aa [--runs <n>] [--seed <n>] [--seconds <s>]
       swmon-benchmark manifest
       swmon-benchmark --list";

/// Options shared by every command.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub runs: usize,
}

enum Cmd {
    /// Measure one workload in this process (the driver's form).
    One {
        workload: String,
        trace: bool,
    },
    /// One child process per workload, so `peak_rss_mb` is per workload.
    Each {
        which: String,
        trace: bool,
    },
    Aa,
    Manifest,
    List,
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag} {text:?}: {e}"))
}

fn parse_args(args: &[String]) -> Result<(Cmd, Options), String> {
    let mut opts =
        Options { seed: DEFAULT_SEED, seconds: metrics::RUN_SECONDS, quick: false, runs: 10 };
    let mut workload = None;
    let mut trace = false;
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => opts.seed = number(arg, value("a number")?)?,
            "--seconds" => opts.seconds = number(arg, value("a number")?)?,
            "--runs" => opts.runs = number(arg, value("a number")?)?,
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => opts.quick = true,
            "--list" => words.push("list"),
            word if !word.starts_with('-') => words.push(word),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.seconds == 0 || opts.runs < 2 {
        return Err("--seconds must be at least 1 and --runs at least 2".to_string());
    }
    let cmd = match (workload, words.as_slice()) {
        (Some(workload), []) => Cmd::One { workload, trace },
        (None, ["run", which]) => Cmd::Each { which: which.to_string(), trace: false },
        (None, ["trace", which]) => Cmd::Each { which: which.to_string(), trace: true },
        (None, ["aa"]) => Cmd::Aa,
        (None, ["manifest"]) => Cmd::Manifest,
        (None, ["list"]) => Cmd::List,
        _ => return Err("no command".to_string()),
    };
    Ok((cmd, opts))
}

/// Where traces and the A/A report go: `benchmark/out/` from the repo
/// root, `out/` from inside `benchmark/`.
pub fn out_dir() -> PathBuf {
    let dir = if PathBuf::from("benchmark/Cargo.toml").exists() { "benchmark/out" } else { "out" };
    PathBuf::from(dir)
}

/// The driver-form arguments for one run of `workload`.
pub fn child_args(workload: &str, trace: bool, opts: &Options) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec();
    if opts.quick {
        args.push("--quick".to_string());
    }
    args
}

fn run_each(which: &str, trace: bool, opts: &Options) -> ExitCode {
    let names: Vec<&str> = match which {
        "all" => SPECS.iter().map(|s| s.name).collect(),
        name if workloads::spec(name).is_some() => vec![name],
        other => {
            eprintln!("unknown workload {other:?}; try --list");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut ok = true;
    for name in names {
        println!(
            "== {name} (seed {}, {} s, trace {}) ==",
            opts.seed,
            opts.seconds,
            u8::from(trace)
        );
        // `status` waits for the child: nothing outlives this loop.
        let status = Command::new(&exe).args(child_args(name, trace, opts)).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The program's start-up, timed [`SETUPS_PER_PASS`] times: build the
/// properties, place them, start a session with a sink.
fn time_setups(spec: &Spec, samples: &mut Vec<f64>) {
    for _ in 0..SETUPS_PER_PASS {
        let t0 = Wall::now();
        let rt =
            ShardedRuntime::new(spec.properties(), pinned()).expect("catalog properties are valid");
        let sink = Arc::new(StoreSink::new()) as Arc<dyn ViolationSink>;
        let session = rt.start_with_sink(Some(sink));
        samples.push(t0.elapsed().as_secs_f64());
        drop(session);
    }
}

/// The untraced run: cycles of closed-loop reps and a paced pass, for
/// `seconds`.
///
/// The time-based metrics are read off the fastest each piece of work ever
/// ran ([`Fastest`]), not off medians: this box's memory system slows by a
/// third for spells of milliseconds to minutes as other tenants come and
/// go, every rep repeats the same work step for step, and with some eighty
/// reps a run almost every step meets a quiet moment (README, "Noise and
/// bounds"). Cycles interleave the passes so each kind samples the whole run.
fn end_to_end(
    w: &Workload,
    reference: &Reference,
    plan: &[session::QueryPoint],
    seconds: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let deadline = Wall::now() + WallDuration::from_secs(seconds);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut steps = Fastest::default();
    let mut queries: [Fastest; 3] = Default::default();
    let mut detects = Fastest::default();
    let mut pooled = Paced::default();
    let mut passes = 0usize;
    loop {
        let cycle = Wall::now();
        for _ in 0..REPS_PER_CYCLE {
            time_setups(&w.spec, &mut setups);
            let Some(steps_s) = checked_pass(w, pinned(), true, reference, tally) else { return };
            rates.push(w.raw.len() as f64 / steps_s.iter().sum::<f64>());
            steps.absorb(&steps_s);
        }
        time_setups(&w.spec, &mut setups);
        let events = w.raw.materialize();
        let Some(paced) = paced_pass(w, &events, reference, plan, tally) else { return };
        for (fastest, pass) in queries.iter_mut().zip(&paced.query_us) {
            fastest.absorb(pass);
        }
        detects.absorb(&paced.detect_ms);
        pooled.absorb(paced);
        passes += 1;
        if Wall::now() + cycle.elapsed() > deadline {
            break;
        }
    }
    let rates = sorted(rates);
    println!(
        "events_per_s.reps {} (whole reps: median {:.0}, best {:.0} events/s)",
        rates.len(),
        median(&rates),
        rates[rates.len() - 1]
    );
    m.set("events_per_s", w.raw.len() as f64 / steps.total());
    let setups = sorted(setups);
    println!("setup_s.samples {} (median {:.7} s)", setups.len(), median(&setups));
    m.set("setup_s", setups[0]);
    let late = sorted(pooled.late_us);
    println!(
        "paced.passes {passes} at {:.0} events/s (feed late p99 {:.1} us, max {:.3} ms)",
        w.spec.paced_rate,
        percentile(&late, 0.99).0,
        late[late.len() - 1] / 1e3
    );
    if pooled.detect_ms.is_empty() {
        tally.fail(1, || "no violation was published while feeding: nothing to time".to_string());
        return;
    }
    // Every pass publishes the same violations in the same order (the
    // session is inline and flushes by event count), so each violation keeps
    // the fastest latency any pass gave it: a stall of the host lengthens it
    // in one pass, a stall of the program in all of them.
    let pooled_detect = sorted(pooled.detect_ms);
    let detect = sorted(detects.steps().to_vec());
    let (p99, read_at) = percentile(&detect, 0.99);
    println!(
        "detect.samples {} per pass (+{} at finish), p99 read at p{:.1}; pooled over the passes: \
         median {:.4} ms, p99 {:.4} ms",
        detect.len(),
        pooled.at_finish / passes,
        100.0 * read_at,
        median(&pooled_detect),
        percentile(&pooled_detect, 0.99).0
    );
    m.set("detect_p50_ms", median(&detect));
    m.set("detect_p99_ms", p99);
    let query = sorted(pooled.query_us.into_iter().flatten().collect());
    println!("query.samples {} (pooled median {:.3} us)", query.len(), median(&query));
    let mut fastest_us = Vec::new();
    for (shape, fastest) in SHAPES.iter().zip(&queries) {
        let p50 = median(&sorted(fastest.steps().to_vec()));
        println!("query.live_{shape}_p50_us {p50:.3} (each query's fastest of {passes} passes)");
        fastest_us.extend_from_slice(fastest.steps());
    }
    // The mean, not the median: the three shapes cost 2, 30 and 100 us, so
    // the pooled median sits in the gap between two of them and jumps with
    // the seed's draw of queries, while the mean moves with every query.
    m.set("query_mean_us", fastest_us.iter().sum::<f64>() / fastest_us.len() as f64);
    println!("query_p99_us {:.3} (per-layer metric; see `trace`)", percentile(&query, 0.99).0);
    match peak_rss_mb() {
        Some(mb) => m.set("peak_rss_mb", mb),
        None => tally.fail(1, || "VmHWM is not readable from /proc/self/status".to_string()),
    }
}

fn run_one(name: &str, trace: bool, opts: &Options) -> ExitCode {
    let Some(spec) = workloads::spec(name) else {
        eprintln!("unknown workload {name:?}; try --list");
        return ExitCode::from(2);
    };
    let spec = if opts.quick { spec.quick() } else { *spec };
    let w = workloads::generate(&spec, opts.seed);
    let reference = Reference::compute(&w);
    let input = Expected {
        events: w.raw.len(),
        packets: w.injected,
        violations: reference.full.len(),
        fingerprint: w.raw.fingerprint(),
    };
    println!("input.events {}", input.events);
    println!("input.packets {}", input.packets);
    println!("input.violations_expected {}", input.violations);
    println!("input.fingerprint {:#018x}", input.fingerprint);
    if !opts.quick && opts.seed == DEFAULT_SEED && input != spec.expected {
        eprintln!(
            "load changed: {name} at seed {DEFAULT_SEED} generated {input:?}, but the benchmark's \
             numbers are defined over {:?}; see benchmark/README.md, \"Input determinism guard\"",
            spec.expected
        );
        return ExitCode::from(3);
    }

    let n_paced = spec.paced_events.min(w.raw.len());
    let plan = query_plan(&w.raw, n_paced, &reference.paced, opts.seed);
    let mut tally = Tally::default();
    let mut m = Metrics::new(if trace { metrics::per_layer() } else { metrics::end_to_end() });
    if trace {
        m.set("input.events", input.events as f64);
        m.set("input.packets", input.packets as f64);
        m.set("input.violations_expected", input.violations as f64);
        // The top 48 bits: exact in a JSON number.
        m.set("input.fingerprint", (input.fingerprint >> 16) as f64);
        m.set("bench.gen_s", w.gen_s);
        let budget = WallDuration::from_secs(opts.seconds);
        let spans = layers::measure(&w, &reference, &plan, opts.seed, budget, &mut m, &mut tally);
        let dir = out_dir();
        let path = dir.join(format!("trace-{name}.json"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json(name)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => tally.fail(1, || format!("writing {}: {e}", path.display())),
        }
    } else {
        end_to_end(&w, &reference, &plan, opts.seconds, &mut m, &mut tally);
    }

    print!("{}", m.render());
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    let missing = m.missing();
    if !missing.is_empty() {
        println!("FAILED: not measured: {}", missing.join(", "));
    }
    let correct = tally.failed == 0 && missing.is_empty();
    println!(
        "failed_ops_pct {:.4} % ({} of {} operations)",
        100.0 * tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        m.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::One { workload, trace } => run_one(&workload, trace, &opts),
        Cmd::Each { which, trace } => run_each(&which, trace, &opts),
        Cmd::Aa => aa::run(&opts),
        Cmd::Manifest => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Cmd::List => {
            for s in &SPECS {
                println!("{:<12} {}", s.name, s.why);
            }
            ExitCode::SUCCESS
        }
    }
}
