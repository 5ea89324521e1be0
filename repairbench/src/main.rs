//! Repair-session benchmark: simulated reviewers repairing seeded hospital
//! tables through the repo's serving stack, end to end.
//!
//! ```text
//! repairbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; lines before it starting with `#`
//! are facts about the run (input make-up, accounting, samples).  With
//! `--repeat N` the binary runs itself N times on seeds `seed..seed+N` and
//! prints each metric's median and quartiles instead.  See README.md.

mod checks;
mod inproc;
mod inputs;
mod mux;
mod report;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use gdr_core::Strategy;
use gdr_serve::json::Json;

use crate::inproc::InProcSpec;
use crate::report::Report;
use crate::trace::Trace;

/// A workload: its table size, how it is driven, and how long one round
/// (one table: set-up, session, checks) takes on a 2-CPU VM, which sets
/// how many rounds fit in `--seconds`.
struct Workload {
    name: &'static str,
    rows: usize,
    kind: Kind,
    round_s: f64,
    min_rounds: usize,
}

enum Kind {
    InProc(InProcSpec),
    Mux(mux::MuxSpec),
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "rank_10k",
            rows: 10_000,
            kind: Kind::InProc(InProcSpec {
                strategy: Strategy::GdrNoLearning,
                answers: 100,
                setups: 3,
            }),
            round_s: 2.1,
            min_rounds: 5,
        },
        Workload {
            name: "learn_2k",
            rows: 2_000,
            kind: Kind::InProc(InProcSpec {
                strategy: Strategy::Gdr,
                answers: 50,
                setups: 3,
            }),
            round_s: 0.4,
            min_rounds: 20,
        },
        // Not among BENCHMARK.json's workloads: every request is handed
        // between the client thread, the server's event loop and its
        // worker, and on two shared CPUs its turn and session times spread
        // by about a quarter between runs of the same build.  It runs by
        // name, and is the one workload that crosses the wire and writes
        // journal files.
        Workload {
            name: "mux_wire_1k",
            rows: 1_000,
            kind: Kind::Mux(mux::MuxSpec {
                sessions: 16,
                workers: 1,
                answers: 300,
            }),
            round_s: 6.8,
            min_rounds: 3,
        },
        Workload {
            name: "scale_100k",
            rows: 100_000,
            kind: Kind::InProc(InProcSpec {
                strategy: Strategy::GdrNoLearning,
                answers: 14,
                setups: 1,
            }),
            round_s: 9.0,
            // Three sessions of 14 turns: the forty a tail needs.
            min_rounds: 3,
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, 10, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("repairbench: {err}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(workload) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = all.iter().map(|w| w.name).collect();
        eprintln!(
            "repairbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    match args.repeat {
        Some(n) => repeat(&args, n),
        None => run_once(workload, &args),
    }
}

fn run_once(workload: &Workload, args: &Args) -> ExitCode {
    let started = Instant::now();
    // Rounds depend only on --seconds, never on how fast this run goes, so
    // a seed always measures the same tables.
    let rounds = if args.trace {
        1
    } else {
        ((args.seconds as f64 / workload.round_s).round() as usize).max(workload.min_rounds)
    };
    let seeds: Vec<u64> = (0..rounds)
        .map(|round| inputs::round_seed(args.seed, round))
        .collect();
    let mut report = Report::default();
    report.note(format!(
        "workload={} seed={} rounds={rounds}",
        workload.name, args.seed
    ));
    let mut trace = Trace::new(args.trace);
    match &workload.kind {
        Kind::InProc(spec) => inproc::run(spec, workload.rows, &seeds, &mut trace, &mut report),
        Kind::Mux(spec) => mux::run(spec, workload.rows, &seeds, &mut trace, &mut report),
    }
    if trace.enabled() {
        let path = out_dir().join(format!("trace-{}-{}.tsv", workload.name, args.seed));
        match trace.write_tsv(&path) {
            Ok(()) => report.note(format!("spans={}", path.display())),
            Err(err) => report.checks.check(false, format!("writing spans: {err}")),
        }
        report.metric("trace.loop_self_ms", trace.self_ms("turn"), "ms");
        // The lock-step twins' work per unit of served work: how much
        // slower a traced session runs than an untraced one.
        let twins = trace.total_ms_prefix("core.") + trace.total_ms_prefix("learn.");
        let served = trace.total_ms("serve.answer")
            + trace.total_ms("serve.next")
            + trace.total_ms("serve.finish");
        report.metric("trace.overhead_pct", 100.0 * twins / served, "%");
    }
    for (verb, (attempted, failed)) in &report.ops {
        report
            .notes
            .push(format!("ops.{verb} attempted={attempted} failed={failed}"));
    }
    report.note(format!(
        "checks_passed={} wall_s={:.3}",
        report.checks.passed,
        started.elapsed().as_secs_f64()
    ));
    for note in &report.notes {
        println!("# {note}");
    }
    for failed in &report.checks.failed {
        eprintln!("repairbench: CHECK FAILED: {failed}");
    }
    println!("{}", report.result_line());
    if report.checks.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scratch space inside the benchmark's own directory (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs this binary `n` times on consecutive seeds and prints, per metric,
/// the median and quartiles of the runs and their spread
/// `(q3 - q1) / median`.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("current executable");
    let mut runs: Vec<Json> = Vec::new();
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run benchmark child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed = Json::parse(last);
        if !output.status.success() || parsed.is_err() {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            eprintln!(
                "repairbench: run with seed {seed} failed ({})",
                output.status
            );
            return ExitCode::FAILURE;
        }
        eprintln!("seed {seed}: {last}");
        runs.push(parsed.expect("checked above"));
    }
    let Some(Json::Object(first)) = runs[0].get("metrics") else {
        eprintln!("repairbench: result has no metrics");
        return ExitCode::FAILURE;
    };
    println!(
        "{:<32} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, first_metric) in first {
        let unit = first_metric
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("");
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!(
            "{name:<32} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>7.1}%  {unit}",
            spread * 100.0
        );
    }
    let failed: Vec<i64> = runs
        .iter()
        .filter_map(|r| r.get("failed")?.as_i64())
        .collect();
    let attempted: Vec<i64> = runs
        .iter()
        .filter_map(|r| r.get("attempted")?.as_i64())
        .collect();
    println!("attempted per run {attempted:?}, failed per run {failed:?}");
    ExitCode::SUCCESS
}
