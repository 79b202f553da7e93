//! The repo benchmark: four long-run workloads, five end-to-end metrics,
//! and per-layer rows from an outside-in traced run.  See `README.md`
//! in this directory for what each workload and row is for.
//!
//! ```text
//! bdbms-benchmark [run] [--workload W] [--seed N] [--seconds S]
//!                 [--trace 0|1] [--scale F] [--check-repeat]
//! ```
//!
//! With `--workload` the workload runs in this process and the last
//! line of standard output is its result as one JSON object; without,
//! every workload runs in a child process of its own (clean `VmHWM`,
//! clean buffer pool) and one result line is printed per workload.

mod adapter;
mod alloc;
mod calib;
mod gen;
mod harness;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::Cfg;
use json::Json;
use report::{END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20070107;
const DEFAULT_SECONDS: f64 = 10.0;
/// Scratch space, relative to the directory the benchmark is run from
/// (the root of the checkout).  Listed in the root `.gitignore`.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        check_repeat: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<f64, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a number"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "run" => {}
            "--workload" => a.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" | "--duration" => {
                a.seconds = number(value(&mut i, "--seconds")?, "--seconds")?
            }
            "--scale" => a.scale = number(value(&mut i, "--scale")?, "--scale")?,
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`
                match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        a.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        a.trace = true;
                        i += 1;
                    }
                    _ => a.trace = true,
                }
            }
            "--check-repeat" => a.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(a.scale > 0.0 && a.scale <= 16.0) {
        return Err("--scale must be in (0, 16]".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

/// Run one workload in this process; returns its result line.
fn run_here(a: &Args, workload: &str) -> Result<(String, bool), String> {
    let root = PathBuf::from(WORK_ROOT);
    let work = root.join(format!("run-{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    // COPY resolves its path inside the engine (and, over the wire,
    // inside the server): hand it absolute paths
    let work = work
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", work.display()))?;
    let cfg = Cfg {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: a.scale,
        trace_dir: work.parent().expect("work dir has a parent").to_path_buf(),
        work: work.clone(),
    };
    let outcome = workloads::run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    eprint!("{}", outcome.render(workload));
    let table: &[(&str, &str)] = if a.trace {
        &PER_LAYER
    } else {
        &END_TO_END.map(|m| (m.0, m.1))
    };
    let line = outcome.result_line(table)?;
    Ok((line, outcome.correct && outcome.failed == 0))
}

/// Run one workload in a child process; returns its parsed result line.
fn run_child(a: &Args, workload: &str, seed: u64) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--scale", &a.scale.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    let parsed = Json::parse(&line).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: child exited with {}: {line}",
            out.status
        ));
    }
    Ok((line, parsed))
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `--check-repeat`: the full set twice with the same seed and once
/// with seed + 1.  Prints the relative difference of every end-to-end
/// metric per workload and fails if the two same-seed sets disagree by
/// more than the metric's bound.  (The bypass assertions run inside
/// every workload run, so they are checked three times here.)
fn check_repeat(a: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for seed in [a.seed, a.seed, a.seed + 1] {
        let mut set = Vec::new();
        for w in WORKLOADS {
            let (line, parsed) = run_child(a, w, seed)?;
            println!("{line}");
            set.push(parsed);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!("workload             metric              set A        set B      seed+1   |A-B|/A  bound  seed-spread");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (name, _, bound, _) in END_TO_END {
            let v: Vec<f64> = sets.iter().map(|s| metric(&s[wi], name)).collect();
            let diff = (v[0] - v[1]).abs() / v[0].abs().max(f64::MIN_POSITIVE);
            let seed_diff = (v[0] - v[2]).abs() / v[0].abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound {
                ""
            } else {
                "  <-- exceeds bound"
            };
            ok &= diff <= bound;
            println!(
                "{w:<20} {name:<17} {:>11.4} {:>11.4} {:>11.4}  {diff:>7.4}  {bound:>5.2}  {seed_diff:>7.4}{verdict}",
                v[0], v[1], v[2]
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    if a.check_repeat {
        return check_repeat(&a);
    }
    if let Some(w) = &a.workload {
        let (line, ok) = run_here(&a, w)?;
        println!("{line}");
        return Ok(ok);
    }
    let mut ok = true;
    for w in WORKLOADS {
        let (line, parsed) = run_child(&a, w, a.seed)?;
        println!("{line}");
        ok &= parsed.get("correct") == Some(&Json::Bool(true));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bdbms-benchmark: FAILED (wrong answers, failed operations or unrepeatable metrics)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bdbms-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
