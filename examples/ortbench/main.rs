//! `ortbench`: the repository's end-to-end benchmark of record — set-up,
//! route, verify, restart and repair — over four workloads, with a traced
//! run that breaks each phase into per-layer rows.
//!
//! ```text
//! ortbench --workload <name> [--seed <s>] [--trace [0|1]] [--seconds <s>] [--out <dir>]
//! ortbench --all [--seed <s>] [--trace [0|1]] [--seconds <s>] [--out <dir>]
//! ortbench --compare <dirA> <dirB>
//! ```
//!
//! Load model: closed loop, one client, no think time, one process, one
//! thread (`ORT_THREADS=1` is pinned). See `README.md` beside this file.
//!
//! `--seconds` and `--trace 0|1` are how a runner of `BENCHMARK.json`
//! calls the command: it appends `--workload <w> --seed <s> --seconds
//! <run_seconds> --trace <0|1>`.

mod api;
mod host;
mod measure;
mod report;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: ortbench --workload <name> [--seed <s>] [--trace [0|1]] [--seconds <s>] [--out <dir>]
       ortbench --all [--seed <s>] [--trace [0|1]] [--seconds <s>] [--out <dir>]
       ortbench --compare <dirA> <dirB>";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    trace: bool,
    /// The least time the untraced cycles of a static workload take.
    seconds: f64,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let default_out =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        trace: false,
        seconds: 0.0,
        out: default_out.join("ortbench"),
        compare: None,
    };
    let mut argv = argv.by_ref().peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            "--trace" => {
                args.trace = true;
                if let Some(v) = argv.next_if(|v| v == "0" || v == "1") {
                    args.trace = v == "1";
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ortbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("ortbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("ortbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(3);
    }
    // Single-threaded by design: the numbers must repeat on a shared
    // host. Set before any library call reads it; children inherit it.
    std::env::set_var("ORT_THREADS", "1");
    if args.all {
        return run_all(&args);
    }
    let Some(name) = &args.workload else {
        eprintln!("ortbench: name a --workload, or pass --all or --compare\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(w) = workloads::find(name) else {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("ortbench: unknown workload {name:?}; the workloads are {names:?}");
        return ExitCode::from(2);
    };
    println!(
        "# ortbench {} seed {} ({}): nproc {}, ORT_THREADS=1, {}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        host::nproc(),
        api::build_info()
    );
    let report = if args.trace {
        traced::run(w, args.seed, &args.out)
    } else {
        measure::run(w, args.seed, args.seconds)
    };
    if report.finish(&args.out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Each workload in a fresh child process, so peak RSS is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ortbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in &workloads::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--trace",
                if args.trace { "1" } else { "0" },
                "--seconds",
                &args.seconds.to_string(),
            ])
            .arg("--out")
            .arg(&args.out)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ortbench: failed workloads: {}", failed.join(", "));
        ExitCode::from(1)
    }
}
