//! `ort` — command-line driver for the optimal-routing-tables library.
//!
//! ```text
//! ort certify <n> <seed>                  check Lemmas 1-3 + compressibility
//! ort build   <scheme> <n> <seed>         build a scheme, print size & stretch
//! ort route   <scheme> <n> <seed> <s> <t> route one message, print the path
//! ort profile <scheme> [--n N] [--seed S] [--mem]
//!                                         instrumented run: spans + bit accounting,
//!                                         --mem audits measured vs claimed memory
//! ort save    <scheme> <n> <seed> <file>  write a scheme snapshot
//! ort load    <file> <src> <dst>          route one message from a snapshot
//! ort conformance [out.json]              run the full conformance suite
//! ort resilience  [--verbose] [out.json]  fault-intensity sweep over all schemes
//! ort churn [--out p] [--max-n N]         continuous-churn repair sweep
//! ort trace <scheme> --n N --seed S [--src A --dst B | --worst]
//!                                         capture one walk, explain its stretch
//! ort report [--dir d] [--out p] [--baseline p]
//!                                         the regression gate: check table over
//!                                         results/ plus fresh bit, memory and
//!                                         repair probes
//! ort schemes                             list available schemes
//! ort --version                           build info (features, telemetry state)
//! ```
//!
//! Graphs are seeded `G(n, 1/2)` samples, so every invocation is
//! reproducible. Speed is measured by the benchmark of record,
//! `examples/ortbench`, not by a subcommand here. Set
//! `ORT_TELEMETRY=summary` (or `jsonl:<path>`, `folded:<path>`) to
//! attach telemetry sinks to any subcommand; every exit path — success
//! or error — flushes them.

use std::process::ExitCode;

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::oracle::Distances;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::graphs::random_props::RandomnessReport;
use optimal_routing_tables::graphs::{generators, Graph};
use optimal_routing_tables::kolmogorov::deficiency::CompressorSuite;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::{manifest, profile};

fn build_scheme(
    name: &str,
    g: &Graph,
    dists: &dyn Distances,
) -> Result<Box<dyn RoutingScheme>, String> {
    SchemeId::from_name(name)
        .ok_or_else(|| format!("unknown scheme '{name}'; try `ort schemes`"))?
        .build_with_dists(g, dists)
        .map_err(|e| e.to_string())
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  ort certify <n> <seed>");
    eprintln!("  ort build   <scheme> <n> <seed>");
    eprintln!("  ort route   <scheme> <n> <seed> <src> <dst>");
    eprintln!("  ort profile <scheme> [--n N] [--seed S] [--mem]  (default n=128 seed=1)");
    eprintln!("  ort save    <scheme> <n> <seed> <file>   (snapshot-capable schemes)");
    eprintln!("  ort load    <file> <src> <dst>");
    eprintln!("  ort conformance [out.json]               (default results/CONFORMANCE.json)");
    eprintln!("  ort resilience [--verbose] [out.json]    (default results/RESILIENCE.json)");
    eprintln!("  ort churn   [--out p] [--max-n N]        (default results/CHURN.json, max-n 1024)");
    eprintln!("  ort trace   <scheme> [--n N] [--seed S] (--src A --dst B | --worst)");
    eprintln!("  ort report  [--dir d] [--out p] [--baseline p]");
    eprintln!("                                           (default results/ -> results/REPORT.json)");
    eprintln!("  ort schemes");
    eprintln!("  ort --version");
    ExitCode::FAILURE
}

fn snapshot_kind(name: &str) -> Option<optimal_routing_tables::routing::snapshot::SchemeKind> {
    SchemeId::from_name(name).and_then(SchemeId::snapshot_kind)
}

/// `--flag value` pairs and the remaining positionals, in order.
type ParsedArgs = (Vec<(String, String)>, Vec<String>);

/// Pulls `--flag value` out of `args`, returning the remaining
/// positionals. Unknown `--flags` are an error.
fn parse_flags(args: &[String], flags: &[&str]) -> Result<ParsedArgs, String> {
    let mut values = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !flags.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            values.push((name.to_string(), v.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((values, positional))
}

/// Packs a snapshot to bytes: 8-byte little-endian bit count, then the
/// bits MSB-first within each byte.
fn bits_to_bytes(bits: &optimal_routing_tables::bitio::BitVec) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + bits.len() / 8 + 1);
    out.extend_from_slice(&(bits.len() as u64).to_le_bytes());
    let mut acc = 0u8;
    let mut filled = 0u8;
    for b in bits.iter() {
        acc = (acc << 1) | u8::from(b);
        filled += 1;
        if filled == 8 {
            out.push(acc);
            acc = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        out.push(acc << (8 - filled));
    }
    out
}

fn bytes_to_bits(data: &[u8]) -> Result<optimal_routing_tables::bitio::BitVec, String> {
    if data.len() < 8 {
        return Err("snapshot file too short".into());
    }
    let len = u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) as usize;
    if data.len() < 8 + len.div_ceil(8) {
        return Err("snapshot file truncated".into());
    }
    let mut bits = optimal_routing_tables::bitio::BitVec::with_capacity(len);
    for i in 0..len {
        let byte = data[8 + i / 8];
        bits.push((byte >> (7 - (i % 8))) & 1 == 1);
    }
    Ok(bits)
}

fn parse<T: std::str::FromStr>(s: Option<&String>, what: &str) -> Result<T, String> {
    s.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("invalid {what}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schemes") => {
            for id in SchemeId::ALL {
                println!("{}", id.name());
            }
            Ok(())
        }
        Some("--version" | "version") => {
            println!("{}", manifest::build_info());
            Ok(())
        }
        Some("report") => {
            use optimal_routing_tables::report;
            let (flags, positional) = parse_flags(&args[1..], &["dir", "out", "baseline"])?;
            if !positional.is_empty() {
                return Err(format!("unexpected argument '{}'", positional[0]));
            }
            let mut opts = report::ReportOptions::default();
            for (flag, value) in flags {
                match flag.as_str() {
                    "dir" => opts.dir = value,
                    "out" => opts.out = value,
                    "baseline" => opts.baseline = Some(value),
                    _ => unreachable!("parse_flags filters"),
                }
            }
            let outcome = report::run(&opts)?;
            print!("{}", outcome.table);
            println!("wrote {}", opts.out);
            if outcome.problems.is_empty() {
                println!("report: PASS");
                Ok(())
            } else {
                for p in &outcome.problems {
                    eprintln!("regression: {p}");
                }
                // A gate failure is exactly the moment a post-mortem
                // matters: freeze the flight recorder's recent history.
                optimal_routing_tables::telemetry::recorder::anomaly(
                    "report_failure",
                    outcome.problems.len() as u64,
                    0,
                );
                Err(format!("report: FAIL ({} regressions)", outcome.problems.len()))
            }
        }
        Some("profile") => {
            let name = args.get(1).ok_or("missing scheme")?.clone();
            // `--mem` is a bare flag; strip it before the `--flag value`
            // parser sees the rest.
            let mem = args[2..].iter().any(|a| a == "--mem");
            let rest: Vec<String> = args[2..].iter().filter(|a| *a != "--mem").cloned().collect();
            let (flags, positional) = parse_flags(&rest, &["n", "seed"])?;
            if !positional.is_empty() {
                return Err(format!("unexpected argument '{}'", positional[0]));
            }
            let mut n = 128usize;
            let mut seed = 1u64;
            for (flag, value) in flags {
                match flag.as_str() {
                    "n" => n = value.parse().map_err(|_| "invalid --n")?,
                    "seed" => seed = value.parse().map_err(|_| "invalid --seed")?,
                    _ => unreachable!("parse_flags filters"),
                }
            }
            let report = profile::run_profile(&name, n, seed, mem)?;
            print!("{}", report.text);
            Ok(())
        }
        Some("certify") => {
            let n: usize = parse(args.get(1), "n")?;
            let seed: u64 = parse(args.get(2), "seed")?;
            let g = generators::gnp_half(n, seed);
            let report = RandomnessReport::evaluate(&g, 3.0);
            let suite = CompressorSuite::standard();
            println!("G({n}, 1/2) seed {seed}: {} edges", g.edge_count());
            println!("lemma 1 (degree ±{:.1} vs scale {:.1}): {}",
                report.degree.max_deviation, report.degree.lemma_scale, report.degree.holds);
            println!("lemma 2 (diameter 2): {} (diameter = {:?})", report.diameter_two, report.diameter);
            println!(
                "lemma 3 (dominating prefix {:?} vs budget {:.1}): {}",
                report.cover.max_prefix, report.cover.budget, report.cover.holds
            );
            println!("deficiency estimate: {} bits", suite.graph_deficiency(&g));
            println!(
                "verdict: {}",
                if report.all_hold() { "operationally Kolmogorov random — all theorems apply" }
                else { "NOT random enough — compact schemes may refuse this graph" }
            );
            Ok(())
        }
        Some("build") => {
            let name = args.get(1).ok_or("missing scheme")?.clone();
            let n: usize = parse(args.get(2), "n")?;
            let seed: u64 = parse(args.get(3), "seed")?;
            let g = generators::gnp_half(n, seed);
            let dists = Apsp::compute(&g);
            let scheme = build_scheme(&name, &g, &dists)?;
            println!("{name} on G({n}, 1/2) seed {seed} [model {}]", scheme.model());
            println!("total size: {} bits ({:.2} bits/n²)",
                scheme.total_size_bits(),
                scheme.total_size_bits() as f64 / (n * n).max(1) as f64);
            let mut sizes: Vec<usize> = (0..n).map(|u| scheme.charged_size_bits(u)).collect();
            sizes.sort_unstable();
            if let (Some(min), Some(max)) = (sizes.first(), sizes.last()) {
                println!("per node: min {min} / median {} / max {max}", sizes[n / 2]);
            }
            let report = verify::verify(&g, scheme.as_ref(), &dists, if n >= 256 { 7 } else { 1 })
                .map_err(|e| e.to_string())?;
            println!(
                "verification: {} pairs, {} failures, max stretch {:?}",
                report.delivered,
                report.failures.len(),
                report.max_stretch()
            );
            Ok(())
        }
        Some("route") => {
            let name = args.get(1).ok_or("missing scheme")?.clone();
            let n: usize = parse(args.get(2), "n")?;
            let seed: u64 = parse(args.get(3), "seed")?;
            let s: usize = parse(args.get(4), "src")?;
            let t: usize = parse(args.get(5), "dst")?;
            if s >= n || t >= n {
                return Err(format!("node ids must be below n = {n}"));
            }
            let g = generators::gnp_half(n, seed);
            let scheme = build_scheme(&name, &g, &Apsp::compute(&g))?;
            let path = verify::route_pair(scheme.as_ref(), s, t, verify::default_hop_limit(n))
                .map_err(|e| e.to_string())?;
            println!("{s} → {t} via {name}: {path:?} ({} hops)", path.len() - 1);
            Ok(())
        }
        Some("save") => {
            let name = args.get(1).ok_or("missing scheme")?.clone();
            let n: usize = parse(args.get(2), "n")?;
            let seed: u64 = parse(args.get(3), "seed")?;
            let file = args.get(4).ok_or("missing file")?;
            let kind = snapshot_kind(&name)
                .ok_or_else(|| format!("scheme '{name}' does not support snapshots"))?;
            let g = generators::gnp_half(n, seed);
            let scheme = build_scheme(&name, &g, &Apsp::compute(&g))?;
            let snap = optimal_routing_tables::routing::snapshot::save(kind, scheme.as_ref())
                .map_err(|e| e.to_string())?;
            std::fs::write(file, bits_to_bytes(&snap)).map_err(|e| e.to_string())?;
            println!("wrote {} ({} bits of snapshot, {} bits of tables)",
                file, snap.len(), scheme.total_size_bits());
            Ok(())
        }
        Some("load") => {
            let file = args.get(1).ok_or("missing file")?;
            let s: usize = parse(args.get(2), "src")?;
            let t: usize = parse(args.get(3), "dst")?;
            let data = std::fs::read(file).map_err(|e| e.to_string())?;
            let bits = bytes_to_bits(&data)?;
            let scheme = optimal_routing_tables::routing::snapshot::load(&bits)
                .map_err(|e| e.to_string())?;
            let n = scheme.node_count();
            if s >= n || t >= n {
                return Err(format!("node ids must be below n = {n}"));
            }
            let path = verify::route_pair(scheme.as_ref(), s, t, verify::default_hop_limit(n))
                .map_err(|e| e.to_string())?;
            println!(
                "loaded scheme on {n} nodes [model {}]; {s} → {t}: {path:?}",
                scheme.model()
            );
            Ok(())
        }
        Some("conformance") => {
            use optimal_routing_tables::conformance::report;
            let out = args
                .get(1)
                .map_or("results/CONFORMANCE.json", String::as_str);
            let config = report::Config::default();
            let result = report::run(&config, |line| println!("{line}"))?;
            let join = |xs: &[u64]| {
                xs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
            };
            let info = manifest::RunInfo::new(
                "conformance",
                format!(
                    "exhaustive_n={} sweep_sizes={} fuzz_per_kind={} bound_sizes={}",
                    config.exhaustive_n,
                    config.sweep_sizes.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
                    config.fuzz_per_kind,
                    config.bound_sizes.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
                ),
                format!("{},{}", join(&config.sweep_seeds), join(&config.bound_seeds)),
            );
            manifest::write_stamped(out, &report::to_json(&result), &info)?;
            println!("wrote {out}");
            if result.pass() {
                println!("conformance: PASS");
                Ok(())
            } else {
                for v in &result.violations {
                    eprintln!("violation: {v}");
                }
                Err(format!("conformance: FAIL ({} violations)", result.violations.len()))
            }
        }
        Some("resilience") => {
            use optimal_routing_tables::sweep;
            let verbose = args.iter().any(|a| a == "--verbose");
            let out = args[1..]
                .iter()
                .find(|a| !a.starts_with("--"))
                .map_or("results/RESILIENCE.json", String::as_str);
            let outcome = sweep::resilience_sweep(verbose, |line| println!("{line}"))?;
            manifest::write_stamped(out, &outcome.report, &sweep::run_info())?;
            println!("wrote {out}");
            if let Some(diagnostics) = &outcome.diagnostics {
                let diag_out = sweep::diagnostics_path(out);
                manifest::write_stamped(&diag_out, diagnostics, &sweep::diagnostics_info())?;
                println!("wrote {diag_out}");
            }
            if outcome.violations.is_empty() {
                println!("resilience: PASS");
                Ok(())
            } else {
                for v in &outcome.violations {
                    eprintln!("violation: {v}");
                }
                Err(format!("resilience: FAIL ({} violations)", outcome.violations.len()))
            }
        }
        Some("churn") => {
            use optimal_routing_tables::churn;
            let (flags, positional) = parse_flags(&args[1..], &["out", "max-n"])?;
            if positional.len() > 1 {
                return Err(format!("unexpected argument '{}'", positional[1]));
            }
            let mut opts = churn::ChurnOptions::default();
            if let Some(p) = positional.first() {
                opts.out_path = p.clone();
            }
            for (flag, value) in &flags {
                match flag.as_str() {
                    "out" => opts.out_path = value.clone(),
                    "max-n" => opts.max_n = value.parse().map_err(|_| "invalid --max-n")?,
                    _ => unreachable!("parse_flags filters"),
                }
            }
            let outcome = churn::churn_sweep(&opts, |line| println!("{line}"))?;
            manifest::write_stamped(&opts.out_path, &outcome.report, &churn::run_info(&opts))?;
            println!("wrote {}", opts.out_path);
            if outcome.violations.is_empty() {
                println!("churn: PASS");
                Ok(())
            } else {
                for v in &outcome.violations {
                    eprintln!("violation: {v}");
                }
                Err(format!("churn: FAIL ({} violations)", outcome.violations.len()))
            }
        }
        Some("trace") => {
            use optimal_routing_tables::trace::{run_trace, TraceTarget};
            let name = args.get(1).ok_or("missing scheme")?.clone();
            // `--worst` is a bare flag; strip it before the `--flag value`
            // parser sees the rest.
            let worst = args[2..].iter().any(|a| a == "--worst");
            let rest: Vec<String> = args[2..].iter().filter(|a| *a != "--worst").cloned().collect();
            let (flags, positional) = parse_flags(&rest, &["n", "seed", "src", "dst"])?;
            if !positional.is_empty() {
                return Err(format!("unexpected argument '{}'", positional[0]));
            }
            let mut n = 64usize;
            let mut seed = 1u64;
            let mut src = None;
            let mut dst = None;
            for (flag, value) in &flags {
                match flag.as_str() {
                    "n" => n = value.parse().map_err(|_| "invalid --n")?,
                    "seed" => seed = value.parse().map_err(|_| "invalid --seed")?,
                    "src" => src = Some(value.parse().map_err(|_| "invalid --src")?),
                    "dst" => dst = Some(value.parse().map_err(|_| "invalid --dst")?),
                    _ => unreachable!("parse_flags filters"),
                }
            }
            let target = match (worst, src, dst) {
                (true, None, None) => TraceTarget::Worst,
                (false, Some(s), Some(t)) => TraceTarget::Pair(s, t),
                (true, _, _) => return Err("--worst excludes --src/--dst".into()),
                _ => return Err("need --src A --dst B, or --worst".into()),
            };
            print!("{}", run_trace(&name, n, seed, target)?);
            Ok(())
        }
        _ => {
            usage();
            Err(String::new())
        }
    }
}

fn main() -> ExitCode {
    // A panic anywhere below dumps the flight recorder's recent events
    // to stderr (and any postmortem: sink) before the process dies.
    optimal_routing_tables::telemetry::recorder::install_panic_hook();
    let cmd = std::env::args().nth(1).unwrap_or_default();
    let code = match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One error shape for every subcommand: `ort <cmd>: error: …`
            // on stderr, non-zero exit. An empty message means usage was
            // already printed.
            if !e.is_empty() {
                eprintln!("ort {cmd}: error: {e}");
            }
            ExitCode::FAILURE
        }
    };
    // Telemetry sinks flush on every exit path, so a failing run still
    // ships its spans and counters (summary on stderr, files otherwise).
    optimal_routing_tables::telemetry::flush();
    code
}
