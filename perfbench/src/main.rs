//! The spanners benchmark: two seeded workloads, dense extraction and
//! governed multi-tenant streaming, each checked against a reference
//! computed without the engine under test, plus single-threaded layer
//! probes on traced runs.
//!
//! ```text
//! spanners-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--smoke] [--inject-wrong] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! of `BENCHMARK.json` on an untraced run (`--trace 0`), every per-layer
//! metric on a traced one (`--trace 1`). Lines before it state sample
//! counts, tail levels, checks, gates and the machine descriptor. With
//! `--out`, the run also writes its result and its spans there.
//!
//! The process exits with 1 when an output disagrees with its reference or
//! a paper-claim gate fails, and with 2 on a usage or set-up error.

mod dense_extract;
mod density_probes;
mod harness;
mod metrics;
mod reference;
mod slp_probes;
mod stats;
mod stream_tenants;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::Config;
use metrics::{num, string, Outcome};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["dense-extract", "stream-tenants"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    cfg: Config,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut inject_wrong = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--inject-wrong" => inject_wrong = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            inject_wrong,
            nproc,
        },
        out,
    })
}

/// Runs one workload.
pub fn run_workload(
    workload: &str,
    cfg: &Config,
    tracer: &Tracer,
) -> Result<Outcome, spanners::SpannerError> {
    let mut out = match workload {
        "dense-extract" => dense_extract::run(cfg, tracer)?,
        "stream-tenants" => stream_tenants::run(cfg, tracer)?,
        other => unreachable!("workload {other} was validated by the parser"),
    };
    out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    if cfg.trace {
        out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    }
    Ok(out)
}

/// The machine descriptor stored with every result.
fn descriptor(workload: &str, cfg: &Config, out: &Outcome) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"threads\": {}}}",
        string(workload),
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        cfg.nproc,
        string(&cpu),
        string(&env("PERFBENCH_RUSTC")),
        string(&env("PERFBENCH_COMMIT")),
        string(&out.threads)
    )
}

/// Writes the full result (descriptor, metrics, gates, notes, span
/// aggregates) and the raw spans under `dir`.
fn write_results(
    dir: &std::path::Path,
    workload: &str,
    cfg: &Config,
    out: &Outcome,
    tracer: &Tracer,
    descriptor: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let mut doc =
        format!("{{\n\"descriptor\": {descriptor},\n\"result\": {},\n", out.result_json(cfg.trace));
    doc.push_str("\"gates\": [");
    for (i, g) in out.gates.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            doc,
            "{sep}{{\"metric\": {}, \"value\": {}, \"lo\": {}, \"hi\": {}, \"passed\": {}}}",
            string(g.metric),
            num(g.value),
            num(g.lo),
            num(g.hi),
            g.passed()
        );
    }
    doc.push_str("],\n\"notes\": [");
    for (i, n) in out.notes.iter().enumerate() {
        let sep = if i > 0 { ",\n  " } else { "\n  " };
        let _ = write!(doc, "{sep}{}", string(n));
    }
    doc.push_str("],\n\"span_totals\": {");
    for (i, (name, a)) in tracer.aggregates().iter().enumerate() {
        let sep = if i > 0 { ",\n  " } else { "\n  " };
        let _ = write!(
            doc,
            "{sep}{}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"work\": {}}}",
            string(name),
            a.count,
            a.total_ns,
            a.self_ns,
            a.work
        );
    }
    doc.push_str("}\n}\n");
    std::fs::write(dir.join(format!("{stem}.json")), doc)?;
    if tracer.enabled() {
        std::fs::write(dir.join(format!("{stem}-spans.json")), tracer.spans_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.cfg.trace);
    let out = match run_workload(&args.workload, &args.cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed to set up: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let desc = descriptor(&args.workload, &args.cfg, &out);
    for note in &out.notes {
        println!("# {note}");
    }
    for g in &out.gates {
        println!(
            "# gate {}: {} in [{}, {}] {}",
            g.metric,
            num(g.value),
            num(g.lo),
            num(g.hi),
            if g.passed() { "passed" } else { "FAILED" }
        );
    }
    println!("# descriptor {desc}");
    if let Some(dir) = &args.out {
        if let Err(e) = write_results(dir, &args.workload, &args.cfg, &out, &tracer, &desc) {
            eprintln!("warning: could not write results to {}: {e}", dir.display());
        }
    }
    println!("{}", out.result_json(args.cfg.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
