//! The COSMO benchmark: one command, three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-hot|serve-churn|offline-build --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The human-readable report comes first;
//! the last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Scratch files go to `.cosmo_bench_work/` under the
//! working directory. See `benchmark/README.md` for what each workload
//! and metric means.

mod affinity;
mod gen;
mod offline;
mod report;
mod serve;
mod trace;

use report::Report;
use serve::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, Recorder};

/// Serving set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Scratch directory, relative to the working directory.
const WORK_DIR: &str = ".cosmo_bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["serve-hot", "serve-churn", "offline-build"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// Run metadata every record carries.
fn metadata(report: &mut Report, args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.line(format!(
        "cosmo-benchmark workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    report.line(format!(
        "  git_rev={} cores={cores} features=default rustc=\"{}\" profile={}",
        env!("BENCH_GIT_REV"),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_PROFILE")
    ));
    report.line(format!(
        "  rate ladder {} * {}^k req/s (k < {}), reference rate {} req/s, latency limit p99 <= {} us, \
         batch cadence {} ms, reload cadence {} s, {} connections / {} client threads",
        serve::LADDER_BASE,
        serve::LADDER_RATIO,
        serve::LADDER_STEPS,
        serve::REF_RATE,
        serve::LAT_LIMIT_US,
        serve::BATCH_CADENCE.as_millis(),
        serve::RELOAD_EVERY_S,
        serve::CONNS,
        serve::CONNS
    ));
    report.line(format!("  {:?}", cosmo_serving::ServingConfig::default()));
    report.line(format!("  {:?}", cosmo_http::ServerConfig::default()));
}

/// Peak resident set so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One timed serving set-up.
fn timed_setup(args: &Args, work: &Path, tag: usize) -> Result<(serve::Stack, f64), String> {
    let t = Instant::now();
    let stack = serve::setup(args.seed, work, tag)?;
    Ok((stack, t.elapsed().as_secs_f64()))
}

/// Report `setup_s` as the median of the measured set-up and
/// [`SETUP_REPS`]` - 1` more, made after the workload so that their
/// leftovers do not reach the workload's peak RSS.
fn report_setups(args: &Args, work: &Path, first: f64, report: &mut Report) -> Result<(), String> {
    let mut times = vec![first];
    if !args.trace {
        for tag in 1..SETUP_REPS {
            let (stack, secs) = timed_setup(args, work, tag)?;
            stack.shutdown();
            times.push(secs);
        }
    }
    report.metric(
        "setup_s",
        Some(median(&times)),
        "s",
        &format!("median of {} set-ups: {times:.3?}", times.len()),
    );
    report.set("setup_s", median(&times));
    Ok(())
}

fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let rec = Recorder::new();
    match (args.workload.as_str(), args.trace) {
        ("offline-build", false) => offline::run(args.seed, work, args.seconds, report),
        ("offline-build", true) => offline::traced(args.seed, work, args.seconds, &rec, report),
        ("serve-hot", _) => run_serving(args, work, Workload::Hot, &rec, report)?,
        _ => run_serving(args, work, Workload::Churn, &rec, report)?,
    }
    if args.trace {
        let spans = rec.spans();
        report.set("trace.spans", spans.len() as f64);
        report.line(format!("self time by span ({} spans):", spans.len()));
        for (name, (count, total, own)) in trace::by_name(&spans) {
            report.line(format!(
                "  {name:<28} n={count:<7} total {:>12.3} ms  self {:>12.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, trace::to_jsonl(&spans)).map_err(|e| format!("write trace: {e}"))?;
        report.line(format!("spans written to {}", path.display()));
    }
    Ok(())
}

/// A serving workload: set-up, its window(s), then output checks (and,
/// traced, the layer replays). The peak RSS is read before the checks
/// and replays, which allocate on the benchmark's behalf.
fn run_serving(
    args: &Args,
    work: &Path,
    workload: Workload,
    rec: &Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let (stack, setup_secs) = timed_setup(args, work, 0)?;
    let stats = &stack.freeze.stats;
    report.line(format!(
        "  mid world: {} nodes / {} edges / {:.1} MB v2 ({} spill runs)",
        stats.nodes,
        stats.edges,
        stats.file_bytes as f64 / 1e6,
        stats.spill_runs
    ));
    let hot = workload == Workload::Hot;
    // the windows run with every thread on one CPU (see affinity.rs);
    // set-ups keep every CPU
    let pin = affinity::Pinned::new();
    report.line(match &pin {
        Some(p) => format!(
            "  windows pinned: every thread on cpu {}, idle keeper {}",
            p.cpu,
            if p.keeper_on { "on" } else { "off" }
        ),
        None => "  windows unpinned".to_string(),
    });
    if args.trace {
        if hot {
            // a discarded first window, so the untraced/traced pair
            // compares two warm windows
            serve::window(&stack, args.seed, 1.0, workload, None);
        }
        let untraced = serve::window(&stack, args.seed, args.seconds, workload, None);
        let traced = serve::window(&stack, args.seed, args.seconds, workload, Some(rec));
        report.set("peak_rss_mb", peak_rss_mb());
        let (base, with) = (untraced.primary_us(workload), traced.primary_us(workload));
        report.set("trace.untraced_us", base);
        report.set("trace.traced_us", with);
        report.set("trace.overhead_frac", (with - base) / base);
        report.line(format!(
            "tracing overhead: primary latency p50 {with:.2} us traced vs {base:.2} us untraced \
             ({:.4} of the untraced value)",
            (with - base) / base
        ));
        serve::report_window_of(workload, &stack, &traced, report);
        serve::replay_layers(&stack, &traced, rec, report, !hot);
    } else {
        // serve-hot splits its time: 55 % reference window, 45 % goodput
        let secs = if hot {
            (args.seconds * 0.55).max(1.0)
        } else {
            args.seconds
        };
        let w = serve::window(&stack, args.seed, secs, workload, None);
        if hot {
            // goodput before the checks: the hot cache state the body
            // check relies on does not change under hits
            serve::report_goodput(&stack, args.seed, args.seconds - secs, report);
        }
        report.set("peak_rss_mb", peak_rss_mb());
        serve::report_window_of(workload, &stack, &w, report);
    }
    drop(pin);
    stack.shutdown();
    report_setups(args, work, setup_secs, report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload serve-hot|serve-churn|offline-build --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("benchmark/Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (benchmark/ and crates/ must be present)");
        return ExitCode::from(2);
    }
    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    metadata(&mut report, &args);
    let result = run(&args, &work, &mut report);
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    let peak = report.get("peak_rss_mb");
    report.metric(
        "peak_rss_mb",
        peak,
        "MB",
        "VmHWM through one set-up and the workload",
    );
    for line in &report.lines {
        println!("{line}");
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}
