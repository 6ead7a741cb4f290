//! One benchmark for the whole record path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_mixed --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every run drives four phases, each through the layers' public
//! functions only:
//!
//! * `rpc`: instrumented Echo calls through the ORB (probes, sink, ORB);
//! * `ingest`: a closed loop into `LiveMonitor::ingest_batch_at`;
//! * `mixed`: an open loop appending to a segment and ingesting on the
//!   real clock, with one reader thread querying the HTTP endpoint;
//! * `offline`: sealed segment bytes to the CCSG.
//!
//! The measured time is cut into [`trace::ROUNDS`] rounds, each running
//! all four phases in turn, because a run must report every end-to-end
//! metric whatever its workload. The live phases always replay PPS-shaped
//! chains, with damaged chains and slow-tail episodes that fire an alert
//! and a burn rule. A workload picks the offline phase's input and the
//! phase that gets most of each round:
//!
//! * `live_mixed`: most time in `mixed`; the offline phase analyses the
//!   PPS stream.
//! * `offline_analyze`: most time in `offline`, which analyses 195k calls
//!   wired like the repository's `CommercialSystem`.
//!
//! With `--trace 1` every timed call is also kept as a span, the spans are
//! written to `.bench_out/`, and the run reports the per-layer metrics
//! instead of the end-to-end ones. The last line of standard output is
//! the run's JSON result.

mod gen;
mod http;
mod live;
mod offline;
mod report;
mod rpc;
mod trace;

use gen::{PpsShape, Stream};
use live::{ClosedLoop, Mixed};
use offline::Offline;
use report::{Metric, Report};
use rpc::{Rig, RpcPhase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Rpc,
    Ingest,
    Mixed,
    Offline,
}

/// Share of `--seconds` each phase gets, in the order a round runs them;
/// the workload's primary phase gets [`PRIMARY_EXTRA`] on top.
const SHARES: [(Phase, f64); 4] = [
    (Phase::Rpc, 0.10),
    (Phase::Ingest, 0.20),
    (Phase::Mixed, 0.25),
    (Phase::Offline, 0.15),
];
const PRIMARY_EXTRA: f64 = 0.30;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Workload name and primary phase.
const WORKLOADS: [(&str, Phase); 2] = [
    ("live_mixed", Phase::Mixed),
    ("offline_analyze", Phase::Offline),
];

/// PPS print jobs per stream: about 196k records.
const PPS_JOBS: u64 = 3_500;
/// Calls in the commercial-shaped stream: the paper's largest run.
const COMMERCIAL_CALLS: u64 = 195_000;

struct Args {
    workload: &'static str,
    primary: Phase,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.0 == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let &(workload, primary) = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(45.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        primary,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn phase_time(args: &Args, phase: Phase) -> Duration {
    let base = SHARES.iter().find(|s| s.0 == phase).map_or(0.0, |s| s.1);
    let extra = if phase == args.primary {
        PRIMARY_EXTRA
    } else {
        0.0
    };
    Duration::from_secs_f64(args.seconds * (base + extra))
}

/// Everything the phases need, built before any timing starts.
struct Setup {
    rig: Rig,
    live: Stream,
    /// The offline phase's input, when it is not `live`.
    offline: Option<Stream>,
    segment: Vec<u8>,
    closed: ClosedLoop,
    mixed: Mixed,
}

fn setup(
    args: &Args,
    out: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> std::io::Result<Setup> {
    let rig = Rig::build(true);
    let wrong = rig.warm_up();
    report.fail_ops(
        wrong,
        format!("setup: {wrong} warm-up replies did not echo"),
    );
    // One job in 50 damaged; a quarter of every pass slow on rasterize.
    let shape = PpsShape {
        jobs: PPS_JOBS,
        damage_every: 50,
        episode_period: PPS_JOBS,
        episode_len: PPS_JOBS / 4,
    };
    let live = gen::pps(args.seed, shape);
    let offline =
        (args.primary == Phase::Offline).then(|| gen::commercial(args.seed, COMMERCIAL_CALLS));
    let pid = std::process::id();
    let segment = offline::write_segment(
        offline.as_ref().unwrap_or(&live),
        &out.join(format!("offline-{pid}.cwseg")),
        tracer,
    )?;
    let closed = ClosedLoop::setup(&live);
    let mixed = Mixed::setup(&live, out.join(format!("mixed-{pid}")))?;
    Ok(Setup {
        rig,
        live,
        offline,
        segment,
        closed,
        mixed,
    })
}

/// The machine and build a result came from.
fn stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let run = |cmd: &str, args: &[&str]| {
        let cwd = std::env::current_dir().unwrap_or_default();
        std::process::Command::new(cmd)
            .args(args)
            // Never report the rev of a repository that merely encloses
            // this checkout.
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    format!(
        "cores={cores} profile={profile} git_rev={} rustc=\"{}\"",
        run("git", &["rev-parse", "--short=12", "HEAD"]),
        run("rustc", &["--version"]),
    )
}

/// High-water resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cost of recording one span, measured by recording `n` spans on a
/// scratch tracer, so the cost of growing a span buffer as large as the
/// run's is included.
fn span_cost_ns(n: usize) -> f64 {
    let mut scratch = Tracer::new(true, Instant::now(), 0);
    let started = Instant::now();
    for i in 0..n as u64 {
        let open = scratch.begin("calibrate", 0, i);
        scratch.end(open, 1);
    }
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a non-finite value already fails the run.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {:<34} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <live_mixed|offline_analyze> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let stamp = stamp();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {stamp}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin, 1);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            let Setup { rig, mixed, .. } = old;
            rig.shutdown();
            mixed.close(&mut report);
        }
        let started = Instant::now();
        match setup(&args, &out, &mut tracer, &mut report) {
            Ok(s) => built = Some(s),
            Err(e) => {
                eprintln!("perfbench: setup failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Setup {
        rig,
        live,
        offline,
        segment,
        mut closed,
        mut mixed,
    } = built.expect("SETUPS > 0");
    let offline = offline.as_ref().unwrap_or(&live);
    report.e2e_timing("setup_s", median(&setup_s), "s", setup_s.len());

    let measured = Instant::now();
    let mut rpc = RpcPhase::default();
    let mut analysis = Offline::default();
    // A phase that overran its share of one round gets that much less of
    // the next, so a whole pass longer than a round's share still leaves
    // each phase its share of the run.
    let mut spent = [Duration::ZERO; SHARES.len()];
    for k in 1..=trace::ROUNDS as u32 {
        for (i, &(phase, _)) in SHARES.iter().enumerate() {
            let due = phase_time(&args, phase) * k / trace::ROUNDS as u32;
            let budget = due.saturating_sub(spent[i]);
            let started = Instant::now();
            match phase {
                Phase::Rpc => rpc.round(&rig, budget, &mut tracer),
                Phase::Ingest => closed.round(&live, budget, &mut tracer),
                Phase::Mixed => mixed.round(&live, budget, &mut tracer, &mut report),
                Phase::Offline => {
                    analysis.round(&segment, offline, budget, &mut tracer, &mut report)
                }
            }
            spent[i] += started.elapsed();
        }
    }
    let measured_s = measured.elapsed().as_secs_f64();
    rpc.finish(&rig, &mut tracer, &mut report);
    rig.shutdown();
    closed.finish(&live, &mut tracer, &mut report);
    mixed.finish(&live, &mut report);
    analysis.finish(&segment, offline, &mut tracer, &mut report);
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
    report.end_to_end.sort_by_key(|m| m.name.clone());

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        rpc::layer_metrics(&tracer, &mut report);
        live::layer_metrics(&tracer, &mut report);
        offline::layer_metrics(&tracer, &mut report);
        // An estimate, not traced minus untraced end-to-end figures: those
        // differ between two runs by the host's drift (±10–25% on a shared
        // 2-vCPU VM), which buries an overhead well under 1%. A traced run
        // still prints its end-to-end figures for that comparison.
        let spans = tracer.spans().len();
        let cost = span_cost_ns(spans);
        let overhead = spans as f64 * cost / (measured_s * 1e9) * 100.0;
        report.layer("trace.overhead_pct", overhead, "%");
        report.layers.sort_by_key(|m| m.name.clone());
        let path = out.join(format!("spans-{}.csv", args.workload));
        let written = std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                tracer
                    .write_csv(&mut f)
                    .and_then(|()| std::io::Write::flush(&mut f))
            });
        report.check(
            written.is_ok(),
            format!("cannot write {}: {written:?}", path.display()),
        );
        println!(
            "tracing: {spans} spans at {cost:.1} ns each, {overhead:.2}% of the measured time; \
             spans in {}",
            path.display()
        );
        println!(
            "coverage: timed layer calls are {:.1}% of the live ingest loop and {:.1}% of the \
             offline passes",
            report
                .layer_value("coverage.live_ingest_share")
                .unwrap_or(0.0)
                * 100.0,
            report.layer_value("coverage.offline_share").unwrap_or(0.0) * 100.0,
        );
        print_metrics(
            "end-to-end metrics (traced; minus an untraced run = tracing overhead):",
            &report.end_to_end,
        );
        print_metrics("per-layer metrics:", &report.layers);
    } else {
        print_metrics("end-to-end metrics:", &report.end_to_end);
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }

    let shown = if args.trace {
        &report.layers
    } else {
        &report.end_to_end
    };
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = report.problems.is_empty() && report.failed == 0 && finite;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(shown),
    );
    let record = format!(
        "{{\"stamp\": {:?}, \"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"problems\": {:?}, \"end_to_end\": {}, \"per_layer\": {}, \"result\": {result}}}\n",
        stamp,
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        report.problems,
        json_metrics(&report.end_to_end),
        json_metrics(&report.layers),
    );
    if let Err(e) = std::fs::write(out.join(format!("result-{tag}.json")), record) {
        eprintln!("perfbench: cannot write result file: {e}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
