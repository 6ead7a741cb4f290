//! The live monitor: a closed loop straight into `ingest_batch_at` on a
//! logical clock, and an open loop that appends each batch to a segment
//! and ingests it on the real clock while one reader thread queries the
//! HTTP endpoint on its own schedule.

use crate::gen::{remap, remap_uuid, Stream};
use crate::http;
use crate::report::Report;
use crate::trace::{median, quantile, Tracer};
use causeway_analyzer::live::{serve, LiveConfig, LiveMonitor, LiveService};
use causeway_analyzer::online::{OnlineAnalyzer, OnlineEvent};
use causeway_collector::json::{self, Json};
use causeway_collector::segment::SegmentWriter;
use causeway_core::ids::LogicalThreadId;
use causeway_core::metrics::MetricsRegistry;
use causeway_core::record::ProbeRecord;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per closed-loop batch.
const CLOSED_BATCH: usize = 1024;
/// Logical time per record in the closed loop: the default 5 s window
/// closes every 100k records.
const NS_PER_RECORD: u64 = 50_000;
/// Records per throughput sample of the closed loop.
const RATE_BLOCK: u64 = 65_536;

/// Open-loop window: short, so windows close many times a second.
const MIXED_WINDOW: Duration = Duration::from_millis(100);
/// A run is invalid when its generator's median lateness exceeds this:
/// it was then behind schedule most of the time, and the offered load
/// lower than stated.
pub const GEN_LATE_BOUND_MS: f64 = 1.0;

/// Reads rotate over these routes.
const ROUTES: [&str; 6] = [
    "latency",
    "metrics",
    "exemplars",
    "dscg",
    "history",
    "flamegraph",
];
/// A `/dscg?chain=` read names a root chain whose last record was fed at
/// least this many records earlier.
const DSCG_LAG_RECORDS: u64 = 1024;

/// Alert and burn rules for streams with slow-tail episodes: a slow
/// `rasterize` stretches the whole job, and exemplars are kept per root
/// series, so the rules watch `submit` (a normal job stays under 2.5 ms).
const ALERT_RULE: &str = "p99:Pps::Stage.submit>2500us;resolve=2ms";
const BURN_RULE: &str = "burn=p99:Pps::Stage.submit>2500us;slo=99;fast=2;slow=10";

/// The open loop's schedule: offered records per second, records per
/// batch, and the reader's period. 128k records/s keeps the generator
/// thread (segment append plus ingest, about 2.5 µs a PPS record on a
/// 2-core host) a third busy, so a stall of the host drains quickly.
const OFFERED_RECORDS_PER_S: f64 = 128_000.0;
const OPEN_BATCH: usize = 256;
const READ_EVERY: Duration = Duration::from_millis(10);

/// A monitor under the default configuration, fed on a logical clock.
pub struct ClosedLoop {
    monitor: LiveMonitor,
    /// Records fed so far; drives the logical clock.
    fed: u64,
    /// Replay passes fed, the warm-up pass included.
    passes: u64,
    /// Window the last batch landed in.
    window: u64,
    /// Records per second of each [`RATE_BLOCK`], and the ingest time and
    /// records of the block being filled, which may span rounds.
    rates: Vec<f64>,
    block: (u64, u64),
    /// Ingest time of batches that did not / did close a window.
    batch_ns: Vec<u64>,
    rollover_ns: Vec<u64>,
    /// Time inside `ingest_batch_at`, and wall time of the rounds.
    ingest_ns: u64,
    wall_ns: u64,
    batches: u64,
}

impl ClosedLoop {
    /// Builds the monitor and warms it with one pass of the stream.
    pub fn setup(stream: &Stream) -> ClosedLoop {
        let monitor = LiveMonitor::new(
            LiveConfig::default(),
            stream.vocab.clone(),
            stream.deployment.clone(),
        );
        let mut closed = ClosedLoop {
            monitor,
            fed: 0,
            passes: 0,
            window: 0,
            rates: Vec::new(),
            block: (0, 0),
            batch_ns: Vec::new(),
            rollover_ns: Vec::new(),
            ingest_ns: 0,
            wall_ns: 0,
            batches: 0,
        };
        closed.pass(
            stream,
            &mut Tracer::new(false, Instant::now(), 0),
            &mut |_, _, _| {},
        );
        closed
    }

    /// Feeds one replay pass; `each(records, batch_ns, rollover)` sees
    /// every batch.
    fn pass(
        &mut self,
        stream: &Stream,
        tracer: &mut Tracer,
        each: &mut impl FnMut(u64, u64, bool),
    ) {
        let pass = self.passes;
        self.passes += 1;
        let window_ns = LiveConfig::default().window.as_nanos() as u64;
        for chunk in stream.records.chunks(CLOSED_BATCH) {
            let batch: Vec<ProbeRecord> = chunk.iter().map(|r| remap(r, pass)).collect();
            let now = self.fed * NS_PER_RECORD;
            let rollover = now / window_ns != self.window;
            self.window = now / window_ns;
            let n = batch.len() as u64;
            let (_, ns) = tracer.time("live.ingest_batch", 0, self.fed / n, n, || {
                self.monitor.ingest_batch_at(batch, now)
            });
            self.fed += n;
            each(n, ns, rollover);
        }
    }

    /// One round: whole passes until `duration` has passed.
    pub fn round(&mut self, stream: &Stream, duration: Duration, tracer: &mut Tracer) {
        let started = Instant::now();
        let (mut block_ns, mut block_records) = self.block;
        let mut rates = Vec::new();
        let (mut batch_ns, mut rollover_ns) = (Vec::new(), Vec::new());
        let (mut ingest_ns, mut batches) = (0u64, 0u64);
        while started.elapsed() < duration {
            self.pass(stream, tracer, &mut |n, ns, rollover| {
                block_ns += ns;
                block_records += n;
                if block_records >= RATE_BLOCK {
                    rates.push(block_records as f64 * 1e9 / block_ns as f64);
                    (block_ns, block_records) = (0, 0);
                }
                if rollover {
                    &mut rollover_ns
                } else {
                    &mut batch_ns
                }
                .push(ns);
                ingest_ns += ns;
                batches += 1;
            });
        }
        self.wall_ns += started.elapsed().as_nanos() as u64;
        self.block = (block_ns, block_records);
        self.rates.append(&mut rates);
        self.batch_ns.append(&mut batch_ns);
        self.rollover_ns.append(&mut rollover_ns);
        self.ingest_ns += ingest_ns;
        self.batches += batches;
    }

    pub fn finish(mut self, stream: &Stream, tracer: &mut Tracer, report: &mut Report) {
        report.attempted += self.batches;
        let completed = self.monitor.total_completed();
        let want = stream.expected_total() * self.passes;
        report.check(
            completed == want,
            format!("closed loop: {completed} calls completed, want {want}"),
        );
        check_abnormalities(
            report,
            "closed loop",
            self.monitor.total_abnormalities(),
            stream,
            self.passes,
        );
        let blocks = self.rates.len();
        report.e2e_timing(
            "ingest_records_per_s",
            median(&self.rates),
            "records/s",
            blocks,
        );

        let records = self.fed - stream.records.len() as u64;
        report.layer(
            "live.ingest_ns_per_record",
            self.ingest_ns as f64 / records.max(1) as f64,
            "ns",
        );
        report.layer(
            "live.batch_p50_us",
            quantile(&mut self.batch_ns, 0.5) / 1e3,
            "us",
        );
        report.layer(
            "live.rollover_batch_p50_us",
            quantile(&mut self.rollover_ns, 0.5) / 1e3,
            "us",
        );
        report.layer(
            "coverage.live_ingest_share",
            self.ingest_ns as f64 / self.wall_ns as f64,
            "share",
        );
        if tracer.is_on() {
            reconstruct_alone(stream, tracer, report);
        }
    }
}

/// Traced run only: the same stream through a bare `OnlineAnalyzer`, so
/// that live ingest minus reconstruction is the live overlay's cost.
fn reconstruct_alone(stream: &Stream, tracer: &mut Tracer, report: &mut Report) {
    let mut analyzer = OnlineAnalyzer::new();
    let (mut completions, mut abnormalities, mut ns) = (0u64, 0u64, 0u64);
    for (i, chunk) in stream.records.chunks(CLOSED_BATCH).enumerate() {
        let batch: Vec<ProbeRecord> = chunk.iter().map(|r| remap(r, 1 << 20)).collect();
        let n = batch.len() as u64;
        ns += tracer
            .time("online.ingest_batch", 0, i as u64, n, || {
                analyzer.ingest_batch_with_threads(batch, 1, &mut |e| match e {
                    OnlineEvent::CallCompleted { .. } => completions += 1,
                    OnlineEvent::Abnormality { .. } => abnormalities += 1,
                    OnlineEvent::ChainIdle { .. } => {}
                })
            })
            .1;
    }
    let reconstruct = ns as f64 / stream.records.len().max(1) as f64;
    report.layer("online.reconstruct_ns_per_record", reconstruct, "ns");
    report.layer("online.completions", completions as f64, "count");
    report.layer("online.abnormalities", abnormalities as f64, "count");
    let ingest = report
        .layer_value("live.ingest_ns_per_record")
        .unwrap_or(0.0);
    report.layer("live.overlay_ns_per_record", ingest - reconstruct, "ns");
    report.check(
        completions == stream.expected_total(),
        format!(
            "online: {completions} calls completed, want {}",
            stream.expected_total()
        ),
    );
}

fn check_abnormalities(report: &mut Report, what: &str, seen: u64, stream: &Stream, passes: u64) {
    let damaged = stream.damaged_chains * passes;
    let ok = if damaged == 0 {
        seen == 0
    } else {
        seen >= damaged
    };
    report.check(
        ok,
        format!("{what}: {seen} abnormalities for {damaged} damaged chains"),
    );
}

/// A short-window monitor behind its HTTP endpoint, persisting every
/// batch to a segment first, as `online_monitor --segment` does.
pub struct Mixed {
    monitor: Arc<LiveMonitor>,
    service: LiveService,
    writer: SegmentWriter,
    /// Segment files are `<base>.<n>.cwseg`; `n` is the one being written.
    base: PathBuf,
    segment_no: u32,
    fed: u64,
    passes: u64,
    /// Index of the next batch of the endless replay.
    next: u64,
    /// Scheduled batches and reads so far.
    batches: u64,
    reads: u64,
    /// Due time to ingest return, per batch.
    lag_ns: Vec<u64>,
    /// Due time to actual send of each batch.
    late_ns: Vec<u64>,
    /// Due time to full response body, per read.
    query_ns: Vec<u64>,
    /// Due time to actual send of each read.
    reader_late_ns: Vec<u64>,
    read_failures: u64,
    io_errors: u64,
}

impl Mixed {
    pub fn setup(stream: &Stream, base: PathBuf) -> std::io::Result<Mixed> {
        let cfg = LiveConfig {
            window: MIXED_WINDOW,
            slices: 4,
            ..LiveConfig::default()
        };
        let monitor = Arc::new(LiveMonitor::new(
            cfg,
            stream.vocab.clone(),
            stream.deployment.clone(),
        ));
        if stream.episodes {
            monitor
                .add_rule_spec(ALERT_RULE)
                .expect("alert rule parses");
            monitor
                .add_burn_rule_spec(BURN_RULE)
                .expect("burn rule parses");
        }
        let service = serve(Arc::clone(&monitor), "127.0.0.1:0")?;
        let writer = SegmentWriter::create(
            segment_path(&base, 0),
            &stream.vocab,
            &stream.deployment,
            None,
        )?;
        let mut mixed = Mixed {
            monitor,
            service,
            writer,
            base,
            segment_no: 0,
            fed: 0,
            passes: 0,
            next: 0,
            batches: 0,
            reads: 0,
            lag_ns: Vec::new(),
            late_ns: Vec::new(),
            query_ns: Vec::new(),
            reader_late_ns: Vec::new(),
            read_failures: 0,
            io_errors: 0,
        };
        // Warm-up: one unscheduled pass, then one read of every route.
        let per_pass = stream.records.len().div_ceil(OPEN_BATCH) as u64;
        for i in 0..per_pass {
            mixed.feed(stream, i, &mut Tracer::new(false, Instant::now(), 0))?;
        }
        mixed.next = per_pass;
        let addr = mixed.service.local_addr();
        for route in ROUTES {
            http::get(addr, &route_path(route, stream, mixed.fed))?;
        }
        Ok(mixed)
    }

    /// Appends and ingests batch `i` of the endless replay.
    fn feed(&mut self, stream: &Stream, i: u64, tracer: &mut Tracer) -> std::io::Result<()> {
        let size = OPEN_BATCH;
        let per_pass = stream.records.len().div_ceil(size) as u64;
        let (pass, c) = (i / per_pass, (i % per_pass) as usize);
        let end = ((c + 1) * size).min(stream.records.len());
        let batch: Vec<ProbeRecord> = stream.records[c * size..end]
            .iter()
            .map(|r| remap(r, pass))
            .collect();
        let n = batch.len() as u64;
        let (appended, _) = tracer.time("segment.append", 0, i, n, || {
            self.writer.append_records(LogicalThreadId(0), &batch)
        });
        appended?;
        tracer.time("live.ingest_batch_rt", 0, i, n, || {
            self.monitor.ingest_batch(batch)
        });
        self.fed += n;
        Ok(())
    }

    /// One round of the open loop, `duration` long, with the reader
    /// running beside it.
    pub fn round(
        &mut self,
        stream: &Stream,
        duration: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) {
        let interval_ns = (OPEN_BATCH as f64 / OFFERED_RECORDS_PER_S * 1e9) as u64;
        let batches = duration.as_nanos() as u64 / interval_ns;
        let fed = Arc::new(AtomicU64::new(self.fed));
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.service.local_addr();
        let first_read = self.reads;

        let (reads, reader_tracer) = std::thread::scope(|scope| {
            let reader = {
                let (fed, stop) = (Arc::clone(&fed), Arc::clone(&stop));
                let monitor = Arc::clone(&self.monitor);
                let mut tracer = Tracer::new(tracer.is_on(), tracer.origin(), 2);
                scope.spawn(move || {
                    let reads = read_loop(
                        addr,
                        stream,
                        READ_EVERY,
                        first_read,
                        &fed,
                        &stop,
                        &monitor,
                        &mut tracer,
                    );
                    (reads, tracer)
                })
            };
            let t0 = Instant::now();
            for k in 0..batches {
                let due = t0 + Duration::from_nanos(interval_ns * k);
                wait_until(due);
                self.late_ns.push(due.elapsed().as_nanos() as u64);
                if self.feed(stream, self.next, tracer).is_err() {
                    self.io_errors += 1;
                }
                self.next += 1;
                self.lag_ns.push(due.elapsed().as_nanos() as u64);
                fed.store(self.fed, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        tracer.absorb(reader_tracer);
        self.batches += batches;
        self.reads += reads.query_ns.len() as u64;
        self.query_ns.extend(reads.query_ns);
        self.reader_late_ns.extend(reads.late_ns);
        self.read_failures += reads.failed;
        report.problems.extend(reads.problems);
        self.rotate(stream, report);
    }

    /// Seals the segment and starts the next one, so a run leaves at most
    /// one round of records on disk. Runs between rounds, untimed.
    fn rotate(&mut self, stream: &Stream, report: &mut Report) {
        let next = segment_path(&self.base, self.segment_no + 1);
        match SegmentWriter::create(&next, &stream.vocab, &stream.deployment, None) {
            Ok(fresh) => {
                let full = std::mem::replace(&mut self.writer, fresh);
                seal(full, &segment_path(&self.base, self.segment_no), report);
                self.segment_no += 1;
            }
            Err(e) => report.fail_ops(1, format!("open loop: cannot start a segment: {e}")),
        }
    }

    /// Completes the replay pass in progress, reports the rounds' metrics,
    /// checks the monitor's outputs, and closes it.
    pub fn finish(mut self, stream: &Stream, report: &mut Report) {
        let per_pass = stream.records.len().div_ceil(OPEN_BATCH) as u64;
        while !self.next.is_multiple_of(per_pass) {
            if self
                .feed(
                    stream,
                    self.next,
                    &mut Tracer::new(false, Instant::now(), 0),
                )
                .is_err()
            {
                self.io_errors += 1;
            }
            self.next += 1;
        }
        self.passes = self.next / per_pass;

        report.attempted += self.batches + self.reads;
        report.failed += self.read_failures;
        let io_errors = self.io_errors;
        report.fail_ops(
            io_errors,
            format!("open loop: {io_errors} segment appends failed"),
        );
        let n = self.lag_ns.len();
        let p50 = quantile(&mut self.lag_ns, 0.5) / 1e6;
        report.e2e_timing("ingest_lag_p50_ms", p50, "ms", n);
        let n = self.query_ns.len();
        let p50 = quantile(&mut self.query_ns, 0.5) / 1e6;
        report.e2e_timing("query_p50_ms", p50, "ms", n);
        // The p99s follow the host's CPU speed and steal from run to run
        // on a shared 2-vCPU VM: per-layer figures, not gates.
        let p99 = |samples: &mut Vec<u64>| quantile(samples, 0.99) / 1e6;
        report.layer("ingest_lag_p99_ms", p99(&mut self.lag_ns), "ms");
        report.layer("query_p99_ms", p99(&mut self.query_ns), "ms");
        report.layer(
            "load.gen_late_p99_ms",
            quantile(&mut self.late_ns, 0.99) / 1e6,
            "ms",
        );
        report.layer(
            "load.reader_late_p99_ms",
            quantile(&mut self.reader_late_ns, 0.99) / 1e6,
            "ms",
        );
        let behind = quantile(&mut self.late_ns, 0.5) / 1e6;
        report.check(
            behind <= GEN_LATE_BOUND_MS,
            format!(
                "open loop: run invalid, the generator ran {behind:.3} ms behind schedule at \
                 the median (bound {GEN_LATE_BOUND_MS} ms)"
            ),
        );
        self.final_checks(stream, report);
        self.close(report);
    }

    fn final_checks(&self, stream: &Stream, report: &mut Report) {
        let m = &self.monitor;
        check_abnormalities(
            report,
            "open loop",
            m.total_abnormalities(),
            stream,
            self.passes,
        );
        // Every series completes exactly its planned calls.
        let addr = self.service.local_addr();
        let want: BTreeMap<(String, String), u64> = stream
            .expected_completions
            .iter()
            .map(|(&(iface, method), &n)| {
                let names = (
                    stream.vocab.interface_name(iface).to_owned(),
                    stream.vocab.method_name(iface, method).to_owned(),
                );
                (names, n * self.passes)
            })
            .collect();
        let got: BTreeMap<(String, String), u64> = match http::get(addr, "/latency") {
            Ok((200, body)) => json::parse(&body)
                .ok()
                .and_then(|j| {
                    j.get("known_series")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                })
                .unwrap_or_default()
                .iter()
                .filter_map(|s| {
                    let name = |k| s.get(k).and_then(Json::as_str).map(str::to_owned);
                    Some(((name("iface")?, name("method")?), s.get("calls")?.as_u64()?))
                })
                .collect(),
            _ => BTreeMap::new(),
        };
        report.check(
            got == want,
            format!("open loop: completions per series {got:?}, want {want:?}"),
        );

        let alerts = m.alert_log();
        let fired: Vec<_> = alerts.iter().filter(|a| a.fired).collect();
        if stream.episodes {
            for rule in [ALERT_RULE, BURN_RULE] {
                report.check(
                    fired.iter().any(|a| a.alert == rule),
                    format!("open loop: rule {rule:?} never fired"),
                );
            }
            let named = fired.iter().rev().find_map(|a| a.exemplars.first());
            let resolved = named.is_some_and(|uuid| {
                matches!(http::get(addr, &format!("/exemplars?id={uuid}")),
                    Ok((200, body)) if json::parse(&body).is_ok())
            });
            report.check(
                resolved,
                format!("open loop: no fired alert names an exemplar /exemplars?id= resolves ({named:?})"),
            );
        }

        let exemplars = m
            .exemplars_json(None)
            .ok()
            .and_then(|j| j.get("count").and_then(Json::as_u64))
            .unwrap_or(0);
        report.layer("live.completed", m.total_completed() as f64, "count");
        report.layer(
            "live.abnormalities",
            m.total_abnormalities() as f64,
            "count",
        );
        report.layer("live.exemplars_retained", exemplars as f64, "count");
        report.layer(
            "live.history_evictions",
            m.history().evictions() as f64,
            "count",
        );
        report.layer("live.alerts_fired", fired.len() as f64, "count");
        report.layer(
            "live.incidents_opened",
            m.incidents().iter().count() as f64,
            "count",
        );
    }

    /// Stops the endpoint, seals the segment and deletes it.
    pub fn close(self, report: &mut Report) {
        drop(self.service);
        seal(
            self.writer,
            &segment_path(&self.base, self.segment_no),
            report,
        );
    }
}

fn segment_path(base: &Path, n: u32) -> PathBuf {
    base.with_extension(format!("{n}.cwseg"))
}

/// Seals a finished segment, as a crash-safe writer must, then deletes it:
/// the benchmark keeps no segment past its round.
fn seal(writer: SegmentWriter, path: &Path, report: &mut Report) {
    let records = writer.records_written();
    let sealed = writer.finish(Some(records));
    report.check(
        sealed.is_ok(),
        format!("open loop: segment seal failed: {sealed:?}"),
    );
    let _ = std::fs::remove_file(path);
}

/// What the reader thread saw.
#[derive(Default)]
struct Reads {
    failed: u64,
    problems: Vec<String>,
    /// Scheduled send to full response body, per read.
    query_ns: Vec<u64>,
    /// Scheduled send to actual send, per read.
    late_ns: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    addr: SocketAddr,
    stream: &Stream,
    every: Duration,
    first: u64,
    fed: &AtomicU64,
    stop: &AtomicBool,
    monitor: &LiveMonitor,
    tracer: &mut Tracer,
) -> Reads {
    let mut reads = Reads::default();
    let t0 = Instant::now();
    for k in 0u64.. {
        let due = t0 + every * k as u32;
        wait_until(due);
        if stop.load(Ordering::Acquire) {
            break;
        }
        let route = ROUTES[(first + k) as usize % ROUTES.len()];
        let path = route_path(route, stream, fed.load(Ordering::Acquire));
        reads.late_ns.push(due.elapsed().as_nanos() as u64);
        let (reply, _) = tracer.time(http_span(route), 0, first + k, 1, || http::get(addr, &path));
        reads.query_ns.push(due.elapsed().as_nanos() as u64);
        match reply {
            Ok((200, body)) if body_parses(route, &body) => {}
            Ok((status, body)) => {
                reads.failed += 1;
                reads
                    .problems
                    .push(format!("GET {path}: {status} {:.80}", body.trim()));
            }
            Err(e) => {
                reads.failed += 1;
                reads.problems.push(format!("GET {path}: {e}"));
            }
        }
        if tracer.is_on() {
            let chain = path.split_once("chain=").map_or("", |(_, c)| c);
            tracer.time(render_span(route), 0, first + k, 1, || {
                render(monitor, route, chain)
            });
        }
    }
    reads
}

/// The request path for one read of `route`.
fn route_path(route: &str, stream: &Stream, fed: u64) -> String {
    if route != "dscg" {
        return format!("/{route}");
    }
    // The newest root chain whose last record went in a few batches ago.
    let len = stream.records.len() as u64;
    let target = fed.saturating_sub(DSCG_LAG_RECORDS);
    let (pass, index) = (target / len, (target % len) as usize);
    let at = stream.roots.partition_point(|&(last, _)| last <= index);
    let (pass, uuid) = match at {
        0 if pass > 0 => (pass - 1, stream.roots[stream.roots.len() - 1].1),
        0 => (0, stream.roots[0].1),
        _ => (pass, stream.roots[at - 1].1),
    };
    format!("/dscg?chain={}", remap_uuid(uuid, pass))
}

fn body_parses(route: &str, body: &str) -> bool {
    let numbers_last = |body: &str| {
        body.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .all(|l| {
                l.rsplit(' ')
                    .next()
                    .is_some_and(|v| v.parse::<f64>().is_ok())
            })
    };
    match route {
        "latency" | "exemplars" | "history" => json::parse(body).is_ok(),
        "metrics" => body.contains("causeway_") && numbers_last(body),
        "flamegraph" => !body.is_empty() && numbers_last(body),
        "dscg" => body.starts_with("chain ") && body.lines().count() > 1,
        _ => false,
    }
}

/// The same body the route serves, rendered by calling the monitor
/// directly: the gap to the HTTP read is the server's share.
fn render(monitor: &LiveMonitor, route: &str, chain: &str) -> usize {
    match route {
        "latency" => monitor.latency_json(None, None).to_string().len(),
        "metrics" => MetricsRegistry::global().render_prometheus().len(),
        "exemplars" => monitor
            .exemplars_json(None)
            .map_or(0, |j| j.to_string().len()),
        "dscg" => monitor.dscg_render(chain, None).map_or(0, |s| s.len()),
        "history" => monitor.history_json(None, None).to_string().len(),
        _ => monitor.flamegraph(None).map_or(0, |s| s.len()),
    }
}

fn http_span(route: &str) -> &'static str {
    match route {
        "latency" => "http.latency",
        "metrics" => "http.metrics",
        "exemplars" => "http.exemplars",
        "dscg" => "http.dscg",
        "history" => "http.history",
        _ => "http.flamegraph",
    }
}

fn render_span(route: &str) -> &'static str {
    match route {
        "latency" => "render.latency",
        "metrics" => "render.metrics",
        "exemplars" => "render.exemplars",
        "dscg" => "render.dscg",
        "history" => "render.history",
        _ => "render.flamegraph",
    }
}

/// Per-route metrics of the reader, from the spans.
pub fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let by = tracer.by_name();
    for route in ROUTES {
        let stats = by.get(http_span(route)).cloned().unwrap_or_default();
        report.layer(&format!("http.{route}_p50_ms"), stats.p50_ns() / 1e6, "ms");
        let stats = by.get(render_span(route)).cloned().unwrap_or_default();
        report.layer(
            &format!("render.{route}_p50_us"),
            stats.p50_ns() / 1e3,
            "us",
        );
    }
    let append = by.get("segment.append").cloned().unwrap_or_default();
    report.layer("segment.append_ns_per_record", append.ns_per_work(), "ns");
}

/// Sleeps until shortly before `due`, then spins, so a schedule keeps
/// sub-100 µs precision without burning a core between sends.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}
