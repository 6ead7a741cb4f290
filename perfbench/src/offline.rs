//! The paper's §4 pipeline: sealed segment bytes → run log → monitoring
//! database → DSCG → latency and CPU analyses → CCSG.

use crate::gen::Stream;
use crate::report::Report;
use crate::trace::{median, Tracer};
use causeway_analyzer::ccsg::Ccsg;
use causeway_analyzer::cpu::CpuAnalysis;
use causeway_analyzer::dscg::Dscg;
use causeway_analyzer::latency::LatencyAnalysis;
use causeway_collector::db::MonitoringDb;
use causeway_collector::segment::{self, SegmentWriter, DEFAULT_FRAME_RECORDS};
use causeway_core::ids::LogicalThreadId;
use causeway_core::wire;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Writes `stream` as a sealed segment at `path` and returns its bytes.
pub fn write_segment(
    stream: &Stream,
    path: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<u8>> {
    let n = stream.records.len() as u64;
    let (written, _) = tracer.time("segment.write", 0, 0, n, || {
        let mut writer = SegmentWriter::create(path, &stream.vocab, &stream.deployment, Some(n))?;
        for (i, frame) in stream.records.chunks(DEFAULT_FRAME_RECORDS).enumerate() {
            writer.append_records(LogicalThreadId(i as u32 % 32), frame)?;
        }
        writer.finish(Some(n))
    });
    written?;
    let bytes = std::fs::read(path)?;
    std::fs::remove_file(path)?;
    Ok(bytes)
}

/// The offline passes, gathered over the run's rounds.
#[derive(Default)]
pub struct Offline {
    pass_ns: Vec<u64>,
    /// Time inside the six timed stage calls, and wall time of the rounds.
    stage_ns: u64,
    wall_ns: u64,
    /// DSCG nodes and abnormalities of the last pass.
    last: (u64, u64),
}

impl Offline {
    /// One round: whole passes until `duration` has passed; the run's
    /// first round makes at least one.
    pub fn round(
        &mut self,
        bytes: &[u8],
        stream: &Stream,
        duration: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) {
        let started = Instant::now();
        let records = stream.records.len() as u64;
        let calls = stream.planned_calls;
        while self.pass_ns.is_empty() || started.elapsed() < duration {
            let p = self.pass_ns.len() as u64;
            let pass = tracer.begin("offline.pass", 0, p);
            let (run, read_ns) = tracer.time("segment.read", pass.id, p, records, || {
                segment::read_run_log(bytes)
            });
            report.attempted += 1;
            let Ok(run) = run else {
                tracer.end(pass, records);
                report.fail_ops(
                    1,
                    format!("offline: segment does not read back: {:?}", run.err()),
                );
                return;
            };
            let (db, db_ns) = tracer.time("db.index", pass.id, p, records, || {
                MonitoringDb::from_run(run)
            });
            let (dscg, dscg_ns) = tracer.time("dscg.build", pass.id, p, calls, || Dscg::build(&db));
            let (latency, latency_ns) = tracer.time("latency.compute", pass.id, p, calls, || {
                LatencyAnalysis::compute(&dscg)
            });
            let (cpu, cpu_ns) = tracer.time("cpu.compute", pass.id, p, calls, || {
                CpuAnalysis::compute(&dscg, db.deployment())
            });
            let (ccsg, ccsg_ns) = tracer.time("ccsg.build", pass.id, p, calls, || {
                Ccsg::build(&dscg, db.deployment())
            });
            self.pass_ns.push(tracer.end(pass, records));
            self.stage_ns += read_ns + db_ns + dscg_ns + latency_ns + cpu_ns + ccsg_ns;
            self.last = (dscg.total_nodes() as u64, dscg.abnormalities.len() as u64);
            let (nodes, abnormal) = self.last;
            report.check(
                nodes == calls,
                format!("offline: DSCG has {nodes} nodes, want {calls}"),
            );
            let damaged = stream.damaged_chains;
            report.check(
                if damaged == 0 {
                    abnormal == 0
                } else {
                    abnormal >= damaged
                },
                format!("offline: {abnormal} abnormalities for {damaged} damaged chains"),
            );
            black_box((latency, cpu, ccsg.size()));
        }
        self.wall_ns += started.elapsed().as_nanos() as u64;
    }

    pub fn finish(self, bytes: &[u8], stream: &Stream, tracer: &mut Tracer, report: &mut Report) {
        let seconds: Vec<f64> = self.pass_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        report.e2e_timing("analyze_s", median(&seconds), "s", seconds.len());
        report.layer("dscg.calls", self.last.0 as f64, "count");
        report.layer("dscg.abnormalities", self.last.1 as f64, "count");
        report.layer(
            "coverage.offline_share",
            self.stage_ns as f64 / self.wall_ns as f64,
            "share",
        );
        if tracer.is_on() {
            wire_extras(bytes, stream, tracer);
        }
    }
}

/// Traced run only: the codec and checksum under the segment reader, on
/// the same records and bytes.
fn wire_extras(bytes: &[u8], stream: &Stream, tracer: &mut Tracer) {
    for (i, chunk) in stream.records.chunks(DEFAULT_FRAME_RECORDS).enumerate() {
        let n = chunk.len() as u64;
        let (encoded, _) = tracer.time("wire.encode", 0, i as u64, n, || {
            wire::encode_records(chunk)
        });
        let (decoded, _) = tracer.time("wire.decode", 0, i as u64, n, || {
            wire::decode_records(&encoded)
        });
        black_box(decoded.ok());
    }
    for (i, slice) in bytes.chunks(64 << 10).enumerate() {
        tracer.time("wire.crc32", 0, i as u64, slice.len() as u64, || {
            black_box(wire::crc32(slice))
        });
    }
}

/// Per-layer metrics of this phase and of the setup's segment write.
pub fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let by = tracer.by_name();
    let per = |name: &str| by.get(name).map_or(0.0, |s| s.ns_per_work());
    report.layer("segment.write_ns_per_record", per("segment.write"), "ns");
    report.layer("segment.read_ns_per_record", per("segment.read"), "ns");
    report.layer("db.index_ns_per_record", per("db.index"), "ns");
    report.layer("dscg.build_ns_per_call", per("dscg.build"), "ns");
    report.layer("latency.compute_ns_per_call", per("latency.compute"), "ns");
    report.layer("cpu.compute_ns_per_call", per("cpu.compute"), "ns");
    report.layer("ccsg.build_ns_per_call", per("ccsg.build"), "ns");
    report.layer("wire.encode_ns_per_record", per("wire.encode"), "ns");
    report.layer("wire.decode_ns_per_record", per("wire.decode"), "ns");
    report.layer("wire.crc32_ns_per_kib", per("wire.crc32") * 1024.0, "ns");
}
