//! The ORB, probe and sink layers: instrumented Echo calls on one client
//! thread, collocated (full stub/skeleton path in the caller's thread) and
//! remote (to a thread-pool server process), draining the probe sinks
//! every few thousand calls.

use crate::report::Report;
use crate::trace::{median, quantile, Tracer};
use causeway_core::event::CallKind;
use causeway_core::ids::{InterfaceId, MethodIndex, NodeId, ObjectId, ProcessId};
use causeway_core::monitor::{Monitor, ProbeMode};
use causeway_core::record::FunctionKey;
use causeway_core::sink::LogStore;
use causeway_core::value::Value;
use causeway_orb::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls between two sink drains.
const DRAIN_EVERY: u64 = 4096;
/// Collocated then remote calls per round of the closed loop.
const COLLOCATED_PER_ROUND: u64 = 1000;
const REMOTE_PER_ROUND: u64 = 50;
/// Calls made to warm the rig up.
const WARM_COLLOCATED: u64 = 5_000;
const WARM_REMOTE: u64 = 500;

/// A client process with a collocated Echo object, and a thread-pool
/// server process with a remote one.
pub struct Rig {
    system: System,
    client_p: ProcessId,
    local: ObjRef,
    remote: ObjRef,
}

impl Rig {
    pub fn build(instrumented: bool) -> Rig {
        let mut builder = System::builder();
        builder
            .instrumented(instrumented)
            .probe_mode(ProbeMode::Latency);
        let node = builder.node("bench-host", "Linux");
        let client_p = builder.process("client", node, ThreadingPolicy::ThreadPerRequest);
        let server_p = builder.process("server", node, ThreadingPolicy::ThreadPool(2));
        let system = builder.build();
        system
            .load_idl("interface Echo { long id(in long x); };")
            .expect("Echo IDL compiles");
        let echo = || {
            Arc::new(FnServant::new(|_, _, args: Vec<Value>| {
                Ok(args.into_iter().next().unwrap_or(Value::Void))
            }))
        };
        let local = system
            .register_servant(client_p, "Echo", "Local", "local#0", echo())
            .expect("servant");
        let remote = system
            .register_servant(server_p, "Echo", "Remote", "remote#0", echo())
            .expect("servant");
        system.start();
        Rig {
            system,
            client_p,
            local,
            remote,
        }
    }

    fn stores(&self) -> [LogStore; 2] {
        [
            self.system.orb(self.client_p).monitor().store().clone(),
            self.system.orb(self.remote.owner).monitor().store().clone(),
        ]
    }

    /// Issues `n` calls to `target`; returns the calls whose reply did not
    /// echo the argument.
    fn calls(&self, client: &Client, target: &ObjRef, n: u64) -> u64 {
        let mut wrong = 0;
        for i in 0..n {
            client.begin_root();
            let x = i as i64;
            if client.invoke(target, "id", vec![Value::I64(x)]).ok() != Some(Value::I64(x)) {
                wrong += 1;
            }
        }
        wrong
    }

    /// Warms the rig up; returns the calls whose reply did not echo.
    pub fn warm_up(&self) -> u64 {
        let client = self.system.client(self.client_p);
        let wrong = self.calls(&client, &self.local, WARM_COLLOCATED)
            + self.calls(&client, &self.remote, WARM_REMOTE);
        self.system
            .quiesce(Duration::from_secs(5))
            .expect("calls finish");
        // A server worker seals its chunk as it finishes dispatching, which
        // may be just after the reply: drain until nothing is buffered, so
        // no warm-up record lands in the measured drains.
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.stores().iter().any(|s| !s.is_empty()) && Instant::now() < deadline {
            for store in self.stores() {
                black_box(store.drain());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        wrong
    }

    pub fn shutdown(self) {
        self.system.shutdown();
    }
}

/// The closed loop's samples, gathered over the run's rounds.
#[derive(Default)]
pub struct RpcPhase {
    /// Per-call times of collocated and remote calls.
    collocated_ns: Vec<u64>,
    remote_ns: Vec<u64>,
    drained: u64,
    since_drain: u64,
    wrong: u64,
    calls: u64,
}

impl RpcPhase {
    fn drain(&mut self, rig: &Rig, tracer: &mut Tracer) {
        let open = tracer.begin("sink.drain", 0, self.calls);
        let records: usize = rig
            .stores()
            .iter()
            .flat_map(LogStore::drain_chunks)
            .map(|c| c.records.len())
            .sum();
        tracer.end(open, records as u64);
        self.drained += records as u64;
    }

    /// One round: batches of collocated then remote calls until `duration`
    /// has passed, draining the sinks every [`DRAIN_EVERY`] calls.
    pub fn round(&mut self, rig: &Rig, duration: Duration, tracer: &mut Tracer) {
        let client = rig.system.client(rig.client_p);
        let started = Instant::now();
        while started.elapsed() < duration {
            for remote in [false, true] {
                let (target, n, name) = if remote {
                    (&rig.remote, REMOTE_PER_ROUND, "orb.remote_call")
                } else {
                    (&rig.local, COLLOCATED_PER_ROUND, "orb.call")
                };
                for _ in 0..n {
                    self.calls += 1;
                    let x = self.calls as i64;
                    let open = tracer.begin(name, 0, self.calls);
                    client.begin_root();
                    let reply = client.invoke(target, "id", vec![Value::I64(x)]);
                    let ns = tracer.end(open, 1);
                    if remote {
                        &mut self.remote_ns
                    } else {
                        &mut self.collocated_ns
                    }
                    .push(ns);
                    if reply.ok() != Some(Value::I64(x)) {
                        self.wrong += 1;
                    }
                }
                self.since_drain += n;
                if self.since_drain >= DRAIN_EVERY {
                    self.since_drain = 0;
                    self.drain(rig, tracer);
                }
            }
        }
    }

    /// Drains what is left, checks every reply and record, and reports.
    pub fn finish(mut self, rig: &Rig, tracer: &mut Tracer, report: &mut Report) {
        rig.system
            .quiesce(Duration::from_secs(5))
            .expect("calls finish");
        let calls = self.calls;
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.drained < 4 * calls && Instant::now() < deadline {
            self.drain(rig, tracer);
            std::thread::sleep(Duration::from_millis(1));
        }
        report.attempted += calls;
        report.fail_ops(
            self.wrong,
            format!("rpc: {} of {calls} replies did not echo", self.wrong),
        );
        report.check(
            self.drained == 4 * calls,
            format!(
                "rpc: drained {} records for {calls} calls, want {}",
                self.drained,
                4 * calls
            ),
        );
        let collocated = &mut self.collocated_ns;
        let n = collocated.len();
        report.e2e_timing("call_p50_us", quantile(collocated, 0.5) / 1e3, "us", n);
        report.e2e_timing("call_p99_us", quantile(collocated, 0.99) / 1e3, "us", n);
        // A remote call crosses threads twice; on a shared 2-vCPU VM its
        // median moves with where the scheduler puts the server thread (19
        // or 40-70 µs across runs): a per-layer figure, not a gate.
        let remote = quantile(&mut self.remote_ns, 0.5) / 1e3;
        report.layer("remote_call_p50_us", remote, "us");
        report.layer(
            "sink.records_per_call",
            self.drained as f64 / calls.max(1) as f64,
            "count",
        );
        if tracer.is_on() {
            layer_extras(tracer);
        }
    }
}

/// Traced run only: the probe and sink layers in isolation, and the same
/// calls through an uninstrumented ORB, so that instrumented minus plain is
/// the probes' share of a call.
fn layer_extras(tracer: &mut Tracer) {
    const BLOCK: u64 = 1000;
    const BLOCKS: u64 = 200;
    let monitor = Monitor::builder(ProcessId(0), NodeId(0))
        .mode(ProbeMode::Latency)
        .build();
    let func = FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(0));
    for round in 0..BLOCKS {
        tracer.time("monitor.probes", 0, round, 4 * BLOCK, || {
            for _ in 0..BLOCK {
                monitor.begin_root();
                let out = monitor.stub_start(func, CallKind::Sync);
                monitor.skel_start(func, CallKind::Sync, out.wire_ftl, None);
                let ftl = monitor.skel_end(func, CallKind::Sync);
                monitor.stub_end(func, CallKind::Sync, Some(ftl));
            }
        });
        black_box(monitor.store().drain());
    }

    let store = LogStore::new();
    let monitor = Monitor::builder(ProcessId(0), NodeId(0))
        .mode(ProbeMode::Latency)
        .build();
    monitor.stub_start(func, CallKind::Sync);
    let template = monitor.store().drain().pop().expect("one record");
    for round in 0..BLOCKS {
        let batch = vec![template.clone(); BLOCK as usize];
        tracer.time("sink.push", 0, round, BLOCK, || {
            for record in batch {
                store.push(record);
            }
        });
        black_box(store.drain());
    }

    let plain = Rig::build(false);
    let client = plain.system.client(plain.client_p);
    plain.calls(&client, &plain.local, 2 * BLOCK);
    plain.calls(&client, &plain.remote, 100);
    for round in 0..BLOCKS {
        tracer.time("orb.plain_call", 0, round, BLOCK, || {
            black_box(plain.calls(&client, &plain.local, BLOCK))
        });
        if round % 4 == 0 {
            tracer.time("orb.remote_plain_call", 0, round, 50, || {
                black_box(plain.calls(&client, &plain.remote, 50))
            });
        }
    }
    plain.shutdown();
}

/// Per-layer metrics of this phase, from the spans.
pub fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let by = tracer.by_name();
    let get = |name: &str| by.get(name).cloned().unwrap_or_default();
    report.layer(
        "monitor.probe_ns",
        get("monitor.probes").ns_per_work(),
        "ns",
    );
    report.layer("sink.push_ns", get("sink.push").ns_per_work(), "ns");
    report.layer(
        "sink.drain_ns_per_record",
        get("sink.drain").ns_per_work(),
        "ns",
    );
    let per_block: Vec<f64> = get("orb.plain_call")
        .durations
        .iter()
        .map(|&d| d as f64 / 1000.0)
        .collect();
    report.layer("orb.plain_call_ns", median(&per_block), "ns");
    let per_block: Vec<f64> = get("orb.remote_plain_call")
        .durations
        .iter()
        .map(|&d| d as f64 / 50.0 / 1e3)
        .collect();
    report.layer("orb.remote_plain_call_us", median(&per_block), "us");
}
