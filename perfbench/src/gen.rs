//! Seeded input generators.
//!
//! The program under test receives only what these functions return: probe
//! records plus their vocabulary and deployment. The same seed gives the
//! same records, byte for byte, so every run of a workload feeds the same
//! input and a threaded system's run-to-run reordering never enters the
//! numbers.
//!
//! Two shapes are generated:
//!
//! * [`pps`]: chains shaped like the Printing Pipeline Simulator — 11
//!   stages over 4 processes, latency-mode stamps, and three one-way
//!   `report` calls per job, each forking a child chain. Optional damage
//!   (a dropped or a duplicated probe record in a `report` child chain) and
//!   periodic slow-tail episodes on `rasterize`.
//! * [`commercial`]: call trees wired by the rules of the repository's
//!   `CommercialSystem` stand-in for the paper's commercial system — 176
//!   components, 155 interfaces, 801 methods, 4 levels in 4 server
//!   processes, every call remote — with wall and CPU stamps.
//!
//! Records leave the generator in the order a multi-process drain produces
//! them: each process buffers its records and hands them over in chunks,
//! so one chain's records arrive interleaved with other chains' and out of
//! event-number order.

use causeway_core::deploy::Deployment;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::ids::{
    CpuTypeId, InterfaceId, LogicalThreadId, MethodIndex, NodeId, ObjectId, ProcessId,
};
use causeway_core::names::{ComponentId, InterfaceEntry, ObjectEntry, VocabSnapshot};
use causeway_core::record::{CallSite, FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::collections::{BTreeMap, HashMap};

/// A (interface, method) pair: one latency series of the live monitor.
pub type Series = (InterfaceId, MethodIndex);

/// A generated record stream and what a correct analysis must find in it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Records in drain order.
    pub records: Vec<ProbeRecord>,
    /// Names for every interface, method, component and object used.
    pub vocab: VocabSnapshot,
    /// Nodes and processes the records were stamped in.
    pub deployment: Deployment,
    /// Invocations planned, damaged chains included: the node count an
    /// offline DSCG of the stream must have.
    pub planned_calls: u64,
    /// Completions per series a live monitor must count: every planned
    /// call, minus the one-way calls whose opening record was dropped.
    pub expected_completions: BTreeMap<Series, u64>,
    /// Chains carrying a dropped or duplicated record. Each yields at least
    /// one abnormality.
    pub damaged_chains: u64,
    /// Root chains as (index of the chain's last record, uuid), ascending:
    /// a chain is complete once the records up to its index are ingested.
    pub roots: Vec<(usize, Uuid)>,
    /// Whether the stream carries slow-tail episodes that must fire alerts.
    pub episodes: bool,
}

impl Stream {
    /// Total completions a live monitor must count per pass.
    pub fn expected_total(&self) -> u64 {
        self.expected_completions.values().sum()
    }
}

/// `(last index, uuid)` of every chain selected by `keep`, ascending.
fn last_indexes(records: &[ProbeRecord], keep: impl Fn(Uuid) -> bool) -> Vec<(usize, Uuid)> {
    let mut last: HashMap<Uuid, usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        last.insert(r.uuid, i);
    }
    let mut roots: Vec<(usize, Uuid)> = last
        .into_iter()
        .filter(|(u, _)| keep(*u))
        .map(|(u, i)| (i, u))
        .collect();
    roots.sort_unstable();
    roots
}

/// Rewrites a record's chain identities for replay pass `pass`, so that
/// replaying a stream never reuses a chain a monitor has already seen.
/// Pass 0 is the identity.
pub fn remap(record: &ProbeRecord, pass: u64) -> ProbeRecord {
    let mut r = record.clone();
    if pass != 0 {
        r.uuid = remap_uuid(r.uuid, pass);
        r.oneway_child = r.oneway_child.map(|u| remap_uuid(u, pass));
        r.oneway_parent = r.oneway_parent.map(|(u, seq)| (remap_uuid(u, pass), seq));
    }
    r
}

/// The chain uuid a stream's `uuid` becomes in replay pass `pass`.
pub fn remap_uuid(uuid: Uuid, pass: u64) -> Uuid {
    Uuid(uuid.0 ^ (u128::from(pass) << 96))
}

/// splitmix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uuid(&mut self) -> Uuid {
        let hi = u128::from(self.next_u64());
        let lo = u128::from(self.next_u64());
        // Never NIL, which the probes reserve for "no chain".
        Uuid((hi << 64 | lo) | 1)
    }

    /// `base` scaled by a factor in `[0.6, 1.4)`, with a 1-in-100 tail of 4×.
    fn jitter(&mut self, base: u64) -> u64 {
        let tail = if self.below(100) == 0 { 4.0 } else { 1.0 };
        (base as f64 * (0.6 + 0.8 * self.unit()) * tail) as u64
    }
}

/// One planned invocation and the calls it makes.
#[derive(Debug, Clone)]
struct Call {
    object: u64,
    method: u16,
    kind: CallKind,
    service_ns: u64,
    children: Vec<Call>,
}

impl Call {
    fn size(&self) -> u64 {
        1 + self.children.iter().map(Call::size).sum::<u64>()
    }
}

/// How the records of a one-way child chain are damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    None,
    /// The child chain's `skel_start` never arrives.
    DropSkelStart,
    /// The child chain's `skel_end` arrives twice.
    DuplicateSkelEnd,
}

/// Turns planned call trees into probe records, as the four probes of each
/// invocation would stamp them.
struct Emitter<'a> {
    /// `(interface, process)` of every object, indexed by object id.
    objects: &'a [(InterfaceId, ProcessId)],
    cpu: bool,
    threads_per_process: u64,
    rng: Rng,
}

/// The records of one chain being emitted, in event-number order.
struct Chain {
    uuid: Uuid,
    seq: u64,
    records: Vec<ProbeRecord>,
}

#[derive(Clone, Copy)]
struct Site {
    process: ProcessId,
    thread: u32,
}

impl Emitter<'_> {
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        chain: &mut Chain,
        event: TraceEvent,
        kind: CallKind,
        site: Site,
        func: FunctionKey,
        t: &mut u64,
        oneway_child: Option<Uuid>,
        oneway_parent: Option<(Uuid, u64)>,
    ) -> u64 {
        chain.seq += 1;
        let wall_start = *t;
        *t += 350 + (chain.seq * 37) % 200;
        let wall_end = *t;
        // A thread's CPU clock advances with its wall clock, slower.
        let cpu = |wall: u64| self.cpu.then_some(wall / 4 * 3);
        chain.records.push(ProbeRecord {
            uuid: chain.uuid,
            seq: chain.seq,
            event,
            kind,
            site: CallSite {
                node: NodeId(0),
                process: site.process,
                thread: LogicalThreadId(site.thread),
            },
            func,
            wall_start: Some(wall_start),
            wall_end: Some(wall_end),
            cpu_start: cpu(wall_start),
            cpu_end: cpu(wall_end),
            oneway_child,
            oneway_parent,
        });
        chain.seq
    }

    fn func(&self, call: &Call) -> FunctionKey {
        let (iface, _) = self.objects[call.object as usize];
        FunctionKey::new(iface, MethodIndex(call.method), ObjectId(call.object))
    }

    /// Emits `call`, made from `caller`, into `chain`; one-way calls open
    /// child chains, which are appended to `forks`.
    fn call(
        &mut self,
        chain: &mut Chain,
        call: &Call,
        caller: Site,
        t: &mut u64,
        forks: &mut Vec<(Chain, Series)>,
        damage: &mut Damage,
    ) {
        let func = self.func(call);
        let callee_process = self.objects[call.object as usize].1;
        let kind = call.kind;
        if kind == CallKind::Oneway {
            let child = self.rng.uuid();
            let fork_seq = self.probe(
                chain,
                TraceEvent::StubStart,
                kind,
                caller,
                func,
                t,
                Some(child),
                None,
            );
            *t += 900;
            self.probe(
                chain,
                TraceEvent::StubEnd,
                kind,
                caller,
                func,
                t,
                None,
                None,
            );
            let callee = Site {
                process: callee_process,
                thread: self.worker(),
            };
            let mut sub = Chain {
                uuid: child,
                seq: 0,
                records: Vec::new(),
            };
            let mut t2 = *t + 20_000;
            let parent = Some((chain.uuid, fork_seq));
            self.probe(
                &mut sub,
                TraceEvent::SkelStart,
                kind,
                callee,
                func,
                &mut t2,
                None,
                parent,
            );
            t2 += call.service_ns;
            self.probe(
                &mut sub,
                TraceEvent::SkelEnd,
                kind,
                callee,
                func,
                &mut t2,
                None,
                None,
            );
            match std::mem::replace(damage, Damage::None) {
                Damage::None => {}
                Damage::DropSkelStart => {
                    sub.records.remove(0);
                    sub.records[0].seq = 1;
                }
                Damage::DuplicateSkelEnd => {
                    let mut dup = sub.records[1].clone();
                    dup.seq = 3;
                    sub.records.push(dup);
                }
            }
            forks.push((sub, func.method_key()));
            return;
        }
        // Every synchronous call crosses to a pool worker of the callee's
        // process.
        let callee = Site {
            process: callee_process,
            thread: self.worker(),
        };
        let net = 30_000 + self.rng.below(20_000);
        self.probe(
            chain,
            TraceEvent::StubStart,
            kind,
            caller,
            func,
            t,
            None,
            None,
        );
        *t += net;
        self.probe(
            chain,
            TraceEvent::SkelStart,
            kind,
            callee,
            func,
            t,
            None,
            None,
        );
        *t += call.service_ns / 2;
        for child in &call.children {
            self.call(chain, child, callee, t, forks, damage);
        }
        *t += call.service_ns - call.service_ns / 2;
        self.probe(
            chain,
            TraceEvent::SkelEnd,
            kind,
            callee,
            func,
            t,
            None,
            None,
        );
        *t += net;
        self.probe(
            chain,
            TraceEvent::StubEnd,
            kind,
            caller,
            func,
            t,
            None,
            None,
        );
    }

    fn worker(&mut self) -> u32 {
        1 + self.rng.below(self.threads_per_process) as u32
    }
}

/// Collects records per process and hands them over in fixed-size chunks,
/// as a collector draining 4 processes' sinks would.
struct Drain {
    buffers: Vec<Vec<ProbeRecord>>,
    chunk: usize,
    out: Vec<ProbeRecord>,
}

impl Drain {
    fn new(processes: usize, chunk: usize) -> Drain {
        Drain {
            buffers: vec![Vec::new(); processes],
            chunk,
            out: Vec::new(),
        }
    }

    fn push_chain(&mut self, chain: Chain) {
        for r in chain.records {
            let p = r.site.process.0 as usize;
            self.buffers[p].push(r);
            if self.buffers[p].len() >= self.chunk {
                self.out.append(&mut self.buffers[p]);
            }
        }
    }

    fn finish(mut self) -> Vec<ProbeRecord> {
        for buffer in &mut self.buffers {
            self.out.append(buffer);
        }
        self.out
    }
}

/// Shape of a PPS-like stream.
#[derive(Debug, Clone, Copy)]
pub struct PpsShape {
    /// Print jobs (one root chain each).
    pub jobs: u64,
    /// Every `damage_every`-th job damages its first `report` child chain
    /// (0: no damage). Damage alternates between a dropped and a
    /// duplicated record.
    pub damage_every: u64,
    /// Slow-tail episodes: out of every `episode_period` jobs, the first
    /// `episode_len` run `rasterize` 25× slower (period 0: none).
    pub episode_period: u64,
    pub episode_len: u64,
}

const PPS_STAGES: [(&str, &str, u16); 11] = [
    ("submit", "JobSource", 0),
    ("enqueue", "Spooler", 0),
    ("interpret", "Interpreter", 1),
    ("layout", "LayoutEngine", 1),
    ("convert", "ColorConverter", 2),
    ("halftone", "Halftoner", 2),
    ("compress", "Compressor", 2),
    ("rasterize", "Rasterizer", 3),
    ("mark", "MarkingEngine", 3),
    ("finish", "Finisher", 3),
    ("report", "StatusMonitor", 0),
];
const PPS_SERVICE_US: [u64; 11] = [20, 30, 80, 60, 50, 60, 40, 80, 60, 60, 5];
/// Method (and object) index of `rasterize`, the stage slow-tail episodes hit.
const PPS_RASTERIZE: u16 = 7;
const PPS_REPORT: u16 = 10;

/// The interface name of every PPS stage.
const PPS_INTERFACE: &str = "Pps::Stage";

fn pps_vocab() -> (VocabSnapshot, Deployment, Vec<(InterfaceId, ProcessId)>) {
    let iface = InterfaceId(0);
    let vocab = VocabSnapshot {
        interfaces: vec![InterfaceEntry {
            name: PPS_INTERFACE.to_owned(),
            methods: PPS_STAGES.iter().map(|s| s.0.to_owned()).collect(),
        }],
        components: PPS_STAGES.iter().map(|s| s.1.to_owned()).collect(),
        cpu_types: vec!["HPUX".to_owned()],
        objects: PPS_STAGES
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    ObjectId(i as u64),
                    ObjectEntry {
                        label: format!("{}#0", s.1),
                        interface: iface,
                        component: ComponentId(i as u32),
                        process: ProcessId(s.2),
                    },
                )
            })
            .collect(),
    };
    let mut deployment = Deployment::new();
    let node = deployment.add_node("hpux-1", CpuTypeId(0));
    for p in 0..4 {
        deployment.add_process(&format!("pps-{p}"), node);
    }
    let objects = PPS_STAGES.iter().map(|s| (iface, ProcessId(s.2))).collect();
    (vocab, deployment, objects)
}

fn pps_job(rng: &mut Rng, slow: bool) -> Call {
    let mut stage = |i: u16, children: Vec<Call>| {
        let mut service_ns = rng.jitter(PPS_SERVICE_US[i as usize] * 1_000);
        if slow && i == PPS_RASTERIZE {
            service_ns *= 25;
        }
        let kind = if i == PPS_REPORT {
            CallKind::Oneway
        } else {
            CallKind::Sync
        };
        Call {
            object: u64::from(i),
            method: i,
            kind,
            service_ns,
            children,
        }
    };
    let report_a = stage(PPS_REPORT, vec![]);
    let layout = stage(3, vec![]);
    let halftone = stage(5, vec![]);
    let convert = stage(4, vec![halftone]);
    let compress = stage(6, vec![]);
    let mark_a = stage(8, vec![]);
    let mark_b = stage(8, vec![]);
    let report_b = stage(PPS_REPORT, vec![]);
    let report_c = stage(PPS_REPORT, vec![]);
    let finish = stage(9, vec![report_c]);
    let rasterize = stage(PPS_RASTERIZE, vec![mark_a, mark_b, report_b, finish]);
    let interpret = stage(2, vec![layout, convert, compress, rasterize]);
    let enqueue = stage(1, vec![report_a, interpret]);
    stage(0, vec![enqueue])
}

/// A PPS-shaped stream of `shape.jobs` print jobs.
pub fn pps(seed: u64, shape: PpsShape) -> Stream {
    let (vocab, deployment, objects) = pps_vocab();
    let mut rng = Rng::new(seed);
    let mut emitter = Emitter {
        objects: &objects,
        cpu: false,
        threads_per_process: 4,
        rng: Rng::new(seed.rotate_left(17) ^ 0x5151),
    };
    let mut drain = Drain::new(4, 64);
    let mut expected_completions: BTreeMap<Series, u64> = BTreeMap::new();
    let mut planned_calls = 0;
    let mut damaged_chains = 0;
    let mut root_ids = std::collections::HashSet::new();
    for job in 0..shape.jobs {
        let slow = shape.episode_period > 0 && job % shape.episode_period < shape.episode_len;
        let tree = pps_job(&mut rng, slow);
        let mut damage = Damage::None;
        if shape.damage_every > 0 && job % shape.damage_every == shape.damage_every - 1 {
            damage = if damaged_chains % 2 == 0 {
                Damage::DropSkelStart
            } else {
                Damage::DuplicateSkelEnd
            };
            damaged_chains += 1;
        }
        let dropped_start = damage == Damage::DropSkelStart;
        let mut chain = Chain {
            uuid: rng.uuid(),
            seq: 0,
            records: Vec::new(),
        };
        root_ids.insert(chain.uuid);
        let mut t = job * 1_000_000;
        let mut forks = Vec::new();
        let client = Site {
            process: ProcessId(0),
            thread: 0,
        };
        emitter.call(&mut chain, &tree, client, &mut t, &mut forks, &mut damage);
        planned_calls += tree.size();
        count_completions(&tree, &emitter, &mut expected_completions);
        if dropped_start {
            *expected_completions
                .get_mut(&(InterfaceId(0), MethodIndex(PPS_REPORT)))
                .expect("every job reports") -= 1;
        }
        drain.push_chain(chain);
        for (sub, _) in forks {
            drain.push_chain(sub);
        }
    }
    let records = drain.finish();
    let roots = last_indexes(&records, |u| root_ids.contains(&u));
    Stream {
        records,
        vocab,
        deployment,
        planned_calls,
        expected_completions,
        damaged_chains,
        roots,
        episodes: shape.episode_period > 0 && shape.episode_len > 0,
    }
}

fn count_completions(call: &Call, emitter: &Emitter<'_>, out: &mut BTreeMap<Series, u64>) {
    *out.entry(emitter.func(call).method_key()).or_insert(0) += 1;
    for child in &call.children {
        count_completions(child, emitter, out);
    }
}

/// Shape of the commercial-system stand-in: the defaults of the
/// repository's `CommercialSystem` workload (the paper's §4 figures).
const CS_COMPONENTS: usize = 176;
const CS_INTERFACES: usize = 155;
const CS_METHODS: usize = 801;
/// Call levels. Level `l` lives in server process `l + 1` (process 0 is
/// the client that issues the transactions), so every call crosses a
/// process.
const CS_LEVELS: usize = 4;
/// Pool workers per server process, and client threads.
const CS_POOL: u64 = 7;
const CS_CLIENTS: u64 = 4;
/// Service time of every method (`CommercialSystem` computes 5 µs).
const CS_SERVICE_NS: u64 = 5_000;

/// The stand-in's static call graph, built by `CommercialSystem`'s rules:
/// methods spread over interfaces with a skew, component `c` on level
/// `c % 4` implementing interface `c % 155`, a coverage pass giving every
/// method below level 0 one caller one level up, then 0–2 extra callees
/// one level down for every method above the last level.
struct CallGraph {
    /// Global method ids declared on each interface.
    iface_methods: Vec<Vec<usize>>,
    /// `callees[component][method slot]`.
    callees: Vec<Vec<Vec<(usize, u16)>>>,
    by_level: Vec<Vec<usize>>,
}

impl CallGraph {
    fn wire(rng: &mut Rng) -> CallGraph {
        // A few fat interfaces, many small ones.
        let mut per_iface = vec![1usize; CS_INTERFACES];
        let mut remaining = CS_METHODS - CS_INTERFACES;
        while remaining > 0 {
            let grab = remaining.min(1 + rng.below(3) as usize);
            per_iface[rng.below(CS_INTERFACES as u64) as usize] += grab;
            remaining -= grab;
        }
        let mut next = 0;
        let iface_methods: Vec<Vec<usize>> = per_iface
            .iter()
            .map(|&n| {
                next += n;
                (next - n..next).collect()
            })
            .collect();
        let slots = |c: usize| iface_methods[c % CS_INTERFACES].len();
        let by_level: Vec<Vec<usize>> = (0..CS_LEVELS)
            .map(|l| (l..CS_COMPONENTS).step_by(CS_LEVELS).collect())
            .collect();
        let mut callees: Vec<Vec<Vec<(usize, u16)>>> = (0..CS_COMPONENTS)
            .map(|c| vec![Vec::new(); slots(c)])
            .collect();
        let pick = |rng: &mut Rng, level: usize| {
            let comps = &by_level[level];
            let c = comps[rng.below(comps.len() as u64) as usize];
            (c, rng.below(slots(c) as u64) as u16)
        };
        for (level, comps) in by_level.iter().enumerate().skip(1) {
            for &c in comps {
                for m in 0..slots(c) {
                    let (caller, slot) = pick(rng, level - 1);
                    callees[caller][slot as usize].push((c, m as u16));
                }
            }
        }
        for (c, methods) in callees.iter_mut().enumerate() {
            let level = c % CS_LEVELS;
            if level + 1 == CS_LEVELS {
                continue;
            }
            for slot in methods {
                for _ in 0..rng.below(3) {
                    slot.push(pick(rng, level + 1));
                }
            }
        }
        CallGraph {
            iface_methods,
            callees,
            by_level,
        }
    }

    /// The call tree under `(component, method)`, with per-call service
    /// times drawn from `rng`.
    fn tree(&self, rng: &mut Rng, component: usize, method: u16) -> Call {
        let children = self.callees[component][method as usize]
            .iter()
            .map(|&(callee, m)| self.tree(rng, callee, m))
            .collect();
        Call {
            object: component as u64,
            method,
            kind: CallKind::Sync,
            service_ns: rng.jitter(CS_SERVICE_NS),
            children,
        }
    }
}

/// A commercial-system-shaped stream of at least `target_calls`
/// invocations, in whole transactions. As in `CommercialSystem::run`, the
/// transactions cycle through every level-0 (component, method) in turn,
/// issued by four client threads; unlike it, every call carries wall and
/// CPU stamps, so the latency and CPU analyses have work to do.
pub fn commercial(seed: u64, target_calls: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let graph = CallGraph::wire(&mut rng);
    let iface_of = |c: usize| c % CS_INTERFACES;
    let process_of = |c: usize| ProcessId((c % CS_LEVELS + 1) as u16);
    let vocab = VocabSnapshot {
        interfaces: graph
            .iface_methods
            .iter()
            .enumerate()
            .map(|(j, ids)| InterfaceEntry {
                name: format!("Commercial::I{j}"),
                methods: ids.iter().map(|m| format!("m{m}")).collect(),
            })
            .collect(),
        components: (0..CS_COMPONENTS)
            .map(|c| format!("Component{c}"))
            .collect(),
        cpu_types: vec!["PA-RISC".to_owned()],
        objects: (0..CS_COMPONENTS)
            .map(|c| {
                (
                    ObjectId(c as u64),
                    ObjectEntry {
                        label: format!("comp{c}#0"),
                        interface: InterfaceId(iface_of(c) as u32),
                        component: ComponentId(c as u32),
                        process: process_of(c),
                    },
                )
            })
            .collect(),
    };
    let mut deployment = Deployment::new();
    let node = deployment.add_node("embedded-cpu", CpuTypeId(0));
    deployment.add_process("client", node);
    for l in 0..CS_LEVELS {
        deployment.add_process(&format!("server-{l}"), node);
    }
    let objects: Vec<(InterfaceId, ProcessId)> = (0..CS_COMPONENTS)
        .map(|c| (InterfaceId(iface_of(c) as u32), process_of(c)))
        .collect();
    let entry_points: Vec<(usize, u16)> = graph.by_level[0]
        .iter()
        .flat_map(|&c| (0..graph.iface_methods[iface_of(c)].len()).map(move |m| (c, m as u16)))
        .collect();

    let mut emitter = Emitter {
        objects: &objects,
        cpu: true,
        threads_per_process: CS_POOL,
        rng: Rng::new(seed.rotate_left(29) ^ 0xc5c5),
    };
    let mut drain = Drain::new(1 + CS_LEVELS, 256);
    let mut expected_completions = BTreeMap::new();
    let mut planned_calls = 0;
    let mut root_ids = std::collections::HashSet::new();
    let mut tx = 0u64;
    while planned_calls < target_calls {
        let (root, method) = entry_points[tx as usize % entry_points.len()];
        let tree = graph.tree(&mut rng, root, method);
        let mut chain = Chain {
            uuid: rng.uuid(),
            seq: 0,
            records: Vec::new(),
        };
        root_ids.insert(chain.uuid);
        let mut t = tx * 10_000_000;
        let client = Site {
            process: ProcessId(0),
            thread: 1 + (tx % CS_CLIENTS) as u32,
        };
        emitter.call(
            &mut chain,
            &tree,
            client,
            &mut t,
            &mut Vec::new(),
            &mut Damage::None,
        );
        planned_calls += tree.size();
        count_completions(&tree, &emitter, &mut expected_completions);
        drain.push_chain(chain);
        tx += 1;
    }
    let records = drain.finish();
    let roots = last_indexes(&records, |u| root_ids.contains(&u));
    Stream {
        records,
        vocab,
        deployment,
        planned_calls,
        expected_completions,
        damaged_chains: 0,
        roots,
        episodes: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causeway_analyzer::dscg::Dscg;
    use causeway_collector::db::MonitoringDb;
    use causeway_core::runlog::RunLog;
    use causeway_core::wire;

    fn dscg_of(stream: &Stream) -> Dscg {
        let run = RunLog::new(
            stream.records.clone(),
            stream.vocab.clone(),
            stream.deployment.clone(),
        );
        Dscg::build(&MonitoringDb::from_run(run))
    }

    const CLEAN: PpsShape = PpsShape {
        jobs: 300,
        damage_every: 0,
        episode_period: 0,
        episode_len: 0,
    };

    #[test]
    fn same_seed_gives_identical_wire_bytes() {
        let a = wire::encode_records(&pps(7, CLEAN).records);
        assert_eq!(a, wire::encode_records(&pps(7, CLEAN).records));
        assert_ne!(a, wire::encode_records(&pps(8, CLEAN).records));
        let c = wire::encode_records(&commercial(7, 5_000).records);
        assert_eq!(c, wire::encode_records(&commercial(7, 5_000).records));
        assert_ne!(c, wire::encode_records(&commercial(8, 5_000).records));
    }

    #[test]
    fn clean_pps_stream_builds_exactly_the_planned_calls() {
        let stream = pps(3, CLEAN);
        // 11 sync stages and 3 one-way reports per job.
        assert_eq!(stream.planned_calls, 14 * 300);
        assert_eq!(stream.records.len() as u64, (11 * 4 + 3 * 4) * 300);
        assert_eq!(stream.expected_total(), stream.planned_calls);
        assert_eq!(stream.roots.len(), 300);
        let dscg = dscg_of(&stream);
        assert!(
            dscg.abnormalities.is_empty(),
            "{:?}",
            &dscg.abnormalities[..1]
        );
        assert_eq!(dscg.total_nodes() as u64, stream.planned_calls);
        assert_eq!(
            dscg.trees.len(),
            300,
            "every report chain grafts onto its job"
        );
    }

    #[test]
    fn clean_commercial_stream_builds_exactly_the_planned_calls() {
        let stream = commercial(3, 20_000);
        assert!(stream.planned_calls >= 20_000);
        assert_eq!(stream.records.len() as u64, 4 * stream.planned_calls);
        let dscg = dscg_of(&stream);
        assert!(
            dscg.abnormalities.is_empty(),
            "{:?}",
            &dscg.abnormalities[..1]
        );
        assert_eq!(dscg.total_nodes() as u64, stream.planned_calls);
        assert_eq!(dscg.trees.len(), stream.roots.len());
        let depths: Vec<usize> = dscg.trees.iter().map(|t| t.roots[0].depth()).collect();
        assert_eq!(
            depths.iter().max(),
            Some(&CS_LEVELS),
            "one level per process"
        );
        dscg.walk(&mut |node, _| assert_eq!(node.kind, CallKind::Sync, "every call is remote"));
    }

    #[test]
    fn damaged_chains_are_flagged_and_keep_the_planned_nodes() {
        let shape = PpsShape {
            damage_every: 10,
            ..CLEAN
        };
        let stream = pps(5, shape);
        assert_eq!(stream.damaged_chains, 30);
        assert_eq!(stream.expected_total(), stream.planned_calls - 15);
        let dscg = dscg_of(&stream);
        assert!(dscg.abnormalities.len() as u64 >= stream.damaged_chains);
        assert_eq!(dscg.total_nodes() as u64, stream.planned_calls);
    }
}
