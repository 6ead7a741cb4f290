//! The paper's Figure-4 reconstruction automaton — the one implementation
//! the off-line DSCG pass and the live analyzer both run.
//!
//! A [`Machine`] holds everything one causal chain needs: a resequencer
//! (records are applied in event-number order, whatever order they arrive
//! in), the stack of open invocations, and the count of completed ones.
//! What happens to a closed invocation is up to a [`Sink`]: the off-line
//! pass ([`crate::dscg`]) grafts it into a call tree, the live analyzer
//! ([`crate::online`]) turns it into a management event.
//!
//! A synchronous invocation contributes the pattern
//! `F.stub_start … F.skel_start … (children) … F.skel_end … F.stub_end`;
//! a one-way invocation contributes `F.stub_start F.stub_end` on the parent
//! chain and `F.skel_start … (children) … F.skel_end` at the head of a fresh
//! child chain. When a record follows none of the legal transitions, the
//! machine "indicates the failure and restarts from the next log record":
//! the failure is reported as an [`Abnormality`].

use crate::dscg::CallNode;
use causeway_core::event::{CallKind, TraceEvent};
use causeway_core::record::{FunctionKey, ProbeRecord};
use causeway_core::uuid::Uuid;
use std::collections::BTreeMap;

/// A reconstruction failure: a record followed none of the legal Figure-4
/// transitions, or the chain's event numbers were not dense.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Abnormality {
    /// The chain on which the failure occurred.
    pub chain: Uuid,
    /// The event number of the offending record (`None` for end-of-stream
    /// failures such as never-closed invocations).
    pub at_seq: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

/// How an invocation left the open-frame stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Close {
    /// The invocation finished on this chain.
    Complete,
    /// A one-way call's stub side closed: the send is confirmed, and the
    /// invocation itself completes on its child chain.
    Sent,
    /// The machine force-closed a confused or never-finished invocation.
    Forced,
}

/// One open invocation on a chain's stack.
#[derive(Debug)]
pub struct Frame<A> {
    /// The invocation's probe records so far. The machine never touches
    /// `children`; that is the sink's to fill.
    pub node: CallNode,
    /// What the sink accumulates from the frame's closed children.
    pub acc: A,
}

/// Receives what a [`Machine`] reconstructs.
pub trait Sink<A> {
    /// `frame` closed `how`, at nesting `depth` (0 = top level); `parent`
    /// is the frame it returns into, if any.
    fn closed(&mut self, frame: Frame<A>, how: Close, depth: usize, parent: Option<&mut Frame<A>>);

    /// A record was refused, or the stream ended abnormally.
    fn abnormality(&mut self, abnormality: Abnormality);
}

/// The Figure-4 state of one causal chain.
#[derive(Debug)]
pub struct Machine<A> {
    chain: Uuid,
    /// The highest event number applied (dense numbering: the next record
    /// to apply is `processed + 1`).
    processed: u64,
    /// Arrivals waiting for their predecessors.
    pending: BTreeMap<u64, ProbeRecord>,
    stack: Vec<Frame<A>>,
    completed: usize,
}

impl<A: Default> Machine<A> {
    /// A chain with nothing applied yet.
    pub fn new(chain: Uuid) -> Machine<A> {
        Machine {
            chain,
            processed: 0,
            pending: BTreeMap::new(),
            stack: Vec::new(),
            completed: 0,
        }
    }

    /// Feeds one record of this chain, in any arrival order. A record whose
    /// event number was already applied or is already buffered is reported
    /// as a duplicate and dropped.
    pub fn step(&mut self, record: ProbeRecord, sink: &mut impl Sink<A>) {
        let seq = record.seq;
        if seq <= self.processed || self.pending.contains_key(&seq) {
            self.abnormal(Some(seq), format!("duplicate event number {seq}"), sink);
        } else if seq - self.processed == 1 {
            // In order: skip the buffer.
            self.processed = seq;
            self.apply(record, sink);
            while let Some(entry) = self.pending.first_entry() {
                if *entry.key() - self.processed != 1 {
                    break;
                }
                let record = entry.remove();
                self.processed += 1;
                self.apply(record, sink);
            }
        } else {
            self.pending.insert(seq, record);
        }
    }

    /// Ends the stream: buffered records are applied across their gaps
    /// (each gap reported once), then every invocation still open is
    /// reported and force-closed, innermost first.
    pub fn finish(mut self, sink: &mut impl Sink<A>) {
        while let Some((seq, record)) = self.pending.pop_first() {
            if seq - self.processed != 1 {
                let expected = self.processed + 1;
                self.abnormal(
                    Some(seq),
                    format!("gap in event numbers: expected {expected}, have {seq}"),
                    sink,
                );
            }
            self.processed = seq;
            self.apply(record, sink);
        }
        while let Some(frame) = self.stack.last() {
            let message = format!("invocation {} never completed", frame.node.func);
            self.abnormal(None, message, sink);
            self.close(Close::Forced, sink);
        }
    }

    /// `true` when no invocation is open and no record is buffered.
    pub fn is_idle(&self) -> bool {
        self.stack.is_empty() && self.pending.is_empty()
    }

    /// Invocations open on the stack.
    pub fn open_calls(&self) -> usize {
        self.stack.len()
    }

    /// The innermost open invocation, if any.
    pub fn innermost(&self) -> Option<FunctionKey> {
        self.stack.last().map(|frame| frame.node.func)
    }

    /// Records buffered waiting for their predecessors.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Invocations that closed [`Close::Complete`] so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The highest event number applied.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// One Figure-4 transition.
    fn apply(&mut self, record: ProbeRecord, sink: &mut impl Sink<A>) {
        let (seq, func) = (record.seq, record.func);
        let empty = self.stack.is_empty();
        let top = self
            .stack
            .last_mut()
            .filter(|frame| frame.node.func == func);
        let refused = match record.event {
            TraceEvent::StubStart => {
                let mut node = CallNode::new(func, record.kind);
                node.stub_start = Some(record);
                self.push(node);
                None
            }
            TraceEvent::SkelStart => match top {
                Some(frame)
                    if frame.node.stub_start.is_some() && frame.node.skel_start.is_none() =>
                {
                    frame.node.skel_start = Some(record);
                    None
                }
                _ if empty && record.kind == CallKind::Oneway => {
                    // Head of a one-way child chain.
                    let mut node = CallNode::new(func, record.kind);
                    node.skel_start = Some(record);
                    self.push(node);
                    None
                }
                _ => Some("unexpected skel_start"),
            },
            TraceEvent::SkelEnd => match top {
                Some(frame) if frame.node.skel_start.is_some() && frame.node.skel_end.is_none() => {
                    // A one-way skeleton side completes here: no stub_end
                    // will arrive on this chain.
                    let head =
                        frame.node.kind == CallKind::Oneway && frame.node.stub_start.is_none();
                    frame.node.skel_end = Some(record);
                    if head {
                        self.close(Close::Complete, sink);
                    }
                    None
                }
                Some(_) => Some("skel_end without open skeleton"),
                None => Some("unexpected skel_end"),
            },
            TraceEvent::StubEnd => match top {
                Some(frame) => {
                    let node = &mut frame.node;
                    let how = match node.kind {
                        // One-way stub side: stub_start then stub_end, no
                        // skeleton events on this chain.
                        CallKind::Oneway => {
                            if node.stub_start.is_some() && node.skel_end.is_none() {
                                Close::Sent
                            } else {
                                Close::Forced
                            }
                        }
                        // Synchronous / collocated: the skeleton must have
                        // closed first.
                        _ if node.skel_end.is_some() => Close::Complete,
                        _ => Close::Forced,
                    };
                    if how != Close::Forced {
                        node.stub_end = Some(record);
                    }
                    // A forced close is the restart heuristic: dropping the
                    // confused frame lets later records re-synchronize.
                    self.close(how, sink);
                    (how == Close::Forced).then_some("stub_end out of order")
                }
                None => Some("unexpected stub_end"),
            },
        };
        if let Some(what) = refused {
            self.abnormal(Some(seq), format!("{what} for {func}"), sink);
        }
    }

    fn push(&mut self, node: CallNode) {
        self.stack.push(Frame {
            node,
            acc: A::default(),
        });
    }

    fn close(&mut self, how: Close, sink: &mut impl Sink<A>) {
        let mut frame = self.stack.pop().expect("caller checked the stack");
        frame.node.complete = how != Close::Forced;
        if how == Close::Complete {
            self.completed += 1;
        }
        let depth = self.stack.len();
        sink.closed(frame, how, depth, self.stack.last_mut());
    }

    fn abnormal(&self, at_seq: Option<u64>, message: String, sink: &mut impl Sink<A>) {
        sink.abnormality(Abnormality {
            chain: self.chain,
            at_seq,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dscg::Dscg;
    use crate::online::{OnlineAnalyzer, OnlineEvent};
    use causeway_collector::db::MonitoringDb;
    use causeway_core::deploy::Deployment;
    use causeway_core::ids::*;
    use causeway_core::names::VocabSnapshot;
    use causeway_core::record::CallSite;
    use causeway_core::runlog::RunLog;

    fn rec(seq: u64, event: TraceEvent) -> ProbeRecord {
        ProbeRecord {
            uuid: Uuid(1),
            seq,
            event,
            kind: CallKind::Sync,
            site: CallSite {
                node: NodeId(0),
                process: ProcessId(0),
                thread: LogicalThreadId(0),
            },
            func: FunctionKey::new(InterfaceId(0), MethodIndex(0), ObjectId(1)),
            wall_start: Some(seq.wrapping_mul(10)),
            wall_end: Some(seq.wrapping_mul(10).wrapping_add(1)),
            cpu_start: None,
            cpu_end: None,
            oneway_child: None,
            oneway_parent: None,
        }
    }

    /// One 4-record sync chain.
    fn chain() -> Vec<ProbeRecord> {
        TraceEvent::ALL
            .iter()
            .enumerate()
            .map(|(i, &e)| rec(i as u64 + 1, e))
            .collect()
    }

    /// The abnormalities both paths report for `records`, sorted.
    fn both_paths(records: Vec<ProbeRecord>) -> (Vec<Abnormality>, Vec<Abnormality>) {
        let db = MonitoringDb::from_run(RunLog::new(
            records.clone(),
            VocabSnapshot::default(),
            Deployment::new(),
        ));
        let mut offline = Dscg::build(&db).abnormalities;
        let mut analyzer = OnlineAnalyzer::new();
        let mut online = Vec::new();
        let mut keep = |e| {
            if let OnlineEvent::Abnormality(a) = e {
                online.push(a);
            }
        };
        for record in records {
            analyzer.ingest(record, &mut keep);
        }
        analyzer.finish(&mut keep);
        offline.sort();
        online.sort();
        (offline, online)
    }

    #[test]
    fn second_skel_end_with_a_fresh_seq_is_refused_on_both_paths() {
        let mut records = chain();
        let mut again = rec(4, TraceEvent::SkelEnd);
        again.wall_start = Some(35);
        records.insert(3, again);
        records[4].seq = 5;
        let (offline, online) = both_paths(records);
        assert_eq!(offline.len(), 1, "{offline:?}");
        assert_eq!(offline[0].at_seq, Some(4));
        assert!(offline[0]
            .message
            .starts_with("skel_end without open skeleton"));
        assert_eq!(online, offline);
    }

    #[test]
    fn same_seq_duplicate_is_one_duplicate_on_both_paths() {
        let mut records = chain();
        records.insert(3, rec(3, TraceEvent::SkelEnd));
        let (offline, online) = both_paths(records);
        assert_eq!(
            offline,
            vec![Abnormality {
                chain: Uuid(1),
                at_seq: Some(3),
                message: "duplicate event number 3".into(),
            }]
        );
        assert_eq!(online, offline);
    }

    #[test]
    fn gap_is_one_gap_on_both_paths() {
        let mut records = chain();
        records.remove(1); // skel_start lost
        let (offline, online) = both_paths(records);
        let messages: Vec<&str> = offline.iter().map(|a| a.message.as_str()).collect();
        assert_eq!(
            messages
                .iter()
                .filter(|m| m.starts_with("gap in event numbers"))
                .count(),
            1
        );
        assert!(
            messages.contains(&"gap in event numbers: expected 2, have 3"),
            "{messages:?}"
        );
        assert_eq!(online, offline);
    }

    #[test]
    fn never_completed_has_no_event_number() {
        let mut records = chain();
        records.truncate(2);
        let (offline, online) = both_paths(records);
        assert_eq!(offline.len(), 1);
        assert_eq!(offline[0].at_seq, None);
        assert!(offline[0].message.ends_with("never completed"));
        assert_eq!(online, offline);
    }

    /// Counts what a machine reports, for resequencer checks.
    #[derive(Default)]
    struct Tally {
        closed: Vec<(Close, usize)>,
        abnormal: Vec<Abnormality>,
    }

    impl Sink<()> for Tally {
        fn closed(&mut self, _: Frame<()>, how: Close, depth: usize, _: Option<&mut Frame<()>>) {
            self.closed.push((how, depth));
        }
        fn abnormality(&mut self, abnormality: Abnormality) {
            self.abnormal.push(abnormality);
        }
    }

    #[test]
    fn out_of_order_arrivals_wait_for_their_predecessors() {
        let mut records = chain();
        records.reverse();
        let mut machine = Machine::new(Uuid(1));
        let mut tally = Tally::default();
        for record in records {
            machine.step(record, &mut tally);
        }
        assert_eq!(tally.closed, vec![(Close::Complete, 0)]);
        assert!(tally.abnormal.is_empty());
        assert!(machine.is_idle());
        assert_eq!((machine.processed(), machine.completed()), (4, 1));
    }

    #[test]
    fn extreme_event_numbers_do_not_overflow() {
        let mut machine = Machine::new(Uuid(1));
        let mut tally = Tally::default();
        machine.step(rec(u64::MAX, TraceEvent::StubStart), &mut tally);
        machine.step(rec(u64::MAX, TraceEvent::StubEnd), &mut tally);
        machine.step(rec(0, TraceEvent::StubEnd), &mut tally);
        assert_eq!(machine.buffered(), 1);
        machine.finish(&mut tally);
        let messages: Vec<&str> = tally.abnormal.iter().map(|a| a.message.as_str()).collect();
        assert_eq!(
            messages,
            vec![
                format!("duplicate event number {}", u64::MAX).as_str(),
                "duplicate event number 0",
                format!("gap in event numbers: expected 1, have {}", u64::MAX).as_str(),
                "invocation if0.m0@obj1 never completed",
            ]
        );
        assert_eq!(tally.closed, vec![(Close::Forced, 0)]);
    }
}
