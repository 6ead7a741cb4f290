//! # causeway-analyzer
//!
//! The off-line characterization tool of the paper's §3: reconstruct the
//! **Dynamic System Call Graph** from the causality records, then compute
//! end-to-end timing latency and system-wide CPU consumption on top of it.
//!
//! * `figure4` (crate-internal) — the Figure-4 state machine, with
//!   "abnormal" transition reporting and restart: the one automaton both
//!   the off-line and the live path run, per causal chain.
//! * [`dscg`] — parses each causal chain's event stream into a call tree
//!   with that machine; one-way child chains are grafted under their fork
//!   sites.
//! * [`latency`] — `L(F) = P_{F,4,start} − P_{F,1,end} − O_F` with the
//!   probe-overhead compensation `O_F`, plus per-method statistics.
//! * [`cpu`] — self CPU `SC_F`, descendant CPU `DC_F` as a vector per
//!   processor type, propagated up the call hierarchy.
//! * [`ccsg`] — the CPU Consumption Summarization Graph of Figure 6.
//! * [`render`] — ASCII / DOT / JSON views of the DSCG (substituting for
//!   the hyperbolic tree viewer) and the XML view of the CCSG.
//!
//! # Example
//!
//! ```
//! use causeway_collector::db::MonitoringDb;
//! use causeway_core::runlog::RunLog;
//! use causeway_analyzer::dscg::Dscg;
//!
//! let db = MonitoringDb::from_run(RunLog::default());
//! let dscg = Dscg::build(&db);
//! assert!(dscg.trees.is_empty());
//! assert!(dscg.abnormalities.is_empty());
//! ```

#![warn(missing_docs)]

pub mod ccsg;
pub mod chrome_trace;
pub mod cpu;
pub mod dscg;
pub mod exemplar;
mod figure4;
pub mod history;
pub mod hotspot;
pub mod incident;
pub mod latency;
pub mod live;
pub mod online;
pub mod render;
#[cfg(test)]
mod spill_tests;

pub use ccsg::{Ccsg, CcsgNode};
pub use cpu::{CpuAnalysis, CpuVector};
pub use dscg::{Abnormality, CallNode, CallTree, Dscg};
pub use exemplar::{Exemplar, ExemplarConfig, ExemplarStore};
pub use history::{BurnRule, BurnState, WindowHistory};
pub use incident::{Hypothesis, Incident, IncidentStore, Tombstone};
pub use latency::{LatencyAnalysis, LatencyStats};
pub use live::{AlertEvent, AlertRule, LiveConfig, LiveMonitor, WindowSnapshot};
