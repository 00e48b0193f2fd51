//! # hws-sim — discrete-event simulation kernel
//!
//! A small, dependency-free discrete-event simulation (DES) core in the
//! spirit of CQSim's event engine: a virtual clock, a priority queue of
//! timestamped events with deterministic FIFO tie-breaking, lazy event
//! cancellation, and a driver loop.
//!
//! The kernel is generic over the event payload type so it can be reused by
//! any simulator; the hybrid-workload scheduler in `hws-core` instantiates it
//! with its own event enum.
//!
//! ## Determinism
//!
//! Two events scheduled for the same instant are delivered in the order they
//! were scheduled (a monotonically increasing sequence number breaks ties).
//! Given the same initial schedule and a deterministic handler, every run
//! produces an identical event trace — a property the test-suite checks and
//! the multi-seed experiment harness relies on.

pub mod engine;
pub mod par;
pub mod queue;
pub mod snap;
pub mod time;

pub use engine::{Engine, EngineStats, Simulation};
pub use par::par_map;
pub use queue::{EventId, EventQueue, QueueSnapshot};
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
