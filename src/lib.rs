//! Umbrella crate for the dataflow-debugger workspace.
//!
//! Re-exports every layer of the stack so examples and integration tests
//! can reach the whole system through a single dependency:
//!
//! * [`p2012`] — the Platform 2012 functional simulator (substrate);
//! * [`kernelc`] — the C-subset kernel compiler (substrate);
//! * [`pedf`] — the PEDF dynamic dataflow runtime (substrate);
//! * [`mind`] — the architecture-description front end (substrate);
//! * [`dfa`] — the static dataflow analyzer (deadlock/rate checking and
//!   kernel lints before execution);
//! * [`bcv`] — the bytecode verifier and static shared-memory race/DMA
//!   analysis over the linked image;
//! * [`sched`] — the static performance analyzer (minimal deadlock-free
//!   FIFO capacities, WCET intervals, throughput bounds);
//! * [`replay`] — the deterministic checkpoint/replay engine behind the
//!   debugger's time-travel commands;
//! * [`dfdbg`] — the dataflow-aware interactive debugger (the paper's
//!   contribution);
//! * [`server`] — the remote multi-session debug server (TCP, newline-
//!   delimited JSON wire protocol, metrics and event log) and its client;
//! * [`h264`] — the H.264-style case-study application (§VI), and
//!   [`decoder::Decoder`], its variants as a differential-oracle target.

pub mod decoder;

pub use appgen;
pub use bcv;
pub use debuginfo;
pub use dfa;
pub use dfdbg;
pub use h264_pipeline as h264;
pub use kernelc;
pub use mind;
pub use multiverse;
pub use p2012;
pub use pedf;
pub use replay;
pub use sched;
pub use server;
