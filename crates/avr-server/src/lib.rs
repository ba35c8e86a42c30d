//! Sweep server: a queue-driven simulation job service on top of the
//! deterministic `SimPool` engine.
//!
//! Configuration sweeps over the (workload × design × backend × layout)
//! grid are embarrassingly parallel but long-running; this crate turns the
//! in-process grid runner into a small TCP service so sweeps can be
//! submitted, watched, extended and cancelled without restarting the
//! simulator (the shape follows distributed sweep harnesses around
//! approximate-memory studies, cf. arXiv:2105.14151). Everything is
//! `std`-only: the wire format is hand-rolled line-delimited JSON
//! ([`json::Json`]), one request or event per line.
//!
//! The headline property is the **determinism contract**: batch results
//! are bit-identical to running the same cells serially, at any worker
//! width, any submission interleaving, and across client disconnects (see
//! [`server`] docs; `tests/server.rs` in the workspace root pins it over
//! the full suite).
//!
//! # Quickstart
//!
//! ```no_run
//! use avr_server::{Client, SweepServer};
//! use avr_types::CellSpec;
//!
//! let (addr, handle) = SweepServer::bind("127.0.0.1:0")?.spawn();
//! let mut client = Client::connect(addr)?;
//! let job = client.submit(vec![CellSpec::new("heat"), CellSpec::new("fft")])?;
//! let outcome = client.collect_job(job)?;
//! assert_eq!(outcome.completed, 2);
//! client.shutdown()?;
//! handle.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod json;
pub mod proto;
pub mod server;

pub use client::{Client, JobOutcome};
pub use json::Json;
pub use proto::{
    cell_error_event, cell_from_json, cell_to_json, error_response, job_done_event,
    metrics_to_json, result_event, Request,
};
pub use server::{base_config, CellRunner, SweepServer, MAX_REQUEST_LINE};
