//! The SAPA alignment search service: a std-only TCP daemon over the
//! engine layer.
//!
//! The paper benchmarks sequence-alignment kernels; a production
//! deployment of those kernels is a *search service* — many clients,
//! mixed engines, tenants of very different sizes, and a hard
//! requirement that one bad request (or one kernel panic) never takes
//! the process down. This crate is that deployment story, built
//! entirely on `std` (`TcpListener` + a line-delimited JSON protocol,
//! no external dependencies):
//!
//! * [`server`] — the daemon: bounded request queue with cell-priced
//!   admission control, per-tenant token buckets and deficit-round-robin
//!   dispatch, per-request deadlines with graceful degradation, and
//!   two-level panic quarantine.
//! * [`protocol`] — the wire format and its typed error codes.
//! * [`json`] — the hardened, dependency-free JSON used by both sides.
//! * [`admission`], [`quota`], [`metrics`] — the policy pieces, each
//!   unit-tested deterministically.
//! * [`client`] — a small blocking client for harnesses and tests.
//!
//! # Quick start
//!
//! ```
//! use std::time::Duration;
//! use sapa_service::{serve, Client, SearchParams, ServiceConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let cfg = ServiceConfig {
//!     db_seqs: 40,
//!     ..ServiceConfig::default()
//! };
//! let server = serve(cfg)?;
//! let mut client = Client::connect(server.addr(), Duration::from_secs(5))?;
//! let reply = client.search(&SearchParams {
//!     id: 1,
//!     tenant: "docs",
//!     engine: "striped",
//!     query: "MKWVTFISLLFLFSSAYSRGVFRRDAHKSE",
//!     top_k: 5,
//!     min_score: 1,
//!     deadline_cells: None,
//!     deadline_ms: None,
//! })?;
//! assert!(reply.contains("\"type\":\"result\""));
//! let stats = server.shutdown();
//! assert_eq!(stats.submitted, 1);
//! assert!(stats.balances());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod quota;
pub mod server;

pub use client::{Client, SearchParams};
pub use metrics::Snapshot;
pub use protocol::{ErrorCode, Limits};
pub use server::{quiet_injected_panics, serve, QuotaConfig, ServiceConfig, ServiceHandle};
