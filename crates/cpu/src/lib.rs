//! Turandot-like cycle-accurate out-of-order superscalar simulator.
//!
//! This crate is our from-scratch reimplementation of the simulation
//! infrastructure the paper uses: IBM's Turandot, a trace-driven,
//! fully parameterizable out-of-order PowerPC model, extended by the
//! authors with Altivec (and 256-bit Altivec) support, plus the
//! trauma-based stall accounting of Moreno et al. that produces the
//! paper's Figure 2.
//!
//! The model covers everything the paper's experiments vary:
//!
//! * pipeline widths (fetch/rename/dispatch/retire), in-flight and
//!   retire-queue limits, physical register files — Table IV presets
//!   [`config::CpuConfig::four_way`], [`config::CpuConfig::eight_way`],
//!   [`config::CpuConfig::sixteen_way`];
//! * per-class functional units and issue queues (LD/ST, FX, FP, BR,
//!   VI, VPER, VCMPLX, VFP);
//! * the memory hierarchy (IL1/DL1/shared L2/main memory, MSHRs) —
//!   Table V presets in [`config::MemConfig`];
//! * branch prediction (bimodal, gshare, combined "GP", perfect; BTB/
//!   NFA with redirect bubbles; misprediction recovery) — Table VI
//!   preset in [`config::BranchConfig`];
//! * trauma accounting over the classes of Table VII / Figure 2.
//!
//! # Example
//!
//! ```
//! use sapa_cpu::config::SimConfig;
//! use sapa_cpu::Simulator;
//! use sapa_isa::trace::Tracer;
//! use sapa_isa::reg;
//!
//! let mut t = Tracer::new();
//! for i in 0..100 {
//!     t.ialu(i % 7, reg::gpr(1), &[reg::gpr(1)]);
//! }
//! let trace = t.finish();
//! let report = Simulator::new(SimConfig::four_way()).run(&trace);
//! assert_eq!(report.instructions, 100);
//! assert!(report.cycles >= 100); // serial dependency chain
//! ```

#![forbid(unsafe_code)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod pipeline;
pub mod stats;
pub mod sweep;
pub mod trauma;

pub use config::SimConfig;
pub use pipeline::{DecodeBuf, Simulator};
pub use stats::SimReport;
pub use sweep::{run_jobs, run_jobs_isolated, JobFailure, SweepJob};
pub use trauma::Trauma;
