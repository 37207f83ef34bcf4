//! Virtual PowerPC/Altivec-like ISA and instruction tracing.
//!
//! The paper generates PowerPC+Altivec instruction traces of each
//! application with IBM's Aria/MET tools and replays them through the
//! Turandot simulator. This crate is our substitute for Aria/MET: it
//! defines a compact trace instruction format ([`inst::Inst`]), a
//! stable register name space ([`reg`]), a virtual address space
//! allocator ([`mem::AddressSpace`]) so instrumented workloads place
//! their data structures at realistic addresses, and a [`trace::Tracer`]
//! that instrumented kernels emit instructions into while performing the
//! real computation.
//!
//! What matters for the downstream cycle-accurate model is exactly what
//! a real trace carries: the dynamic sequence of instruction classes,
//! their register dependences, their effective addresses, and their
//! branch outcomes. All of those are produced here from the *actual*
//! control flow and data layout of the algorithms, so the
//! data-dependent behaviours the paper characterizes are genuine.
//!
//! ```
//! use sapa_isa::reg;
//! use sapa_isa::trace::Tracer;
//!
//! let mut t = Tracer::new();
//! let h = reg::gpr(3);
//! let e = reg::gpr(4);
//! t.ialu(10, h, &[h, e]);          // h = h + e
//! t.branch(11, true, 10, &[h]);    // loop backedge, taken
//! let trace = t.finish();
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.stats().total(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod inst;
pub mod mem;
pub mod packed;
pub mod reg;
pub mod stats;
pub mod trace;
pub mod validate;

pub use inst::{Inst, OpClass};
pub use packed::{BlockDecoder, PackedTrace, TraceError, BLOCK_LEN};
pub use stats::TraceStats;
pub use trace::{Trace, Tracer};

/// Errors produced by this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A serialized trace file had an invalid header or truncated body.
    MalformedTrace {
        /// Description of the structural problem.
        reason: String,
    },
    /// The virtual address space was exhausted.
    OutOfAddressSpace {
        /// Size of the allocation that failed.
        requested: u64,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::MalformedTrace { reason } => write!(f, "malformed trace: {reason}"),
            Error::OutOfAddressSpace { requested } => {
                write!(
                    f,
                    "virtual address space exhausted ({requested} bytes requested)"
                )
            }
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
