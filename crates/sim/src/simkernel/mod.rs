//! The state-vector gate-kernel subsystem.
//!
//! Two tiers:
//!
//! * [`mod@reference`] — the original scalar loops (generic 2×2 matmul +
//!   full-array scans), kept verbatim as the correctness oracle and the
//!   speedup baseline; callers reach it by name;
//! * `specialized` — index-permutation / sign-flip passes for the
//!   Pauli/controlled gates and real-coefficient stride-blocked
//!   butterflies for the rotation family, the one path
//!   [`crate::StateVector::apply_gate`] runs.

pub mod reference;
pub(crate) mod specialized;
