//! Baseline member lookup algorithms the paper compares against or
//! derives from.
//!
//! * [`gxx`] — the g++ 2.7.2.1 breadth-first subobject-graph lookup,
//!   both faithful (reproducing the false-ambiguity bug of Figure 9) and
//!   corrected;
//! * [`naive`] — the Section 4 two-phase path-propagation algorithm with
//!   the killing optimization as a switch (reproduces Figures 4–5 and
//!   powers the killing-ablation experiment);
//! * [`toposort`] — the topological-number shortcut of Section 7.2,
//!   sound only for unambiguous lookups;
//! * [`retired`] — the whole-table builders the batched compiler
//!   replaced, kept as its differential oracles.
//!
//! All of these exist to be measured against `cpplookup-core`'s
//! CHG-based algorithm; see `cpplookup-bench` for the experiments. The
//! [`adapters`] module puts each baseline behind the
//! [`cpplookup_core::MemberLookup`] trait so the differential suite can
//! drive them all through one interface.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapters;
pub mod gxx;
pub mod naive;
pub mod retired;
pub mod toposort;
