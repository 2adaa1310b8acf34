//! The Ramalingam–Srinivasan member lookup algorithm for C++
//! (PLDI 1997) — the paper's primary contribution.
//!
//! Member lookup resolves a member name `m` in the context of a class
//! `C`: the lookup succeeds iff one definition of `m` *dominates* all
//! others inside a `C` object, which is subtle in the presence of
//! multiple and virtual inheritance. This crate implements the paper's
//! efficient, polynomial-time algorithm:
//!
//! * [`LeastVirtual`] / [`RedAbs`] — the path abstractions of Section 4
//!   and the `∘` extension operator (Definition 15),
//! * [`red_dominates`] — the constant-time dominance test (Lemma 4), with
//!   the static-member extension of Section 6,
//! * [`LookupTable`] — the eager, whole-table algorithm of Figure 8
//!   (`O((|M|+|N|)·(|N|+|E|))` when all lookups are unambiguous),
//! * [`LazyLookup`] — the memoising on-demand variant,
//! * [`MemberLookup`] — the trait unifying all of the above (and the
//!   baselines) behind one query interface,
//! * [`serve`] — the flat [`DispatchIndex`]: a pre-decoded, cache-dense
//!   serving read path with an allocation-free
//!   [`lookup_ref`](DispatchIndex::lookup_ref) fast path, wait-free
//!   epoch-published versions ([`ServeHandle`]), and the edit path
//!   ([`IndexedEngine`]): an edit recomputes only the entries it can
//!   change, by incremental invalidation, and the published index is
//!   the only table kept,
//! * [`obs`] — the observability facade: propagation work counters and
//!   the build, snapshot, serve and edit metrics (always compiled in),
//! * [`trace`] — instrumented propagation reproducing Figures 6–7,
//! * [`access`] — post-lookup access-rights checking (Section 6),
//! * the applications the paper names in Section 1: [`dispatch`]
//!   (virtual-function tables), [`cha`] (static analysis of virtual
//!   calls), and [`slice`](mod@slice) (class hierarchy slicing).
//!
//! Every variant is differentially tested against the executable
//! Rossie–Friedman specification in `cpplookup-subobject`.
//!
//! # Examples
//!
//! The paper's Figure 9 program, on which g++ 2.7.2.1 wrongly reported an
//! ambiguity — the algorithm resolves it to `C::m`:
//!
//! ```
//! use cpplookup_chg::fixtures;
//! use cpplookup_core::{LookupOutcome, LookupTable};
//!
//! let g = fixtures::fig9();
//! let table = LookupTable::build(&g);
//! let e = g.class_by_name("E").unwrap();
//! let m = g.member_by_name("m").unwrap();
//! match table.lookup(e, m) {
//!     LookupOutcome::Resolved { class, .. } => assert_eq!(g.class_name(class), "C"),
//!     other => panic!("expected C::m, got {other:?}"),
//! }
//! // And the winning definition path is recoverable:
//! let path = table.resolve_path(&g, e, m).unwrap();
//! assert_eq!(path.display(&g).to_string(), "CDE");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod abstraction;
pub mod access;
mod api;
mod batched;
pub mod cha;
pub mod dispatch;
mod engine;
pub mod fxmap;
mod lazy;
pub mod mph;
pub mod obs;
mod result;
pub mod serve;
pub mod slice;
mod table;
pub mod trace;

pub use abstraction::{
    red_dominates, red_dominates_blue, DisplayLv, LeastVirtual, RedAbs, StaticRule,
};
pub use api::MemberLookup;
pub use engine::LookupEngine;
pub use lazy::LazyLookup;
pub use result::{DisplayEntry, Entry, LookupOutcome};
pub use serve::{
    DispatchIndex, IndexedEngine, IntoDispatchIndex, OutcomeRef, PublishedIndex, ServeHandle,
};
pub use table::{compute_entry_with, LookupOptions, LookupTable, TableStats};

pub mod prelude {
    //! The stable one-line import for lookup consumers:
    //! `use cpplookup_core::prelude::*;`.
    //!
    //! Re-exports the types almost every caller touches — the
    //! [`MemberLookup`] query trait and its [`LookupOutcome`], the
    //! buildable [`LookupTable`], and the serving layer ([`DispatchIndex`], [`ServeHandle`],
    //! [`IndexedEngine`]) behind the unified [`IntoDispatchIndex`]
    //! construction surface. Downstream facades (the root `cpplookup`
    //! crate) extend this with the snapshot types.
    pub use crate::abstraction::{LeastVirtual, StaticRule};
    pub use crate::api::MemberLookup;
    pub use crate::result::{Entry, LookupOutcome};
    pub use crate::serve::{
        DispatchIndex, IndexedEngine, IntoDispatchIndex, OutcomeRef, PublishedIndex, ServeHandle,
    };
    pub use crate::table::{LookupOptions, LookupTable};
}
