//! `cpplookup` — member lookup for C++ class hierarchies.
//!
//! A faithful, production-grade implementation of *“A Member Lookup
//! Algorithm for C++”* (G. Ramalingam & Harini Srinivasan, PLDI 1997),
//! together with everything needed to reproduce the paper: the
//! Rossie–Friedman subobject model as an executable specification, the
//! baselines the paper discusses (including the historically buggy g++
//! strategy), a mini-C++ front end, and workload generators.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`chg`] | `cpplookup-chg` | class hierarchy graphs, paths, closures, fixtures |
//! | [`subobject`] | `cpplookup-subobject` | subobject graphs, reference lookup semantics, Theorem 1 |
//! | [`lookup`] | `cpplookup-core` | **the paper's algorithm**: eager/lazy/parallel tables, traces, access rights |
//! | [`obs`] | `cpplookup-obs` (via `cpplookup-core`) | metrics registries, histograms, span trees, exporters |
//! | [`baselines`] | `cpplookup-baselines` | g++ BFS (faithful + corrected), naive propagation, topo shortcut |
//! | [`frontend`] | `cpplookup-frontend` | mini-C++ parser, lowering, and name resolution |
//! | [`hiergen`] | `cpplookup-hiergen` | structured and random hierarchy generators |
//! | [`layout`] | `cpplookup-layout` | subobject-accurate object layouts (offsets, vptrs, virtual bases) |
//! | [`snapshot`] | `cpplookup-snapshot` | compile-once/serve-many binary snapshots of compiled tables |
//! | [`wal`] | `cpplookup-wal` | durable write-ahead edit log: crash recovery, tailing, compaction |
//! | [`server`] | `cpplookup-server` | multi-tenant wire-protocol server, blocking client, load generator, replication |
//!
//! The most common types are re-exported at the top level.
//!
//! For deployments that build the table once and serve it from many
//! processes, [`Snapshot`] serializes a compiled hierarchy into a
//! checksummed binary artifact and [`SnapshotTable`] answers lookups
//! straight from the loaded bytes:
//!
//! ```
//! use cpplookup::{chg::fixtures, Snapshot, SnapshotTable};
//!
//! let snap = Snapshot::compile(&fixtures::fig2());
//! let table = SnapshotTable::from_bytes(snap.into_bytes())?;
//! let e = table.class_by_name("E").unwrap();
//! let m = table.member_by_name("m").unwrap();
//! assert_eq!(table.lookup(e, m).resolved_class(), table.class_by_name("D"));
//! # Ok::<(), cpplookup::SnapshotError>(())
//! ```
//!
//! For serving heavy query traffic, [`DispatchIndex`] pre-decodes any
//! backend into a flat, cache-dense index whose
//! [`lookup_ref`](DispatchIndex::lookup_ref) fast path never allocates,
//! and [`ServeHandle`] / [`IndexedEngine`] republish fresh index
//! versions atomically while readers keep serving (an edit recomputes
//! its dirty pairs from the published index, the only table kept):
//!
//! ```
//! use cpplookup::{chg::fixtures, DispatchIndex, LookupTable};
//!
//! let g = fixtures::fig2();
//! let index = DispatchIndex::from_table(LookupTable::build(&g));
//! let e = g.class_by_name("E").unwrap();
//! let m = g.member_by_name("m").unwrap();
//! assert!(index.lookup_ref(e, m).is_resolved());
//! ```
//!
//! # Quickstart
//!
//! ```
//! use cpplookup::{ChgBuilder, Inheritance, LookupOutcome, LookupTable};
//!
//! // struct Top { int x; };
//! // struct Left : virtual Top { int x; };
//! // struct Right : virtual Top {};
//! // struct Bottom : Left, Right {};
//! let mut b = ChgBuilder::new();
//! let top = b.class("Top");
//! let left = b.class("Left");
//! let right = b.class("Right");
//! let bottom = b.class("Bottom");
//! b.member(top, "x");
//! b.member(left, "x");
//! b.derive(left, top, Inheritance::Virtual)?;
//! b.derive(right, top, Inheritance::Virtual)?;
//! b.derive(bottom, left, Inheritance::NonVirtual)?;
//! b.derive(bottom, right, Inheritance::NonVirtual)?;
//! let chg = b.finish()?;
//!
//! let table = LookupTable::build(&chg);
//! let x = chg.member_by_name("x").unwrap();
//! match table.lookup(bottom, x) {
//!     LookupOutcome::Resolved { class, .. } => {
//!         assert_eq!(chg.class_name(class), "Left"); // dominance!
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or straight from C++ source:
//!
//! ```
//! use cpplookup::frontend::{analyze, QueryResult};
//!
//! let analysis = analyze(
//!     "struct A { int m; };\n\
//!      struct B : A {}; struct C : A {};\n\
//!      struct D : B, C {};\n\
//!      int main() { D d; d.m; }",
//! );
//! assert_eq!(analysis.queries[0].result, QueryResult::AmbiguousMember);
//! ```
//!
//! For long-lived tooling (language servers, incremental compilers),
//! [`IndexedEngine`] owns the hierarchy, publishes its table as a
//! [`DispatchIndex`] that any number of reader threads serve from, and
//! survives edits by incremental invalidation:
//!
//! ```
//! use cpplookup::{chg::fixtures, Edit, IndexedEngine, MemberDecl, MemberKind, MemberLookup};
//!
//! let mut engine = IndexedEngine::new(fixtures::fig2(), Default::default());
//! let readers = engine.handle(); // clone freely across threads
//! let e = engine.chg().class_by_name("E").unwrap();
//! let m = engine.chg().member_by_name("m").unwrap();
//! assert!(readers.load().index().lookup_ref(e, m).is_resolved());
//!
//! // Hierarchies grow during parsing; only the dirty entries recompute,
//! // and the refreshed index is published as the next epoch.
//! let decl = MemberDecl::public(MemberKind::Data);
//! let epoch = engine.apply(&[Edit::AddMember { class: e, name: "fresh".into(), decl }])?;
//! let fresh = engine.chg().member_by_name("fresh").unwrap();
//! let published = readers.load();
//! assert_eq!(published.epoch(), epoch);
//! assert!(published.index().lookup_ref(e, fresh).is_resolved());
//!
//! // `MemberLookup` unifies the published index, the tables, and the
//! // baselines.
//! fn answer(l: &mut dyn MemberLookup, c: cpplookup::ClassId, m: cpplookup::MemberId) -> bool {
//!     l.lookup(c, m).is_resolved()
//! }
//! assert!(answer(&mut published.index().clone(), e, m));
//! # Ok::<(), cpplookup::ChgError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;

pub use cpplookup_baselines as baselines;
pub use cpplookup_chg as chg;
pub use cpplookup_core as lookup;
pub use cpplookup_core::obs;
pub use cpplookup_frontend as frontend;
pub use cpplookup_hiergen as hiergen;
pub use cpplookup_layout as layout;
pub use cpplookup_server as server;
pub use cpplookup_snapshot as snapshot;
pub use cpplookup_subobject as subobject;
pub use cpplookup_wal as wal;

pub use cpplookup_chg::{
    apply_edits, Access, Chg, ChgBuilder, ChgError, ClassId, Edit, Inheritance, MemberDecl,
    MemberId, MemberKind, Path,
};
pub use cpplookup_core::{
    DispatchIndex, IndexedEngine, IntoDispatchIndex, LazyLookup, LeastVirtual, LookupOptions,
    LookupOutcome, LookupTable, MemberLookup, OutcomeRef, RedAbs, ServeHandle, StaticRule,
};
pub use cpplookup_snapshot::{Snapshot, SnapshotError, SnapshotTable};
pub use cpplookup_subobject::{Resolution, Subobject, SubobjectGraph};

pub mod prelude {
    //! The stable one-line import: `use cpplookup::prelude::*;`.
    //!
    //! Extends [`cpplookup_core::prelude`] with the hierarchy-building
    //! types and the snapshot container, so examples, tests, and
    //! downstream tools pull the whole supported surface from one
    //! place.
    pub use cpplookup_chg::{
        Chg, ChgBuilder, ChgError, ClassId, Edit, Inheritance, MemberDecl, MemberId, MemberKind,
    };
    pub use cpplookup_core::prelude::*;
    pub use cpplookup_snapshot::{Snapshot, SnapshotError, SnapshotTable};
}
