//! Incremental invalidation: which `(class, member)` entries a
//! hierarchy edit can change, and their recomputation.
//!
//! C++ hierarchies only ever grow (new classes, members, base edges),
//! and Figure 8's propagation is a distributive dataflow problem over
//! the CHG in topological order, so an edit invalidates a *computable*
//! set of `(class, member)` entries:
//!
//! * `AddClass` changes no existing entry — the new class has no bases,
//!   members, or derived classes yet;
//! * `AddMember(c, m)` can only change `lookup[d, m]` for `d` in
//!   `{c} ∪ derived(c)`: entries of other members never see `m`, and a
//!   class outside the derived closure has the same visible definitions
//!   of `m` as before;
//! * `AddEdge(base → derived)` can only change `lookup[d, m]` for `d ∈
//!   {derived} ∪ derived(derived)`: such an edit changes which
//!   definitions are visible (and which classes are virtual bases)
//!   only inside that closure. A lookup entry at `d` depends on `d`'s
//!   ancestor set and on `is_virtual_base_of(v, ldc)` facts for those
//!   ancestors — for any class outside the closure, neither changes.
//!
//! `dirty_set` computes that set and `recompute_dirty` runs Figure
//! 8's step over it in topological order, reusing every untouched
//! red/blue abstraction. [`IndexedEngine`](crate::IndexedEngine) reads
//! the clean entries from its published index and is the edit path of
//! every server tenant and of the CLI; experiment E18 measures it
//! against a full rebuild.
//!
//! [`LookupEngine`] runs the same step over an owned [`LookupTable`],
//! for the benchmark's edit ladder only.
//!
//! # Examples
//!
//! ```
//! use cpplookup_chg::{fixtures, Edit};
//! use cpplookup_core::LookupEngine;
//!
//! let mut engine = LookupEngine::new(fixtures::fig1());
//! engine.apply(&[Edit::AddClass { name: "F".into() }])?;
//! assert_eq!(engine.chg().generation(), 1);
//! # Ok::<(), cpplookup_chg::ChgError>(())
//! ```

use cpplookup_chg::{apply_edits, Chg, ChgError, ClassId, Edit, MemberId};

use crate::fxmap::FxHashMap;
use crate::result::Entry;
use crate::table::{compute_entry_with, LookupOptions, LookupTable};

/// An owned, editable class hierarchy and its complete lookup table.
///
/// It stays only for the benchmark's (`perfbench/`) edit ladder, which
/// times this bare table edit against
/// [`IndexedEngine::apply`](crate::IndexedEngine::apply), the edit path
/// every serving caller uses. [`apply`](Self::apply) recomputes exactly
/// the entries an edit can change — the edited class's derived closure
/// — and writes them into the table; the engine answers no queries.
#[derive(Debug)]
pub struct LookupEngine {
    chg: Chg,
    /// The complete table of `chg`; only [`apply`](Self::apply) writes it.
    table: LookupTable,
}

impl LookupEngine {
    /// Creates an engine over `chg` with default lookup options,
    /// building the whole table with [`LookupTable::build`].
    pub fn new(chg: Chg) -> Self {
        let table = LookupTable::build(&chg);
        LookupEngine { chg, table }
    }

    /// Creates an engine whose table was built elsewhere — by the
    /// caller or from a loaded snapshot — so no build runs. `table` must be the whole table of `chg` under
    /// [`table.options()`](LookupTable::options); the engine trusts it
    /// as it trusts its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpplookup_chg::fixtures;
    /// use cpplookup_core::{LookupEngine, LookupTable};
    ///
    /// let g = fixtures::fig9();
    /// let table = LookupTable::build(&g);
    /// let engine = LookupEngine::from_table(g, table);
    /// assert_eq!(engine.chg().class_count(), 6);
    /// ```
    pub fn from_table(chg: Chg, table: LookupTable) -> Self {
        LookupEngine { chg, table }
    }

    /// The current hierarchy.
    pub fn chg(&self) -> &Chg {
        &self.chg
    }

    /// The lookup options the engine's table was built under.
    pub fn options(&self) -> LookupOptions {
        self.table.options()
    }

    /// Applies a batch of hierarchy edits as one transaction: the graph
    /// is rebuilt once (generation + 1), and the combined dirty set is
    /// recomputed and written into the table.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChgError`] produced by validation. On error
    /// the engine is unchanged.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<(), ChgError> {
        let chg = apply_edits(&self.chg, edits)?;
        let dirty = dirty_set(&chg, edits);
        // Clean pairs keep their entries, so the table as it stands is
        // the base source; every dirty base is staged before it is read.
        // A class the batch added has no row yet and no entries.
        let rows = self.table.class_entries();
        let fresh = recompute_dirty(&chg, self.table.options(), &dirty, |c, m| {
            rows.get(c.index()).and_then(|row| row.get(&m)).cloned()
        });
        self.chg = chg;
        let rows = self.table.class_entries_mut();
        rows.resize_with(self.chg.class_count(), FxHashMap::default);
        for ((c, m), e) in fresh {
            let row = &mut rows[c.index()];
            match e {
                Some(e) => row.insert(m, e),
                None => row.remove(&m),
            };
        }
        Ok(())
    }
}

/// The set of `(class, member)` cache keys an edit batch can change,
/// sorted by member then topological position (the order
/// [`recompute_dirty`] requires). Derived from the *post-edit*
/// hierarchy so newly visible members are included. Conservative: a
/// dirty entry may recompute to its old value.
pub(crate) fn dirty_set(new: &Chg, edits: &[Edit]) -> Vec<(ClassId, MemberId)> {
    let mut dirty: std::collections::HashSet<(ClassId, MemberId)> =
        std::collections::HashSet::new();
    for edit in edits {
        match edit {
            Edit::AddClass { .. } => {}
            Edit::AddMember { class, name, .. } => {
                let m = new
                    .member_by_name(name)
                    .expect("member interned by the edit");
                dirty.insert((*class, m));
                dirty.extend(new.derived_of(*class).map(|d| (d, m)));
            }
            Edit::AddEdge { derived, .. } => {
                for d in std::iter::once(*derived).chain(new.derived_of(*derived)) {
                    dirty.extend(
                        new.member_ids()
                            .filter(|&m| new.is_member_visible(d, m))
                            .map(|m| (d, m)),
                    );
                }
            }
        }
    }
    let mut out: Vec<(ClassId, MemberId)> = dirty.into_iter().collect();
    out.sort_by_key(|&(c, m)| (m.index(), new.topo_position(c)));
    out
}

/// One recomputed pair: `None` when the member is not visible in the
/// class after the edit.
pub(crate) type Recomputed = ((ClassId, MemberId), Option<Entry>);

/// Figure 8's step over an edit's dirty set, in [`dirty_set`]'s order
/// so a stale base is recomputed before its derived pairs: one result
/// per pair of `dirty`. Base entries come from a per-member staging map
/// of the pairs recomputed so far first, and from `base` second — a
/// table whose other pairs are current: the engine's table, or the
/// index an [`IndexedEngine`](crate::IndexedEngine) published before
/// the edit.
pub(crate) fn recompute_dirty(
    chg: &Chg,
    options: LookupOptions,
    dirty: &[(ClassId, MemberId)],
    mut base: impl FnMut(ClassId, MemberId) -> Option<Entry>,
) -> Vec<Recomputed> {
    let mut out = Vec::with_capacity(dirty.len());
    let mut staged: FxHashMap<ClassId, Option<Entry>> = FxHashMap::default();
    for (i, &(c, m)) in dirty.iter().enumerate() {
        if i > 0 && dirty[i - 1].1 != m {
            staged.clear();
        }
        for spec in chg.direct_bases(c) {
            staged
                .entry(spec.base)
                .or_insert_with(|| base(spec.base, m));
        }
        let e = compute_entry_with(chg, options, c, m, |b| {
            staged.get(&b).and_then(Option::as_ref)
        });
        staged.insert(c, e.clone());
        out.push(((c, m), e));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::{fixtures, Access, ChgBuilder, Inheritance, MemberDecl, MemberKind};

    use crate::abstraction::StaticRule;
    use crate::result::LookupOutcome;

    fn assert_engine_matches_table(engine: &LookupEngine, label: &str) {
        let table = LookupTable::build_with(engine.chg(), engine.options());
        for c in engine.chg().classes() {
            for m in engine.chg().member_ids() {
                assert_eq!(
                    engine.table.entry(c, m),
                    table.entry(c, m),
                    "{label}: mismatch at ({}, {})",
                    engine.chg().class_name(c),
                    engine.chg().member_name(m)
                );
            }
        }
        assert_eq!(engine.table.stats().entries, table.stats().entries);
    }

    fn add_class(engine: &mut LookupEngine, name: &str) -> ClassId {
        engine
            .apply(&[Edit::AddClass { name: name.into() }])
            .unwrap();
        engine.chg().class_by_name(name).unwrap()
    }

    fn add_member(engine: &mut LookupEngine, class: ClassId, name: &str) {
        engine.apply(&[member(class, name)]).unwrap();
    }

    fn member(class: ClassId, name: &str) -> Edit {
        Edit::AddMember {
            class,
            name: name.into(),
            decl: MemberDecl::public(MemberKind::Data),
        }
    }

    fn edge(derived: ClassId, base: ClassId, inheritance: Inheritance) -> Edit {
        Edit::AddEdge {
            derived,
            base,
            inheritance,
            access: Access::Public,
        }
    }

    /// Both ways to back the engine's table, on every fixture and
    /// static rule: built in place, or seeded with `from_table`.
    #[test]
    fn all_backings_match_table_on_fixtures() {
        for fixture in [
            fixtures::fig1(),
            fixtures::fig2(),
            fixtures::fig3(),
            fixtures::fig9(),
            fixtures::static_diamond(),
            fixtures::static_override_mix(),
        ] {
            assert_engine_matches_table(&LookupEngine::new(fixture.clone()), "new");
            for statics in [StaticRule::Cpp, StaticRule::Ignore] {
                let options = LookupOptions { statics };
                let table = LookupTable::build_with(&fixture, options);
                let seeded = LookupEngine::from_table(fixture.clone(), table);
                assert_eq!(seeded.options(), options);
                assert_engine_matches_table(&seeded, &format!("seeded {statics:?}"));
            }
        }
    }

    #[test]
    fn add_member_invalidates_derived_closure_only() {
        // fig2: A ← B ← {C, D} ← E, with m in A and D.
        let mut engine = LookupEngine::new(fixtures::fig2());
        let g = engine.chg();
        let b = g.class_by_name("B").unwrap();
        let m = g.member_by_name("m").unwrap();
        let dirty = dirty_set(engine.chg(), &[member(b, "m")]);
        // Dirty: B and everything below it, for m only.
        let names: Vec<&str> = dirty
            .iter()
            .map(|&(c, _)| engine.chg().class_name(c))
            .collect();
        assert_eq!(names, ["B", "C", "D", "E"]);
        assert!(dirty.iter().all(|&(_, dm)| dm == m));

        // Every class outside the closure keeps its entry object.
        let a = engine.chg().class_by_name("A").unwrap();
        let before = engine.table.entry(a, m).cloned();
        add_member(&mut engine, b, "m");
        assert_engine_matches_table(&engine, "after add_member");
        assert_eq!(engine.table.entry(a, m).cloned(), before);
        assert_eq!(engine.chg().generation(), 1);
    }

    #[test]
    fn add_edge_dirty_set_on_fig9() {
        // fig9: adding an edge under E dirties only the new leaf.
        let g = fixtures::fig9();
        let e = g.class_by_name("E").unwrap();
        let chg2 = apply_edits(&g, &[Edit::AddClass { name: "F".into() }]).unwrap();
        let f = chg2.class_by_name("F").unwrap();
        let edit = edge(f, e, Inheritance::NonVirtual);
        let chg3 = apply_edits(&chg2, std::slice::from_ref(&edit)).unwrap();
        let m = chg3.member_by_name("m").unwrap();
        assert_eq!(dirty_set(&chg3, &[edit]), vec![(f, m)]);
    }

    #[test]
    fn add_class_dirties_nothing() {
        let g = fixtures::fig1();
        let chg = apply_edits(
            &g,
            &[Edit::AddClass {
                name: "Fresh".into(),
            }],
        )
        .unwrap();
        assert!(dirty_set(
            &chg,
            &[Edit::AddClass {
                name: "Fresh".into()
            }]
        )
        .is_empty());
        let mut engine = LookupEngine::new(g);
        let entries = engine.table.stats().entries;
        add_class(&mut engine, "Fresh");
        assert_eq!(engine.table.stats().entries, entries);
        assert_eq!(engine.chg().generation(), 1);
        assert_engine_matches_table(&engine, "after add_class");
    }

    #[test]
    fn incremental_equals_rebuild_per_edit_kind() {
        let mut engine = LookupEngine::new(fixtures::fig1());
        let e = engine.chg().class_by_name("E").unwrap();
        let c = engine.chg().class_by_name("C").unwrap();

        let f = add_class(&mut engine, "F");
        assert_engine_matches_table(&engine, "AddClass");

        add_member(&mut engine, f, "fresh");
        add_member(&mut engine, c, "m");
        assert_engine_matches_table(&engine, "AddMember");

        engine
            .apply(&[edge(f, e, Inheritance::NonVirtual)])
            .unwrap();
        assert_engine_matches_table(&engine, "AddEdge");
        assert_eq!(engine.chg().generation(), 4);

        // One batch that adds two classes and derives one from both the
        // other and F: the dirty pairs of X read bases of W, which had
        // no row before the batch.
        let (w, x) = {
            let n = engine.chg().class_count();
            (ClassId::from_index(n), ClassId::from_index(n + 1))
        };
        engine
            .apply(&[
                Edit::AddClass { name: "W".into() },
                Edit::AddClass { name: "X".into() },
                edge(x, w, Inheritance::Virtual),
                edge(x, f, Inheritance::Virtual),
            ])
            .unwrap();
        assert_eq!(engine.chg().class_by_name("X"), Some(x));
        assert!(engine.table.stats().entries > 0);
        assert_engine_matches_table(&engine, "one batch");
    }

    #[test]
    fn rejected_edit_leaves_engine_unchanged() {
        let mut engine = LookupEngine::new(fixtures::fig1());
        let a = engine.chg().class_by_name("A").unwrap();
        let e = engine.chg().class_by_name("E").unwrap();
        let entries = engine.table.stats().entries;
        let err = engine
            .apply(&[edge(a, e, Inheritance::NonVirtual)])
            .unwrap_err();
        assert!(matches!(err, ChgError::Cycle { .. }));
        assert_eq!(engine.chg().generation(), 0);
        assert_eq!(engine.table.stats().entries, entries);
        assert_engine_matches_table(&engine, "after rejected edit");
    }

    /// One `apply` of a whole edit script leaves the same table as the
    /// script applied one edit at a time.
    #[test]
    fn batch_matches_singles() {
        let base = fixtures::fig3();
        let h = base.class_by_name("H").unwrap();
        let n = base.class_count();
        let (y, z) = (ClassId::from_index(n), ClassId::from_index(n + 1));
        let script = [
            Edit::AddClass { name: "Y".into() },
            Edit::AddClass { name: "Z".into() },
            edge(y, h, Inheritance::Virtual),
            member(y, "foo"),
            edge(z, y, Inheritance::NonVirtual),
            member(h, "late"),
        ];
        let mut singles = LookupEngine::new(base.clone());
        for edit in &script {
            singles.apply(std::slice::from_ref(edit)).unwrap();
        }
        let mut batch = LookupEngine::new(base);
        batch.apply(&script).unwrap();
        assert_eq!(batch.chg().class_by_name("Z"), Some(z));
        for c in batch.chg().classes() {
            for m in batch.chg().member_ids() {
                assert_eq!(batch.table.entry(c, m), singles.table.entry(c, m));
            }
        }
        assert_engine_matches_table(&batch, "batch");
        assert_eq!(batch.chg().generation(), 1);
        assert_eq!(singles.chg().generation(), script.len() as u64);
    }

    #[test]
    fn eager_cache_never_misses() {
        // A member that is nowhere visible has no entry: the complete
        // table *knows* it is absent.
        let engine = {
            let mut b = ChgBuilder::from_chg(&fixtures::fig1());
            b.intern_member_name("ghost");
            LookupEngine::new(b.finish().unwrap())
        };
        let a = engine.chg().class_by_name("A").unwrap();
        let ghost = engine.chg().member_by_name("ghost").unwrap();
        assert_eq!(engine.table.lookup(a, ghost), LookupOutcome::NotFound);
        assert_eq!(
            engine.table.stats().entries,
            LookupTable::build(engine.chg()).stats().entries
        );
    }

    #[test]
    fn resolve_path_through_edits() {
        let mut engine = LookupEngine::new(fixtures::fig2());
        let e = engine.chg().class_by_name("E").unwrap();
        let m = engine.chg().member_by_name("m").unwrap();
        let path = |engine: &LookupEngine| {
            let path = engine.table.resolve_path(engine.chg(), e, m).unwrap();
            path.display(engine.chg()).to_string()
        };
        assert_eq!(path(&engine), "DE");
        // Declaring m in E moves the winning definition to E itself.
        add_member(&mut engine, e, "m");
        assert_eq!(path(&engine), "E");
    }

    #[test]
    fn long_edit_session_stays_consistent() {
        // A miniature of experiment E18: grow a hierarchy one edit at a
        // time, checking the engine against a from-scratch rebuild after
        // every step.
        let mut b = ChgBuilder::new();
        let root = b.class("K0");
        b.member(root, "m0");
        let mut engine = LookupEngine::new(b.finish().unwrap());
        for i in 1..12 {
            let c = add_class(&mut engine, &format!("K{i}"));
            let base = engine.chg().class_by_name(&format!("K{}", i / 2)).unwrap();
            let inh = if i % 3 == 0 {
                Inheritance::Virtual
            } else {
                Inheritance::NonVirtual
            };
            engine.apply(&[edge(c, base, inh)]).unwrap();
            if i % 2 == 0 {
                add_member(&mut engine, c, &format!("m{}", i % 4));
            }
            assert_engine_matches_table(&engine, &format!("step {i}"));
        }
        assert!(engine.chg().generation() > 20);
    }
}
