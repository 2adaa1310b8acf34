//! The whole-table builders the batched compiler
//! ([`LookupTable::build`]) replaced, kept as its differential oracles
//! (`tests/build_equiv.rs` holds all three builders identical) and as
//! the "old" side of experiment E21 and its `e21-smoke` gate. Neither
//! runs on any production path.
//!
//! Both go through Figure 8's propagation step
//! ([`compute_entry_with`]), the one the lazy cache and the engine use;
//! the batched compiler has its own merge, so each comparison holds two
//! implementations of the recurrence against each other.

use std::collections::BTreeSet;
use std::time::Instant;

use cpplookup_chg::fxmap::FxHashMap;
use cpplookup_chg::{Chg, MemberId};
use cpplookup_core::{compute_entry_with, Entry, LookupOptions, LookupTable};

/// Builds the whole table with the retired per-member strategy: for
/// each member name, one full topological sweep over *all* classes —
/// `Θ(|N|·|M|)` propagation steps regardless of where the member is
/// actually visible.
pub fn build_per_member(chg: &Chg, options: LookupOptions) -> LookupTable {
    let start = Instant::now();
    let n = chg.class_count();
    let mut entries: Vec<FxHashMap<MemberId, Entry>> = vec![FxHashMap::default(); n];
    let mut slots: Vec<Option<Entry>> = vec![None; n];
    for m in chg.member_ids() {
        slots.iter_mut().for_each(|s| *s = None);
        for &c in chg.topo_order() {
            let entry = compute_entry_with(chg, options, c, m, |b| slots[b.index()].as_ref());
            if let Some(e) = entry {
                entries[c.index()].insert(m, e.clone());
                slots[c.index()] = Some(e);
            }
        }
    }
    cpplookup_core::obs::table_built(
        "per-member",
        (n as u64) * (chg.member_name_count() as u64),
        0,
        start.elapsed().as_nanos() as u64,
    );
    LookupTable::from_parts(options, entries)
}

/// Builds the whole table class by class — a literal transcription of
/// Figure 8's doubly nested loop: for each class in topological order,
/// each member it declares or sees in a direct base's finished row.
pub fn build_reference(chg: &Chg, options: LookupOptions) -> LookupTable {
    let start = Instant::now();
    let n = chg.class_count();
    let mut total_entries = 0u64;
    let mut entries: Vec<FxHashMap<MemberId, Entry>> = vec![FxHashMap::default(); n];
    for &c in chg.topo_order() {
        let members: BTreeSet<MemberId> = chg
            .declared_members(c)
            .iter()
            .map(|&(m, _)| m)
            .chain(
                chg.direct_bases(c)
                    .iter()
                    .flat_map(|spec| entries[spec.base.index()].keys().copied()),
            )
            .collect();
        let row: FxHashMap<MemberId, Entry> = members
            .into_iter()
            .filter_map(|m| {
                let entry = compute_entry_with(chg, options, c, m, |b| entries[b.index()].get(&m))?;
                Some((m, entry))
            })
            .collect();
        total_entries += row.len() as u64;
        entries[c.index()] = row;
    }
    cpplookup_core::obs::table_built(
        "reference",
        total_entries,
        0,
        start.elapsed().as_nanos() as u64,
    );
    LookupTable::from_parts(options, entries)
}
