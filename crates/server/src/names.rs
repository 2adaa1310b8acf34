//! Interned name tables: a tenant's class names and member names, each
//! under dense ids, resolved in stripes.
//!
//! A BATCH names 64 classes and 64 members picked from thousands, so
//! every lookup misses the cache. A [`NameTable`] keeps each lookup to
//! two dependent loads — the probe slot, which carries the id and the
//! name's place in one text buffer, then the name's bytes — and
//! [`NameTable::get_stripe`] issues those loads for a stripe of names
//! before comparing any of them, so the misses of a stripe overlap
//! instead of queueing (the same shape as the directory's striped
//! probe).

/// Names resolved per stripe.
pub(crate) const STRIPE: usize = 8;

/// One open-addressing slot: the name's hash fingerprint, its id, and
/// where its bytes sit in [`NameTable::text`].
#[derive(Clone, Copy)]
struct Slot {
    fp: u32,
    id: u32,
    start: u32,
    end: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        fp: 0,
        id: u32::MAX,
        start: 0,
        end: 0,
    };

    fn is_empty(&self) -> bool {
        self.id == u32::MAX
    }
}

/// One namespace's names under dense ids `0..len`, in insertion order.
/// Names only grow, like the hierarchy they name.
#[derive(Clone)]
pub(crate) struct NameTable {
    /// Every name, back to back.
    text: String,
    /// `spans[id]`: the byte range of name `id` in `text`.
    spans: Vec<(u32, u32)>,
    /// Linear probing, at most half full; the length is a power of two.
    slots: Vec<Slot>,
}

/// A 64-bit hash of a name, a word at a time: the low bits pick the
/// slot, the high 32 are the fingerprint.
fn hash(name: &str) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ name.len() as u64;
    let mut words = name.as_bytes().chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .wrapping_mul(K)
            .rotate_left(31);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    // The murmur3 finalizer: every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl NameTable {
    /// An empty table with room for `n` names before it grows.
    pub(crate) fn with_capacity(n: usize) -> NameTable {
        NameTable {
            text: String::new(),
            spans: Vec::with_capacity(n),
            slots: vec![Slot::EMPTY; (2 * n).next_power_of_two().max(8)],
        }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The name of `id`.
    pub(crate) fn name(&self, id: usize) -> Option<&str> {
        let &(start, end) = self.spans.get(id)?;
        Some(&self.text[start as usize..end as usize])
    }

    /// Appends `name` under the next id and returns that id. The caller
    /// keeps names unique: a duplicate gets an id that never resolves.
    pub(crate) fn push(&mut self, name: &str) -> usize {
        if 2 * (self.spans.len() + 1) > self.slots.len() {
            self.grow();
        }
        let id = self.spans.len();
        let start = self.text.len() as u32;
        self.text.push_str(name);
        self.spans.push((start, self.text.len() as u32));
        self.place(id);
        id
    }

    /// Files name `id` in the first free slot of its probe sequence.
    fn place(&mut self, id: usize) {
        let (start, end) = self.spans[id];
        let h = hash(&self.text[start as usize..end as usize]);
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        while !self.slots[at].is_empty() {
            at = (at + 1) & mask;
        }
        self.slots[at] = Slot {
            fp: (h >> 32) as u32,
            id: id as u32,
            start,
            end,
        };
    }

    /// Doubles the slot array and refiles every name.
    fn grow(&mut self) {
        self.slots = vec![Slot::EMPTY; self.slots.len() * 2];
        for id in 0..self.spans.len() {
            self.place(id);
        }
    }

    /// The id of `name`.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        let mut id = [None];
        self.get_stripe(&[name], &mut id);
        id[0]
    }

    /// Resolves up to [`STRIPE`] names into `ids`. Every name's first
    /// slot is loaded before any name is compared, so the stripe's
    /// cache misses overlap.
    pub(crate) fn get_stripe(&self, names: &[&str], ids: &mut [Option<usize>]) {
        debug_assert!(names.len() <= STRIPE && ids.len() == names.len());
        let mask = self.slots.len() - 1;
        let mut hashes = [0u64; STRIPE];
        let mut first = [Slot::EMPTY; STRIPE];
        for (h, name) in hashes.iter_mut().zip(names) {
            *h = hash(name);
        }
        for (slot, &h) in first.iter_mut().zip(&hashes).take(names.len()) {
            *slot = self.slots[h as usize & mask];
        }
        for i in 0..names.len() {
            ids[i] = self.finish(names[i], hashes[i], first[i]);
        }
    }

    /// Walks `name`'s probe sequence from its already-loaded first slot.
    fn finish(&self, name: &str, h: u64, mut slot: Slot) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let fp = (h >> 32) as u32;
        let mut at = h as usize & mask;
        while !slot.is_empty() {
            if slot.fp == fp && &self.text[slot.start as usize..slot.end as usize] == name {
                return Some(slot.id as usize);
            }
            at = (at + 1) & mask;
            slot = self.slots[at];
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_chg::fxmap::FxHashMap;

    #[test]
    fn names_resolve_to_their_ids_across_growth() {
        let mut table = NameTable::with_capacity(2);
        let mut reference = FxHashMap::default();
        for i in 0..5000usize {
            // Short, long, multi-byte and word-aligned names.
            let name = match i % 4 {
                0 => format!("C{i}"),
                1 => format!("namespace_{i}::Widget"),
                2 => format!("Ω{i}é"),
                _ => format!("{:08}", i),
            };
            assert_eq!(table.push(&name), i);
            reference.insert(name, i);
        }
        assert_eq!(table.len(), 5000);
        for (name, &id) in &reference {
            assert_eq!(table.get(name), Some(id), "{name}");
            assert_eq!(table.name(id), Some(name.as_str()));
        }
        for miss in ["", "C", "C5000", "namespace_1::Widge", "Ω2", "0000000"] {
            assert_eq!(table.get(miss), None, "{miss}");
        }
        assert_eq!(table.name(5000), None);
        // A stripe answers exactly as one lookup at a time does.
        let names = [
            "C0",
            "nope",
            "Ω2é",
            "00000003",
            "",
            "C4996",
            "namespace_5::Widget",
        ];
        let mut ids = [None; 7];
        table.get_stripe(&names, &mut ids);
        assert_eq!(ids, names.map(|n| table.get(n)));
        assert_eq!(ids[0], Some(0));
        assert_eq!(ids[1], None);
    }

    #[test]
    fn the_empty_name_is_a_name() {
        let mut table = NameTable::with_capacity(0);
        assert_eq!(table.get(""), None);
        table.push("");
        table.push("A");
        assert_eq!(table.get(""), Some(0));
        assert_eq!(table.get("A"), Some(1));
        assert_eq!(table.name(0), Some(""));
    }
}
