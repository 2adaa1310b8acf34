//! A minimal perfect hash function over the packed `(class, member)`
//! probe keys — the "hash, displace" (CHD-style) construction behind
//! the serve directory: every probe is exactly one displacement load
//! plus one data-dependent cell load, with no collision chains.
//!
//! The key set of a [`DispatchIndex`](crate::serve::DispatchIndex) is
//! *static between epochs*: every republish rebuilds the directory from
//! scratch, and no probe ever inserts. That is precisely the regime
//! where spending a little build time to compile the hash itself pays
//! on every subsequent probe — Hartrumpf's partial-evaluation move
//! taken to its endpoint.
//!
//! # Shape
//!
//! * One multiply-shift of `key ^ seed` yields `h`; the low bits
//!   (high product bits folded in) pick one of `⌈n/4⌉`-ish
//!   power-of-two buckets, the high 32 bits carry into the slot map.
//! * Each bucket stores one `u32` displacement `d`. A key's slot is
//!   `fastrange₃₂(remix(h₃₂ ⊞ d), n)` — a multiply-shift, no modulo on
//!   the lookup path.
//! * Construction seats buckets largest-first, searching `d = 0, 1, …`
//!   until every key of the bucket lands in a distinct free slot
//!   (classic hash-and-displace). If any bucket exhausts its
//!   displacement budget the whole table retries with the next seed in
//!   a fixed sequence, so the construction — and therefore the snapshot
//!   bytes that serialize it — is fully deterministic.
//!
//! The function is *minimal*: exactly `n` slots for `n` keys, every
//! slot occupied. Alien keys still map to some slot in range; the
//! caller rejects them with a single key compare against the cell it
//! finds there, which is the same compare a hit needs anyway.

/// Displacement budget per bucket before the seed is abandoned. Large
/// enough that a retry is a once-per-many-billions event on real key
/// sets; small enough that a pathological seed fails fast.
const MAX_DISPLACEMENT: u32 = 1 << 18;

/// Seeds tried before construction gives up: seed 0, then 127 wide
/// ones (see [`attempt_seed`]). The per-seed failure probability is
/// tiny once seeds are wide; exhausting them indicates duplicate keys
/// (a caller bug), not bad luck.
const MAX_SEEDS: u64 = 128;

/// The seed of construction attempt `i`: attempt 0 uses seed 0, every
/// later attempt a splitmix64 output. Small retry seeds are too weak:
/// `key ^ seed` with a seed below `2^k` only permutes a dense run of
/// `2^k` class ids, so a packed key set over such a run (say 64
/// classes × 2 members) that fails at seed 0 fails identically at
/// every seed up to 63.
fn attempt_seed(i: u64) -> u64 {
    if i == 0 {
        return 0;
    }
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A one-multiply mix of `key ^ seed`: a multiply-shift whose high
/// product bits are the strongly mixed ones (they become the slot
/// map's `h₃₂`), folded into the low half so the bucket pick sees that
/// entropy too. This sits on the serial critical path of every probe,
/// so it stays at one multiply; the full-avalanche burden lives in
/// [`slot`], where it is load-bearing for construction. Packed probe
/// keys that share a low word (one class, many members) get identical
/// low product bits — the `z >> 32` fold is what spreads their
/// buckets, not redundancy.
#[inline]
pub(crate) fn mix(key: u64, seed: u64) -> u64 {
    let z = (key ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^ (z >> 32)
}

/// Maps the high hash bits plus a bucket displacement onto `0..n`: a
/// full-avalanche 32-bit remix (murmur3's finalizer) of `h₃₂ + d`,
/// then a fastrange multiply-shift instead of a modulo.
///
/// The remix must avalanche completely: with a weaker mix (say one
/// multiply and one xor-shift), the images of two same-bucket keys
/// stay a near-constant distance apart as `d` varies — the slot *pair*
/// walks a one-dimensional line through the `n²` pair space and can
/// miss every free pair at high load, making construction fail no
/// matter the displacement budget.
#[inline]
pub(crate) fn slot(h: u64, d: u32, n: u32) -> usize {
    let mut x = ((h >> 32) as u32).wrapping_add(d);
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    ((u64::from(x) * u64::from(n)) >> 32) as usize
}

/// A built minimal perfect hash function: the chosen seed, the key
/// count, and one displacement per bucket. ~1 byte per key of metadata
/// (`n/4` buckets × 4 bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MphFunction {
    seed: u64,
    n: u32,
    /// One displacement per bucket; power-of-two length.
    disp: Vec<u32>,
}

impl MphFunction {
    /// Builds the function over `keys` (which must be distinct).
    ///
    /// Deterministic: the same key sequence always yields the same
    /// seed and displacement array, so snapshots that serialize the
    /// result stay byte-identical across rebuilds and thread counts.
    ///
    /// # Panics
    ///
    /// If `keys` contains duplicates (no perfect hash exists), after
    /// exhausting the seed budget.
    pub fn build(keys: &[u64]) -> MphFunction {
        for attempt in 0..MAX_SEEDS {
            if let Some(f) = Self::try_build(keys, attempt_seed(attempt)) {
                return f;
            }
        }
        panic!(
            "minimal perfect hash construction failed after {MAX_SEEDS} seeds \
             over {} keys — the key set must contain duplicates",
            keys.len()
        );
    }

    /// One construction attempt at a fixed seed.
    fn try_build(keys: &[u64], seed: u64) -> Option<MphFunction> {
        let n = u32::try_from(keys.len()).expect("mph key count overflow");
        let nbuckets = (keys.len() / 4).max(1).next_power_of_two();
        let bucket_mask = (nbuckets - 1) as u64;
        if n == 0 {
            return Some(MphFunction {
                seed,
                n,
                disp: vec![0; nbuckets],
            });
        }
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); nbuckets];
        for &key in keys {
            let h = mix(key, seed);
            buckets[(h & bucket_mask) as usize].push(h);
        }
        // Two keys of one bucket with equal high bits collide under
        // every displacement: no `d` can seat this seed's bucketing.
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|h| h >> 32);
            if bucket.windows(2).any(|w| w[0] >> 32 == w[1] >> 32) {
                return None;
            }
        }
        // Seat the crowded buckets first, while the slot table is
        // still mostly free; ties break on bucket index so the search
        // order (and the result) is deterministic.
        let mut order: Vec<u32> = (0..nbuckets as u32).collect();
        order.sort_unstable_by_key(|&b| (std::cmp::Reverse(buckets[b as usize].len()), b));
        let mut taken = vec![false; keys.len()];
        let mut disp = vec![0u32; nbuckets];
        let mut seats: Vec<usize> = Vec::new();
        for &b in &order {
            let bucket = &buckets[b as usize];
            if bucket.is_empty() {
                continue;
            }
            let mut d = 0u32;
            loop {
                seats.clear();
                let ok = bucket.iter().all(|&h| {
                    let s = slot(h, d, n);
                    if taken[s] || seats.contains(&s) {
                        false
                    } else {
                        seats.push(s);
                        true
                    }
                });
                if ok {
                    for &s in &seats {
                        taken[s] = true;
                    }
                    disp[b as usize] = d;
                    break;
                }
                d += 1;
                if d > MAX_DISPLACEMENT {
                    return None;
                }
            }
        }
        Some(MphFunction { seed, n, disp })
    }

    /// Reassembles a function from its serialized parts (the snapshot
    /// loader's path). Returns `None` when the parts cannot describe a
    /// valid function: a non-power-of-two displacement array, or an
    /// empty one.
    pub fn from_parts(seed: u64, n: u32, disp: Vec<u32>) -> Option<MphFunction> {
        if disp.is_empty() || !disp.len().is_power_of_two() {
            return None;
        }
        Some(MphFunction { seed, n, disp })
    }

    /// The slot of `key` in `0..n()`: one displacement-array load, then
    /// a handful of register-only mixes. Keys outside the built set
    /// still map into range; callers reject them by comparing the key
    /// stored in the slot they land on.
    #[inline]
    pub fn position(&self, key: u64) -> usize {
        let h = mix(key, self.seed);
        let d = self.disp[(h as usize) & (self.disp.len() - 1)];
        slot(h, d, self.n)
    }

    /// Number of keys (= number of slots).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The chosen seed (serialized into the snapshot).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-bucket displacement array (serialized into the
    /// snapshot); power-of-two length.
    pub fn disp(&self) -> &[u32] {
        &self.disp
    }

    /// Metadata footprint in bytes (the displacement array; the seed
    /// and count are constant-size).
    pub fn size_bytes(&self) -> usize {
        self.disp.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random key stream (splitmix64 over a
    /// counter — unrelated to the seed search inside the builder).
    fn keys(count: usize, stream: u64) -> Vec<u64> {
        let mut out: Vec<u64> = (0..count as u64)
            .map(|i| mix(i.wrapping_mul(0x2545_F491_4F6C_DD1D), stream))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn positions_are_a_bijection() {
        for &count in &[0usize, 1, 2, 3, 7, 64, 1000, 5000] {
            let keys = keys(count, 7);
            let f = MphFunction::build(&keys);
            let mut seen = vec![false; keys.len()];
            for &k in &keys {
                let p = f.position(k);
                assert!(p < keys.len(), "slot {p} out of range for n={}", keys.len());
                assert!(!seen[p], "slot {p} assigned twice (n={})", keys.len());
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s), "not minimal: unfilled slots");
        }
    }

    #[test]
    fn packed_probe_keys_build() {
        // The realistic shape: class in the low word, member in the
        // high word, both small and dense.
        let keys: Vec<u64> = (0..500u64)
            .flat_map(|c| (0..8u64).map(move |m| c | m << 32))
            .collect();
        let f = MphFunction::build(&keys);
        let mut seen = vec![false; keys.len()];
        for &k in &keys {
            let p = f.position(k);
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn dense_runs_that_fail_at_seed_zero_still_build() {
        // 64 classes × 2 members fails at seed 0; every seed below 64
        // only permutes the class ids, so the build needs a wide seed.
        let keys: Vec<u64> = (0..2u64)
            .flat_map(|m| (0..64u64).map(move |c| c | m << 32))
            .collect();
        assert!(MphFunction::try_build(&keys, 0).is_none());
        let f = MphFunction::build(&keys);
        assert!(f.seed() >= 64, "built at small seed {}", f.seed());
        let mut seen = vec![false; keys.len()];
        for &k in &keys {
            let p = f.position(k);
            assert!(!seen[p], "slot {p} assigned twice");
            seen[p] = true;
        }
    }

    #[test]
    fn build_is_deterministic() {
        let keys = keys(3000, 99);
        let a = MphFunction::build(&keys);
        let b = MphFunction::build(&keys);
        assert_eq!(a, b);
    }

    #[test]
    fn alien_keys_stay_in_range() {
        let live = keys(1000, 3);
        let f = MphFunction::build(&live);
        for &k in &keys(1000, 4) {
            assert!(f.position(k) < live.len());
        }
    }

    #[test]
    fn parts_round_trip() {
        let live = keys(256, 11);
        let f = MphFunction::build(&live);
        let g = MphFunction::from_parts(f.seed(), f.n(), f.disp().to_vec()).unwrap();
        for &k in &live {
            assert_eq!(f.position(k), g.position(k));
        }
        assert!(MphFunction::from_parts(0, 4, vec![]).is_none());
        assert!(MphFunction::from_parts(0, 4, vec![0, 0, 0]).is_none());
    }
}
