//! A minimal perfect hash function over the packed `(class, member)`
//! probe keys — the "hash, displace" (CHD-style) construction behind
//! the serve directory: every probe is exactly one displacement load
//! plus one data-dependent cell load, with no collision chains.
//!
//! The key set of a [`DispatchIndex`](crate::serve::DispatchIndex) is
//! *static between epochs*: a republish keeps the directory when its
//! key set is unchanged and rebuilds it from scratch otherwise, and no
//! probe ever inserts. That is precisely the regime where spending a
//! little build time to compile the hash itself pays on every
//! subsequent probe — Hartrumpf's partial-evaluation move taken to its
//! endpoint.
//!
//! # Shape
//!
//! * One multiply-shift of `key ^ seed` yields `h`; the low bits
//!   (high product bits folded in) pick one of [`bucket_count`]`(n)`
//!   power-of-two buckets, the high 32 bits carry into the slot map.
//! * Each bucket stores one `u32` displacement `d`. A key's slot is
//!   `fastrange₃₂(remix(h₃₂ ⊞ d), n)` — a multiply-shift, no modulo on
//!   the lookup path.
//!
//! # Construction
//!
//! One counting sort groups the hashes by bucket. Buckets of two or
//! more keys are seated largest first, searching `d = 0, 1, …` until
//! every key of the bucket lands in a distinct free slot (classic
//! hash-and-displace); they finish while the singles' share of the
//! slots (about `e^-λ` at mean bucket load `λ ∈ (1.5, 3]`, so 5–22%) is
//! still free, so their searches stay short. Single-key buckets are
//! not searched: the free slots left are exactly as many as they are,
//! and the i-th single by bucket index takes the i-th free slot `s`,
//! its displacement solved from the inverted remix. Searching for them
//! instead costs about `n / free` trials each at the end, which outran
//! any fixed budget on large key sets and forced whole-table retries.
//!
//! A seed fails when two keys of one bucket share their high 32 hash
//! bits (no displacement parts them) or, in practice never, when a
//! crowded bucket exhausts `MAX_DISPLACEMENT`; the build then retries
//! with the next seed in a fixed sequence. Either way the construction
//! — and therefore the snapshot bytes that serialize it — is fully
//! deterministic.
//!
//! The function is *minimal*: exactly `n` slots for `n` keys, every
//! slot occupied. Alien keys still map to some slot in range; the
//! caller rejects them with a single key compare against the cell it
//! finds there, which is the same compare a hit needs anyway.

/// Displacement budget per crowded bucket before the seed is
/// abandoned. Only buckets of two or more keys search, and they are
/// seated while about 5% or more of the slots are free, so the last of
/// them needs thousands of trials, not a budget's worth. Single-key
/// buckets, which would need about `n / free` trials each and exceed
/// this budget above 2^18 keys, are solved instead of searched.
const MAX_DISPLACEMENT: u32 = 1 << 18;

/// Seeds tried before construction gives up: seed 0, then 127 wide
/// ones (see [`attempt_seed`]). The per-seed failure probability is
/// tiny once seeds are wide; exhausting them indicates duplicate keys
/// (a caller bug), not bad luck.
const MAX_SEEDS: u64 = 128;

/// The seed of construction attempt `i`: attempt 0 uses seed 0, every
/// later attempt a splitmix64 output. Small retry seeds are too weak:
/// `key ^ seed` with a seed below `2^k` only permutes a dense run of
/// `2^k` class ids, so a packed key set over such a run that fails at
/// seed 0 fails identically at every seed below `2^k`.
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
    let x = remix(((h >> 32) as u32).wrapping_add(d));
    ((u64::from(x) * u64::from(n)) >> 32) as usize
}

/// The two odd multipliers of [`remix`] and their inverses.
const REMIX_M1: u32 = 0x7feb_352d;
const REMIX_M2: u32 = 0x846c_a68b;
const REMIX_M1_INV: u32 = mul_inverse(REMIX_M1);
const REMIX_M2_INV: u32 = mul_inverse(REMIX_M2);

/// The full-avalanche 32-bit finalizer of [`slot`]: xor-shifts and odd
/// multiplies, each a bijection on `u32`, so [`unmix`] inverts it.
#[inline]
fn remix(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(REMIX_M1);
    x ^= x >> 15;
    x = x.wrapping_mul(REMIX_M2);
    x ^= x >> 16;
    x
}

/// The inverse of [`remix`]: its steps undone in reverse order.
fn unmix(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(REMIX_M2_INV);
    x ^= x >> 15 ^ x >> 30;
    x = x.wrapping_mul(REMIX_M1_INV);
    x ^= x >> 16;
    x
}

/// The inverse of odd `a` modulo `2^32`, by Newton's iteration: `a`
/// is its own inverse to 3 bits, and each step doubles the bits.
const fn mul_inverse(a: u32) -> u32 {
    let mut x = a;
    let mut i = 0;
    while i < 4 {
        x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// The displacement that sends hash `h` to slot `s < n` under
/// [`slot`]: `x = ⌈s·2³²/n⌉` is the least 32-bit value that fastrange
/// maps to `s` (it overshoots `s·2³²` by less than `n`), and
/// `h₃₂ + d` must be `unmix(x)`.
fn displacement_to(h: u64, s: usize, n: u32) -> u32 {
    let x = ((s as u64) << 32).div_ceil(u64::from(n)) as u32;
    unmix(x).wrapping_sub((h >> 32) as u32)
}

/// The bucket count of a hash over `n` keys: the power of two at or
/// above `n / 3`, so the mean bucket load is in `(1.5, 3]`. At a load
/// near 4 the crowded buckets are seated while only about `e^-4` = 2%
/// of the slots are free, and the build slows several-fold; at most 3
/// they finish with 5% or more free. Readers take the bucket count from
/// the displacement column's length, so this rule is the builder's
/// alone.
pub fn bucket_count(n: usize) -> usize {
    (n / 3).max(1).next_power_of_two()
}

/// A built minimal perfect hash function: the chosen seed, the key
/// count, and one displacement per bucket. 1.3–2.7 bytes per key of
/// metadata ([`bucket_count`] buckets × 4 bytes).
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
    /// result stay byte-identical across rebuilds.
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

    /// One construction attempt at a fixed seed: `None` when two keys
    /// of one bucket share their high hash bits (no displacement can
    /// part them) or a bucket of two or more keys exhausts
    /// [`MAX_DISPLACEMENT`].
    fn try_build(keys: &[u64], seed: u64) -> Option<MphFunction> {
        let n = u32::try_from(keys.len()).expect("mph key count overflow");
        let nbuckets = bucket_count(keys.len());
        let bucket_mask = (nbuckets - 1) as u64;
        let mut disp = vec![0u32; nbuckets];
        if n == 0 {
            return Some(MphFunction { seed, n, disp });
        }
        let bucket_of = |key: u64| (mix(key, seed) & bucket_mask) as usize;
        // Counting sort: bucket `b` holds `hashes[starts[b]..starts[b + 1]]`.
        let mut starts = vec![0u32; nbuckets + 1];
        for &key in keys {
            starts[bucket_of(key) + 1] += 1;
        }
        for b in 0..nbuckets {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut hashes = vec![0u64; keys.len()];
        for &key in keys {
            let b = bucket_of(key);
            hashes[fill[b] as usize] = mix(key, seed);
            fill[b] += 1;
        }
        let bucket = |b: usize| starts[b] as usize..starts[b + 1] as usize;
        // Two keys of one bucket with equal high bits collide under
        // every displacement: no `d` can seat this seed's bucketing.
        let mut crowded: Vec<u32> = Vec::new();
        for b in 0..nbuckets {
            let keys = &mut hashes[bucket(b)];
            if keys.len() > 1 {
                keys.sort_unstable_by_key(|h| h >> 32);
                if keys.windows(2).any(|w| w[0] >> 32 == w[1] >> 32) {
                    return None;
                }
                crowded.push(b as u32);
            }
        }
        // Seat the crowded buckets first, largest first, while the
        // slot table is still mostly free, searching `d = 0, 1, …`;
        // ties break on bucket index (the sort is stable) so the search
        // order, and the result, is deterministic.
        crowded.sort_by_key(|&b| std::cmp::Reverse(bucket(b as usize).len()));
        // One bit per slot, the padding past `n` born taken.
        let mut taken = vec![0u64; keys.len().div_ceil(64)];
        if n % 64 != 0 {
            *taken.last_mut().expect("n > 0") = !0u64 << (n % 64);
        }
        let is_taken = |taken: &[u64], s: usize| taken[s / 64] >> (s % 64) & 1 != 0;
        let mut seats: Vec<usize> = Vec::new();
        for &b in &crowded {
            let keys = &hashes[bucket(b as usize)];
            let mut d = 0u32;
            loop {
                seats.clear();
                let ok = keys.iter().all(|&h| {
                    let s = slot(h, d, n);
                    let free = !is_taken(&taken, s) && !seats.contains(&s);
                    seats.push(s);
                    free
                });
                if ok {
                    break;
                }
                d += 1;
                if d > MAX_DISPLACEMENT {
                    return None;
                }
            }
            for &s in &seats {
                taken[s / 64] |= 1 << (s % 64);
            }
            disp[b as usize] = d;
        }
        // Every slot still free is owed to exactly one single-key
        // bucket: the i-th by bucket index takes the i-th free slot,
        // its displacement solved rather than searched for.
        let free = taken.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = !word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let s = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    s
                })
            })
        });
        let singles = (0..nbuckets).filter(|&b| bucket(b).len() == 1);
        for (b, s) in singles.zip(free) {
            let h = hashes[starts[b] as usize];
            disp[b] = displacement_to(h, s, n);
            assert_eq!(slot(h, disp[b], n), s, "solved slot missed");
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
    use proptest::prelude::*;

    /// The construction before single-key buckets were solved, kept
    /// verbatim as the differential reference: every bucket, singles
    /// included, searches `d = 0, 1, …` largest first, so the last
    /// singles need about `n / free` trials each and a key set above
    /// [`MAX_DISPLACEMENT`] keys often exhausts the budget.
    fn reference_try_build(keys: &[u64], seed: u64) -> Option<MphFunction> {
        let n = u32::try_from(keys.len()).expect("mph key count overflow");
        let nbuckets = bucket_count(keys.len());
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
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|h| h >> 32);
            if bucket.windows(2).any(|w| w[0] >> 32 == w[1] >> 32) {
                return None;
            }
        }
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

    /// The first seed attempt at which `try_build` succeeds, with its
    /// function.
    fn first_build(
        keys: &[u64],
        try_build: fn(&[u64], u64) -> Option<MphFunction>,
    ) -> (u64, MphFunction) {
        (0..MAX_SEEDS)
            .find_map(|a| try_build(keys, attempt_seed(a)).map(|f| (a, f)))
            .expect("a distinct key set builds within the seed budget")
    }

    fn assert_bijection(f: &MphFunction, keys: &[u64]) {
        assert_eq!(f.n() as usize, keys.len());
        let mut seen = vec![false; keys.len()];
        for &k in keys {
            let p = f.position(k);
            assert!(p < keys.len(), "slot {p} out of range for n={}", keys.len());
            assert!(!seen[p], "slot {p} assigned twice (n={})", keys.len());
            seen[p] = true;
        }
    }

    /// The solved build against [`reference_try_build`]: a bijection,
    /// on the same or an earlier seed attempt, and on the same seed
    /// every bucket of two or more keys keeps the reference's
    /// displacement.
    fn check_against_reference(keys: &[u64]) {
        let (attempt, f) = first_build(keys, MphFunction::try_build);
        let (ref_attempt, r) = first_build(keys, reference_try_build);
        assert_bijection(&f, keys);
        assert_bijection(&r, keys);
        assert_eq!(f, MphFunction::build(keys));
        assert!(
            attempt <= ref_attempt,
            "n={}: solved build needs attempt {attempt}, the reference {ref_attempt}",
            keys.len()
        );
        if attempt == ref_attempt {
            let mask = f.disp.len() - 1;
            let mut sizes = vec![0u32; f.disp.len()];
            for &k in keys {
                sizes[mix(k, f.seed) as usize & mask] += 1;
            }
            for (b, &size) in sizes.iter().enumerate() {
                if size > 1 {
                    assert_eq!(
                        f.disp[b],
                        r.disp[b],
                        "n={}: bucket {b} of {size}",
                        keys.len()
                    );
                }
            }
        }
    }

    /// `classes × members` packed probe keys `c | m << 32` over the
    /// dense class run starting at `base`.
    fn grid(classes: u64, members: u64, base: u64) -> Vec<u64> {
        (0..members)
            .flat_map(|m| (base..base + classes).map(move |c| c | m << 32))
            .collect()
    }

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
            assert_bijection(&MphFunction::build(&keys), &keys);
        }
    }

    #[test]
    fn packed_probe_keys_build() {
        // The realistic shape: class in the low word, member in the
        // high word, both small and dense.
        let keys = grid(500, 8, 0);
        assert_bijection(&MphFunction::build(&keys), &keys);
    }

    #[test]
    fn key_sets_that_fail_at_seed_zero_still_build() {
        // Two keys whose seed-0 hashes agree in the high word and in
        // every bucket bit collide under any displacement, so seed 0
        // fails and the build moves on to a wide seed. `mix` at seed 0
        // is `z ^ z >> 32` of `z = key · K`: pick the two `z`, then
        // divide by `K`.
        let k: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut k_inv = k;
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(k_inv)));
        }
        let z = 0x1234_5678_0000_0005u64;
        let mut keys = keys(1000, 3);
        keys.extend([z, z ^ 1 << 31].map(|z| z.wrapping_mul(k_inv)));
        assert!(MphFunction::try_build(&keys, 0).is_none());
        let f = MphFunction::build(&keys);
        assert_ne!(f.seed(), 0);
        assert_bijection(&f, &keys);
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

    #[test]
    fn remix_inverts_exactly() {
        for x in (0..=u32::MAX).step_by(65_521).chain([u32::MAX]) {
            assert_eq!(unmix(remix(x)), x);
            assert_eq!(remix(unmix(x)), x);
        }
    }

    #[test]
    fn solved_displacements_land_on_their_slot() {
        for n in [1u32, 2, 3, 7, 1000, 306_001, u32::MAX] {
            for s in [0, 1, n as usize / 2, n as usize - 1] {
                let s = s.min(n as usize - 1);
                for h in [0u64, 0xdead_beef_0000_0001, u64::MAX] {
                    assert_eq!(slot(h, displacement_to(h, s, n), n), s, "n={n} s={s}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn solved_build_matches_the_reference_search(
            dense in any::<bool>(),
            size in 0usize..5001,
            members in 1u64..9,
            base in 0u64..1000,
            stream in any::<u64>(),
        ) {
            let keys = if dense {
                grid(size as u64 / members, members, base)
            } else {
                keys(size, stream)
            };
            check_against_reference(&keys);
        }
    }

    #[test]
    fn reference_differential_on_the_dense_64x2_grid() {
        check_against_reference(&grid(64, 2, 0));
    }

    #[test]
    fn above_the_displacement_budget_the_solved_build_keeps_seed_zero() {
        // 264 000 packed keys: more than `MAX_DISPLACEMENT`, so the
        // reference's last singles outrun their budget at seed 0.
        let keys = grid(33_000, 8, 0);
        assert!(keys.len() > MAX_DISPLACEMENT as usize);
        assert!(reference_try_build(&keys, 0).is_none());
        let f = MphFunction::try_build(&keys, 0).expect("seed 0 builds");
        assert_bijection(&f, &keys);
    }
}
