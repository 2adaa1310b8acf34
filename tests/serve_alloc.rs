//! Asserts the acceptance criterion that the `DispatchIndex::lookup_ref`
//! hot path is allocation-free: a counting global allocator observes
//! zero allocations across a full warmed-up probe sweep, including
//! ambiguous hits (whose witnesses are served as pool borrows instead
//! of cloned `Vec`s).
//!
//! Lives in its own integration-test binary because installing a
//! `#[global_allocator]` is process-global and the counting wrapper
//! needs `unsafe` (the library crates `forbid(unsafe_code)`; test
//! binaries are separate crates).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpplookup::chg::fixtures;
use cpplookup::hiergen::families;
use cpplookup::prelude::*;

thread_local! {
    /// Allocations observed on this thread while [`COUNTING`] is set.
    /// Thread-local so allocator traffic from other test threads run by
    /// the harness cannot pollute the measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping only
// touches plain thread-local `Cell`s (`try_with`: allocation during TLS
// teardown is simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on and returns how many
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

#[test]
fn lookup_ref_hot_path_is_allocation_free() {
    // fig1's E::m is the paper's ambiguity; the wide diamond adds bulk
    // and more ambiguous rows. Both indexes together cover resolved,
    // ambiguous, and not-found verdicts.
    let ambiguous_g = fixtures::fig1();
    let bulk_g = families::wide_diamond(8, Inheritance::NonVirtual);
    let indexes = [
        (
            DispatchIndex::from_table(LookupTable::build(&ambiguous_g)),
            &ambiguous_g,
        ),
        (
            DispatchIndex::from_table(LookupTable::build(&bulk_g)),
            &bulk_g,
        ),
    ];
    let mut shape_counts = [0u64; 3];
    for (index, g) in &indexes {
        let mut probes: Vec<_> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        // Both fixtures declare one member visible everywhere, so add a
        // miss explicitly to cover the not-found shape.
        probes.push((
            g.classes().next().unwrap(),
            cpplookup::MemberId::from_index(g.member_name_count() + 1),
        ));
        // Warm up: fault in pages, lazily initialized TLS, anything
        // one-time — the acceptance criterion is about the steady state.
        for &(c, m) in &probes {
            std::hint::black_box(index.lookup_ref(c, m));
        }
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                for &(c, m) in &probes {
                    match std::hint::black_box(index.lookup_ref(c, m)) {
                        OutcomeRef::Resolved {
                            class,
                            least_virtual,
                        } => {
                            std::hint::black_box((class, least_virtual));
                            shape_counts[0] += 1;
                        }
                        OutcomeRef::Ambiguous { witnesses } => {
                            // Walk the borrowed witness set too: this is
                            // exactly the path that used to clone a Vec.
                            for lv in witnesses.iter() {
                                std::hint::black_box(lv);
                            }
                            shape_counts[1] += 1;
                        }
                        OutcomeRef::NotFound => shape_counts[2] += 1,
                    }
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "lookup_ref allocated {allocs} times over {} probes",
            probes.len() * 16
        );
    }
    assert!(
        shape_counts.iter().all(|&n| n > 0),
        "sweep must exercise resolved/ambiguous/not-found ({shape_counts:?})"
    );
}

/// The SWAR batch path inherits the criterion: once the caller's output
/// buffer has been warmed to capacity, `lookup_batch_into` performs
/// zero allocations per stripe — the whole point of taking `&mut Vec`
/// instead of returning a fresh one.
#[test]
fn lookup_batch_into_hot_path_is_allocation_free() {
    let ambiguous_g = fixtures::fig1();
    let bulk_g = families::wide_diamond(8, Inheritance::NonVirtual);
    for g in [&ambiguous_g, &bulk_g] {
        let index = DispatchIndex::from_table(LookupTable::build(g));
        let mut probes: Vec<_> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        // A guaranteed miss, so the batch covers the not-found shape.
        probes.push((
            g.classes().next().unwrap(),
            cpplookup::MemberId::from_index(g.member_name_count() + 1),
        ));
        let mut out = Vec::new();
        // Warm up: grows `out` to its steady-state capacity and faults
        // in anything one-time, exactly like the single-probe test.
        index.lookup_batch_into(&probes, &mut out);
        let expected: Vec<_> = probes
            .iter()
            .map(|&(c, m)| index.lookup_ref(c, m).to_outcome())
            .collect();
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                index.lookup_batch_into(&probes, &mut out);
                for r in &out {
                    if let OutcomeRef::Ambiguous { witnesses } = r {
                        for lv in witnesses.iter() {
                            std::hint::black_box(lv);
                        }
                    }
                }
                std::hint::black_box(out.len());
            }
        });
        assert_eq!(
            allocs,
            0,
            "lookup_batch_into allocated {allocs} times over {} probes × 16",
            probes.len()
        );
        // And the reused buffer still holds the right answers.
        let got: Vec<_> = out.iter().map(|r| r.to_outcome()).collect();
        assert_eq!(got, expected);
    }
}

/// Every core metric hook resolves its handles on its first call and
/// afterwards only records through them: once warmed, none of them
/// allocates — no registry lookup by name, no histogram template.
#[test]
fn core_metric_hooks_are_allocation_free_after_their_first_call() {
    use cpplookup::obs;
    let hooks: [(&str, fn()); 7] = [
        ("index_published", || obs::index_published(1, 50)),
        ("index_refreshed", || obs::index_refreshed(4)),
        ("index_built", || obs::index_built("table", 10, 640, 1_000)),
        ("table_built", || obs::table_built("batched", 10, 2, 1_000)),
        ("snapshot_loaded", || obs::snapshot_loaded(4_096, 1_000)),
        ("directory_built", || obs::directory_built(1_000)),
        ("serve_query", || obs::serve_query(3)),
    ];
    for (name, hook) in hooks {
        hook();
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                hook();
            }
        });
        assert_eq!(
            allocs, 0,
            "obs::{name} allocated {allocs} times in 16 calls"
        );
    }
}

/// Contrast case documenting *why* `lookup_ref` exists: the owned
/// `lookup` necessarily allocates on ambiguous hits (it materializes
/// the witness `Vec`), which is exactly what the ref path avoids.
#[test]
fn owned_lookup_allocates_on_ambiguous_hits() {
    let g = fixtures::fig1();
    let index = DispatchIndex::from_table(LookupTable::build(&g));
    let e = g.class_by_name("E").unwrap();
    let m = g.member_by_name("m").unwrap();
    assert!(matches!(
        index.lookup_ref(e, m),
        OutcomeRef::Ambiguous { .. }
    ));
    let allocs = count_allocs(|| {
        std::hint::black_box(index.lookup(e, m));
    });
    assert!(allocs > 0, "owned ambiguous lookup should allocate");
}

/// The server's read path, farm plus codec, inherits the criterion: a
/// `QUERY` or `BATCH` decodes as a view over its frame, resolves and
/// probes through a reused [`ReadScratch`] and writes its reply into a
/// reused buffer. Once those are warmed, a 64-probe `BATCH` allocates no
/// more than a 1-probe `QUERY` — nothing at all — plain, traced or
/// pinned to an epoch, and its reply is the owned encoder's bytes.
#[test]
fn farm_read_path_allocations_do_not_grow_with_the_probe_count() {
    use cpplookup::server::farm::ReadScratch;
    use cpplookup::server::protocol::Decoded;
    use cpplookup::server::{Farm, Request, Response};

    // `R::v` is ambiguous (named witnesses), `S::v` too (Ω), `P::v` and
    // `T::v` resolve and `Lone::v` is not found.
    let g = {
        use cpplookup::chg::{ChgBuilder, MemberDecl, MemberKind};
        let mut b = ChgBuilder::new();
        let [p, q, r, s] = ["P", "Q", "R", "S"].map(|name| b.class(name));
        b.class("Lone");
        for c in [p, q] {
            b.member_with(c, "v", MemberDecl::public(MemberKind::Function))
                .unwrap();
        }
        for base in [p, q] {
            b.derive(r, base, Inheritance::Virtual).unwrap();
            b.derive(s, base, Inheritance::NonVirtual).unwrap();
        }
        let t = b.class("T");
        b.derive(t, p, Inheritance::Virtual).unwrap();
        b.finish().unwrap()
    };
    let dir = std::env::temp_dir().join(format!("cpplookup-serve-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shapes.snap");
    cpplookup::snapshot::Snapshot::compile(&g)
        .write_to(&path)
        .unwrap();
    let farm = Farm::new();
    farm.load("t", &path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let pairs: Vec<(String, String)> = g
        .classes()
        .flat_map(|c| g.member_ids().map(move |m| (c, m)))
        .map(|(c, m)| (g.class_name(c).to_owned(), g.member_name(m).to_owned()))
        .collect();
    let probes: Vec<(String, String)> = pairs.iter().cycle().take(64).cloned().collect();
    let owned = farm.batch("t", &probes).unwrap();
    for shape in ["Resolved", "Ambiguous", "NotFound"] {
        assert!(
            owned.iter().any(|o| format!("{o:?}").starts_with(shape)),
            "the batch must hold a {shape} outcome"
        );
    }
    let epoch = farm.retained_epochs("t").unwrap()[0];

    let mut scratch = ReadScratch::default();
    let mut out = Vec::new();
    let mut answer = |body: &[u8]| {
        out.clear();
        let Ok(Decoded::Read(view)) = Request::decode_borrowed(body) else {
            panic!("not a read");
        };
        farm.answer(&view, &mut scratch, &mut out).unwrap();
        std::hint::black_box(&out);
    };
    for (trace, as_of) in [(false, None), (true, None), (false, Some(epoch))] {
        let batch = Request::Batch {
            tenant: "t".to_owned(),
            probes: probes.clone(),
            trace,
            as_of,
        }
        .encode();
        let (class, member) = probes[0].clone();
        let query = Request::Query {
            tenant: "t".to_owned(),
            class,
            member,
            trace,
            as_of,
        }
        .encode();
        // Warm up: grows the scratch and the reply buffer to their
        // steady-state capacity.
        answer(&batch);
        answer(&query);
        let batch_allocs = count_allocs(|| {
            for _ in 0..16 {
                answer(&batch);
            }
        });
        let query_allocs = count_allocs(|| {
            for _ in 0..16 {
                answer(&query);
            }
        });
        assert!(
            batch_allocs <= query_allocs,
            "64-probe BATCH allocated {batch_allocs} times, 1-probe QUERY {query_allocs} (16 each)"
        );
        assert_eq!(batch_allocs, 0, "trace {trace}, as-of {as_of:?}");
    }
    // The borrowed reply is the owned encoder's reply, byte for byte.
    answer(
        &Request::Batch {
            tenant: "t".to_owned(),
            probes: probes.clone(),
            trace: false,
            as_of: None,
        }
        .encode(),
    );
    assert_eq!(out, Response::Outcomes(owned).encode());

    // Contrast: the owned path decodes every name into a `String` and
    // builds every outcome's names again, so its allocations grow with
    // the probe count.
    let batch = Request::Batch {
        tenant: "t".to_owned(),
        probes: probes.clone(),
        trace: false,
        as_of: None,
    }
    .encode();
    let owned_allocs = count_allocs(|| {
        let Ok(Request::Batch { tenant, probes, .. }) = Request::decode(&batch) else {
            panic!("not a batch");
        };
        std::hint::black_box(farm.batch(&tenant, &probes).unwrap());
    });
    assert!(
        owned_allocs > 64,
        "owned path allocated only {owned_allocs} times"
    );
}
