//! The experiment implementations behind `EXPERIMENTS.md`: one function
//! per experiment id, each printing the paper-shaped table or trace to
//! the given writer.
//!
//! Absolute numbers are machine-dependent; the *shapes* (who wins, by
//! what factor, where the blowups are) are what reproduce the paper.

use std::io::{self, Write};

use cpplookup_baselines::gxx::{gxx_lookup, gxx_lookup_corrected, GxxResult};
use cpplookup_baselines::naive::{propagate, PropagationConfig};
use cpplookup_baselines::retired;
use cpplookup_baselines::toposort::toposort_lookup;
use cpplookup_chg::{apply_edits, fixtures, Chg, Edit, Inheritance};
use cpplookup_core::access::{check_access, AccessContext};
use cpplookup_core::mph::MphFunction;
use cpplookup_core::trace::{render_trace, trace_member};
use cpplookup_core::{
    DispatchIndex, IndexedEngine, LazyLookup, LookupOptions, LookupOutcome, LookupTable, StaticRule,
};
use cpplookup_frontend::{analyze, parser};
use cpplookup_hiergen::families;
use cpplookup_hiergen::{edit_script, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup_snapshot::{Snapshot, SnapshotTable};
use cpplookup_subobject::stats::count_subobjects;
use cpplookup_subobject::{
    defns, isomorphism, lookup as oracle_lookup, Resolution, SubobjectGraph,
};

use std::time::Duration;

use crate::timing::{
    fmt_duration, fmt_ns, geomean, interleave, json_rows, margin_differential, median_time,
    time_once, write_bench, BaselineGate, Spread,
};
use crate::workloads::{self, Workload};

/// All experiment ids, in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e20", "e21", "e22", "e23", "e24", "e25", "e26", "e27",
];

/// Runs one experiment by id (`"e1"`..`"e25"`), writing its report.
/// The extra ids `"e21-smoke"` through `"e25-smoke"` are
/// the CI guard variants: fast differential + perf checks that *fail*
/// (return an error) when the batched compiler, the dispatch index,
/// the wire-protocol server, or the replication stack regresses.
///
/// # Errors
///
/// Propagates I/O errors from the writer; unknown ids return
/// `InvalidInput`; the `"-smoke"` ids return an error when their
/// regression guard trips.
pub fn run(id: &str, w: &mut dyn Write) -> io::Result<()> {
    match id {
        "e1" => e1(w),
        "e2" => e2(w),
        "e3" => e3(w),
        "e4" => e4(w),
        "e5" => e5(w),
        "e6" => e6(w),
        "e7" => e7(w),
        "e8" => e8(w),
        "e9" => e9(w),
        "e10" => e10(w),
        "e11" => e11(w),
        "e12" => e12(w),
        "e13" => e13(w),
        "e14" => e14(w),
        "e15" => e15(w),
        "e16" => e16(w),
        "e17" => e17(w),
        "e18" => e18(w),
        "e20" => e20(w),
        "e21" => e21(w),
        "e21-smoke" => e21_smoke(w),
        "e22" => e22(w),
        "e22-smoke" => e22_smoke(w),
        "e23" => e23(w),
        "e23-smoke" => e23_smoke(w),
        "e24" => e24(w),
        "e24-smoke" => e24_smoke(w),
        "e25" => e25(w),
        "e25-smoke" => e25_smoke(w),
        "e26" => e26(w),
        "e26-smoke" => e26_smoke(w),
        "e27" => e27(w),
        "e27-smoke" => e27_smoke(w),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment `{other}` (known: {})", ALL.join(", ")),
        )),
    }
}

fn verdict_named(chg: &Chg, o: &LookupOutcome, member: &str) -> String {
    match o {
        LookupOutcome::Resolved { class, .. } => {
            format!("{}::{member}", chg.class_name(*class))
        }
        LookupOutcome::Ambiguous { .. } => "ambiguous".to_owned(),
        LookupOutcome::NotFound => "not found".to_owned(),
    }
}

fn verdict(chg: &Chg, o: &LookupOutcome) -> String {
    verdict_named(chg, o, "m")
}

/// E1 — Figure 1: non-virtual inheritance makes `p->m` ambiguous.
fn e1(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E1 (Figure 1): non-virtual inheritance")?;
    let g = fixtures::fig1();
    let e = g.class_by_name("E").unwrap();
    let m = g.member_by_name("m").unwrap();
    let sg = SubobjectGraph::build(&g, e, 1000).expect("tiny");
    let a = g.class_by_name("A").unwrap();
    writeln!(
        w,
        "  E object: {} subobjects, {} of class A",
        sg.len(),
        sg.subobjects_of_class(a).count()
    )?;
    let t = LookupTable::build(&g);
    writeln!(
        w,
        "  lookup(E, m): {}   [paper: ambiguous]",
        verdict(&g, &t.lookup(e, m))
    )?;
    Ok(())
}

/// E2 — Figure 2: virtual inheritance makes the same lookup resolve.
fn e2(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E2 (Figure 2): virtual inheritance")?;
    let g = fixtures::fig2();
    let e = g.class_by_name("E").unwrap();
    let m = g.member_by_name("m").unwrap();
    let sg = SubobjectGraph::build(&g, e, 1000).expect("tiny");
    let a = g.class_by_name("A").unwrap();
    writeln!(
        w,
        "  E object: {} subobjects, {} of class A",
        sg.len(),
        sg.subobjects_of_class(a).count()
    )?;
    let t = LookupTable::build(&g);
    writeln!(
        w,
        "  lookup(E, m): {}   [paper: D::m]",
        verdict(&g, &t.lookup(e, m))
    )?;
    Ok(())
}

/// E3 — Figure 3: the `Defns` sets and lookups of the running example.
fn e3(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E3 (Figure 3): Defns(H, ·) and lookups")?;
    let g = fixtures::fig3();
    let h = g.class_by_name("H").unwrap();
    let sg = SubobjectGraph::build(&g, h, 1000).expect("tiny");
    for name in ["foo", "bar"] {
        let m = g.member_by_name(name).unwrap();
        let defs: Vec<String> = defns(&g, &sg, m)
            .into_iter()
            .map(|id| sg.subobject(id).display(&g).to_string())
            .collect();
        writeln!(w, "  Defns(H, {name}) = {{ {} }}", defs.join(", "))?;
        let res = match oracle_lookup(&g, &sg, m) {
            Resolution::Subobject(id) => sg.subobject(id).display(&g).to_string(),
            Resolution::Ambiguous(_) => "⊥ (ambiguous)".to_owned(),
            other => format!("{other:?}"),
        };
        writeln!(w, "  lookup(H, {name}) = {res}")?;
    }
    writeln!(w, "  [paper: lookup(H,foo) = {{GH}}, lookup(H,bar) = ⊥]")?;
    Ok(())
}

/// E4 — Figures 4–5: full-path propagation with killed definitions.
fn e4(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "E4 (Figures 4-5): definition propagation, ~~killed~~ / **winner**"
    )?;
    let g = fixtures::fig3();
    for name in ["foo", "bar"] {
        let m = g.member_by_name(name).unwrap();
        let prop = propagate(&g, m, PropagationConfig::default()).expect("tiny");
        writeln!(w, "  member {name}:")?;
        for node in &prop.nodes {
            let parts: Vec<String> = node
                .reaching
                .iter()
                .map(|p| {
                    let t = p.display(&g).to_string();
                    if node.killed.contains(p) {
                        format!("~~{t}~~")
                    } else if node.most_dominant.as_ref() == Some(p) {
                        format!("**{t}**")
                    } else {
                        t
                    }
                })
                .collect();
            writeln!(w, "    {}: {}", g.class_name(node.class), parts.join(", "))?;
        }
    }
    Ok(())
}

/// E5 — Figures 6–7: red/blue abstraction propagation.
fn e5(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E5 (Figures 6-7): abstraction propagation")?;
    let g = fixtures::fig3();
    for name in ["foo", "bar"] {
        let m = g.member_by_name(name).unwrap();
        writeln!(w, "  member {name}:")?;
        for line in render_trace(&g, &trace_member(&g, m, LookupOptions::default())).lines() {
            writeln!(w, "    {line}")?;
        }
    }
    Ok(())
}

/// E6 — Figure 8: quick differential summary of the algorithm against
/// the Rossie–Friedman oracle (the test suite runs the exhaustive
/// version).
fn e6(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "E6 (Figure 8): differential check vs the subobject oracle"
    )?;
    let mut checked = 0usize;
    for seed in 0..40 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for c in chg.classes() {
            let sg = SubobjectGraph::build(&chg, c, 100_000).expect("small");
            for m in chg.member_ids() {
                let ours = table.lookup(c, m);
                let oracle = oracle_lookup(&chg, &sg, m);
                let agree = matches!(
                    (&ours, &oracle),
                    (LookupOutcome::NotFound, Resolution::NotFound)
                        | (LookupOutcome::Ambiguous { .. }, Resolution::Ambiguous(_))
                ) || matches!((&ours, &oracle),
                    (LookupOutcome::Resolved { class, .. }, Resolution::Subobject(u))
                        if *class == sg.subobject(*u).class());
                assert!(agree, "differential mismatch at seed {seed}");
                checked += 1;
            }
        }
    }
    writeln!(
        w,
        "  {checked} lookups across 40 random hierarchies: all agree"
    )?;
    Ok(())
}

/// E7 — Figure 9: the g++ counterexample.
fn e7(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E7 (Figure 9): the g++ 2.7.2.1 counterexample")?;
    let g = fixtures::fig9();
    let e = g.class_by_name("E").unwrap();
    let m = g.member_by_name("m").unwrap();
    let sg = SubobjectGraph::build(&g, e, 1000).expect("tiny");
    let t = LookupTable::build(&g);
    writeln!(w, "  paper's algorithm : {}", verdict(&g, &t.lookup(e, m)))?;
    let faithful = match gxx_lookup(&g, &sg, m) {
        GxxResult::Ambiguous => "ambiguous   <- WRONG (the 1997 bug)".to_owned(),
        other => format!("{other:?}"),
    };
    writeln!(w, "  faithful g++ BFS  : {faithful}")?;
    let corrected = match gxx_lookup_corrected(&g, &sg, m) {
        GxxResult::Resolved(id) => format!("{}::m", g.class_name(sg.subobject(id).class())),
        other => format!("{other:?}"),
    };
    writeln!(w, "  corrected BFS     : {corrected}")?;
    Ok(())
}

/// E8 — Theorem 1: executable isomorphism check.
fn e8(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E8 (Theorem 1): ≈-class poset ≅ subobject poset")?;
    let fixtures_list = [
        ("fig1", fixtures::fig1()),
        ("fig2", fixtures::fig2()),
        ("fig3", fixtures::fig3()),
        ("fig9", fixtures::fig9()),
        ("static_diamond", fixtures::static_diamond()),
        ("static_override_mix", fixtures::static_override_mix()),
    ];
    for (name, g) in fixtures_list {
        isomorphism::check_theorem1_all(&g, 1_000_000)
            .unwrap_or_else(|e| panic!("theorem 1 failed on {name}: {e}"));
        writeln!(w, "  {name}: verified for all {} classes", g.class_count())?;
    }
    let mut classes = 0usize;
    for seed in 0..25 {
        let g = random_hierarchy(&RandomConfig::stress(seed));
        isomorphism::check_theorem1_all(&g, 1_000_000).expect("theorem 1 on random graph");
        classes += g.class_count();
    }
    writeln!(
        w,
        "  + verified on {classes} classes across 25 random hierarchies"
    )?;
    Ok(())
}

/// E9 — subobject blowup: CHG linear, subobject graph exponential.
fn e9(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E9: subobject-graph size vs CHG size (stacked diamonds)")?;
    writeln!(
        w,
        "  {:>3} {:>8} {:>8} {:>14} {:>14}",
        "k", "classes", "edges", "nonvirtual", "virtual"
    )?;
    for k in [2, 4, 6, 8, 10, 12, 14, 16, 18, 20] {
        let nv = families::stacked_diamonds(k, Inheritance::NonVirtual);
        let v = families::stacked_diamonds(k, Inheritance::Virtual);
        let bottom = format!("D{k}");
        let count = |g: &Chg| -> String {
            let c = g.class_by_name(&bottom).unwrap();
            match count_subobjects(g, c, 8_000_000) {
                Ok(n) => n.to_string(),
                Err(_) => "> 8,000,000".to_owned(),
            }
        };
        writeln!(
            w,
            "  {:>3} {:>8} {:>8} {:>14} {:>14}",
            k,
            nv.class_count(),
            nv.edge_count(),
            count(&nv),
            count(&v)
        )?;
    }
    writeln!(
        w,
        "  shape: non-virtual grows as 2^k; virtual stays linear in k"
    )?;
    Ok(())
}

fn time_single_lookup(w: &mut dyn Write, workload: &Workload, runs: usize) -> io::Result<()> {
    let Workload {
        name,
        chg,
        class,
        member,
    } = workload;
    let (ours, _) = median_time(runs, || {
        let mut lazy = LazyLookup::new(chg);
        lazy.lookup(*class, *member)
    });
    let (topo, _) = median_time(runs, || toposort_lookup(chg, *class, *member));
    let gxx = {
        let (d, outcome) = median_time(1, || {
            SubobjectGraph::build(chg, *class, 2_000_000)
                .map(|sg| gxx_lookup_corrected(chg, &sg, *member))
        });
        match outcome {
            Ok(_) => fmt_duration(d),
            Err(_) => "blowup".to_owned(),
        }
    };
    writeln!(
        w,
        "  {:<18} {:>10} {:>12} {:>12}",
        name,
        fmt_duration(ours),
        gxx,
        fmt_duration(topo)
    )
}

/// E10 — single-lookup cost: ours vs subobject-graph BFS vs the
/// (unsound) topological shortcut.
fn e10(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E10: single lookup cost (cold caches)")?;
    writeln!(
        w,
        "  {:<18} {:>10} {:>12} {:>12}",
        "workload", "ours(lazy)", "gxx(BFS)", "topo-num"
    )?;
    for workload in [
        workloads::chain(256),
        workloads::chain(1024),
        workloads::chain(4096),
        workloads::virtual_diamonds(64),
        workloads::virtual_diamonds(256),
        workloads::nonvirtual_diamonds(8),
        workloads::nonvirtual_diamonds(14),
        workloads::nonvirtual_diamonds(20),
        workloads::nonvirtual_diamonds(40),
        workloads::gxx_trap(64),
        workloads::realistic(2000, 11),
    ] {
        time_single_lookup(w, &workload, 5)?;
    }
    writeln!(
        w,
        "  shape: ours stays linear in |N|+|E|; BFS explodes with 2^k subobjects;"
    )?;
    writeln!(
        w,
        "  the topo shortcut is fastest but silently wrong on ambiguous lookups (E17)"
    )?;
    Ok(())
}

/// E11 — whole-table construction: eager vs lazy-everything.
fn e11(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E11: whole-table construction")?;
    writeln!(
        w,
        "  {:<22} {:>8} {:>10} {:>10} {:>12}",
        "workload", "entries", "eager", "lazy-all", "ambiguous%"
    )?;
    let mut cases: Vec<(String, Chg)> = vec![
        (
            "realistic-500".into(),
            random_hierarchy(&RandomConfig::realistic(500, 1)),
        ),
        (
            "realistic-2000".into(),
            random_hierarchy(&RandomConfig::realistic(2000, 2)),
        ),
        (
            "clash-500".into(),
            random_hierarchy(&RandomConfig {
                classes: 500,
                extra_base_prob: 0.5,
                max_bases: 3,
                virtual_prob: 0.3,
                member_pool: 8,
                member_prob: 0.3,
                static_prob: 0.1,
                seed: 3,
            }),
        ),
    ];
    cases.push((
        "vdiamond-300".into(),
        families::stacked_diamonds(300, Inheritance::Virtual),
    ));
    for (name, chg) in &cases {
        let (eager, table) = median_time(3, || LookupTable::build(chg));
        let (lazy_all, _) = median_time(3, || {
            let mut lazy = LazyLookup::new(chg);
            let mut touched = 0usize;
            for c in chg.classes() {
                for m in chg.member_ids() {
                    if lazy.entry(c, m).is_some() {
                        touched += 1;
                    }
                }
            }
            touched
        });
        let stats = table.stats();
        writeln!(
            w,
            "  {:<22} {:>8} {:>10} {:>10} {:>11.1}%",
            name,
            stats.entries,
            fmt_duration(eager),
            fmt_duration(lazy_all),
            100.0 * stats.blue as f64 / stats.entries.max(1) as f64
        )?;
    }
    writeln!(
        w,
        "  shape: all polynomial; the eager sweep beats answering every pair lazily"
    )?;
    Ok(())
}

/// E12 — the killing optimization of Section 4, measured.
fn e12(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E12: killing ablation (naive Section-4 propagation)")?;
    writeln!(
        w,
        "  {:<16} {:>14} {:>14} {:>10} {:>10}",
        "workload", "defs(no-kill)", "defs(kill)", "t(nokill)", "t(kill)"
    )?;
    let cases = [
        ("fig3", fixtures::fig3()),
        (
            "nvdiamond-12",
            families::stacked_diamonds(12, Inheritance::NonVirtual),
        ),
        (
            "ovdiamond-12",
            families::stacked_diamonds_overridden(12, Inheritance::NonVirtual),
        ),
        ("grid-5x5", families::grid(5, 5)),
        ("gxxtrap-6", families::gxx_trap(6)),
    ];
    for (name, chg) in cases {
        let m = chg
            .member_by_name("m")
            .or_else(|| chg.member_by_name("foo"))
            .unwrap();
        let budget = 10_000_000;
        let (t_nokill, no_kill) = median_time(3, || {
            propagate(
                &chg,
                m,
                PropagationConfig {
                    kill: false,
                    budget,
                },
            )
        });
        let (t_kill, kill) = median_time(3, || {
            propagate(&chg, m, PropagationConfig { kill: true, budget })
        });
        let fmt_defs = |r: &Result<_, _>| match r {
            Ok(p) => {
                let p: &cpplookup_baselines::naive::Propagation = p;
                p.propagated_defs.to_string()
            }
            Err(_) => format!("> {budget}"),
        };
        writeln!(
            w,
            "  {:<16} {:>14} {:>14} {:>10} {:>10}",
            name,
            fmt_defs(&no_kill),
            fmt_defs(&kill),
            fmt_duration(t_nokill),
            fmt_duration(t_kill)
        )?;
    }
    writeln!(
        w,
        "  shape: killing collapses definition counts wherever overrides exist"
    )?;
    Ok(())
}

/// E13 — static members (Definition 17), including the set-propagation
/// counterexample found by differential testing.
fn e13(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E13: static members (Definition 16/17)")?;
    let g = fixtures::static_diamond();
    let t = LookupTable::build(&g);
    let d = g.class_by_name("D").unwrap();
    writeln!(
        w,
        "  static_diamond: lookup(D, s) = {}   lookup(D, d) = {}",
        verdict_named(&g, &t.lookup(d, g.member_by_name("s").unwrap()), "s"),
        verdict_named(&g, &t.lookup(d, g.member_by_name("d").unwrap()), "d")
    )?;
    let g = fixtures::static_override_mix();
    let t = LookupTable::build(&g);
    let j = g.class_by_name("J").unwrap();
    let tt = g.class_by_name("T").unwrap();
    let id = g.member_by_name("id").unwrap();
    writeln!(
        w,
        "  static_override_mix: lookup(J, id) = {}   lookup(T, id) = {}",
        verdict_named(&g, &t.lookup(j, id), "id"),
        verdict_named(&g, &t.lookup(tt, id), "id")
    )?;
    writeln!(
        w,
        "  note: lookup(T, id) is ambiguous only because shared-static entries"
    )?;
    writeln!(
        w,
        "  propagate the whole co-maximal set; a single representative (a literal"
    )?;
    writeln!(
        w,
        "  reading of the paper's Section 6 sketch) resolves it incorrectly"
    )?;
    Ok(())
}

/// E14 — access rights, applied after lookup.
fn e14(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E14: access rights (post-lookup)")?;
    let src = "class B { public: int pub_m; protected: int prot_m; private: int priv_m; };\n\
               class D : public B {};\n\
               class P : private B {};\n";
    let analysis = analyze(src);
    let chg = &analysis.chg;
    let table = &analysis.table;
    for (class, member, ctx, label) in [
        ("D", "pub_m", AccessContext::External, "external"),
        ("D", "prot_m", AccessContext::External, "external"),
        ("D", "priv_m", AccessContext::External, "external"),
        ("P", "pub_m", AccessContext::External, "external"),
    ] {
        let c = chg.class_by_name(class).unwrap();
        let m = chg.member_by_name(member).unwrap();
        let r = match check_access(chg, table, c, m, ctx) {
            Ok(a) => format!("accessible ({a})"),
            Err(e) => format!("rejected: {e}"),
        };
        writeln!(w, "  {class}::{member} from {label}: {r}")?;
    }
    let d = chg.class_by_name("D").unwrap();
    let prot = chg.member_by_name("prot_m").unwrap();
    let r = match check_access(chg, table, d, prot, AccessContext::Inside(d)) {
        Ok(a) => format!("accessible ({a})"),
        Err(e) => format!("rejected: {e}"),
    };
    writeln!(w, "  D::prot_m from inside D: {r}")?;
    Ok(())
}

/// E15 — unqualified-name resolution through nested scopes.
fn e15(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E15: unqualified names (Section 6)")?;
    let src = "int g;\n\
               struct Base { int inherited; };\n\
               struct S : Base {\n\
                 int own;\n\
                 void f() { int local; local = 1; own = 2; inherited = 3; g = 4; }\n\
               };\n";
    let analysis = analyze(src);
    for q in &analysis.queries {
        writeln!(w, "  `{}` -> {:?}", q.description, q.result)?;
    }
    writeln!(
        w,
        "  order: block locals, then member lookup (bases included), then globals"
    )?;
    Ok(())
}

/// E16 — the "lookups are a real fraction of compilation" motivation:
/// parse-only vs full analysis on a generated translation unit.
fn e16(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E16: frontend share of member lookup")?;
    writeln!(
        w,
        "  {:<24} {:>10} {:>12} {:>14}",
        "workload", "parse", "parse+lookup", "lookup share"
    )?;
    for (classes, accesses) in [(100, 500), (300, 3000), (600, 10_000)] {
        let src = workloads::frontend_source(classes, accesses);
        let (parse_only, _) = median_time(3, || parser::parse(&src));
        let (full, analysis) = median_time(3, || analyze(&src));
        assert_eq!(analysis.failed_queries().count(), 0);
        let share = 100.0 * (full.as_secs_f64() - parse_only.as_secs_f64()).max(0.0)
            / full.as_secs_f64().max(f64::EPSILON);
        writeln!(
            w,
            "  {:<24} {:>10} {:>12} {:>13.0}%",
            format!("{classes}cls/{accesses}acc"),
            fmt_duration(parse_only),
            fmt_duration(full),
            share
        )?;
    }
    writeln!(
        w,
        "  [paper, Section 7: member lookups can be as much as 15% of compilation]"
    )?;
    Ok(())
}

/// E17 — the topological-number shortcut: fast, and silently wrong
/// exactly on the ambiguous lookups.
fn e17(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E17: the topological-number shortcut (Section 7.2)")?;
    let mut resolved = 0usize;
    let mut resolved_agree = 0usize;
    let mut ambiguous = 0usize;
    let mut silently_answered = 0usize;
    for seed in 0..60 {
        let chg = random_hierarchy(&RandomConfig::stress(seed));
        let table = LookupTable::build_with(
            &chg,
            LookupOptions {
                statics: StaticRule::Ignore,
            },
        );
        for c in chg.classes() {
            for m in chg.member_ids() {
                match table.lookup(c, m) {
                    LookupOutcome::Resolved { class, .. } => {
                        resolved += 1;
                        if toposort_lookup(&chg, c, m) == Some(class) {
                            resolved_agree += 1;
                        }
                    }
                    LookupOutcome::Ambiguous { .. } => {
                        ambiguous += 1;
                        if toposort_lookup(&chg, c, m).is_some() {
                            silently_answered += 1;
                        }
                    }
                    LookupOutcome::NotFound => {}
                }
            }
        }
    }
    writeln!(
        w,
        "  unambiguous lookups: {resolved_agree}/{resolved} match the real answer"
    )?;
    writeln!(
        w,
        "  ambiguous lookups:   {silently_answered}/{ambiguous} silently produce a wrong binding"
    )?;
    writeln!(
        w,
        "  [valid only under the Eiffel/Attali assumption of no ambiguity]"
    )?;
    Ok(())
}

/// E18 — edit-heavy workload: the serving engine's dirty-set
/// recomputation vs rebuilding the whole table after every edit. The
/// engine is an [`IndexedEngine`](cpplookup_core::IndexedEngine), so
/// its time per edit includes refreshing and republishing the index;
/// the pairs it recomputes are read from the facade's
/// `serve_index_refresh_dirty_pairs` histogram.
fn e18(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E18: incremental invalidation vs full rebuild")?;
    writeln!(
        w,
        "  {:<18} {:>6} {:>12} {:>12} {:>8} {:>14} {:>12} {:>12}",
        "workload",
        "edits",
        "full/edit",
        "incr/edit",
        "ratio",
        "edge-med-ratio",
        "rebuild",
        "incremental"
    )?;
    for (classes, seed) in [(500usize, 1u64), (2000, 2)] {
        let (base, script) = edit_script(&EditScriptConfig::realistic(classes, 40, seed));
        let mut engine = IndexedEngine::new(base.clone(), LookupOptions::default());
        let mut g = base;
        let mut full_entries = 0u64;
        let mut incr_entries = 0u64;
        let mut edge_ratios: Vec<f64> = Vec::new();
        let mut rebuild_time = std::time::Duration::ZERO;
        let mut incr_time = std::time::Duration::ZERO;
        let recomputed = || {
            cpplookup_core::obs::snapshot()
                .histogram("serve_index_refresh_dirty_pairs")
                .map_or(0, |h| h.sum)
        };
        let mut prev_recomputed = recomputed();
        for edit in &script {
            let step = std::slice::from_ref(edit);
            g = apply_edits(&g, step).expect("generated edits always apply");
            let (dt, table) = crate::timing::time_once(|| LookupTable::build(&g));
            rebuild_time += dt;
            let (dt, result) = crate::timing::time_once(|| engine.apply(step));
            result.expect("generated edits always apply");
            incr_time += dt;
            let full = table.stats().entries as u64;
            let now = recomputed();
            let delta = now - prev_recomputed;
            prev_recomputed = now;
            full_entries += full;
            incr_entries += delta;
            if matches!(edit, Edit::AddEdge { .. }) {
                edge_ratios.push(full as f64 / delta.max(1) as f64);
            }
        }
        // Spot-check the published index against the last rebuild.
        let table = LookupTable::build(&g);
        let published = engine.handle().load();
        for c in g.classes().step_by(7) {
            for m in g.member_ids().take(40) {
                assert_eq!(
                    published.index().entry(c, m).as_ref(),
                    table.entry(c, m),
                    "incremental result diverged at ({}, {})",
                    g.class_name(c),
                    g.member_name(m)
                );
            }
        }
        edge_ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let median = edge_ratios
            .get(edge_ratios.len() / 2)
            .copied()
            .unwrap_or(f64::INFINITY);
        let edits = script.len() as u64;
        writeln!(
            w,
            "  {:<18} {:>6} {:>12} {:>12} {:>7.0}x {:>13.0}x {:>12} {:>12}",
            format!("realistic-{classes}"),
            edits,
            full_entries / edits,
            incr_entries / edits,
            full_entries as f64 / incr_entries.max(1) as f64,
            median,
            fmt_duration(rebuild_time),
            fmt_duration(incr_time)
        )?;
        assert!(
            median >= 5.0,
            "single-edge edits must recompute at least 5x fewer entries than a rebuild \
             (median ratio {median:.1} on realistic-{classes})"
        );
    }
    writeln!(
        w,
        "  [the dirty set of a single edit is its derived-class closure, not the table]"
    )?;
    Ok(())
}

/// Rounds per family in E20: every round times one build and one load.
const E20_ROUNDS: usize = 9;

/// E20: snapshot cold load vs building the table from the hierarchy.
///
/// The "compile once, serve many" pitch of `cpplookup-snapshot` is that
/// a server process should reach its first answered query by validating
/// pre-compiled bytes, not by re-running the closure computation. This
/// experiment measures time-to-first-query two ways across ascending
/// hierarchy families — eager build and snapshot load (checksum +
/// structural validation of the byte image, including the `memcpy` of
/// the input buffer) — plus resident-set growth while each result is
/// held live.
///
/// The acceptance target is a >=10x load-vs-build advantage on the
/// largest family. Build and load run [interleaved](interleave),
/// [`E20_ROUNDS`] rounds per family; a speedup is the median of the
/// per-round ratios, printed with their IQR as a share of it.
fn e20(w: &mut dyn Write) -> io::Result<()> {
    fn vm_rss_kb() -> Option<i64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find(|l| l.starts_with("VmRSS:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }
    fn fmt_kb(bytes: usize) -> String {
        if bytes < 1024 {
            format!("{bytes} B")
        } else {
            format!("{:.1} KB", bytes as f64 / 1024.0)
        }
    }
    fn fmt_rss(delta: Option<i64>) -> String {
        match delta {
            Some(kb) => format!("{kb:+} KB"),
            None => "n/a".to_owned(),
        }
    }

    writeln!(
        w,
        "E20: snapshot cold load vs table build (compile once, serve many)"
    )?;
    writeln!(
        w,
        "  every timing includes the first answered query; load includes full \
         checksum + structural validation; medians of {E20_ROUNDS} interleaved rounds, \
         the speedup with its IQR/median"
    )?;
    let families: Vec<(&str, Chg)> = vec![
        ("chain_512", families::chain(512, Some(8))),
        ("interface_256x4", families::interface_heavy(256, 4)),
        ("grid_16x16", families::grid(16, 16)),
        (
            "realistic_1000",
            random_hierarchy(&RandomConfig::realistic(1000, 7)),
        ),
        (
            "realistic_4000",
            random_hierarchy(&RandomConfig::realistic(4000, 7)),
        ),
        (
            "realistic_8000",
            random_hierarchy(&RandomConfig::realistic(8000, 7)),
        ),
    ];

    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>10} {:>10} {:>10} {:>9} {:>5} {:>10} {:>10}",
        "family",
        "classes",
        "entries",
        "snapshot",
        "build",
        "load",
        "speedup",
        "iqr",
        "rss build",
        "rss load"
    )?;

    let mut largest_speedup = 0.0f64;
    for (name, chg) in &families {
        let c0 = chg.classes().next().expect("non-empty hierarchy");
        let m0 = chg.member_ids().next().expect("hierarchy declares members");

        let build = || {
            let t = LookupTable::build(chg);
            let _ = t.lookup(c0, m0);
            t
        };
        let bytes = Snapshot::compile(chg).into_bytes();
        let load = || {
            let t = SnapshotTable::from_bytes(bytes.clone()).expect("writer output validates");
            let _ = t.lookup(c0, m0);
            t
        };
        let rss_before_build = vm_rss_kb();
        let table = build();
        let rss_build = vm_rss_kb().zip(rss_before_build).map(|(a, b)| a - b);
        drop(table);
        let rss_before_load = vm_rss_kb();
        let loaded = load();
        let rss_load = vm_rss_kb().zip(rss_before_load).map(|(a, b)| a - b);

        let rounds = interleave(E20_ROUNDS, 2, |k| {
            let start = std::time::Instant::now();
            match k {
                0 => drop(build()),
                _ => drop(load()),
            }
            Ok(start.elapsed().as_secs_f64())
        })?;
        let (speedup, iqr) = rounds.ratio(0, 1);
        let secs = |k: usize| Duration::from_secs_f64(rounds.spread(k).median);
        largest_speedup = speedup; // families are ascending; last row is largest
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>10} {:>10} {:>10} {:>8.1}x {:>5.2} {:>10} {:>10}",
            name,
            loaded.class_count(),
            loaded.entry_count(),
            fmt_kb(bytes.len()),
            fmt_duration(secs(0)),
            fmt_duration(secs(1)),
            speedup,
            iqr,
            fmt_rss(rss_build),
            fmt_rss(rss_load),
        )?;
    }
    writeln!(
        w,
        "  target >=10x faster time-to-first-query on the largest family: {} ({:.1}x)",
        if largest_speedup >= 10.0 {
            "PASS"
        } else {
            "FAIL"
        },
        largest_speedup
    )?;
    writeln!(
        w,
        "  [rss deltas are indicative only: the allocator reuses freed build pages for the load]"
    )?;
    Ok(())
}

/// Rounds per family in E21: every round times both builders.
const E21_ROUNDS: usize = 7;

/// E21 — the batched single-sweep compiler (CSR + member-frontier
/// pruning + arena-interned abstractions) against the per-member
/// reference build it replaced. Every family here is ≥2000 classes; the
/// headline number is the geometric-mean speedup (target ≥3×). The
/// builders are asserted entry-identical before any timing is reported.
///
/// The builders run [interleaved](interleave), [`E21_ROUNDS`] rounds
/// per family. A speedup is the median of the per-round ratios, printed
/// with the interquartile range of those ratios as a share of it.
fn e21(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "E21: batched single-sweep compiler vs the old per-member build"
    )?;
    writeln!(
        w,
        "  old = one full topological sweep over all classes per member \
         (Theta(|N|*|M|) steps); batched = one sweep per member *frontier*, \
         shared CSR, interned abstractions; medians of {E21_ROUNDS} interleaved \
         rounds, the speedup with its IQR/median"
    )?;
    let families = large_families();
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>11} {:>11} {:>8} {:>6}",
        "family", "classes", "entries", "old", "batched", "speedup", "iqr"
    )?;
    let mut ratios: Vec<f64> = Vec::new();
    for (name, chg) in &families {
        let options = LookupOptions::default();
        let old = retired::build_per_member(chg, options);
        let batched = LookupTable::build(chg);
        assert_eq!(
            old.stats(),
            batched.stats(),
            "{name}: builders diverged — timing a wrong table is meaningless"
        );
        let entries = batched.stats().entries;
        drop((old, batched));
        let rounds = interleave(E21_ROUNDS, 2, |k| {
            let (t, table) = time_once(|| match k {
                0 => retired::build_per_member(chg, options),
                _ => LookupTable::build(chg),
            });
            drop(table);
            Ok(t.as_secs_f64())
        })?;
        let (speedup, iqr) = rounds.ratio(0, 1);
        let median = |k| fmt_duration(Duration::from_secs_f64(rounds.spread(k).median));
        ratios.push(speedup);
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>11} {:>11} {:>7.2}x {:>6.2}",
            name,
            chg.class_count(),
            entries,
            median(0),
            median(1),
            speedup,
            iqr,
        )?;
    }
    let geomean = geomean(&ratios);
    writeln!(
        w,
        "  target >=3x single-thread geomean speedup on families >=2000 classes: {} ({geomean:.2}x)",
        if geomean >= 3.0 { "PASS" } else { "FAIL" }
    )?;
    Ok(())
}

/// Interleaved rounds behind E21-smoke's one-pass compile guard.
const E21_COMPILE_ROUNDS: usize = 9;

/// The floor on the one-pass compile's speedup over building the table,
/// packing it and copying the index into the file.
const E21_COMPILE_FLOOR: f64 = 1.3;

/// E21's CI guard: a fast batched-vs-old differential on one small
/// interface-heavy family, erroring out when the tables diverge or the
/// batched build is more than 1.25× slower than the old per-member
/// build it replaced; then the one-pass snapshot compile against the
/// table path it replaced on the same family, erroring out when their
/// bytes differ or the compile is less than [`E21_COMPILE_FLOOR`]
/// times faster.
fn e21_smoke(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E21-smoke: batched-vs-old differential + perf guard")?;
    let chg = families::interface_heavy(200, 4);
    let options = LookupOptions::default();
    let old = retired::build_per_member(&chg, options);
    let batched = LookupTable::build(&chg);
    for c in chg.classes() {
        for m in chg.member_ids() {
            if old.entry(c, m) != batched.entry(c, m) {
                return Err(io::Error::other(format!(
                    "builders diverge at ({}, {})",
                    chg.class_name(c),
                    chg.member_name(m)
                )));
            }
        }
    }
    writeln!(
        w,
        "  differential: {} classes, {} entries, batched == old per-member build",
        chg.class_count(),
        batched.stats().entries
    )?;
    let (t_old, _) = median_time(5, || retired::build_per_member(&chg, options));
    let (t_bat, _) = median_time(5, || LookupTable::build(&chg));
    let ratio = t_bat.as_secs_f64() / t_old.as_secs_f64().max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  perf: old {} batched {} (batched/old = {ratio:.2})",
        fmt_duration(t_old),
        fmt_duration(t_bat)
    )?;
    if ratio > 1.25 {
        return Err(io::Error::other(format!(
            "batched build is {ratio:.2}x the old per-member build time (limit 1.25x)"
        )));
    }
    writeln!(w, "  guard: PASS (limit 1.25x)")?;
    e21_compile_guard(w, &chg)
}

/// The one-pass compile guard of [`e21_smoke`]: `Snapshot::compile`
/// against `Snapshot::from_index` of a packed `LookupTable::build`,
/// [interleaved](interleave) over [`E21_COMPILE_ROUNDS`] rounds; the
/// speedup is the median per-round ratio.
fn e21_compile_guard(w: &mut dyn Write, chg: &Chg) -> io::Result<()> {
    let options = LookupOptions::default();
    let table_path = || {
        let index = DispatchIndex::from_table(LookupTable::build(chg));
        Snapshot::from_index(chg, &index, options)
    };
    if Snapshot::compile(chg).as_bytes() != table_path().as_bytes() {
        return Err(io::Error::other(
            "the one-pass compile's bytes differ from the table path's",
        ));
    }
    let rounds = interleave(E21_COMPILE_ROUNDS, 2, |k| {
        let (t, _) = time_once(|| match k {
            0 => table_path(),
            _ => Snapshot::compile(chg),
        });
        Ok(t.as_secs_f64())
    })?;
    let (speedup, iqr) = rounds.ratio(0, 1);
    let median = |k| fmt_duration(Duration::from_secs_f64(rounds.spread(k).median));
    writeln!(
        w,
        "  compile: table path {} one-pass {} (speedup {speedup:.2}x, iqr {iqr:.2}), \
         bytes identical",
        median(0),
        median(1),
    )?;
    if speedup < E21_COMPILE_FLOOR {
        return Err(io::Error::other(format!(
            "the one-pass compile is only {speedup:.2}x faster than the table path \
             (floor {E21_COMPILE_FLOOR}x)"
        )));
    }
    writeln!(w, "  compile guard: PASS (floor {E21_COMPILE_FLOOR}x)")?;
    Ok(())
}

/// A serving probe: one `(class, member)` query.
type Probe = (cpplookup_chg::ClassId, cpplookup_chg::MemberId);

/// Deterministic Fisher–Yates driven by an inline LCG (the bench crate
/// has no rand dependency). A fixed seed keeps probe order reproducible
/// across backends and runs, so every backend serves the same stream.
fn shuffle_probes<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((seed >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
}

/// Folds an owned outcome into a checksum word. Keeps the optimizer
/// from discarding the lookups and doubles as a cross-backend agreement
/// check: every backend must produce the same per-family checksum.
fn outcome_word(outcome: &LookupOutcome) -> u64 {
    match outcome {
        LookupOutcome::NotFound => 1,
        LookupOutcome::Resolved { class, .. } => 2 + class.index() as u64,
        LookupOutcome::Ambiguous { witnesses } => 0x1000 + witnesses.len() as u64,
    }
}

/// The same checksum for the borrowed fast path, so table, snapshot,
/// and index sweeps are comparable word for word.
fn outcome_ref_word(outcome: &cpplookup_core::OutcomeRef<'_>) -> u64 {
    use cpplookup_core::OutcomeRef;
    match outcome {
        OutcomeRef::NotFound => 1,
        OutcomeRef::Resolved { class, .. } => 2 + class.index() as u64,
        OutcomeRef::Ambiguous { witnesses } => 0x1000 + witnesses.len() as u64,
    }
}

/// One timed single-threaded sweep: `reps` passes over `probes`
/// through `f`. Returns (ns per lookup, checksum).
fn sweep_ns(probes: &[Probe], reps: usize, f: impl Fn(Probe) -> u64) -> (f64, u64) {
    let (t, sum) = time_once(|| {
        let mut sum = 0u64;
        for _ in 0..reps {
            for &p in probes {
                sum = sum.wrapping_add(f(p));
            }
        }
        sum
    });
    (t.as_secs_f64() * 1e9 / (reps * probes.len()) as f64, sum)
}

/// Holds every round's checksum to the first one, so no contender is
/// timed answering differently from the others.
fn same_sum(first: &mut Option<u64>, sum: u64, what: &str) -> io::Result<()> {
    if *first.get_or_insert(sum) != sum {
        return Err(io::Error::other(format!(
            "{what}: probe checksums diverged"
        )));
    }
    Ok(())
}

/// One timed run of `threads` workers, each making `reps` rotated
/// passes over `probes` through `f` (each worker starts at a different
/// offset so the backends see spread-out access, not lockstep).
/// Returns (aggregate lookups per second, checksum).
fn serve_mt(
    threads: usize,
    probes: &[Probe],
    reps: usize,
    f: impl Fn(Probe) -> u64 + Sync,
) -> (f64, u64) {
    let (t, sum) = time_once(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|tid| {
                    let f = &f;
                    let offset = tid * probes.len() / threads;
                    scope.spawn(move || {
                        let mut sum = 0u64;
                        for _ in 0..reps {
                            for &p in probes.iter().skip(offset).chain(probes.iter().take(offset)) {
                                sum = sum.wrapping_add(f(p));
                            }
                        }
                        sum
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("serve worker"))
                .fold(0u64, u64::wrapping_add)
        })
    });
    let lookups = (threads * reps * probes.len()) as f64;
    (lookups / t.as_secs_f64().max(f64::MIN_POSITIVE), sum)
}

/// The live (class, member) pairs of a hierarchy — every pair the table
/// actually stores an entry for — LCG-shuffled and capped, so the probe
/// stream has no locality the backends could ride for free.
fn serve_probes(chg: &Chg, table: &LookupTable, seed: u64) -> Vec<Probe> {
    let mut probes: Vec<Probe> = chg
        .classes()
        .flat_map(|c| table.members_of(c).map(move |m| (c, m)))
        .collect();
    shuffle_probes(&mut probes, seed);
    probes.truncate(100_000);
    probes
}

/// The ≥2000-class families E21, E22 and E26 time.
fn large_families() -> Vec<(&'static str, Chg)> {
    vec![
        ("chain_2500", families::chain(2500, Some(16))),
        ("grid_50x50", families::grid(50, 50)),
        ("interface_500x4", families::interface_heavy(500, 4)),
        (
            "realistic_2000",
            random_hierarchy(&RandomConfig::realistic(2000, 7)),
        ),
        (
            "realistic_4000",
            random_hierarchy(&RandomConfig::realistic(4000, 7)),
        ),
    ]
}

/// Interleaved rounds per family in E22 and E26.
const SERVE_ROUNDS: usize = 5;

/// E22 — the flat dispatch index against the hashmap-of-hashmaps
/// `LookupTable`. Single-thread ns/lookup and 8-thread aggregate QPS on
/// ≥2000-class families, shuffled live-pair probe streams,
/// checksum-verified across backends before any number is reported.
/// Table and index run [interleaved](interleave), [`SERVE_ROUNDS`]
/// rounds each; a ratio is the median per-round ratio. Also emits
/// `BENCH_e22.json` for the CI no-regression guard (`e22-smoke`). A
/// loaded snapshot has no read path of its own since format version 3:
/// it serves through this same index.
fn e22(w: &mut dyn Write) -> io::Result<()> {
    const THREADS: usize = 8;
    writeln!(w, "E22: flat dispatch index vs hashmap table")?;
    writeln!(
        w,
        "  table = FxHashMap-of-FxHashMap entry clone; index = pre-decoded \
         byte columns served via allocation-free lookup_ref through the minimal \
         perfect hash directory; medians of {SERVE_ROUNDS} interleaved rounds"
    )?;
    writeln!(w, "  single thread, ns/lookup:")?;
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6}",
        "family", "classes", "entries", "b/entry", "table", "index", "vs table", "iqr"
    )?;
    let mut rows: Vec<String> = Vec::new();
    let mut family_rows: Vec<String> = Vec::new();
    let mut single_ratios: Vec<f64> = Vec::new();
    let mut qps_ratios: Vec<f64> = Vec::new();
    for (name, chg) in &large_families() {
        let table = LookupTable::build(chg);
        let index = DispatchIndex::from_table(LookupTable::build(chg));
        let probes = serve_probes(chg, &table, 0x9E37 ^ name.len() as u64);
        let reps = (2_000_000 / probes.len()).max(1);
        let mt_reps = (1_000_000 / probes.len()).max(1);

        let by_table = |(c, m): Probe| outcome_word(&table.lookup(c, m));
        let by_index = |(c, m): Probe| outcome_ref_word(&index.lookup_ref(c, m));
        // Contenders: table and index single-thread ns/lookup, then
        // table and index 8-thread QPS.
        let mut sums = [None; 2];
        let rounds = interleave(SERVE_ROUNDS, 4, |k| {
            let (value, s) = match k {
                0 => sweep_ns(&probes, reps, by_table),
                1 => sweep_ns(&probes, reps, by_index),
                2 => serve_mt(THREADS, &probes, mt_reps, by_table),
                _ => serve_mt(THREADS, &probes, mt_reps, by_index),
            };
            same_sum(&mut sums[k / 2], s, name)?;
            Ok(value)
        })?;
        let (single_ratio, single_iqr) = rounds.ratio(0, 1);
        let (qps_ratio, qps_iqr) = rounds.ratio(3, 2);
        single_ratios.push(single_ratio);
        qps_ratios.push(qps_ratio);
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>8.1} {:>9.1} {:>9.1} {:>8.2}x {:>6.2}",
            name,
            chg.class_count(),
            index.entry_count(),
            index.bytes_per_entry(),
            rounds.spread(0).median,
            rounds.spread(1).median,
            single_ratio,
            single_iqr,
        )?;
        rows.push(format!(
            "  {:<16} {:>9.2} {:>9.2} {:>9.2}x {:>6.2}",
            name,
            rounds.spread(2).median / 1e6,
            rounds.spread(3).median / 1e6,
            qps_ratio,
            qps_iqr,
        ));
        family_rows.push(format!(
            "{{\"name\": \"{name}\", \"classes\": {}, \"entries\": {}, \
             \"index_bytes\": {}, \"bytes_per_entry\": {bpe:.2}, \
             \"single_ns\": {{\"table\": {}, \"index\": {}}}, \
             \"qps\": {{\"table\": {}, \"index\": {}}}, \
             \"index_vs_table_single\": {single_ratio:.3}, \
             \"index_vs_table_qps\": {qps_ratio:.3}}}",
            chg.class_count(),
            index.entry_count(),
            index.size_bytes(),
            rounds.spread(0).json(""),
            rounds.spread(1).json(""),
            rounds.spread(2).json(""),
            rounds.spread(3).json(""),
            bpe = index.bytes_per_entry(),
        ));
    }
    writeln!(w, "  {THREADS} threads, aggregate Mlookups/s:")?;
    writeln!(
        w,
        "  {:<16} {:>9} {:>9} {:>10} {:>6}",
        "family", "table", "index", "vs table", "iqr"
    )?;
    for row in &rows {
        writeln!(w, "{row}")?;
    }
    let g_single = geomean(&single_ratios);
    let g_qps = geomean(&qps_ratios);
    writeln!(
        w,
        "  target >=2x single-thread index vs hashmap table (geomean): {} ({g_single:.2}x)",
        if g_single >= 2.0 { "PASS" } else { "FAIL" }
    )?;
    writeln!(
        w,
        "  {THREADS}-thread QPS index vs hashmap table (geomean): {g_qps:.2}x"
    )?;
    write_bench(
        w,
        "e22",
        THREADS,
        SERVE_ROUNDS,
        &[
            ("families", json_rows(&family_rows)),
            ("geomean_index_vs_table_single", format!("{g_single:.3}")),
            ("geomean_index_vs_table_qps", format!("{g_qps:.3}")),
        ],
    )
}

/// Starts a wire-smoke server preloading `preload`, under the I/O
/// model `CPPLOOKUP_IO_MODEL` names (`epoll` reruns e23/e24's guards
/// against the reactor, so CI exercises both models through the same
/// assertions), and prints the model on `w`.
fn smoke_server(
    w: &mut dyn Write,
    preload: Vec<(String, std::path::PathBuf)>,
) -> io::Result<(cpplookup_server::Server, String)> {
    use cpplookup_server::{IoModel, Server, ServerConfig};
    let io_model = std::env::var("CPPLOOKUP_IO_MODEL")
        .ok()
        .and_then(|v| IoModel::parse(&v))
        .unwrap_or_default();
    writeln!(w, "  io-model: {}", io_model.label())?;
    let server = Server::start(ServerConfig {
        preload,
        io_model,
        ..ServerConfig::default()
    })?;
    let addr = server.addr().to_string();
    Ok((server, addr))
}

/// Rounds of `e22-smoke`'s interleaved table and index sweeps.
const E22_SMOKE_ROUNDS: usize = 9;

/// E22's CI guard, in four stages: a full index-vs-table differential
/// on an interface-heavy family (every construction detail wrong shows
/// up here); a legacy-load gate — `tests/fixtures/chain_12_v1.snap`,
/// written before snapshots carried their hash (it builds its minimal
/// perfect hash at load), three version-2 files written before the
/// index columns were the file's own (`chain_12_v2.snap` and two with
/// blue entries and witness sets) and one version-3 file written while
/// the hash builder searched every displacement
/// (`random_realistic_20_7_v3.snap`) must load into an index that
/// answers every pair plus a dead-id margin as the table does; a
/// serve-sweep perf floor on `grid_50x50` — the
/// family where the index's one-line probe has the widest, most
/// noise-proof margin over the hashmap table (≥2×) — and, when a
/// committed `BENCH_e22.json` baseline exists, a no-regression check
/// against 0.4× that family's recorded ratio. The perf sweeps are
/// 1M lookups each, table and index [interleaved](interleave) over
/// [`E22_SMOKE_ROUNDS`] rounds, compared best against best, so a burst
/// of host noise costs one round of one side instead of moving the
/// ratio.
fn e22_smoke(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "E22-smoke: dispatch-index differential, legacy-load gate + serve perf guard"
    )?;
    let diff = families::interface_heavy(200, 4);
    let diff_table = LookupTable::build(&diff);
    let diff_index = DispatchIndex::from_table(LookupTable::build(&diff));
    margin_differential(
        &diff_index,
        &diff_table,
        diff.class_count(),
        diff.member_name_count(),
        0,
    )?;
    writeln!(
        w,
        "  differential: {} classes, {} entries, index == table",
        diff.class_count(),
        diff_index.entry_count()
    )?;
    let legacy = [
        ("chain_12_v1.snap", 1, families::chain(12, None)),
        ("chain_12_v2.snap", 2, families::chain(12, None)),
        (
            "stacked_diamonds_3_nonvirtual_v2.snap",
            2,
            families::stacked_diamonds(3, Inheritance::NonVirtual),
        ),
        (
            "random_realistic_20_7_v2.snap",
            2,
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
        (
            "random_realistic_20_7_v3.snap",
            3,
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
    ];
    for (file, version, legacy_chg) in legacy {
        let legacy_table = LookupTable::build(&legacy_chg);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(file);
        let snap = SnapshotTable::load(&path)
            .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))?;
        let index = snap.dispatch_index();
        if snap.version() != version
            || index.class_count() != legacy_chg.class_count()
            || index.entry_count() != legacy_table.stats().entries
        {
            return Err(io::Error::other(format!(
                "{file}: the v{version} snapshot index does not cover its table"
            )));
        }
        margin_differential(
            &index,
            &legacy_table,
            legacy_chg.class_count(),
            legacy_chg.member_name_count(),
            3,
        )
        .map_err(|e| io::Error::other(format!("{file}: the v{version} snapshot {e}")))?;
        writeln!(
            w,
            "  v{version} load of {file}: {} entries, index == table (+3 dead margin)",
            index.entry_count()
        )?;
    }
    let chg = families::grid(50, 50);
    let table = LookupTable::build(&chg);
    let index = DispatchIndex::from_table(LookupTable::build(&chg));
    let probes = serve_probes(&chg, &table, 0xE22);
    let reps = (1_000_000 / probes.len()).max(1);
    let mut sum = None;
    let rounds = interleave(E22_SMOKE_ROUNDS, 2, |k| {
        let (ns, s) = match k {
            0 => sweep_ns(&probes, reps, |(c, m)| outcome_word(&table.lookup(c, m))),
            _ => sweep_ns(&probes, reps, |(c, m)| {
                outcome_ref_word(&index.lookup_ref(c, m))
            }),
        };
        same_sum(&mut sum, s, "grid_50x50 table vs index")?;
        Ok(ns)
    })?;
    let (ns_table, ns_index) = (rounds.spread(0).min, rounds.spread(1).min);
    let ratio = ns_table / ns_index.max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  perf (grid_50x50): table {ns_table:.1} ns/lookup, index {ns_index:.1} ns/lookup, \
         best of {E22_SMOKE_ROUNDS} interleaved rounds (index speedup {ratio:.2}x)"
    )?;
    BaselineGate {
        file: "BENCH_e22.json",
        path: &["families", "name=grid_50x50", "index_vs_table_single"],
        floor: 2.0,
        share: 0.4,
    }
    .check(w, ratio)
    .map_err(|e| io::Error::other(format!("index speedup on the serve sweep: {e}")))
}

/// Maps an in-process [`LookupOutcome`] to the wire shape the server
/// should produce for it, using the snapshot's name tables.
fn wire_of(table: &SnapshotTable, outcome: &LookupOutcome) -> cpplookup_server::WireOutcome {
    use cpplookup_core::LeastVirtual;
    use cpplookup_server::{WireLv, WireOutcome};

    let name = |c| table.class_name(c).unwrap().to_owned();
    let lv = |v: &LeastVirtual| match v {
        LeastVirtual::Omega => WireLv::Omega,
        LeastVirtual::Class(c) => WireLv::Class(name(*c)),
    };
    match outcome {
        LookupOutcome::NotFound => WireOutcome::NotFound,
        LookupOutcome::Resolved {
            class,
            least_virtual,
        } => WireOutcome::Resolved {
            class: name(*class),
            least_virtual: lv(least_virtual),
        },
        LookupOutcome::Ambiguous { witnesses } => WireOutcome::Ambiguous {
            witnesses: witnesses.iter().map(lv).collect(),
        },
    }
}

/// A wire-path error as an I/O error.
fn wire(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One closed-loop load run over `connections` against tenant `t0` at
/// `addr` for `millis` ms, failing on any load error.
fn closed_loop(
    addr: &str,
    probes: &[(String, String)],
    connections: usize,
    millis: u64,
) -> io::Result<cpplookup_server::loadgen::LoadReport> {
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    let report = loadgen::run(
        &LoadConfig {
            addr: addr.to_owned(),
            connections,
            duration: Duration::from_millis(millis),
            ..LoadConfig::default()
        },
        &[TenantTarget {
            name: "t0".to_owned(),
            probes: probes.to_vec(),
        }],
    )?;
    if report.errors > 0 {
        return Err(io::Error::other(format!(
            "{} load errors at {connections} connections",
            report.errors
        )));
    }
    Ok(report)
}

/// The whole HTTP/1.0 response to `GET target` at `addr`.
fn http_get(addr: &str, target: &str) -> io::Result<String> {
    use std::io::Read as _;
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(format!("GET {target} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())?;
    let mut body = String::new();
    s.read_to_string(&mut body)?;
    Ok(body)
}

/// Fails unless the phases under a span tree's root sum to the root's
/// duration exactly.
fn check_partition(spans: &[cpplookup_server::WireSpan]) -> io::Result<()> {
    let children_ns: u64 = spans[1..].iter().map(|s| s.duration_ns).sum();
    if children_ns != spans[0].duration_ns {
        return Err(io::Error::other(format!(
            "phases sum to {children_ns}, root is {} — partition must be exact",
            spans[0].duration_ns
        )));
    }
    Ok(())
}

/// A span tree's structure (ids, parents, labels): durations are
/// measurements, never stable.
fn span_shape(spans: &[cpplookup_server::WireSpan]) -> Vec<(u64, u64, String)> {
    spans
        .iter()
        .map(|s| (s.id, s.parent, s.label.clone()))
        .collect()
}

/// A threads-model and an epoll-model server, each preloading `snap`
/// as tenant `t0`, with their addresses.
fn start_both_models(
    snap: &std::path::Path,
    max_connections: usize,
) -> io::Result<[(cpplookup_server::Server, String); 2]> {
    use cpplookup_server::{IoModel, Server, ServerConfig};
    let start = |io_model| -> io::Result<(Server, String)> {
        let server = Server::start(ServerConfig {
            preload: vec![("t0".to_owned(), snap.to_owned())],
            max_connections,
            io_model,
            ..ServerConfig::default()
        })?;
        let addr = server.addr().to_string();
        Ok((server, addr))
    };
    Ok([start(IoModel::Threads)?, start(IoModel::Epoll)?])
}

/// Sends `probes` to tenant `t0` in BATCH frames of `chunk` probes and
/// holds every answer to the in-process index packed from the same
/// snapshot. Returns the answers.
fn wire_answers(
    client: &mut cpplookup_server::Client,
    table: &SnapshotTable,
    probes: &[(String, String)],
    chunk: usize,
) -> io::Result<Vec<cpplookup_server::WireOutcome>> {
    let index = DispatchIndex::from_backend(table);
    let mut answers = Vec::with_capacity(probes.len());
    for frame in probes.chunks(chunk) {
        answers.extend(client.batch("t0", frame).map_err(wire)?);
    }
    for ((class, member), got) in probes.iter().zip(&answers) {
        let c = table.class_by_name(class).unwrap();
        let m = table.member_by_name(member).unwrap();
        let want = wire_of(table, &index.lookup(c, m));
        if *got != want {
            return Err(io::Error::other(format!(
                "wire answer diverges from in-process index at ({class}, {member}): \
                 {got:?} != {want:?}"
            )));
        }
    }
    Ok(answers)
}

/// A scratch directory for snapshot artifacts, removed on drop.
struct BenchDir(std::path::PathBuf);

impl BenchDir {
    fn new(tag: &str) -> io::Result<BenchDir> {
        let path = std::env::temp_dir().join(format!("cpplookup-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(BenchDir(path))
    }

    fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }

    /// Compiles `chg` into `<name>.snap` here and loads it back.
    fn snapshot(&self, name: &str, chg: &Chg) -> io::Result<(std::path::PathBuf, SnapshotTable)> {
        let path = self.file(&format!("{name}.snap"));
        Snapshot::compile(chg)
            .write_to(&path)
            .map_err(io::Error::other)?;
        let table = SnapshotTable::load(&path).map_err(io::Error::other)?;
        Ok((path, table))
    }
}

impl Drop for BenchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// E23 — the wire-protocol server over the snapshot farm: byte-level
/// differential of wire answers against the in-process
/// `DispatchIndex`, sustained closed-loop QPS with latency quantiles
/// at 1/8/32 connections, and a 1000-tenant cold-start sweep (LOAD
/// rate, then first-query rate), each over [`E23_ROUNDS`]
/// rounds. Emits `BENCH_e23.json` for the CI no-regression guard
/// (`e23-smoke`).
fn e23(w: &mut dyn Write) -> io::Result<()> {
    use std::time::Instant;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::{Client, Server, ServerConfig};

    const COLD_TENANTS: usize = 1000;
    const COLD_SNAPSHOTS: usize = 16;
    const E23_ROUNDS: usize = 5;

    writeln!(w, "E23: multi-tenant wire protocol over the snapshot farm")?;
    let dir = BenchDir::new("e23")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let (snap_path, table) = dir.snapshot("main", &chg)?;

    let mut config = ServerConfig::default();
    config.preload.push(("t0".to_owned(), snap_path.clone()));
    let server = Server::start(config)?;
    let addr = server.addr().to_string();

    // Stage 1: every live (class, member) pair answered over the wire
    // must match the in-process DispatchIndex packed from the same
    // snapshot — checked before any number is reported.
    let probes = live_probes(&table);
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(30)))?;
    wire_answers(&mut client, &table, &probes, 1024)?;
    writeln!(
        w,
        "  differential: {} classes, {} live pairs, wire == in-process index",
        chg.class_count(),
        probes.len()
    )?;

    // Stage 2: sustained closed-loop throughput at three connection
    // counts against the warm tenant, the levels interleaved.
    const LEVELS: [usize; 3] = [1, 8, 32];
    writeln!(
        w,
        "  closed loop, 1 probe/request, warm tenant, medians of {E23_ROUNDS} interleaved rounds:"
    )?;
    writeln!(
        w,
        "  {:<12} {:>10} {:>10} {:>10}",
        "connections", "qps", "p50 us", "p99 us"
    )?;
    let mut quantiles = [const { (Vec::new(), Vec::new()) }; LEVELS.len()];
    let qps = interleave(E23_ROUNDS, LEVELS.len(), |k| {
        let report = closed_loop(&addr, &probes, LEVELS[k], 1200)?;
        quantiles[k].0.push(report.p50_us());
        quantiles[k].1.push(report.p99_us());
        Ok(report.qps())
    })?;
    let mut json_levels: Vec<String> = Vec::new();
    for (k, conns) in LEVELS.into_iter().enumerate() {
        let (p50, p99) = (
            Spread::of(quantiles[k].0.clone()),
            Spread::of(quantiles[k].1.clone()),
        );
        writeln!(
            w,
            "  {:<12} {:>10.0} {:>10.1} {:>10.1}",
            conns,
            qps.spread(k).median,
            p50.median,
            p99.median
        )?;
        json_levels.push(format!(
            "{{\"connections\": {conns}, \"qps\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
            qps.spread(k).json(""),
            p50.json(""),
            p99.json("")
        ));
    }
    // On a multi-core host the thread-per-connection server scales past
    // 1x here; on a single core the meaningful property is that 8
    // concurrent connections do not *collapse* aggregate throughput
    // (lock convoy, accept-path serialization). Guard the latter.
    let (scaling, _) = qps.ratio(1, 0);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    writeln!(
        w,
        "  target >=0.5x aggregate QPS at 8 connections vs 1 ({cores} cores): {} ({scaling:.2}x)",
        if scaling >= 0.5 { "PASS" } else { "FAIL" }
    )?;

    // Stage 3: 1000-tenant cold start, once per round. A handful of
    // distinct small snapshots fan out round-robin as 1000 fresh
    // tenants; LOAD validates the artifact and publishes its
    // DispatchIndex, and the first QUERY answers from it.
    let mut cold_paths = Vec::new();
    let mut cold_probe = Vec::new();
    for i in 0..COLD_SNAPSHOTS {
        let (path, t) = dir.snapshot(&format!("cold{i}"), &families::chain(40 + i, Some(4)))?;
        let probe = live_probes(&t)
            .into_iter()
            .next()
            .ok_or_else(|| io::Error::other("cold family has no live pairs"))?;
        cold_paths.push(path);
        cold_probe.push(probe);
    }
    let (mut load_rates, mut query_rates) = (Vec::new(), Vec::new());
    for round in 0..E23_ROUNDS {
        let t_load = Instant::now();
        for i in 0..COLD_TENANTS {
            client
                .load(
                    &format!("cold{round}-{i}"),
                    cold_paths[i % COLD_SNAPSHOTS].to_str().unwrap(),
                )
                .map_err(wire)?;
        }
        load_rates.push(COLD_TENANTS as f64 / t_load.elapsed().as_secs_f64().max(1e-9));
        let t_query = Instant::now();
        for i in 0..COLD_TENANTS {
            let (class, member) = &cold_probe[i % COLD_SNAPSHOTS];
            client
                .query(&format!("cold{round}-{i}"), class, member)
                .map_err(wire)?;
        }
        query_rates.push(COLD_TENANTS as f64 / t_query.elapsed().as_secs_f64().max(1e-9));
    }
    let tenants = client.hello().map_err(wire)?;
    if tenants as usize != E23_ROUNDS * COLD_TENANTS + 1 {
        return Err(io::Error::other(format!(
            "expected {} tenants after cold start, server reports {tenants}",
            E23_ROUNDS * COLD_TENANTS + 1
        )));
    }
    let (load_rate, query_rate) = (Spread::of(load_rates), Spread::of(query_rates));
    writeln!(
        w,
        "  cold start: {COLD_TENANTS} tenants over {COLD_SNAPSHOTS} snapshots, medians of \
         {E23_ROUNDS} rounds — LOAD {:.0}/s, first query {:.0}/s",
        load_rate.median, query_rate.median
    )?;

    write_bench(
        w,
        "e23",
        *LEVELS.last().expect("levels nonempty"),
        E23_ROUNDS,
        &[
            ("differential_pairs", probes.len().to_string()),
            ("levels", json_rows(&json_levels)),
            ("qps_8_vs_1", format!("{scaling:.3}")),
            (
                "cold_start",
                format!(
                    "{{\"tenants\": {COLD_TENANTS}, \"snapshots\": {COLD_SNAPSHOTS}, \
                     \"load_per_s\": {}, \"promote_per_s\": {}}}",
                    load_rate.json(""),
                    query_rate.json("")
                ),
            ),
        ],
    )
}

/// E23-smoke's codec check: the server writes read replies straight
/// from the directory, so the raw reply bytes of a 64-probe `BATCH`, a
/// `QUERY` and a `BATCH` naming an unknown class must equal what the
/// owned encoder makes of the verified answers (`answers[i]` answers
/// `probes[i]`) and of the expected error.
fn e23_raw_frames(
    addr: &str,
    probes: &[(String, String)],
    answers: &[cpplookup_server::WireOutcome],
) -> io::Result<String> {
    use cpplookup_server::protocol::{read_frame, write_frame};
    use cpplookup_server::{ErrorCode, Request, Response};

    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    let mut round_trip = |req: Request| -> io::Result<Vec<u8>> {
        write_frame(&mut stream, &req.encode())?;
        read_frame(&mut stream).map_err(wire)
    };
    let picks: Vec<usize> = (0..64).map(|i| i % probes.len()).collect();
    let batch = |probes: Vec<(String, String)>| Request::Batch {
        tenant: "t0".to_owned(),
        probes,
        trace: false,
        as_of: None,
    };
    let mut unknown: Vec<(String, String)> = picks.iter().map(|&i| probes[i].clone()).collect();
    unknown[7].0 = "zz_no_such_class".to_owned();
    let (class, member) = probes[0].clone();
    let checks = [
        (
            "64-probe BATCH",
            batch(picks.iter().map(|&i| probes[i].clone()).collect()),
            Response::Outcomes(picks.iter().map(|&i| answers[i].clone()).collect()),
        ),
        (
            "QUERY",
            Request::Query {
                tenant: "t0".to_owned(),
                class,
                member,
                trace: false,
                as_of: None,
            },
            Response::Outcome(answers[0].clone()),
        ),
        (
            "unknown-name BATCH",
            batch(unknown),
            Response::Error {
                code: ErrorCode::UnknownName,
                message: "unknown class `zz_no_such_class`".to_owned(),
            },
        ),
    ];
    let mut bytes = 0;
    for (what, req, want) in checks {
        let got = round_trip(req)?;
        if got != want.encode() {
            return Err(io::Error::other(format!(
                "{what}: the reply bytes differ from the owned encoder's ({} vs {} bytes)",
                got.len(),
                want.encode().len()
            )));
        }
        bytes += got.len();
    }
    Ok(format!(
        "64-probe BATCH, QUERY and unknown-name BATCH replies == owned encoder ({bytes} bytes)"
    ))
}

/// E23's CI guard: a full wire session (LOAD → QUERY → BATCH → EDIT →
/// STATS → METRICS) against an in-process server with every answer
/// checked, raw reply frames held to the owned encoder's bytes (see
/// [`e23_raw_frames`]), the HTTP admin endpoint probed over raw TCP, and a short
/// closed-loop load run held to an absolute QPS floor — plus, when a
/// committed `BENCH_e23.json` exists, a no-regression floor at 0.05x
/// the recorded median 8-connection QPS.
fn e23_smoke(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_server::cli::live_probes;
    use cpplookup_server::Client;

    writeln!(w, "E23-smoke: wire session + admin endpoint + QPS floor")?;
    let dir = BenchDir::new("e23-smoke")?;
    let chg = families::interface_heavy(100, 4);
    let (snap_path, table) = dir.snapshot("smoke", &chg)?;
    let probes = live_probes(&table);

    let (_server, addr) = smoke_server(w, Vec::new())?;
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))?;

    let (entries, _) = client
        .load("t0", snap_path.to_str().unwrap())
        .map_err(wire)?;
    if entries == 0 {
        return Err(io::Error::other("LOAD reported zero entries"));
    }
    let answers = wire_answers(&mut client, &table, &probes, probes.len())?;
    let (class, member) = &probes[0];
    if client.query("t0", class, member).map_err(wire)? != answers[0] {
        return Err(io::Error::other("point query disagrees with batch"));
    }
    let raw = e23_raw_frames(&addr, &probes, &answers)?;
    writeln!(w, "  raw frames: {raw}")?;
    let epoch = client
        .edit("t0", &format!("member {class} zz_e23_probe"))
        .map_err(wire)?;
    if epoch < 2 {
        return Err(io::Error::other(format!(
            "first edit published epoch {epoch}, expected >= 2"
        )));
    }
    let fresh = client.query("t0", class, "zz_e23_probe").map_err(wire)?;
    if !matches!(fresh, cpplookup_server::WireOutcome::Resolved { .. }) {
        return Err(io::Error::other(format!(
            "edited member did not resolve: {fresh:?}"
        )));
    }
    let stats = client.stats("t0").map_err(wire)?;
    if !stats.contains("\"epoch\"") {
        return Err(io::Error::other(format!("stats missing epoch: {stats}")));
    }
    writeln!(
        w,
        "  session: LOAD {entries} entries, {} probes verified, edit -> epoch {epoch}",
        probes.len()
    )?;

    // The admin endpoint shares the binary-protocol port; a plain HTTP
    // GET must come back as Prometheus text.
    let body = http_get(&addr, "/metrics")?;
    if !body.contains(" 200 OK") || !body.contains("server_requests_total") {
        return Err(io::Error::other(format!(
            "admin endpoint did not serve Prometheus metrics: {}",
            &body[..body.len().min(200)]
        )));
    }
    writeln!(w, "  admin: GET /metrics -> 200, Prometheus text")?;

    let qps = closed_loop(&addr, &probes, 2, 400)?.qps();
    writeln!(w, "  load: {qps:.0} qps closed-loop over 2 connections")?;
    BaselineGate {
        file: "BENCH_e23.json",
        path: &["levels", "connections=8", "qps", "median"],
        floor: 1000.0,
        share: 0.05,
    }
    .check(w, qps)
    .map_err(|e| io::Error::other(format!("smoke QPS: {e}")))?;
    writeln!(w, "  guard: PASS")?;
    Ok(())
}

/// E24 — request attribution on the wire path:
///
/// 1. **Span attribution** — traced queries and batches: the span
///    tree's *structure* (ids, parents, labels) must be identical
///    across repeated requests and across connections (durations are
///    measurements, never stable), and the child phases must sum to
///    the root span exactly.
/// 2. **Admin endpoints** — `/healthz`, `/tenants`, `/flightrecorder`
///    verified end-to-end against a live server whose slow threshold
///    is zero, so the slow log path is exercised too.
///
/// The layer's cost is not measured here: there is no server without
/// it to compare against, so it shows up in the gated end-to-end
/// benchmark instead. Emits `BENCH_e24.json` (with host context).
fn e24(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_server::cli::live_probes;
    use cpplookup_server::{Client, ObsConfig, Server, ServerConfig};

    /// Client connections the span-stability stage compares.
    const CONNS: usize = 2;

    writeln!(w, "E24: wire-path request attribution")?;
    let dir = BenchDir::new("e24")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let (snap_path, table) = dir.snapshot("main", &chg)?;
    let probes = live_probes(&table);

    let start_server = |obs: ObsConfig| -> io::Result<(Server, String)> {
        let server = Server::start(ServerConfig {
            preload: vec![("t0".to_owned(), snap_path.clone())],
            obs,
            ..ServerConfig::default()
        })?;
        let addr = server.addr().to_string();
        Ok((server, addr))
    };
    let (_server, addr) = start_server(ObsConfig::default())?;

    // Stage 1: span structure stability and exact attribution.
    let mut c1 = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))?;
    let mut c2 = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))?;
    let (class, member) = &probes[0];
    let (_, first) = c1.query_traced("t0", class, member).map_err(wire)?;
    let reference = span_shape(&first);
    check_partition(&first)?;
    for _ in 0..32 {
        let (_, again) = c1.query_traced("t0", class, member).map_err(wire)?;
        let (_, other) = c2.query_traced("t0", class, member).map_err(wire)?;
        check_partition(&again)?;
        check_partition(&other)?;
        if span_shape(&again) != reference || span_shape(&other) != reference {
            return Err(io::Error::other(
                "span tree structure varied across runs/connections",
            ));
        }
    }
    let (_, bspans) = c1
        .batch_traced("t0", &probes[..probes.len().min(64)])
        .map_err(wire)?;
    check_partition(&bspans)?;
    if span_shape(&bspans) != reference {
        return Err(io::Error::other("batch span structure diverged from query"));
    }
    writeln!(
        w,
        "  spans: {} spans/trace, structure byte-stable over 65 traces x 2 connections, \
         phases sum to root exactly",
        reference.len()
    )?;

    // Stage 2: admin endpoints against a fresh server with slow
    // threshold zero, so its traced query also exercises the slow log.
    let (admin_server, admin_addr) = start_server(ObsConfig {
        slow_threshold: Duration::from_millis(0),
        ..ObsConfig::default()
    })?;
    let _keep2 = &admin_server;
    let mut ca = Client::connect(admin_addr.as_str(), Some(Duration::from_secs(10)))?;
    ca.query_traced("t0", class, member).map_err(wire)?;
    ca.query("t0", class, member).map_err(wire)?;
    let health = http_get(&admin_addr, "/healthz")?;
    if !health.contains(" 200 OK") {
        return Err(io::Error::other(format!("/healthz failed: {health}")));
    }
    let tenants = http_get(&admin_addr, "/tenants")?;
    if !tenants.contains("\"tenant\":\"t0\"") || !tenants.contains("\"epoch\":0") {
        return Err(io::Error::other(format!("/tenants wrong: {tenants}")));
    }
    let fr = http_get(&admin_addr, "/flightrecorder")?;
    if !fr.contains("\"op\":\"query\"") || !fr.contains("\"tree\":[") {
        return Err(io::Error::other(format!(
            "/flightrecorder missing entries or slow trees: {}",
            &fr[..fr.len().min(300)]
        )));
    }
    writeln!(
        w,
        "  admin: /healthz 200, /tenants lists t0 at epoch 0, /flightrecorder has \
         entries + slow span trees"
    )?;

    write_bench(
        w,
        "e24",
        CONNS,
        1,
        &[
            ("spans_per_trace", reference.len().to_string()),
            ("span_structure_stable", "true".to_owned()),
            ("admin_endpoints_verified", "true".to_owned()),
        ],
    )
}

/// E24's CI gate: one full wire session with `--trace` semantics — a
/// traced query whose span tree must be non-empty, carry the six
/// expected phases, and partition the root exactly — plus a traced
/// load run that must attribute its requests over the same phases.
fn e24_smoke(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::Client;

    const PHASES: [&str; 6] = [
        "queue_wait",
        "frame_decode",
        "tenant_resolve",
        "promotion_wait",
        "directory_probe",
        "encode",
    ];

    writeln!(w, "E24-smoke: traced wire session + traced load")?;
    let dir = BenchDir::new("e24-smoke")?;
    let chg = families::interface_heavy(100, 4);
    let (snap_path, table) = dir.snapshot("smoke", &chg)?;
    let probes = live_probes(&table);

    let (_server, addr) = smoke_server(w, vec![("t0".to_owned(), snap_path)])?;

    // 1. Traced query: non-empty span tree, the six phases in order,
    //    durations summing to the root exactly.
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))?;
    let (class, member) = &probes[0];
    let (_, spans) = client.query_traced("t0", class, member).map_err(wire)?;
    if spans.len() != 1 + PHASES.len() {
        return Err(io::Error::other(format!(
            "expected root + {} phases, got {} spans",
            PHASES.len(),
            spans.len()
        )));
    }
    for (s, want) in spans[1..].iter().zip(PHASES) {
        if s.label != want {
            return Err(io::Error::other(format!(
                "phase `{}` where `{want}` expected",
                s.label
            )));
        }
        if s.parent != spans[0].id {
            return Err(io::Error::other("phase not parented to the root span"));
        }
    }
    check_partition(&spans)?;
    writeln!(
        w,
        "  trace: {} spans, phases sum to root ({} ns) exactly",
        spans.len(),
        spans[0].duration_ns
    )?;

    // 2. A traced load run aggregates attribution.
    let targets = [TenantTarget {
        name: "t0".to_owned(),
        probes: probes.clone(),
    }];
    let traced = loadgen::run(
        &LoadConfig {
            addr: addr.clone(),
            connections: 2,
            duration: Duration::from_millis(300),
            trace: true,
            ..LoadConfig::default()
        },
        &targets,
    )?;
    if traced.traced == 0 || traced.phases.len() != PHASES.len() {
        return Err(io::Error::other(format!(
            "traced load run attributed {} requests over {} phases",
            traced.traced,
            traced.phases.len()
        )));
    }
    writeln!(
        w,
        "  traced load: {} requests attributed over {} phases",
        traced.traced,
        traced.phases.len()
    )?;

    writeln!(w, "  guard: PASS")?;
    Ok(())
}

/// E25 — the durable edit log and follower replication: end-to-end
/// replication lag over the wire at three edit-burst sizes, then
/// restart-recovery time as a function of log length, before and after
/// checkpoint compaction. Emits `BENCH_e25.json` for the CI gate
/// (`e25-smoke`).
fn e25(w: &mut dyn Write) -> io::Result<()> {
    use std::sync::Arc;
    use std::time::Instant;

    use cpplookup_server::{
        Client, Farm, FarmOptions, FollowSource, Follower, FollowerConfig, Server, ServerConfig,
    };
    use cpplookup_wal::WalStore;

    const BURSTS: [usize; 3] = [1, 32, 256];
    const REPEATS: usize = 5;
    const LOG_LENS: [usize; 3] = [256, 1024, 4096];

    writeln!(w, "E25: edit-log replication lag and recovery time")?;
    let dir = BenchDir::new("e25")?;
    let chg = families::chain(64, None);
    let class_names = class_names(&chg);
    let (snap_path, _) = dir.snapshot("t", &chg)?;

    // Stage 1: wire replication lag. A leader server with a durable
    // log, a follower subscribed over the wire; each sample appends a
    // burst of accepted edits and times the follower's convergence to
    // the leader's last sequence number.
    let leader = Server::start(ServerConfig {
        preload: vec![("t".to_owned(), snap_path.clone())],
        wal_path: Some(dir.file("leader.wal")),
        fsync_every: 1,
        retain_epochs: 4,
        ..ServerConfig::default()
    })?;
    let replica = Arc::new(Farm::with_options(FarmOptions {
        read_only: true,
        retain_epochs: 4,
        ..FarmOptions::default()
    }));
    let follower = Follower::start(
        Arc::clone(&replica),
        FollowerConfig {
            source: FollowSource::Wire(leader.addr().to_string()),
            follower_id: "e25".to_owned(),
            ..FollowerConfig::default()
        },
    );
    let mut client = Client::connect(leader.addr(), Some(Duration::from_secs(10)))?;
    let mut edit_no = 0usize;
    let mut lag_rows = Vec::new();
    writeln!(w, "  wire replication lag (median of {REPEATS} bursts):")?;
    for burst in BURSTS {
        let mut lags = Vec::new();
        for _ in 0..REPEATS {
            for _ in 0..burst {
                let class = &class_names[edit_no % class_names.len()];
                client
                    .edit("t", &format!("member {class} e25m{edit_no}"))
                    .map_err(wire)?;
                edit_no += 1;
            }
            let target = leader.farm().wal().expect("leader has a log").last_seq();
            let t0 = Instant::now();
            if !follower.wait_for_seq(target, Duration::from_secs(30)) {
                return Err(io::Error::other(format!(
                    "follower stalled at seq {} of {target}",
                    follower.applied_seq()
                )));
            }
            lags.push(t0.elapsed().as_nanos() as f64);
        }
        let spread = Spread::of(lags);
        writeln!(
            w,
            "  burst {burst:>4} edits: converged in {:>10} ({:>8}/edit)",
            fmt_ns(spread.median),
            fmt_ns(spread.median / burst as f64),
        )?;
        lag_rows.push(format!(
            "{{\"burst\": {burst}, \"lag\": {}}}",
            spread.json("_ns")
        ));
    }
    follower.stop();
    drop(client);
    drop(leader);

    // Stage 2: restart recovery vs log length, then the same log after
    // checkpoint compaction. Replay is `Farm::replay`, the boot path a
    // starting server runs before its first connection.
    writeln!(
        w,
        "  restart recovery vs log length (min / median / max of {REPEATS} rounds):"
    )?;
    writeln!(
        w,
        "  {:>8} {:>10} {:>30} {:>10} | {:>6} {:>12}",
        "records", "log bytes", "replay", "rate", "after", "replay"
    )?;
    let mut recovery_rows = Vec::new();
    for log_len in LOG_LENS {
        let wal_path = dir.file(&format!("len{log_len}.wal"));
        write_member_log(&wal_path, &snap_path, &class_names, log_len)?;
        let log_bytes = std::fs::metadata(&wal_path)?.len();
        let records = log_records(&wal_path)?;
        let cold = interleave(REPEATS, 1, |_| replay(&wal_path))?.spread(0);
        let rate = records as f64 / (cold.median * 1e-9).max(1e-9);

        // Compact: fold the whole history into one checkpoint snapshot.
        {
            let (store, recovered) = WalStore::open(&wal_path, 0).map_err(io::Error::other)?;
            let farm = Farm::with_options(FarmOptions {
                wal: Some(Arc::new(store)),
                ..FarmOptions::default()
            });
            farm.replay(&recovered)
                .map_err(|(_, (_, m))| io::Error::other(m))?;
            farm.compact_wal(&dir.file(&format!("ckpt{log_len}")))
                .map_err(|(_, m)| io::Error::other(m))?;
        }
        let compacted_records = log_records(&wal_path)?;
        let warm = interleave(REPEATS, 1, |_| replay(&wal_path))?.spread(0);
        writeln!(
            w,
            "  {records:>8} {log_bytes:>10} {:>30} {rate:>8.0}/s | {compacted_records:>6} {:>12}",
            format!(
                "{} / {} / {}",
                fmt_ns(cold.min),
                fmt_ns(cold.median),
                fmt_ns(cold.max)
            ),
            fmt_ns(warm.median),
        )?;
        recovery_rows.push(format!(
            "{{\"records\": {records}, \"log_bytes\": {log_bytes}, \
             \"replay\": {}, \"records_per_s\": {rate:.0}, \
             \"compacted_records\": {compacted_records}, \"compacted_replay\": {}}}",
            cold.json("_ns"),
            warm.json("_ns")
        ));
    }

    write_bench(
        w,
        "e25",
        1,
        REPEATS,
        &[
            ("lag", json_rows(&lag_rows)),
            ("recovery", json_rows(&recovery_rows)),
        ],
    )
}

/// Every class name of `chg`, in id order.
fn class_names(chg: &Chg) -> Vec<String> {
    chg.classes()
        .map(|c| chg.class_name(c).to_owned())
        .collect()
}

/// Writes an edit log of one `Open` of `snap` followed by `edits`
/// member additions cycling over `class_names` — the records a logging
/// leader appends for the same client edits, written without applying
/// them.
fn write_member_log(
    path: &std::path::Path,
    snap: &std::path::Path,
    class_names: &[String],
    edits: usize,
) -> io::Result<()> {
    use cpplookup_wal::{WalRecord, WalStore};

    let (store, _) = WalStore::open(path, 0).map_err(io::Error::other)?;
    store.append(WalRecord::Open {
        tenant: "t".to_owned(),
        path: snap.display().to_string(),
    })?;
    for i in 0..edits {
        store.append(WalRecord::Edit {
            tenant: "t".to_owned(),
            directive: format!("member {} r{i}", class_names[i % class_names.len()]),
        })?;
    }
    store.sync()
}

/// The number of records in the log at `path`.
fn log_records(path: &std::path::Path) -> io::Result<usize> {
    Ok(cpplookup_wal::read_all(path)
        .map_err(io::Error::other)?
        .len())
}

/// The wall time, in nanoseconds, of one cold recovery of the log at
/// `path` — open, repair, and
/// [`Farm::replay`](cpplookup_server::Farm::replay) into a fresh farm,
/// as `Server::start` does.
fn replay(path: &std::path::Path) -> io::Result<f64> {
    use std::sync::Arc;

    use cpplookup_server::{Farm, FarmOptions};
    use cpplookup_wal::WalStore;

    let (t, replayed) = time_once(|| -> io::Result<()> {
        let (store, recovered) = WalStore::open(path, 0).map_err(io::Error::other)?;
        let farm = Farm::with_options(FarmOptions {
            wal: Some(Arc::new(store)),
            ..FarmOptions::default()
        });
        farm.replay(&recovered)
            .map_err(|(seq, (_, m))| io::Error::other(format!("replay at seq {seq}: {m}")))?;
        Ok(())
    });
    replayed.map(|()| t.as_nanos() as f64)
}

/// E25's CI gate, four checks deep:
///
/// 1. **Crash recovery** — a scripted log truncated at *every* byte
///    boundary must recover a clean prefix of its records (the
///    reduced, deterministic core of `tests/wal_proptests.rs`).
/// 2. **Leader/follower differential** — a wire follower must converge
///    to the leader's exact sequence number and then answer every
///    probe byte-identically at identical epochs, rejected edits and
///    time-travel reads included.
/// 3. **Lag sanity** — convergence of a small burst must land inside a
///    generous wall-clock bound (30s); a wedged subscription or a
///    follower spinning on a poisoned record fails here, actual
///    latency is E25 proper's business.
/// 4. **Linear replay** — boot replay of a 4097-record log must run at
///    least half the records/s of a 257-record log, best of three
///    rounds each. An in-run ratio, not a floor: a floor recorded on
///    another machine fails on runner noise.
fn e25_smoke(w: &mut dyn Write) -> io::Result<()> {
    use std::sync::Arc;
    use std::time::Instant;

    use cpplookup_server::{
        Client, Farm, FollowSource, Follower, FollowerConfig, Server, ServerConfig,
    };
    use cpplookup_wal::{read_all, recover_bytes, WalStore};

    writeln!(
        w,
        "E25-smoke: crash recovery + leader/follower differential"
    )?;
    let dir = BenchDir::new("e25-smoke")?;
    let chg = families::interface_heavy(12, 3);
    let (snap_path, _) = dir.snapshot("t", &chg)?;
    let class_names = class_names(&chg);

    // 1. Every-byte-boundary crash recovery on a scripted log.
    let wal_path = dir.file("crash.wal");
    {
        let (store, _) = WalStore::open(&wal_path, 1).map_err(io::Error::other)?;
        let farm = Farm::with_options(cpplookup_server::FarmOptions {
            wal: Some(Arc::new(store)),
            ..Default::default()
        });
        farm.load("t", &snap_path)
            .map_err(|(_, m)| io::Error::other(m))?;
        for i in 0..12 {
            let class = &class_names[i % class_names.len()];
            farm.edit("t", &format!("member {class} s{i}"))
                .map_err(|(_, m)| io::Error::other(m))?;
        }
    }
    let records = read_all(&wal_path).map_err(io::Error::other)?;
    let bytes = std::fs::read(&wal_path)?;
    for at in 0..=bytes.len() {
        let recovery = recover_bytes(&bytes[..at]);
        if recovery.records.len() > records.len()
            || recovery.records[..] != records[..recovery.records.len()]
        {
            return Err(io::Error::other(format!(
                "cut at byte {at}: recovery is not a clean record prefix"
            )));
        }
    }
    writeln!(
        w,
        "  crash recovery: {} records, every one of {} byte boundaries recovers a clean prefix",
        records.len(),
        bytes.len() + 1
    )?;

    // 2 + 3. Wire differential with a lag bound.
    let leader = Server::start(ServerConfig {
        preload: vec![("t".to_owned(), snap_path.clone())],
        wal_path: Some(dir.file("leader.wal")),
        retain_epochs: 4,
        ..ServerConfig::default()
    })?;
    let follower_srv = Server::start(ServerConfig {
        read_only: true,
        retain_epochs: 4,
        ..ServerConfig::default()
    })?;
    let follower = Follower::start(
        Arc::clone(follower_srv.farm()),
        FollowerConfig {
            source: FollowSource::Wire(leader.addr().to_string()),
            follower_id: "smoke".to_owned(),
            ack_every: 4,
            ..FollowerConfig::default()
        },
    );
    let mut lc = Client::connect(leader.addr(), Some(Duration::from_secs(10)))?;
    for i in 0..24 {
        let class = &class_names[i % class_names.len()];
        lc.edit("t", &format!("member {class} w{i}"))
            .map_err(wire)?;
    }
    if lc.edit("t", "no such directive").is_ok() {
        return Err(io::Error::other("gibberish edit was accepted"));
    }
    let target = leader.farm().wal().expect("leader has a log").last_seq();
    let t0 = Instant::now();
    if !follower.wait_for_seq(target, Duration::from_secs(30)) {
        return Err(io::Error::other(format!(
            "lag bound: follower stalled at seq {} of {target}",
            follower.applied_seq()
        )));
    }
    let lag = t0.elapsed();

    let mut fc = Client::connect(follower_srv.addr(), Some(Duration::from_secs(10)))?;
    // The oldest epoch still inside the retention window: the
    // time-travel target both sides must agree on.
    let as_of = leader
        .farm()
        .retained_epochs("t")
        .map_err(|(_, m)| io::Error::other(m))?
        .first()
        .copied();
    let mut compared = 0usize;
    for class in &class_names {
        for i in [0usize, 11, 23] {
            let member = format!("w{i}");
            let on_leader = lc.query("t", class, &member).map_err(wire)?;
            let on_follower = fc.query("t", class, &member).map_err(wire)?;
            if on_leader != on_follower {
                return Err(io::Error::other(format!(
                    "differential: `{class}::{member}` is {on_leader:?} on the leader \
                     but {on_follower:?} on the follower"
                )));
            }
            let epoch = as_of.expect("retained window is never empty");
            let then_leader = lc
                .query_at("t", class, &member, Some(epoch))
                .map_err(wire)?;
            let then_follower = fc
                .query_at("t", class, &member, Some(epoch))
                .map_err(wire)?;
            if then_leader != then_follower {
                return Err(io::Error::other(format!(
                    "differential at epoch {epoch}: `{class}::{member}` diverged"
                )));
            }
            compared += 2;
        }
    }
    let leader_epochs = leader
        .farm()
        .retained_epochs("t")
        .map_err(|(_, m)| io::Error::other(m))?;
    let follower_epochs = follower_srv
        .farm()
        .retained_epochs("t")
        .map_err(|(_, m)| io::Error::other(m))?;
    if leader_epochs != follower_epochs {
        return Err(io::Error::other(format!(
            "epoch divergence: leader retains {leader_epochs:?}, follower {follower_epochs:?}"
        )));
    }
    follower.stop();
    writeln!(
        w,
        "  differential: {compared} probes byte-identical (current + epoch {}), \
         epochs {:?} on both sides, burst converged in {}",
        as_of.unwrap(),
        leader_epochs,
        fmt_duration(lag)
    )?;

    // 4. Replay rate stays within 2x from the shortest to the longest log.
    let mut rates = Vec::new();
    for edits in [256, 4096] {
        let path = dir.file(&format!("replay{edits}.wal"));
        write_member_log(&path, &snap_path, &class_names, edits)?;
        let records = log_records(&path)?;
        let spread = interleave(3, 1, |_| replay(&path))?.spread(0);
        let rate = records as f64 / (spread.min * 1e-9).max(1e-9);
        writeln!(
            w,
            "  replay: {records} records in {} (best of 3), {rate:.0} records/s",
            fmt_ns(spread.min)
        )?;
        rates.push(rate);
    }
    if rates[1] < 0.5 * rates[0] {
        return Err(io::Error::other(format!(
            "replay is superlinear: {:.0} records/s at the longest log, \
             under half the {:.0}/s at the shortest",
            rates[1], rates[0]
        )));
    }
    writeln!(w, "  guard: PASS")?;
    Ok(())
}

/// The packed `(class, member)` probe keys `c | m << 32` of `index`:
/// the key set its directory hashes.
fn packed_keys(index: &DispatchIndex) -> Vec<u64> {
    (0..index.class_count())
        .flat_map(|ci| {
            index
                .members_of(cpplookup_chg::ClassId::from_index(ci))
                .map(move |m| ci as u64 | (m.index() as u64) << 32)
        })
        .collect()
}

/// Probes per `lookup_batch_into` call on the batch serve path.
const CHUNK: usize = 256;

/// One timed single-threaded sweep of the batch serve path:
/// `lookup_batch_into` over [`CHUNK`]-probe chunks into a reused
/// buffer, `reps` passes over `probes`. Returns (ns per lookup,
/// checksum).
fn batch_sweep_ns(index: &DispatchIndex, probes: &[Probe], reps: usize) -> (f64, u64) {
    let (t, sum) = time_once(|| {
        let mut out = Vec::new();
        let mut sum = 0u64;
        for _ in 0..reps {
            for chunk in probes.chunks(CHUNK) {
                index.lookup_batch_into(chunk, &mut out);
                for o in &out {
                    sum = sum.wrapping_add(outcome_ref_word(o));
                }
            }
        }
        sum
    });
    (t.as_secs_f64() * 1e9 / (reps * probes.len()) as f64, sum)
}

/// E26 — the minimal perfect hash probe directory and the SWAR batch
/// path over it.
///
/// Three measurements per family, on shuffled live-pair probe streams
/// with checksums verified against `lookup_ref` in every round, the
/// contenders [interleaved](interleave) over [`SERVE_ROUNDS`] rounds:
///
/// 1. **Directory probe** — single-thread ns/lookup through
///    `lookup_ref`: one displacement read plus exactly one
///    data-dependent cell line.
/// 2. **Batch against owned** (the headline) — the BATCH serve path
///    (`lookup_batch_into` over 256-probe chunks, reused buffer)
///    against a per-probe *owned* `lookup` loop on the same index (one
///    owned outcome, witness `Vec` clones and per-call obs hooks
///    included, per probe); the median per-round ratio.
/// 3. **Thread scaling** — aggregate lookup throughput from 1 to 32
///    threads on the largest family; the shared directory is
///    read-only, so scaling should track cores until memory bandwidth
///    (on a single-core host the curve is honestly flat).
///
/// It also prints each family's hash build time (`MphFunction::build`
/// over the index's packed keys, median of 3) and whether it built at
/// seed 0; both are recorded, not gated.
///
/// Emits `BENCH_e26.json` (with host context) for the CI gate
/// (`e26-smoke`).
fn e26(w: &mut dyn Write) -> io::Result<()> {
    const THREAD_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];
    writeln!(
        w,
        "E26: minimal perfect hash directory + SWAR batch serve path"
    )?;
    writeln!(
        w,
        "  mph = lookup_ref through the CHD displacement directory; owned = \
         per-probe owned lookup loop on the same index; batch = \
         lookup_batch_into over {CHUNK}-probe chunks with a reused buffer \
         (the serve path); medians of {SERVE_ROUNDS} interleaved rounds"
    )?;
    let families = large_families();
    writeln!(w, "  single thread, ns/lookup:")?;
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "family", "classes", "entries", "mph", "owned", "batch", "batch gain", "iqr"
    )?;
    let mut family_rows: Vec<String> = Vec::new();
    let mut batch_ratios: Vec<f64> = Vec::new();
    let mut build_rows: Vec<String> = Vec::new();
    for (name, chg) in &families {
        let table = LookupTable::build(chg);
        let mph = DispatchIndex::from_table(LookupTable::build(chg));
        let keys = packed_keys(&mph);
        let (t_build, hash) = median_time(3, || MphFunction::build(&keys));
        let build_ms = t_build.as_secs_f64() * 1e3;
        build_rows.push(format!(
            "    {name:<16} {:>8} keys {build_ms:>8.1} ms  seed {}",
            keys.len(),
            if hash.seed() == 0 { "0" } else { "retried" }
        ));
        let probes = serve_probes(chg, &table, 0xE26 ^ name.len() as u64);
        let reps = (2_000_000 / probes.len()).max(1);

        let mut sum = None;
        let single = interleave(SERVE_ROUNDS, 3, |k| {
            let (ns, s) = match k {
                0 => sweep_ns(&probes, reps, |(c, m)| {
                    outcome_ref_word(&mph.lookup_ref(c, m))
                }),
                1 => sweep_ns(&probes, reps, |(c, m)| outcome_word(&mph.lookup(c, m))),
                _ => batch_sweep_ns(&mph, &probes, reps),
            };
            same_sum(&mut sum, s, name)?;
            Ok(ns)
        })?;
        let (batch_ratio, batch_iqr) = single.ratio(1, 2);
        // The acceptance geomean is over the ≥2000-class families;
        // smaller ones are printed for shape but not averaged in.
        if chg.class_count() >= 2000 {
            batch_ratios.push(batch_ratio);
        }
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>8.2}x {:>6.2}",
            name,
            chg.class_count(),
            mph.entry_count(),
            single.spread(0).median,
            single.spread(1).median,
            single.spread(2).median,
            batch_ratio,
            batch_iqr,
        )?;
        family_rows.push(format!(
            "{{\"name\": \"{name}\", \"classes\": {}, \"entries\": {}, \
             \"single_ns\": {{\"mph\": {}, \"owned\": {}, \"batch\": {}}}, \
             \"batch_vs_owned\": {batch_ratio:.3}, \"hash_build_ms\": {build_ms:.1}, \
             \"hash_seed\": {}}}",
            chg.class_count(),
            mph.entry_count(),
            single.spread(0).json(""),
            single.spread(1).json(""),
            single.spread(2).json(""),
            hash.seed(),
        ));
    }
    writeln!(
        w,
        "  hash build (MphFunction::build over the packed keys, median of 3):"
    )?;
    for row in &build_rows {
        writeln!(w, "{row}")?;
    }
    // Thread scaling on the largest family, the thread counts
    // interleaved.
    let (scale_name, scale_chg) = families.last().expect("families nonempty");
    let table = LookupTable::build(scale_chg);
    let mph = DispatchIndex::from_table(LookupTable::build(scale_chg));
    let probes = serve_probes(scale_chg, &table, 0xE26);
    let mt_reps = (500_000 / probes.len()).max(1);
    writeln!(
        w,
        "  thread scaling ({scale_name}, mph directory), aggregate Mlookups/s:"
    )?;
    let scaling = interleave(SERVE_ROUNDS, THREAD_SWEEP.len(), |k| {
        let (qps, _) = serve_mt(THREAD_SWEEP[k], &probes, mt_reps, |(c, m)| {
            outcome_ref_word(&mph.lookup_ref(c, m))
        });
        Ok(qps)
    })?;
    let base_qps = scaling.spread(0).median;
    let mut scale_rows: Vec<String> = Vec::new();
    for (k, threads) in THREAD_SWEEP.into_iter().enumerate() {
        let qps = scaling.spread(k);
        writeln!(
            w,
            "    {threads:>2} threads: {:>8.2} M/s ({:.2}x over 1 thread)",
            qps.median / 1e6,
            qps.median / base_qps
        )?;
        scale_rows.push(format!(
            "{{\"threads\": {threads}, \"qps\": {}, \"speedup\": {:.3}}}",
            qps.json(""),
            qps.median / base_qps
        ));
    }
    let g_batch = geomean(&batch_ratios);
    writeln!(
        w,
        "  target >=2x batch vs per-probe owned loop, same index (geomean): {} ({g_batch:.2}x)",
        if g_batch >= 2.0 { "PASS" } else { "FAIL" }
    )?;
    write_bench(
        w,
        "e26",
        *THREAD_SWEEP.last().expect("sweep nonempty"),
        SERVE_ROUNDS,
        &[
            ("families", json_rows(&family_rows)),
            (
                "scaling",
                format!(
                    "{{\"family\": \"{scale_name}\", \"points\": {}}}",
                    json_rows(&scale_rows)
                ),
            ),
            ("geomean_batch_vs_owned", format!("{g_batch:.3}")),
        ],
    )
}

/// E26's CI gate, in four stages, the first three mirroring `e22-smoke`:
///
/// 1. **Directory differential** — every live pair *and* a dead-key
///    margin beyond the id ranges on an interface-heavy family, single
///    and batch paths, against the Definition 9 [`LookupTable`]. A
///    wrong displacement, a weak slot remix, or a missing key-compare
///    all surface here.
/// 2. **Perf floor** — ≥1.2× single-thread serve path on
///    `grid_50x50`: the batched path (`lookup_batch_into`, reused
///    buffer) against the per-probe owned `lookup` loop on the same
///    index, medians of three interleaved rounds.
/// 3. **No-regression** — when a committed `BENCH_e26.json` exists,
///    the measured ratio must stay above 0.4× the recorded
///    `grid_50x50` `batch_vs_owned` ratio.
/// 4. **Seed-0 hash** — the two tenants of the `batch_cold` benchmark
///    workload (`RandomConfig::realistic(4000, 1)` and `(4000, 2)`,
///    ~300k keys each) must hash at seed 0: a retry means the build
///    failed a whole seed, which the solved single-key buckets leave
///    only to two keys of one bucket sharing their high hash bits. The
///    build time is printed, not gated.
fn e26_smoke(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E26-smoke: mph/table differential + batch perf floor")?;
    let diff = families::interface_heavy(200, 4);
    let table = LookupTable::build(&diff);
    let mph = DispatchIndex::from_table(LookupTable::build(&diff));
    let probes = margin_differential(
        &mph,
        &table,
        diff.class_count(),
        diff.member_name_count(),
        4,
    )?;
    writeln!(
        w,
        "  differential: {probes} probes ({} live entries + dead margin), \
         mph == table, batch == single",
        mph.entry_count()
    )?;
    let chg = families::grid(50, 50);
    let table = LookupTable::build(&chg);
    let mph = DispatchIndex::from_table(LookupTable::build(&chg));
    let probes = serve_probes(&chg, &table, 0xE26);
    let reps = (1_000_000 / probes.len()).max(1);
    // One owned outcome (witness Vec clones and obs hooks included)
    // per probe, against the serve path: batched allocation-free
    // lookups into a reused output buffer.
    let mut sum = None;
    let rounds = interleave(3, 2, |k| {
        let (ns, s) = match k {
            0 => sweep_ns(&probes, reps, |(c, m)| outcome_word(&mph.lookup(c, m))),
            _ => batch_sweep_ns(&mph, &probes, reps),
        };
        same_sum(&mut sum, s, "grid_50x50 owned loop vs batch path")?;
        Ok(ns)
    })?;
    let (ns_owned, ns_batch) = (rounds.spread(0).median, rounds.spread(1).median);
    let ratio = ns_owned / ns_batch.max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  perf (grid_50x50): owned loop {ns_owned:.1} ns/probe, batch \
         {ns_batch:.1} ns/probe (batch speedup {ratio:.2}x)"
    )?;
    BaselineGate {
        file: "BENCH_e26.json",
        path: &["families", "name=grid_50x50", "batch_vs_owned"],
        floor: 1.2,
        share: 0.4,
    }
    .check(w, ratio)
    .map_err(|e| io::Error::other(format!("batch speedup on the serve sweep: {e}")))?;
    for tenant in [1, 2] {
        let chg = random_hierarchy(&RandomConfig::realistic(4000, tenant));
        let keys = packed_keys(&DispatchIndex::from_table(LookupTable::build(&chg)));
        let (t_build, hash) = median_time(3, || MphFunction::build(&keys));
        writeln!(
            w,
            "  hash (realistic_4000 seed {tenant}): {} keys, built in {:.1} ms at seed {:#x}",
            keys.len(),
            t_build.as_secs_f64() * 1e3,
            hash.seed()
        )?;
        if hash.seed() != 0 {
            return Err(io::Error::other(format!(
                "realistic_4000 seed {tenant}: the hash needed a retry (seed {:#x}, not 0)",
                hash.seed()
            )));
        }
    }
    writeln!(w, "  seed-0 hash: PASS")?;
    Ok(())
}

/// The soft fd limit of this process, from `/proc/self/limits`
/// (`None` off Linux): the idle-connection stage sizes itself to it,
/// since client and server ends share the process on a loopback bench.
fn fd_soft_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Plays one deterministic wire session — HELLO, point QUERYs, a wide
/// BATCH, an EDIT, a post-edit QUERY, an AS_OF read back at the
/// pre-edit epoch, STATS — at a threads-model and an epoll-model server
/// over the same preloaded tenant, and demands byte-identical response
/// streams; traced QUERY/BATCH are then compared structurally through
/// clients (durations are measurements, never byte-stable). Returns
/// the pinned frame count.
fn e27_wire_differential(
    threads_addr: &str,
    epoll_addr: &str,
    probes: &[(String, String)],
) -> io::Result<usize> {
    use std::io::Write as _;
    use std::net::{Shutdown, TcpStream};

    use cpplookup_server::protocol::{
        read_frame, write_frame, FrameError, Request, PROTOCOL_VERSION,
    };
    use cpplookup_server::Client;

    let tenant = "t0".to_owned();
    let mut session: Vec<Request> = vec![Request::Hello {
        version: PROTOCOL_VERSION,
    }];
    for (class, member) in probes.iter().take(64) {
        session.push(Request::Query {
            tenant: tenant.clone(),
            class: class.clone(),
            member: member.clone(),
            trace: false,
            as_of: None,
        });
    }
    session.push(Request::Batch {
        tenant: tenant.clone(),
        probes: probes.iter().take(1024).cloned().collect(),
        trace: false,
        as_of: None,
    });
    let (class0, member0) = &probes[0];
    session.push(Request::Edit {
        tenant: tenant.clone(),
        directive: format!("member {class0} zz_e27_probe"),
    });
    session.push(Request::Query {
        tenant: tenant.clone(),
        class: class0.clone(),
        member: "zz_e27_probe".to_owned(),
        trace: false,
        as_of: None,
    });
    session.push(Request::Query {
        tenant: tenant.clone(),
        class: class0.clone(),
        member: "zz_e27_probe".to_owned(),
        trace: false,
        as_of: Some(1), // pre-edit epoch: the member is not there yet
    });
    session.push(Request::Stats {
        tenant: tenant.clone(),
    });

    let play = |addr: &str| -> io::Result<Vec<Vec<u8>>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut wire = Vec::new();
        for req in &session {
            write_frame(&mut wire, &req.encode())?;
        }
        stream.write_all(&wire)?;
        stream.shutdown(Shutdown::Write)?;
        let mut responses = Vec::new();
        loop {
            match read_frame(&mut stream) {
                Ok(body) => responses.push(body),
                Err(FrameError::Eof) => break,
                Err(e) => return Err(io::Error::other(format!("differential read: {e}"))),
            }
        }
        Ok(responses)
    };
    let want = play(threads_addr)?;
    let got = play(epoll_addr)?;
    if want.len() != session.len() {
        return Err(io::Error::other(format!(
            "threads model answered {} of {} frames",
            want.len(),
            session.len()
        )));
    }
    if got != want {
        let at = got
            .iter()
            .zip(&want)
            .position(|(g, t)| g != t)
            .unwrap_or(want.len().min(got.len()));
        return Err(io::Error::other(format!(
            "epoll responses diverge from threads at frame {at} of {}",
            session.len()
        )));
    }

    // Traced responses: compare outcome and span-tree structure.
    let mut ct = Client::connect(threads_addr, Some(Duration::from_secs(10)))?;
    let mut ce = Client::connect(epoll_addr, Some(Duration::from_secs(10)))?;
    let (to, ts) = ct.query_traced("t0", class0, member0).map_err(wire)?;
    let (eo, es) = ce.query_traced("t0", class0, member0).map_err(wire)?;
    if to != eo || span_shape(&ts) != span_shape(&es) {
        return Err(io::Error::other("traced QUERY diverges between models"));
    }
    let pair = vec![probes[0].clone(), probes[probes.len() - 1].clone()];
    let (to, ts) = ct.batch_traced("t0", &pair).map_err(wire)?;
    let (eo, es) = ce.batch_traced("t0", &pair).map_err(wire)?;
    if to != eo || span_shape(&ts) != span_shape(&es) {
        return Err(io::Error::other("traced BATCH diverges between models"));
    }
    Ok(session.len() + 2)
}

/// E27 — the epoll reactor vs thread-per-connection, head to head:
///
/// 1. **Differential** — one deterministic wire session (QUERY, wide
///    BATCH, EDIT, AS_OF, STATS, traced) played at both models over
///    the same preloaded tenant must answer byte-identically before
///    any number is reported.
/// 2. **Connection ramp** — closed-loop load at 1/8/64/256/1024
///    connections per model, with per-level QPS/p50/p99 and the
///    process's peak open-fd/RSS footprint sampled while each level
///    runs.
/// 3. **Idle footprint** — as many idle connections as the fd limit
///    allows (10k target; client and server ends share the process)
///    parked against each model, RSS delta measured. This is the
///    north-star number: a parked thread costs a stack, a parked
///    reactor connection costs a slab entry.
///
/// Emits `BENCH_e27.json` for the CI gate (`e27-smoke`).
fn e27(w: &mut dyn Write) -> io::Result<()> {
    use std::net::TcpStream;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};

    const LEVELS: [usize; 5] = [1, 8, 64, 256, 1024];

    writeln!(w, "E27: epoll reactor vs thread-per-connection I/O")?;
    let dir = BenchDir::new("e27")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let (snap_path, table) = dir.snapshot("main", &chg)?;
    let probes = live_probes(&table);

    let [(_threads, threads_addr), (_epoll, epoll_addr)] = start_both_models(&snap_path, 16_000)?;

    // Stage 1: the differential gates everything downstream.
    let frames = e27_wire_differential(&threads_addr, &epoll_addr, &probes)?;
    writeln!(
        w,
        "  differential: {frames} frames byte-identical across models \
         (QUERY/BATCH/EDIT/AS_OF/STATS + traced structural)"
    )?;

    // Stage 2: the connection ramp, one model at a time.
    let targets = [TenantTarget {
        name: "t0".to_owned(),
        probes: probes.clone(),
    }];
    let config = |addr: &str| LoadConfig {
        addr: addr.to_owned(),
        duration: Duration::from_millis(1200),
        ..LoadConfig::default()
    };
    let idle_target = 10_000.min(fd_soft_limit().unwrap_or(2048).saturating_sub(1500) / 2);
    let mut model_json = Vec::new();
    let mut qps1 = Vec::new();
    let mut ramp_rss_1024 = Vec::new();
    let mut idle_rss = Vec::new();
    for (label, addr) in [("threads", &threads_addr), ("epoll", &epoll_addr)] {
        writeln!(w, "  {label}: closed loop, 1 probe/request, warm tenant:")?;
        writeln!(
            w,
            "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "connections", "qps", "p50 us", "p99 us", "peak fds", "peak rss"
        )?;
        let rss_before = loadgen::rss_bytes().unwrap_or(0);
        let levels = loadgen::run_ramp(&config(addr), &targets, &LEVELS)?;
        let mut level_json = Vec::new();
        for level in &levels {
            let fds = level.open_fds.unwrap_or(0);
            let rss_mb = level.rss_bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0);
            writeln!(
                w,
                "  {:<12} {:>10.0} {:>10.1} {:>10.1} {:>10} {:>8.1}M",
                level.connections,
                level.report.qps(),
                level.report.p50_us(),
                level.report.p99_us(),
                fds,
                rss_mb,
            )?;
            level_json.push(format!(
                "      {{\"connections\": {}, \"qps\": {:.0}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"errors\": {}, \"peak_fds\": {fds}, \
                 \"peak_rss_bytes\": {}}}",
                level.connections,
                level.report.qps(),
                level.report.p50_us(),
                level.report.p99_us(),
                level.report.errors,
                level.rss_bytes.unwrap_or(0),
            ));
        }
        qps1.push(levels[0].report.qps());
        let peak_1024 = levels.last().and_then(|l| l.rss_bytes).unwrap_or(0);
        ramp_rss_1024.push(peak_1024.saturating_sub(rss_before));

        // Stage 3: park idle connections and weigh them.
        std::thread::sleep(Duration::from_millis(500)); // let prior level drain
        let before = loadgen::rss_bytes().unwrap_or(0);
        let mut parked = Vec::with_capacity(idle_target);
        for _ in 0..idle_target {
            parked.push(TcpStream::connect(addr.as_str())?);
        }
        // Give the server time to adopt every connection (the threaded
        // model spawns a thread apiece).
        std::thread::sleep(Duration::from_millis(1500));
        let after = loadgen::rss_bytes().unwrap_or(0);
        let delta = after.saturating_sub(before);
        drop(parked);
        std::thread::sleep(Duration::from_millis(1000)); // let the server reap
        idle_rss.push(delta);
        writeln!(
            w,
            "  {label}: {idle_target} idle connections -> +{:.1} MB RSS",
            delta as f64 / (1024.0 * 1024.0)
        )?;
        model_json.push(format!(
            "    \"{label}\": {{\n    \"levels\": [\n{}\n    ],\n    \
             \"ramp_rss_delta_1024_bytes\": {}, \"idle_rss_delta_bytes\": {delta}}}",
            level_json.join(",\n"),
            ramp_rss_1024.last().unwrap(),
        ));
    }

    // Acceptance checks, reported (the smoke gate enforces its own).
    let qps_ratio = qps1[1] / qps1[0].max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  target epoll within 10% of threads QPS at 1 connection: {} ({qps_ratio:.2}x)",
        if qps_ratio >= 0.9 { "PASS" } else { "FAIL" }
    )?;
    writeln!(
        w,
        "  target epoll RSS < threads RSS over the 1024-connection ramp: {} ({:.1}M vs {:.1}M)",
        if ramp_rss_1024[1] < ramp_rss_1024[0] {
            "PASS"
        } else {
            "FAIL"
        },
        ramp_rss_1024[1] as f64 / (1024.0 * 1024.0),
        ramp_rss_1024[0] as f64 / (1024.0 * 1024.0),
    )?;
    writeln!(
        w,
        "  target epoll RSS < threads RSS at {idle_target} idle connections: {} ({:.1}M vs {:.1}M)",
        if idle_rss[1] < idle_rss[0] {
            "PASS"
        } else {
            "FAIL"
        },
        idle_rss[1] as f64 / (1024.0 * 1024.0),
        idle_rss[0] as f64 / (1024.0 * 1024.0),
    )?;

    write_bench(
        w,
        "e27",
        *LEVELS.last().expect("levels nonempty"),
        1,
        &[
            ("differential_frames", frames.to_string()),
            ("idle_connections", idle_target.to_string()),
            ("models", format!("{{\n{}\n  }}", model_json.join(",\n"))),
            ("epoll_vs_threads_qps_1conn", format!("{qps_ratio:.3}")),
        ],
    )
}

/// E27's CI guard: the full epoll-vs-threads wire differential, a
/// connection-scaling floor on the reactor (64-connection closed-loop
/// QPS must not fall below 1-connection QPS), and — when a committed
/// `BENCH_e27.json` exists — a no-regression floor at 0.05x the
/// recorded epoll 1-connection QPS.
fn e27_smoke(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_server::cli::live_probes;

    writeln!(w, "E27-smoke: epoll/threads differential + scaling floor")?;
    let dir = BenchDir::new("e27-smoke")?;
    let chg = families::interface_heavy(100, 4);
    let (snap_path, table) = dir.snapshot("smoke", &chg)?;
    let probes = live_probes(&table);

    let [(_threads, threads_addr), (_epoll, epoll_addr)] = start_both_models(&snap_path, 256)?;

    let frames = e27_wire_differential(&threads_addr, &epoll_addr, &probes)?;
    writeln!(w, "  differential: {frames} frames byte-identical")?;

    let qps_1 = closed_loop(&epoll_addr, &probes, 1, 700)?.qps();
    let qps_64 = closed_loop(&epoll_addr, &probes, 64, 700)?.qps();
    writeln!(
        w,
        "  reactor closed loop: {qps_1:.0} qps at 1 connection, {qps_64:.0} at 64"
    )?;
    // On a single core, 64 closed-loop clients cost a few percent of
    // scheduler overhead versus one; the gate exists to catch the
    // reactor *collapsing* under concurrency (head-of-line blocking, a
    // starved ready queue), not to demand linear scaling.
    if qps_64 < qps_1 * 0.8 {
        return Err(io::Error::other(format!(
            "connection-scaling floor: 64-connection QPS {qps_64:.0} fell below \
             0.8x the 1-connection QPS {qps_1:.0}"
        )));
    }

    BaselineGate {
        file: "BENCH_e27.json",
        path: &["models", "epoll", "levels", "connections=1", "qps"],
        floor: 1000.0,
        share: 0.05,
    }
    .check(w, qps_1)
    .map_err(|e| io::Error::other(format!("smoke QPS at 1 connection: {e}")))?;
    writeln!(w, "  guard: PASS")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment runs to completion and produces output. The
    /// timing-heavy ones still finish quickly in test builds because the
    /// workloads are bounded.
    #[test]
    fn cheap_experiments_produce_output() {
        for id in ["e1", "e2", "e3", "e4", "e5", "e7", "e13", "e14", "e15"] {
            let mut out = Vec::new();
            run(id, &mut out).unwrap();
            assert!(!out.is_empty(), "{id} produced no output");
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(&id.to_uppercase()), "{id} header missing");
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut out = Vec::new();
        assert!(run("e99", &mut out).is_err());
    }

    #[test]
    fn all_ids_are_dispatchable() {
        // Don't run the heavy ones here; just verify dispatch exists by
        // name for every id in ALL (compile-time exhaustiveness is
        // enforced by the match).
        assert_eq!(ALL.len(), 26);
        assert!(!ALL.contains(&"e19"), "E19 is retired");
        assert!(ALL.iter().all(|id| id.starts_with('e')));
    }
}
