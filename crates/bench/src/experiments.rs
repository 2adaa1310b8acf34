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
    IndexedEngine, LazyLookup, LookupOptions, LookupOutcome, LookupTable, StaticRule,
};
use cpplookup_frontend::{analyze, parser};
use cpplookup_hiergen::families;
use cpplookup_hiergen::{edit_script, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup_subobject::stats::count_subobjects;
use cpplookup_subobject::{
    defns, isomorphism, lookup as oracle_lookup, Resolution, SubobjectGraph,
};

use crate::timing::{fmt_duration, median_time, time_once, Spread};
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

/// E11 — whole-table construction: eager vs lazy-everything vs parallel.
fn e11(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "E11: whole-table construction")?;
    writeln!(
        w,
        "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "workload", "entries", "eager", "lazy-all", "par(4)", "ambiguous%"
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
        let (par, _) = median_time(3, || {
            LookupTable::build_parallel(chg, LookupOptions::default(), 4)
        });
        let stats = table.stats();
        writeln!(
            w,
            "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>11.1}%",
            name,
            stats.entries,
            fmt_duration(eager),
            fmt_duration(lazy_all),
            fmt_duration(par),
            100.0 * stats.blue as f64 / stats.entries.max(1) as f64
        )?;
    }
    writeln!(
        w,
        "  shape: all polynomial; parallel wins on wide member pools"
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

/// E20: snapshot cold load vs building the table from the hierarchy.
///
/// The "compile once, serve many" pitch of `cpplookup-snapshot` is that
/// a server process should reach its first answered query by validating
/// pre-compiled bytes, not by re-running the closure computation. This
/// experiment measures time-to-first-query three ways across ascending
/// hierarchy families — eager build, parallel build (4 threads), and
/// snapshot load (checksum + structural validation of the byte image,
/// including the `memcpy` of the input buffer) — plus resident-set
/// growth while each result is held live.
///
/// The acceptance target is a >=10x load-vs-build advantage on the
/// largest family.
fn e20(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

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
         checksum + structural validation"
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
        "  {:<16} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10}",
        "family",
        "classes",
        "entries",
        "snapshot",
        "build",
        "par(4)",
        "load",
        "speedup",
        "rss build",
        "rss load"
    )?;

    let mut largest_speedup = 0.0f64;
    for (name, chg) in &families {
        let c0 = chg.classes().next().expect("non-empty hierarchy");
        let m0 = chg.member_ids().next().expect("hierarchy declares members");

        let rss_before_build = vm_rss_kb();
        let (t_build, table) = median_time(5, || {
            let t = LookupTable::build(chg);
            let _ = t.lookup(c0, m0);
            t
        });
        let rss_build = vm_rss_kb().zip(rss_before_build).map(|(a, b)| a - b);
        drop(table);
        let (t_par, par_table) = median_time(5, || {
            LookupTable::build_parallel(chg, LookupOptions::default(), 4)
        });
        drop(par_table);

        let bytes = Snapshot::compile(chg).into_bytes();
        let snap_len = bytes.len();
        let rss_before_load = vm_rss_kb();
        let (t_load, loaded) = median_time(5, || {
            let t = SnapshotTable::from_bytes(bytes.clone()).expect("writer output validates");
            let _ = t.lookup(c0, m0);
            t
        });
        let rss_load = vm_rss_kb().zip(rss_before_load).map(|(a, b)| a - b);

        let speedup = t_build.as_secs_f64() / t_load.as_secs_f64().max(f64::MIN_POSITIVE);
        largest_speedup = speedup; // families are ascending; last row is largest
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8.1}x {:>10} {:>10}",
            name,
            loaded.class_count(),
            loaded.entry_count(),
            fmt_kb(snap_len),
            fmt_duration(t_build),
            fmt_duration(t_par),
            fmt_duration(t_load),
            speedup,
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

/// Rounds per family in E21: every round times all three builders.
const E21_ROUNDS: usize = 7;

/// The median of `values` and the spread of its middle half (the
/// interquartile range, linearly interpolated) as a share of it.
fn median_and_iqr_share(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (values.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (x - lo as f64)
    };
    let median = at(0.5);
    (median, (at(0.75) - at(0.25)) / median)
}

/// E21 — the batched single-sweep compiler (CSR + member-frontier
/// pruning + arena-interned abstractions) against the per-member
/// reference build it replaced, plus the work-stealing parallel sweep
/// on top. Every family here is ≥2000 classes; the headline number is
/// the geometric-mean single-thread speedup (target ≥3×). The builders
/// are asserted entry-identical before any timing is reported.
///
/// The three builders run interleaved, [`E21_ROUNDS`] rounds per
/// family, each round in a rotated order, so host drift during a
/// family falls on all of them alike. A speedup is the median of the
/// per-round ratios, printed with the interquartile range of those
/// ratios as a share of it.
fn e21(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "E21: batched single-sweep compiler vs the old per-member build"
    )?;
    let jobs = std::thread::available_parallelism().map_or(4, usize::from);
    writeln!(
        w,
        "  old = one full topological sweep over all classes per member \
         (Theta(|N|*|M|) steps); batched = one sweep per member *frontier*, \
         shared CSR, interned abstractions; parallel = work-stealing over \
         member columns ({jobs} jobs); medians of {E21_ROUNDS} interleaved rounds, \
         each speedup with its IQR/median"
    )?;
    let families: Vec<(&str, Chg)> = vec![
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
    ];
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>11} {:>11} {:>8} {:>6} {:>11} {:>8} {:>6}",
        "family",
        "classes",
        "entries",
        "old",
        "batched",
        "speedup",
        "iqr",
        "parallel",
        "speedup",
        "iqr"
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
        drop(old);
        let parallel = LookupTable::build_parallel(chg, options, jobs);
        assert_eq!(
            batched.stats(),
            parallel.stats(),
            "{name}: parallel diverged"
        );
        let entries = batched.stats().entries;
        drop((batched, parallel));
        // times[builder][round]: old, batched, parallel.
        let mut times = [const { Vec::new() }; 3];
        for round in 0..E21_ROUNDS {
            for k in 0..3 {
                let builder = (round + k) % 3;
                let (t, table) = time_once(|| match builder {
                    0 => retired::build_per_member(chg, options),
                    1 => LookupTable::build(chg),
                    _ => LookupTable::build_parallel(chg, options, jobs),
                });
                drop(table);
                times[builder].push(t.as_secs_f64());
            }
        }
        let per_round = |k: usize| -> Vec<f64> {
            times[0]
                .iter()
                .zip(&times[k])
                .map(|(old, new)| old / new.max(f64::MIN_POSITIVE))
                .collect()
        };
        let (speedup, iqr) = median_and_iqr_share(per_round(1));
        let (par_speedup, par_iqr) = median_and_iqr_share(per_round(2));
        let median =
            |k: usize| std::time::Duration::from_secs_f64(median_and_iqr_share(times[k].clone()).0);
        ratios.push(speedup);
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>11} {:>11} {:>7.2}x {:>6.2} {:>11} {:>7.2}x {:>6.2}",
            name,
            chg.class_count(),
            entries,
            fmt_duration(median(0)),
            fmt_duration(median(1)),
            speedup,
            iqr,
            fmt_duration(median(2)),
            par_speedup,
            par_iqr,
        )?;
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
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
/// interleaved, [`E21_COMPILE_ROUNDS`] rounds in alternating order;
/// the speedup is the median per-round ratio.
fn e21_compile_guard(w: &mut dyn Write, chg: &Chg) -> io::Result<()> {
    use cpplookup_core::DispatchIndex;
    use cpplookup_snapshot::Snapshot;
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
    let (mut t_table, mut t_compile) = (Vec::new(), Vec::new());
    for round in 0..E21_COMPILE_ROUNDS {
        for k in 0..2 {
            if (round + k) % 2 == 0 {
                t_table.push(time_once(table_path).0.as_secs_f64());
            } else {
                t_compile.push(time_once(|| Snapshot::compile(chg)).0.as_secs_f64());
            }
        }
    }
    let ratios = t_table
        .iter()
        .zip(&t_compile)
        .map(|(table, compile)| table / compile.max(f64::MIN_POSITIVE))
        .collect();
    let (speedup, iqr) = median_and_iqr_share(ratios);
    let median = |t: Vec<f64>| std::time::Duration::from_secs_f64(median_and_iqr_share(t).0);
    writeln!(
        w,
        "  compile: table path {} one-pass {} (speedup {speedup:.2}x, iqr {iqr:.2}), \
         bytes identical",
        fmt_duration(median(t_table)),
        fmt_duration(median(t_compile)),
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

/// Times `reps` single-threaded passes over `probes` through `f`,
/// returning (ns per lookup, checksum): the median of three sweeps.
fn serve_single(probes: &[Probe], reps: usize, f: impl Fn(Probe) -> u64) -> (f64, u64) {
    let (t, sum) = median_time(3, || sweep(probes, reps, &f));
    (ns_per_lookup(t, reps * probes.len()), sum)
}

/// One sweep: `reps` passes over `probes` through `f`, checksummed.
fn sweep(probes: &[Probe], reps: usize, f: &impl Fn(Probe) -> u64) -> u64 {
    let mut sum = 0u64;
    for _ in 0..reps {
        for &p in probes {
            sum = sum.wrapping_add(f(p));
        }
    }
    sum
}

fn ns_per_lookup(t: std::time::Duration, lookups: usize) -> f64 {
    t.as_secs_f64() * 1e9 / lookups as f64
}

/// Runs `threads` workers, each making `reps` rotated passes over
/// `probes` through `f` (each worker starts at a different offset so
/// the backends see spread-out access, not lockstep). Returns
/// (aggregate lookups per second, checksum).
fn serve_mt(
    threads: usize,
    probes: &[Probe],
    reps: usize,
    f: impl Fn(Probe) -> u64 + Sync,
) -> (f64, u64) {
    let (t, sum) = median_time(3, || {
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

/// E22 — the flat dispatch index against the hashmap-of-hashmaps
/// `LookupTable`. Single-thread ns/lookup and 8-thread aggregate QPS on
/// ≥2000-class families, shuffled live-pair probe streams,
/// checksum-verified across backends before any number is reported.
/// Also emits `BENCH_e22.json` for the CI no-regression guard
/// (`e22-smoke`). A loaded snapshot has no read path of its own since
/// format version 3: it serves through this same index.
fn e22(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_core::DispatchIndex;

    const THREADS: usize = 8;
    writeln!(w, "E22: flat dispatch index vs hashmap table")?;
    writeln!(
        w,
        "  table = FxHashMap-of-FxHashMap entry clone; index = pre-decoded \
         byte columns served via allocation-free lookup_ref through the minimal \
         perfect hash directory"
    )?;
    let families: Vec<(&str, Chg)> = vec![
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
    ];
    writeln!(w, "  single thread, ns/lookup:")?;
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "family", "classes", "entries", "b/entry", "table", "index", "vs table"
    )?;
    let mut rows: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let mut single_ratios: Vec<f64> = Vec::new();
    let mut qps_ratios: Vec<f64> = Vec::new();
    for (name, chg) in &families {
        let table = LookupTable::build(chg);
        let index = DispatchIndex::from_table(LookupTable::build(chg));
        let probes = serve_probes(chg, &table, 0x9E37 ^ name.len() as u64);
        let reps = (2_000_000 / probes.len()).max(1);
        let mt_reps = (1_000_000 / probes.len()).max(1);

        let (ns_table, s_table) =
            serve_single(&probes, reps, |(c, m)| outcome_word(&table.lookup(c, m)));
        let (ns_index, s_index) = serve_single(&probes, reps, |(c, m)| {
            outcome_ref_word(&index.lookup_ref(c, m))
        });
        assert_eq!(s_table, s_index, "{name}: index serve checksum diverged");

        let (qps_table, m_table) = serve_mt(THREADS, &probes, mt_reps, |(c, m)| {
            outcome_word(&table.lookup(c, m))
        });
        let (qps_index, m_index) = serve_mt(THREADS, &probes, mt_reps, |(c, m)| {
            outcome_ref_word(&index.lookup_ref(c, m))
        });
        assert_eq!(m_table, m_index, "{name}: threaded index checksum diverged");

        let single_ratio = ns_table / ns_index.max(f64::MIN_POSITIVE);
        let qps_ratio = qps_index / qps_table.max(f64::MIN_POSITIVE);
        single_ratios.push(single_ratio);
        qps_ratios.push(qps_ratio);
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>8.1} {:>9.1} {:>9.1} {:>8.2}x",
            name,
            chg.class_count(),
            index.entry_count(),
            index.bytes_per_entry(),
            ns_table,
            ns_index,
            single_ratio,
        )?;
        rows.push(format!(
            "  {:<16} {:>9.2} {:>9.2} {:>9.2}x",
            name,
            qps_table / 1e6,
            qps_index / 1e6,
            qps_ratio,
        ));
        json_rows.push(format!(
            "    {{\"name\": \"{name}\", \"classes\": {}, \"entries\": {}, \
             \"index_bytes\": {}, \"bytes_per_entry\": {bpe:.2}, \
             \"single_ns\": {{\"table\": {ns_table:.2}, \"index\": {ns_index:.2}}}, \
             \"qps\": {{\"table\": {qps_table:.0}, \"index\": {qps_index:.0}}}, \
             \"index_vs_table_single\": {single_ratio:.3}, \
             \"index_vs_table_qps\": {qps_ratio:.3}}}",
            chg.class_count(),
            index.entry_count(),
            index.size_bytes(),
            bpe = index.bytes_per_entry(),
        ));
    }
    writeln!(w, "  {THREADS} threads, aggregate Mlookups/s:")?;
    writeln!(
        w,
        "  {:<16} {:>9} {:>9} {:>10}",
        "family", "table", "index", "vs table"
    )?;
    for row in &rows {
        writeln!(w, "{row}")?;
    }
    let geo = |rs: &[f64]| (rs.iter().map(|r| r.ln()).sum::<f64>() / rs.len() as f64).exp();
    let g_single = geo(&single_ratios);
    let g_qps = geo(&qps_ratios);
    writeln!(
        w,
        "  target >=2x single-thread index vs hashmap table (geomean): {} ({g_single:.2}x)",
        if g_single >= 2.0 { "PASS" } else { "FAIL" }
    )?;
    writeln!(
        w,
        "  {THREADS}-thread QPS index vs hashmap table (geomean): {g_qps:.2}x"
    )?;
    let json = format!(
        "{{\n  \"experiment\": \"e22\",\n  \"threads\": {THREADS},\n  \"families\": [\n{}\n  ],\n  \
         \"geomean_index_vs_table_single\": {g_single:.3},\n  \
         \"geomean_index_vs_table_qps\": {g_qps:.3}\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_e22.json", json)?;
    writeln!(w, "  wrote BENCH_e22.json")?;
    Ok(())
}

/// The host context recorded alongside wire-path throughput numbers:
/// QPS on a 64-core box and on a 1-core container are different
/// experiments, and a baseline file is meaningless without knowing
/// which one produced it. `client_threads` is the largest client-side
/// thread count the experiment drove.
fn host_context_json(client_threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "\"host\": {{\"cores\": {cores}, \"client_threads\": {client_threads}, \
         \"os\": \"{}\", \"arch\": \"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// The I/O model the wire smokes run under: `CPPLOOKUP_IO_MODEL=epoll`
/// reruns e23/e24's guards against the reactor, so CI exercises both
/// models through the same assertions.
fn io_model_from_env() -> cpplookup_server::IoModel {
    std::env::var("CPPLOOKUP_IO_MODEL")
        .ok()
        .and_then(|v| cpplookup_server::IoModel::parse(&v))
        .unwrap_or_default()
}

/// Pulls a bare numeric field out of the hand-rolled `BENCH_e22.json`
/// (the bench crate has no serde); `None` when the key is absent.
fn json_f64(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))?;
    let tail = json[at..].split_once(':')?.1.trim_start();
    let end = tail
        .find(|ch: char| ch == ',' || ch == '}' || ch.is_whitespace())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The table's answer for `(c, m)`, or `NotFound` past its class range:
/// the smokes' dead-id margins probe beyond the ids the table covers.
fn table_lookup(
    table: &LookupTable,
    class_count: usize,
    c: cpplookup_chg::ClassId,
    m: cpplookup_chg::MemberId,
) -> LookupOutcome {
    if c.index() < class_count {
        table.lookup(c, m)
    } else {
        LookupOutcome::NotFound
    }
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
/// 1M lookups each, table and index alternating over
/// [`E22_SMOKE_ROUNDS`] rounds, compared best against best.
fn e22_smoke(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_core::DispatchIndex;
    use cpplookup_snapshot::SnapshotTable;

    writeln!(
        w,
        "E22-smoke: dispatch-index differential, legacy-load gate + serve perf guard"
    )?;
    let diff = families::interface_heavy(200, 4);
    let diff_table = LookupTable::build(&diff);
    let diff_index = DispatchIndex::from_table(LookupTable::build(&diff));
    for c in diff.classes() {
        for m in diff.member_ids() {
            if diff_index.lookup_ref(c, m).to_outcome() != diff_table.lookup(c, m) {
                return Err(io::Error::other(format!(
                    "index diverges from table at ({}, {})",
                    diff.class_name(c),
                    diff.member_name(m)
                )));
            }
        }
    }
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
        for ci in 0..legacy_chg.class_count() + 3 {
            for mi in 0..legacy_chg.member_name_count() + 3 {
                let (c, m) = (
                    cpplookup_chg::ClassId::from_index(ci),
                    cpplookup_chg::MemberId::from_index(mi),
                );
                if index.lookup_ref(c, m).to_outcome()
                    != table_lookup(&legacy_table, legacy_chg.class_count(), c, m)
                {
                    return Err(io::Error::other(format!(
                        "{file}: the v{version} snapshot index diverges from the table \
                         at probe ({ci}, {mi})"
                    )));
                }
            }
        }
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
    let lookups = reps * probes.len();
    // Table and index sweeps alternate round by round and each side
    // keeps its best, so a burst of host noise costs one round of one
    // side instead of moving the ratio.
    let (mut ns_table, mut ns_index) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..E22_SMOKE_ROUNDS {
        let (t_table, s_table) =
            time_once(|| sweep(&probes, reps, &|(c, m)| outcome_word(&table.lookup(c, m))));
        let (t_index, s_index) = time_once(|| {
            sweep(&probes, reps, &|(c, m)| {
                outcome_ref_word(&index.lookup_ref(c, m))
            })
        });
        if s_table != s_index {
            return Err(io::Error::other(
                "probe checksums diverged between table and index",
            ));
        }
        ns_table = ns_table.min(ns_per_lookup(t_table, lookups));
        ns_index = ns_index.min(ns_per_lookup(t_index, lookups));
    }
    let ratio = ns_table / ns_index.max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  perf (grid_50x50): table {ns_table:.1} ns/lookup, index {ns_index:.1} ns/lookup, \
         best of {E22_SMOKE_ROUNDS} interleaved rounds (index speedup {ratio:.2}x)"
    )?;
    if ratio < 2.0 {
        return Err(io::Error::other(format!(
            "dispatch index is only {ratio:.2}x the hashmap table on the serve sweep (floor 2.0x)"
        )));
    }
    writeln!(w, "  guard: PASS (floor 2.0x)")?;
    if let Ok(baseline) = std::fs::read_to_string("BENCH_e22.json") {
        // Index into the grid_50x50 object so the per-family key wins
        // over the identical keys of the other families.
        let recorded = baseline
            .find("\"name\": \"grid_50x50\"")
            .and_then(|at| json_f64(&baseline[at..], "index_vs_table_single"));
        if let Some(recorded) = recorded {
            let floor = (recorded * 0.4).max(2.0);
            if ratio < floor {
                return Err(io::Error::other(format!(
                    "serve speedup {ratio:.2}x regressed below {floor:.2}x \
                     (0.4x the recorded grid_50x50 ratio {recorded:.2}x)"
                )));
            }
            writeln!(
                w,
                "  baseline: recorded grid_50x50 ratio {recorded:.2}x, floor {floor:.2}x — PASS"
            )?;
        }
    } else {
        writeln!(
            w,
            "  baseline: BENCH_e22.json not present, skipping no-regression guard"
        )?;
    }
    Ok(())
}

/// Maps an in-process [`LookupOutcome`] to the wire shape the server
/// should produce for it, using the snapshot's name tables.
fn wire_of(
    table: &cpplookup_snapshot::SnapshotTable,
    outcome: &LookupOutcome,
) -> cpplookup_server::WireOutcome {
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
/// rate, then first-query promotion rate). Emits `BENCH_e23.json` for
/// the CI no-regression guard (`e23-smoke`).
fn e23(w: &mut dyn Write) -> io::Result<()> {
    use std::time::{Duration, Instant};

    use cpplookup_core::DispatchIndex;
    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::{Client, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

    const COLD_TENANTS: usize = 1000;
    const COLD_SNAPSHOTS: usize = 16;

    writeln!(w, "E23: multi-tenant wire protocol over the snapshot farm")?;
    let dir = BenchDir::new("e23")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let snap_path = dir.file("main.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;

    let mut config = ServerConfig::default();
    config.preload.push(("t0".to_owned(), snap_path.clone()));
    let server = Server::start(config)?;
    let addr = server.addr().to_string();

    // Stage 1: every live (class, member) pair answered over the wire
    // must match the in-process DispatchIndex packed from the same
    // snapshot — checked before any number is reported.
    let index = DispatchIndex::from_backend(&table);
    let probes = live_probes(&table);
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(30)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    for chunk in probes.chunks(1024) {
        let wire = client
            .batch("t0", chunk)
            .map_err(|e| io::Error::other(e.to_string()))?;
        for ((class, member), got) in chunk.iter().zip(&wire) {
            let c = table.class_by_name(class).unwrap();
            let m = table.member_by_name(member).unwrap();
            let want = wire_of(&table, &index.lookup(c, m));
            if *got != want {
                return Err(io::Error::other(format!(
                    "wire answer diverges from in-process index at ({class}, {member}): \
                     {got:?} != {want:?}"
                )));
            }
        }
    }
    writeln!(
        w,
        "  differential: {} classes, {} live pairs, wire == in-process index",
        chg.class_count(),
        probes.len()
    )?;

    // Stage 2: sustained closed-loop throughput at three connection
    // counts against the warm tenant.
    writeln!(w, "  closed loop, 1 probe/request, warm tenant:")?;
    writeln!(
        w,
        "  {:<12} {:>10} {:>10} {:>10}",
        "connections", "qps", "p50 us", "p99 us"
    )?;
    let targets = [TenantTarget {
        name: "t0".to_owned(),
        probes: probes.clone(),
    }];
    let mut json_levels: Vec<String> = Vec::new();
    let mut qps_by_conns: Vec<(usize, f64)> = Vec::new();
    for conns in [1usize, 8, 32] {
        let report = loadgen::run(
            &LoadConfig {
                addr: addr.clone(),
                connections: conns,
                duration: Duration::from_millis(1200),
                ..LoadConfig::default()
            },
            &targets,
        )?;
        if report.errors > 0 {
            return Err(io::Error::other(format!(
                "{} load errors at {conns} connections",
                report.errors
            )));
        }
        writeln!(
            w,
            "  {:<12} {:>10.0} {:>10.1} {:>10.1}",
            conns,
            report.qps(),
            report.p50_us(),
            report.p99_us()
        )?;
        qps_by_conns.push((conns, report.qps()));
        json_levels.push(format!(
            "    {{\"connections\": {conns}, \"qps\": {:.0}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}}}",
            report.qps(),
            report.p50_us(),
            report.p99_us()
        ));
    }
    // On a multi-core host the thread-per-connection server scales past
    // 1x here; on a single core the meaningful property is that 8
    // concurrent connections do not *collapse* aggregate throughput
    // (lock convoy, accept-path serialization). Guard the latter.
    let qps_1 = qps_by_conns[0].1;
    let qps_8 = qps_by_conns[1].1;
    let scaling = qps_8 / qps_1.max(f64::MIN_POSITIVE);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    writeln!(
        w,
        "  target >=0.5x aggregate QPS at 8 connections vs 1 ({cores} cores): {} ({scaling:.2}x)",
        if scaling >= 0.5 { "PASS" } else { "FAIL" }
    )?;

    // Stage 3: 1000-tenant cold start. A handful of distinct small
    // snapshots fan out round-robin as 1000 tenants; LOAD parses and
    // indexes the artifact, the first QUERY promotes the tenant to a
    // published DispatchIndex.
    let mut cold_paths = Vec::new();
    let mut cold_probe = Vec::new();
    for i in 0..COLD_SNAPSHOTS {
        let family = families::chain(40 + i, Some(4));
        let path = dir.file(&format!("cold{i}.snap"));
        Snapshot::compile(&family)
            .write_to(&path)
            .map_err(io::Error::other)?;
        let t = SnapshotTable::load(&path).map_err(io::Error::other)?;
        let probe = live_probes(&t)
            .into_iter()
            .next()
            .ok_or_else(|| io::Error::other("cold family has no live pairs"))?;
        cold_paths.push(path);
        cold_probe.push(probe);
    }
    let t_load = Instant::now();
    for i in 0..COLD_TENANTS {
        client
            .load(
                &format!("cold{i}"),
                cold_paths[i % COLD_SNAPSHOTS].to_str().unwrap(),
            )
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    let load_secs = t_load.elapsed().as_secs_f64();
    let t_promote = Instant::now();
    for i in 0..COLD_TENANTS {
        let (class, member) = &cold_probe[i % COLD_SNAPSHOTS];
        client
            .query(&format!("cold{i}"), class, member)
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    let promote_secs = t_promote.elapsed().as_secs_f64();
    let tenants = client
        .hello()
        .map_err(|e| io::Error::other(e.to_string()))?;
    if tenants as usize != COLD_TENANTS + 1 {
        return Err(io::Error::other(format!(
            "expected {} tenants after cold start, server reports {tenants}",
            COLD_TENANTS + 1
        )));
    }
    let load_rate = COLD_TENANTS as f64 / load_secs.max(1e-9);
    let promote_rate = COLD_TENANTS as f64 / promote_secs.max(1e-9);
    writeln!(
        w,
        "  cold start: {COLD_TENANTS} tenants over {COLD_SNAPSHOTS} snapshots — \
         LOAD {load_rate:.0}/s, first-query promotion {promote_rate:.0}/s"
    )?;

    let json = format!(
        "{{\n  \"experiment\": \"e23\",\n  {},\n  \"differential_pairs\": {},\n  \
         \"levels\": [\n{}\n  ],\n  \
         \"qps_8_vs_1\": {scaling:.3},\n  \
         \"cold_start\": {{\"tenants\": {COLD_TENANTS}, \"snapshots\": {COLD_SNAPSHOTS}, \
         \"load_per_s\": {load_rate:.0}, \"promote_per_s\": {promote_rate:.0}}}\n}}\n",
        host_context_json(32),
        probes.len(),
        json_levels.join(",\n")
    );
    std::fs::write("BENCH_e23.json", json)?;
    writeln!(w, "  wrote BENCH_e23.json")?;
    Ok(())
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
        read_frame(&mut stream).map_err(|e| io::Error::other(e.to_string()))
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
/// the recorded 8-connection QPS.
fn e23_smoke(w: &mut dyn Write) -> io::Result<()> {
    use std::io::Read as _;
    use std::time::Duration;

    use cpplookup_core::DispatchIndex;
    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::{Client, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

    writeln!(w, "E23-smoke: wire session + admin endpoint + QPS floor")?;
    let dir = BenchDir::new("e23-smoke")?;
    let chg = families::interface_heavy(100, 4);
    let snap_path = dir.file("smoke.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;
    let index = DispatchIndex::from_backend(&table);
    let probes = live_probes(&table);

    let io_model = io_model_from_env();
    writeln!(w, "  io-model: {}", io_model.label())?;
    let server = Server::start(ServerConfig {
        io_model,
        ..ServerConfig::default()
    })?;
    let addr = server.addr().to_string();
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());

    let (entries, _) = client
        .load("t0", snap_path.to_str().unwrap())
        .map_err(wire)?;
    if entries == 0 {
        return Err(io::Error::other("LOAD reported zero entries"));
    }
    let answers = client.batch("t0", &probes).map_err(wire)?;
    for ((class, member), got) in probes.iter().zip(&answers) {
        let c = table.class_by_name(class).unwrap();
        let m = table.member_by_name(member).unwrap();
        if *got != wire_of(&table, &index.lookup(c, m)) {
            return Err(io::Error::other(format!(
                "wire batch diverges from in-process index at ({class}, {member})"
            )));
        }
    }
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
    let mut http = std::net::TcpStream::connect(&addr)?;
    http.set_read_timeout(Some(Duration::from_secs(10)))?;
    std::io::Write::write_all(&mut http, b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")?;
    let mut body = String::new();
    http.read_to_string(&mut body)?;
    if !body.contains(" 200 OK") || !body.contains("server_requests_total") {
        return Err(io::Error::other(format!(
            "admin endpoint did not serve Prometheus metrics: {}",
            &body[..body.len().min(200)]
        )));
    }
    writeln!(w, "  admin: GET /metrics -> 200, Prometheus text")?;

    let report = loadgen::run(
        &LoadConfig {
            addr: addr.clone(),
            connections: 2,
            duration: Duration::from_millis(400),
            ..LoadConfig::default()
        },
        &[TenantTarget {
            name: "t0".to_owned(),
            probes,
        }],
    )?;
    if report.errors > 0 {
        return Err(io::Error::other(format!(
            "{} load errors during smoke run",
            report.errors
        )));
    }
    let qps = report.qps();
    let mut floor: f64 = 1000.0;
    let mut baseline_note = "no BENCH_e23.json baseline".to_owned();
    if let Ok(baseline) = std::fs::read_to_string("BENCH_e23.json") {
        if let Some(recorded) = baseline
            .find("\"connections\": 8")
            .and_then(|at| json_f64(&baseline[at..], "qps"))
        {
            floor = floor.max(recorded * 0.05);
            baseline_note = format!("0.05x recorded 8-connection QPS {recorded:.0}");
        }
    }
    writeln!(
        w,
        "  load: {qps:.0} qps closed-loop over 2 connections (floor {floor:.0}, {baseline_note})"
    )?;
    if qps < floor {
        return Err(io::Error::other(format!(
            "smoke QPS {qps:.0} fell below the floor {floor:.0}"
        )));
    }
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
    use std::io::Read as _;
    use std::time::Duration;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::{Client, ObsConfig, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

    /// Client connections the span-stability stage compares.
    const CONNS: usize = 2;

    writeln!(w, "E24: wire-path request attribution")?;
    let dir = BenchDir::new("e24")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let snap_path = dir.file("main.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;
    let probes = live_probes(&table);
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());

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
    let shape = |spans: &[cpplookup_server::WireSpan]| -> Vec<(u64, u64, String)> {
        spans
            .iter()
            .map(|s| (s.id, s.parent, s.label.clone()))
            .collect()
    };
    let check_partition = |spans: &[cpplookup_server::WireSpan]| -> io::Result<()> {
        let root = &spans[0];
        let children_ns: u64 = spans[1..].iter().map(|s| s.duration_ns).sum();
        if children_ns != root.duration_ns {
            return Err(io::Error::other(format!(
                "phases sum {children_ns} != root {} — partition must be exact",
                root.duration_ns
            )));
        }
        Ok(())
    };
    let mut c1 = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut c2 = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (class, member) = &probes[0];
    let (_, first) = c1.query_traced("t0", class, member).map_err(wire)?;
    let reference = shape(&first);
    check_partition(&first)?;
    for _ in 0..32 {
        let (_, again) = c1.query_traced("t0", class, member).map_err(wire)?;
        let (_, other) = c2.query_traced("t0", class, member).map_err(wire)?;
        check_partition(&again)?;
        check_partition(&other)?;
        if shape(&again) != reference || shape(&other) != reference {
            return Err(io::Error::other(
                "span tree structure varied across runs/connections",
            ));
        }
    }
    let (_, bspans) = c1
        .batch_traced("t0", &probes[..probes.len().min(64)])
        .map_err(wire)?;
    check_partition(&bspans)?;
    if shape(&bspans) != reference {
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
    let mut ca = Client::connect(admin_addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    ca.query_traced("t0", class, member).map_err(wire)?;
    ca.query("t0", class, member).map_err(wire)?;
    let http_get = |addr: &str, target: &str| -> io::Result<String> {
        let mut s = std::net::TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        std::io::Write::write_all(
            &mut s,
            format!("GET {target} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes(),
        )?;
        let mut body = String::new();
        s.read_to_string(&mut body)?;
        Ok(body)
    };
    let health = http_get(&admin_addr, "/healthz")?;
    if !health.contains(" 200 OK") {
        return Err(io::Error::other(format!("/healthz failed: {health}")));
    }
    let tenants = http_get(&admin_addr, "/tenants")?;
    if !tenants.contains("\"tenant\":\"t0\"") || !tenants.contains("\"promoted\":true") {
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
        "  admin: /healthz 200, /tenants lists t0 promoted, /flightrecorder has \
         entries + slow span trees"
    )?;

    let json = format!(
        "{{\n  \"experiment\": \"e24\",\n  {},\n  \
         \"spans_per_trace\": {},\n  \"span_structure_stable\": true,\n  \
         \"admin_endpoints_verified\": true\n}}\n",
        host_context_json(CONNS),
        reference.len(),
    );
    std::fs::write("BENCH_e24.json", json)?;
    writeln!(w, "  wrote BENCH_e24.json")?;
    Ok(())
}

/// E24's CI gate: one full wire session with `--trace` semantics — a
/// traced query whose span tree must be non-empty, carry the six
/// expected phases, and partition the root exactly — plus a traced
/// load run that must attribute its requests over the same phases.
fn e24_smoke(w: &mut dyn Write) -> io::Result<()> {
    use std::time::Duration;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::{Client, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

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
    let snap_path = dir.file("smoke.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;
    let probes = live_probes(&table);
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());

    let io_model = io_model_from_env();
    writeln!(w, "  io-model: {}", io_model.label())?;
    let server = Server::start(ServerConfig {
        preload: vec![("t0".to_owned(), snap_path)],
        io_model,
        ..ServerConfig::default()
    })?;
    let addr = server.addr().to_string();

    // 1. Traced query: non-empty span tree, the six phases in order,
    //    durations summing to the root exactly.
    let mut client = Client::connect(addr.as_str(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (class, member) = &probes[0];
    let (_, spans) = client.query_traced("t0", class, member).map_err(wire)?;
    if spans.len() != 1 + PHASES.len() {
        return Err(io::Error::other(format!(
            "expected root + {} phases, got {} spans",
            PHASES.len(),
            spans.len()
        )));
    }
    let mut sum = 0u64;
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
        sum += s.duration_ns;
    }
    if sum != spans[0].duration_ns {
        return Err(io::Error::other(format!(
            "phase durations sum to {sum}, root is {} — partition must be exact",
            spans[0].duration_ns
        )));
    }
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
    use std::time::{Duration, Instant};

    use cpplookup_server::{
        Client, Farm, FarmOptions, FollowSource, Follower, FollowerConfig, Server, ServerConfig,
    };
    use cpplookup_snapshot::Snapshot;
    use cpplookup_wal::WalStore;

    const BURSTS: [usize; 3] = [1, 32, 256];
    const REPEATS: usize = 5;
    const LOG_LENS: [usize; 3] = [256, 1024, 4096];

    writeln!(w, "E25: edit-log replication lag and recovery time")?;
    let dir = BenchDir::new("e25")?;
    let chg = families::chain(64, None);
    let class_names: Vec<String> = chg
        .classes()
        .map(|c| chg.class_name(c).to_owned())
        .collect();
    let snap_path = dir.file("t.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());

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
    let mut client = Client::connect(leader.addr(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
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
            lags.push(t0.elapsed());
        }
        let spread = Spread::of(lags);
        writeln!(
            w,
            "  burst {burst:>4} edits: converged in {:>10} ({:>8}/edit)",
            fmt_duration(spread.median),
            fmt_duration(spread.median / burst as u32),
        )?;
        lag_rows.push(format!(
            "{{\"burst\": {burst}, \"lag\": {}}}",
            spread.json()
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
        let (records, cold) = replay_rounds(&wal_path, REPEATS)?;
        let rate = records as f64 / cold.median.as_secs_f64().max(1e-9);

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
        let (compacted_records, warm) = replay_rounds(&wal_path, REPEATS)?;
        writeln!(
            w,
            "  {records:>8} {log_bytes:>10} {:>30} {rate:>8.0}/s | {compacted_records:>6} {:>12}",
            format!(
                "{} / {} / {}",
                fmt_duration(cold.min),
                fmt_duration(cold.median),
                fmt_duration(cold.max)
            ),
            fmt_duration(warm.median),
        )?;
        recovery_rows.push(format!(
            "{{\"records\": {records}, \"log_bytes\": {log_bytes}, \
             \"replay\": {}, \"records_per_s\": {rate:.0}, \
             \"compacted_records\": {compacted_records}, \"compacted_replay\": {}}}",
            cold.json(),
            warm.json()
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"e25\",\n  {},\n  \"rounds\": {REPEATS},\n  \
         \"lag\": [{}],\n  \"recovery\": [{}]\n}}\n",
        host_context_json(1),
        lag_rows.join(", "),
        recovery_rows.join(", "),
    );
    std::fs::write("BENCH_e25.json", json)?;
    writeln!(w, "  wrote BENCH_e25.json")?;
    Ok(())
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

/// Times `rounds` cold recoveries of the log at `path` — open, repair,
/// and [`Farm::replay`](cpplookup_server::Farm::replay) into a fresh
/// farm, as `Server::start` does — and returns the record count and the
/// spread.
fn replay_rounds(path: &std::path::Path, rounds: usize) -> io::Result<(usize, Spread)> {
    use std::sync::Arc;
    use std::time::Instant;

    use cpplookup_server::{Farm, FarmOptions};
    use cpplookup_wal::WalStore;

    let mut records = 0;
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        let (store, recovered) = WalStore::open(path, 0).map_err(io::Error::other)?;
        let farm = Farm::with_options(FarmOptions {
            wal: Some(Arc::new(store)),
            ..FarmOptions::default()
        });
        farm.replay(&recovered)
            .map_err(|(seq, (_, m))| io::Error::other(format!("replay at seq {seq}: {m}")))?;
        times.push(t0.elapsed());
        records = recovered.len();
    }
    Ok((records, Spread::of(times)))
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
    use std::time::{Duration, Instant};

    use cpplookup_server::{
        Client, Farm, FollowSource, Follower, FollowerConfig, Server, ServerConfig,
    };
    use cpplookup_snapshot::Snapshot;
    use cpplookup_wal::{read_all, recover_bytes, WalStore};

    writeln!(
        w,
        "E25-smoke: crash recovery + leader/follower differential"
    )?;
    let dir = BenchDir::new("e25-smoke")?;
    let chg = families::interface_heavy(12, 3);
    let snap_path = dir.file("t.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let class_names: Vec<String> = chg
        .classes()
        .map(|c| chg.class_name(c).to_owned())
        .collect();
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());

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
    let mut lc = Client::connect(leader.addr(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
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

    let mut fc = Client::connect(follower_srv.addr(), Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
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
        let (records, spread) = replay_rounds(&path, 3)?;
        let rate = records as f64 / spread.min.as_secs_f64().max(1e-9);
        writeln!(
            w,
            "  replay: {records} records in {} (best of 3), {rate:.0} records/s",
            fmt_duration(spread.min)
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
fn packed_keys(index: &cpplookup_core::DispatchIndex) -> Vec<u64> {
    (0..index.class_count())
        .flat_map(|ci| {
            index
                .members_of(cpplookup_chg::ClassId::from_index(ci))
                .map(move |m| ci as u64 | (m.index() as u64) << 32)
        })
        .collect()
}

/// Median wall time of three hash builds over `keys`, with the built
/// function.
fn time_mph_build(keys: &[u64]) -> (std::time::Duration, MphFunction) {
    median_time(3, || MphFunction::build(keys))
}

/// E26 — the minimal perfect hash probe directory and the SWAR batch
/// path over it.
///
/// Three measurements per family, on shuffled live-pair probe streams
/// with checksums verified against `lookup_ref` before any number is
/// reported:
///
/// 1. **Directory probe** — single-thread ns/lookup through
///    `lookup_ref`: one displacement read plus exactly one
///    data-dependent cell line.
/// 2. **Batch against owned** (the headline) — the BATCH serve path
///    (`lookup_batch_into` over 256-probe chunks, reused buffer)
///    against a per-probe *owned* `lookup` loop on the same index (one
///    owned outcome, witness `Vec` clones and per-call obs hooks
///    included, per probe).
/// 3. **Thread scaling** — aggregate lookup throughput from 1 to 32
///    threads on the largest family; the shared directory is
///    read-only, so scaling should track cores until memory bandwidth
///    (on a single-core host the curve is honestly flat).
///
/// It also prints, ungated, each family's hash build time
/// (`MphFunction::build` over the index's packed keys, median of 3)
/// and whether it built at seed 0.
///
/// Emits `BENCH_e26.json` (with host context) for the CI gate
/// (`e26-smoke`). Files recorded before the open-addressed directory
/// was deleted also carry its columns, as history.
fn e26(w: &mut dyn Write) -> io::Result<()> {
    use cpplookup_core::DispatchIndex;

    const CHUNK: usize = 256;
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
         (the serve path)"
    )?;
    let families: Vec<(&str, Chg)> = vec![
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
    ];
    writeln!(w, "  single thread, ns/lookup:")?;
    writeln!(
        w,
        "  {:<16} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "family", "classes", "entries", "mph", "owned", "batch", "batch gain"
    )?;
    let mut json_rows: Vec<String> = Vec::new();
    let mut batch_ratios: Vec<f64> = Vec::new();
    let mut build_rows: Vec<String> = Vec::new();
    for (name, chg) in &families {
        let table = LookupTable::build(chg);
        let mph = DispatchIndex::from_table(LookupTable::build(chg));
        let keys = packed_keys(&mph);
        let (t_build, hash) = time_mph_build(&keys);
        build_rows.push(format!(
            "    {name:<16} {:>8} keys {:>8.1} ms  seed {}",
            keys.len(),
            t_build.as_secs_f64() * 1e3,
            if hash.seed() == 0 { "0" } else { "retried" }
        ));
        let probes = serve_probes(chg, &table, 0xE26 ^ name.len() as u64);
        let reps = (2_000_000 / probes.len()).max(1);
        let lookups = (reps * probes.len()) as f64;

        let (ns_mph, s_mph) = serve_single(&probes, reps, |(c, m)| {
            outcome_ref_word(&mph.lookup_ref(c, m))
        });
        let (ns_owned, s_owned) =
            serve_single(&probes, reps, |(c, m)| outcome_word(&mph.lookup(c, m)));
        if s_owned != s_mph {
            return Err(io::Error::other(format!(
                "{name}: owned lookup diverged from lookup_ref"
            )));
        }
        let (t_batch, s_batch) = median_time(3, || {
            let mut out = Vec::new();
            let mut sum = 0u64;
            for _ in 0..reps {
                for chunk in probes.chunks(CHUNK) {
                    mph.lookup_batch_into(chunk, &mut out);
                    for o in &out {
                        sum = sum.wrapping_add(outcome_ref_word(o));
                    }
                }
            }
            sum
        });
        if s_batch != s_mph {
            return Err(io::Error::other(format!(
                "{name}: batch path diverged from lookup_ref"
            )));
        }
        let ns_batch = t_batch.as_secs_f64() * 1e9 / lookups;
        let batch_ratio = ns_owned / ns_batch.max(f64::MIN_POSITIVE);
        // The acceptance geomean is over the ≥2000-class families;
        // smaller ones are printed for shape but not averaged in.
        if chg.class_count() >= 2000 {
            batch_ratios.push(batch_ratio);
        }
        writeln!(
            w,
            "  {:<16} {:>7} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>8.2}x",
            name,
            chg.class_count(),
            mph.entry_count(),
            ns_mph,
            ns_owned,
            ns_batch,
            batch_ratio,
        )?;
        json_rows.push(format!(
            "    {{\"name\": \"{name}\", \"classes\": {}, \"entries\": {}, \
             \"single_ns\": {{\"mph\": {ns_mph:.2}, \"owned_mph\": {ns_owned:.2}, \
             \"batch\": {ns_batch:.2}}}, \
             \"batch_vs_owned\": {batch_ratio:.3}}}",
            chg.class_count(),
            mph.entry_count(),
        ));
    }
    writeln!(
        w,
        "  hash build (MphFunction::build over the packed keys, median of 3):"
    )?;
    for row in &build_rows {
        writeln!(w, "{row}")?;
    }
    // Thread scaling on the largest family.
    let (scale_name, scale_chg) = families.last().expect("families nonempty");
    let table = LookupTable::build(scale_chg);
    let mph = DispatchIndex::from_table(LookupTable::build(scale_chg));
    let probes = serve_probes(scale_chg, &table, 0xE26);
    let mt_reps = (500_000 / probes.len()).max(1);
    writeln!(
        w,
        "  thread scaling ({scale_name}, mph directory), aggregate Mlookups/s:"
    )?;
    let mut scale_rows: Vec<String> = Vec::new();
    let mut base_qps = f64::MIN_POSITIVE;
    for &threads in &THREAD_SWEEP {
        let (qps, _) = serve_mt(threads, &probes, mt_reps, |(c, m)| {
            outcome_ref_word(&mph.lookup_ref(c, m))
        });
        if threads == 1 {
            base_qps = qps;
        }
        writeln!(
            w,
            "    {threads:>2} threads: {:>8.2} M/s ({:.2}x over 1 thread)",
            qps / 1e6,
            qps / base_qps
        )?;
        scale_rows.push(format!(
            "    {{\"threads\": {threads}, \"qps\": {qps:.0}, \"speedup\": {:.3}}}",
            qps / base_qps
        ));
    }
    let geo = |rs: &[f64]| (rs.iter().map(|r| r.ln()).sum::<f64>() / rs.len() as f64).exp();
    let g_batch = geo(&batch_ratios);
    writeln!(
        w,
        "  target >=2x batch vs per-probe owned loop, same index (geomean): {} ({g_batch:.2}x)",
        if g_batch >= 2.0 { "PASS" } else { "FAIL" }
    )?;
    let json = format!(
        "{{\n  \"experiment\": \"e26\",\n  {},\n  \"families\": [\n{}\n  ],\n  \
         \"scaling\": {{\"family\": \"{scale_name}\", \"points\": [\n{}\n  ]}},\n  \
         \"geomean_batch_vs_owned\": {g_batch:.3}\n}}\n",
        host_context_json(*THREAD_SWEEP.last().expect("sweep nonempty")),
        json_rows.join(",\n"),
        scale_rows.join(",\n"),
    );
    std::fs::write("BENCH_e26.json", json)?;
    writeln!(w, "  wrote BENCH_e26.json")?;
    Ok(())
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
///    index.
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
    use cpplookup_core::DispatchIndex;

    writeln!(w, "E26-smoke: mph/table differential + batch perf floor")?;
    let diff = families::interface_heavy(200, 4);
    let table = LookupTable::build(&diff);
    let mph = DispatchIndex::from_table(LookupTable::build(&diff));
    // Live pairs and a margin of dead ids beyond both ranges: an alien
    // key still hashes *somewhere*, so this exercises the key-compare
    // rejection, not just the happy path.
    let probes: Vec<Probe> = (0..diff.class_count() + 4)
        .flat_map(|c| {
            (0..diff.member_name_count() + 4).map(move |m| {
                (
                    cpplookup_chg::ClassId::from_index(c),
                    cpplookup_chg::MemberId::from_index(m),
                )
            })
        })
        .collect();
    let mut mph_batch = Vec::new();
    mph.lookup_batch_into(&probes, &mut mph_batch);
    for (i, &(c, m)) in probes.iter().enumerate() {
        let got = mph.lookup_ref(c, m);
        if got.to_outcome() != table_lookup(&table, diff.class_count(), c, m) || got != mph_batch[i]
        {
            return Err(io::Error::other(format!(
                "mph/table divergence at probe ({}, {})",
                c.index(),
                m.index()
            )));
        }
    }
    writeln!(
        w,
        "  differential: {} probes ({} live entries + dead margin), \
         mph == table, batch == single",
        probes.len(),
        mph.entry_count()
    )?;
    let chg = families::grid(50, 50);
    let table = LookupTable::build(&chg);
    let mph = DispatchIndex::from_table(LookupTable::build(&chg));
    let probes = serve_probes(&chg, &table, 0xE26);
    let reps = (1_000_000 / probes.len()).max(1);
    // One owned outcome (witness Vec clones and obs hooks included)
    // per probe.
    let (ns_owned, s_owned) = serve_single(&probes, reps, |(c, m)| outcome_word(&mph.lookup(c, m)));
    // The serve path: batched allocation-free lookups, reused output
    // buffer.
    let (t_batch, s_batch) = median_time(3, || {
        let mut out = Vec::new();
        let mut sum = 0u64;
        for _ in 0..reps {
            for chunk in probes.chunks(256) {
                mph.lookup_batch_into(chunk, &mut out);
                for o in &out {
                    sum = sum.wrapping_add(outcome_ref_word(o));
                }
            }
        }
        sum
    });
    if s_owned != s_batch {
        return Err(io::Error::other(
            "probe checksums diverged between the owned loop and the batch path",
        ));
    }
    let ns_batch = t_batch.as_secs_f64() * 1e9 / (reps * probes.len()) as f64;
    let ratio = ns_owned / ns_batch.max(f64::MIN_POSITIVE);
    writeln!(
        w,
        "  perf (grid_50x50): owned loop {ns_owned:.1} ns/probe, batch \
         {ns_batch:.1} ns/probe (batch speedup {ratio:.2}x)"
    )?;
    if ratio < 1.2 {
        return Err(io::Error::other(format!(
            "the batched serve path is only {ratio:.2}x the per-probe owned \
             loop (floor 1.2x)"
        )));
    }
    writeln!(w, "  guard: PASS (floor 1.2x)")?;
    if let Ok(baseline) = std::fs::read_to_string("BENCH_e26.json") {
        let recorded = baseline
            .find("\"name\": \"grid_50x50\"")
            .and_then(|at| json_f64(&baseline[at..], "batch_vs_owned"));
        if let Some(recorded) = recorded {
            let floor = (recorded * 0.4).max(1.2);
            if ratio < floor {
                return Err(io::Error::other(format!(
                    "batch speedup {ratio:.2}x regressed below {floor:.2}x \
                     (0.4x the recorded grid_50x50 ratio {recorded:.2}x)"
                )));
            }
            writeln!(
                w,
                "  baseline: recorded grid_50x50 ratio {recorded:.2}x, floor {floor:.2}x — PASS"
            )?;
        }
    } else {
        writeln!(
            w,
            "  baseline: BENCH_e26.json not present, skipping no-regression guard"
        )?;
    }
    for tenant in [1, 2] {
        let chg = random_hierarchy(&RandomConfig::realistic(4000, tenant));
        let keys = packed_keys(&DispatchIndex::from_table(LookupTable::build(&chg)));
        let (t_build, hash) = time_mph_build(&keys);
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
    use std::time::Duration;

    use cpplookup_server::protocol::{
        read_frame, write_frame, FrameError, Request, PROTOCOL_VERSION,
    };
    use cpplookup_server::{Client, WireSpan};

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
    let shape = |spans: &[WireSpan]| -> Vec<(u64, u64, String)> {
        spans
            .iter()
            .map(|s| (s.id, s.parent, s.label.clone()))
            .collect()
    };
    let mut ct = Client::connect(threads_addr, Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut ce = Client::connect(epoll_addr, Some(Duration::from_secs(10)))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let wire = |e: cpplookup_server::client::ClientError| io::Error::other(e.to_string());
    let (to, ts) = ct.query_traced("t0", class0, member0).map_err(wire)?;
    let (eo, es) = ce.query_traced("t0", class0, member0).map_err(wire)?;
    if to != eo || shape(&ts) != shape(&es) {
        return Err(io::Error::other("traced QUERY diverges between models"));
    }
    let pair = vec![probes[0].clone(), probes[probes.len() - 1].clone()];
    let (to, ts) = ct.batch_traced("t0", &pair).map_err(wire)?;
    let (eo, es) = ce.batch_traced("t0", &pair).map_err(wire)?;
    if to != eo || shape(&ts) != shape(&es) {
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
    use std::time::Duration;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::{IoModel, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

    const LEVELS: [usize; 5] = [1, 8, 64, 256, 1024];

    writeln!(w, "E27: epoll reactor vs thread-per-connection I/O")?;
    let dir = BenchDir::new("e27")?;
    let chg = random_hierarchy(&RandomConfig::realistic(2000, 7));
    let snap_path = dir.file("main.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;
    let probes = live_probes(&table);

    let start = |io_model: IoModel| -> io::Result<(Server, String)> {
        let server = Server::start(ServerConfig {
            preload: vec![("t0".to_owned(), snap_path.clone())],
            max_connections: 16_000,
            io_model,
            ..ServerConfig::default()
        })?;
        let addr = server.addr().to_string();
        Ok((server, addr))
    };
    let (_threads, threads_addr) = start(IoModel::Threads)?;
    let (_epoll, epoll_addr) = start(IoModel::Epoll)?;

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

    let json = format!(
        "{{\n  \"experiment\": \"e27\",\n  {},\n  \"differential_frames\": {frames},\n  \
         \"idle_connections\": {idle_target},\n  \"models\": {{\n{}\n  }},\n  \
         \"epoll_vs_threads_qps_1conn\": {qps_ratio:.3}\n}}\n",
        host_context_json(1024),
        model_json.join(",\n"),
    );
    std::fs::write("BENCH_e27.json", json)?;
    writeln!(w, "  wrote BENCH_e27.json")?;
    Ok(())
}

/// E27's CI guard: the full epoll-vs-threads wire differential, a
/// connection-scaling floor on the reactor (64-connection closed-loop
/// QPS must not fall below 1-connection QPS), and — when a committed
/// `BENCH_e27.json` exists — a no-regression floor at 0.05x the
/// recorded epoll 1-connection QPS.
fn e27_smoke(w: &mut dyn Write) -> io::Result<()> {
    use std::time::Duration;

    use cpplookup_server::cli::live_probes;
    use cpplookup_server::loadgen::{self, LoadConfig, TenantTarget};
    use cpplookup_server::{IoModel, Server, ServerConfig};
    use cpplookup_snapshot::{Snapshot, SnapshotTable};

    writeln!(w, "E27-smoke: epoll/threads differential + scaling floor")?;
    let dir = BenchDir::new("e27-smoke")?;
    let chg = families::interface_heavy(100, 4);
    let snap_path = dir.file("smoke.snap");
    Snapshot::compile(&chg)
        .write_to(&snap_path)
        .map_err(io::Error::other)?;
    let table = SnapshotTable::load(&snap_path).map_err(io::Error::other)?;
    let probes = live_probes(&table);

    let start = |io_model: IoModel| -> io::Result<(Server, String)> {
        let server = Server::start(ServerConfig {
            preload: vec![("t0".to_owned(), snap_path.clone())],
            max_connections: 256,
            io_model,
            ..ServerConfig::default()
        })?;
        let addr = server.addr().to_string();
        Ok((server, addr))
    };
    let (_threads, threads_addr) = start(IoModel::Threads)?;
    let (_epoll, epoll_addr) = start(IoModel::Epoll)?;

    let frames = e27_wire_differential(&threads_addr, &epoll_addr, &probes)?;
    writeln!(w, "  differential: {frames} frames byte-identical")?;

    let targets = [TenantTarget {
        name: "t0".to_owned(),
        probes,
    }];
    let run_at = |conns: usize| -> io::Result<f64> {
        let report = loadgen::run(
            &LoadConfig {
                addr: epoll_addr.clone(),
                connections: conns,
                duration: Duration::from_millis(700),
                ..LoadConfig::default()
            },
            &targets,
        )?;
        if report.errors > 0 {
            return Err(io::Error::other(format!(
                "{} load errors at {conns} connections",
                report.errors
            )));
        }
        Ok(report.qps())
    };
    let qps_1 = run_at(1)?;
    let qps_64 = run_at(64)?;
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

    let mut floor: f64 = 1000.0;
    let mut baseline_note = "no BENCH_e27.json baseline".to_owned();
    if let Ok(baseline) = std::fs::read_to_string("BENCH_e27.json") {
        // The epoll section's first level is the 1-connection run.
        if let Some(recorded) = baseline
            .find("\"epoll\"")
            .and_then(|at| json_f64(&baseline[at..], "qps"))
        {
            floor = floor.max(recorded * 0.05);
            baseline_note = format!("0.05x recorded epoll 1-connection QPS {recorded:.0}");
        }
    }
    writeln!(w, "  floor {floor:.0} qps ({baseline_note})")?;
    if qps_1 < floor {
        return Err(io::Error::other(format!(
            "smoke QPS {qps_1:.0} fell below the floor {floor:.0}"
        )));
    }
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
