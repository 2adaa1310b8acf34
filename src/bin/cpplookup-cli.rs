//! `cpplookup-cli` — drive the member lookup pipeline from the command
//! line, compiler style.
//!
//! ```text
//! cpplookup-cli check  <file.cpp>            resolve every member access, print diagnostics
//! cpplookup-cli table  <file.cpp>            dump the whole lookup table
//! cpplookup-cli trace  <file.cpp> <member> [--dot|--json]
//!                                            red/blue propagation trace (paper Figures 6-7)
//! cpplookup-cli layout <file.cpp> [class]    object layouts and dispatch tables
//! cpplookup-cli audit  <file.cpp>            ambiguity lint + subobject blowup report
//! cpplookup-cli dot    <file.cpp>            Graphviz export of the class hierarchy
//! cpplookup-cli export <file.cpp>            JSON export of the class hierarchy
//! cpplookup-cli query  <file.cpp> <class> <member>
//!                                            answer one lookup query from the table
//! cpplookup-cli batch  <file.cpp> [--metrics]
//!                                            answer `class member` query pairs from stdin
//!                                            and apply `!class N` / `!member C N` /
//!                                            `!edge D B [virtual]` edit directives in
//!                                            stream order; index size and epochs go to
//!                                            stderr. --metrics prints the process metrics
//!                                            as one JSON line at the end of stdout
//! cpplookup-cli stats  <file.cpp> [--json|--prometheus]
//!                                            pack the dispatch index and dump the process
//!                                            metrics
//! cpplookup-cli compile <file.cpp> -o <out.snap>
//!                                            write the hierarchy and its lookup table as a
//!                                            binary snapshot ("compile once, serve many")
//! cpplookup-cli <query|batch|stats> --snapshot <file.snap> [args]
//!                                            the same three, served from a snapshot
//!                                            without the source or a table build
//! cpplookup-cli serve   [--addr HOST:PORT] [--tenant NAME=PATH]...
//!                                            run the multi-tenant wire-protocol server
//!                                            (see cpplookup-serverd for all flags)
//! cpplookup-cli loadgen --addr HOST:PORT --snapshot PATH [...]
//!                                            drive load at a running server
//!                                            (see cpplookup-loadgen for all flags)
//! cpplookup-cli query  --addr HOST:PORT --tenant NAME CLASS MEMBER [--trace]
//!                                            one query over the wire; --trace prints the
//!                                            server's span tree as an attributed breakdown
//! ```
//!
//! Every source command builds the lookup table once, in
//! [`analyze`]. `batch` serves that table, packed into a
//! [`DispatchIndex`], through an [`IndexedEngine`]: a query reads the
//! published index and an edit directive recomputes its dirty pairs and
//! publishes a new epoch. `batch --snapshot` runs the same loop over the
//! index the snapshot file holds, so both answer byte-identically.
//!
//! Exit status: 0 on success, 1 on resolution errors (`check`) or
//! unknown names and rejected lines (`batch`, `query`), 2 on usage/IO
//! errors (including snapshot integrity failures).

use std::process::ExitCode;

use cpplookup::chg::dot::to_dot;
use cpplookup::chg::spec::ChgSpec;
use cpplookup::frontend::{analyze, render_all, Analysis};
use cpplookup::layout::{NvLayouts, ObjectLayout, Vtables};
use cpplookup::lookup::dispatch::build_dispatch_map;
use cpplookup::lookup::trace::{render_trace, trace_member, trace_to_dot, trace_to_json};
use cpplookup::obs;
use cpplookup::subobject::stats::count_subobjects;
use cpplookup::{
    Access, Chg, ClassId, DispatchIndex, Edit, IndexedEngine, Inheritance, LookupOptions,
    LookupOutcome, MemberDecl, MemberId, MemberKind, ServeHandle, Snapshot, SnapshotTable,
};

const USAGE: &str = "usage: cpplookup-cli <check|table|trace|layout|audit|dot|export|query|batch|stats|compile> <file.cpp> [args]\n       cpplookup-cli <query|batch|stats> --snapshot <file.snap> [args]\n       cpplookup-cli serve [--addr HOST:PORT] [--tenant NAME=PATH]...\n       cpplookup-cli loadgen --addr HOST:PORT --snapshot PATH [args]\n       cpplookup-cli query --addr HOST:PORT --tenant NAME CLASS MEMBER [--trace]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The server front ends take no C++ source at all; they dispatch
    // before everything else. Parsing and run bodies are shared with
    // the standalone cpplookup-serverd / cpplookup-loadgen bins.
    match args.split_first() {
        Some((command, rest)) if command == "serve" => return serve_cmd(rest),
        Some((command, rest)) if command == "loadgen" => return loadgen_cmd(rest),
        // `query --addr` goes over the wire to a running server; the
        // snapshot/source forms of `query` never take --addr.
        Some((command, rest)) if command == "query" && rest.iter().any(|a| a == "--addr") => {
            return wire_query_cmd(rest)
        }
        _ => {}
    }
    // Snapshot-serving modes take a binary snapshot, not C++ source, so
    // they dispatch before the UTF-8 source read below.
    if let [command, flag, file, rest @ ..] = args.as_slice() {
        if flag == "--snapshot" {
            if !matches!(command.as_str(), "query" | "batch" | "stats") {
                eprintln!("cpplookup-cli: `{command}` does not take --snapshot\n{USAGE}");
                return ExitCode::from(2);
            }
            let snap = match SnapshotTable::load(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cpplookup-cli: {e}");
                    return ExitCode::from(2);
                }
            };
            return match command.as_str() {
                "query" => snapshot_query(&snap, rest),
                "batch" => snapshot_batch(&snap, file, rest),
                _ => stats(DispatchIndex::from_backend(&snap), rest),
            };
        }
    }
    let (command, file, rest) = match args.as_slice() {
        [command, file, rest @ ..] => (command.as_str(), file.as_str(), rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpplookup-cli: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = analyze(&source);
    match command {
        "check" => check(&analysis, file, &source),
        "table" => {
            table(&analysis);
            ExitCode::SUCCESS
        }
        "trace" => trace(&analysis, rest),
        "layout" => layout(&analysis, rest),
        "audit" => {
            audit(&analysis);
            ExitCode::SUCCESS
        }
        "dot" => {
            print!("{}", to_dot(&analysis.chg));
            ExitCode::SUCCESS
        }
        "export" => {
            println!("{}", ChgSpec::from_chg(&analysis.chg).to_json());
            ExitCode::SUCCESS
        }
        "stats" => stats(DispatchIndex::from_backend(&analysis.table), rest),
        "batch" => batch(&analysis, rest),
        "compile" => compile(&analysis, rest),
        "query" => query(&analysis, rest),
        other => {
            eprintln!("cpplookup-cli: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(analysis: &Analysis, file: &str, source: &str) -> ExitCode {
    for query in &analysis.queries {
        let verdict = match &query.result {
            cpplookup::frontend::QueryResult::Resolved {
                declaring_class,
                access,
            } => {
                format!(
                    "ok: {}::{} ({access})",
                    analysis.chg.class_name(*declaring_class),
                    query.member
                )
            }
            other => format!("{other:?}"),
        };
        println!("{:<20} {verdict}", query.description);
    }
    if analysis.diagnostics.is_empty() {
        println!("\nno diagnostics.");
        ExitCode::SUCCESS
    } else {
        println!("\n{}", render_all(&analysis.diagnostics, file, source));
        ExitCode::from(1)
    }
}

fn table(analysis: &Analysis) {
    let chg = &analysis.chg;
    for c in chg.classes() {
        let mut members: Vec<_> = analysis.table.members_of(c).collect();
        members.sort();
        if members.is_empty() {
            continue;
        }
        println!("{}:", chg.class_name(c));
        for m in members {
            let line = match analysis.table.lookup(c, m) {
                LookupOutcome::Resolved { class, .. } => {
                    let path = analysis
                        .table
                        .resolve_path(chg, c, m)
                        .map(|p| format!("  via {}", p.display(chg)))
                        .unwrap_or_default();
                    format!("{}::{}{}", chg.class_name(class), chg.member_name(m), path)
                }
                LookupOutcome::Ambiguous { .. } => "<ambiguous>".to_owned(),
                LookupOutcome::NotFound => unreachable!("members_of lists visible members"),
            };
            println!("  {:<12} -> {line}", chg.member_name(m));
        }
    }
}

/// One buffered `batch` input line: either a `class member` query kept
/// as raw names (resolution happens at flush time, *after* any
/// preceding edit directives), or a line that already failed to parse.
type PendingLine = (String, Result<(String, String), String>);

/// Resolves the pending lines' names against the engine's hierarchy,
/// answers the valid queries through one batch over the currently
/// published [`DispatchIndex`] — the handle is loaded once per flush,
/// exactly as a reader thread would pin an epoch — and prints a verdict
/// per line. Returns whether any line failed.
fn flush(serving: &IndexedEngine, pending: &mut Vec<PendingLine>) -> bool {
    let chg = serving.chg();
    let resolved: Vec<Result<(ClassId, MemberId), String>> = pending
        .iter()
        .map(|(_, slot)| match slot {
            Err(e) => Err(e.clone()),
            Ok((class, member)) => match (chg.class_by_name(class), chg.member_by_name(member)) {
                (Some(c), Some(m)) => Ok((c, m)),
                (None, _) => Err(format!("no class named `{class}`")),
                (_, None) => Err(format!("no member named `{member}`")),
            },
        })
        .collect();
    let queries: Vec<_> = resolved
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .collect();
    let published = serving.handle().load();
    let mut outcomes = published.index().lookup_batch(&queries).into_iter();
    let mut failed = false;
    for ((label, _), slot) in pending.iter().zip(&resolved) {
        let verdict = match slot {
            Err(e) => {
                failed = true;
                format!("error: {e}")
            }
            Ok((_, m)) => render_verdict(
                outcomes.next().expect("one outcome per valid query"),
                chg.member_name(*m),
                |c| chg.class_name(c).to_owned(),
            ),
        };
        println!("{label:<24} {verdict}");
    }
    pending.clear();
    failed
}

/// Parses a `class member` query line into a buffered [`PendingLine`].
fn parse_query_line(line: &str) -> PendingLine {
    let mut words = line.split_whitespace();
    let slot = match (words.next(), words.next(), words.next()) {
        (Some(class), Some(member), None) => Ok((class.to_owned(), member.to_owned())),
        _ => Err("expected `class member`".to_owned()),
    };
    let label = match &slot {
        Ok((class, member)) => format!("{class}::{member}"),
        Err(_) => line.to_owned(),
    };
    (label, slot)
}

/// Parses one `!class` / `!member` / `!edge` directive into an [`Edit`]
/// (names resolve against the current hierarchy; new members are plain
/// public functions, new edges public inheritance).
fn parse_edit(chg: &Chg, line: &str) -> Result<Edit, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let class_id = |name: &str| {
        chg.class_by_name(name)
            .ok_or_else(|| format!("no class named `{name}`"))
    };
    match words.as_slice() {
        ["!class", name] => Ok(Edit::AddClass {
            name: (*name).to_owned(),
        }),
        ["!member", class, name] => Ok(Edit::AddMember {
            class: class_id(class)?,
            name: (*name).to_owned(),
            decl: MemberDecl::public(MemberKind::Function),
        }),
        ["!edge", derived, base, rest @ ..] => {
            let inheritance = match rest {
                [] => Inheritance::NonVirtual,
                ["virtual"] => Inheritance::Virtual,
                _ => return Err("expected `!edge DERIVED BASE [virtual]`".to_owned()),
            };
            Ok(Edit::AddEdge {
                derived: class_id(derived)?,
                base: class_id(base)?,
                inheritance,
                access: Access::Public,
            })
        }
        _ => Err(
            "expected `!class NAME`, `!member CLASS NAME`, or `!edge DERIVED BASE [virtual]`"
                .to_owned(),
        ),
    }
}

/// `batch`'s one flag: `Ok(true)` for `--metrics`; any other argument
/// is a usage error.
fn parse_metrics_flag(rest: &[String]) -> Result<bool, ExitCode> {
    match rest {
        [] => Ok(false),
        [flag] if flag == "--metrics" => Ok(true),
        _ => {
            eprintln!("usage: cpplookup-cli batch <file.cpp | --snapshot file.snap> [--metrics]");
            Err(ExitCode::from(2))
        }
    }
}

/// `batch <file.cpp> [--metrics]`: serves the table [`analyze`] built,
/// packed into the first published index — no second build.
fn batch(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let metrics = match parse_metrics_flag(rest) {
        Ok(metrics) => metrics,
        Err(code) => return code,
    };
    let handle = ServeHandle::serving(&analysis.table);
    let options = analysis.table.options();
    serve_loop(
        IndexedEngine::with_handle(analysis.chg.clone(), options, handle),
        metrics,
    )
}

/// `batch --snapshot <file.snap> [--metrics]`: the same loop over the
/// index the snapshot file holds, with no table beside it.
fn snapshot_batch(snap: &SnapshotTable, file: &str, rest: &[String]) -> ExitCode {
    let metrics = match parse_metrics_flag(rest) {
        Ok(metrics) => metrics,
        Err(code) => return code,
    };
    let chg = match snap.to_chg() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "warm start: {} entries seeded from {file} ({} bytes)",
        snap.entry_count(),
        snap.size_bytes()
    );
    let handle = ServeHandle::serving(snap);
    serve_loop(
        IndexedEngine::with_handle(chg, snap.options(), handle),
        metrics,
    )
}

/// The stdin loop of `batch`. Reads whitespace-separated `class member`
/// pairs (blank lines and `#` comments skipped) and answers them from
/// the [`DispatchIndex`] published by the [`IndexedEngine`]. A `!` line
/// is an edit directive: the buffered queries are answered first, so
/// each query observes the hierarchy as of its position in the stream,
/// then the edit goes through [`IndexedEngine::apply`] (dirty-pair
/// recompute, index refresh, atomic republish). With `metrics`, the
/// process-wide metrics follow as one JSON line at the end of stdout.
fn serve_loop(mut serving: IndexedEngine, metrics: bool) -> ExitCode {
    use std::io::BufRead;

    let handle = serving.handle();
    {
        let published = handle.load();
        let index = published.index();
        eprintln!(
            "serve index: {} entries, {} bytes ({:.1} bytes/entry), epoch {}",
            index.entry_count(),
            index.size_bytes(),
            index.bytes_per_entry(),
            published.epoch()
        );
    }
    let mut pending: Vec<PendingLine> = Vec::new();
    let (mut failed, mut queries, mut edits) = (false, 0, 0);
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cpplookup-cli: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('!') {
            failed |= flush(&serving, &mut pending);
            match parse_edit(serving.chg(), line)
                .and_then(|edit| serving.apply(&[edit]).map_err(|e| e.to_string()))
            {
                Ok(epoch) => {
                    edits += 1;
                    eprintln!("applied: {line} (epoch {epoch})");
                }
                Err(e) => {
                    println!("{line:<24} error: {e}");
                    failed = true;
                }
            }
            continue;
        }
        queries += 1;
        pending.push(parse_query_line(line));
    }
    failed |= flush(&serving, &mut pending);

    let published = handle.load();
    eprintln!(
        "served epoch {}: {queries} queries, {edits} edits; {} entries, {} bytes",
        published.epoch(),
        published.index().entry_count(),
        published.index().size_bytes()
    );
    if metrics {
        println!("{}", obs::snapshot().render_json());
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `compile <file.cpp> -o <out.snap>`: serializes the hierarchy and the
/// table [`analyze`] built into a binary snapshot.
fn compile(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let out = match rest {
        [flag, out] if flag == "-o" => out,
        _ => {
            eprintln!("usage: cpplookup-cli compile <file.cpp> -o <out.snap>");
            return ExitCode::from(2);
        }
    };
    let snap = Snapshot::from_table(&analysis.chg, &analysis.table);
    match snap.write_to(out) {
        Ok(()) => {
            eprintln!(
                "wrote {out}: {} bytes ({} classes, {} entries)",
                snap.len(),
                analysis.chg.class_count(),
                analysis.table.stats().entries
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            ExitCode::from(2)
        }
    }
}

/// Renders one lookup verdict in the `batch` style.
fn render_verdict(
    outcome: LookupOutcome,
    member: &str,
    class_name_of: impl Fn(ClassId) -> String,
) -> String {
    match outcome {
        LookupOutcome::Resolved { class, .. } => {
            format!("{}::{member}", class_name_of(class))
        }
        LookupOutcome::Ambiguous { .. } => "ambiguous".to_owned(),
        LookupOutcome::NotFound => "not found".to_owned(),
    }
}

/// `query <file.cpp> <class> <member>`: one lookup, answered from the
/// table [`analyze`] built.
fn query(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let [class, member] = rest else {
        eprintln!("usage: cpplookup-cli query <file.cpp> <class> <member>");
        return ExitCode::from(2);
    };
    let chg = &analysis.chg;
    let (Some(c), Some(m)) = (chg.class_by_name(class), chg.member_by_name(member)) else {
        eprintln!("cpplookup-cli: unknown class or member `{class}::{member}`");
        return ExitCode::from(1);
    };
    let verdict = render_verdict(analysis.table.lookup(c, m), member, |c| {
        chg.class_name(c).to_owned()
    });
    println!("{:<24} {verdict}", format!("{class}::{member}"));
    ExitCode::SUCCESS
}

/// `query --snapshot <file.snap> <class> <member>`: the same verdict,
/// served straight from the validated snapshot bytes — no table build.
fn snapshot_query(snap: &SnapshotTable, rest: &[String]) -> ExitCode {
    let [class, member] = rest else {
        eprintln!("usage: cpplookup-cli query --snapshot <file.snap> <class> <member>");
        return ExitCode::from(2);
    };
    let (Some(c), Some(m)) = (snap.class_by_name(class), snap.member_by_name(member)) else {
        eprintln!("cpplookup-cli: unknown class or member `{class}::{member}`");
        return ExitCode::from(1);
    };
    let verdict = render_verdict(SnapshotTable::lookup(snap, c, m), member, |c| {
        snap.class_name(c).unwrap_or("?").to_owned()
    });
    println!("{:<24} {verdict}", format!("{class}::{member}"));
    ExitCode::SUCCESS
}

fn trace(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let Some(member) = rest.first() else {
        eprintln!("usage: cpplookup-cli trace <file.cpp> <member>");
        return ExitCode::from(2);
    };
    let Some(m) = analysis.chg.member_by_name(member) else {
        eprintln!("cpplookup-cli: no member named `{member}`");
        return ExitCode::from(2);
    };
    let trace = trace_member(&analysis.chg, m, LookupOptions::default());
    if rest.iter().any(|a| a == "--dot") {
        print!("{}", trace_to_dot(&analysis.chg, m, &trace));
    } else if rest.iter().any(|a| a == "--json") {
        println!("{}", trace_to_json(&analysis.chg, m, &trace));
    } else {
        print!("{}", render_trace(&analysis.chg, &trace));
    }
    ExitCode::SUCCESS
}

/// `stats <file.cpp | --snapshot file.snap> [--json|--prometheus]`:
/// reports the dispatch index — packed from the table [`analyze`] built,
/// or the snapshot's own — on stderr and dumps the process-wide metrics
/// (propagation and build counters, snapshot loads, index builds) in
/// the requested format (default: plain text).
fn stats(index: DispatchIndex, rest: &[String]) -> ExitCode {
    let render: fn(&obs::Snapshot) -> String = match rest {
        [] => obs::Snapshot::render_text,
        [flag] if flag == "--json" => |s| s.render_json() + "\n",
        [flag] if flag == "--prometheus" => obs::Snapshot::render_prometheus,
        _ => {
            eprintln!(
                "usage: cpplookup-cli stats <file.cpp | --snapshot file.snap> [--json|--prometheus]"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "dispatch index: {} entries, {} bytes ({:.1} bytes/entry)",
        index.entry_count(),
        index.size_bytes(),
        index.bytes_per_entry()
    );
    print!("{}", render(&obs::snapshot()));
    ExitCode::SUCCESS
}

/// `serve [flags]`: run the multi-tenant wire-protocol server in the
/// foreground. Parsing and the serve loop are shared with the
/// standalone `cpplookup-serverd` bin.
fn serve_cmd(rest: &[String]) -> ExitCode {
    use cpplookup::server::cli as server_cli;

    match server_cli::parse_server_args(rest) {
        Ok(config) => {
            let e = server_cli::serve_forever(config);
            eprintln!("cpplookup-cli: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!(
                "cpplookup-cli: {e}\nusage: cpplookup-cli serve {}",
                server_cli::SERVE_USAGE
            );
            ExitCode::from(2)
        }
    }
}

/// `loadgen [flags]`: drive load at a running server. Parsing and the
/// run body are shared with the standalone `cpplookup-loadgen` bin.
fn loadgen_cmd(rest: &[String]) -> ExitCode {
    use cpplookup::server::cli as server_cli;

    let parsed = match server_cli::parse_loadgen_args(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "cpplookup-cli: {e}\nusage: cpplookup-cli loadgen {}",
                server_cli::LOADGEN_USAGE
            );
            return ExitCode::from(2);
        }
    };
    match server_cli::run_loadgen(&parsed) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            ExitCode::from(2)
        }
    }
}

/// `query --addr HOST:PORT --tenant NAME CLASS MEMBER [--trace]`: one
/// wire query against a running server; with `--trace` the server's
/// span tree follows as an attributed breakdown. Parsing and the run
/// body are shared with `cpplookup-loadgen query`.
fn wire_query_cmd(rest: &[String]) -> ExitCode {
    use cpplookup::server::cli as server_cli;

    let parsed = match server_cli::parse_query_args(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "cpplookup-cli: {e}\nusage: cpplookup-cli {}",
                server_cli::QUERY_USAGE
            );
            return ExitCode::from(2);
        }
    };
    match server_cli::run_wire_query(&parsed) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            ExitCode::from(2)
        }
    }
}

fn layout(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let chg = &analysis.chg;
    let nv = NvLayouts::compute(chg);
    let classes: Vec<_> = match rest.first() {
        Some(name) => match chg.class_by_name(name) {
            Some(c) => vec![c],
            None => {
                eprintln!("cpplookup-cli: no class named `{name}`");
                return ExitCode::from(2);
            }
        },
        None => chg.classes().collect(),
    };
    for c in classes {
        match ObjectLayout::compute(chg, &nv, c, 1_000_000) {
            Ok(l) => {
                print!("{}", l.render(chg, &nv));
                let vt = Vtables::compute(chg, &nv, &l, &analysis.table);
                if !vt.tables().is_empty() {
                    print!("{}", vt.render(chg, &l));
                }
                println!();
            }
            Err(e) => println!("layout of {}: {e}\n", chg.class_name(c)),
        }
    }
    let dispatch = build_dispatch_map(chg, &analysis.table);
    print!("{}", dispatch.render(chg));
    ExitCode::SUCCESS
}

fn audit(analysis: &Analysis) {
    let chg = &analysis.chg;
    let stats = analysis.table.stats();
    println!(
        "{} classes, {} edges, {} member names; {} lookup entries ({} ambiguous)",
        chg.class_count(),
        chg.edge_count(),
        chg.member_name_count(),
        stats.entries,
        stats.blue
    );
    for c in chg.classes() {
        for m in analysis.table.members_of(c).collect::<Vec<_>>() {
            if matches!(analysis.table.lookup(c, m), LookupOutcome::Ambiguous { .. }) {
                println!("  ambiguous: {}::{}", chg.class_name(c), chg.member_name(m));
            }
        }
    }
    let mut worst: Vec<(usize, &str)> = chg
        .classes()
        .filter_map(|c| {
            count_subobjects(chg, c, 1_000_000)
                .ok()
                .map(|n| (n, chg.class_name(c)))
        })
        .collect();
    worst.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
    println!("largest objects by subobject count:");
    for (n, name) in worst.iter().take(5) {
        println!("  {name:<16} {n}");
    }
}
