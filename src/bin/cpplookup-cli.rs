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
//! cpplookup-cli stats  <file.cpp> [--json|--prometheus] [--backend B]
//!                                            sweep every (class, member) pair through the
//!                                            lookup engine, then dump the metrics registry
//! cpplookup-cli batch  <file.cpp> [--metrics] [--jobs N] [--serve] [--backend B]
//!                                            answer `class member` query pairs from stdin
//!                                            via the lookup engine; engine statistics
//!                                            go to stderr on exit. With --metrics,
//!                                            times every query, accepts
//!                                            `!class N` / `!member C N` /
//!                                            `!edge D B [virtual]` edit directives, and
//!                                            finishes with a JSON metrics snapshot on
//!                                            stdout (per-edit invalidation sizes included).
//!                                            --jobs N sets the table build's thread count
//!                                            (default: available parallelism). With
//!                                            --serve, queries are answered from the flat
//!                                            dispatch index published by an IndexedEngine
//!                                            (edit directives recompute their dirty pairs and
//!                                            publish a new epoch); index size and epochs
//!                                            are reported to stderr
//! cpplookup-cli compile <file.cpp> -o <out.snap> [--jobs N]
//!                                            compile the hierarchy and lookup table into a
//!                                            binary snapshot ("compile once, serve many");
//!                                            --jobs N compiles the table on N worker
//!                                            threads (byte-identical output)
//! cpplookup-cli query  <file.cpp> <class> <member> [--backend B]
//!                                            answer one lookup query
//! cpplookup-cli query  --snapshot <file.snap> <class> <member>
//!                                            the same, served straight from a snapshot
//!                                            without rebuilding the table
//! cpplookup-cli batch  --snapshot <file.snap> [--metrics] [--serve]
//!                                            batch mode over an engine warm-started from
//!                                            the snapshot's serialized entries; --serve
//!                                            serves from the flat dispatch index instead
//! cpplookup-cli stats  --snapshot <file.snap> [--json|--prometheus]
//!                                            pack the dispatch index straight from the
//!                                            snapshot and dump the metrics registry
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
//! `query`, `batch`, and `stats` answer through one of four backends
//! behind the same unified `IntoDispatchIndex` API, selected with
//! `--backend {table,engine,snapshot,index}`:
//!
//! * `table` — the freshly built immutable [`LookupTable`] (default
//!   for `query`; in `batch` it rejects edit directives),
//! * `engine` — a [`LookupEngine`] (default for `batch` and `stats`),
//! * `snapshot` — a loaded binary snapshot; spelled `--snapshot
//!   <file.snap>` since it needs the artifact path,
//! * `index` — the flat [`DispatchIndex`] packed from the table (for
//!   `batch` this is the epoch-published serve loop, alias `--serve`).
//!
//! `--snapshot`/`--serve` stay as the canonical spellings of the
//! snapshot and index backends; contradictory combinations (e.g.
//! `--snapshot` with `--backend table`) exit 2.
//!
//! Exit status: 0 on success, 1 on resolution errors (`check`) or
//! unknown query names (`batch`, `query`), 2 on usage/IO errors
//! (including snapshot integrity failures).

use std::process::ExitCode;
use std::sync::Arc;

use cpplookup::chg::dot::to_dot;
use cpplookup::chg::spec::ChgSpec;
use cpplookup::frontend::{analyze, render_all, Analysis};
use cpplookup::layout::{NvLayouts, ObjectLayout, Vtables};
use cpplookup::lookup::dispatch::build_dispatch_map;
use cpplookup::lookup::trace::{render_trace, trace_member, trace_to_dot, trace_to_json};
use cpplookup::obs;
use cpplookup::subobject::stats::count_subobjects;
use cpplookup::{
    Access, Chg, ClassId, DispatchIndex, Edit, IndexedEngine, Inheritance, LookupEngine,
    LookupOptions, LookupOutcome, LookupTable, MemberDecl, MemberId, MemberKind, ServeHandle,
    Snapshot, SnapshotTable,
};

const USAGE: &str = "usage: cpplookup-cli <check|table|trace|layout|audit|dot|export|stats|batch|compile|query> <file.cpp> [args]\n       cpplookup-cli <query|batch|stats> --snapshot <file.snap> [args]\n       cpplookup-cli <query|batch|stats> <file.cpp> --backend <table|engine|snapshot|index> [args]\n       cpplookup-cli serve [--addr HOST:PORT] [--tenant NAME=PATH]...\n       cpplookup-cli loadgen --addr HOST:PORT --snapshot PATH [args]\n       cpplookup-cli query --addr HOST:PORT --tenant NAME CLASS MEMBER [--trace]";

/// The lookup backend a `query`/`batch`/`stats` invocation answers
/// from. All four sit behind [`DispatchIndex::from_backend`]'s
/// `IntoDispatchIndex` surface; the CLI names them so the same command
/// can exercise any of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    /// The freshly built immutable [`LookupTable`].
    Table,
    /// A [`LookupEngine`] (edits allowed in `batch`).
    Engine,
    /// A loaded binary snapshot (needs the `--snapshot <path>` form).
    Snapshot,
    /// The flat [`DispatchIndex`]; in `batch`, the epoch-published
    /// serve loop (alias `--serve`).
    Index,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Table => "table",
            Backend::Engine => "engine",
            Backend::Snapshot => "snapshot",
            Backend::Index => "index",
        }
    }
}

/// Extracts an optional `--backend B` flag, returning the backend and
/// the remaining arguments.
fn parse_backend(rest: &[String]) -> Result<(Option<Backend>, Vec<String>), String> {
    let mut backend = None;
    let mut remaining = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg != "--backend" {
            remaining.push(arg.clone());
            continue;
        }
        let value = it
            .next()
            .ok_or("--backend expects one of table, engine, snapshot, index")?;
        let parsed = match value.as_str() {
            "table" => Backend::Table,
            "engine" => Backend::Engine,
            "snapshot" => Backend::Snapshot,
            "index" => Backend::Index,
            other => return Err(format!("unknown backend `{other}`")),
        };
        if backend.replace(parsed).is_some() {
            return Err("--backend given more than once".to_owned());
        }
    }
    Ok((backend, remaining))
}

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
            // `--snapshot <path>` is the canonical spelling of
            // `--backend snapshot`; naming any other backend alongside
            // it is a contradiction.
            let rest = match parse_backend(rest) {
                Ok((None | Some(Backend::Snapshot), rest)) => rest,
                Ok((Some(other), _)) => {
                    eprintln!(
                        "cpplookup-cli: --snapshot conflicts with --backend {}",
                        other.name()
                    );
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("cpplookup-cli: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match command.as_str() {
                "query" => return snapshot_query(file, &rest),
                "batch" => return snapshot_batch(file, &rest),
                "stats" => return snapshot_stats(file, &rest),
                other => {
                    eprintln!("cpplookup-cli: `{other}` does not take --snapshot\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
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
        "stats" => stats(&analysis, rest),
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

/// Resolves the pending lines' names against `chg`, answers the valid
/// queries through one `lookup` batch, and prints a verdict per line.
/// Returns whether any line failed.
fn flush_pending(
    chg: &Chg,
    pending: &mut Vec<PendingLine>,
    lookup: impl FnOnce(&[(ClassId, MemberId)]) -> Vec<LookupOutcome>,
) -> bool {
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
    let mut outcomes = lookup(&queries).into_iter();
    let mut failed = false;
    for ((label, _), slot) in pending.iter().zip(&resolved) {
        let verdict = match slot {
            Err(e) => {
                failed = true;
                format!("error: {e}")
            }
            Ok((_, m)) => match outcomes.next().expect("one outcome per valid query") {
                LookupOutcome::Resolved { class, .. } => {
                    format!("{}::{}", chg.class_name(class), chg.member_name(*m))
                }
                LookupOutcome::Ambiguous { .. } => "ambiguous".to_owned(),
                LookupOutcome::NotFound => "not found".to_owned(),
            },
        };
        println!("{label:<24} {verdict}");
    }
    pending.clear();
    failed
}

/// [`flush_pending`] through a [`LookupEngine`] batch.
fn flush_batch(engine: &LookupEngine, pending: &mut Vec<PendingLine>) -> bool {
    flush_pending(engine.chg(), pending, |queries| {
        engine.lookup_batch(queries)
    })
}

/// [`flush_pending`] through the currently published [`DispatchIndex`]:
/// the handle is loaded once per flush, exactly as a reader thread
/// would pin an epoch for a batch.
fn flush_serve(serving: &IndexedEngine, pending: &mut Vec<PendingLine>) -> bool {
    let published = serving.handle().load();
    flush_pending(serving.chg(), pending, |queries| {
        published.index().lookup_batch(queries)
    })
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

/// Applies one `!class` / `!member` / `!edge` edit directive to the
/// engine, acknowledging it on stderr.
fn apply_directive(engine: &mut LookupEngine, line: &str) -> Result<(), String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let class_id = |engine: &LookupEngine, name: &str| {
        engine
            .chg()
            .class_by_name(name)
            .ok_or_else(|| format!("no class named `{name}`"))
    };
    match words.as_slice() {
        ["!class", name] => {
            engine.add_class(name).map_err(|e| e.to_string())?;
        }
        ["!member", class, name] => {
            let c = class_id(engine, class)?;
            engine.add_member(c, name).map_err(|e| e.to_string())?;
        }
        ["!edge", derived, base, rest @ ..] => {
            let inheritance = match rest {
                [] => Inheritance::NonVirtual,
                ["virtual"] => Inheritance::Virtual,
                _ => return Err("expected `!edge DERIVED BASE [virtual]`".to_owned()),
            };
            let d = class_id(engine, derived)?;
            let b = class_id(engine, base)?;
            engine
                .add_edge(d, b, inheritance)
                .map_err(|e| e.to_string())?;
        }
        _ => {
            return Err(
                "expected `!class NAME`, `!member CLASS NAME`, or `!edge DERIVED BASE [virtual]`"
                    .to_owned(),
            )
        }
    }
    eprintln!("applied: {line}");
    Ok(())
}

/// Renders the engine's metrics snapshot as JSON with a per-edit array
/// (sizes taken from the [`obs::Event::EditApplied`] events captured by
/// the in-memory sink) spliced in.
fn metrics_json(engine: &LookupEngine, sink: &obs::MemorySink) -> String {
    let mut out = engine.metrics_snapshot().render_json();
    debug_assert!(out.ends_with('}'));
    out.pop();
    out.push_str(",\"edits\":[");
    let mut first = true;
    for event in sink.events() {
        if let obs::Event::EditApplied {
            edits,
            dirty,
            invalidated,
            recomputed,
            generation,
        } = event
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"edits\":{edits},\"dirty\":{dirty},\"invalidated\":{invalidated},\
                 \"recomputed\":{recomputed},\"generation\":{generation}}}"
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Reads whitespace-separated `class member` pairs from stdin (blank
/// lines and `#` comments skipped), answers them all through a
/// [`LookupEngine`] batch, and reports the engine's statistics to
/// stderr at the end.
///
/// With `--metrics` an event sink is installed, so every query is
/// timed, lines starting with `!` are edit directives (each one flushes
/// the buffered queries first, so lookups observe the hierarchy as of
/// their position in the stream), and a JSON metrics snapshot —
/// including per-edit dirty-set and invalidation sizes — is printed to
/// stdout at the end.
fn batch(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let (backend, rest) = match parse_backend(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = rest.iter().any(|a| a == "--metrics");
    let serve = rest.iter().any(|a| a == "--serve");
    // `--serve` is the canonical spelling of `--backend index`.
    let backend = match (backend, serve) {
        (None | Some(Backend::Index), true) => Backend::Index,
        (Some(other), true) => {
            eprintln!(
                "cpplookup-cli: --serve conflicts with --backend {}",
                other.name()
            );
            return ExitCode::from(2);
        }
        (Some(b), false) => b,
        (None, false) => Backend::Engine,
    };
    let jobs = match parse_jobs(&rest) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    match backend {
        Backend::Snapshot => {
            eprintln!(
                "cpplookup-cli: the snapshot backend needs the artifact path: \
                 `batch --snapshot <file.snap>`"
            );
            ExitCode::from(2)
        }
        Backend::Index => {
            if metrics {
                eprintln!(
                    "cpplookup-cli: --serve and --metrics are mutually exclusive \
                     (the serve loop reports index size and epochs to stderr)"
                );
                return ExitCode::from(2);
            }
            let options = LookupOptions::default();
            let table = LookupTable::build_parallel(&analysis.chg, options, jobs);
            let handle = ServeHandle::serving(table);
            serve_loop(IndexedEngine::with_handle(
                analysis.chg.clone(),
                options,
                handle,
            ))
        }
        Backend::Table => {
            if metrics {
                eprintln!(
                    "cpplookup-cli: --metrics requires the engine backend \
                     (the table backend is immutable and untimed)"
                );
                return ExitCode::from(2);
            }
            table_loop(analysis)
        }
        Backend::Engine => {
            let table = LookupTable::build_parallel(&analysis.chg, LookupOptions::default(), jobs);
            batch_loop(
                LookupEngine::from_table(analysis.chg.clone(), table),
                metrics,
            )
        }
    }
}

/// Parses an optional `--jobs N` flag (N ≥ 1), the number of threads
/// that build the table; absent means one per available hardware thread.
fn parse_jobs(rest: &[String]) -> Result<usize, String> {
    match rest.iter().position(|a| a == "--jobs") {
        None => Ok(std::thread::available_parallelism().map_or(1, usize::from)),
        Some(i) => match rest.get(i + 1).map(|n| n.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => Ok(n),
            _ => Err("--jobs expects a thread count of at least 1".to_owned()),
        },
    }
}

/// The stdin query loop shared by source-backed and snapshot-backed
/// batch modes.
fn batch_loop(mut engine: LookupEngine, metrics: bool) -> ExitCode {
    use std::io::BufRead;

    let sink = Arc::new(obs::MemorySink::new());
    if metrics {
        engine.set_event_sink(Some(sink.clone()));
    }

    let mut pending: Vec<PendingLine> = Vec::new();
    let mut failed = false;
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
            failed |= flush_batch(&engine, &mut pending);
            if !metrics {
                println!("{line:<24} error: edit directives require --metrics");
                failed = true;
            } else if let Err(e) = apply_directive(&mut engine, line) {
                println!("{line:<24} error: {e}");
                failed = true;
            }
            continue;
        }
        pending.push(parse_query_line(line));
    }
    failed |= flush_batch(&engine, &mut pending);

    if metrics {
        println!("{}", metrics_json(&engine, &sink));
    }
    eprintln!("{}", engine.stats());
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// The stdin loop for `--backend table`: queries are answered straight
/// from the freshly built immutable [`LookupTable`] — no engine, no
/// cache, no edits. Edit directives are rejected per line (the rest of
/// the stream still runs) so a mixed script degrades loudly, not
/// silently.
fn table_loop(analysis: &Analysis) -> ExitCode {
    use std::io::BufRead;

    let flush = |pending: &mut Vec<PendingLine>| {
        flush_pending(&analysis.chg, pending, |queries| {
            queries
                .iter()
                .map(|&(c, m)| analysis.table.lookup(c, m))
                .collect()
        })
    };
    let mut pending: Vec<PendingLine> = Vec::new();
    let mut failed = false;
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
            // The directive itself is the failure; the flush verdicts
            // still print so preceding queries get their answers.
            flush(&mut pending);
            println!("{line:<24} error: edit directives require the engine or index backend");
            failed = true;
            continue;
        }
        pending.push(parse_query_line(line));
    }
    failed |= flush(&mut pending);
    let stats = analysis.table.stats();
    eprintln!(
        "table backend: {} classes, {} lookup entries ({} ambiguous)",
        analysis.chg.class_count(),
        stats.entries,
        stats.blue
    );
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
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

/// The stdin loop for `--serve`: queries are answered from the flat
/// [`DispatchIndex`] pinned off the [`IndexedEngine`]'s serve handle —
/// exactly what a reader thread would serve from — and `!` edit
/// directives go through [`IndexedEngine::apply`] (dirty-pair
/// recompute, index refresh, atomic republish), so queries after a
/// directive observe the new epoch.
fn serve_loop(mut serving: IndexedEngine) -> ExitCode {
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
    let mut failed = false;
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
            // Flush first so buffered lookups observe the hierarchy as
            // of their position in the stream, like `--metrics` mode.
            failed |= flush_serve(&serving, &mut pending);
            match parse_edit(serving.chg(), line)
                .and_then(|edit| serving.apply(&[edit]).map_err(|e| e.to_string()))
            {
                Ok(epoch) => eprintln!("applied: {line} (epoch {epoch})"),
                Err(e) => {
                    println!("{line:<24} error: {e}");
                    failed = true;
                }
            }
            continue;
        }
        pending.push(parse_query_line(line));
    }
    failed |= flush_serve(&serving, &mut pending);

    let published = handle.load();
    eprintln!(
        "served epoch {}: {} entries, {} bytes",
        published.epoch(),
        published.index().entry_count(),
        published.index().size_bytes()
    );
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `compile <file.cpp> -o <out.snap> [--jobs N]`: compiles the lookup
/// table with the work-stealing parallel sweep (default: one worker per
/// hardware thread — the output is byte-identical at any thread count)
/// and serializes table + hierarchy into a binary snapshot.
fn compile(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let usage = "usage: cpplookup-cli compile <file.cpp> -o <out.snap> [--jobs N]";
    let out = match rest.iter().position(|a| a == "-o") {
        Some(i) => match rest.get(i + 1) {
            Some(out) => out,
            None => {
                eprintln!("{usage}");
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let jobs = match parse_jobs(rest) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let snap = if jobs == 1 {
        Snapshot::from_table(&analysis.chg, &analysis.table)
    } else {
        Snapshot::compile_parallel(&analysis.chg, analysis.table.options(), jobs)
    };
    match snap.write_to(out) {
        Ok(()) => {
            eprintln!(
                "wrote {out}: {} bytes ({} classes, {} entries, {jobs} jobs)",
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
    class_name_of: impl Fn(cpplookup::ClassId) -> String,
) -> String {
    match outcome {
        LookupOutcome::Resolved { class, .. } => {
            format!("{}::{member}", class_name_of(class))
        }
        LookupOutcome::Ambiguous { .. } => "ambiguous".to_owned(),
        LookupOutcome::NotFound => "not found".to_owned(),
    }
}

/// `query <file.cpp> <class> <member> [--backend B]`: one lookup,
/// answered by the chosen backend (default: the freshly built table).
/// All three source-backed backends go through the same names and must
/// agree; the flag exists to exercise any one of them on demand.
fn query(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let (backend, rest) = match parse_backend(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    let [class, member] = rest.as_slice() else {
        eprintln!("usage: cpplookup-cli query <file.cpp> <class> <member> [--backend B]");
        return ExitCode::from(2);
    };
    let chg = &analysis.chg;
    let (Some(c), Some(m)) = (chg.class_by_name(class), chg.member_by_name(member)) else {
        eprintln!("cpplookup-cli: unknown class or member `{class}::{member}`");
        return ExitCode::from(1);
    };
    let outcome = match backend.unwrap_or(Backend::Table) {
        Backend::Snapshot => {
            eprintln!(
                "cpplookup-cli: the snapshot backend needs the artifact path: \
                 `query --snapshot <file.snap> <class> <member>`"
            );
            return ExitCode::from(2);
        }
        Backend::Table => analysis.table.lookup(c, m),
        Backend::Engine => {
            let engine = LookupEngine::new(analysis.chg.clone());
            engine.lookup_batch(&[(c, m)]).remove(0)
        }
        Backend::Index => DispatchIndex::from_backend(analysis.table.clone()).lookup(c, m),
    };
    let verdict = render_verdict(outcome, member, |c| chg.class_name(c).to_owned());
    println!("{:<24} {verdict}", format!("{class}::{member}"));
    ExitCode::SUCCESS
}

/// `query --snapshot <file.snap> <class> <member>`: the same verdict,
/// served straight from the validated snapshot bytes — no table build.
fn snapshot_query(file: &str, rest: &[String]) -> ExitCode {
    let [class, member] = rest else {
        eprintln!("usage: cpplookup-cli query --snapshot <file.snap> <class> <member>");
        return ExitCode::from(2);
    };
    let snap = match SnapshotTable::load(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    let (Some(c), Some(m)) = (snap.class_by_name(class), snap.member_by_name(member)) else {
        eprintln!("cpplookup-cli: unknown class or member `{class}::{member}`");
        return ExitCode::from(1);
    };
    let verdict = render_verdict(SnapshotTable::lookup(&snap, c, m), member, |c| {
        snap.class_name(c).unwrap_or("?").to_owned()
    });
    println!("{:<24} {verdict}", format!("{class}::{member}"));
    ExitCode::SUCCESS
}

/// `batch --snapshot <file.snap>`: the batch loop over an engine whose
/// table is seeded from the snapshot's entries, so nothing is built.
/// With `--serve`, the index the snapshot file holds is served and
/// edited directly, with no table beside it.
fn snapshot_batch(file: &str, rest: &[String]) -> ExitCode {
    let metrics = rest.iter().any(|a| a == "--metrics");
    let serve = rest.iter().any(|a| a == "--serve");
    if serve && metrics {
        eprintln!(
            "cpplookup-cli: --serve and --metrics are mutually exclusive \
             (the serve loop reports index size and epochs to stderr)"
        );
        return ExitCode::from(2);
    }
    let snap = match SnapshotTable::load(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    if serve {
        let chg = match snap.to_chg() {
            Ok(g) => g,
            Err(e) => {
                eprintln!("cpplookup-cli: {e}");
                return ExitCode::from(2);
            }
        };
        let handle = ServeHandle::serving(&snap);
        return serve_loop(IndexedEngine::with_handle(chg, snap.options(), handle));
    }
    let engine = match snap.warm_engine() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "warm start: {} entries seeded from {} ({} bytes)",
        snap.entry_count(),
        file,
        snap.size_bytes()
    );
    batch_loop(engine, metrics)
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

/// Sweeps every `(class, member)` pair through a [`LookupEngine`] with
/// a counting event sink installed, so every query is timed and the
/// metrics registry has something to say, then
/// dumps the engine's registry merged with the process-global one
/// (propagation counters, baseline query counts) in the requested
/// format.
fn stats(analysis: &Analysis, rest: &[String]) -> ExitCode {
    let (backend, rest) = match parse_backend(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    let backend = backend.unwrap_or(Backend::Engine);
    if backend == Backend::Snapshot {
        eprintln!(
            "cpplookup-cli: the snapshot backend needs the artifact path: \
             `stats --snapshot <file.snap>`"
        );
        return ExitCode::from(2);
    }
    let engine = LookupEngine::new(analysis.chg.clone());
    engine.set_event_sink(Some(Arc::new(obs::CountingSink::new())));
    let chg = engine.chg();
    let queries: Vec<_> = chg
        .classes()
        .flat_map(|c| chg.member_ids().map(move |m| (c, m)))
        .collect();
    engine.lookup_batch(&queries);

    // Pack the chosen backend into a dispatch index through the unified
    // `IntoDispatchIndex` surface so the serve-side build metrics
    // (index size, entry count, build time) appear in the dump. Every
    // backend packs the same entries; the flag picks which impl runs.
    let index = match backend {
        Backend::Engine => DispatchIndex::from_backend(&engine),
        Backend::Table => DispatchIndex::from_backend(analysis.table.clone()),
        Backend::Index => {
            // The identity impl: an already packed index passes through.
            DispatchIndex::from_backend(DispatchIndex::from_backend(analysis.table.clone()))
        }
        Backend::Snapshot => unreachable!("rejected above"),
    };
    eprintln!(
        "dispatch index: {} entries, {} bytes ({:.1} bytes/entry)",
        index.entry_count(),
        index.size_bytes(),
        index.bytes_per_entry()
    );

    let mut snapshot = engine.metrics_snapshot();
    snapshot.extend(obs::global().snapshot());
    render_metrics(&snapshot, &rest);
    ExitCode::SUCCESS
}

/// Prints a metrics snapshot in the format chosen by
/// `--json`/`--prometheus` (default: plain text).
fn render_metrics(snapshot: &obs::Snapshot, rest: &[String]) {
    if rest.iter().any(|a| a == "--json") {
        println!("{}", snapshot.render_json());
    } else if rest.iter().any(|a| a == "--prometheus") {
        print!("{}", snapshot.render_prometheus());
    } else {
        print!("{}", snapshot.render_text());
    }
}

/// `stats --snapshot <file.snap>`: serve the dispatch index straight
/// from the loaded snapshot bytes (the `&SnapshotTable` backend — no
/// table rebuild, no engine, no repacking) and dump the process-global
/// metrics registry.
fn snapshot_stats(file: &str, rest: &[String]) -> ExitCode {
    let snap = match SnapshotTable::load(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpplookup-cli: {e}");
            return ExitCode::from(2);
        }
    };
    let index = DispatchIndex::from_backend(&snap);
    eprintln!(
        "dispatch index: {} entries, {} bytes ({:.1} bytes/entry)",
        index.entry_count(),
        index.size_bytes(),
        index.bytes_per_entry()
    );
    render_metrics(&obs::global().snapshot(), rest);
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
