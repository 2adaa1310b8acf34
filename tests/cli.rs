//! End-to-end tests of the `cpplookup-cli` binary.

use std::io::Write as _;
use std::process::Command;

const FIG9: &str = "struct S { int m; };\n\
                    struct A : virtual S { int m; };\n\
                    struct B : virtual S { int m; };\n\
                    struct C : virtual A, virtual B { int m; };\n\
                    struct D : C {};\n\
                    struct E : virtual A, virtual B, D {};\n\
                    int main() { E e; e.m = 10; }\n";

fn write_temp(contents: &str) -> std::path::PathBuf {
    // A per-call counter keeps paths unique even when two parallel
    // tests write the same fixture — keying on the content length alone
    // lets one test's cleanup delete a file another is still compiling.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "cpplookup-cli-test-{}-{}.cpp",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cpplookup-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn check_reports_clean_fig9() {
    let path = write_temp(FIG9);
    let (stdout, _, code) = run(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("ok: C::m"), "{stdout}");
    assert!(stdout.contains("no diagnostics"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_flags_ambiguity_with_exit_code_1() {
    let src = "struct A { int m; };\n\
               struct B : A {}; struct C : A {};\n\
               struct D : B, C {};\n\
               int main() { D d; d.m; }\n";
    let path = write_temp(src);
    let (stdout, _, code) = run(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("ambiguous"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn table_trace_layout_audit_dot_all_work() {
    let path = write_temp(FIG9);
    let p = path.to_str().unwrap();

    let (stdout, _, code) = run(&["table", p]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("E:"), "{stdout}");
    assert!(stdout.contains("C::m"));

    let (stdout, _, code) = run(&["trace", p, "m"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("=> red (C, Ω)"), "{stdout}");

    let (stdout, _, code) = run(&["trace", p, "m", "--dot"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("digraph trace"));

    let (stdout, _, code) = run(&["layout", p, "E"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("layout of E"), "{stdout}");
    assert!(stdout.contains("S in E"));

    let (stdout, _, code) = run(&["audit", p]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("largest objects"), "{stdout}");

    let (stdout, _, code) = run(&["dot", p]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("digraph chg"));

    let _ = std::fs::remove_file(path);
}

fn run_with_stdin(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cpplookup-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A child that refuses its input (e.g. a corrupt snapshot) may exit
    // before reading stdin; the resulting EPIPE is not a test failure —
    // the exit code and stderr below are what's under test.
    match child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn batch_answers_queries_and_prints_engine_stats() {
    let path = write_temp(FIG9);
    let queries = "# fig9 queries\n\
                   E m\n\
                   C m\n\
                   S m\n\n";
    let (stdout, stderr, code) = run_with_stdin(&["batch", path.to_str().unwrap()], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("E::m") && stdout.contains("C::m"),
        "{stdout}"
    );
    assert!(stdout.contains("S::m"), "{stdout}");
    // The serving engine's index and counts land on stderr.
    assert!(stderr.contains("serve index: 6 entries"), "{stderr}");
    assert!(
        stderr.contains("served epoch 0: 3 queries, 0 edits; 6 entries"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_flags_unknown_names_with_exit_code_1() {
    let path = write_temp(FIG9);
    let queries = "E m\nNoSuchClass m\nE nosuchmember\nmalformed\n";
    let (stdout, stderr, code) = run_with_stdin(&["batch", path.to_str().unwrap()], queries);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stdout.contains("no class named `NoSuchClass`"), "{stdout}");
    assert!(
        stdout.contains("no member named `nosuchmember`"),
        "{stdout}"
    );
    assert!(stdout.contains("expected `class member`"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn usage_errors_exit_2() {
    let (_, stderr, code) = run(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));

    let path = write_temp(FIG9);
    let (_, stderr, code) = run(&["frobnicate", path.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));

    let (_, stderr, code) = run(&["check", "/nonexistent/nope.cpp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("cannot read"));

    let (_, stderr, code) = run(&["trace", path.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_json_is_machine_readable() {
    let path = write_temp(FIG9);
    let (stdout, _, code) = run(&["trace", path.to_str().unwrap(), "m", "--json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("{\"member\":\"m\""), "{stdout}");
    assert!(stdout.contains("\"class\":\"E\""), "{stdout}");
    assert!(
        stdout.contains("\"kind\":\"red\",\"ldc\":\"C\""),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches('{').count(),
        stdout.matches('}').count(),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn stats_dumps_the_metrics_registry_in_every_format() {
    let path = write_temp(FIG9);
    let p = path.to_str().unwrap();

    let (stdout, stderr, code) = run(&["stats", p]);
    assert_eq!(code, Some(0));
    assert!(stderr.contains("dispatch index: 6 entries"), "{stderr}");
    assert!(
        stdout.contains("propagation_nodes_visited_total"),
        "{stdout}"
    );
    assert!(stdout.contains("serve_index_builds_total"), "{stdout}");
    assert!(!stdout.contains("shard"), "{stdout}");

    let (stdout, _, code) = run(&["stats", p, "--json"]);
    assert_eq!(code, Some(0));
    assert!(stdout.trim_end().starts_with("{\"metrics\":["), "{stdout}");
    assert!(
        stdout.contains("{\"name\":\"serve_index_entries\",\"type\":\"gauge\",\"value\":6}"),
        "{stdout}"
    );

    let (stdout, _, code) = run(&["stats", p, "--prometheus"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("# TYPE propagation_nodes_visited_total counter"),
        "{stdout}"
    );

    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_metrics_emits_json_snapshot_and_applies_edit_directives() {
    let path = write_temp(FIG9);
    let script = "E m\n\
                  E m\n\
                  !member E fresh\n\
                  E fresh\n\
                  # comment survives\n\
                  C m\n";
    let (stdout, stderr, code) =
        run_with_stdin(&["batch", path.to_str().unwrap(), "--metrics"], script);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    // Queries before the edit see the old hierarchy, after it the new one.
    assert!(stdout.contains("E::fresh"), "{stdout}");
    assert!(
        stderr.contains("applied: !member E fresh (epoch 1)"),
        "{stderr}"
    );
    // The final stdout line is the process metrics as JSON: the 4
    // queries were answered from the index...
    let json = stdout.lines().last().expect("snapshot line");
    assert!(json.starts_with("{\"metrics\":["), "{json}");
    assert!(
        json.contains("\"label\":\"backend\",\"series\":[{\"value\":\"index\",\"count\":4}]"),
        "{json}"
    );
    // ...the table was built once, by the analysis...
    assert!(
        json.contains("\"name\":\"build_seconds\",\"type\":\"histogram\",\"count\":1,"),
        "{json}"
    );
    // ...and the one edit refreshed the index over its dirty set: the
    // fresh member in E, which has no derived classes, dirties one pair.
    assert!(
        json.contains(
            "\"name\":\"serve_index_refresh_dirty_pairs\",\"type\":\"histogram\",\"count\":1,\"sum\":1,"
        ),
        "{json}"
    );
    assert!(
        json.contains("{\"name\":\"serve_index_epoch\",\"type\":\"gauge\",\"value\":1}"),
        "{json}"
    );
    let _ = std::fs::remove_file(path);
}

fn temp_snap_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "cpplookup-cli-test-{}-{tag}.snap",
        std::process::id()
    ));
    path
}

#[test]
fn compile_then_query_snapshot_answers_without_source() {
    let src = write_temp(FIG9);
    let snap = temp_snap_path("roundtrip");
    let (_, stderr, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("wrote") && stderr.contains("classes"),
        "{stderr}"
    );

    // The serve-many side needs only the snapshot: Fig. 9's famous
    // verdict (E::m resolves to C) comes straight off the bytes.
    let (stdout, stderr, code) = run(&["query", "--snapshot", snap.to_str().unwrap(), "E", "m"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("E::m") && stdout.contains("C::m"),
        "{stdout}"
    );

    // And it agrees verbatim with compiling the source on the spot.
    let (from_source, _, code) = run(&["query", src.to_str().unwrap(), "E", "m"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, from_source);

    let (_, stderr, code) = run(&["query", "--snapshot", snap.to_str().unwrap(), "E", "nope"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown class or member"), "{stderr}");

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

/// `compile` writes the table the analysis built; the bytes equal a
/// compile of a parallel build at any thread count, and the retired
/// `--jobs` flag is a usage error.
#[test]
fn compile_jobs_is_byte_identical_and_validated() {
    use cpplookup::{LookupOptions, LookupTable, Snapshot};

    let src = write_temp(FIG9);
    let out = temp_snap_path("jobs");
    let (_, stderr, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let written = std::fs::read(&out).expect("read snapshot");
    let g = cpplookup::frontend::analyze(FIG9).chg;
    for jobs in [1, 3] {
        let table = LookupTable::build_parallel(&g, LookupOptions::default(), jobs);
        let expected = Snapshot::from_table(&g, &table);
        assert_eq!(written, expected.as_bytes(), "jobs={jobs}");
    }

    for bad in [&["--jobs", "3"][..], &["--jobs"][..]] {
        let mut args = vec!["compile", src.to_str().unwrap(), "-o", "ignored.snap"];
        args.extend_from_slice(bad);
        let (_, stderr, code) = run(&args);
        assert_eq!(code, Some(2), "stderr: {stderr}");
        assert!(stderr.contains("usage: cpplookup-cli compile"), "{stderr}");
    }
    assert!(!std::path::Path::new("ignored.snap").exists());

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(out);
}

#[test]
fn stats_reports_build_strategy_and_build_time() {
    let path = write_temp(FIG9);
    let p = path.to_str().unwrap();

    let (stdout, _, code) = run(&["stats", p]);
    assert_eq!(code, Some(0));
    // The analysis builds the table with the batched builder, and the
    // build wall time is part of the dump.
    assert!(
        stdout.contains("build_nodes_visited_total{strategy=\"batched\"}"),
        "{stdout}"
    );
    assert!(stdout.contains("build_seconds"), "{stdout}");

    // One build only: `stats` packs the table the analysis built.
    let (stdout, _, code) = run(&["stats", p, "--json"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("\"name\":\"build_nodes_visited_total\",\"type\":\"counter\",\"label\":\"strategy\",\"series\":[{\"value\":\"batched\","),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"name\":\"build_seconds\",\"type\":\"histogram\",\"count\":1,"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_from_snapshot_warm_starts_the_engine() {
    let src = write_temp(FIG9);
    let snap = temp_snap_path("warm");
    let (_, _, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    let (stdout, stderr, code) = run_with_stdin(
        &["batch", "--snapshot", snap.to_str().unwrap(), "--metrics"],
        "E m\nC m\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("E::m") && stdout.contains("C::m"),
        "{stdout}"
    );
    assert!(stderr.contains("warm start:"), "{stderr}");
    assert!(stderr.contains("entries seeded"), "{stderr}");
    // Both answers come from the file's own index: it was loaded once
    // and no table was built.
    let json = stdout.lines().last().expect("metrics snapshot line");
    assert!(
        json.contains("{\"name\":\"snapshot_loads_total\",\"type\":\"counter\",\"value\":1}"),
        "{json}"
    );
    assert!(!json.contains("\"name\":\"build_seconds\""), "{json}");
    assert!(
        json.contains("\"label\":\"source\",\"series\":[{\"value\":\"snapshot\",\"count\":1}]"),
        "{json}"
    );
    assert!(
        json.contains("\"label\":\"backend\",\"series\":[{\"value\":\"index\",\"count\":2}]"),
        "{json}"
    );

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn corrupt_snapshots_are_refused_with_exit_code_2() {
    let src = write_temp(FIG9);
    let snap = temp_snap_path("corrupt");
    let (_, _, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    // Flip one byte in the middle of the file.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    std::fs::write(&snap, &bytes).expect("write damaged snapshot");

    let (stdout, stderr, code) = run(&["query", "--snapshot", snap.to_str().unwrap(), "E", "m"]);
    assert_eq!(code, Some(2), "stdout: {stdout} stderr: {stderr}");
    assert!(stderr.contains("checksum"), "{stderr}");

    let (_, stderr, code) =
        run_with_stdin(&["batch", "--snapshot", snap.to_str().unwrap()], "E m\n");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("checksum"), "{stderr}");

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn snapshot_flag_usage_errors_exit_2() {
    let src = write_temp(FIG9);
    // --snapshot only applies to query and batch.
    let (_, stderr, code) = run(&["check", "--snapshot", "whatever.snap"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("does not take --snapshot"), "{stderr}");

    // compile requires an output path.
    let (_, stderr, code) = run(&["compile", src.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"), "{stderr}");

    // A snapshot that is not there is an I/O error, not a crash.
    let (_, stderr, code) = run(&["query", "--snapshot", "/nonexistent/nope.snap", "E", "m"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("nope.snap"), "{stderr}");
    let _ = std::fs::remove_file(src);
}

/// The two backends the CLI has left — the table built from source and
/// a compiled snapshot — answer `query` and `batch` identically.
#[test]
fn backend_flag_answers_identically_across_backends() {
    let src = write_temp(FIG9);
    let p = src.to_str().unwrap();
    let (reference, _, code) = run(&["query", p, "E", "m"]);
    assert_eq!(code, Some(0));
    assert!(reference.contains("C::m"), "{reference}");

    let snap = temp_snap_path("backend-equiv");
    let (_, _, code) = run(&["compile", p, "-o", snap.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    let (stdout, _, code) = run(&["query", "--snapshot", snap.to_str().unwrap(), "E", "m"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, reference);
    for args in [
        &["batch", p][..],
        &["batch", "--snapshot", snap.to_str().unwrap()],
    ] {
        let (stdout, stderr, code) = run_with_stdin(args, "E m\n");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert_eq!(stdout, reference, "{args:?}");
    }

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

/// One directive script, fed to `batch` over the source and over the
/// snapshot compiled from it, prints byte-identical answers: both run
/// the same loop over the same index.
#[test]
fn batch_script_answers_identically_from_source_and_snapshot() {
    let src = write_temp(FIG9);
    let p = src.to_str().unwrap();
    let snap = temp_snap_path("script-equiv");
    let (_, _, code) = run(&["compile", p, "-o", snap.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    let script = "E m\n\
                  !class F\n\
                  !edge F E virtual\n\
                  F m\n\
                  !member D m\n\
                  E m\n\
                  F m\n\
                  !edge A F\n\
                  !member Nope x\n\
                  bogus line here\n\
                  NoSuch m\n\
                  !member F late\n\
                  F late\n";
    let (from_source, source_err, code) = run_with_stdin(&["batch", p], script);
    assert_eq!(code, Some(1), "{source_err}");
    let (from_snapshot, snapshot_err, code) =
        run_with_stdin(&["batch", "--snapshot", snap.to_str().unwrap()], script);
    assert_eq!(code, Some(1), "{snapshot_err}");
    assert_eq!(from_source, from_snapshot);
    assert!(from_source.contains("F::late"), "{from_source}");
    assert!(from_source.contains("!edge A F"), "{from_source}");
    let last_line = |s: &str| s.lines().last().unwrap_or_default().to_owned();
    assert_eq!(last_line(&source_err), last_line(&snapshot_err));

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

/// The backend, serve and thread-count flags are gone: `query`,
/// `batch`, `stats` and `compile` have one path each, and naming a
/// retired flag is a usage error rather than a silently ignored word.
#[test]
fn backend_arg_conflicts_exit_2() {
    let src = write_temp(FIG9);
    let p = src.to_str().unwrap();

    for args in [
        &["query", p, "E", "m", "--backend", "table"][..],
        &[
            "query",
            "--snapshot",
            "whatever.snap",
            "E",
            "m",
            "--backend",
            "snapshot",
        ],
        &["stats", p, "--backend", "engine"],
        &["stats", p, "--json", "--prometheus"],
    ] {
        let (_, stderr, code) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage") || stderr.contains("whatever.snap"),
            "{args:?}: {stderr}"
        );
    }
    for flags in [
        &["--serve"][..],
        &["--backend", "index"],
        &["--jobs", "2"],
        &["--metrics", "--serve"],
    ] {
        let mut args = vec!["batch", p];
        args.extend_from_slice(flags);
        let (stdout, stderr, code) = run_with_stdin(&args, "E m\n");
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cpplookup-cli batch"), "{stderr}");
        assert!(stdout.is_empty(), "{stdout}");
    }

    let _ = std::fs::remove_file(src);
}

#[test]
fn batch_answers_around_rejected_edits() {
    let path = write_temp(FIG9);
    let (stdout, stderr, code) = run_with_stdin(
        &["batch", path.to_str().unwrap()],
        "E m\n!edge A E\n!member Nope x\n!frobnicate\nC m\n",
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stdout.contains("E::m") && stdout.contains("C::m"),
        "{stdout}"
    );
    assert!(stdout.contains("cycle"), "{stdout}");
    assert!(stdout.contains("no class named `Nope`"), "{stdout}");
    assert!(stdout.contains("expected `!class NAME`"), "{stdout}");
    // No edit was applied, so no epoch was published.
    assert!(
        stderr.contains("served epoch 0: 2 queries, 0 edits"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn stats_over_snapshot_packs_the_index_from_the_bytes() {
    let src = write_temp(FIG9);
    let snap = temp_snap_path("stats");
    let (_, _, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    let (stdout, from_snapshot, code) = run(&[
        "stats",
        "--snapshot",
        snap.to_str().unwrap(),
        "--prometheus",
    ]);
    assert_eq!(code, Some(0), "stderr: {from_snapshot}");
    assert!(stdout.contains("snapshot_loads_total"), "{stdout}");
    assert!(stdout.contains("serve_index_builds_total"), "{stdout}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("build_seconds")),
        "no table build: {stdout}"
    );

    // Source-backed stats packs the analysis' table into the same index
    // shape.
    let (_, from_source, code) = run(&["stats", src.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    let index_line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("dispatch index:"))
            .expect("index line")
            .to_owned()
    };
    assert_eq!(index_line(&from_source), index_line(&from_snapshot));

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn serve_and_loadgen_subcommands_front_the_server_crate() {
    use std::io::BufRead as _;
    use std::process::Stdio;

    let src = write_temp(FIG9);
    let snap = temp_snap_path("serve-sub");
    let (_, _, code) = run(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    let mut server = Command::new(env!("CARGO_BIN_EXE_cpplookup-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--tenant",
            &format!("t0={}", snap.display()),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut line = String::new();
    std::io::BufReader::new(server.stderr.take().expect("piped stderr"))
        .read_line(&mut line)
        .expect("read announcement");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_owned();

    let (stdout, stderr, code) = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--snapshot",
        snap.to_str().unwrap(),
        "--connections",
        "2",
        "--duration-secs",
        "0.3",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("req/s") && stdout.contains("0 errors"),
        "{stdout}"
    );

    server.kill().expect("kill server");
    let _ = server.wait();

    // Bad flags are usage errors on both subcommands.
    let (_, stderr, code) = run(&["serve", "--wat"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage: cpplookup-cli serve"), "{stderr}");
    let (_, stderr, code) = run(&["loadgen", "--addr", "h:1"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--snapshot is required"), "{stderr}");

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn batch_applies_directives_without_metrics_flag() {
    let path = write_temp(FIG9);
    let (stdout, stderr, code) =
        run_with_stdin(&["batch", path.to_str().unwrap()], "!class X\nX m\nE m\n");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("applied: !class X (epoch 1)"), "{stderr}");
    assert!(stdout.contains("X::m"), "{stdout}");
    assert!(stdout.contains("not found"), "{stdout}");
    assert!(stdout.contains("C::m"), "{stdout}");
    // Without --metrics no JSON line follows the answers.
    assert!(!stdout.contains("{\"metrics\""), "{stdout}");
    let _ = std::fs::remove_file(path);
}
