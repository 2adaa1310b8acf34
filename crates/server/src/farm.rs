//! The tenant farm: many hierarchies, one server.
//!
//! Each tenant has two lifecycle stages:
//!
//! ```text
//!           LOAD                                   first EDIT
//! (nothing) ────► loaded ─────────────────────────────────────► live
//!                 validated file; its index, whose byte      hierarchy rebuilt,
//!                 columns are the file's own, published      SAME index and
//!                 as epoch 0 on the tenant's ServeHandle     ServeHandle,
//!                                                            republished
//! ```
//!
//! LOAD validates the [`SnapshotTable`] and publishes the index it
//! holds, through the backend-generic
//! [`IntoDispatchIndex`](cpplookup_core::IntoDispatchIndex) surface — a
//! reference-count bump, nothing is decoded or packed (a version-1 or
//! -2 file decodes its entries into the same index at load). The first
//! edit rebuilds the hierarchy, republishes that index, unrepacked, as
//! epoch 1 for an [`IndexedEngine`] on the same handle, and releases
//! the loaded file: the retained epochs keep whatever buffers they
//! still share. The index is the only table the tenant keeps: each
//! edit recomputes its dirty pairs from it, and compaction writes it
//! (its pool compacted), with the live hierarchy, as the tenant's
//! checkpoint.
//!
//! Every read — a QUERY is a batch of one — goes through one core,
//! [`Tenant::read_into`]: resolve the borrowed names into a reused id
//! buffer, load the publication, probe the directory in one batch, and
//! write each borrowed outcome straight into the reply, naming its
//! classes from the tenant's name table. The server calls it through
//! [`Farm::answer`] with a [`ReadView`] over the request frame, so a
//! warmed connection answers a read of any size with no allocation;
//! the owned [`Farm::read`], [`Farm::query`] and [`Farm::batch`] decode
//! the same reply bytes. A read never locks the file or the write
//! path: it loads the publication from the handle, whatever the stage.

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cpplookup_chg::fxmap::FxHashMap;
use cpplookup_chg::{Chg, ClassId, Edit, Inheritance, MemberDecl, MemberId, MemberKind};
use cpplookup_core::{IndexedEngine, LeastVirtual, OutcomeRef, ServeHandle};
use cpplookup_snapshot::{Snapshot, SnapshotTable};
use cpplookup_wal::{Stamped, WalRecord, WalStore};

use crate::metrics::ServerMetrics;
use crate::names::{NameTable, STRIPE};
use crate::protocol::{op, Enc, ErrorCode, ReadView, Response, WireOutcome};

/// A request-level failure: the structured code plus a human message.
pub type FarmError = (ErrorCode, String);

/// Phase boundaries captured inside every read, as instants: after
/// name resolution, after the publication to answer from was loaded
/// (the trace's `promotion_wait` phase), and after the directory probe.
/// Together with the caller's own decode stamp and the instant the
/// outcomes are written, these partition a request end-to-end.
#[derive(Clone, Copy, Debug)]
pub struct ProbeTiming {
    /// Names resolved to ids (includes the tenant-map lookup).
    pub resolved: Instant,
    /// The current publication, or the as-of read's retained epoch,
    /// loaded.
    pub published: Instant,
    /// Directory probed; the outcomes are borrowed, not yet written.
    pub probed: Instant,
}

/// The buffers the read core reuses from one read to the next — one
/// per connection — so a warmed reader resolves and probes without
/// allocating.
#[derive(Default)]
pub struct ReadScratch {
    ids: Vec<(ClassId, MemberId)>,
    /// Empty between reads: only its capacity carries over.
    refs: Vec<OutcomeRef<'static>>,
}

/// Empties `refs` and hands back its allocation for outcomes of another
/// borrow. `OutcomeRef`s of every lifetime share one layout, so the
/// in-place `collect` keeps the buffer; the map never runs.
fn reuse<'b>(mut refs: Vec<OutcomeRef<'_>>) -> Vec<OutcomeRef<'b>> {
    refs.clear();
    refs.into_iter()
        .map(|_| -> OutcomeRef<'b> { unreachable!("cleared") })
        .collect()
}

/// Name ↔ id mapping for one tenant. Hierarchies only grow and ids are
/// dense and append-only, so an edit interns just the name it adds
/// ([`intern`](Names::intern)); queries only take the read lock.
#[derive(Clone)]
struct Names {
    classes: NameTable,
    members: NameTable,
}

impl Names {
    fn from_snapshot(table: &SnapshotTable) -> Names {
        let mut n = Names {
            classes: NameTable::with_capacity(table.class_count()),
            members: NameTable::with_capacity(table.member_name_count()),
        };
        for i in 0..table.class_count() {
            n.classes
                .push(table.class_name(ClassId::from_index(i)).unwrap_or_default());
        }
        for i in 0..table.member_name_count() {
            n.members.push(
                table
                    .member_name(MemberId::from_index(i))
                    .unwrap_or_default(),
            );
        }
        n
    }

    /// Records the name `edit` introduces, if it is new, under the id
    /// the hierarchy gives it: the next dense class or member index,
    /// exactly as `ChgBuilder` assigns them. Call it once per accepted
    /// edit, in apply order.
    fn intern(&mut self, edit: &Edit) {
        match edit {
            Edit::AddClass { name } if self.classes.get(name).is_none() => {
                self.classes.push(name);
            }
            Edit::AddMember { name, .. } if self.members.get(name).is_none() => {
                self.members.push(name);
            }
            _ => {}
        }
    }

    /// Whether these names cover exactly `chg`'s class and member ids.
    fn in_step_with(&self, chg: &Chg) -> bool {
        self.classes.len() == chg.class_count() && self.members.len() == chg.member_name_count()
    }

    fn class(&self, name: &str) -> Result<ClassId, FarmError> {
        self.classes
            .get(name)
            .map(ClassId::from_index)
            .ok_or_else(|| unknown("class", name))
    }

    /// Resolves `probes` in order into `ids`, a stripe at a time (see
    /// [`NameTable::get_stripe`]), failing on the first unknown name —
    /// a probe's class before its member.
    fn resolve<'p>(
        &self,
        mut probes: impl Iterator<Item = (&'p str, &'p str)>,
        ids: &mut Vec<(ClassId, MemberId)>,
    ) -> Result<(), FarmError> {
        loop {
            let mut names = [[""; STRIPE]; 2];
            let mut n = 0;
            for (class, member) in probes.by_ref().take(STRIPE) {
                [names[0][n], names[1][n]] = [class, member];
                n += 1;
            }
            if n == 0 {
                return Ok(());
            }
            let mut found = [[None; STRIPE]; 2];
            self.classes.get_stripe(&names[0][..n], &mut found[0][..n]);
            self.members.get_stripe(&names[1][..n], &mut found[1][..n]);
            for i in 0..n {
                let class = found[0][i].ok_or_else(|| unknown("class", names[0][i]))?;
                let member = found[1][i].ok_or_else(|| unknown("member", names[1][i]))?;
                ids.push((ClassId::from_index(class), MemberId::from_index(member)));
            }
        }
    }

    fn lv(&self, lv: &LeastVirtual) -> Option<Cow<'_, str>> {
        match lv {
            LeastVirtual::Omega => None,
            LeastVirtual::Class(c) => Some(self.class_name(*c)),
        }
    }

    fn class_name(&self, c: ClassId) -> Cow<'_, str> {
        match self.classes.name(c.index()) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("{c}")),
        }
    }

    /// Writes an outcome borrowed from
    /// [`DispatchIndex::lookup_batch_into`](cpplookup_core::DispatchIndex::lookup_batch_into)'s
    /// pool straight into a reply, with class names borrowed from this
    /// table: no `LookupOutcome` or `WireOutcome` in between.
    fn put(&self, e: &mut Enc<'_>, outcome: &OutcomeRef<'_>) {
        match outcome {
            OutcomeRef::NotFound => {
                e.not_found();
            }
            OutcomeRef::Resolved {
                class,
                least_virtual,
            } => {
                e.resolved(&self.class_name(*class), self.lv(least_virtual).as_deref());
            }
            OutcomeRef::Ambiguous { witnesses } => {
                e.ambiguous(witnesses.len());
                for w in witnesses.iter() {
                    e.lv(self.lv(&w).as_deref());
                }
            }
        }
    }
}

/// The error for a name the tenant does not have.
fn unknown(what: &str, name: &str) -> FarmError {
    (ErrorCode::UnknownName, format!("unknown {what} `{name}`"))
}

/// A tenant's write side: what its first edit starts from, then what
/// every edit goes through.
enum Write {
    /// Loaded and never edited: the file whose index the handle
    /// publishes. Going live rebuilds its hierarchy, and a compaction
    /// copies its bytes.
    File(Arc<SnapshotTable>),
    /// Edited: the live hierarchy and its write path over the tenant's
    /// handle. The file is released.
    Live(Box<IndexedEngine>),
}

/// One tenant: its published index and its write side.
pub struct Tenant {
    name: Arc<str>,
    /// Publishes the file's index as epoch 0 from LOAD on, then each
    /// edit's. Reads load from it without any other lock.
    serve: ServeHandle,
    /// The mutex serializes edits per tenant; reads never take it.
    write: Mutex<Write>,
    /// The file's size, kept past its release for STATS.
    snapshot_bytes: usize,
    names: RwLock<Arc<Names>>,
    queries: AtomicU64,
    edits: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

impl Tenant {
    fn new(
        name: String,
        table: SnapshotTable,
        retain_epochs: usize,
        metrics: Arc<ServerMetrics>,
    ) -> Tenant {
        let names = Names::from_snapshot(&table);
        let serve = ServeHandle::serving(&table);
        serve.set_retention(retain_epochs);
        metrics.tenant_epoch.with_label(&name).set(0);
        Tenant {
            name: name.into(),
            serve,
            snapshot_bytes: table.size_bytes(),
            write: Mutex::new(Write::File(Arc::new(table))),
            names: RwLock::new(Arc::new(names)),
            queries: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            metrics,
        }
    }

    /// The tenant's name, shared with whoever records it.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    fn names(&self) -> Arc<Names> {
        self.names.read().expect("names lock poisoned").clone()
    }

    /// Loads the publication to answer from: the current one, or — for
    /// an as-of read — the retained epoch the request pinned.
    fn published_at(
        &self,
        as_of: Option<u64>,
    ) -> Result<Arc<cpplookup_core::PublishedIndex>, FarmError> {
        match as_of {
            None => Ok(self.serve.load()),
            Some(epoch) => self.serve.load_at(epoch).ok_or_else(|| {
                (
                    ErrorCode::EpochRetired,
                    format!(
                        "epoch {epoch} of `{}` is not retained (retained: {:?})",
                        self.name,
                        self.serve.retained_epochs()
                    ),
                )
            }),
        }
    }

    /// The read core: answers `probes` in order from the current
    /// publication or, for an as-of read, the retained epoch `as_of`
    /// pins, appending one outcome per probe to `e` and stamping the
    /// phase boundaries on the way. The names resolve into `scratch`'s
    /// id buffer, the directory answers into its outcome buffer, and
    /// each borrowed outcome is written straight into the reply. Fails
    /// on the first unresolvable name, before touching the index, and
    /// writes nothing when it fails.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownName`] or [`ErrorCode::EpochRetired`].
    pub fn read_into<'p>(
        &self,
        probes: impl ExactSizeIterator<Item = (&'p str, &'p str)>,
        as_of: Option<u64>,
        scratch: &mut ReadScratch,
        e: &mut Enc<'_>,
    ) -> Result<ProbeTiming, FarmError> {
        self.queries
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        let names = self.names();
        scratch.ids.clear();
        names.resolve(probes, &mut scratch.ids)?;
        let resolved = Instant::now();
        let publication = self.published_at(as_of)?;
        let published = Instant::now();
        // The SWAR stripe probe: all the directory loads happen inside
        // `lookup_batch_into`, over outcomes borrowed from the index.
        let mut refs = reuse(std::mem::take(&mut scratch.refs));
        publication
            .index()
            .lookup_batch_into(&scratch.ids, &mut refs);
        let probed = Instant::now();
        for outcome in &refs {
            names.put(e, outcome);
        }
        scratch.refs = reuse(refs);
        Ok(ProbeTiming {
            resolved,
            published,
            probed,
        })
    }

    /// The tenant's write path: on the first edit, the loaded file's
    /// hierarchy over the handle reads already use, its index
    /// republished as the live tenant's first epoch.
    fn go_live<'a>(&self, write: &'a mut Write) -> Result<&'a mut IndexedEngine, FarmError> {
        if let Write::File(file) = write {
            let chg = file.to_chg().map_err(|e| {
                let why = format!("cannot rebuild the hierarchy of `{}`: {e}", self.name);
                (ErrorCode::EditRejected, why)
            })?;
            self.serve.republish();
            *write = Write::Live(Box::new(IndexedEngine::with_handle(
                chg,
                file.options(),
                self.serve.clone(),
            )));
        }
        match write {
            Write::Live(serving) => Ok(serving),
            Write::File(_) => unreachable!("went live above"),
        }
    }

    /// Interns the names `edits` (just applied, in order) add and counts
    /// them; `epoch` is the tenant's new published epoch. A reader that
    /// still holds the old names keeps them: `Arc::make_mut` clones them
    /// for the write in that case and appends in place otherwise.
    fn record_applied(&self, edits: &[Edit], epoch: u64, chg: &Chg) {
        let mut slot = self.names.write().expect("names lock poisoned");
        let names = Arc::make_mut(&mut slot);
        edits.iter().for_each(|e| names.intern(e));
        debug_assert!(names.in_step_with(chg));
        drop(slot);
        self.edits.fetch_add(edits.len() as u64, Ordering::Relaxed);
        self.metrics
            .tenant_epoch
            .with_label(&self.name)
            .set(epoch as i64);
    }

    fn edit_now(&self, directive: &str, wal: Option<&WalStore>) -> Result<u64, FarmError> {
        let mut write = self.write.lock().expect("write lock poisoned");
        let serving = self.go_live(&mut write)?;
        let edit = parse_directive(directive, &self.names())?;
        // Append-before-apply, still under the write lock: the log's
        // record order is exactly the apply order, so a replayer that
        // walks the log reproduces the engine state (directives the
        // engine deterministically rejects below stay in the log and
        // are skipped identically by every replayer).
        if let Some(wal) = wal {
            wal.append(WalRecord::Edit {
                tenant: self.name.to_string(),
                directive: directive.to_owned(),
            })
            .map_err(|e| {
                (
                    ErrorCode::EditRejected,
                    format!("edit log append failed: {e}"),
                )
            })?;
        }
        let epoch = serving
            .apply(std::slice::from_ref(&edit))
            .map_err(|e| (ErrorCode::EditRejected, format!("edit rejected: {e}")))?;
        self.record_applied(std::slice::from_ref(&edit), epoch, serving.chg());
        Ok(epoch)
    }

    /// Boot replay of a run of this tenant's `Edit` records (no `Open`
    /// or `Checkpoint` of the tenant between them): each record's
    /// outcome, exactly as [`Farm::apply_replica_record`] reports it
    /// one record at a time.
    ///
    /// Directives that parse go to the engine as one transaction (see
    /// [`apply_batch`](Tenant::apply_batch)). A directive that does not
    /// parse takes the per-record path, which skips it with the same
    /// message, and batching resumes after it. After an engine
    /// rejection the rest of the run takes the per-record path, which
    /// skips exactly the records the leader failed.
    fn replay_edits(&self, directives: &[&str]) -> Vec<Result<ReplicaApply, FarmError>> {
        let mut out = Vec::with_capacity(directives.len());
        let mut per_record = false;
        while out.len() < directives.len() {
            if !per_record {
                let (epochs, rejected) = self.apply_batch(&directives[out.len()..]);
                out.extend(epochs.into_iter().map(|e| Ok(ReplicaApply::Edited(e))));
                per_record = rejected;
                if out.len() == directives.len() {
                    break;
                }
            }
            out.push(replica_edit(self.edit_now(directives[out.len()], None)));
        }
        out
    }

    /// Parses the longest prefix of `directives` that parses — each
    /// against the names the earlier ones introduce — and applies it:
    /// one [`IndexedEngine::apply_run`] for all but the last
    /// `retention - 1` edits (the handle's
    /// [`retention`](ServeHandle::retention)), which publish one by one
    /// so the retention window holds the same versions as a per-record
    /// replay. Returns the epochs of the applied edits and whether the
    /// engine rejected one (then nothing after the applied prefix
    /// changed). Nothing reads a booting farm, so the skipped
    /// intermediate epochs are never missed.
    fn apply_batch(&self, directives: &[&str]) -> (Vec<u64>, bool) {
        let mut write = self.write.lock().expect("write lock poisoned");
        let Ok(serving) = self.go_live(&mut write) else {
            return (Vec::new(), true);
        };
        // Parse against a private copy that interns as it goes, so a
        // directive can name a class an earlier one in the run adds.
        let mut names = (*self.names()).clone();
        let mut edits = Vec::with_capacity(directives.len());
        for directive in directives {
            let Ok(edit) = parse_directive(directive, &names) else {
                break;
            };
            names.intern(&edit);
            edits.push(edit);
        }
        let singles = (self.serve.retention() - 1).min(edits.len());
        let (run, tail) = edits.split_at(edits.len() - singles);
        let mut epochs = Vec::with_capacity(edits.len());
        if !run.is_empty() {
            let Ok(last) = serving.apply_run(run) else {
                return (epochs, true);
            };
            epochs.extend(last + 1 - run.len() as u64..=last);
        }
        for edit in tail {
            match serving.apply(std::slice::from_ref(edit)) {
                Ok(epoch) => epochs.push(epoch),
                Err(_) => break,
            }
        }
        if let Some(&epoch) = epochs.last() {
            self.record_applied(&edits[..epochs.len()], epoch, serving.chg());
        }
        let rejected = epochs.len() < edits.len();
        (epochs, rejected)
    }

    /// The tenant's STATS object, read from the current publication
    /// alone: `classes`, `entries` and `epoch` are its index's, so they
    /// follow the edits, and the tenant is live from epoch 1 on (LOAD
    /// publishes epoch 0, going live republishes it as epoch 1).
    /// `snapshot_bytes` is always the loaded file's size.
    fn stats_json(&self) -> String {
        let published = self.serve.load();
        let index = published.index();
        format!(
            "{{\"tenant\":{},\"classes\":{},\"entries\":{},\"snapshot_bytes\":{},\
             \"live\":{},\"epoch\":{},\"queries\":{},\"edits\":{}}}",
            json_str(&self.name),
            index.class_count(),
            index.entry_count(),
            self.snapshot_bytes,
            published.epoch() > 0,
            published.epoch(),
            self.queries.load(Ordering::Relaxed),
            self.edits.load(Ordering::Relaxed),
        )
    }
}

/// Parses an edit directive against the tenant's current names:
/// `class NAME`, `member CLASS NAME`, or `edge DERIVED BASE [virtual]`
/// — the same grammar the CLI's `!`-directives use in batch mode.
fn parse_directive(directive: &str, names: &Names) -> Result<Edit, FarmError> {
    let bad = |m: String| (ErrorCode::BadPayload, m);
    let words: Vec<&str> = directive.split_whitespace().collect();
    match words.as_slice() {
        ["class", name] => Ok(Edit::AddClass {
            name: (*name).to_owned(),
        }),
        ["member", class, name] => Ok(Edit::AddMember {
            class: names.class(class)?,
            name: (*name).to_owned(),
            decl: MemberDecl::public(MemberKind::Function),
        }),
        ["edge", derived, base] => Ok(Edit::AddEdge {
            derived: names.class(derived)?,
            base: names.class(base)?,
            inheritance: Inheritance::NonVirtual,
            access: cpplookup_chg::Access::Public,
        }),
        ["edge", derived, base, "virtual"] => Ok(Edit::AddEdge {
            derived: names.class(derived)?,
            base: names.class(base)?,
            inheritance: Inheritance::Virtual,
            access: cpplookup_chg::Access::Public,
        }),
        [] => Err(bad("empty edit directive".to_owned())),
        _ => Err(bad(format!(
            "bad edit directive `{directive}` (expected `class NAME`, \
             `member CLASS NAME`, or `edge DERIVED BASE [virtual]`)"
        ))),
    }
}

/// Tenant names become checkpoint file names; anything outside
/// `[A-Za-z0-9._-]` is mapped to `_` so a hostile name cannot escape
/// the checkpoint directory.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '_' | '-' => c,
            _ => '_',
        })
        .collect();
    if out.is_empty() || out.bytes().all(|b| b == b'.') {
        out = "tenant".to_owned();
    }
    out
}

/// Minimal JSON string encoding (names are operator-controlled, but a
/// quote in a tenant name must not corrupt the stats document).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How a replayed log record changed the farm — see
/// [`Farm::apply_replica_record`].
#[derive(Debug, PartialEq, Eq)]
pub enum ReplicaApply {
    /// An `Open` (or a `Checkpoint` for an unknown tenant) loaded a
    /// snapshot.
    Loaded,
    /// An `Edit` applied; the tenant's new published epoch.
    Edited(u64),
    /// An `Edit` the engine deterministically rejects — the leader
    /// logged it and failed it too, so skipping keeps replicas
    /// byte-identical. Carries the rejection message.
    EditSkipped(String),
    /// A `Checkpoint` for a tenant already live from earlier records;
    /// its state already subsumes the checkpoint.
    CheckpointSkipped,
}

/// Maps a replayed edit's result to its [`ReplicaApply`]: the errors
/// the engine or the parser deterministically produce become skips.
fn replica_edit(result: Result<u64, FarmError>) -> Result<ReplicaApply, FarmError> {
    match result {
        Ok(epoch) => Ok(ReplicaApply::Edited(epoch)),
        Err((
            ErrorCode::BadPayload | ErrorCode::UnknownName | ErrorCode::EditRejected,
            message,
        )) => Ok(ReplicaApply::EditSkipped(message)),
        Err(e) => Err(e),
    }
}

/// Construction-time knobs for a [`Farm`].
pub struct FarmOptions {
    /// Bounds the per-tenant metric label space: tenants past the first
    /// `tenant_cardinality` distinct names share one `other` series.
    pub tenant_cardinality: usize,
    /// The durable edit log: loads and edits are appended before they
    /// apply, making the farm a replication leader.
    pub wal: Option<Arc<WalStore>>,
    /// Refuse client edits — the stance of a replication follower,
    /// whose only writer is the replayed log.
    pub read_only: bool,
    /// Published index epochs (current included) each tenant keeps
    /// loadable for `as-of` time-travel reads. Clamped to at least 1.
    pub retain_epochs: usize,
}

impl Default for FarmOptions {
    fn default() -> FarmOptions {
        FarmOptions {
            tenant_cardinality: 64,
            wal: None,
            read_only: false,
            retain_epochs: 1,
        }
    }
}

/// The farm: the tenant map, the edit log and its policies, and the
/// metrics of the server it backs (one registry per farm).
pub struct Farm {
    tenants: RwLock<FxHashMap<String, Arc<Tenant>>>,
    metrics: Arc<ServerMetrics>,
    wal: Option<Arc<WalStore>>,
    read_only: bool,
    retain_epochs: usize,
    /// Serializes compactions (each burns sequence numbers and rewrites
    /// the log file).
    compact: Mutex<()>,
}

impl Farm {
    /// An empty farm with per-tenant metrics at the default label
    /// cardinality.
    pub fn new() -> Farm {
        Farm::with_options(FarmOptions::default())
    }

    /// An empty farm with every knob explicit — see [`FarmOptions`].
    pub fn with_options(options: FarmOptions) -> Farm {
        Farm {
            tenants: RwLock::new(FxHashMap::default()),
            metrics: Arc::new(ServerMetrics::new(options.tenant_cardinality)),
            wal: options.wal,
            read_only: options.read_only,
            retain_epochs: options.retain_epochs.max(1),
            compact: Mutex::new(()),
        }
    }

    /// The edit log this farm appends to, if it has one.
    pub fn wal(&self) -> Option<&Arc<WalStore>> {
        self.wal.as_ref()
    }

    /// This farm's metrics — its server's, when a server owns it.
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// This farm's `/metrics` text — see [`ServerMetrics::render`].
    pub(crate) fn render_metrics(&self) -> String {
        self.metrics.render(self.wal.as_deref())
    }

    /// Whether client edits are refused (replication-follower stance).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Loads (or replaces) a tenant from a snapshot file, returning
    /// `(entries, snapshot bytes)`. The tenant is published as epoch 0
    /// before this returns. A replaced tenant restarts its lifecycle
    /// from its new file; readers of the old tenant finish on the old
    /// state. On a logging farm the load is appended to the edit log
    /// (after it validated locally) so a replayer loads the same
    /// snapshot — snapshot files are treated as content-stable
    /// artifacts that outlive the log.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::LoadFailed`] with the loader's message (or the log
    /// append failure).
    pub fn load(&self, tenant: &str, path: &Path) -> Result<(u64, u64), FarmError> {
        let stats = self.load_unlogged(tenant, path)?;
        if let (Some(wal), false) = (&self.wal, self.read_only) {
            wal.append(WalRecord::Open {
                tenant: tenant.to_owned(),
                path: path.display().to_string(),
            })
            .map_err(|e| {
                (
                    ErrorCode::LoadFailed,
                    format!("edit log append failed: {e}"),
                )
            })?;
        }
        Ok(stats)
    }

    /// [`load`](Farm::load) without the log append — the replay path,
    /// and the body both share.
    fn load_unlogged(&self, tenant: &str, path: &Path) -> Result<(u64, u64), FarmError> {
        let table = SnapshotTable::load(path).map_err(|e| {
            (
                ErrorCode::LoadFailed,
                format!("loading `{}`: {e}", path.display()),
            )
        })?;
        let stats = (table.entry_count() as u64, table.size_bytes() as u64);
        let t = Arc::new(Tenant::new(
            tenant.to_owned(),
            table,
            self.retain_epochs,
            self.metrics.clone(),
        ));
        let count = {
            let mut tenants = self.tenants.write().expect("tenants lock poisoned");
            tenants.insert(tenant.to_owned(), t);
            tenants.len()
        };
        self.metrics.tenants.set(count as i64);
        Ok(stats)
    }

    /// Number of loaded tenants.
    pub fn tenant_count(&self) -> u32 {
        self.tenants.read().expect("tenants lock poisoned").len() as u32
    }

    /// The tenant of that name.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchTenant`].
    pub fn tenant(&self, tenant: &str) -> Result<Arc<Tenant>, FarmError> {
        self.tenants
            .read()
            .expect("tenants lock poisoned")
            .get(tenant)
            .cloned()
            .ok_or_else(|| (ErrorCode::NoSuchTenant, format!("no tenant `{tenant}`")))
    }

    /// The server's read: answers a decoded `QUERY` or `BATCH` against
    /// its tenant, in probe order, from the current publication or —
    /// for a time-travel read — the retained epoch the view pins, so
    /// every probe sees the same frozen index version. Appends the
    /// reply body to `out` — the view's
    /// [`reply_head`](ReadView::reply_head), then the outcomes, written
    /// by [`Tenant::read_into`] — and returns the tenant's name and the
    /// phase stamps a traced request cuts its span tree from. On error
    /// nothing is appended.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchTenant`], [`ErrorCode::UnknownName`] (the
    /// whole read fails on the first unresolvable name), or
    /// [`ErrorCode::EpochRetired`] when the pinned epoch aged out of
    /// the retention window.
    pub fn answer(
        &self,
        view: &ReadView<'_>,
        scratch: &mut ReadScratch,
        out: &mut Vec<u8>,
    ) -> Result<(Arc<str>, ProbeTiming), FarmError> {
        let tenant = self.tenant(view.tenant)?;
        let start = out.len();
        let mut e = Enc::new(out);
        view.reply_head(&mut e);
        match tenant.read_into(view.probes(), view.as_of, scratch, &mut e) {
            Ok(timing) => Ok((Arc::clone(&tenant.name), timing)),
            Err(err) => {
                out.truncate(start);
                Err(err)
            }
        }
    }

    /// The owned read: as [`answer`](Farm::answer), for probes held as
    /// strings, decoding the reply the read core writes.
    ///
    /// # Errors
    ///
    /// As for [`answer`](Farm::answer).
    pub fn read<P: AsRef<str>>(
        &self,
        tenant: &str,
        probes: &[(P, P)],
        as_of: Option<u64>,
    ) -> Result<(Vec<WireOutcome>, ProbeTiming), FarmError> {
        let tenant = self.tenant(tenant)?;
        let mut body = Vec::new();
        let mut e = Enc::new(&mut body);
        e.u8(op::R_OUTCOMES).u32(probes.len() as u32);
        let pairs = probes.iter().map(|(c, m)| (c.as_ref(), m.as_ref()));
        let timing = tenant.read_into(pairs, as_of, &mut ReadScratch::default(), &mut e)?;
        match Response::decode(&body) {
            Ok(Response::Outcomes(outcomes)) => Ok((outcomes, timing)),
            other => unreachable!("the read core wrote {other:?}"),
        }
    }

    /// One current lookup: [`read`](Farm::read) of a single probe.
    ///
    /// # Errors
    ///
    /// As for [`read`](Farm::read).
    pub fn query(&self, tenant: &str, class: &str, member: &str) -> Result<WireOutcome, FarmError> {
        Ok(self.read(tenant, &[(class, member)], None)?.0.remove(0))
    }

    /// A batch of current lookups: [`read`](Farm::read) without the
    /// phase stamps.
    ///
    /// # Errors
    ///
    /// As for [`read`](Farm::read).
    pub fn batch(
        &self,
        tenant: &str,
        probes: &[(String, String)],
    ) -> Result<Vec<WireOutcome>, FarmError> {
        Ok(self.read(tenant, probes, None)?.0)
    }

    /// Applies one edit directive through the tenant's write path,
    /// built on first use, and returns the newly published epoch. On a
    /// logging farm the directive is appended to the edit log before it
    /// applies.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchTenant`], [`ErrorCode::UnknownName`],
    /// [`ErrorCode::BadPayload`] for an unparseable directive, or
    /// [`ErrorCode::EditRejected`] from the engine, a failed log
    /// append, or (always) a read-only follower.
    pub fn edit(&self, tenant: &str, directive: &str) -> Result<u64, FarmError> {
        if self.read_only {
            return Err((
                ErrorCode::EditRejected,
                "this server is a read-only replication follower".to_owned(),
            ));
        }
        self.tenant(tenant)?
            .edit_now(directive, self.wal.as_deref())
    }

    /// Whether a tenant of that name is loaded.
    pub fn has_tenant(&self, tenant: &str) -> bool {
        self.tenants
            .read()
            .expect("tenants lock poisoned")
            .contains_key(tenant)
    }

    /// The epochs a tenant currently serves `as-of` reads for,
    /// oldest-first and ending with the current epoch: `[0]` for a
    /// tenant loaded and never edited.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchTenant`].
    pub fn retained_epochs(&self, tenant: &str) -> Result<Vec<u64>, FarmError> {
        Ok(self.tenant(tenant)?.serve.retained_epochs())
    }

    /// Applies one replayed log record — the follower's (and the
    /// startup recovery's) write path. The replay rules keep every
    /// replayer byte-identical to the leader: `Open` loads the named
    /// snapshot, `Edit` applies through the same lifecycle the leader
    /// used (deterministic engine rejections are skipped, exactly as
    /// the leader failed them), and `Checkpoint` loads its snapshot
    /// only for tenants this replica has no earlier records for.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::LoadFailed`] when a named snapshot is gone, or
    /// [`ErrorCode::NoSuchTenant`] when an `Edit` precedes its
    /// tenant's `Open` — both mean the log and its artifacts are out
    /// of step, which a replica must surface, not paper over.
    pub fn apply_replica_record(&self, record: &WalRecord) -> Result<ReplicaApply, FarmError> {
        match record {
            WalRecord::Open { tenant, path } => {
                self.load_unlogged(tenant, Path::new(path))?;
                Ok(ReplicaApply::Loaded)
            }
            WalRecord::Edit { tenant, directive } => {
                replica_edit(self.tenant(tenant)?.edit_now(directive, None))
            }
            WalRecord::Checkpoint { tenant, path, .. } => {
                if self.has_tenant(tenant) {
                    Ok(ReplicaApply::CheckpointSkipped)
                } else {
                    self.load_unlogged(tenant, Path::new(path))?;
                    Ok(ReplicaApply::Loaded)
                }
            }
        }
    }

    /// Boot-time recovery: replays a recovered log, in order, to the
    /// state a per-record [`apply_replica_record`](Farm::apply_replica_record)
    /// walk reaches — the same answers, epochs, retained epochs and
    /// skipped records — and returns each record's outcome as that walk
    /// reports it.
    ///
    /// Each tenant's `Edit` records between two of its `Open` or
    /// `Checkpoint` records form a run (other tenants' records may
    /// interleave), and a run applies as one engine transaction and one
    /// index refresh instead of one per record. The run's epoch is the
    /// one the per-record walk ends on, and with `retain_epochs = K` its
    /// last `K - 1` edits still publish one by one. This is only for a
    /// farm no one reads yet: live followers keep the per-record path,
    /// since their readers must see every epoch.
    ///
    /// # Errors
    ///
    /// The first error the per-record walk would stop at, with that
    /// record's sequence number; every record before it is applied.
    pub fn replay(&self, records: &[Stamped]) -> Result<Vec<ReplicaApply>, (u64, FarmError)> {
        let mut outcomes: Vec<Option<ReplicaApply>> = records.iter().map(|_| None).collect();
        // Each tenant's pending run, as indexes into `records`.
        let mut runs: FxHashMap<&str, Vec<usize>> = FxHashMap::default();
        for (i, stamped) in records.iter().enumerate() {
            let tenant = stamped.record.tenant();
            if matches!(stamped.record, WalRecord::Edit { .. }) && self.has_tenant(tenant) {
                runs.entry(tenant).or_default().push(i);
                continue;
            }
            // An Open or Checkpoint ends its tenant's run; an Edit for a
            // tenant not loaded yet fails below, after every pending run.
            if let Some(run) = runs.remove(tenant) {
                self.replay_run(records, &run, &mut outcomes)?;
            }
            match self.apply_replica_record(&stamped.record) {
                Ok(outcome) => outcomes[i] = Some(outcome),
                Err(e) => {
                    self.replay_runs(records, runs, &mut outcomes)?;
                    return Err((stamped.seq, e));
                }
            }
        }
        self.replay_runs(records, runs, &mut outcomes)?;
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("every record replayed"))
            .collect())
    }

    /// Replays every pending run, oldest first.
    fn replay_runs(
        &self,
        records: &[Stamped],
        runs: FxHashMap<&str, Vec<usize>>,
        outcomes: &mut [Option<ReplicaApply>],
    ) -> Result<(), (u64, FarmError)> {
        let mut runs: Vec<Vec<usize>> = runs.into_values().collect();
        runs.sort_unstable_by_key(|run| run[0]);
        runs.iter()
            .try_for_each(|run| self.replay_run(records, run, outcomes))
    }

    /// Replays one tenant's run of `Edit` records (indexes into
    /// `records`).
    fn replay_run(
        &self,
        records: &[Stamped],
        run: &[usize],
        outcomes: &mut [Option<ReplicaApply>],
    ) -> Result<(), (u64, FarmError)> {
        let directives: Vec<&str> = run
            .iter()
            .map(|&i| match &records[i].record {
                WalRecord::Edit { directive, .. } => directive.as_str(),
                _ => unreachable!("runs hold only Edit records"),
            })
            .collect();
        let tenant = self
            .tenant(records[run[0]].record.tenant())
            .map_err(|e| (records[run[0]].seq, e))?;
        for (&i, outcome) in run.iter().zip(tenant.replay_edits(&directives)) {
            outcomes[i] = Some(outcome.map_err(|e| (records[i].seq, e))?);
        }
        Ok(())
    }

    /// Compacts the edit log: captures every tenant's current state as
    /// a checkpoint snapshot under `dir`, then rewrites the log to drop
    /// the records those checkpoints subsume. Returns the number of
    /// records dropped.
    ///
    /// Each tenant's cutoff sequence number is reserved *under its
    /// edit lock*, so an edit racing the capture lands after the
    /// cutoff and survives the rewrite. Sequence numbers are preserved
    /// across the rewrite; a tailer mid-stream sees nothing re-delivered.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotReplicating`] on a farm with no log;
    /// [`ErrorCode::LoadFailed`] for checkpoint-write or rewrite I/O
    /// failures (the log itself is replaced atomically or not at all).
    pub fn compact_wal(&self, dir: &Path) -> Result<usize, FarmError> {
        let wal = self.wal.as_ref().ok_or_else(|| {
            (
                ErrorCode::NotReplicating,
                "this server has no edit log to compact".to_owned(),
            )
        })?;
        let _serial = self.compact.lock().expect("compact lock poisoned");
        let io = |what: &str, e: &dyn std::fmt::Display| {
            (ErrorCode::LoadFailed, format!("compaction {what}: {e}"))
        };
        std::fs::create_dir_all(dir).map_err(|e| io("mkdir", &e))?;
        let tenants: Vec<Arc<Tenant>> = {
            let map = self.tenants.read().expect("tenants lock poisoned");
            let mut all: Vec<Arc<Tenant>> = map.values().cloned().collect();
            all.sort_by(|a, b| a.name.cmp(&b.name));
            all
        };
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut cutoffs: FxHashMap<String, u64> = FxHashMap::default();
        let mut checkpoints: Vec<Stamped> = Vec::with_capacity(tenants.len());
        for t in &tenants {
            // Capture under the tenant's edit lock: the reserved seq
            // orders before any edit that starts after we release it.
            let write = t.write.lock().expect("write lock poisoned");
            let cutoff = wal.reserve_seq();
            let file = dir.join(format!("{}-seq{cutoff}.snap", sanitize_name(&t.name)));
            let epoch = match &*write {
                // Never edited: the validated snapshot image is the
                // state, verbatim.
                Write::File(image) => {
                    std::fs::write(&file, image.as_bytes())
                        .map_err(|e| io("checkpoint write", &e))?;
                    0
                }
                // An edited tenant's published index is the table of
                // its live hierarchy: write both, no rebuild (the writer
                // drops the pool words earlier edits superseded).
                Write::Live(serving) => {
                    let published = t.serve.load();
                    Snapshot::from_index(serving.chg(), published.index(), serving.options())
                        .write_to(&file)
                        .map_err(|e| io("checkpoint write", &e))?;
                    published.epoch()
                }
            };
            drop(write);
            cutoffs.insert(t.name.to_string(), cutoff);
            checkpoints.push(Stamped {
                seq: cutoff,
                unix_nanos: now,
                record: WalRecord::Checkpoint {
                    tenant: t.name.to_string(),
                    path: file.display().to_string(),
                    epoch,
                },
            });
        }
        let mut dropped = 0usize;
        wal.rewrite(|records| {
            let mut kept: Vec<Stamped> = records
                .into_iter()
                .filter(|r| match cutoffs.get(r.record.tenant()) {
                    // Records up to the tenant's cutoff are subsumed by
                    // its checkpoint; unknown tenants (unloaded since)
                    // keep their history verbatim.
                    Some(&cutoff) => {
                        let keep = r.seq > cutoff;
                        if !keep {
                            dropped += 1;
                        }
                        keep
                    }
                    None => true,
                })
                .collect();
            kept.extend(checkpoints);
            kept.sort_by_key(|r| r.seq);
            kept
        })
        .map_err(|e| io("rewrite", &e))?;
        self.metrics.wal_compactions.inc();
        Ok(dropped)
    }

    /// Farm statistics as JSON: one tenant's document, or
    /// `{"tenants":[...]}` for the whole farm when `tenant` is empty.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchTenant`].
    pub fn stats_json(&self, tenant: &str) -> Result<String, FarmError> {
        if !tenant.is_empty() {
            return Ok(self.tenant(tenant)?.stats_json());
        }
        let tenants = self.tenants.read().expect("tenants lock poisoned");
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        let docs: Vec<String> = names
            .iter()
            .map(|n| tenants[n.as_str()].stats_json())
            .collect();
        Ok(format!("{{\"tenants\":[{}]}}", docs.join(",")))
    }
}

impl Default for Farm {
    fn default() -> Self {
        Farm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireLv;
    use cpplookup_chg::fixtures;
    use cpplookup_snapshot::Snapshot;

    fn farm_with(name: &str, chg: &Chg) -> Farm {
        let farm = Farm::new();
        let dir = std::env::temp_dir().join(format!("cpplookup-farm-test-{name}-{:x}", {
            use std::time::{SystemTime, UNIX_EPOCH};
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        }));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        Snapshot::compile(chg).write_to(&path).unwrap();
        farm.load(name, &path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        farm
    }

    #[test]
    fn load_publishes_epoch_zero_and_matches_snapshot_semantics() {
        let farm = farm_with("t", &fixtures::fig2());
        assert_eq!(farm.retained_epochs("t").unwrap(), vec![0]);
        let stats = farm.stats_json("t").unwrap();
        assert!(stats.contains("\"epoch\":0"), "{stats}");
        assert!(stats.contains("\"live\":false"), "{stats}");
        let out = farm.query("t", "E", "m").unwrap();
        match out {
            WireOutcome::Resolved { class, .. } => assert_eq!(class, "D"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_names_and_tenants_are_structured() {
        let farm = farm_with("t", &fixtures::fig2());
        assert_eq!(
            farm.query("x", "E", "m").unwrap_err().0,
            ErrorCode::NoSuchTenant
        );
        assert_eq!(
            farm.query("t", "Nope", "m").unwrap_err().0,
            ErrorCode::UnknownName
        );
        assert_eq!(
            farm.query("t", "E", "nope").unwrap_err().0,
            ErrorCode::UnknownName
        );
    }

    #[test]
    fn edit_attaches_engine_and_queries_see_new_members() {
        let farm = farm_with("t", &fixtures::fig2());
        // LOAD published epoch 0; going live publishes 1; the edit
        // publishes 2.
        let epoch = farm.edit("t", "member E fresh").unwrap();
        assert_eq!(epoch, 2);
        let out = farm.query("t", "E", "fresh").unwrap();
        match out {
            WireOutcome::Resolved { class, .. } => assert_eq!(class, "E"),
            other => panic!("unexpected {other:?}"),
        }
        // New classes become addressable by name too.
        farm.edit("t", "class Z").unwrap();
        let epoch = farm.edit("t", "edge Z E").unwrap();
        assert_eq!(epoch, 4);
        assert!(farm
            .query("t", "Z", "fresh")
            .unwrap()
            .ne(&WireOutcome::NotFound));
    }

    #[test]
    fn edit_before_any_query_goes_live_at_epoch_one() {
        let farm = farm_with("t", &fixtures::fig1());
        let epoch = farm.edit("t", "class Q").unwrap();
        assert_eq!(epoch, 2, "LOAD epoch 0, going live 1, edit 2");
    }

    #[test]
    fn bad_directives_are_rejected() {
        let farm = farm_with("t", &fixtures::fig1());
        assert_eq!(farm.edit("t", "").unwrap_err().0, ErrorCode::BadPayload);
        assert_eq!(
            farm.edit("t", "drop table").unwrap_err().0,
            ErrorCode::BadPayload
        );
        assert_eq!(
            farm.edit("t", "member Nope x").unwrap_err().0,
            ErrorCode::UnknownName
        );
        // A cycle is caught by the engine and leaves the tenant serving.
        farm.edit("t", "class R").unwrap();
        farm.edit("t", "class S").unwrap();
        farm.edit("t", "edge R S").unwrap();
        assert_eq!(
            farm.edit("t", "edge S R").unwrap_err().0,
            ErrorCode::EditRejected
        );
        assert!(farm.query("t", "A", "m").is_ok());
    }

    #[test]
    fn stats_json_shape() {
        let g = fixtures::fig2();
        let farm = farm_with("alpha", &g);
        let one = farm.stats_json("alpha").unwrap();
        assert!(one.starts_with("{\"tenant\":\"alpha\""), "{one}");
        let all = farm.stats_json("").unwrap();
        assert!(all.starts_with("{\"tenants\":["), "{all}");
        assert_eq!(
            farm.stats_json("nope").unwrap_err().0,
            ErrorCode::NoSuchTenant
        );

        // STATS follows the live tenant, not the file it loaded.
        let field = |json: &str, key: &str| -> u64 {
            let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
            let end = json[at..].find([',', '}']).unwrap();
            json[at..at + end].parse().unwrap()
        };
        let loaded = farm.stats_json("alpha").unwrap();
        let (classes, entries) = (g.class_count() as u64, field(&loaded, "entries"));
        assert_eq!(field(&loaded, "classes"), classes);
        assert_eq!(
            entries,
            cpplookup_core::LookupTable::build(&g).stats().entries as u64
        );
        let bytes = field(&loaded, "snapshot_bytes");

        farm.edit("alpha", "class Z").unwrap();
        let after_class = farm.stats_json("alpha").unwrap();
        assert_eq!(field(&after_class, "classes"), classes + 1, "{after_class}");
        assert_eq!(field(&after_class, "entries"), entries, "{after_class}");
        assert_eq!(field(&after_class, "epoch"), 2, "{after_class}");
        assert!(after_class.contains("\"live\":true"), "{after_class}");

        // `fresh` in A is visible in A and every class below it: each
        // is a pair recomputed as present.
        farm.edit("alpha", "member A fresh").unwrap();
        let present = 1 + g.derived_of(g.class_by_name("A").unwrap()).count() as u64;
        let after_member = farm.stats_json("alpha").unwrap();
        assert_eq!(field(&after_member, "classes"), classes + 1);
        assert_eq!(
            field(&after_member, "entries"),
            entries + present,
            "{after_member}"
        );
        assert_eq!(field(&after_member, "snapshot_bytes"), bytes);
    }

    /// One probe through the read path — a QUERY, as the server asks it.
    fn read_one(
        farm: &Farm,
        tenant: &str,
        class: &str,
        member: &str,
        as_of: Option<u64>,
    ) -> Result<WireOutcome, FarmError> {
        Ok(farm.read(tenant, &[(class, member)], as_of)?.0.remove(0))
    }

    #[test]
    fn batch_matches_point_queries() {
        let farm = farm_with("t", &fixtures::fig2());
        let probes = vec![
            ("E".to_owned(), "m".to_owned()),
            ("D".to_owned(), "m".to_owned()),
            ("E".to_owned(), "m".to_owned()),
        ];
        let batch = farm.batch("t", &probes).unwrap();
        for ((class, member), got) in probes.iter().zip(&batch) {
            assert_eq!(got, &farm.query("t", class, member).unwrap());
        }
        // Pinned to the current epoch — the snapshot's, then an
        // edited one — a read answers as the unpinned one does.
        for edit in [None, Some("member E fresh")] {
            if let Some(directive) = edit {
                farm.edit("t", directive).unwrap();
            }
            let epoch = farm.retained_epochs("t").unwrap().last().copied();
            let (pinned, _) = farm.read("t", &probes, epoch).unwrap();
            assert_eq!(pinned, farm.batch("t", &probes).unwrap());
            for (class, member) in &probes {
                assert_eq!(
                    read_one(&farm, "t", class, member, epoch),
                    farm.query("t", class, member)
                );
            }
        }
        // A failure carries the same code asked as one probe or inside a
        // batch (where it fails the whole batch). After the edit, epoch
        // 0 is retired under the default retention.
        for (tenant, class, member, as_of, code) in [
            ("t", "Nope", "m", None, ErrorCode::UnknownName),
            ("t", "E", "nope", None, ErrorCode::UnknownName),
            ("x", "E", "m", None, ErrorCode::NoSuchTenant),
            ("t", "E", "m", Some(0), ErrorCode::EpochRetired),
        ] {
            let pair = [("D", "m"), (class, member)];
            assert_eq!(
                read_one(&farm, tenant, class, member, as_of).unwrap_err().0,
                code
            );
            assert_eq!(farm.read(tenant, &pair, as_of).unwrap_err().0, code);
            if as_of.is_none() {
                let owned = pair.map(|(c, m)| (c.to_owned(), m.to_owned()));
                assert_eq!(farm.query(tenant, class, member).unwrap_err().0, code);
                assert_eq!(farm.batch(tenant, &owned).unwrap_err().0, code);
            }
        }
    }

    /// The reference answer: a freshly built table, mapped to wire form
    /// through the hierarchy's own names.
    fn expect_wire(chg: &Chg, outcome: &cpplookup_core::LookupOutcome) -> WireOutcome {
        use cpplookup_core::LookupOutcome;
        let lv = |v: &LeastVirtual| match v {
            LeastVirtual::Omega => WireLv::Omega,
            LeastVirtual::Class(c) => WireLv::Class(chg.class_name(*c).to_owned()),
        };
        match outcome {
            LookupOutcome::NotFound => WireOutcome::NotFound,
            LookupOutcome::Resolved {
                class,
                least_virtual,
            } => WireOutcome::Resolved {
                class: chg.class_name(*class).to_owned(),
                least_virtual: lv(least_virtual),
            },
            LookupOutcome::Ambiguous { witnesses } => WireOutcome::Ambiguous {
                witnesses: witnesses.iter().map(lv).collect(),
            },
        }
    }

    #[test]
    fn first_readers_stampede_and_answer_exactly() {
        const TENANT: &str = "t";
        let chg = fixtures::fig9();
        let table = cpplookup_core::LookupTable::build(&chg);
        let mut all = Vec::new();
        for ci in 0..chg.class_count() {
            for mi in 0..chg.member_name_count() {
                let (c, m) = (ClassId::from_index(ci), MemberId::from_index(mi));
                let names = (chg.class_name(c).to_owned(), chg.member_name(m).to_owned());
                all.push((names, expect_wire(&chg, &table.lookup(c, m))));
            }
        }
        let farm = farm_with(TENANT, &chg);
        let threads = 8;
        let gate = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for i in 0..threads {
                let (farm, gate, all) = (&farm, &gate, &all);
                s.spawn(move || {
                    // Every thread asks the same first probe; the rest of
                    // its batch is its own slice of the cross product.
                    let mine: Vec<_> = std::iter::once(&all[0])
                        .chain(all.iter().skip(i).step_by(threads))
                        .collect();
                    let probes: Vec<(String, String)> =
                        mine.iter().map(|(names, _)| names.clone()).collect();
                    gate.wait();
                    let got = if i % 2 == 0 {
                        farm.batch(TENANT, &probes).unwrap()
                    } else {
                        probes
                            .iter()
                            .map(|(c, m)| farm.query(TENANT, c, m).unwrap())
                            .collect()
                    };
                    for ((names, want), got) in mine.iter().zip(&got) {
                        assert_eq!(got, want, "{names:?}");
                    }
                });
            }
        });
    }

    /// A scratch directory that survives for the test (WAL replay needs
    /// the snapshot paths in the log to stay resolvable).
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpplookup-farm-wal-{name}-{}-{:x}",
            std::process::id(),
            {
                use std::time::{SystemTime, UNIX_EPOCH};
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            }
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn logging_farm(dir: &Path, chg: &Chg) -> Farm {
        let snap = dir.join("t.snap");
        Snapshot::compile(chg).write_to(&snap).unwrap();
        let (wal, recovered) = WalStore::open(&dir.join("edits.wal"), 1).unwrap();
        assert!(recovered.is_empty());
        let farm = Farm::with_options(FarmOptions {
            wal: Some(Arc::new(wal)),
            ..FarmOptions::default()
        });
        farm.load("t", &snap).unwrap();
        farm
    }

    #[test]
    fn edits_append_to_the_log_before_applying() {
        let dir = scratch("append");
        let farm = logging_farm(&dir, &fixtures::fig2());
        farm.edit("t", "member E fresh").unwrap();
        farm.edit("t", "class R").unwrap();
        farm.edit("t", "class S").unwrap();
        farm.edit("t", "edge R S").unwrap();
        // A deterministic engine rejection (the cycle) is logged too —
        // every replayer fails it identically — but a parse failure
        // never reaches the log.
        assert_eq!(
            farm.edit("t", "edge S R").unwrap_err().0,
            ErrorCode::EditRejected
        );
        assert_eq!(
            farm.edit("t", "drop table").unwrap_err().0,
            ErrorCode::BadPayload
        );
        let records = cpplookup_wal::read_all(farm.wal().unwrap().path()).unwrap();
        let shapes: Vec<String> = records
            .iter()
            .map(|r| match &r.record {
                WalRecord::Open { tenant, .. } => format!("open {tenant}"),
                WalRecord::Edit { directive, .. } => directive.clone(),
                WalRecord::Checkpoint { .. } => "checkpoint".to_owned(),
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                "open t",
                "member E fresh",
                "class R",
                "class S",
                "edge R S",
                "edge S R",
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaying_the_log_reproduces_the_leader() {
        let dir = scratch("replay");
        let leader = logging_farm(&dir, &fixtures::fig2());
        leader.edit("t", "member E fresh").unwrap();
        leader.edit("t", "class Z").unwrap();
        let leader_epoch = leader.edit("t", "edge Z E").unwrap();
        // A cycle attempt: deterministically rejected, but logged.
        assert_eq!(
            leader.edit("t", "edge E Z").unwrap_err().0,
            ErrorCode::EditRejected
        );
        let follower = Farm::with_options(FarmOptions {
            read_only: true,
            ..FarmOptions::default()
        });
        for r in cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap() {
            follower.apply_replica_record(&r.record).unwrap();
        }
        assert_eq!(
            follower.retained_epochs("t").unwrap().last().copied(),
            Some(leader_epoch),
            "a full-history replay lands on the leader's epoch"
        );
        for (c, m) in [("E", "m"), ("E", "fresh"), ("Z", "fresh"), ("D", "m")] {
            assert_eq!(follower.query("t", c, m), leader.query("t", c, m));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The hierarchy generation of tenant `t`: one per transaction.
    fn generation(farm: &Farm) -> u64 {
        let t = farm.tenant("t").unwrap();
        let write = t.write.lock().unwrap();
        let Write::Live(serving) = &*write else {
            panic!("tenant `t` is not live")
        };
        serving.chg().generation()
    }

    #[test]
    fn boot_replay_applies_a_run_as_one_transaction() {
        let dir = scratch("batch");
        let leader = logging_farm(&dir, &fixtures::fig2());
        for d in ["member E fresh", "class Z", "edge Z E", "member Z z"] {
            leader.edit("t", d).unwrap();
        }
        let leader_epoch = leader.retained_epochs("t").unwrap()[0];
        let records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        let booted = Farm::new();
        let outcomes = booted.replay(&records).unwrap();
        assert_eq!(outcomes[0], ReplicaApply::Loaded);
        assert_eq!(
            outcomes[1..],
            [2, 3, 4, 5].map(ReplicaApply::Edited),
            "each record reports the epoch a per-record replay gives it"
        );
        assert_eq!(booted.retained_epochs("t").unwrap(), vec![leader_epoch]);
        assert_eq!(generation(&booted), 1, "four edits, one engine transaction");
        for (c, m) in [("E", "fresh"), ("Z", "fresh"), ("Z", "z"), ("D", "m")] {
            assert_eq!(booted.query("t", c, m), leader.query("t", c, m));
        }
        // Live edits continue from the replayed names and epoch.
        assert_eq!(booted.edit("t", "member Z y").unwrap(), leader_epoch + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boot_replay_splits_runs_at_bad_records_and_stops_at_orphans() {
        let dir = scratch("split");
        let leader = logging_farm(&dir, &fixtures::fig2());
        let mut records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        let edit = |seq: u64, tenant: &str, directive: &str| Stamped {
            seq,
            unix_nanos: 0,
            record: WalRecord::Edit {
                tenant: tenant.to_owned(),
                directive: directive.to_owned(),
            },
        };
        records.extend([
            edit(2, "t", "class Z"),
            edit(3, "t", "drop table"),
            edit(4, "t", "edge Z E"),
            edit(5, "t", "edge E Z"), // a cycle: the engine rejects it
            edit(6, "t", "member Z z"),
        ]);
        let booted = Farm::new();
        let outcomes = booted.replay(&records).unwrap();
        let per_record = Farm::new();
        for (r, outcome) in records.iter().zip(&outcomes) {
            assert_eq!(
                &per_record.apply_replica_record(&r.record).unwrap(),
                outcome
            );
        }
        assert!(matches!(outcomes[2], ReplicaApply::EditSkipped(_)));
        assert!(matches!(outcomes[4], ReplicaApply::EditSkipped(_)));
        assert_eq!(
            booted.retained_epochs("t").unwrap(),
            per_record.retained_epochs("t").unwrap()
        );
        assert_eq!(booted.query("t", "Z", "z"), per_record.query("t", "Z", "z"));

        // An edit for a tenant no record loaded is a structural error at
        // its own sequence number; every record before it is applied.
        records.push(edit(7, "t", "member Z w"));
        records.push(edit(8, "nobody", "class Q"));
        let booted = Farm::new();
        let (seq, (code, _)) = booted.replay(&records).unwrap_err();
        assert_eq!((seq, code), (8, ErrorCode::NoSuchTenant));
        assert!(booted.query("t", "Z", "w").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_farms_refuse_edits() {
        let dir = scratch("readonly");
        let snap = dir.join("t.snap");
        Snapshot::compile(&fixtures::fig1())
            .write_to(&snap)
            .unwrap();
        let farm = Farm::with_options(FarmOptions {
            read_only: true,
            ..FarmOptions::default()
        });
        farm.load("t", &snap).unwrap();
        assert_eq!(
            farm.edit("t", "class Q").unwrap_err().0,
            ErrorCode::EditRejected
        );
        assert!(farm.query("t", "A", "m").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn as_of_reads_serve_retained_epochs() {
        let dir = scratch("asof");
        let snap = dir.join("t.snap");
        Snapshot::compile(&fixtures::fig2())
            .write_to(&snap)
            .unwrap();
        let farm = Farm::with_options(FarmOptions {
            retain_epochs: 8,
            ..FarmOptions::default()
        });
        farm.load("t", &snap).unwrap();
        farm.query("t", "E", "m").unwrap(); // LOAD published epoch 0
        let epoch = farm.edit("t", "member E fresh").unwrap(); // attach 1, edit 2
        assert_eq!(farm.retained_epochs("t").unwrap(), vec![0, 1, 2]);
        // The new member exists now but not in the pinned past.
        assert!(matches!(
            read_one(&farm, "t", "E", "fresh", Some(epoch)).unwrap(),
            WireOutcome::Resolved { .. }
        ));
        assert_eq!(
            read_one(&farm, "t", "E", "fresh", Some(0)).unwrap(),
            WireOutcome::NotFound
        );
        // Batches pin the same frozen version.
        let probes = vec![("E".to_owned(), "fresh".to_owned())];
        assert_eq!(
            farm.read("t", &probes, Some(0)).unwrap().0,
            vec![WireOutcome::NotFound]
        );
        assert_eq!(
            read_one(&farm, "t", "E", "m", Some(99)).unwrap_err().0,
            ErrorCode::EpochRetired
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_retention_retires_past_epochs() {
        let farm = farm_with("t", &fixtures::fig2());
        farm.query("t", "E", "m").unwrap();
        farm.edit("t", "member E fresh").unwrap();
        assert_eq!(
            read_one(&farm, "t", "E", "m", Some(0)).unwrap_err().0,
            ErrorCode::EpochRetired
        );
    }

    #[test]
    fn compaction_checkpoints_subsume_history_and_rejoiners_converge() {
        let dir = scratch("compact");
        let leader = logging_farm(&dir, &fixtures::fig2());
        leader.edit("t", "member E fresh").unwrap();
        leader.edit("t", "class Z").unwrap();
        leader.edit("t", "edge Z E").unwrap();
        // `C::m` makes `E::m` and `Z::m` ambiguous; `E::m` resolves them
        // again, superseding their witness set.
        leader.edit("t", "member C m").unwrap();
        leader.edit("t", "member E m").unwrap();
        // open + 5 edits are subsumed by the checkpoint.
        let dropped = leader.compact_wal(&dir.join("ckpt")).unwrap();
        assert_eq!(dropped, 6);
        let records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        assert_eq!(records.len(), 1);
        let WalRecord::Checkpoint { path, .. } = &records[0].record else {
            panic!("unexpected {:?}", records[0].record);
        };
        // The checkpoint is the published index of the live hierarchy:
        // it answers every pair like a fresh build.
        let (chg, published) = {
            let t = leader.tenant("t").unwrap();
            let write = t.write.lock().unwrap();
            let Write::Live(serving) = &*write else {
                panic!("an edited tenant is live")
            };
            (serving.chg().clone(), t.serve.load())
        };
        let checkpoint = SnapshotTable::load(path).unwrap();
        let table = cpplookup_core::LookupTable::build(&chg);
        assert_eq!(checkpoint.class_count(), chg.class_count());
        assert_eq!(checkpoint.entry_count(), table.stats().entries);
        for c in chg.classes() {
            for m in chg.member_ids() {
                assert_eq!(checkpoint.entry(c, m), table.entry(c, m).cloned());
                assert_eq!(checkpoint.lookup(c, m), table.lookup(c, m));
            }
        }
        // The published index's pool keeps every set the edits
        // superseded; the checkpoint drops them, so it is no larger
        // than a fresh compile of the live hierarchy.
        assert!(checkpoint.index().size_bytes() < published.index().size_bytes());
        let fresh = Snapshot::compile_with(&chg, checkpoint.options());
        assert!(checkpoint.as_bytes().len() <= fresh.len());
        // The leader keeps serving and logging after the rewrite, with
        // sequence numbers still increasing.
        let before = records[0].seq;
        leader.edit("t", "class Q").unwrap();
        let records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(records[1].seq > before);
        // A fresh replayer of the compacted log converges to
        // byte-identical answers.
        let follower = Farm::with_options(FarmOptions {
            read_only: true,
            ..FarmOptions::default()
        });
        for r in &records {
            follower.apply_replica_record(&r.record).unwrap();
        }
        for (c, m) in [("E", "m"), ("E", "fresh"), ("Z", "fresh")] {
            assert_eq!(follower.query("t", c, m), leader.query("t", c, m));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Going live releases the loaded file: only the values STATS and
    /// compaction still need are kept, and an unedited tenant beside it
    /// still checkpoints as its file, verbatim.
    #[test]
    fn a_live_tenant_drops_its_loaded_file() {
        let dir = scratch("release");
        let leader = logging_farm(&dir, &fixtures::fig2());
        let cold = dir.join("u.snap");
        Snapshot::compile(&fixtures::fig1())
            .write_to(&cold)
            .unwrap();
        leader.load("u", &cold).unwrap();
        let tenant = leader.tenant("t").unwrap();
        let file = match &*tenant.write.lock().unwrap() {
            Write::File(file) => Arc::downgrade(file),
            Write::Live(_) => panic!("a loaded tenant holds its file"),
        };
        let bytes_field = |json: &str| {
            let at = json.find("\"snapshot_bytes\":").unwrap() + 17;
            json[at..].split([',', '}']).next().unwrap().to_owned()
        };
        let before = bytes_field(&leader.stats_json("t").unwrap());
        leader.query("t", "E", "m").unwrap();
        assert!(file.upgrade().is_some(), "a read keeps the loaded file");

        leader.edit("t", "class Z").unwrap();
        assert!(
            file.upgrade().is_none(),
            "the live tenant released its file"
        );
        assert!(matches!(*tenant.write.lock().unwrap(), Write::Live(_)));
        assert_eq!(bytes_field(&leader.stats_json("t").unwrap()), before);
        assert_eq!(
            before,
            std::fs::metadata(dir.join("t.snap"))
                .unwrap()
                .len()
                .to_string()
        );
        assert_eq!(leader.query("t", "Z", "m").unwrap(), WireOutcome::NotFound);
        assert!(leader.query("t", "E", "m").is_ok());

        leader.compact_wal(&dir.join("ckpt")).unwrap();
        let records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        let checkpoint = |tenant: &str| {
            records
                .iter()
                .find_map(|r| match &r.record {
                    WalRecord::Checkpoint {
                        tenant: t, path, ..
                    } if t == tenant => Some(std::fs::read(path).unwrap()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(checkpoint("u"), std::fs::read(&cold).unwrap());
        let live = SnapshotTable::from_bytes(checkpoint("t")).unwrap();
        assert!(live.class_by_name("Z").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_cold_tenants_verbatim() {
        let dir = scratch("coldckpt");
        let leader = logging_farm(&dir, &fixtures::fig2());
        // Never edited: the checkpoint must be the validated snapshot
        // image, byte for byte.
        leader.compact_wal(&dir.join("ckpt")).unwrap();
        let records = cpplookup_wal::read_all(leader.wal().unwrap().path()).unwrap();
        assert_eq!(records.len(), 1);
        let ckpt_path = match &records[0].record {
            WalRecord::Checkpoint { path, .. } => path.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let original = std::fs::read(dir.join("t.snap")).unwrap();
        let checkpoint = std::fs::read(&ckpt_path).unwrap();
        assert_eq!(original, checkpoint);
        std::fs::remove_dir_all(&dir).ok();
    }
}
