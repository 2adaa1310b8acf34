//! Seeded inputs: the workloads, their hierarchies, request streams
//! and edit scripts, and the reference answers every reply is checked
//! against. Nothing here is timed; the program under test only ever
//! sees what this module generates.

use cpplookup_chg::{
    apply_edits, Access, Chg, ClassId, Edit, Inheritance, MemberDecl, MemberId, MemberKind,
};
use cpplookup_core::{LeastVirtual, LookupOutcome, LookupTable};
use cpplookup_hiergen::{random_hierarchy, RandomConfig};
use cpplookup_server::{IoModel, WireLv, WireOutcome};

/// The three closed-loop workloads. Why each exists is in the
/// benchmark's README.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryHot,
    BatchCold,
    EditMix,
}

/// The fixed shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub tenants: usize,
    pub classes: usize,
    pub io_model: IoModel,
    /// Whether the server keeps an edit log (fsync after every append).
    pub wal: bool,
    /// Probes per read request: 1 sends QUERY, more sends BATCH.
    pub probes_per_read: usize,
    /// Requests per round; a round is the unit `probes_per_s` is taken over.
    pub round: usize,
    /// Rounds per second of `--seconds`. The request stream is this
    /// many rounds times the seconds asked for, whatever the speed of
    /// the code under test, so both sides of a comparison do the same
    /// work.
    pub rounds_per_second: usize,
    /// Reads between consecutive edits; 0 for a read-only stream.
    pub reads_per_edit: usize,
    /// Rounds the traced run replays (a prefix of the timed stream).
    pub trace_rounds: usize,
    /// Slices the untraced run cuts the timed stream into. Each slice
    /// runs one set-up and `restarts_per_slice` restarts before its
    /// share of the rounds, so the samples of every end-to-end metric
    /// are spread over the whole run instead of bunched at its start
    /// or end, where a few seconds of host slowdown would move them
    /// all together.
    pub slices: usize,
    /// Restarts per slice; `recovery_s` is the median of all of them.
    pub restarts_per_slice: usize,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "query_hot" => Some(Workload::QueryHot),
            "batch_cold" => Some(Workload::BatchCold),
            "edit_mix" => Some(Workload::EditMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query_hot",
            Workload::BatchCold => "batch_cold",
            Workload::EditMix => "edit_mix",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::QueryHot => Spec {
                tenants: 4,
                classes: 2000,
                io_model: IoModel::Threads,
                wal: false,
                probes_per_read: 1,
                round: 1000,
                rounds_per_second: 30,
                reads_per_edit: 0,
                trace_rounds: 20,
                slices: 10,
                restarts_per_slice: 3,
            },
            Workload::BatchCold => Spec {
                tenants: 2,
                classes: 4000,
                io_model: IoModel::Epoll,
                wal: false,
                probes_per_read: 64,
                round: 200,
                rounds_per_second: 40,
                reads_per_edit: 0,
                trace_rounds: 20,
                slices: 10,
                restarts_per_slice: 3,
            },
            Workload::EditMix => Spec {
                tenants: 1,
                classes: 500,
                io_model: IoModel::Threads,
                wal: true,
                probes_per_read: 1,
                round: 16,
                rounds_per_second: 8,
                reads_per_edit: 15,
                trace_rounds: 160,
                slices: 10,
                restarts_per_slice: 1,
            },
        }
    }
}

/// SplitMix64: small, fast, and fixed forever, so a seed names the
/// same inputs on every commit.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("zipf over an empty range");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Maps an in-process outcome to the wire shape the server must send,
/// naming classes from `chg`.
pub fn wire_of(chg: &Chg, outcome: &LookupOutcome) -> WireOutcome {
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

/// One live `(class, member)` pair: its ids, its names, and the
/// reference answer `LookupTable::build` gives for it in wire form.
#[derive(Clone)]
pub struct LivePair {
    pub ids: (ClassId, MemberId),
    pub names: (String, String),
    pub expected: WireOutcome,
}

/// Every live pair of `chg`.
pub fn live_pairs(chg: &Chg) -> Vec<LivePair> {
    let table = LookupTable::build(chg);
    let mut pairs = Vec::new();
    for c in chg.classes() {
        for m in table.members_of(c) {
            pairs.push(LivePair {
                ids: (c, m),
                names: (chg.class_name(c).to_owned(), chg.member_name(m).to_owned()),
                expected: wire_of(chg, &table.lookup(c, m)),
            });
        }
    }
    pairs
}

/// One tenant's inputs.
pub struct Tenant {
    pub name: String,
    pub chg: Chg,
    /// Live pairs in a seeded shuffled order; zipf ranks index this.
    pub pairs: Vec<LivePair>,
}

/// One request of the stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// A read of `tenant`. With one probe per read `pick` is the probe
    /// index; otherwise it seeds the batch's uniform draw
    /// ([`Inputs::read_picks`]).
    Read { tenant: u32, pick: u64 },
    /// Edit `k` of the script.
    Edit(usize),
}

/// One edit, as the directive sent over the wire and the equivalent
/// [`Edit`] the reference rebuild applies.
pub struct EditStep {
    pub directive: String,
    pub edit: Edit,
}

/// Everything one run needs. The hierarchies and the edit script are
/// fixed per workload (tenant `i` is generated from seed `i + 1`, the
/// script from seed 1); `--seed` drives the reads sent to them: the
/// probe order, the request stream and the batch draws. Drawing the
/// hierarchies or the script from `--seed` too moved set-up time, peak
/// memory and edit_mix's replay time by up to a quarter between seeds
/// (a script's edges can grow the hierarchy's live pairs by 63% or by
/// 118%), which would measure the draw rather than the code.
pub struct Inputs {
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
    /// The timed stream, `rounds * spec.round` requests.
    pub ops: Vec<Op>,
    /// The edit script; edit 0 is applied at set-up, the rest are in `ops`.
    pub script: Vec<EditStep>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let spec = workload.spec();
        let tenants: Vec<Tenant> = (0..spec.tenants)
            .map(|i| {
                let chg = random_hierarchy(&RandomConfig::realistic(spec.classes, 1 + i as u64));
                let mut pairs = live_pairs(&chg);
                Rng::derive(seed, 100 + i as u64).shuffle(&mut pairs);
                Tenant {
                    name: format!("t{i}"),
                    chg,
                    pairs,
                }
            })
            .collect();

        let rounds = spec.rounds_per_second * seconds.max(1) as usize;
        let total = rounds * spec.round;
        let mut rng = Rng::derive(seed, 200);
        let tenant_zipf = Zipf::new(spec.tenants, 1.0);
        let probe_zipf: Vec<Zipf> = tenants
            .iter()
            .map(|t| Zipf::new(t.pairs.len(), 1.0))
            .collect();
        let mut ops = Vec::with_capacity(total);
        let mut edits = 0;
        for i in 0..total {
            if spec.reads_per_edit > 0 && i % (spec.reads_per_edit + 1) == 0 {
                edits += 1;
                ops.push(Op::Edit(edits));
                continue;
            }
            let op = if spec.probes_per_read == 1 {
                let tenant = tenant_zipf.sample(&mut rng);
                let pick = probe_zipf[tenant].sample(&mut rng) as u64;
                Op::Read {
                    tenant: tenant as u32,
                    pick,
                }
            } else {
                Op::Read {
                    tenant: rng.below(spec.tenants) as u32,
                    pick: rng.next_u64(),
                }
            };
            ops.push(op);
        }
        let script = if spec.reads_per_edit > 0 {
            edit_script(&tenants[0].chg, edits + 1, &mut Rng::derive(1, 300))
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            spec,
            seed,
            tenants,
            ops,
            script,
        }
    }

    /// The probe indices of a read: the pick itself for a single-probe
    /// read, else a uniform draw over the tenant's live pairs seeded by
    /// the pick.
    pub fn read_picks(&self, tenant: usize, pick: u64, out: &mut Vec<usize>) {
        out.clear();
        if self.spec.probes_per_read == 1 {
            out.push(pick as usize);
            return;
        }
        let n = self.tenants[tenant].pairs.len();
        let mut rng = Rng::new(pick);
        out.extend((0..self.spec.probes_per_read).map(|_| rng.below(n)));
    }

    /// The hierarchy of tenant 0 after edits `0..applied` of the
    /// script, rebuilt from scratch.
    pub fn edited_chg(&self, applied: usize) -> Chg {
        let edits: Vec<Edit> = self.script[..applied]
            .iter()
            .map(|s| s.edit.clone())
            .collect();
        apply_edits(&self.tenants[0].chg, &edits).expect("the script is built to apply cleanly")
    }
}

/// A script of `count` edits that the engine accepts in order, two
/// fifths `member`, two fifths `edge` and one fifth `class`:
/// `class` adds a fresh root, `member` declares a name the class does
/// not declare yet, and `edge` only runs from a later class to an
/// earlier one (creation order is topological) and never repeats a
/// direct base.
pub fn edit_script(base: &Chg, count: usize, rng: &mut Rng) -> Vec<EditStep> {
    let mut names: Vec<String> = base
        .classes()
        .map(|c| base.class_name(c).to_owned())
        .collect();
    let mut bases: Vec<Vec<usize>> = base
        .classes()
        .map(|c| {
            base.direct_bases(c)
                .iter()
                .map(|s| s.base.index())
                .collect()
        })
        .collect();
    let mut declared: Vec<Vec<String>> = base
        .classes()
        .map(|c| {
            base.declared_members(c)
                .iter()
                .map(|(m, _)| base.member_name(*m).to_owned())
                .collect()
        })
        .collect();
    let pool: Vec<String> = base
        .member_ids()
        .map(|m| base.member_name(m).to_owned())
        .collect();
    let mut script = Vec::with_capacity(count);
    let (mut fresh_classes, mut fresh_members) = (0, 0);
    while script.len() < count {
        let n = names.len();
        // A fixed cycle of kinds (member, edge, member, edge, class)
        // gives every seed the same mix; only the targets are drawn.
        let slot = script.len() % 5;
        if slot == 4 {
            let name = format!("E{fresh_classes}");
            fresh_classes += 1;
            names.push(name.clone());
            bases.push(Vec::new());
            declared.push(Vec::new());
            script.push(EditStep {
                directive: format!("class {name}"),
                edit: Edit::AddClass { name },
            });
        } else if slot % 2 == 0 || n < 2 {
            let c = rng.below(n);
            let mut name = pool[rng.below(pool.len())].clone();
            if declared[c].contains(&name) {
                name = format!("f{fresh_members}");
                fresh_members += 1;
            }
            declared[c].push(name.clone());
            script.push(EditStep {
                directive: format!("member {} {name}", names[c]),
                edit: Edit::AddMember {
                    class: ClassId::from_index(c),
                    name,
                    decl: MemberDecl::public(MemberKind::Function),
                },
            });
        } else {
            let derived = 1 + rng.below(n - 1);
            let Some(base_idx) = (0..8)
                .map(|_| rng.below(derived))
                .find(|b| !bases[derived].contains(b))
            else {
                continue;
            };
            let virt = rng.below(100) < 15;
            bases[derived].push(base_idx);
            script.push(EditStep {
                directive: format!(
                    "edge {} {}{}",
                    names[derived],
                    names[base_idx],
                    if virt { " virtual" } else { "" }
                ),
                edit: Edit::AddEdge {
                    derived: ClassId::from_index(derived),
                    base: ClassId::from_index(base_idx),
                    inheritance: if virt {
                        Inheritance::Virtual
                    } else {
                        Inheritance::NonVirtual
                    },
                    access: Access::Public,
                },
            });
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpplookup_core::LookupEngine;

    #[test]
    fn edit_script_is_seeded_and_never_rejected() {
        let base = random_hierarchy(&RandomConfig::realistic(60, 3));
        let script = edit_script(&base, 300, &mut Rng::new(5));
        let again = edit_script(&base, 300, &mut Rng::new(5));
        assert!(script
            .iter()
            .zip(&again)
            .all(|(a, b)| a.directive == b.directive));
        let mut engine = LookupEngine::new(base.clone());
        for step in &script {
            engine
                .apply(std::slice::from_ref(&step.edit))
                .unwrap_or_else(|e| panic!("`{}` rejected: {e}", step.directive));
        }
        let edits: Vec<Edit> = script.iter().map(|s| s.edit.clone()).collect();
        assert!(apply_edits(&base, &edits).is_ok());
    }

    #[test]
    fn zipf_stays_in_range_and_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::new(9);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn fixed_work_does_not_depend_on_speed() {
        let a = Inputs::generate(Workload::EditMix, 4, 1);
        let spec = Workload::EditMix.spec();
        assert_eq!(a.ops.len(), spec.rounds_per_second * spec.round);
        let edits = a.ops.iter().filter(|o| matches!(o, Op::Edit(_))).count();
        assert_eq!(a.script.len(), edits + 1);
    }
}
