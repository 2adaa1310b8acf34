//! The measurement harness behind the `report` binary: timers,
//! interleaved rounds and their statistics, the `BENCH_*.json` files
//! with their host context, the no-regression gate the CI smokes read
//! back from them, and the index-vs-table differential the serve-path
//! smokes run before timing anything.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use cpplookup_chg::{ClassId, MemberId};
use cpplookup_core::{DispatchIndex, LookupOutcome, LookupTable};

/// Runs `f` once and returns its wall-clock duration together with its
/// result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Median wall-clock time of `runs` executions of `f` (at least one).
/// The result of the last run is returned so the work cannot be
/// optimized away by the caller discarding it.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (d, v) = time_once(&mut f);
        times.push(d);
        last = Some(v);
    }
    times.sort();
    (times[times.len() / 2], last.expect("runs >= 1"))
}

/// The minimum, median and maximum of a set of measured rounds, in the
/// rounds' own unit (nanoseconds, ns per lookup, queries per second).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The smallest round.
    pub min: f64,
    /// The median round (the upper one of an even count).
    pub median: f64,
    /// The largest round.
    pub max: f64,
}

impl Spread {
    /// The spread of `rounds` (at least one).
    pub fn of(mut rounds: Vec<f64>) -> Spread {
        assert!(!rounds.is_empty(), "a spread needs at least one round");
        rounds.sort_by(f64::total_cmp);
        Spread {
            min: rounds[0],
            median: rounds[rounds.len() / 2],
            max: rounds[rounds.len() - 1],
        }
    }

    /// `{"min<unit>": …, "median<unit>": …, "max<unit>": …}`, each
    /// value rounded to two decimals, or to a whole number from 1000.
    pub fn json(&self, unit: &str) -> String {
        let v = |x: f64| {
            if x.abs() >= 1000.0 {
                x.round()
            } else {
                (x * 100.0).round() / 100.0
            }
        };
        format!(
            "{{\"min{unit}\": {}, \"median{unit}\": {}, \"max{unit}\": {}}}",
            v(self.min),
            v(self.median),
            v(self.max)
        )
    }
}

/// The median of `values` and the spread of its middle half (the
/// interquartile range, linearly interpolated) as a share of it.
pub fn median_and_iqr_share(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (values.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (x - lo as f64)
    };
    let median = at(0.5);
    (median, (at(0.75) - at(0.25)) / median)
}

/// The geometric mean of `ratios` (at least one, all positive).
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// The values of interleaved rounds: `values[contender][round]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rounds {
    values: Vec<Vec<f64>>,
}

/// Measures `contenders` against each other over `rounds` rounds. Every
/// round runs each contender once, in an order rotated by one per round
/// (round `r` starts with contender `r % contenders`), so host drift
/// during a run falls on all of them alike. `measure(k)` runs contender
/// `k` once and returns its value.
///
/// # Errors
///
/// The first error `measure` returns.
pub fn interleave(
    rounds: usize,
    contenders: usize,
    mut measure: impl FnMut(usize) -> io::Result<f64>,
) -> io::Result<Rounds> {
    let mut values = vec![Vec::with_capacity(rounds); contenders];
    for round in 0..rounds {
        for i in 0..contenders {
            let k = (round + i) % contenders;
            values[k].push(measure(k)?);
        }
    }
    Ok(Rounds { values })
}

impl Rounds {
    /// Contender `k`'s spread over the rounds.
    pub fn spread(&self, k: usize) -> Spread {
        Spread::of(self.values[k].clone())
    }

    /// `num / den` in each round.
    pub fn ratios(&self, num: usize, den: usize) -> Vec<f64> {
        self.values[num]
            .iter()
            .zip(&self.values[den])
            .map(|(n, d)| n / d.max(f64::MIN_POSITIVE))
            .collect()
    }

    /// The median per-round `num / den` ratio and its IQR share.
    pub fn ratio(&self, num: usize, den: usize) -> (f64, f64) {
        median_and_iqr_share(self.ratios(num, den))
    }
}

/// The host context every BENCH file records: QPS on a 64-core box and
/// on a 1-core container are different experiments, and a baseline is
/// meaningless without knowing which one produced it. `client_threads`
/// is the largest client-side thread count the experiment drove.
pub fn host_json(client_threads: usize) -> String {
    format!(
        "{{\"cores\": {}, \"client_threads\": {client_threads}, \"os\": \"{}\", \"arch\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// A JSON array of preformatted `rows`, one per line.
pub fn json_rows(rows: &[String]) -> String {
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Writes `BENCH_<experiment>.json` in the working directory: the
/// experiment id, the [host context](host_json), the rounds behind
/// every spread, then `fields` (name, preformatted JSON value) in
/// order; and says so on `w`.
///
/// # Errors
///
/// I/O errors from writing the file or `w`.
pub fn write_bench(
    w: &mut dyn Write,
    experiment: &str,
    client_threads: usize,
    rounds: usize,
    fields: &[(&str, String)],
) -> io::Result<()> {
    let mut json = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"host\": {},\n  \"rounds\": {rounds}",
        host_json(client_threads)
    );
    for (name, value) in fields {
        json.push_str(&format!(",\n  \"{name}\": {value}"));
    }
    json.push_str("\n}\n");
    let file = format!("BENCH_{experiment}.json");
    std::fs::write(&file, json)?;
    writeln!(w, "  wrote {file}")
}

/// A parsed JSON value: the reader for the `BENCH_*.json` files (the
/// bench crate has no serde).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document whose strings carry no escapes, as no
    /// BENCH file's do.
    ///
    /// # Errors
    ///
    /// The byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser(text.as_bytes(), 0);
        let value = p.value()?;
        match p.peek() {
            None => Ok(value),
            Some(_) => p.err("trailing bytes"),
        }
    }

    /// Reads and parses the JSON file at `path`.
    ///
    /// # Errors
    ///
    /// I/O and syntax errors.
    pub fn read(path: &Path) -> io::Result<Json> {
        let text = std::fs::read_to_string(path)?;
        Json::parse(&text).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
    }

    /// The value at `path`: each step is an object key, or `key=value`
    /// to pick the object of an array whose `key` field is the string
    /// or number `value`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter()
            .try_fold(self, |v, step| match (v, step.split_once('=')) {
                (Json::Arr(rows), Some((key, want))) => {
                    rows.iter().find(|row| match row.at(&[key]) {
                        Some(Json::Str(s)) => s == want,
                        Some(Json::Num(n)) => n.to_string() == want,
                        _ => false,
                    })
                }
                (Json::Obj(fields), _) => fields.iter().find(|(k, _)| k == step).map(|(_, v)| v),
                _ => None,
            })
    }

    /// The number at `path`.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        match self.at(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// The bytes being parsed and the offset reached.
struct JsonParser<'a>(&'a [u8], usize);

impl JsonParser<'_> {
    /// The next byte after whitespace.
    fn peek(&mut self) -> Option<u8> {
        while self.0.get(self.1).is_some_and(u8::is_ascii_whitespace) {
            self.1 += 1;
        }
        self.0.get(self.1).copied()
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.1))
    }

    /// The items of a list whose opening bracket is next, up to `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.1 += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.1 += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.1 += 1,
                Some(c) if c == close => {
                    self.1 += 1;
                    return Ok(items);
                }
                _ => return self.err(&format!("expected `,` or `{}`", close as char)),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.list(b']', Self::value).map(Json::Arr),
            Some(b'{') => self
                .list(b'}', |p| {
                    let key = p.string()?;
                    match p.peek() {
                        Some(b':') => p.1 += 1,
                        _ => return p.err("expected `:`"),
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            _ => {
                let rest = &self.0[self.1..];
                let len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                    .count();
                let value = match std::str::from_utf8(&rest[..len]).expect("ASCII") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    word => match word.parse() {
                        Ok(n) => Json::Num(n),
                        Err(_) => return self.err("expected a value"),
                    },
                };
                self.1 += len;
                Ok(value)
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.err("expected a string");
        }
        let rest = &self.0[self.1 + 1..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(len) if rest[len] == b'"' => {
                let s = String::from_utf8(rest[..len].to_vec()).or(self.err("invalid UTF-8"))?;
                self.1 += len + 2;
                Ok(s)
            }
            _ => self.err("unterminated or escaped string"),
        }
    }
}

/// A no-regression gate against a committed BENCH file: the measured
/// value must reach `max(floor, share × recorded)`, where `recorded`
/// is the number at `path` in `file`. Without the file only the
/// absolute floor applies.
#[derive(Clone, Copy, Debug)]
pub struct BaselineGate<'a> {
    /// The BENCH file, relative to the working directory.
    pub file: &'a str,
    /// Where the recorded value sits (see [`Json::at`]).
    pub path: &'a [&'a str],
    /// The absolute floor, applied with or without the file.
    pub floor: f64,
    /// The share of the recorded value the measurement must reach.
    pub share: f64,
}

impl BaselineGate<'_> {
    /// The recorded value, or `None` when the file is absent.
    ///
    /// # Errors
    ///
    /// A file that does not parse, or has no number at the path.
    pub fn recorded(&self) -> io::Result<Option<f64>> {
        let path = Path::new(self.file);
        if !path.exists() {
            return Ok(None);
        }
        let at = self.path.join(".");
        let recorded = Json::read(path)?.num(self.path);
        let missing = || io::Error::other(format!("{} records no number at {at}", self.file));
        recorded.map(Some).ok_or_else(missing)
    }

    /// Gates `measured`, printing the floor it held to (or a skip line
    /// for an absent file) on `w`.
    ///
    /// # Errors
    ///
    /// `measured` below the floor, or the errors of
    /// [`recorded`](BaselineGate::recorded).
    pub fn check(&self, w: &mut dyn Write, measured: f64) -> io::Result<()> {
        let (floor, source) = match self.recorded()? {
            Some(recorded) => (
                self.floor.max(self.share * recorded),
                format!(
                    "max({}, {}x the recorded {} {})",
                    num(self.floor),
                    self.share,
                    self.path.join("."),
                    num(recorded)
                ),
            ),
            None => {
                let file = self.file;
                writeln!(
                    w,
                    "  baseline: {file} not present, skipping no-regression guard"
                )?;
                (self.floor, "the absolute floor".to_owned())
            }
        };
        let holds = measured >= floor;
        let verdict = format!(
            "{} {} floor {} = {source}",
            num(measured),
            if holds { ">=" } else { "below" },
            num(floor)
        );
        if !holds {
            return Err(io::Error::other(verdict));
        }
        writeln!(w, "  baseline: {verdict} — PASS")
    }
}

/// A gate figure: ratios to two decimals, rates as whole numbers.
fn num(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Holds `index` to `table`, through `lookup_ref` and the batch path,
/// on every `(class, member)` id pair up to `margin` ids past both
/// ranges: dead ids still hash somewhere in the index, so this
/// exercises its key-compare rejection. Returns the number of probes.
///
/// # Errors
///
/// The first probe where the index and the table disagree, or where
/// the batch path disagrees with `lookup_ref`.
pub fn margin_differential(
    index: &DispatchIndex,
    table: &LookupTable,
    classes: usize,
    members: usize,
    margin: usize,
) -> io::Result<usize> {
    let probes: Vec<(ClassId, MemberId)> = (0..classes + margin)
        .flat_map(|c| {
            (0..members + margin).map(move |m| (ClassId::from_index(c), MemberId::from_index(m)))
        })
        .collect();
    let mut batch = Vec::new();
    index.lookup_batch_into(&probes, &mut batch);
    for (&(c, m), batched) in probes.iter().zip(&batch) {
        let want = if c.index() < classes {
            table.lookup(c, m)
        } else {
            LookupOutcome::NotFound
        };
        let got = index.lookup_ref(c, m);
        if got.to_outcome() != want || got != *batched {
            return Err(io::Error::other(format!(
                "index diverges from the table at probe ({}, {})",
                c.index(),
                m.index()
            )));
        }
    }
    Ok(probes.len())
}

/// Formats a duration compactly for table cells (`1.23ms`, `45.6µs`).
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1.0e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1.0e3)
    } else {
        format!("{nanos}ns")
    }
}

/// [`fmt_duration`] of a nanosecond count.
pub fn fmt_ns(ns: f64) -> String {
    fmt_duration(Duration::from_nanos(ns as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_rounds() {
        let spread = Spread::of(vec![3e6, 1e6, 2e6]);
        assert_eq!((spread.min, spread.median, spread.max), (1e6, 2e6, 3e6));
        assert_eq!(
            spread.json("_ns"),
            "{\"min_ns\": 1000000, \"median_ns\": 2000000, \"max_ns\": 3000000}"
        );
        // An even count takes the upper median; values keep two
        // decimals below 1000.
        let spread = Spread::of(vec![4321.5, 1.004, 2.5, 3.126]);
        assert_eq!(spread.median, 3.126);
        assert_eq!(
            spread.json(""),
            "{\"min\": 1, \"median\": 3.13, \"max\": 4322}"
        );
    }

    #[test]
    fn median_and_iqr_share_interpolate() {
        // Quartiles of 1..=5 are 2 and 4 around a median of 3.
        let (median, iqr) = median_and_iqr_share(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(median, 3.0);
        assert!((iqr - 2.0 / 3.0).abs() < 1e-12, "{iqr}");
        // Four values: median 2.5, quartiles 1.75 and 3.25.
        let (median, iqr) = median_and_iqr_share(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(median, 2.5);
        assert!((iqr - 1.5 / 2.5).abs() < 1e-12, "{iqr}");
        assert_eq!(median_and_iqr_share(vec![7.0]), (7.0, 0.0));
    }

    #[test]
    fn geomean_of_known_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn interleave_rotates_the_order_each_round() {
        let mut order = Vec::new();
        let rounds = interleave(4, 3, |k| {
            order.push(k);
            Ok((10 * (k + 1) + order.len()) as f64)
        })
        .unwrap();
        assert_eq!(order, [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        // values[k][round] in round order, whatever the call order.
        assert_eq!(rounds.spread(0).min, 11.0);
        assert_eq!(rounds.spread(0).max, 20.0);
        assert_eq!(
            rounds.ratios(1, 0),
            [22.0 / 11.0, 24.0 / 16.0, 29.0 / 18.0, 31.0 / 20.0]
        );
        let (median, _) = rounds.ratio(1, 0);
        assert_eq!(median, median_and_iqr_share(rounds.ratios(1, 0)).0);
    }

    #[test]
    fn interleave_stops_at_the_first_error() {
        let mut calls = 0;
        let err = interleave(3, 2, |k| {
            calls += 1;
            if k == 1 {
                Err(io::Error::other("contender 1 failed"))
            } else {
                Ok(1.0)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "contender 1 failed");
        assert_eq!(calls, 2);
    }

    #[test]
    fn json_parses_and_walks_rows() {
        let doc = Json::parse(
            r#"{"experiment": "e0", "host": {"cores": 2, "os": "linux"},
                "rows": [{"name": "a", "n": 1}, {"name": "b", "n": -2.5e1, "ok": true}],
                "levels": [{"connections": 1, "qps": 10}, {"connections": 8, "qps": 80}],
                "empty": [], "obj": {}}"#,
        )
        .unwrap();
        assert_eq!(doc.num(&["host", "cores"]), Some(2.0));
        assert_eq!(
            doc.at(&["host", "os"]),
            Some(&Json::Str("linux".to_owned()))
        );
        assert_eq!(doc.num(&["rows", "name=b", "n"]), Some(-25.0));
        assert_eq!(doc.at(&["rows", "name=b", "ok"]), Some(&Json::Bool(true)));
        assert_eq!(doc.num(&["levels", "connections=8", "qps"]), Some(80.0));
        assert_eq!(doc.at(&["rows", "name=c"]), None);
        assert_eq!(doc.num(&["experiment"]), None, "a string is not a number");
        assert_eq!(doc.at(&["empty"]), Some(&Json::Arr(Vec::new())));
        assert_eq!(doc.at(&["obj"]), Some(&Json::Obj(Vec::new())));
        for bad in [
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{} x",
            "\"open",
            "nul",
            "\"a\\\"b\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// A scratch BENCH file, removed on drop, and a gate reading it.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn with(tag: &str, text: Option<&str>) -> Scratch {
            let path = std::env::temp_dir()
                .join(format!("cpplookup-gate-{tag}-{}.json", std::process::id()));
            if let Some(text) = text {
                std::fs::write(&path, text).unwrap();
            }
            Scratch(path)
        }

        fn gate(&self) -> BaselineGate<'_> {
            BaselineGate {
                file: self.0.to_str().unwrap(),
                path: &["families", "name=grid", "ratio"],
                floor: 2.0,
                share: 0.4,
            }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn gate_reads_the_named_rows_field() {
        let file = Scratch::with(
            "present",
            Some(
                r#"{"families": [{"name": "chain", "ratio": 1.5},
                    {"name": "grid", "ratio": 10.0}, {"name": "wide", "ratio": 99.0}]}"#,
            ),
        );
        let gate = file.gate();
        assert_eq!(gate.recorded().unwrap(), Some(10.0));
        // The floor is max(2.0, 0.4 × 10.0) = 4.0.
        let mut out = Vec::new();
        gate.check(&mut out, 4.0).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("4.00 >= floor 4.00") && text.contains("PASS"),
            "{text}"
        );
        let err = gate.check(&mut Vec::new(), 3.9).unwrap_err();
        assert!(err.to_string().contains("3.90 below floor 4.00"), "{err}");
    }

    #[test]
    fn gate_does_not_read_a_later_rows_field() {
        // The named row lacks the field; the next row has it.
        let file = Scratch::with(
            "missing",
            Some(
                r#"{"families": [{"name": "grid", "other": 1.0}, {"name": "wide", "ratio": 99.0}]}"#,
            ),
        );
        let err = file.gate().recorded().unwrap_err();
        assert!(
            err.to_string()
                .contains("no number at families.name=grid.ratio"),
            "{err}"
        );
        assert!(file.gate().check(&mut Vec::new(), 1e9).is_err());
    }

    #[test]
    fn gate_without_the_file_applies_only_the_floor() {
        let file = Scratch::with("absent", None);
        let gate = file.gate();
        assert_eq!(gate.recorded().unwrap(), None);
        let mut out = Vec::new();
        gate.check(&mut out, 2.0).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("not present, skipping"), "{text}");
        assert!(gate.check(&mut Vec::new(), 1.9).is_err());
    }

    #[test]
    fn margin_differential_covers_live_and_dead_ids() {
        let g = cpplookup_chg::fixtures::fig3();
        let table = LookupTable::build(&g);
        let index = DispatchIndex::from_table(LookupTable::build(&g));
        let (classes, members) = (g.class_count(), g.member_name_count());
        let probes = margin_differential(&index, &table, classes, members, 3).unwrap();
        assert_eq!(probes, (classes + 3) * (members + 3));
        // Against another hierarchy's table the index diverges.
        let other = LookupTable::build(&cpplookup_chg::fixtures::fig9());
        let classes = classes.min(cpplookup_chg::fixtures::fig9().class_count());
        assert!(margin_differential(&index, &other, classes, members, 0).is_err());
    }

    #[test]
    fn median_returns_value_and_positive_time() {
        let (d, v) = median_time(5, || (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d.as_nanos() > 0 || d.is_zero());
    }

    #[test]
    fn zero_runs_clamps_to_one() {
        let (_, v) = median_time(0, || 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120ns");
        assert_eq!(fmt_duration(Duration::from_micros(45)), "45.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_ns(12_000_000.0), "12.00ms");
    }

    /// Every committed `BENCH_e2*.json` parses and records its host's
    /// cores. The files recorded through [`write_bench`] also carry the
    /// rounds behind their spreads and a min/median/max per timed
    /// column, and BENCH_e22 has no columns of the deleted snapshot
    /// read path.
    #[test]
    fn committed_bench_files_carry_host_and_spread() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if !(name.starts_with("BENCH_e2") && name.ends_with(".json")) {
                continue;
            }
            let doc = Json::read(&root.join(&name)).unwrap();
            let cores = doc.num(&["host", "cores"]);
            assert!(cores.is_some_and(|c| c >= 1.0), "{name}: no host.cores");
            seen.push((name, doc));
        }
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        let names: Vec<&str> = seen.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "BENCH_e22.json",
                "BENCH_e23.json",
                "BENCH_e24.json",
                "BENCH_e25.json",
                "BENCH_e26.json",
                "BENCH_e27.json"
            ]
        );
        let doc = |name: &str| &seen.iter().find(|(n, _)| n == name).unwrap().1;
        let spread = |doc: &Json, path: &[&str]| {
            let at = doc.at(path).unwrap_or_else(|| panic!("no {path:?}"));
            for k in ["min", "median", "max"] {
                assert!(at.num(&[k]).is_some(), "{path:?} has no {k}");
            }
        };
        for name in ["BENCH_e22.json", "BENCH_e23.json", "BENCH_e26.json"] {
            let doc = doc(name);
            assert!(
                doc.num(&["host", "cores"]).unwrap() >= 2.0,
                "{name}: one core"
            );
            assert!(
                doc.num(&["rounds"]).is_some_and(|r| r >= 2.0),
                "{name}: rounds"
            );
        }
        let e22 = doc("BENCH_e22.json");
        for family in ["chain_2500", "grid_50x50", "realistic_4000"] {
            let row = format!("name={family}");
            for side in ["table", "index"] {
                spread(e22, &["families", &row, "single_ns", side]);
                spread(e22, &["families", &row, "qps", side]);
            }
        }
        assert!(
            !std::fs::read_to_string(root.join("BENCH_e22.json"))
                .unwrap()
                .contains("snapshot"),
            "BENCH_e22.json still records the snapshot read path"
        );
        let e23 = doc("BENCH_e23.json");
        for level in ["connections=1", "connections=8", "connections=32"] {
            spread(e23, &["levels", level, "qps"]);
        }
        let e26 = doc("BENCH_e26.json");
        for side in ["mph", "owned", "batch"] {
            spread(e26, &["families", "name=grid_50x50", "single_ns", side]);
        }
        spread(e26, &["scaling", "points", "threads=4", "qps"]);
    }
}
