//! The one way a micro-benchmark result is serialized: [`BenchRecord`],
//! with one [`BenchRecord::render`] and one [`BenchRecord::parse`] that
//! round-trip and read every `BENCH_*.json` at the repository root.
//!
//! The files are our own output and the build is offline, so the parser
//! is a small JSON-subset reader (objects, arrays, finite numbers,
//! strings with `\"` and `\\` escapes, booleans) rather than a
//! dependency; anything else is a typed [`ParseError`].

use std::fmt::{self, Write as _};

use crate::paired::{Paired, Stat};

/// A config or row value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite number (counts included).
    Num(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
    /// A list of numbers (swept dimensions, thread counts).
    List(Vec<f64>),
}

/// Round to four decimals: what the files keep of a measurement.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        assert!(x.is_finite(), "records hold finite numbers only");
        Value::Num(round4(x))
    }
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Num(x as f64)
            }
        }
        impl From<Vec<$t>> for Value {
            fn from(xs: Vec<$t>) -> Self {
                Value::List(xs.into_iter().map(|x| x as f64).collect())
            }
        }
    )*};
}
value_from_int!(usize, u32, u64);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// Ordered `key: value` pairs (a config, or one result row).
pub type Fields = Vec<(String, Value)>;

/// Build [`Fields`] from `key => value` pairs.
#[macro_export]
macro_rules! fields {
    ($($key:expr => $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), $crate::record::Value::from($value))),*]
    };
}

/// The host a record was measured on. Scaling numbers are meaningless
/// without the thread count next to them.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// `std::thread::available_parallelism` of the measuring process.
    pub threads_available: usize,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
}

impl Machine {
    /// The host this process runs on.
    pub fn this_host() -> Self {
        Self {
            threads_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// One benchmark run: what was configured, where it ran, the per-lane
/// (or per-cell) rows and the summary statistics the gates read.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`BENCH_<bench>.json`).
    pub bench: String,
    /// The configuration measured.
    pub config: Fields,
    /// The measuring host.
    pub machine: Machine,
    /// Detail rows.
    pub rows: Vec<Fields>,
    /// Named statistics: median and MAD across repetitions.
    pub summary: Vec<(String, Stat)>,
}

impl BenchRecord {
    /// An empty record for `bench` measured on this host.
    pub fn new(bench: &str, config: Fields) -> Self {
        Self {
            bench: bench.to_string(),
            config,
            machine: Machine::this_host(),
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Append one row per lane of `paired` — `lane`, `ms_quiet`,
    /// `ms_quiet_mad`, `max_ms` — followed by `extra(lane)`.
    pub fn lane_rows(&mut self, paired: &Paired, extra: impl Fn(&str) -> Fields) {
        for lane in paired.lanes() {
            let quiet = paired.quiet_ms(lane);
            let mut row = fields! {
                "lane" => lane.as_str(),
                "ms_quiet" => quiet.median,
                "ms_quiet_mad" => quiet.mad,
                "max_ms" => paired.max_ms(lane),
            };
            row.extend(extra(lane));
            self.rows.push(row);
        }
    }

    /// Record a summary statistic.
    pub fn put(&mut self, metric: &str, stat: Stat) {
        let stat = Stat {
            median: round4(stat.median),
            mad: round4(stat.mad),
        };
        self.summary.push((metric.to_string(), stat));
    }

    /// The summary statistic named `metric`.
    pub fn metric(&self, metric: &str) -> Option<Stat> {
        let found = self.summary.iter().find(|(name, _)| name == metric);
        found.map(|(_, stat)| *stat)
    }

    /// The median of summary statistic `metric`.
    ///
    /// # Panics
    /// If the record has no such metric (a caller's typo, not input).
    pub fn median(&self, metric: &str) -> f64 {
        self.metric(metric)
            .unwrap_or_else(|| panic!("{}: no summary metric {metric}", self.bench))
            .median
    }

    /// Numeric field `key` of the first row whose `lane` is `lane`.
    ///
    /// # Panics
    /// If there is no such row or field (a caller's typo, not input).
    pub fn lane_num(&self, lane: &str, key: &str) -> f64 {
        let is_lane = |row: &&Fields| {
            row.iter()
                .any(|(k, v)| k == "lane" && *v == Value::from(lane))
        };
        let row = self.rows.iter().find(is_lane);
        match row.and_then(|r| r.iter().find(|(k, _)| k == key)) {
            Some((_, Value::Num(x))) => *x,
            _ => panic!("{}: no numeric {key} in lane {lane}", self.bench),
        }
    }

    /// Render as the `BENCH_<bench>.json` document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": {},", quoted(&self.bench));
        let _ = writeln!(out, "  \"config\": {},", object(&self.config));
        let _ = writeln!(
            out,
            "  \"machine\": {{\"threads_available\": {}, \"os\": {}, \"arch\": {}}},",
            self.machine.threads_available,
            quoted(&self.machine.os),
            quoted(&self.machine.arch)
        );
        let rows: Vec<String> = self.rows.iter().map(object).collect();
        let _ = writeln!(out, "  \"rows\": [{}],", lines(&rows));
        let summary: Vec<String> = self
            .summary
            .iter()
            .map(|(name, s)| {
                let stat = format!("{{\"median\": {}, \"mad\": {}}}", s.median, s.mad);
                format!("{}: {stat}", quoted(name))
            })
            .collect();
        let _ = writeln!(out, "  \"summary\": {{{}}}", lines(&summary));
        out.push_str("}\n");
        out
    }

    /// Parse a document [`BenchRecord::render`] wrote.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let root = p.value()?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(p.error("trailing input"));
        }
        let shape = |what: &str| ParseError(format!("record shape: {what}"));
        let Json::Obj(mut root) = root else {
            return Err(shape("top level is not an object"));
        };
        let mut take = |key: &str| {
            let at = root.iter().position(|(k, _)| k == key);
            at.map(|i| root.remove(i).1)
                .ok_or_else(|| shape(&format!("missing \"{key}\"")))
        };
        let Json::Str(bench) = take("bench")? else {
            return Err(shape("\"bench\" is not a string"));
        };
        let config = to_fields(take("config")?)?;
        let machine = match to_fields(take("machine")?)?.as_slice() {
            [(t, Value::Num(threads)), (o, Value::Str(os)), (a, Value::Str(arch))]
                if t == "threads_available" && o == "os" && a == "arch" =>
            {
                Machine {
                    threads_available: *threads as usize,
                    os: os.clone(),
                    arch: arch.clone(),
                }
            }
            _ => return Err(shape("\"machine\" is not {threads_available, os, arch}")),
        };
        let Json::Arr(rows) = take("rows")? else {
            return Err(shape("\"rows\" is not an array"));
        };
        let rows = rows.into_iter().map(to_fields).collect::<Result<_, _>>()?;
        let Json::Obj(summary) = take("summary")? else {
            return Err(shape("\"summary\" is not an object"));
        };
        let summary = summary
            .into_iter()
            .map(|(name, stat)| match to_fields(stat)?.as_slice() {
                [(m, Value::Num(median)), (d, Value::Num(mad))] if m == "median" && d == "mad" => {
                    Ok((
                        name,
                        Stat {
                            median: *median,
                            mad: *mad,
                        },
                    ))
                }
                _ => Err(shape("a summary entry is not {median, mad}")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            bench,
            config,
            machine,
            rows,
            summary,
        })
    }
}

/// Human-readable form, printed by `bench_check` and `bench_record`.
impl fmt::Display for BenchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "## {} ({}, host threads {})",
            self.bench,
            inline(&self.config),
            self.machine.threads_available
        )?;
        for row in &self.rows {
            writeln!(f, "   {}", inline(row))?;
        }
        for (name, s) in &self.summary {
            writeln!(f, "   {name}: {} ± {} MAD", s.median, s.mad)?;
        }
        Ok(())
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn scalar(v: &Value) -> String {
    match v {
        Value::Num(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => quoted(s),
        Value::List(xs) => {
            let items: Vec<String> = xs.iter().map(f64::to_string).collect();
            format!("[{}]", items.join(", "))
        }
    }
}

fn object(fields: &Fields) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", quoted(k), scalar(v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn inline(fields: &Fields) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{k} {}", scalar(v)))
        .collect();
    items.join(", ")
}

/// One item per line, indented inside the enclosing brackets.
fn lines(items: &[String]) -> String {
    if items.is_empty() {
        return String::new();
    }
    format!("\n    {}\n  ", items.join(",\n    "))
}

/// Why a document could not be read as a [`BenchRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench record: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn to_fields(json: Json) -> Result<Fields, ParseError> {
    let Json::Obj(entries) = json else {
        return Err(ParseError("record shape: expected an object".into()));
    };
    let to_value = |(key, json)| {
        let value = match json {
            Json::Num(x) => Value::Num(x),
            Json::Bool(b) => Value::Bool(b),
            Json::Str(s) => Value::Str(s),
            Json::Arr(items) => Value::List(
                items
                    .into_iter()
                    .map(|item| match item {
                        Json::Num(x) => Ok(x),
                        _ => Err(ParseError("record shape: lists hold numbers".into())),
                    })
                    .collect::<Result<_, _>>()?,
            ),
            Json::Obj(_) => return Err(ParseError("record shape: nested object".into())),
        };
        Ok((key, value))
    };
    entries.into_iter().map(to_value).collect()
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> ParseError {
        ParseError(format!("{what} at byte {}", self.i))
    }

    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.s.get(self.i) == Some(&byte);
        self.i += usize::from(hit);
        hit
    }

    /// Comma-separated `item`s up to `close` (the opener is consumed).
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut bytes = Vec::new();
        loop {
            let escaped = self.s.get(self.i) == Some(&b'\\');
            self.i += usize::from(escaped);
            match self.s.get(self.i) {
                Some(&b @ (b'"' | b'\\')) if escaped => bytes.push(b),
                Some(b'"') => break,
                Some(&b) if !escaped => bytes.push(b),
                _ => return Err(self.error("unterminated string or unknown escape")),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(bytes).map_err(|_| self.error("string is not UTF-8"))
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let entry = |p: &mut Self| {
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value()?))
                };
                self.sequence(b'}', entry).map(Json::Obj)
            }
            Some(b'[') => {
                self.i += 1;
                self.sequence(b']', Self::value).map(Json::Arr)
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let rest = &self.s[self.i..];
                let is_num = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
                let len = rest.iter().position(|b| !is_num(b)).unwrap_or(rest.len());
                let number = std::str::from_utf8(&rest[..len]).ok();
                match number.and_then(|n| n.parse::<f64>().ok()) {
                    Some(x) if x.is_finite() => {
                        self.i += len;
                        Ok(Json::Num(x))
                    }
                    _ => Err(self.error("expected a value")),
                }
            }
        }
    }
}
