//! Run sets: one JSON line holding every workload's end-to-end repetitions
//! and per-layer values at one commit and seed. `icbench runset` makes the
//! runs — each in a process of its own, as the driver does, so `VmHWM` and
//! allocator state never carry over — and appends such a line
//! (`history.jsonl` is a file of them); `icbench compare` holds two of
//! them against the bounds in [`END_TO_END`].

use std::io::Write as _;
use std::path::Path;

use crate::metrics::{Better, Clock, END_TO_END};
use crate::run::median;
use crate::workload::Workload;

/// A parsed JSON value (the subset run sets and `BENCHMARK.json` use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// A string without escapes beyond `\"` and `\\` (all the benchmark's
    /// own files contain).
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    if !matches!(escaped, b'"' | b'\\' | b'/') {
                        return Err(format!("unsupported escape at byte {}", self.i));
                    }
                    out.push(escaped);
                    self.i += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range over the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

impl std::fmt::Display for Json {
    /// Compact JSON, members in insertion order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => {
                let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
                write!(f, "\"{escaped}\"")
            }
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(","))
            }
            Json::Obj(members) => {
                let members: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                write!(f, "{{{}}}", members.join(","))
            }
        }
    }
}

/// Prefix of the machine-readable line a run prints before its result
/// line: report hash, request tallies and the per-repetition host times.
pub const DETAIL_PREFIX: &str = "detail ";

/// One run of this program in a process of its own, as the driver makes
/// them. Returns the parsed detail line and the result line's `metrics`.
fn child_run(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let what = format!("{} --trace {}", workload.name(), u8::from(trace));
    eprintln!("runset: {what}");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{what} failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{what} printed no detail line"))?;
    let result = stdout.lines().last().unwrap_or_default();
    let metrics = Json::parse(result)?
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{what} printed no metrics"))?;
    Ok((Json::parse(detail)?, metrics))
}

/// Runs every workload untraced and traced, each run in a process of its
/// own (`exe` is this program), and appends the run set as one line to
/// `out`.
pub fn runset(exe: &Path, out: &Path, seed: u64, seconds: f64, commit: &str) -> Result<(), String> {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let (detail, end_to_end) = child_run(exe, workload, seed, seconds, false)?;
        let (traced_detail, layers) = child_run(exe, workload, seed, seconds, true)?;
        if detail.get("hash") != traced_detail.get("hash") {
            return Err(format!(
                "{}: the traced run's report hash differs from the untraced run's",
                workload.name()
            ));
        }
        // Per-repetition values where the run has them, the one reported
        // value otherwise.
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let reps = detail.get(m.name).cloned().or_else(|| {
                    let value = end_to_end.get(m.name)?.get("value")?;
                    Some(Json::Arr(vec![value.clone()]))
                });
                reps.map(|r| (m.name.to_owned(), r))
                    .ok_or_else(|| format!("{}: no {}", workload.name(), m.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let Json::Obj(layers) = layers else {
            return Err(format!("{}: metrics is not an object", workload.name()));
        };
        let layers = layers
            .into_iter()
            .map(|(name, v)| (name, v.get("value").cloned().unwrap_or(Json::Null)))
            .collect();
        let Json::Obj(mut members) = detail else {
            return Err(format!("{}: detail is not an object", workload.name()));
        };
        members.retain(|(k, _)| !END_TO_END.iter().any(|m| m.name == k));
        members.push(("e2e".to_owned(), Json::Obj(e2e)));
        members.push(("layers".to_owned(), Json::Obj(layers)));
        workloads.push((workload.name().to_owned(), Json::Obj(members)));
    }
    let set = Json::Obj(vec![
        ("commit".to_owned(), Json::Str(commit.to_owned())),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        ("rustc".to_owned(), Json::Str(rustc)),
        ("workloads".to_owned(), Json::Obj(workloads)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("opening {}: {e}", out.display()))?;
    file.write_all(format!("{set}\n").as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("writing {}: {e}", out.display()))
}

/// The last run set in a file of them.
fn last_runset(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} holds no run set", path.display()))?;
    Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))
}

fn reps_of(set: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("e2e"))
        .and_then(|e| e.get(metric))
        .and_then(Json::arr)
        .map(|a| a.iter().filter_map(Json::num).collect::<Vec<f64>>())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("run set lacks {workload}/{metric}"))
}

/// Compares run set `b` against `a` and prints one row per (metric,
/// workload). Returns whether `b` holds: no host median worse than `a`'s
/// by more than its bound, and every simulated-clock metric and report
/// hash identical.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (last_runset(a_path)?, last_runset(b_path)?);
    let seed = |s: &Json| s.get("seed").and_then(Json::num);
    if seed(&a) != seed(&b) {
        return Err(format!(
            "seeds differ ({:?} vs {:?}): simulated-clock metrics are comparable only at one seed",
            seed(&a),
            seed(&b)
        ));
    }
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6}  status",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut holds = true;
    for workload in Workload::ALL {
        let name = workload.name();
        let hash = |s: &Json| {
            s.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("hash"))
                .and_then(Json::str)
                .map(str::to_owned)
                .ok_or_else(|| format!("run set lacks {name}/hash"))
        };
        let (ha, hb) = (hash(&a)?, hash(&b)?);
        let same = ha == hb;
        holds &= same;
        println!(
            "{name:<18} {:<20} {ha:>14.14} {hb:>14.14} {:>9} {:>6}  {}",
            "report_fnv64",
            "",
            "",
            if same { "identical" } else { "CHANGED" }
        );
        for m in &END_TO_END {
            let (ra, rb) = (reps_of(&a, name, m.name)?, reps_of(&b, name, m.name)?);
            let (ma, mb) = (median(&ra), median(&rb));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let status = match m.clock {
                Clock::Sim if ma.to_bits() == mb.to_bits() => "identical",
                Clock::Sim => {
                    holds = false;
                    "CHANGED"
                }
                Clock::Host if spread(&ra) > m.bound || spread(&rb) > m.bound => "unresolved",
                Clock::Host if worse > m.bound => {
                    holds = false;
                    "REGRESSED"
                }
                Clock::Host if worse < -m.bound => "improved",
                Clock::Host => "ok",
            };
            println!(
                "{name:<18} {:<20} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>5.0}%  {status}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(holds)
}
