//! Structured telemetry on the virtual clock: causal spans, counters and
//! duration histograms, with Chrome-trace and span-tree exporters.
//!
//! The metric [`Recorder`](crate::metrics::Recorder) answers *"how much
//! resource was consumed per 3-second bucket"* — the shape of the paper's
//! Figures 6–8. It cannot answer *"which pipeline stage caused this peak"*.
//! This module adds the attribution layer: typed **spans** with parent
//! causality and key–value attributes, monotonic **counters**, and
//! per-stage duration **histograms**, all stamped in virtual time. Each
//! closed span records its duration in microsecond ticks into a
//! [`WindowAgg`] histogram keyed by the span name — the same log₂
//! histogram the windowed health registry uses.
//!
//! The subsystem is *zero-overhead when disabled*: the [`Sim`] span/counter
//! entry points check a single `Option` and return immediately (tracked by
//! the `telemetry.span_disabled` scenario in `BENCH_kernel.json`), and a
//! disabled run is event-for-event identical to an enabled one — telemetry
//! never schedules events, never touches the recorder and never draws from
//! the RNG, so golden figure CSVs stay byte-identical either way.
//!
//! Two exporters ship with the store:
//!
//! * [`Telemetry::to_chrome_trace`] — Chrome trace-event JSON (`B`/`E`
//!   pairs, `ts` in virtual-time microseconds) loadable in Perfetto or
//!   `chrome://tracing`;
//! * [`Telemetry::span_tree`] — a plain-text causal tree with per-stage
//!   totals, for terminals and CI logs.
//!
//! [`validate_chrome_trace`] re-parses exported JSON with strict checks
//! (well-formed JSON, monotone `ts`, every `B` closed by an `E`, parent
//! references resolving) so CI can prove the exporter's output is sound.
//!
//! [`Sim`]: crate::engine::Sim

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::WindowAgg;
use crate::time::{SimTime, TICKS_PER_SEC};

/// Handle to a recorded span. `SpanId::NONE` is the null handle: returned
/// by `Sim::span_begin` while telemetry is disabled, and accepted (as a
/// no-op) by every span operation, so instrumented code never branches on
/// whether tracing is on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(u32);

impl SpanId {
    /// The null span handle (also the "no parent" marker on root spans).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null handle.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Numeric id for export (`0` = none; real spans start at `1`).
    pub fn raw(self) -> u32 {
        self.0
    }

    fn index(self) -> Option<usize> {
        (self.0 > 0).then(|| self.0 as usize - 1)
    }
}

/// A typed attribute value on a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Free-form text.
    Str(String),
    /// Unsigned integer (counts, ids, byte totals).
    U64(u64),
    /// Floating point (seconds, rates).
    F64(f64),
    /// Flag.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded span: a named interval on the virtual clock with a causal
/// parent and attributes.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Stage name (static at every instrumentation site).
    pub name: &'static str,
    /// Causal parent (`SpanId::NONE` for roots).
    pub parent: SpanId,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed (`None` while still open).
    pub end: Option<SimTime>,
    /// Whether the span ended in failure.
    pub failed: bool,
    /// Key–value attributes, in the order they were attached.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Attribute lookup by key (first match).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The telemetry store owned by a [`Sim`](crate::engine::Sim) once
/// `enable_telemetry` has been called.
#[derive(Default)]
pub struct Telemetry {
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    /// Span durations per stage name, in microsecond ticks.
    pub(crate) histos: BTreeMap<&'static str, WindowAgg>,
    /// Labelled-event execution counts (see `Sim::schedule_labeled`).
    pub(crate) labels: BTreeMap<&'static str, u64>,
    /// Per-bump counter history `(at, name, cumulative value)` — exported
    /// as Chrome-trace `"C"` counter tracks so Perfetto shows load curves
    /// alongside the spans.
    pub(crate) counter_samples: Vec<(SimTime, &'static str, u64)>,
}

impl Telemetry {
    pub(crate) fn begin_span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: SimTime,
    ) -> SpanId {
        // a dangling parent (never issued) downgrades to a root, so the
        // exporter can never emit an unresolvable reference
        let parent = if parent.index().is_some_and(|i| i < self.spans.len()) {
            parent
        } else {
            SpanId::NONE
        };
        self.spans.push(SpanRecord {
            name,
            parent,
            start,
            end: None,
            failed: false,
            attrs: Vec::new(),
        });
        SpanId(self.spans.len() as u32)
    }

    pub(crate) fn end_span(&mut self, id: SpanId, at: SimTime, failed: bool) {
        let Some(i) = id.index() else { return };
        let Some(rec) = self.spans.get_mut(i) else {
            return;
        };
        if rec.end.is_some() {
            return; // first close wins (watchdog vs late completion races)
        }
        rec.end = Some(at.max(rec.start));
        rec.failed = failed;
        let d = at.max(rec.start).since(rec.start);
        self.histos
            .entry(rec.name)
            .or_insert_with(WindowAgg::histogram)
            .record(d.ticks());
    }

    pub(crate) fn add_attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        if let Some(rec) = id.index().and_then(|i| self.spans.get_mut(i)) {
            rec.attrs.push((key, value));
        }
    }

    /// All spans, in creation order. `SpanId` `n` is `spans()[n-1]`.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// One span by id (`None` for `SpanId::NONE` or foreign ids).
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        id.index().and_then(|i| self.spans.get(i))
    }

    /// Ids of every span with the given name, in creation order.
    pub fn spans_named(&self, name: &str) -> Vec<SpanId> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| SpanId(i as u32 + 1))
            .collect()
    }

    /// Monotonic counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// One counter's value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The duration histogram (microsecond ticks) for a span name.
    pub fn histogram(&self, name: &str) -> Option<&WindowAgg> {
        self.histos.get(name)
    }

    /// Labelled-event execution counts (`Sim::schedule_labeled`).
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.labels.iter().map(|(k, v)| (*k, *v))
    }

    /// Counter bump history `(at, name, cumulative value)`, in record
    /// order (virtual time is therefore non-decreasing).
    pub fn counter_samples(&self) -> &[(SimTime, &'static str, u64)] {
        &self.counter_samples
    }

    /// Ids of `id`'s direct children, in creation order.
    pub fn children_of(&self, id: SpanId) -> Vec<SpanId> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == id)
            .map(|(i, _)| SpanId(i as u32 + 1))
            .collect()
    }

    /// Whether `id` is `root` or transitively below it.
    pub fn is_descendant(&self, id: SpanId, root: SpanId) -> bool {
        let mut cur = id;
        loop {
            if cur == root {
                return true;
            }
            match self.span(cur) {
                Some(s) if !s.parent.is_none() => cur = s.parent,
                _ => return false,
            }
        }
    }

    /// Ids of every span in `root`'s subtree (including `root`), creation
    /// order.
    pub fn subtree(&self, root: SpanId) -> Vec<SpanId> {
        (1..=self.spans.len() as u32)
            .map(SpanId)
            .filter(|&id| self.is_descendant(id, root))
            .collect()
    }

    /// Export as Chrome trace-event JSON (`ts` in virtual-time
    /// microseconds). Spans still open at export time are closed at `now`.
    ///
    /// Spans are packed onto `tid` lanes so that no two spans on one lane
    /// overlap — every `B` is closed by its own `E` before the next `B` on
    /// that lane, which keeps the stream well-formed even when sibling
    /// spans overlap in virtual time (concurrent invocations). Causality
    /// rides in `args.span` / `args.parent`.
    pub fn to_chrome_trace(&self, now: SimTime) -> String {
        // (start, end, span index), creation order breaks start ties so
        // parents (created first) sort before their same-instant children
        let mut order: Vec<(u64, u64, usize)> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let end = s.end.unwrap_or_else(|| now.max(s.start)).ticks();
                (s.start.ticks(), end, i)
            })
            .collect();
        order.sort_by_key(|&(start, _, i)| (start, i));
        // greedy interval partitioning onto lanes
        let mut lane_free_at: Vec<u64> = Vec::new();
        // (ts, lane, seq-in-lane, json text)
        let mut events: Vec<(u64, usize, usize, String)> = Vec::new();
        let mut lane_seq: Vec<usize> = Vec::new();
        for &(start, end, i) in &order {
            let s = &self.spans[i];
            let lane = match lane_free_at.iter().position(|&free| free <= start) {
                Some(l) => l,
                None => {
                    lane_free_at.push(0);
                    lane_seq.push(0);
                    lane_free_at.len() - 1
                }
            };
            lane_free_at[lane] = end;
            let mut args = format!(
                "\"span\":{},\"parent\":{}",
                i + 1,
                s.parent.raw()
            );
            if s.failed {
                args.push_str(",\"failed\":true");
            }
            for (k, v) in &s.attrs {
                let rendered = match v {
                    AttrValue::Str(t) => format!("\"{}\"", json_escape(t)),
                    AttrValue::U64(n) => n.to_string(),
                    AttrValue::F64(n) if n.is_finite() => format!("{n}"),
                    AttrValue::F64(_) => "null".to_string(),
                    AttrValue::Bool(b) => b.to_string(),
                };
                let _ = write!(args, ",\"{}\":{}", json_escape(k), rendered);
            }
            let begin = format!(
                "{{\"name\":\"{}\",\"cat\":\"onserve\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                json_escape(s.name),
                start,
                lane + 1,
                args
            );
            let close = format!(
                "{{\"name\":\"{}\",\"cat\":\"onserve\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{}}}}}",
                json_escape(s.name),
                end,
                lane + 1,
                i + 1
            );
            events.push((start, lane, lane_seq[lane], begin));
            lane_seq[lane] += 1;
            events.push((end, lane, lane_seq[lane], close));
            lane_seq[lane] += 1;
        }
        // counter tracks ("C" phase) on the lane after the spans: one
        // Perfetto counter track per counter name, each sample carrying the
        // cumulative value at that bump
        let counter_lane = lane_free_at.len();
        for (seq, (at, name, value)) in self.counter_samples.iter().enumerate() {
            events.push((
                at.ticks(),
                counter_lane,
                seq,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    json_escape(name),
                    at.ticks(),
                    counter_lane + 1,
                    value
                ),
            ));
        }
        // global order: monotone ts; per-lane sequence preserved within ties
        events.sort_by_key(|&(ts, lane, seq, _)| (ts, lane, seq));
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (_, _, _, text)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(text);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Export as a plain-text span tree with per-stage totals and counter
    /// values. Spans still open at export time render as `open`.
    pub fn span_tree(&self, now: SimTime) -> String {
        let mut out = String::from("span tree (virtual seconds):\n");
        let roots: Vec<SpanId> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, _)| SpanId(i as u32 + 1))
            .collect();
        for root in roots {
            self.render_subtree(&mut out, root, 0, now);
        }
        if !self.histos.is_empty() {
            out.push_str("\nper-stage totals:\n");
            out.push_str(&format!(
                "  {:<24} {:>6} {:>12} {:>12} {:>12}\n",
                "stage", "count", "total_s", "p50_s", "p99_s"
            ));
            let secs = |ticks: f64| ticks / TICKS_PER_SEC as f64;
            for (name, h) in &self.histos {
                out.push_str(&format!(
                    "  {:<24} {:>6} {:>12.3} {:>12.3} {:>12.3}\n",
                    name,
                    h.count(),
                    secs(h.sum() as f64),
                    secs(h.quantile(0.5)),
                    secs(h.quantile(0.99))
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        if !self.labels.is_empty() {
            out.push_str("\nevents executed by label:\n");
            for (name, v) in &self.labels {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        out
    }

    fn render_subtree(&self, out: &mut String, id: SpanId, depth: usize, now: SimTime) {
        let Some(s) = self.span(id) else { return };
        let indent = "  ".repeat(depth);
        let span_len = match s.end {
            Some(e) => format!("{:.3}s", e.since(s.start).as_secs_f64()),
            None => format!("open ({:.3}s)", now.since(s.start).as_secs_f64()),
        };
        let mut line = format!(
            "{indent}{} [{:.3} – {}] {}",
            s.name,
            s.start.as_secs_f64(),
            s.end
                .map(|e| format!("{:.3}", e.as_secs_f64()))
                .unwrap_or_else(|| "…".into()),
            span_len
        );
        if s.failed {
            line.push_str(" FAILED");
        }
        for (k, v) in &s.attrs {
            let _ = write!(line, " {k}={v}");
        }
        out.push_str(&line);
        out.push('\n');
        for child in self.children_of(id) {
            self.render_subtree(out, child, depth + 1, now);
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Kernel self-profiling snapshot (see `Sim::profile`).
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    /// Events executed so far.
    pub events_executed: u64,
    /// Events still queued.
    pub pending_events: usize,
    /// Deepest the event queue ever got (includes cancelled entries still
    /// physically in the heap).
    pub queue_depth_high_water: usize,
    /// Executed-event counts per `schedule_labeled` label (empty while
    /// telemetry is disabled), sorted by label.
    pub events_by_label: Vec<(String, u64)>,
    /// Per-server busy rollups from the metric recorder, one entry per
    /// `*.busy` series, sorted by key.
    pub server_busy: Vec<ServerBusy>,
}

/// One server's busy/utilization rollup inside a [`KernelProfile`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServerBusy {
    /// Metric key (e.g. `appliance.cpu.busy`).
    pub key: String,
    /// Integrated busy seconds over the run.
    pub busy_secs: f64,
    /// `busy_secs / now` (0 at t = 0).
    pub utilization: f64,
}

impl std::fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "kernel: {} events executed, {} pending, queue high-water {}",
            self.events_executed, self.pending_events, self.queue_depth_high_water
        )?;
        for (label, n) in &self.events_by_label {
            writeln!(f, "  label {label:<28} {n}")?;
        }
        for s in &self.server_busy {
            writeln!(
                f,
                "  busy  {:<28} {:>10.3}s  ({:.1}%)",
                s.key,
                s.busy_secs,
                s.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Strict JSON parsing + Chrome-trace validation (CI-facing)
// ---------------------------------------------------------------------------

/// A parsed JSON value (minimal, strict — mirrors `wsstack::xml`'s
/// hand-rolled recursive descent; no external dependency).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a complete JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // advance one full UTF-8 char
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

/// What [`validate_chrome_trace`] measured about a valid trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events.
    pub events: usize,
    /// `B` (span-begin) events.
    pub begins: usize,
    /// `E` (span-end) events.
    pub ends: usize,
    /// `C` (counter-sample) events.
    pub counters: usize,
    /// Largest `ts` seen, microseconds.
    pub max_ts_us: u64,
}

/// Strict validation of exported Chrome-trace JSON: the document must be
/// well-formed, `ts` must be monotone non-decreasing in stream order,
/// every `B` must be closed by an `E` carrying the same `args.span` id,
/// and every `args.parent` reference must resolve to a span opened by some
/// `B` (or be `0` = root).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| match v {
            Json::Arr(items) => Some(items),
            _ => None,
        })
        .ok_or("missing traceEvents array")?;
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: f64 = f64::NEG_INFINITY;
    let mut open: std::collections::BTreeMap<u64, String> = BTreeMap::new();
    let mut all_spans: std::collections::BTreeSet<u64> = Default::default();
    let mut parent_refs: Vec<(u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing ts"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if ts < last_ts {
            return Err(format!("event {i}: ts {ts} < previous {last_ts}"));
        }
        last_ts = ts;
        check.max_ts_us = check.max_ts_us.max(ts as u64);
        let span_of = |ev: &Json| ev.get("args").and_then(|a| a.get("span")).and_then(Json::as_num);
        match ph {
            "B" => {
                check.begins += 1;
                let span = span_of(ev).ok_or(format!("event {i}: B without args.span"))? as u64;
                let name = ev.get("name").and_then(Json::as_str).unwrap().to_owned();
                if open.insert(span, name).is_some() {
                    return Err(format!("event {i}: span {span} opened twice"));
                }
                all_spans.insert(span);
                if let Some(p) = ev.get("args").and_then(|a| a.get("parent")).and_then(Json::as_num)
                {
                    if p as u64 != 0 {
                        parent_refs.push((span, p as u64));
                    }
                }
            }
            "E" => {
                check.ends += 1;
                let span = span_of(ev).ok_or(format!("event {i}: E without args.span"))? as u64;
                if open.remove(&span).is_none() {
                    return Err(format!("event {i}: E for span {span} that is not open"));
                }
            }
            "C" => {
                // counter sample: args must be a non-empty object whose
                // values are all numeric (one Perfetto series per key)
                check.counters += 1;
                let args = ev
                    .get("args")
                    .ok_or(format!("event {i}: C without args"))?;
                let fields = match args {
                    Json::Obj(fields) if !fields.is_empty() => fields,
                    _ => {
                        return Err(format!(
                            "event {i}: C args must be a non-empty object"
                        ))
                    }
                };
                for (key, value) in fields {
                    if value.as_num().is_none() {
                        return Err(format!(
                            "event {i}: counter value {key:?} is not numeric"
                        ));
                    }
                }
            }
            "i" | "I" | "M" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    if let Some((span, name)) = open.into_iter().next() {
        return Err(format!("span {span} ({name}) has a B but no E"));
    }
    for (span, parent) in parent_refs {
        if !all_spans.contains(&parent) {
            return Err(format!("span {span}: parent {parent} never opened"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(spans: &[(&'static str, u32, u64, Option<u64>)]) -> Telemetry {
        // (name, parent, start_us, end_us)
        let mut t = Telemetry::default();
        for &(name, parent, start, end) in spans {
            let id = t.begin_span(name, SpanId(parent), SimTime::from_ticks(start));
            if let Some(e) = end {
                t.end_span(id, SimTime::from_ticks(e), false);
            }
        }
        t
    }

    #[test]
    fn span_ids_and_parents_resolve() {
        let t = store_with(&[
            ("root", 0, 0, Some(100)),
            ("child", 1, 10, Some(50)),
            ("grandchild", 2, 20, Some(30)),
            ("other_root", 0, 5, Some(40)),
        ]);
        assert_eq!(t.children_of(SpanId(1)), vec![SpanId(2)]);
        assert!(t.is_descendant(SpanId(3), SpanId(1)));
        assert!(!t.is_descendant(SpanId(4), SpanId(1)));
        assert_eq!(t.subtree(SpanId(1)), vec![SpanId(1), SpanId(2), SpanId(3)]);
    }

    #[test]
    fn dangling_parent_downgrades_to_root() {
        let mut t = Telemetry::default();
        let id = t.begin_span("orphan", SpanId(99), SimTime::ZERO);
        assert_eq!(t.span(id).unwrap().parent, SpanId::NONE);
    }

    #[test]
    fn first_close_wins() {
        let mut t = Telemetry::default();
        let id = t.begin_span("x", SpanId::NONE, SimTime::ZERO);
        t.end_span(id, SimTime::from_secs(1), true);
        t.end_span(id, SimTime::from_secs(9), false);
        let s = t.span(id).unwrap();
        assert_eq!(s.end, Some(SimTime::from_secs(1)));
        assert!(s.failed);
        // the duration lands once, in microsecond ticks
        let h = t.histogram("x").unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (1, 1_000_000, 1_000_000));
        assert_eq!(h.quantile(0.5), 1_000_000.0);
    }

    #[test]
    fn chrome_trace_round_trips_validation() {
        let t = store_with(&[
            ("root", 0, 0, Some(100)),
            ("child_a", 1, 10, Some(40)),
            // overlapping sibling forces a second lane
            ("child_b", 1, 30, Some(90)),
        ]);
        let json = t.to_chrome_trace(SimTime::from_ticks(100));
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.begins, 3);
        assert_eq!(check.ends, 3);
        assert_eq!(check.max_ts_us, 100);
    }

    #[test]
    fn open_spans_are_closed_at_export_time() {
        let t = store_with(&[("open_root", 0, 5, None)]);
        assert!(t.histogram("open_root").is_none(), "nothing recorded until close");
        let json = t.to_chrome_trace(SimTime::from_ticks(77));
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.begins, check.ends);
        assert_eq!(check.max_ts_us, 77);
    }

    /// Store holding one closed `"stage"` span per duration (µs).
    fn stage_durations(us: impl IntoIterator<Item = u64>) -> Telemetry {
        let mut t = Telemetry::default();
        for d in us {
            let id = t.begin_span("stage", SpanId::NONE, SimTime::ZERO);
            t.end_span(id, SimTime::from_ticks(d), false);
        }
        t
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let t = stage_durations([1, 3, 1000]);
        let h = t.histogram("stage").unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (3, 1004, 1000));
        // the median (3 µs) is alone in the (2,4] bucket, so its estimate is
        // that bucket's upper edge
        assert_eq!(h.quantile(0.5), 4.0);
    }

    #[test]
    fn histogram_quantile_interpolates_and_clamps() {
        // nine short stages and one 1 s outlier
        let t = stage_durations([10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000].map(|ms| ms * 1000));
        let h = t.histogram("stage").unwrap();
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 > 0.0 && p50 < 100_000.0, "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1e6, "q1 clamps to max");
        assert!((p99 - 1e6).abs() < 0.6e6, "p99 = {p99} near the outlier");
        assert!(p50 <= h.quantile(0.9), "monotone in q");
        // degenerate cases
        assert!(Telemetry::default().histogram("stage").is_none());
        let one = stage_durations([7000]);
        let one = one.histogram("stage").unwrap();
        assert!((one.quantile(0.5) - 7000.0).abs() < 1e-9);
        assert!((one.quantile(0.0) - one.quantile(1.0)).abs() < 1e4);
    }

    #[test]
    fn histogram_quantile_exact_within_single_value() {
        // all mass on one value: every quantile stays inside its bucket and
        // never above the value
        let t = stage_durations(std::iter::repeat_n(1024, 100));
        let h = t.histogram("stage").unwrap();
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v <= 1024.0, "q={q} gave {v}");
            assert!(v > 512.0, "q={q} gave {v} below the bucket");
        }
    }


    #[test]
    fn attrs_and_escapes_survive_export() {
        let mut t = Telemetry::default();
        let id = t.begin_span("svc", SpanId::NONE, SimTime::ZERO);
        t.add_attr(id, "service", AttrValue::Str("a\"b\\c\nd".into()));
        t.add_attr(id, "bytes", AttrValue::U64(42));
        t.end_span(id, SimTime::from_secs(1), true);
        let json = t.to_chrome_trace(SimTime::from_secs(1));
        validate_chrome_trace(&json).expect("valid despite escapes");
        assert!(json.contains("\"failed\":true"));
        assert!(json.contains("\"bytes\":42"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // unclosed B
        let unclosed = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":1,"pid":1,"tid":1,"args":{"span":1,"parent":0}}
        ]}"#;
        assert!(validate_chrome_trace(unclosed).unwrap_err().contains("no E"));
        // non-monotone ts
        let backwards = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":10,"pid":1,"tid":1,"args":{"span":1,"parent":0}},
            {"name":"x","ph":"E","ts":5,"pid":1,"tid":1,"args":{"span":1}}
        ]}"#;
        assert!(validate_chrome_trace(backwards).unwrap_err().contains("ts"));
        // dangling parent
        let dangling = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":1,"pid":1,"tid":1,"args":{"span":1,"parent":7}},
            {"name":"x","ph":"E","ts":2,"pid":1,"tid":1,"args":{"span":1}}
        ]}"#;
        assert!(validate_chrome_trace(dangling)
            .unwrap_err()
            .contains("parent 7"));
    }

    #[test]
    fn json_parser_is_strict() {
        assert!(parse_json(r#"{"a":1}"#).is_ok());
        assert!(parse_json(r#"{"a":1} extra"#).is_err());
        assert!(parse_json(r#"{"a":}"#).is_err());
        assert!(parse_json(r#"["unterminated"#).is_err());
        let v = parse_json(r#"{"s":"q\"\\\n","n":-1.5e2,"b":true,"z":null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\n"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(-150.0));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
    }

    #[test]
    fn span_tree_renders_nesting_totals_and_failure() {
        let mut t = store_with(&[("invoke", 0, 0, None), ("auth", 1, 10, Some(2_000_000))]);
        t.end_span(SpanId(1), SimTime::from_secs(5), true);
        t.counters.insert("polls", 3);
        let text = t.span_tree(SimTime::from_secs(5));
        assert!(text.contains("invoke"));
        assert!(text.contains("  auth"));
        assert!(text.contains("FAILED"));
        assert!(text.contains("per-stage totals"));
        assert!(text.contains("polls"));
    }

    #[test]
    fn span_tree_text_is_pinned_byte_for_byte() {
        // nested spans, a failed span, an open span, attrs, counters and
        // labelled events: the whole rendering, including the per-stage
        // quantile columns, compared against a literal
        let mut t = store_with(&[
            ("invoke", 0, 0, None),
            ("auth", 1, 10, Some(2_000_000)),
            ("stage", 1, 2_000_000, Some(5_500_000)),
            ("db.load", 3, 2_100_000, Some(2_350_000)),
            ("stage", 1, 5_500_000, None),
            ("poll", 0, 6_000_000, None),
        ]);
        t.add_attr(SpanId(3), "bytes", AttrValue::U64(65_536));
        t.add_attr(SpanId(3), "service", AttrValue::Str("echo".into()));
        t.add_attr(SpanId(4), "hit", AttrValue::Bool(false));
        t.add_attr(SpanId(5), "secs", AttrValue::F64(0.25));
        t.add_attr(SpanId(5), "error", AttrValue::Str("timeout".into()));
        t.end_span(SpanId(5), SimTime::from_ticks(5_503_000), true);
        t.end_span(SpanId(1), SimTime::from_secs(7), false);
        t.counters.insert("polls", 3);
        t.counters.insert("fleet.booted", 2);
        t.labels.insert("gram.tick", 11);
        let expected = r#"span tree (virtual seconds):
invoke [0.000 – 7.000] 7.000s
  auth [0.000 – 2.000] 2.000s
  stage [2.000 – 5.500] 3.500s bytes=65536 service=echo
    db.load [2.100 – 2.350] 0.250s hit=false
  stage [5.500 – 5.503] 0.003s FAILED secs=0.25 error=timeout
poll [6.000 – …] open (2.000s)

per-stage totals:
  stage                     count      total_s        p50_s        p99_s
  auth                          1        2.000        2.000        2.000
  db.load                       1        0.250        0.250        0.250
  invoke                        1        7.000        7.000        7.000
  stage                         2        3.503        0.004        3.500

counters:
  fleet.booted                     2
  polls                            3

events executed by label:
  gram.tick                        11
"#;
        assert_eq!(t.span_tree(SimTime::from_secs(8)), expected);
    }

    #[test]
    fn span_tree_totals_show_quantile_columns() {
        let t = store_with(&[("stage", 0, 0, Some(1_000_000))]);
        let text = t.span_tree(SimTime::from_secs(1));
        assert!(text.contains("p50_s"), "{text}");
        assert!(text.contains("p99_s"), "{text}");
        assert!(!text.contains("mean_s"), "{text}");
    }

    #[test]
    fn counter_tracks_export_and_validate() {
        let mut t = store_with(&[("op", 0, 0, Some(50))]);
        t.counters.insert("reqs", 2);
        t.counter_samples.push((SimTime::from_ticks(10), "reqs", 1));
        t.counter_samples.push((SimTime::from_ticks(40), "reqs", 2));
        let json = t.to_chrome_trace(SimTime::from_ticks(50));
        let check = validate_chrome_trace(&json).expect("valid trace with counters");
        assert_eq!(check.counters, 2);
        assert_eq!(check.begins, 1);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":2"));
    }

    #[test]
    fn counter_track_sits_on_the_lane_after_the_spans() {
        // two overlapping spans take lanes 1 and 2; counters go on lane 3
        let mut t = store_with(&[("a", 0, 0, Some(50)), ("b", 0, 10, Some(60))]);
        t.counter_samples.push((SimTime::from_ticks(20), "reqs", 1));
        let json = t.to_chrome_trace(SimTime::from_ticks(60));
        let Json::Arr(events) = parse_json(&json).unwrap().get("traceEvents").unwrap().clone()
        else {
            panic!("traceEvents is an array")
        };
        let tids = |ph: &str| -> Vec<f64> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .map(|e| e.get("tid").and_then(Json::as_num).unwrap())
                .collect()
        };
        assert_eq!(tids("B"), vec![1.0, 2.0]);
        assert_eq!(tids("C"), vec![3.0]);
    }

    #[test]
    fn validator_checks_counter_events() {
        // C without args
        let no_args = r#"{"traceEvents":[
            {"name":"reqs","ph":"C","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(no_args).unwrap_err().contains("args"));
        // C with empty args object
        let empty = r#"{"traceEvents":[
            {"name":"reqs","ph":"C","ts":1,"pid":1,"tid":1,"args":{}}
        ]}"#;
        assert!(validate_chrome_trace(empty)
            .unwrap_err()
            .contains("non-empty"));
        // C with a non-numeric value
        let bad = r#"{"traceEvents":[
            {"name":"reqs","ph":"C","ts":1,"pid":1,"tid":1,"args":{"value":"high"}}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("not numeric"));
        // well-formed counter sample passes and is counted
        let good = r#"{"traceEvents":[
            {"name":"reqs","ph":"C","ts":1,"pid":1,"tid":1,"args":{"value":3}}
        ]}"#;
        assert_eq!(validate_chrome_trace(good).unwrap().counters, 1);
    }
}
