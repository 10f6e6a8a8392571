//! JSON-lines parsing of campaign row artifacts — the read side of
//! [`crate::campaign::CampaignRow::to_json_line`], which is what makes
//! `--resume` possible.
//!
//! The workspace vendors a serde API shim without a JSON backend, so this
//! module carries a deliberately minimal hand-rolled JSON reader: just the
//! grammar `to_json_line` emits (objects, strings, numbers, arrays, and
//! the `null`/`true`/`false` literals), parsed exactly.  Finite floats
//! round-trip bit-for-bit because the writer uses `{:?}` (shortest-repr)
//! formatting and the reader uses `f64::from_str`, which inverts it; a
//! **non-finite** float is written as `null` (valid JSON, unlike the
//! `NaN`/`inf` tokens `{:?}` would produce) and decodes back to
//! `f64::NAN`, so artifacts stay parseable by external JSON consumers and
//! the *line bytes* still round-trip exactly.  The round-trip tests in
//! this module and `tests/campaign_resume.rs` pin those properties, and
//! the CI interrupt-resume job relies on them for byte-identical
//! artifacts.
//!
//! Number tokens are validated against the JSON number grammar at scan
//! time — `inf`, `nan`, `+1.0`, `01` and friends are parse errors, not
//! values that break downstream — and the reader is exposed as
//! [`JsonValue`] / [`parse_json_line`] so other consumers (the
//! `berry-serve` wire protocol, the service client's row re-validation)
//! share one JSON reader instead of growing their own.
//!
//! [`load_resume_state`] layers the resume semantics on top: every line of
//! an existing `rows.jsonl` is parsed and validated against the campaign's
//! [`CellPlan`] list, duplicates keep their first occurrence, and a
//! truncated **last** line (the signature of a killed run) is dropped so
//! its cell simply re-runs.  Corruption anywhere else is a hard error —
//! resuming a file that does not match the plan would silently stitch two
//! different campaigns together.

// lint: codec — wire/persist format: length and index conversions must be overflow-checked

use crate::campaign::{CampaignRow, CellPlan, CompletedSet};
use crate::error::CoreError;
use crate::scenario::Scenario;
use crate::Result;
use berry_hw::accelerator::ProcessingReport;
use berry_rl::eval::EvalStats;
use berry_uav::flight::QualityOfFlight;
use std::collections::BTreeMap;

/// A minimal JSON value — the grammar campaign artifacts and the
/// `berry-serve` wire protocol are written in.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Key/value pairs in source order.
    Object(Vec<(String, JsonValue)>),
    /// Array elements in source order.
    Array(Vec<JsonValue>),
    /// A decoded string.
    String(String),
    /// A number kept as its raw token, parsed on access so integers stay
    /// exact and floats round-trip.
    Number(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null` — how the row writer spells a non-finite float.
    Null,
}

impl JsonValue {
    /// Looks up `key` in an object, erroring if absent (or not an object).
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not an object or lacks `key`.
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a JsonValue> {
        self.key(key)
            .ok_or_else(|| parse_error(format!("missing key `{key}`")))
    }

    /// Looks up `key` in an object, returning `None` if absent — the
    /// accessor for optional protocol fields.
    pub fn key<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Object(pairs) => {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Whether `self` is an object carrying `key` (used to sniff terminal
    /// status lines out of a row stream).
    pub fn has_key(&self, key: &str) -> bool {
        self.key(key).is_some()
    }

    /// The value as a string.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(parse_error("expected a string")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Ok(items),
            _ => Err(parse_error("expected an array")),
        }
    }

    /// The value as a `u64` (exact integer tokens only).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not an unsigned-integer number.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<u64>()
                .map_err(|_| parse_error(format!("bad integer `{raw}`"))),
            _ => Err(parse_error("expected a number")),
        }
    }

    /// The value as an `f64`; JSON `null` decodes to [`f64::NAN`] — the
    /// read-side inverse of the writer emitting `null` for non-finite
    /// floats.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not a number or `null`.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<f64>()
                .map_err(|_| parse_error(format!("bad float `{raw}`"))),
            JsonValue::Null => Ok(f64::NAN),
            _ => Err(parse_error("expected a number or null")),
        }
    }

    /// String field of an object.
    ///
    /// # Errors
    ///
    /// Returns an error if `key` is absent or not a string.
    pub fn str_field(&self, key: &str) -> Result<String> {
        self.get(key)?
            .as_str()
            .map(str::to_string)
            .map_err(|_| parse_error(format!("key `{key}` is not a string")))
    }

    /// Float field of an object (`null` → NaN, see [`JsonValue::as_f64`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `key` is absent or neither number nor `null`.
    pub fn f64_field(&self, key: &str) -> Result<f64> {
        self.get(key)?
            .as_f64()
            .map_err(|_| parse_error(format!("key `{key}` is not a number")))
    }

    /// Unsigned-integer field of an object.
    ///
    /// # Errors
    ///
    /// Returns an error if `key` is absent or not an unsigned integer.
    pub fn u64_field(&self, key: &str) -> Result<u64> {
        self.get(key)?
            .as_u64()
            .map_err(|_| parse_error(format!("key `{key}` is not an integer")))
    }

    /// [`JsonValue::u64_field`] narrowed to `usize`.
    ///
    /// # Errors
    ///
    /// Returns an error if `key` is absent or not an unsigned integer.
    pub fn usize_field(&self, key: &str) -> Result<usize> {
        let v = self.u64_field(key)?;
        usize::try_from(v).map_err(|_| parse_error(format!("field `{key}` exceeds usize range")))
    }
}

/// Parses one complete JSON line (value plus end-of-input check) — the
/// shared entry point of every JSON-lines consumer in the workspace.
///
/// # Errors
///
/// Returns an error if the text is not exactly one JSON value.
pub fn parse_json_line(text: &str) -> Result<JsonValue> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish(value)
}

/// Serializes a string as a JSON string token (quotes, escapes) — the
/// write-side twin of the reader's string decoding.
#[must_use]
pub fn encode_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            // lint: allow(unchecked-len-cast) why: char to u32 is lossless by definition, not a length narrowing
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes an `f64` as a JSON number token: `{:?}` (shortest
/// round-trip repr) for finite values, `null` for NaN/infinities — `{:?}`
/// would emit the invalid tokens `NaN` / `inf` and silently corrupt the
/// artifact for any standards-conforming consumer.
#[must_use]
pub fn encode_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn parse_error(detail: impl std::fmt::Display) -> CoreError {
    CoreError::InvalidConfig(format!("campaign row parse error: {detail}"))
}

/// Recursive-descent reader over one line's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(_) => self.number(),
            None => Err(parse_error("unexpected end of line")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(parse_error(format!(
                "expected `{word}` at byte {}",
                self.pos
            )))
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(parse_error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(parse_error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(parse_error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| parse_error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| parse_error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| parse_error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(parse_error(format!("unsupported escape `{other:?}`")))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are valid UTF-8 by construction of the input
                    // `&str`; copy whole code points.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| parse_error("invalid UTF-8 in string"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| parse_error("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b',' | b'}' | b']' | b':') || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(parse_error(format!("expected a number at byte {start}")));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| parse_error("invalid UTF-8 in number"))?;
        // Validate against the JSON number grammar now, so garbage fails at
        // parse time, not on field access.  A bare `f64::from_str` check
        // would wave through `inf`, `nan`, `+1.0` and leading zeros — all
        // invalid JSON that only breaks downstream consumers.
        if !is_json_number(raw) {
            return Err(parse_error(format!("bad number token `{raw}`")));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn finish(mut self, value: JsonValue) -> Result<JsonValue> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(value)
        } else {
            Err(parse_error(format!("trailing bytes at {}", self.pos)))
        }
    }
}

/// Whether `raw` matches the JSON number grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
///
/// Strictly narrower than what `f64::from_str` accepts — no `inf`, `nan`,
/// leading `+`, leading zeros, trailing dot or bare exponent.
fn is_json_number(raw: &str) -> bool {
    let b = raw.as_bytes();
    let mut i = 0;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    // Integer part: `0` alone, or a nonzero digit followed by any digits.
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(c) if c.is_ascii_digit() => {
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        }
        _ => return false,
    }
    // Optional fraction: `.` followed by at least one digit.
    if b.get(i) == Some(&b'.') {
        i += 1;
        if !b.get(i).is_some_and(u8::is_ascii_digit) {
            return false;
        }
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
    }
    // Optional exponent: `e`/`E`, optional sign, at least one digit.
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !b.get(i).is_some_and(u8::is_ascii_digit) {
            return false;
        }
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
    }
    i == b.len()
}

fn eval_stats(value: &JsonValue) -> Result<EvalStats> {
    Ok(EvalStats {
        episodes: value.usize_field("episodes")?,
        success_rate: value.f64_field("success_rate")?,
        collision_rate: value.f64_field("collision_rate")?,
        timeout_rate: value.f64_field("timeout_rate")?,
        mean_return: value.f64_field("mean_return")?,
        mean_steps: value.f64_field("mean_steps")?,
        mean_distance: value.f64_field("mean_distance")?,
        mean_success_distance: value.f64_field("mean_success_distance")?,
    })
}

fn processing_report(value: &JsonValue) -> Result<ProcessingReport> {
    Ok(ProcessingReport {
        voltage_norm: value.f64_field("voltage_norm")?,
        frequency_hz: value.f64_field("frequency_hz")?,
        latency_s: value.f64_field("latency_s")?,
        energy_per_inference_j: value.f64_field("energy_per_inference_j")?,
        compute_power_w: value.f64_field("compute_power_w")?,
        savings_vs_nominal: value.f64_field("savings_vs_nominal")?,
        savings_vs_vmin: value.f64_field("savings_vs_vmin")?,
        tdp_w: value.f64_field("tdp_w")?,
        heatsink_mass_g: value.f64_field("heatsink_mass_g")?,
        utilization: value.f64_field("utilization")?,
    })
}

fn quality_of_flight(value: &JsonValue) -> Result<QualityOfFlight> {
    Ok(QualityOfFlight {
        success_rate: value.f64_field("success_rate")?,
        flight_distance_m: value.f64_field("flight_distance_m")?,
        flight_time_s: value.f64_field("flight_time_s")?,
        flight_energy_j: value.f64_field("flight_energy_j")?,
        rotor_power_w: value.f64_field("rotor_power_w")?,
        compute_power_w: value.f64_field("compute_power_w")?,
        num_missions: value.f64_field("num_missions")?,
    })
}

/// One campaign row decoded from its JSON line — everything
/// [`CampaignRow::to_json_line`] wrote, minus the [`Scenario`] struct
/// itself (the line carries the scenario's labels; the full struct comes
/// from the [`CellPlan`] at [`ParsedRow::into_row`] time).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRow {
    /// Position of the scenario in the campaign grid.
    pub index: usize,
    /// The scenario identifier recorded on the line.
    pub id: String,
    /// Scenario label fields, in `to_json_line` order: density, platform,
    /// policy, mode, chip, variant.
    pub labels: [String; 6],
    /// The per-scenario RNG seed recorded on the line.
    pub seed: u64,
    /// Deployment voltage in Vmin units.
    pub voltage_norm: f64,
    /// Bit error rate at that voltage.
    pub ber: f64,
    /// Classical trailing-window training success.
    pub classical_train_success: f64,
    /// BERRY trailing-window training success.
    pub berry_train_success: f64,
    /// Number of BERRY dual-pass optimizer updates.
    pub robust_updates: u64,
    /// Deploy-point navigation statistics of the classical baseline.
    pub classical_nav: EvalStats,
    /// Deploy-point navigation statistics of the BERRY policy.
    pub berry_nav: EvalStats,
    /// Accelerator processing figures.
    pub processing: ProcessingReport,
    /// Mission-level quality-of-flight metrics.
    pub quality_of_flight: QualityOfFlight,
}

impl ParsedRow {
    /// Parses one `rows.jsonl` line.
    ///
    /// # Errors
    ///
    /// Returns an error if the line is not a complete row record — a
    /// truncated line fails here, which is how [`load_resume_state`]
    /// detects a killed run's final partial write.
    pub fn parse(line: &str) -> Result<Self> {
        let value = parse_json_line(line)?;
        Ok(Self {
            index: value.usize_field("index")?,
            id: value.str_field("id")?,
            labels: [
                value.str_field("density")?,
                value.str_field("platform")?,
                value.str_field("policy")?,
                value.str_field("mode")?,
                value.str_field("chip")?,
                value.str_field("variant")?,
            ],
            seed: value.u64_field("seed")?,
            voltage_norm: value.f64_field("voltage_norm")?,
            ber: value.f64_field("ber")?,
            classical_train_success: value.f64_field("classical_train_success")?,
            berry_train_success: value.f64_field("berry_train_success")?,
            robust_updates: value.u64_field("robust_updates")?,
            classical_nav: eval_stats(value.get("classical_nav")?)?,
            berry_nav: eval_stats(value.get("berry_nav")?)?,
            processing: processing_report(value.get("processing")?)?,
            quality_of_flight: quality_of_flight(value.get("quality_of_flight")?)?,
        })
    }

    /// Checks that this row belongs to `cell` of the current campaign
    /// plan: same grid index, scenario id, labels, and seed.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first mismatching field — resuming a
    /// `rows.jsonl` from a different grid or base seed must fail loudly.
    pub fn matches(&self, cell: &CellPlan) -> Result<()> {
        let mismatch = |what: &str, got: &str, want: &str| {
            Err(CoreError::InvalidConfig(format!(
                "resume row {} does not match the campaign plan: {what} is `{got}`, \
                 the plan says `{want}` (different grid or base seed?)",
                self.index
            )))
        };
        if self.index != cell.index {
            return mismatch("index", &self.index.to_string(), &cell.index.to_string());
        }
        if self.id != cell.scenario.id() {
            return mismatch("id", &self.id, &cell.scenario.id());
        }
        if self.seed != cell.seed {
            return mismatch("seed", &self.seed.to_string(), &cell.seed.to_string());
        }
        let expected = [
            cell.scenario.density.label().to_string(),
            cell.scenario.platform.clone(),
            cell.scenario.policy.clone(),
            cell.scenario.mode.label().to_string(),
            cell.scenario.chip.clone(),
            cell.scenario.variant.label().to_string(),
        ];
        for ((name, got), want) in ["density", "platform", "policy", "mode", "chip", "variant"]
            .iter()
            .zip(&self.labels)
            .zip(&expected)
        {
            if got != want {
                return mismatch(name, got, want);
            }
        }
        Ok(())
    }

    /// Reassembles the full [`CampaignRow`], attaching the scenario struct
    /// from the plan.  Campaign row lines never carry axis results, so the
    /// reconstructed row has none — exactly like the row that wrote the
    /// line.
    #[must_use]
    pub fn into_row(self, scenario: &Scenario) -> CampaignRow {
        CampaignRow {
            index: self.index,
            id: self.id,
            scenario: scenario.clone(),
            seed: self.seed,
            voltage_norm: self.voltage_norm,
            ber: self.ber,
            classical_train_success: self.classical_train_success,
            berry_train_success: self.berry_train_success,
            robust_updates: self.robust_updates,
            classical_nav: self.classical_nav,
            berry_nav: self.berry_nav,
            processing: self.processing,
            quality_of_flight: self.quality_of_flight,
            axis_results: Vec::new(),
        }
    }
}

/// The validated contents of an existing `rows.jsonl`, ready to seed a
/// resumed campaign run.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    rows: BTreeMap<usize, (String, CampaignRow)>,
    /// Whether the file's last line was dropped as truncated (the
    /// signature of a killed run's final partial write) — its cell simply
    /// re-runs.
    pub dropped_truncated: bool,
    /// Number of duplicate row lines ignored (first occurrence wins).
    pub duplicates: usize,
}

impl ResumeState {
    /// The empty state — resuming a missing or empty file is a fresh run.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Grid indices that already have rows, as the engine's filter.
    pub fn completed(&self) -> CompletedSet {
        self.rows.keys().copied().collect()
    }

    /// Number of resumed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were resumed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The verbatim artifact line of a resumed cell — rewritten outputs
    /// reuse these bytes rather than reserializing, so a resumed artifact
    /// can only ever contain bytes some campaign run actually wrote.
    pub fn line(&self, index: usize) -> Option<&str> {
        self.rows.get(&index).map(|(line, _)| line.as_str())
    }

    /// The reconstructed row of a resumed cell.
    pub fn row(&self, index: usize) -> Option<&CampaignRow> {
        self.rows.get(&index).map(|(_, row)| row)
    }

    /// Resumed rows in grid order.
    pub fn rows_in_order(&self) -> impl Iterator<Item = &CampaignRow> {
        self.rows.values().map(|(_, row)| row)
    }
}

/// Parses and validates an existing `rows.jsonl` against the campaign
/// plan.
///
/// Semantics, in order of appearance:
/// * blank lines are skipped,
/// * every parsed row must [`ParsedRow::matches`] its plan cell,
/// * duplicate indices keep the **first** occurrence (later duplicates
///   must be byte-identical, else the file is corrupt),
/// * a final line that fails to parse is dropped as the truncated tail of
///   a killed run ([`ResumeState::dropped_truncated`]); a non-final parse
///   failure is a hard error.
///
/// # Errors
///
/// Returns an error on mid-file corruption, rows whose index is outside
/// the plan, plan mismatches, or conflicting duplicates.
pub fn load_resume_state(text: &str, plan: &[CellPlan]) -> Result<ResumeState> {
    let mut state = ResumeState::empty();
    let lines: Vec<&str> = text.lines().collect();
    let last_non_blank = lines.iter().rposition(|l| !l.trim().is_empty());
    for (lineno, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match ParsedRow::parse(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                if Some(lineno) == last_non_blank {
                    state.dropped_truncated = true;
                    continue;
                }
                return Err(CoreError::InvalidConfig(format!(
                    "rows file line {}: {e}",
                    lineno + 1
                )));
            }
        };
        let cell = plan.get(parsed.index).ok_or_else(|| {
            CoreError::InvalidConfig(format!(
                "rows file line {}: row index {} is outside the {}-cell campaign plan",
                lineno + 1,
                parsed.index,
                plan.len()
            ))
        })?;
        parsed.matches(cell)?;
        if let Some((first_line, _)) = state.rows.get(&parsed.index) {
            if first_line != line {
                return Err(CoreError::InvalidConfig(format!(
                    "rows file line {}: conflicting duplicate of row {}",
                    lineno + 1,
                    parsed.index
                )));
            }
            state.duplicates += 1;
            continue;
        }
        let row = parsed.into_row(&cell.scenario);
        state.rows.insert(row.index, (line.to_string(), row));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{plan_cells, run_scenario_in, scenario_seed};
    use crate::experiment::ExperimentScale;
    use crate::store::PolicyStore;

    fn smoke_plan() -> (Vec<Scenario>, Vec<CellPlan>) {
        let grid: Vec<Scenario> = Scenario::smoke_grid().into_iter().take(2).collect();
        let plan = plan_cells(&grid, 5);
        (grid, plan)
    }

    fn smoke_row(plan: &[CellPlan], index: usize) -> CampaignRow {
        run_scenario_in(
            &plan[index].scenario,
            index,
            ExperimentScale::Smoke,
            plan[index].seed,
            5,
            &PolicyStore::in_memory(),
            &[],
        )
        .unwrap()
    }

    #[test]
    fn a_real_row_round_trips_bit_for_bit() {
        let (_, plan) = smoke_plan();
        let row = smoke_row(&plan, 0);
        let line = row.to_json_line();
        let parsed = ParsedRow::parse(&line).unwrap();
        parsed.matches(&plan[0]).unwrap();
        let rebuilt = parsed.into_row(&plan[0].scenario);
        assert_eq!(rebuilt, row);
        assert_eq!(rebuilt.to_json_line(), line, "byte-exact round trip");
    }

    #[test]
    fn parser_handles_escapes_and_scientific_notation() {
        let value = Reader::new(r#"{"a":"q\"uo\\te\nnl	tab","b":1.5e-7,"c":[1,2]}"#)
            .value()
            .unwrap();
        assert_eq!(value.str_field("a").unwrap(), "q\"uo\\te\nnl\ttab");
        assert_eq!(value.f64_field("b").unwrap(), 1.5e-7);
        assert_eq!(
            value.get("c").unwrap(),
            &JsonValue::Array(vec![
                JsonValue::Number("1".into()),
                JsonValue::Number("2".into())
            ])
        );
        // Exact integer fields stay exact at u64 range.
        let value = Reader::new("{\"seed\":18446744073709551615}").value().unwrap();
        assert_eq!(value.u64_field("seed").unwrap(), u64::MAX);
    }

    #[test]
    fn number_tokens_follow_the_json_grammar() {
        for good in [
            "0", "-0", "7", "-7", "10", "0.5", "-0.5", "3.25", "1e9", "1E9", "1e+9", "1e-9",
            "-3.25e-7", "0.0001", "18446744073709551615",
        ] {
            assert!(is_json_number(good), "`{good}` must be accepted");
            assert!(
                Reader::new(good).value().is_ok(),
                "`{good}` must scan as a number"
            );
        }
        // Everything here parses under bare `f64::from_str` (the old
        // validator) but is NOT a JSON number — it must fail at scan time.
        for bad in [
            "inf", "-inf", "infinity", "+1.0", "1.", ".5", "01", "-01", "00", "1e", "1e+", "5.",
            "+5", "--1", "-", "1.2.3", "0x10",
        ] {
            assert!(!is_json_number(bad), "`{bad}` must be rejected");
            let mut reader = Reader::new(bad);
            let outcome = reader.value().and_then(|v| reader.finish(v));
            assert!(outcome.is_err(), "`{bad}` must not parse as a value");
        }
        // `nan`/`NaN` now collide with the `null` literal path or the
        // number scanner — either way they are parse errors, not values.
        for bad in ["nan", "NaN", "-nan"] {
            assert!(parse_json_line(bad).is_err(), "`{bad}` must not parse");
        }
        // Embedded in an object the rejection still happens at parse time.
        assert!(parse_json_line("{\"x\":inf}").is_err());
        assert!(parse_json_line("{\"x\":+1.0}").is_err());
    }

    #[test]
    fn literals_parse_and_null_decodes_to_nan() {
        let value = parse_json_line(r#"{"a":null,"b":true,"c":false}"#).unwrap();
        assert_eq!(value.get("a").unwrap(), &JsonValue::Null);
        assert_eq!(value.get("b").unwrap(), &JsonValue::Bool(true));
        assert_eq!(value.get("c").unwrap(), &JsonValue::Bool(false));
        assert!(value.f64_field("a").unwrap().is_nan());
        // Truncated/misspelled literals are errors, not numbers.
        for bad in ["nul", "nulll", "True", "fals"] {
            assert!(parse_json_line(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn zero_success_rows_round_trip_through_null() {
        // A cell where no evaluation episode succeeds has no defined mean
        // success distance; force the NaN the aggregation would produce and
        // pin the whole writer→parser round trip.  Before the fix the line
        // contained the bare token `NaN` — invalid JSON that any external
        // consumer (and this parser) rejects.
        let (_, plan) = smoke_plan();
        let mut row = smoke_row(&plan, 0);
        row.classical_nav.mean_success_distance = f64::NAN;
        row.quality_of_flight.flight_distance_m = f64::NEG_INFINITY;
        let line = row.to_json_line();
        // `{:?}` would print the tokens right after the key's colon (the
        // bare substring "inf" also appears in "energy_per_inference_j").
        assert!(
            !line.contains(":NaN") && !line.contains(":inf") && !line.contains(":-inf"),
            "non-finite floats must not leak raw {{:?}} tokens: {line}"
        );
        assert!(line.contains("\"mean_success_distance\":null"));
        let parsed = ParsedRow::parse(&line).unwrap();
        assert!(parsed.classical_nav.mean_success_distance.is_nan());
        // Infinities also decode as NaN: `null` is deliberately lossy
        // about *which* non-finite value was written.
        assert!(parsed.quality_of_flight.flight_distance_m.is_nan());
        // The artifact bytes still round-trip exactly (NaN re-encodes as
        // null), which is what `--resume`'s verbatim rewrite relies on.
        let rebuilt = parsed.into_row(&plan[0].scenario);
        // flight_distance was -inf on the way in, NaN on the way out —
        // both spell `null`, so the bytes must already match.
        assert_eq!(rebuilt.to_json_line(), line, "byte-exact round trip through null");
        // And the resume loader accepts the row.
        let state = load_resume_state(&line, &plan).unwrap();
        assert!(state.row(0).unwrap().classical_nav.mean_success_distance.is_nan());
        assert_eq!(state.line(0), Some(line.as_str()));
    }

    #[test]
    fn parse_rejects_truncated_and_trailing_garbage() {
        let (_, plan) = smoke_plan();
        let line = smoke_row(&plan, 0).to_json_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                ParsedRow::parse(&line[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
        assert!(ParsedRow::parse(&format!("{line}garbage")).is_err());
        assert!(ParsedRow::parse("{}").is_err(), "missing keys must not parse");
    }

    #[test]
    fn matches_rejects_other_campaigns() {
        let (_, plan) = smoke_plan();
        let row = smoke_row(&plan, 0);
        let parsed = ParsedRow::parse(&row.to_json_line()).unwrap();
        // Same line against the other cell: index mismatch.
        assert!(parsed.matches(&plan[1]).is_err());
        // A different base seed changes the planned seed.
        let other_seed_plan = plan_cells(&[plan[0].scenario.clone()], 6);
        let err = parsed.matches(&other_seed_plan[0]).unwrap_err();
        assert!(err.to_string().contains("seed"), "got: {err}");
    }

    #[test]
    fn resume_state_drops_only_a_truncated_last_line() {
        let (_, plan) = smoke_plan();
        let line0 = smoke_row(&plan, 0).to_json_line();
        let line1 = smoke_row(&plan, 1).to_json_line();

        // Fresh-equivalent inputs.
        for text in ["", "\n", "  \n\n"] {
            let state = load_resume_state(text, &plan).unwrap();
            assert!(state.is_empty());
            assert!(!state.dropped_truncated);
        }

        // A killed run's partial final write: last line truncated.
        let text = format!("{line0}\n{}", &line1[..line1.len() / 2]);
        let state = load_resume_state(&text, &plan).unwrap();
        assert_eq!(state.len(), 1);
        assert!(state.dropped_truncated);
        assert_eq!(state.completed().iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(state.line(0), Some(line0.as_str()));
        assert_eq!(state.row(0).unwrap().index, 0);

        // The same truncation mid-file is corruption, not a resume point.
        let text = format!("{}\n{line1}", &line0[..line0.len() / 2]);
        assert!(load_resume_state(&text, &plan).is_err());

        // Duplicates: identical lines are counted and ignored...
        let text = format!("{line0}\n{line0}\n{line1}");
        let state = load_resume_state(&text, &plan).unwrap();
        assert_eq!(state.len(), 2);
        assert_eq!(state.duplicates, 1);
        assert_eq!(state.rows_in_order().map(|r| r.index).collect::<Vec<_>>(), vec![0, 1]);
        // ...but conflicting duplicates are corruption.
        let conflicting = line0.replace("\"index\":0,", "\"index\":0, ");
        assert!(ParsedRow::parse(&conflicting).is_ok(), "still valid JSON");
        let text = format!("{line0}\n{conflicting}");
        assert!(load_resume_state(&text, &plan).is_err());

        // Rows from outside the plan are rejected.
        let state = load_resume_state(&line1, &plan[..1]).map(|_| ());
        assert!(state.is_err());
    }

    #[test]
    fn resume_rows_reproduce_the_seed_protocol() {
        // A resumed row and a freshly computed row of the same cell are
        // the same row — the parser is a pure inverse, not a re-run.
        let (_, plan) = smoke_plan();
        let row = smoke_row(&plan, 1);
        let state = load_resume_state(&row.to_json_line(), &plan).unwrap();
        assert_eq!(state.row(1).unwrap(), &row);
        assert_eq!(state.row(1).unwrap().seed, scenario_seed(5, 1));
    }
}
