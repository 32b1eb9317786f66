//! Snapshot model plus Prometheus-text and JSON export with exact
//! round-trip parsers.
//!
//! The JSON format carries the full snapshot (including events); the
//! Prometheus text format carries counters, gauges, and histograms — the
//! journal has no Prometheus representation, so `from_prometheus` returns a
//! snapshot with an empty journal.

use crate::histogram::{bucket_bound, bucket_index, HistogramSnapshot};
use crate::journal::{Event, FieldValue};
use crate::json::{parse_f64, Json, ParseError};
use crate::json_obj;

/// A gauge is either an integer or a float series.
#[derive(Clone, Debug, PartialEq)]
pub enum GaugeValue {
    Int(u64),
    Float(f64),
}

impl GaugeValue {
    pub fn as_f64(&self) -> f64 {
        match self {
            GaugeValue::Int(v) => *v as f64,
            GaugeValue::Float(v) => *v,
        }
    }
}

/// Deterministic point-in-time state of a [`crate::MetricsRegistry`]:
/// series sorted by name, journal events in sequence order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, GaugeValue)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub events: Vec<Event>,
    /// Events the bounded journal shed before this snapshot.
    pub events_dropped: u64,
}

/// True when `series` is the base name itself or the base plus labels.
fn matches_base(series: &str, base: &str) -> bool {
    series == base
        || (series.len() > base.len()
            && series.starts_with(base)
            && series.as_bytes()[base.len()] == b'{')
}

/// Series name without the label part.
fn base_of(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

impl MetricsSnapshot {
    /// Exact-name counter lookup (labels included in `name`).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Sum of every counter series with the given base name, across all
    /// label combinations.
    pub fn counter_sum(&self, base: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| matches_base(k, base))
            .map(|(_, v)| v)
            .sum()
    }

    /// All counter series `(full name, value)` sharing a base name.
    pub fn counter_series<'a>(
        &'a self,
        base: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| matches_base(k, base))
            .map(|(k, v)| (k.as_str(), *v))
    }

    pub fn gauge(&self, name: &str) -> Option<&GaugeValue> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn gauge_u64(&self, name: &str) -> Option<u64> {
        match self.gauge(name)? {
            GaugeValue::Int(v) => Some(*v),
            GaugeValue::Float(_) => None,
        }
    }

    pub fn gauge_f64(&self, name: &str) -> Option<f64> {
        match self.gauge(name)? {
            GaugeValue::Float(v) => Some(*v),
            GaugeValue::Int(_) => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Journal events with the given name, in sequence order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    // --- Prometheus text format --------------------------------------------

    /// Render the counters, gauges, and histograms in Prometheus text
    /// exposition format (events have no Prometheus representation).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if last_type.as_deref() != Some(base) {
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_type = Some(base.to_string());
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, base_of(name), "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, base_of(name), "gauge");
            match v {
                GaugeValue::Int(i) => out.push_str(&format!("{name} {i}\n")),
                GaugeValue::Float(f) => out.push_str(&format!("{name} {f:?}\n")),
            }
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, base_of(name), "histogram");
            let mut cumulative = 0u64;
            for &(idx, n) in &h.buckets {
                cumulative += n;
                let series = with_suffix_label(name, "_bucket", &bucket_bound(idx as usize));
                out.push_str(&format!("{series} {cumulative}\n"));
            }
            let inf = with_inf_label(name);
            out.push_str(&format!("{inf} {}\n", h.count));
            out.push_str(&format!("{} {}\n", with_suffix(name, "_sum"), h.sum));
            out.push_str(&format!("{} {}\n", with_suffix(name, "_count"), h.count));
        }
        out
    }

    /// Parse [`to_prometheus`](Self::to_prometheus) output back into a
    /// snapshot (with an empty journal). Exact inverse for snapshots this
    /// crate produced.
    pub fn from_prometheus(text: &str) -> Result<MetricsSnapshot, ParseError> {
        /// Accumulator for one histogram family while its component series
        /// stream in: count, sum, de-cumulated buckets, running cumulative.
        #[derive(Default)]
        struct HistoAcc {
            count: u64,
            sum: u64,
            buckets: Vec<(u8, u64)>,
            prev: u64,
        }
        let mut kinds: std::collections::BTreeMap<String, String> = Default::default();
        let mut snap = MetricsSnapshot::default();
        let mut histos: std::collections::BTreeMap<String, HistoAcc> = Default::default();
        for (lineno, line) in text.lines().enumerate() {
            let err = |msg: &str| ParseError::at(lineno + 1, msg);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let base = it.next().ok_or_else(|| err("missing family name"))?;
                let kind = it.next().ok_or_else(|| err("missing family kind"))?;
                kinds.insert(base.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // Sample: the value is the trailing whitespace-separated token;
            // the series name (which may contain spaces inside label
            // values — not produced by this crate, but be strict anyway)
            // is everything before it.
            let split = line.rfind(' ').ok_or_else(|| err("missing sample value"))?;
            let (series, value) = (line[..split].trim_end(), line[split + 1..].trim());
            let base = base_of(series);
            match kinds.get(base).map(|s| s.as_str()) {
                Some("counter") => {
                    let v = value.parse().map_err(|_| err("bad counter value"))?;
                    snap.counters.push((series.to_string(), v));
                }
                Some("gauge") => {
                    let g = match value.parse::<u64>() {
                        Ok(i) => GaugeValue::Int(i),
                        Err(_) => GaugeValue::Float(
                            parse_f64(value).ok_or_else(|| err("bad gauge value"))?,
                        ),
                    };
                    snap.gauges.push((series.to_string(), g));
                }
                _ => {
                    // Histogram component series.
                    let (family, part) = histogram_family(series, &kinds)
                        .ok_or_else(|| err("sample without TYPE"))?;
                    let v: u64 = value.parse().map_err(|_| err("bad histogram value"))?;
                    let entry = histos.entry(family).or_default();
                    match part {
                        HistoPart::Bucket(le) => {
                            if let Some(le) = le {
                                let idx = bucket_index(le) as u8;
                                entry.buckets.push((idx, v - entry.prev));
                                entry.prev = v;
                            }
                            // +Inf bucket: redundant with _count; skip.
                        }
                        HistoPart::Sum => entry.sum = v,
                        HistoPart::Count => entry.count = v,
                    }
                }
            }
        }
        for (name, acc) in histos {
            snap.histograms.push((
                name,
                HistogramSnapshot { count: acc.count, sum: acc.sum, buckets: acc.buckets },
            ));
        }
        Ok(snap)
    }

    // --- JSON ---------------------------------------------------------------

    /// Render the full snapshot (including events) as JSON: one entry per
    /// line under each section — a layout tests pin by hash.
    pub fn to_json(&self) -> String {
        let pair = |name: &str, value: Json| Json::Arr(vec![name.into(), value]);
        let mut counters = self.counters.iter().map(|(name, v)| pair(name, (*v).into()));
        let mut gauges = self.gauges.iter().map(|(name, v)| {
            let value = match v {
                GaugeValue::Int(g) => json_obj! {"int": *g},
                GaugeValue::Float(g) => json_obj! {"float": *g},
            };
            pair(name, value)
        });
        let mut histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = Json::arr(&h.buckets, |&(idx, n)| Json::Arr(vec![idx.into(), n.into()]));
            pair(name, json_obj! {"count": h.count, "sum": h.sum, "buckets": buckets})
        });
        let mut events = self.events.iter().map(|e| {
            let fields = Json::arr(&e.fields, |(k, v)| {
                let value = match v {
                    FieldValue::U64(x) => json_obj! {"u64": *x},
                    FieldValue::I64(x) => json_obj! {"i64": Json::I64(*x)},
                    FieldValue::F64(x) => json_obj! {"f64": *x},
                    FieldValue::Str(x) => json_obj! {"str": x.as_str()},
                };
                pair(k, value)
            });
            json_obj! {"seq": e.seq, "name": e.name.as_str(), "fields": fields}
        });
        let section = |name: &str, rows: &mut dyn Iterator<Item = Json>| {
            let rows: Vec<String> = rows.map(|row| format!("\n    {}", row.render_line())).collect();
            format!("  \"{name}\": [{}\n  ],\n", rows.join(","))
        };
        format!(
            "{{\n{}{}{}{}  \"events_dropped\": {}\n}}\n",
            section("counters", &mut counters),
            section("gauges", &mut gauges),
            section("histograms", &mut histograms),
            section("events", &mut events),
            self.events_dropped
        )
    }

    /// Parse [`to_json`](Self::to_json) output back into a snapshot.
    /// Exact inverse for snapshots this crate produced.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, ParseError> {
        let json = Json::parse(text)?;
        let mut snap = MetricsSnapshot::default();
        for entry in json.get("counters")?.as_arr("counters")? {
            let (name, v) = pair(entry)?;
            snap.counters.push((name, v.as_u64("counter value")?));
        }
        for entry in json.get("gauges")?.as_arr("gauges")? {
            let (name, g) = pair(entry)?;
            let value = if let Ok(v) = g.get("int") {
                GaugeValue::Int(v.as_u64("int gauge")?)
            } else {
                GaugeValue::Float(g.get("float")?.as_f64("float gauge")?)
            };
            snap.gauges.push((name, value));
        }
        for entry in json.get("histograms")?.as_arr("histograms")? {
            let (name, h) = pair(entry)?;
            let mut buckets = Vec::new();
            for b in h.get("buckets")?.as_arr("buckets")? {
                let [idx, count] = b.as_arr("bucket pair")? else {
                    return Err(ParseError::new("expected [index, count] bucket"));
                };
                buckets.push((idx.as_u64("bucket index")? as u8, count.as_u64("bucket count")?));
            }
            snap.histograms.push((
                name,
                HistogramSnapshot {
                    count: h.get("count")?.as_u64("histogram count")?,
                    sum: h.get("sum")?.as_u64("histogram sum")?,
                    buckets,
                },
            ));
        }
        for e in json.get("events")?.as_arr("events")? {
            let mut fields = Vec::new();
            for f in e.get("fields")?.as_arr("fields")? {
                let (name, fv) = pair(f)?;
                let (tag, raw) = fv
                    .as_obj("field value")?
                    .first()
                    .ok_or_else(|| ParseError::new("empty field"))?;
                let value = match tag.as_str() {
                    "u64" => FieldValue::U64(raw.as_u64("u64 field")?),
                    "i64" => FieldValue::I64(raw.as_i64("i64 field")?),
                    "f64" => FieldValue::F64(raw.as_f64("f64 field")?),
                    "str" => FieldValue::Str(raw.as_str("str field")?.to_string()),
                    other => return Err(ParseError::new(&format!("bad field tag {other}"))),
                };
                fields.push((name, value));
            }
            snap.events.push(Event {
                seq: e.get("seq")?.as_u64("event seq")?,
                name: e.get("name")?.as_str("event name")?.to_string(),
                fields,
            });
        }
        snap.events_dropped = json.get("events_dropped")?.as_u64("events_dropped")?;
        Ok(snap)
    }
}

/// A `[name, value]` entry; a shorter or longer array is a parse error, not
/// an index panic.
fn pair(entry: &Json) -> Result<(String, &Json), ParseError> {
    match entry.as_arr("pair")? {
        [name, value] => Ok((name.as_str("pair name")?.to_string(), value)),
        _ => Err(ParseError::new("expected [name, value] pair")),
    }
}

enum HistoPart {
    /// `Some(le)` for a finite bucket bound, `None` for `+Inf`.
    Bucket(Option<u64>),
    Sum,
    Count,
}

/// Resolve a `<family>_bucket{...,le="..."}` / `_sum` / `_count` series to
/// its histogram family series name and component.
fn histogram_family(
    series: &str,
    kinds: &std::collections::BTreeMap<String, String>,
) -> Option<(String, HistoPart)> {
    let base = base_of(series);
    let is_histo = |b: &str| kinds.get(b).map(|k| k == "histogram").unwrap_or(false);
    if let Some(family_base) = base.strip_suffix("_bucket") {
        if is_histo(family_base) {
            let (labels, le) = split_le_label(series.strip_prefix(base)?)?;
            let family = format!("{family_base}{labels}");
            let le = match le.as_str() {
                "+Inf" => None,
                n => Some(n.parse().ok()?),
            };
            return Some((family, HistoPart::Bucket(le)));
        }
    }
    for (suffix, part) in [("_sum", HistoPart::Sum), ("_count", HistoPart::Count)] {
        if let Some(family_base) = base.strip_suffix(suffix) {
            if is_histo(family_base) {
                let labels = series.strip_prefix(base)?;
                return Some((format!("{family_base}{labels}"), part));
            }
        }
    }
    None
}

/// Split `{a="b",le="128"}` into (`{a="b"}` or ``, `128`). The exporter
/// always appends `le` last.
fn split_le_label(labels: &str) -> Option<(String, String)> {
    let inner = labels.strip_prefix('{')?.strip_suffix('}')?;
    let (rest, le_part) = match inner.rfind(",le=\"") {
        Some(i) => (&inner[..i], &inner[i + 5..]),
        None => ("", inner.strip_prefix("le=\"")?),
    };
    let le = le_part.strip_suffix('"')?;
    let labels = if rest.is_empty() { String::new() } else { format!("{{{rest}}}") };
    Some((labels, le.to_string()))
}

/// `name{a="b"}` + `_sum` -> `name_sum{a="b"}`.
fn with_suffix(series: &str, suffix: &str) -> String {
    match series.find('{') {
        Some(i) => format!("{}{suffix}{}", &series[..i], &series[i..]),
        None => format!("{series}{suffix}"),
    }
}

/// `name{a="b"}` + `_bucket` + bound -> `name_bucket{a="b",le="bound"}`.
fn with_suffix_label(series: &str, suffix: &str, le: &u64) -> String {
    let named = with_suffix(series, suffix);
    match named.rfind('}') {
        Some(i) => format!("{},le=\"{le}\"}}", &named[..i]),
        None => format!("{named}{{le=\"{le}\"}}"),
    }
}

fn with_inf_label(series: &str) -> String {
    let named = with_suffix(series, "_bucket");
    match named.rfind('}') {
        Some(i) => format!("{},le=\"+Inf\"}}", &named[..i]),
        None => format!("{named}{{le=\"+Inf\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    /// A snapshot exercising every series kind, labels, and field types.
    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::with_journal_capacity(8);
        let m = reg.handle();
        let pool = m.with_label("pool", "scvol");
        pool.add("zpool_ingest_bytes_total", 1 << 20);
        pool.add("zpool_ddt_hits_total", 7);
        m.add_with("squirrel_boot_total", &[("node", "0"), ("result", "warm")], 3);
        m.set_gauge("squirrel_scvol_ddt_entries", 42);
        m.set_gauge_f64("squirrel_arc_hit_rate", 0.625);
        let h = pool.histogram("zpool_compressed_block_bytes");
        for v in [0u64, 3, 900, 900, 70000] {
            h.observe(v);
        }
        m.event(
            "register",
            &[
                ("image", FieldValue::U64(0)),
                ("tag", FieldValue::Str("vmi-000000-r1".into())),
                ("seconds", FieldValue::F64(21.5)),
                ("delta", FieldValue::I64(-3)),
            ],
        );
        m.event("boot", &[("warm", FieldValue::U64(1))]);
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_round_trip_preserves_series() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let back = MetricsSnapshot::from_prometheus(&text).expect("parse");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
        assert!(back.events.is_empty(), "journal has no Prometheus form");
    }

    #[test]
    fn prometheus_text_shape() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE zpool_ingest_bytes_total counter"));
        assert!(text.contains("zpool_ingest_bytes_total{pool=\"scvol\"} 1048576"));
        assert!(text.contains("squirrel_arc_hit_rate 0.625"));
        assert!(text
            .contains("zpool_compressed_block_bytes_bucket{pool=\"scvol\",le=\"+Inf\"} 5"));
        assert!(text.contains("zpool_compressed_block_bytes_sum{pool=\"scvol\"} 71803"));
        // Buckets are cumulative.
        assert!(text
            .contains("zpool_compressed_block_bytes_bucket{pool=\"scvol\",le=\"1023\"} 4"));
    }

    #[test]
    fn accessors_sum_across_label_sets() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        m.add_with("boot_total", &[("node", "0")], 2);
        m.add_with("boot_total", &[("node", "1")], 3);
        m.add("boot_totals", 100); // different base: must not match
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("boot_total"), 5);
        assert_eq!(snap.counter_series("boot_total").count(), 2);
        assert_eq!(snap.counter("boot_total{node=\"1\"}"), Some(3));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("weird{label=\"a\\b\"}".to_string(), 1));
        snap.events.push(Event {
            seq: 0,
            name: "quote\"newline\n".to_string(),
            fields: vec![("k".into(), FieldValue::Str("\ttab".into()))],
        });
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(MetricsSnapshot::from_json("{").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
        // A short `[name, value]` entry is an error, not an index panic.
        assert!(MetricsSnapshot::from_json("{\"counters\": [], \"gauges\": [[\"g\"]]}").is_err());
        let err = MetricsSnapshot::from_prometheus("lone_sample 5").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    /// `from_json` is `pub` and reads files: a bracket bomb is a
    /// `ParseError`, not a stack overflow.
    #[test]
    fn from_json_bounds_nesting() {
        for open in ["[", "{\"k\": "] {
            let err = MetricsSnapshot::from_json(&open.repeat(100_000)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        }
        let nested = |levels: usize| format!("{}7{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(64)).is_ok());
        assert!(Json::parse(&nested(65)).is_err());
    }

    /// Any prefix of a real snapshot, any prefix with a few flipped bits,
    /// and byte soup from JSON's own alphabet (so the parser gets past the
    /// first byte) all parse or error — none panics. Fixed-seed xorshift:
    /// the smoke replays identically every run.
    #[test]
    fn from_json_survives_truncation_bitflips_and_random_bytes() {
        let mut state = 0x2014_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let survives = |bytes: &[u8]| drop(MetricsSnapshot::from_json(&String::from_utf8_lossy(bytes)));
        let clean = sample_snapshot().to_json().into_bytes();
        for len in 0..=clean.len() {
            let mut bytes = clean[..len].to_vec();
            survives(&bytes);
            for _ in 0..rng() % 4 {
                if let Some(byte) = bytes.get_mut(rng() % len.max(1)) {
                    *byte ^= 1 << (rng() % 8);
                }
            }
            survives(&bytes);
        }
        const ALPHABET: &[u8] = b"{}[]\",:\\ \n0123456789-+.eEuintflosaN\xc3\xa9";
        for _ in 0..2000 {
            let soup: Vec<u8> = (0..rng() % 120).map(|_| ALPHABET[rng() % ALPHABET.len()]).collect();
            survives(&soup);
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).expect("json"), snap);
        assert_eq!(
            MetricsSnapshot::from_prometheus(&snap.to_prometheus()).expect("prom"),
            snap
        );
    }
}
