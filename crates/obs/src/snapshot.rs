//! Snapshot model plus its JSON export, which carries the full snapshot
//! (including events).

use crate::histogram::HistogramSnapshot;
use crate::journal::{Event, FieldValue};
use crate::json::Json;
use crate::json_obj;

/// Deterministic point-in-time state of a [`crate::MetricsRegistry`]:
/// series sorted by name, journal events in sequence order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
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

impl MetricsSnapshot {
    /// Exact-name counter lookup (labels included in `name`).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
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

    /// Exact-name gauge lookup (labels included in `name`).
    pub fn gauge_u64(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Render the full snapshot (including events) as JSON: one entry per
    /// line under each section — a layout tests pin by hash.
    pub fn to_json(&self) -> String {
        let pair = |name: &str, value: Json| Json::Arr(vec![name.into(), value]);
        let mut counters = self
            .counters
            .iter()
            .map(|(name, v)| pair(name, (*v).into()));
        let mut gauges = self
            .gauges
            .iter()
            .map(|(name, g)| pair(name, json_obj! {"int": *g}));
        let mut histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = Json::arr(&h.buckets, |&(idx, n)| {
                Json::Arr(vec![idx.into(), n.into()])
            });
            pair(
                name,
                json_obj! {"count": h.count, "sum": h.sum, "buckets": buckets},
            )
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
            let rows: Vec<String> = rows
                .map(|row| format!("\n    {}", row.render_line()))
                .collect();
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
        m.add_with(
            "squirrel_boot_total",
            &[("node", "0"), ("result", "warm")],
            3,
        );
        m.set_gauge("squirrel_scvol_ddt_entries", 42);
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
    fn accessors_sum_across_label_sets() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        m.add_with("boot_total", &[("node", "0")], 2);
        m.add_with("boot_total", &[("node", "1")], 3);
        m.add("boot_totals", 100); // different base: must not match
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("boot_total"), 5);
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
        let json = Json::parse(&snap.to_json()).expect("parse");
        let first = |section: &str| {
            json.get(section)
                .and_then(|s| s.as_arr(section))
                .expect(section)[0]
                .clone()
        };
        let counter = Json::Arr(vec!["weird{label=\"a\\b\"}".into(), 1u64.into()]);
        assert_eq!(first("counters"), counter);
        let event = first("events");
        assert_eq!(
            event.get("name").and_then(|n| n.as_str("name")),
            Ok("quote\"newline\n")
        );
        let field = Json::Arr(vec!["k".into(), json_obj! {"str": "\ttab"}]);
        assert_eq!(event.get("fields"), Ok(&Json::Arr(vec![field])));
    }

    #[test]
    fn empty_snapshot_renders_parseable_json() {
        let json = Json::parse(&MetricsSnapshot::default().to_json()).expect("parse");
        for section in ["counters", "gauges", "histograms", "events"] {
            assert_eq!(json.get(section), Ok(&Json::Arr(Vec::new())), "{section}");
        }
        assert_eq!(json.get("events_dropped"), Ok(&Json::U64(0)));
    }

    /// Any prefix of a real snapshot, any prefix with a few flipped bits,
    /// and byte soup from JSON's own alphabet (so the parser gets past the
    /// first byte) all parse or error — none panics. Fixed-seed xorshift:
    /// the smoke replays identically every run.
    #[test]
    fn json_parse_survives_truncation_bitflips_and_random_bytes() {
        let mut state = 0x2014_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let survives = |bytes: &[u8]| drop(Json::parse(&String::from_utf8_lossy(bytes)));
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
            let soup: Vec<u8> = (0..rng() % 120)
                .map(|_| ALPHABET[rng() % ALPHABET.len()])
                .collect();
            survives(&soup);
        }
    }
}
