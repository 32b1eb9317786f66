//! Bounded ring-buffer event journal.
//!
//! Workflows (`register`, `boot`, `gc`, `node_rejoin`) emit one structured
//! event per operation from serial orchestration code; the journal keeps the
//! most recent `capacity` of them and counts what it sheds, so a snapshot is
//! deterministic even when a boot storm overflows the ring.

use std::collections::VecDeque;

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:?}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// Numeric view (strings yield `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            FieldValue::Str(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// One journal entry. `seq` is the registry-wide logical sequence number —
/// the deterministic substitute for a timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub name: String,
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// First field with the given key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

pub(crate) struct EventJournal {
    capacity: usize,
    buf: VecDeque<Event>,
    dropped: u64,
}

impl EventJournal {
    pub(crate) fn new(capacity: usize) -> Self {
        EventJournal {
            capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// Events oldest-first, plus how many older ones the ring shed.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64) {
        (self.buf.iter().cloned().collect(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            name: format!("e{seq}"),
            fields: vec![],
        }
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let mut j = EventJournal::new(4);
        for s in 0..6 {
            j.push(ev(s));
        }
        let (events, dropped) = j.snapshot();
        assert_eq!(dropped, 2);
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "oldest entries shed first"
        );
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut j = EventJournal::new(0);
        j.push(ev(0));
        let (events, dropped) = j.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn field_lookup_finds_first_match() {
        let e = Event {
            seq: 0,
            name: "x".into(),
            fields: vec![
                ("a".into(), FieldValue::U64(1)),
                ("b".into(), FieldValue::Str("two".into())),
            ],
        };
        assert_eq!(e.field("a"), Some(&FieldValue::U64(1)));
        assert_eq!(e.field("b").and_then(|v| v.as_str()), Some("two"));
        assert_eq!(e.field("missing"), None);
    }
}
