//! The metrics registry and its cheaply clonable [`Metrics`] handles.

use crate::histogram::AtomicHistogram;
use crate::journal::{Event, EventJournal, FieldValue};
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub(crate) struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
    journal: Mutex<EventJournal>,
    /// Logical event sequence — the deterministic timestamp substitute.
    seq: AtomicU64,
    /// Wall-clock span accounting; kept out of the canonical snapshot so
    /// snapshots stay bit-identical across runs and thread counts.
    wall: Mutex<BTreeMap<String, WallStats>>,
}

/// Wall-clock statistics of a named span (non-deterministic by nature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallStats {
    pub count: u64,
    pub total_nanos: u64,
    pub max_nanos: u64,
    /// Time spent inside [`Span::busy`] sections, summed over whichever
    /// threads ran them (0 for a span that measures none): a parallel
    /// stage's efficiency is `busy_nanos / (total_nanos × threads)`.
    pub busy_nanos: u64,
}

/// Owner of all metric state. Create one per system, hand [`Metrics`]
/// handles to instrumented components, and take [`snapshot`](Self::snapshot)s
/// from serial code.
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// Registry with the default journal capacity (1024 events).
    pub fn new() -> Self {
        Self::with_journal_capacity(1024)
    }

    pub fn with_journal_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                journal: Mutex::new(EventJournal::new(capacity)),
                seq: AtomicU64::new(0),
                wall: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// An enabled handle onto this registry (no labels).
    pub fn handle(&self) -> Metrics {
        Metrics {
            inner: Some(Arc::clone(&self.inner)),
            labels: Vec::new(),
        }
    }

    /// The canonical, deterministic state: counters, gauges, histograms
    /// (sorted by series name) and the journal. Wall-clock timings are
    /// deliberately absent — see [`wall_times`](Self::wall_times).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let (events, events_dropped) = self.inner.journal.lock().expect("metrics lock").snapshot();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events,
            events_dropped,
        }
    }

    /// Wall-clock span timings, sorted by span name. Useful for performance
    /// reports; excluded from [`snapshot`](Self::snapshot) because elapsed
    /// time is not deterministic.
    pub fn wall_times(&self) -> Vec<(String, WallStats)> {
        self.inner
            .wall
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// A handle instrumented components record through. Clone freely; a
/// disabled handle (the [`Default`]) turns every operation into a cheap
/// no-op. Labels attached with [`with_label`](Self::with_label) become part
/// of every series name the handle interns.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
    labels: Vec<(String, String)>,
}

impl Metrics {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A derived handle whose interned series carry `key="value"` in
    /// addition to the current labels.
    pub fn with_label(&self, key: &str, value: &str) -> Metrics {
        let mut labels = self.labels.clone();
        labels.push((key.to_string(), value.to_string()));
        Metrics {
            inner: self.inner.clone(),
            labels,
        }
    }

    /// Render the full series name: `name{k="v",...}`.
    fn render(&self, name: &str, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return name.to_string();
        }
        let mut s = String::with_capacity(name.len() + 16);
        s.push_str(name);
        s.push('{');
        let own = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        for (i, (k, v)) in own.chain(extra.iter().copied()).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push_str("=\"");
            s.push_str(v);
            s.push('"');
        }
        s.push('}');
        s
    }

    /// Intern a counter handle for hot paths (one map lookup, then pure
    /// atomic adds).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let id = self.render(name, labels);
        let cell = Arc::clone(
            inner
                .counters
                .lock()
                .expect("metrics lock")
                .entry(id)
                .or_default(),
        );
        Counter(Some(cell))
    }

    /// One-shot counter add (interns on each call; fine for cold paths).
    pub fn add(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.counter(name).add(delta);
        }
    }

    pub fn add_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if self.inner.is_some() {
            self.counter_with(name, labels).add(delta);
        }
    }

    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set an integer gauge. Determinism contract: call only from serial
    /// orchestration code (last-writer-wins is order sensitive).
    pub fn set_gauge(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let id = self.render(name, &[]);
        inner
            .gauges
            .lock()
            .expect("metrics lock")
            .entry(id)
            .or_default()
            .store(value, Ordering::Relaxed);
    }

    /// Intern a histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let id = self.render(name, &[]);
        let cell = Arc::clone(
            inner
                .histograms
                .lock()
                .expect("metrics lock")
                .entry(id)
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        );
        Histogram(Some(cell))
    }

    /// One-shot histogram observation.
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).observe(value);
        }
    }

    /// Append a structured event to the journal. Serial-only (events carry
    /// a registry-wide sequence number; emitting them from parallel workers
    /// would make the order nondeterministic).
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let fields = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        inner.journal.lock().expect("metrics lock").push(Event {
            seq,
            name: name.to_string(),
            fields,
        });
    }

    /// Start a scoped span timer. On drop it records wall time under the
    /// span name (into the non-deterministic section) and emits one journal
    /// event carrying the fields attached via [`Span::field`].
    pub fn span(&self, name: &str) -> Span {
        Span {
            metrics: self.clone(),
            name: name.to_string(),
            start: self.inner.is_some().then(Instant::now),
            fields: Vec::new(),
            quiet: false,
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Journal-quiet variant of [`span`](Self::span): wall time still lands
    /// in [`MetricsRegistry::wall_times`], but no journal event is emitted
    /// on drop. For hot-path stage timers (e.g. per-ingest prepare/commit)
    /// whose per-call events would flood the journal and disturb the
    /// workflow-level event sequence that tests pin.
    pub fn timer(&self, name: &str) -> Span {
        Span {
            metrics: self.clone(),
            name: name.to_string(),
            start: self.inner.is_some().then(Instant::now),
            fields: Vec::new(),
            quiet: true,
            busy_nanos: AtomicU64::new(0),
        }
    }
}

/// Interned counter cell; all operations are no-ops when disabled.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Interned histogram cell; no-op when disabled.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<AtomicHistogram>>);

impl Histogram {
    pub fn observe(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.observe(value);
        }
    }
}

/// A scoped timer created by [`Metrics::span`]. Deterministic fields are
/// attached with [`field`](Self::field) and land in the journal; the
/// elapsed wall time lands in [`MetricsRegistry::wall_times`] only.
pub struct Span {
    metrics: Metrics,
    name: String,
    start: Option<Instant>,
    fields: Vec<(String, FieldValue)>,
    /// Journal-quiet ([`Metrics::timer`]): record wall time only.
    quiet: bool,
    busy_nanos: AtomicU64,
}

impl Span {
    /// Attach a deterministic field to the span's completion event.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.start.is_some() {
            self.fields.push((key.to_string(), value.into()));
        }
    }

    /// Run `work` and count its duration toward the span's busy time
    /// ([`WallStats::busy_nanos`]). Callable from any thread: a stage that
    /// spreads over workers wraps each unit of work, so the stage's wall
    /// time and the work done inside it are read from the same span.
    pub fn busy<R>(&self, work: impl FnOnce() -> R) -> R {
        if self.start.is_none() {
            return work();
        }
        let t = Instant::now();
        let r = work();
        self.busy_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let Some(inner) = &self.metrics.inner else {
            return;
        };
        let nanos = start.elapsed().as_nanos() as u64;
        {
            let mut wall = inner.wall.lock().expect("metrics lock");
            let w = wall
                .entry(self.metrics.render(&self.name, &[]))
                .or_default();
            w.count += 1;
            w.total_nanos += nanos;
            w.max_nanos = w.max_nanos.max(nanos);
            w.busy_nanos += *self.busy_nanos.get_mut();
        }
        if self.quiet {
            return;
        }
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let fields = std::mem::take(&mut self.fields);
        inner.journal.lock().expect("metrics lock").push(Event {
            seq,
            name: self.name.clone(),
            fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        m.add("z_total", 2);
        m.add("a_total", 1);
        let c = m.counter("z_total");
        c.add(3);
        assert_eq!(c.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".to_string(), 1), ("z_total".to_string(), 5)]
        );
    }

    #[test]
    fn labels_become_part_of_series_identity() {
        let reg = MetricsRegistry::new();
        let m = reg.handle().with_label("pool", "scvol");
        m.add("ingest_total", 1);
        m.add_with("boot_total", &[("node", "3")], 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ingest_total{pool=\"scvol\"}"), Some(1));
        assert_eq!(
            snap.counter("boot_total{pool=\"scvol\",node=\"3\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter("ingest_total"),
            None,
            "unlabeled series absent"
        );
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.add("x", 1);
        m.set_gauge("g", 7);
        m.observe("h", 9);
        m.event("e", &[("k", FieldValue::U64(1))]);
        let c = m.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let mut span = m.span("s");
        span.field("f", 1u64);
        drop(span);
        // Nothing to assert against — the point is no panic and no storage.
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        m.set_gauge("ddt_entries", 10);
        m.set_gauge("ddt_entries", 42);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge_u64("ddt_entries"), Some(42));
    }

    #[test]
    fn span_emits_event_and_wall_stats() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        {
            let mut span = m.span("register");
            span.field("wire_bytes", 123u64);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "register");
        assert_eq!(
            snap.events[0].field("wire_bytes"),
            Some(&FieldValue::U64(123))
        );
        let wall = reg.wall_times();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].0, "register");
        assert_eq!(wall[0].1.count, 1);
    }

    #[test]
    fn timer_records_wall_time_without_journal_event() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        drop(m.timer("ingest_commit"));
        drop(m.timer("ingest_commit"));
        let snap = reg.snapshot();
        assert!(
            snap.events.is_empty(),
            "timers must stay out of the journal"
        );
        let wall = reg.wall_times();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].0, "ingest_commit");
        assert_eq!(wall[0].1.count, 2);
        assert_eq!(wall[0].1.busy_nanos, 0, "nothing measured busy time");
    }

    #[test]
    fn busy_sections_sum_across_threads_beside_the_wall_time() {
        let reg = MetricsRegistry::new();
        let timer = reg.handle().timer("stage");
        let spin = || {
            let t = Instant::now();
            while t.elapsed().as_micros() < 200 {}
        };
        std::thread::scope(|s| {
            s.spawn(|| timer.busy(spin));
            timer.busy(spin);
        });
        drop(timer);
        let stage = reg.wall_times()[0].1;
        assert!(
            stage.busy_nanos >= 400_000,
            "two 200 µs sections: {stage:?}"
        );
        // A disabled handle runs the work and records nothing.
        assert_eq!(Metrics::disabled().timer("stage").busy(|| 7), 7);
        assert_eq!(reg.snapshot(), MetricsRegistry::new().snapshot());
    }

    #[test]
    fn event_sequence_numbers_are_monotonic() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        m.event("a", &[]);
        m.event("b", &[]);
        m.event("c", &[]);
        let snap = reg.snapshot();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_increments_sum_deterministically() {
        let reg = MetricsRegistry::new();
        let m = reg.handle();
        let c = m.counter("total");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("total"), Some(4000));
    }
}
