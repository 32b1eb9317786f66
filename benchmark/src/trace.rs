//! Benchmark-side spans: one around every call the benchmark makes into a
//! crate. Nothing inside the crates is instrumented; a span's layer is the
//! crate the call enters. Spans stay in memory and are written out once.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Spans of one request (one image, one boot, one ladder rung) share it.
    pub request: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    pub ok: bool,
}

/// Span recorder. Disabled, `call` is the bare closure call; enabled, it
/// adds two clock reads and one `Vec` push per span.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    request: u32,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            enabled,
        }
    }

    /// Start the next request; spans opened until the next call carry it.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later `call`s (a workload or ladder root).
    pub fn open(&mut self, name: &'static str, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            request: self.request,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            bytes: 0,
            ok: true,
        });
        self.stack.push(id);
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.stack.pop() {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Run `f` inside a leaf span parented to the innermost open span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        self.open(name, layer);
        let r = f();
        self.close();
        if let Some(last) = self.spans.last_mut() {
            last.bytes = bytes;
        }
        r
    }

    /// [`call`](Self::call) for a fallible call: an `Err` marks the span.
    pub fn try_call<T, E>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        bytes: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let r = self.call(name, layer, bytes, f);
        if let (true, Err(_), Some(last)) = (self.enabled, &r, self.spans.last_mut()) {
            last.ok = false;
        }
        r
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("request", Json::Num(f64::from(s.request))),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("bytes", Json::Num(s.bytes as f64)),
                    ("ok", Json::Bool(s.ok)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_their_parent_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.open("root", "bench");
        t.next_request();
        assert_eq!(t.call("leaf", "zfs", 7, || 41 + 1), 42);
        assert!(t.try_call("leaf", "zfs", 1, || Err::<(), ()>(())).is_err());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert_eq!(
            (s[1].request, s[1].bytes, s[1].ok, s[2].ok),
            (1, 7, true, false)
        );
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns >= s[1].start_ns);

        let mut off = Tracer::new(false);
        off.open("root", "bench");
        assert_eq!(off.call("leaf", "zfs", 7, || 5), 5);
        off.close();
        assert!(off.spans().is_empty());
    }
}
