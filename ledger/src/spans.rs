//! The benchmark's own spans: one record around each call it makes
//! into a layer's public API, kept in memory and written out as
//! `<out>.spans.json` when the run ends. Spans of one request share a
//! request id; a span's self time is its duration minus the part its
//! children cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wnsk_obs::JsonValue;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    records: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so children can name their parent before the
    /// parent's own record (which ends last) is written.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.records
            .lock()
            .expect("span buffer poisoned")
            .push(span);
    }

    /// Records a finished span under a fresh id and returns it.
    pub fn add(
        &self,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, parent, name, request, start, end);
        id
    }

    pub fn len(&self) -> usize {
        self.records.lock().expect("span buffer poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_json(&self) -> JsonValue {
        let mut records = self.records.lock().expect("span buffer poisoned").clone();
        records.sort_by_key(|s| (s.start_ns, s.id));
        let spans = records
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("id", s.id.into()),
                    (
                        "parent",
                        s.parent.map(JsonValue::from).unwrap_or(JsonValue::Null),
                    ),
                    ("name", s.name.into()),
                    ("request", s.request.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect();
        JsonValue::object(vec![("spans", JsonValue::Array(spans))])
    }
}
