//! The benchmark's own load generator.
//!
//! Open loop: one seeded schedule of due times, fixed before the run
//! starts, is served by a pool of connections. Each request goes out on
//! a free connection at its due time whether or not earlier requests
//! were answered, and is timed from its *due* time, so a stall is
//! charged to every request it delays. How late a request was sent is
//! reported as send lag. The server answers a connection's requests
//! one at a time, so a pool (rather than pipelining on two connections)
//! keeps a slow answer from queueing unrelated requests behind it.
//!
//! Closed loop: each connection sends its next request when the
//! previous one is answered, which measures throughput.

use crate::spans::Spans;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use wnsk_obs::JsonValue;
use wnsk_serve::{client, Client};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TopK,
    WhyNot,
    /// Inserts a copy of a pool object.
    Insert,
    /// Deletes an object an earlier insert created.
    Delete,
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Due time, from the phase start (open loop only).
    pub due: Duration,
    pub kind: Kind,
    /// The line in the request pool; for an open-loop delete, the
    /// schedule index of the insert it undoes.
    pub line: usize,
}

/// The request pool a schedule indexes into, by kind.
pub struct Pool {
    pub topk: Vec<String>,
    pub whynot: Vec<String>,
    pub insert: Vec<String>,
}

impl Pool {
    fn line(&self, slot: &Slot, delete_id: Option<u32>) -> String {
        match slot.kind {
            Kind::TopK => self.topk[slot.line].clone(),
            Kind::WhyNot => self.whynot[slot.line].clone(),
            Kind::Insert => self.insert[slot.line].clone(),
            // A delete whose insert failed targets an id no dataset
            // has, so it fails visibly instead of stalling the run.
            Kind::Delete => client::delete_line(delete_id.unwrap_or(u32::MAX)),
        }
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Done {
    pub kind: Kind,
    pub line: usize,
    pub latency_ms: f64,
    /// How late the request was sent (open loop only).
    pub lag_ms: f64,
    /// `ok` and not degraded.
    pub ok: bool,
    /// The id an insert created.
    pub inserted: Option<u32>,
    /// Digest of the response with its cache markers removed.
    pub answer: u64,
}

/// A response without its `cached` / `rank_reused` markers: a cached
/// answer must equal the fresh one byte for byte once they are gone.
fn strip_markers(response: &str) -> String {
    match JsonValue::parse(response) {
        Ok(JsonValue::Object(fields)) => JsonValue::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "cached" && k != "rank_reused")
                .collect(),
        )
        .render(),
        _ => response.to_string(),
    }
}

/// FNV-1a digest of a response with its cache markers removed.
pub fn answer_digest(response: &str) -> u64 {
    strip_markers(response)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

fn classify(slot: &Slot, response: &str, latency_ms: f64, lag_ms: f64) -> Done {
    let doc = JsonValue::parse(response).ok();
    let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
    let ok = field("ok") == Some(&JsonValue::Bool(true))
        && !field("quality")
            .and_then(JsonValue::as_str)
            .is_some_and(|q| q.starts_with("degraded"));
    let inserted = match slot.kind {
        Kind::Insert if ok => field("id").and_then(JsonValue::as_f64).map(|v| v as u32),
        _ => None,
    };
    Done {
        kind: slot.kind,
        line: slot.line,
        latency_ms,
        lag_ms,
        ok,
        inserted,
        answer: answer_digest(response),
    }
}

/// Ids created by the schedule's inserts, by schedule index, for the
/// deletes that undo them.
#[derive(Default)]
struct Inserted {
    ids: Mutex<HashMap<usize, Option<u32>>>,
    ready: Condvar,
}

impl Inserted {
    fn put(&self, slot: usize, id: Option<u32>) {
        self.ids.lock().expect("id table poisoned").insert(slot, id);
        self.ready.notify_all();
    }

    fn wait(&self, slot: usize) -> Option<u32> {
        let mut ids = self.ids.lock().expect("id table poisoned");
        loop {
            if let Some(&id) = ids.get(&slot) {
                return id;
            }
            ids = self.ready.wait(ids).expect("id table poisoned");
        }
    }
}

/// Serves `slots` (sorted by due time) from `start` on `connections`
/// connections; results come back in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    slots: &[Slot],
    connections: usize,
    start: Instant,
    spans: Option<&Spans>,
) -> std::io::Result<Vec<Done>> {
    let next = AtomicUsize::new(0);
    let inserted = Inserted::default();
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let (next, inserted) = (&next, &inserted);
                scope.spawn(move || -> std::io::Result<Vec<(usize, Done)>> {
                    let mut conn = Client::connect(addr)?;
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            return Ok(done);
                        };
                        let due = start + slot.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let delete_id = match slot.kind {
                            Kind::Delete => inserted.wait(slot.line),
                            _ => None,
                        };
                        let line = pool.line(slot, delete_id);
                        let sent = Instant::now();
                        let response = conn.call(&line);
                        let now = Instant::now();
                        let response = match response {
                            Ok(r) => r,
                            Err(e) => {
                                // Unblock a delete waiting on this insert.
                                if slot.kind == Kind::Insert {
                                    inserted.put(i, None);
                                }
                                return Err(e);
                            }
                        };
                        let d = classify(
                            slot,
                            &response,
                            now.saturating_duration_since(due).as_secs_f64() * 1e3,
                            sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        if slot.kind == Kind::Insert {
                            inserted.put(i, d.inserted);
                        }
                        if let Some(s) = spans {
                            let root = s.id();
                            s.add(Some(root), "Client::call", i as u64, sent, now);
                            s.record(root, None, "request", i as u64, due, now);
                        }
                        done.push((i, d));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let mut all: Vec<(usize, Done)> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    Ok(all.into_iter().map(|(_, d)| d).collect())
}

/// Runs one closed-loop connection until `deadline`; `next` yields the
/// connection's requests in order. Each delete undoes the connection's
/// own latest insert.
pub fn closed_connection(
    addr: SocketAddr,
    pool: &Pool,
    mut next: impl FnMut() -> Slot,
    deadline: Instant,
    spans: Option<&Spans>,
    request_base: u64,
) -> std::io::Result<Vec<Done>> {
    let mut conn = Client::connect(addr)?;
    let mut done = Vec::new();
    let mut last_insert = None;
    while Instant::now() < deadline {
        let slot = next();
        let line = pool.line(&slot, last_insert);
        let t = Instant::now();
        let response = conn.call(&line)?;
        let end = Instant::now();
        let d = classify(&slot, &response, (end - t).as_secs_f64() * 1e3, 0.0);
        if slot.kind == Kind::Insert {
            last_insert = d.inserted;
        }
        if let Some(s) = spans {
            let request = request_base + done.len() as u64;
            s.add(None, "Client::call", request, t, end);
        }
        done.push(d);
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_do_not_change_the_answer() {
        let cached = r#"{"ok":true,"type":"topk","cached":true,"quality":"exact","results":[]}"#;
        let fresh = r#"{"ok":true,"type":"topk","cached":false,"quality":"exact","results":[]}"#;
        let other = r#"{"ok":true,"type":"topk","cached":false,"quality":"exact","results":[1]}"#;
        assert_eq!(answer_digest(cached), answer_digest(fresh));
        assert_ne!(answer_digest(fresh), answer_digest(other));
    }
}
