//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions; the library's own tracing stays off. Every
//! span carries its name (the metric prefix it feeds), start and end on
//! one monotonic clock, its parent span, and the id of the round it
//! belongs to. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u32 = 0;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe recorder shared by every participant of a traced round.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    round: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new round; later spans carry its id.
    pub fn begin_round(&self) -> u32 {
        self.round.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can parent its own children.
    pub fn span<T>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let round = self.round.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            name,
            id,
            parent,
            round,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-name totals over one round's spans.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    /// Summed span durations.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Summed self time: duration minus the part its children cover.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Ledger of one round: totals per span name, plus the round span's
/// self time (the part of the round no layer span covers).
#[derive(Debug, Default, Clone)]
pub struct RoundLedger {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    pub round_ns: u64,
    pub residual_ns: u64,
    pub spans: u64,
}

impl RoundLedger {
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 * 1e-9)
    }

    pub fn max_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |t| t.max_ns as f64 * 1e-9)
    }
}

/// Builds the ledger of round `round` from its spans. The round's own span
/// is the one named `round_name` without a parent.
pub fn ledger(spans: &[Span], round: u32, round_name: &str) -> RoundLedger {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.round == round).collect();
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &mine {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = RoundLedger {
        spans: mine.len() as u64,
        ..RoundLedger::default()
    };
    for s in &mine {
        let covered = children.get(&s.id).map_or(0, |c| union_ns(c.clone()));
        let self_ns = s.dur_ns().saturating_sub(covered);
        if s.parent == ROOT && s.name == round_name {
            out.round_ns = s.dur_ns();
            out.residual_ns = self_ns;
            continue;
        }
        let t = out.by_name.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.max_ns = t.max_ns.max(s.dur_ns());
        t.self_ns += self_ns;
        t.count += 1;
    }
    out
}

/// Writes spans as a Chrome `trace_event` array (one complete event per
/// span; `tid` is the round, `args` carries the id and parent).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            sp.name,
            sp.round,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
            sp.id,
            sp.parent
        ));
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, id, parent, s, e| Span {
            name,
            id,
            parent,
            round: 1,
            start_ns: s,
            end_ns: e,
        };
        let spans = vec![
            mk("round", 1, ROOT, 0, 100),
            mk("a", 2, 1, 10, 40),
            mk("b", 3, 1, 30, 60),
            mk("c", 4, 2, 10, 20),
        ];
        let l = ledger(&spans, 1, "round");
        assert_eq!(l.round_ns, 100);
        assert_eq!(l.residual_ns, 50);
        assert_eq!(l.by_name["a"].self_ns, 20);
        assert_eq!(l.by_name["b"].self_ns, 30);
        assert_eq!(l.spans, 4);
    }
}
