//! The structured event log: a leveled, bounded ring of key=value
//! events, trace-id correlated, replacing scattered `eprintln!`s.
//!
//! Emission is builder-shaped so call sites stay one line:
//!
//! ```
//! use hammer_obs::EventLog;
//! let log = EventLog::new(64);
//! log.warn("serve", "store unusable").field("error", "torn header");
//! ```
//!
//! The event is committed when the builder drops. The ring keeps the
//! latest `capacity` events; older ones are dropped and counted, never
//! blocked on. Events at or above the *echo level* (default
//! [`Level::Warn`]) are also formatted to stderr so operator-visible
//! behavior matches the `eprintln!`s this replaces.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::rollup::unix_ms_now;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic chatter (request digests, chaos decisions).
    Debug = 0,
    /// Normal state transitions (listener up, SLO resolved).
    Info = 1,
    /// Degraded but serving (store unusable, fault injected).
    Warn = 2,
    /// Request-visible failures (aborted connections).
    Error = 3,
}

impl Level {
    /// Lower-case name used in JSON payloads and query strings.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses `"debug" | "info" | "warn" | "error"` (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One committed log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number within this log (1-based).
    pub seq: u64,
    /// Wall-clock stamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (`serve`, `chaos`, `store`, `slo`, ...).
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Correlated wire trace id; 0 when the event is not tied to a
    /// request.
    pub trace_id: u64,
    /// Structured key=value fields, in emission order.
    pub fields: Vec<(&'static str, String)>,
}

/// Renders an event the way the stderr echo prints it:
/// `HH:MM:SS.mmm LEVEL [target] message k=v ... trace=…`.
#[must_use]
pub fn format_human(e: &Event) -> String {
    let secs = e.unix_ms / 1_000;
    let ms = e.unix_ms % 1_000;
    let (h, m, s) = ((secs / 3_600) % 24, (secs / 60) % 60, secs % 60);
    let mut out = format!(
        "{h:02}:{m:02}:{s:02}.{ms:03} {:<5} [{}] {}",
        e.level.as_str().to_ascii_uppercase(),
        e.target,
        e.message,
    );
    for (k, v) in &e.fields {
        // Quote values with spaces so the line stays field-splittable.
        if v.contains(' ') {
            out.push_str(&format!(" {k}={v:?}"));
        } else {
            out.push_str(&format!(" {k}={v}"));
        }
    }
    if e.trace_id != 0 {
        out.push_str(&format!(" trace={:016x}", e.trace_id));
    }
    out
}

struct LogInner {
    ring: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded, leveled, key=value event log. See the module docs.
pub struct EventLog {
    capacity: usize,
    inner: Mutex<LogInner>,
    dropped: AtomicU64,
    echo_level: AtomicU8,
}

impl EventLog {
    /// An empty log keeping the latest `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                next_seq: 1,
            }),
            dropped: AtomicU64::new(0),
            echo_level: AtomicU8::new(Level::Warn as u8),
        }
    }

    /// The process-wide log (capacity 4096) that serve/chaos/store emit
    /// into by default.
    pub fn global() -> &'static EventLog {
        static GLOBAL: OnceLock<EventLog> = OnceLock::new();
        GLOBAL.get_or_init(|| EventLog::new(4096))
    }

    /// Sets the minimum level echoed to stderr. [`Level::Warn`] by
    /// default — the behavior of the `eprintln!`s this log replaces.
    /// Pass `None` to silence stderr entirely (tests).
    pub fn set_echo_level(&self, level: Option<Level>) {
        let v = level.map_or(u8::MAX, |l| l as u8);
        self.echo_level.store(v, Ordering::Relaxed);
    }

    /// Events evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Starts a [`Level::Debug`] event.
    pub fn debug(&self, target: &'static str, message: impl Into<String>) -> EventBuilder<'_> {
        self.event(Level::Debug, target, message)
    }

    /// Starts a [`Level::Info`] event.
    pub fn info(&self, target: &'static str, message: impl Into<String>) -> EventBuilder<'_> {
        self.event(Level::Info, target, message)
    }

    /// Starts a [`Level::Warn`] event.
    pub fn warn(&self, target: &'static str, message: impl Into<String>) -> EventBuilder<'_> {
        self.event(Level::Warn, target, message)
    }

    /// Starts a [`Level::Error`] event.
    pub fn error(&self, target: &'static str, message: impl Into<String>) -> EventBuilder<'_> {
        self.event(Level::Error, target, message)
    }

    /// Starts an event at an explicit level; committed when the
    /// returned builder drops.
    pub fn event(
        &self,
        level: Level,
        target: &'static str,
        message: impl Into<String>,
    ) -> EventBuilder<'_> {
        EventBuilder {
            log: self,
            event: Some(Event {
                seq: 0,
                unix_ms: unix_ms_now(),
                level,
                target,
                message: message.into(),
                trace_id: 0,
                fields: Vec::new(),
            }),
        }
    }

    /// The most recent `n` events at or above `min_level`, oldest
    /// first.
    #[must_use]
    pub fn tail(&self, n: usize, min_level: Level) -> Vec<Event> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<Event> = inner
            .ring
            .iter()
            .rev()
            .filter(|e| e.level >= min_level)
            .take(n)
            .cloned()
            .collect();
        out.reverse();
        out
    }

    /// Every retained event with `seq > after_seq`, oldest first — the
    /// incremental-poll primitive.
    #[must_use]
    pub fn since(&self, after_seq: u64) -> Vec<Event> {
        let inner = self.inner.lock().unwrap();
        inner
            .ring
            .iter()
            .filter(|e| e.seq > after_seq)
            .cloned()
            .collect()
    }

    fn commit(&self, mut event: Event) {
        if event.level as u8 >= self.echo_level.load(Ordering::Relaxed) {
            eprintln!("{}", format_human(&event));
        }
        let mut inner = self.inner.lock().unwrap();
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(event);
    }
}

/// An in-flight event; commits to the log when dropped.
pub struct EventBuilder<'a> {
    log: &'a EventLog,
    event: Option<Event>,
}

impl EventBuilder<'_> {
    /// Attaches one key=value field.
    pub fn field(mut self, key: &'static str, value: impl ToString) -> Self {
        if let Some(e) = &mut self.event {
            e.fields.push((key, value.to_string()));
        }
        self
    }

    /// Correlates the event with a wire trace id (0 = none).
    pub fn trace(mut self, trace_id: u64) -> Self {
        if let Some(e) = &mut self.event {
            e.trace_id = trace_id;
        }
        self
    }
}

impl Drop for EventBuilder<'_> {
    fn drop(&mut self) {
        if let Some(event) = self.event.take() {
            self.log.commit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(cap: usize) -> EventLog {
        let log = EventLog::new(cap);
        log.set_echo_level(None);
        log
    }

    #[test]
    fn events_commit_on_drop_with_fields_and_trace() {
        let log = quiet(8);
        log.warn("serve", "store unusable")
            .field("error", "torn header")
            .trace(0xdead_beef);
        let events = log.tail(10, Level::Debug);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.seq, 1);
        assert_eq!(e.level, Level::Warn);
        assert_eq!(e.target, "serve");
        assert_eq!(e.fields, [("error", "torn header".to_owned())]);
        assert_eq!(e.trace_id, 0xdead_beef);
    }

    #[test]
    fn ring_keeps_latest_and_counts_drops() {
        let log = quiet(3);
        for i in 0..5 {
            log.info("t", format!("e{i}"));
        }
        assert_eq!(log.dropped(), 2);
        let msgs: Vec<_> = log
            .tail(10, Level::Debug)
            .into_iter()
            .map(|e| e.message)
            .collect();
        assert_eq!(msgs, ["e2", "e3", "e4"]);
    }

    #[test]
    fn tail_filters_by_level_and_since_by_seq() {
        let log = quiet(16);
        log.debug("t", "d");
        log.info("t", "i");
        log.warn("t", "w");
        log.error("t", "e");
        let warns: Vec<_> = log
            .tail(10, Level::Warn)
            .into_iter()
            .map(|e| e.message)
            .collect();
        assert_eq!(warns, ["w", "e"]);
        let later = log.since(2);
        assert_eq!(later.len(), 2);
        assert_eq!(later[0].message, "w");
    }

    #[test]
    fn human_format_quotes_spaced_values() {
        let e = Event {
            seq: 1,
            unix_ms: 3_600_000 + 61_234,
            level: Level::Warn,
            target: "chaos",
            message: "fault fired".to_owned(),
            trace_id: 0xab,
            fields: vec![("point", "slow compute".to_owned()), ("ms", "5".to_owned())],
        };
        let line = format_human(&e);
        assert_eq!(
            line,
            "01:01:01.234 WARN  [chaos] fault fired point=\"slow compute\" ms=5 trace=00000000000000ab"
        );
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }
}
