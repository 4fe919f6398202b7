//! The workspace's one compute executor, [`run_tiles`], and
//! [`Admission`], the serving tier's bounded admission gate.
//!
//! * [`run_tiles`] fans a computation's tiles out over scoped threads
//!   with a work-stealing cursor, a cancellation check before every
//!   tile claim and results in tile order. The exact kernel's passes,
//!   the ANN forest build and scoring, and the noise engines' trial
//!   blocks all run on it, so their outputs are identical at every
//!   thread count. Tiles borrow the caller's data, and a compute call
//!   never waits on a queue another call could be holding.
//! * [`Admission`] bounds how many requests compute at once. A caller
//!   [`enter`](Admission::enter)s with its deadline, runs its compute on
//!   its own thread while it holds the [`Permit`], and frees the slot
//!   by dropping it. Waiters are granted earliest deadline first, and a
//!   full waiting queue refuses instead of blocking, which gives the
//!   serving layer its 503-style backpressure. The gate spawns no
//!   threads.
//!
//! This is a dependency-free leaf crate (apart from `hammer_obs`), so
//! `hammer_core` and `hammer_sim` share the executor without pulling in
//! each other. `hammer_sim`'s gate passes are serial; its only
//! parallelism is trial blocks on [`run_tiles`]. The reference oracle's
//! parallel scoring stays on plain `std::thread::scope`, because it
//! splits `&mut` output slices, not tiles.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

pub mod cancel;
mod tiles;

pub use cancel::{CancelToken, Cancelled};
pub use tiles::run_tiles;

/// One waiting entrant with its grant rank: earliest deadline first,
/// undeadlined entrants after every deadlined one, FIFO (by entry
/// sequence) within a tie. The rank orders *grants*, so a mixed-budget
/// storm spends slots on the requests that can still make their
/// deadlines and lets already-doomed ones reach the caller's shed check
/// before burning compute.
#[derive(Debug)]
struct Waiter {
    deadline: Option<Instant>,
    seq: u64,
    ticket: Arc<Ticket>,
}

/// What one waiter sleeps on. Only the release that hands it a slot
/// sets `granted` (under the gate's lock) and signals `wake`, so a
/// release wakes exactly one thread.
#[derive(Debug, Default)]
struct Ticket {
    granted: AtomicBool,
    wake: Condvar,
}

impl PartialEq for Waiter {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Waiter {}

impl Ord for Waiter {
    /// `BinaryHeap` pops the maximum, so "granted sooner" must compare
    /// `Greater`: earlier deadlines and earlier sequence numbers rank
    /// above later ones, and any deadline ranks above none.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Waiter {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// State behind the gate's mutex.
#[derive(Debug)]
struct GateState {
    waiting: BinaryHeap<Waiter>,
    /// Slots no permit holds. Nonzero only while nobody waits: a
    /// release hands its slot straight to the first-ranked waiter.
    free: usize,
    /// Entry counter: the FIFO tiebreaker within equal deadlines (and
    /// the whole order for undeadlined entrants).
    seq: u64,
    shutdown: bool,
}

/// A bounded admission gate: at most `slots` [`Permit`]s are held at
/// once, and at most `queue_limit` entrants wait for one.
///
/// * [`enter`](Admission::enter) — blocks until a slot is granted, or
///   refuses at once when `queue_limit` entrants are already waiting or
///   shutdown has begun (the serving layer's backpressure primitive);
/// * [`queued`](Admission::queued) — the waiting depth behind the
///   `serve.queue.depth` gauge;
/// * [`begin_shutdown`](Admission::begin_shutdown) — refuse new
///   entrants while the ones already waiting drain.
///
/// # Example
///
/// ```
/// use hammer_pool::Admission;
///
/// let gate = Admission::new(2, 16);
/// let sum: u64 = std::thread::scope(|s| {
///     let handles: Vec<_> = (0u64..8)
///         .map(|i| {
///             let gate = &gate;
///             s.spawn(move || {
///                 let _permit = gate.enter(None).expect("the queue has room");
///                 i * i // computed while at most one other thread holds a slot
///             })
///         })
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).sum()
/// });
/// assert_eq!(sum, 140);
/// assert_eq!(gate.queued(), 0);
/// ```
#[derive(Debug)]
pub struct Admission {
    state: Mutex<GateState>,
    queue_limit: usize,
}

impl Admission {
    /// A gate with `slots` concurrent permits whose
    /// [`enter`](Admission::enter) refuses once `queue_limit` entrants
    /// are waiting (permit holders do not count against the limit).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize, queue_limit: usize) -> Self {
        assert!(slots >= 1, "need at least one slot");
        Self {
            state: Mutex::new(GateState {
                waiting: BinaryHeap::new(),
                free: slots,
                seq: 0,
                shutdown: false,
            }),
            queue_limit,
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("admission mutex unpoisoned")
    }

    /// Number of entrants currently waiting for a slot (not counting
    /// permit holders). Feeds the serving layer's `serve.queue.depth`
    /// gauge.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.lock().waiting.len()
    }

    /// Flips the shutdown latch: entrants already waiting are still
    /// granted as slots free, but every later
    /// [`enter`](Admission::enter) is refused. Lets a server reject late
    /// arrivals during its drain window instead of admitting work that
    /// will never be answered.
    pub fn begin_shutdown(&self) {
        self.lock().shutdown = true;
    }

    /// Waits for a slot and returns the [`Permit`] that holds it, or
    /// `None` at once when shutdown has begun or `queue_limit` entrants
    /// are already waiting; the caller decides what "busy" means (the
    /// serving layer replies 503-style `Busy`). The queue bound is
    /// checked before any free slot, so a `queue_limit` of 0 refuses
    /// every entrant.
    ///
    /// Waiters are granted earliest deadline first, with undeadlined
    /// entrants (FIFO among themselves) after every deadlined one. The
    /// deadline orders grants only — enforcing it is the caller's
    /// business (the serving layer checks its cancel token once granted
    /// and sheds expired work without computing). Each grant records
    /// its wait into the process-global `pool.queue_wait_ns` histogram.
    pub fn enter(&self, deadline: Option<Instant>) -> Option<Permit<'_>> {
        let entered = Instant::now();
        let mut state = self.lock();
        if state.shutdown || state.waiting.len() >= self.queue_limit {
            return None;
        }
        if state.free > 0 {
            state.free -= 1;
        } else {
            let ticket = Arc::new(Ticket::default());
            let seq = state.seq;
            state.seq += 1;
            state.waiting.push(Waiter {
                deadline,
                seq,
                ticket: Arc::clone(&ticket),
            });
            while !ticket.granted.load(Ordering::Relaxed) {
                state = ticket
                    .wake
                    .wait(state)
                    .expect("admission mutex unpoisoned while waiting");
            }
        }
        drop(state);
        queue_wait_hist().record(elapsed_ns(entered));
        Some(Permit { gate: self })
    }
}

/// One held slot of an [`Admission`] gate; dropping it — also during a
/// panic's unwind — hands the slot to the first-ranked waiter, or
/// frees it when nobody waits.
#[derive(Debug)]
#[must_use = "the slot is freed as soon as the permit is dropped"]
pub struct Permit<'a> {
    gate: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        match state.waiting.pop() {
            Some(next) => {
                next.ticket.granted.store(true, Ordering::Relaxed);
                next.ticket.wake.notify_one();
            }
            None => state.free += 1,
        }
    }
}

/// Renders a panic payload for error reporting.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The process-wide EDF queue-wait histogram: entry-to-grant latency
/// across every gate in the process, on the global registry so the
/// serving tier's `MetricsSnapshot` opcode exposes it.
fn queue_wait_hist() -> &'static hammer_obs::Histogram {
    static H: std::sync::OnceLock<hammer_obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| hammer_obs::Registry::global().histogram("pool.queue_wait_ns"))
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Polls until exactly `n` entrants wait on `gate`; entrants run on
    /// other threads, so their arrival is observed, not assumed.
    fn await_queued(gate: &Admission, n: usize) {
        let by = Instant::now() + Duration::from_secs(10);
        while gate.queued() != n {
            assert!(
                Instant::now() < by,
                "{} waiting, expected {n}",
                gate.queued()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn no_more_than_slots_permits_are_held_at_once() {
        let gate = Admission::new(2, usize::MAX);
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let _permit = gate.enter(None).expect("unbounded queue admits");
                        let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 120);
        assert!(peak.load(Ordering::SeqCst) <= 2, "{peak:?} permits held");
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn enter_refuses_beyond_the_queue_limit() {
        // A queue limit of 0 refuses even with every slot free.
        assert!(Admission::new(1, 0).enter(None).is_none());

        let gate = Admission::new(1, 2);
        let permit = gate.enter(None).expect("a free slot is granted");
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| s.spawn(|| gate.enter(None).is_some()))
                .collect();
            await_queued(&gate, 2);
            // Two waiting entrants = the limit: the next is refused at
            // once instead of joining them.
            assert!(gate.enter(None).is_none());
            drop(permit);
            for w in waiters {
                assert!(w.join().unwrap(), "a waiter below the limit is granted");
            }
        });
    }

    #[test]
    fn waiters_are_granted_after_shutdown_begins() {
        let gate = Admission::new(1, usize::MAX);
        let granted = AtomicUsize::new(0);
        let permit = gate.enter(None).expect("a free slot is granted");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _permit = gate.enter(None).expect("entered before shutdown");
                    granted.fetch_add(1, Ordering::SeqCst);
                });
            }
            await_queued(&gate, 4);
            gate.begin_shutdown();
            drop(permit);
        });
        assert_eq!(granted.load(Ordering::SeqCst), 4);
        assert!(gate.enter(None).is_none(), "later entrants are refused");
    }

    #[test]
    fn a_permit_dropped_during_unwind_frees_its_slot() {
        let gate = Arc::new(Admission::new(1, usize::MAX));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.enter(None).expect("a free slot is granted");
            panic!("holder panic");
        }));
        assert!(unwound.is_err());
        // The lone slot is free again: a fresh entrant is granted
        // instead of waiting forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let entrant = Arc::clone(&gate);
        std::thread::spawn(move || tx.send(entrant.enter(None).is_some()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
    }

    #[test]
    fn enter_after_shutdown_is_refused_at_once() {
        let gate = Admission::new(1, usize::MAX);
        gate.begin_shutdown();
        // Refused immediately, with the slot free: admitting work after
        // shutdown began would keep the drain waiting on it.
        assert!(gate.enter(None).is_none());
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn drain_behind_a_slow_holder_is_bounded() {
        let gate = Admission::new(1, usize::MAX);
        let ran = AtomicUsize::new(0);
        let start = Instant::now();
        let slow = gate.enter(None).expect("a free slot is granted");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.enter(None).expect("entered before shutdown");
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            await_queued(&gate, 8);
            gate.begin_shutdown();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                drop(slow);
            });
        });
        // Every waiter behind the slow holder was granted, within the
        // holder's duration plus slack, not a deadlock-shaped forever.
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "drain took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn waiters_are_granted_earliest_deadline_first() {
        // The lone slot is held while entrants with out-of-order
        // deadlines queue, so the grant order is decided before anyone
        // runs: deadline order, undeadlined entrants FIFO after every
        // deadlined one.
        let gate = Admission::new(1, 16);
        let order = Mutex::new(Vec::new());
        let now = Instant::now();
        let ms = |n: u64| Some(now + Duration::from_millis(n));
        let permit = gate.enter(None).expect("a free slot is granted");
        std::thread::scope(|s| {
            let entrants = [
                ("none-1", None),
                ("late", ms(300)),
                ("early", ms(100)),
                ("mid", ms(200)),
                ("none-2", None),
            ];
            for (i, (name, deadline)) in entrants.into_iter().enumerate() {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let _permit = gate.enter(deadline).expect("the queue has room");
                    order.lock().unwrap().push(name);
                });
                // One at a time, so the entry sequence is the listed
                // order.
                await_queued(gate, i + 1);
            }
            drop(permit);
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["early", "mid", "late", "none-1", "none-2"]
        );
    }

    #[test]
    fn queued_reports_the_waiting_depth() {
        let gate = Admission::new(1, 8);
        assert_eq!(gate.queued(), 0);
        let permit = gate.enter(None).expect("a free slot is granted");
        // The holder is not waiting.
        assert_eq!(gate.queued(), 0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drop(gate.enter(None)));
            }
            await_queued(&gate, 2);
            drop(permit);
        });
        assert_eq!(gate.queued(), 0);
    }
}
