//! Adaptive spin-wait (bounded spin → yield → timed park) and the per-queue
//! wake latch whose drive lease decides whether a producer's wake is worth
//! sending.
//!
//! The paper's NIC polls CCI-P in hardware for free; a software model pays
//! for every hand-off between the threads that stand in for it. Sized on
//! this class of box (issue 16) with a token passed between yield-spinning
//! threads confined to one CPU, 200 k round trips ×3: four runnable
//! threads with all four on the path — load → client engine → server
//! engine → dispatch and back, 3 + 3·3 = 12 `sched_yield` switches of the
//! scheduler's fixed rotation — cost 8.3–8.9 µs per round trip; the same
//! four threads with only two on the path 2.8–3.2 µs; two threads alone
//! 1.3–1.4 µs. So the policy here is about *who* is runnable, not only how
//! a waiter backs off:
//!
//! 1. a short `spin_loop` phase (cheap when work arrives within ns, skipped
//!    when the host offers no parallelism — see `spin_rounds`);
//! 2. a long `yield_now` phase — when producer and consumer share a core
//!    this is what lets the peer produce the work we are waiting for;
//! 3. an escalating timed park/sleep once the wait has stayed idle for
//!    `PARK_AFTER` past the end of the yield phase, capped so a lost
//!    wakeup costs at most `PARK_MAX`. The clock is first read when the
//!    yield rounds run out: a wait that ends inside the spin or yield
//!    phase — every wait inside a µs-scale RPC — never reads it.
//!
//! A host thread that waits on its flow *drives its own engine queue* while
//! it waits (`drive.rs`), and every step it takes renews the queue's drive
//! lease on its [`EngineWaker`]. While the lease is live the queue's engine
//! thread stands by in a timed park and every producer-side
//! [`EngineWaker::wake`] is skipped: the consumer is provably polling. The
//! thread looks at the lease every `PARK_AFTER` at first — the idleness
//! that sends a waiter to sleep also hands a queue back — and a lease
//! nobody renewed between two looks has lapsed: wakes reach the thread
//! again. The look interval is a measured trade: a timed park costs ~7.5 µs
//! of kernel time on this class of (virtualised) box, so two engine threads
//! looking every 200 µs took 7 % of the one CPU (−8 % `bulk_udp` throughput
//! against the thread-driven parent), every 1 ms 1.5 % — and even that is
//! 2 000 timer interrupts a second landing in the middle of somebody's
//! RPC, which showed as 3 % of `kvs_read`'s throughput and twice the
//! segment-to-segment spread. So the interval doubles with every look that
//! finds the lease renewed, up to `STANDBY_MAX`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::monitor::QueueStats;

/// Rounds of `spin_loop` hinting before yielding — on hosts with more than
/// one core. Spinning only pays when another core can produce the awaited
/// work mid-spin; on a single-core host the producer cannot run until the
/// waiter yields, so every spin round just delays the producer and the spin
/// phase is skipped entirely (see [`spin_rounds`]).
const SPIN_ROUNDS: u32 = 16;

/// Effective spin-phase length for this host: [`SPIN_ROUNDS`] with real
/// parallelism, zero on a single core.
fn spin_rounds() -> u32 {
    static ROUNDS: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *ROUNDS.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_ROUNDS,
        _ => 0,
    })
}
/// Rounds of `yield_now` before the time gate is even consulted. Yields
/// dominate on purpose: with waiter and producer on one core, yielding is
/// how the waited-on thread makes progress.
const YIELD_ROUNDS: u32 = 1024;
/// Idle time required after the yield phase before the backoff escalates
/// from yielding to parking. The gate opens this long after the yield
/// rounds run out (that is when the wait first reads the clock), not after
/// the first empty poll. Gating on *time* rather than rounds keeps the load
/// path park-free: at µs-scale RPC gaps the waiter never parks (an unpark
/// syscall per wait would dominate the RTT), while a flow idle for longer
/// than this drops to a timed park and frees the core.
const PARK_AFTER: Duration = Duration::from_millis(1);
/// First park/sleep duration once the yield phase is exhausted.
const PARK_START: Duration = Duration::from_micros(20);
/// Park/sleep cap: a missed wakeup costs at most this much latency.
const PARK_MAX: Duration = Duration::from_micros(200);
/// Longest stand-by between two looks at a drive lease. The look interval
/// starts at [`PARK_AFTER`] and doubles each time the look finds the lease
/// renewed: the longer a queue has been host-driven, the rarer the timer
/// that interrupts its drivers.
const STANDBY_MAX: Duration = Duration::from_millis(8);

/// Wake latch and drive lease of one engine queue.
///
/// The queue's engine thread parks through [`EngineWaker::park`]; producers
/// (host TX-ring pushes, fabric delivery, control sends)
/// call [`EngineWaker::wake`]. The `parked` flag makes `wake` nearly free
/// when the thread is running (two atomic loads, no syscall). A wake that
/// races a park either lands the unpark token (the park returns
/// immediately) or is covered by the park timeout — work for a queue no
/// host thread drives is never unattended for more than [`PARK_MAX`].
///
/// Host threads that drive the queue themselves renew its lease with every
/// step ([`EngineWaker::renew_lease`]). While the lease is live `wake` is
/// skipped and the thread stands by ([`EngineWaker::standby`]), looking at
/// the lease ([`EngineWaker::take_lease`]) every [`PARK_AFTER`] to
/// [`STANDBY_MAX`]. A host that just stops stepping — reply taken, handler
/// entered — gives nothing back: it stops renewing, and the second look
/// after its last renewal finds the lease lapsed, so work pushed behind it
/// waits for the thread at most two look intervals (`2 × STANDBY_MAX`
/// behind a lease that had been renewed for long). A waiter whose back-off
/// escalates to sleeping does know it is leaving, and hands the queue back
/// at once ([`EngineWaker::hand_back`]).
#[derive(Debug, Default)]
pub struct EngineWaker {
    parked: AtomicBool,
    /// The drive lease: set by host-side steps, cleared by the engine
    /// thread's looks.
    host_driven: AtomicBool,
    thread: Mutex<Option<Thread>>,
    /// The queue's counter bank: `wakes_sent` / `wakes_skipped` land here.
    stats: Arc<QueueStats>,
}

impl EngineWaker {
    /// Creates a waker counting into a private bank; the engine thread must
    /// call [`EngineWaker::register_current`] before anyone parks through it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the waker of the engine queue whose bank is `stats`.
    pub fn for_queue(stats: Arc<QueueStats>) -> Self {
        EngineWaker {
            stats,
            ..Self::default()
        }
    }

    /// Records the calling thread as the park target.
    pub fn register_current(&self) {
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
    }

    /// Announces new work for the queue. Skipped while a host thread holds
    /// the drive lease; otherwise unparks the engine thread if it is parked
    /// (or about to park) and is cheap when it is running.
    pub fn wake(&self) {
        if self.host_driven.load(Ordering::SeqCst) {
            self.stats.wakes_skipped.inc();
            return;
        }
        if self.parked.load(Ordering::Acquire) && self.parked.swap(false, Ordering::AcqRel) {
            self.unpark();
            self.stats.wakes_sent.inc();
        }
    }

    /// Unparks the registered engine thread (or banks the token for its
    /// next park).
    fn unpark(&self) {
        if let Some(t) = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            t.unpark();
        }
    }

    /// Parks the calling thread for at most `dur` (woken early by
    /// [`EngineWaker::wake`]).
    pub fn park(&self, dur: Duration) {
        self.parked.store(true, Ordering::Release);
        std::thread::park_timeout(dur);
        self.parked.store(false, Ordering::Release);
    }

    /// The engine thread's stand-by while a host thread drives the queue: a
    /// timed park that does *not* raise the parked flag, so nobody pays an
    /// unpark syscall for a consumer that is already polling.
    pub fn standby(&self, dur: Duration) {
        std::thread::park_timeout(dur);
    }

    /// A host thread is about to step the queue.
    pub fn renew_lease(&self) {
        if !self.host_driven.load(Ordering::Relaxed) {
            self.host_driven.store(true, Ordering::SeqCst);
        }
    }

    /// Gives the queue back to its engine thread *now*: drops the lease and
    /// pulls the thread out of whatever park it is in, instead of leaving
    /// the queue unattended until the second look. For a waiting host that
    /// is going to sleep, and for shutdown (a thread left standing by would
    /// see the stop flag up to [`STANDBY_MAX`] late, and the idle gap made
    /// the next NIC's start-up measurably slower).
    pub fn hand_back(&self) {
        self.host_driven.store(false, Ordering::SeqCst);
        self.unpark();
    }

    /// The engine thread's look: `true` if a host thread stepped the queue
    /// since the previous look. Clears the lease, so it lapses unless a
    /// host step renews it before the next one.
    pub fn take_lease(&self) -> bool {
        self.host_driven.load(Ordering::Relaxed) && self.host_driven.swap(false, Ordering::SeqCst)
    }
}

/// Reusable backoff state for one wait site.
///
/// Call [`SpinWait::wait`] each time a poll comes up empty and
/// [`SpinWait::reset`] when it finds work. The same type drives both the
/// engine idle loop (paired with an [`EngineWaker`]) and host-side waits
/// (plain timed sleep).
#[derive(Debug, Default)]
pub struct SpinWait {
    rounds: u32,
    /// When the yield rounds ran out; the park phase opens only once
    /// [`PARK_AFTER`] has elapsed since this instant.
    idle_since: Option<Instant>,
}

impl SpinWait {
    /// Fresh backoff state.
    pub const fn new() -> Self {
        SpinWait {
            rounds: 0,
            idle_since: None,
        }
    }

    /// Forgets accumulated idleness; call when a poll found work.
    pub fn reset(&mut self) {
        self.rounds = 0;
        self.idle_since = None;
    }

    /// True once the backoff has escalated past spinning and yielding.
    pub fn is_parking(&self) -> bool {
        self.rounds > spin_rounds() + YIELD_ROUNDS
    }

    /// Doublings of the park/stand-by duration earned so far (0 at the
    /// first park after the yield phase).
    fn level(&self) -> u32 {
        self.rounds
            .saturating_sub(spin_rounds() + YIELD_ROUNDS + 1)
            .min(8)
    }

    /// Park/sleep duration for the current escalation level (doubles from
    /// [`PARK_START`] up to [`PARK_MAX`]).
    fn park_duration(&self) -> Duration {
        PARK_START.saturating_mul(1 << self.level()).min(PARK_MAX)
    }

    /// Stand-by duration for the current escalation level (doubles from
    /// [`PARK_AFTER`] up to [`STANDBY_MAX`]).
    fn standby_duration(&self) -> Duration {
        PARK_AFTER
            .saturating_mul(1 << self.level())
            .min(STANDBY_MAX)
    }

    /// One step of spin → yield → park, with `park` doing the sleeping.
    fn step(&mut self, park: impl FnOnce(&Self)) {
        let spin = spin_rounds();
        if self.rounds < spin {
            self.rounds += 1;
            std::hint::spin_loop();
            return;
        }
        if self.rounds < spin + YIELD_ROUNDS {
            self.rounds += 1;
            if self.rounds == spin + YIELD_ROUNDS {
                self.idle_since = Some(Instant::now());
            }
            std::thread::yield_now();
            return;
        }
        if self
            .idle_since
            .is_some_and(|since| since.elapsed() < PARK_AFTER)
        {
            // Hold in the yield phase until the wait has stayed idle for
            // PARK_AFTER past it — round counts alone misjudge idleness
            // (1024 yields pass in tens of µs when no other thread is
            // runnable).
            std::thread::yield_now();
            return;
        }
        self.rounds = self.rounds.saturating_add(1);
        park(self);
    }

    /// One backoff step for a host-side waiter (no waker; sleeps when past
    /// the yield phase).
    pub fn wait(&mut self) {
        self.step(|w| std::thread::sleep(w.park_duration()));
    }

    /// One backoff step for the engine: identical to [`SpinWait::wait`]
    /// except the park phase goes through `waker` so producers can cut the
    /// sleep short.
    pub fn wait_with(&mut self, waker: &EngineWaker) {
        self.step(|w| waker.park(w.park_duration()));
    }

    /// One backoff step for the engine thread while a host thread drives
    /// its queue: the same time gate — a lease that lives for microseconds
    /// (start-up, a lone call) costs yields, not a timed park — and past it
    /// the flag-less [`EngineWaker::standby`] instead of a wakeable park,
    /// longer with every look that finds the lease renewed.
    pub fn wait_standby(&mut self, waker: &EngineWaker) {
        self.step(|w| waker.standby(w.standby_duration()));
    }

    /// One backoff step that never escalates past yielding: for waiters
    /// that must keep ticking timers (retransmit deadlines, arbiter
    /// rotation, deferred sends) and therefore cannot afford a timed park,
    /// but should still be polite about the core. Shares the spin phase
    /// with [`SpinWait::wait`] so a single site can mix the two as its
    /// parking eligibility changes tick to tick.
    pub fn snooze(&mut self) {
        if self.rounds < spin_rounds() {
            self.rounds += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn backoff_escalates_and_resets() {
        let mut w = SpinWait::new();
        for _ in 0..(SPIN_ROUNDS + YIELD_ROUNDS) {
            w.wait();
        }
        assert!(!w.is_parking());
        // Exhausted rounds alone must NOT park: the time gate holds the
        // backoff in the yield phase until PARK_AFTER of continuous idle.
        w.idle_since = Some(Instant::now());
        w.wait();
        assert!(!w.is_parking(), "parked before the idle time gate opened");
        // Once the idle clock passes the gate, the next wait parks.
        w.idle_since = Some(Instant::now() - PARK_AFTER * 2);
        w.wait();
        assert!(w.is_parking());
        w.reset();
        assert!(!w.is_parking());
    }

    /// The spin and yield phases read no clock: the idle stamp the park
    /// gate measures from is taken when the yield rounds run out.
    #[test]
    fn the_idle_clock_starts_when_the_yield_rounds_run_out() {
        let mut w = SpinWait::new();
        for _ in 1..(spin_rounds() + YIELD_ROUNDS) {
            w.wait();
            assert!(w.idle_since.is_none(), "stamped inside the yield phase");
        }
        w.wait();
        assert!(w.idle_since.is_some(), "the last yield round stamps");
        assert!(!w.is_parking(), "the gate opens PARK_AFTER later");
    }

    #[test]
    fn park_duration_is_capped() {
        let mut w = SpinWait::new();
        w.rounds = u32::MAX - 1;
        w.idle_since = Some(Instant::now() - PARK_AFTER * 2);
        assert_eq!(w.park_duration(), PARK_MAX);
        w.wait(); // saturates instead of overflowing
        assert_eq!(w.rounds, u32::MAX);
    }

    #[test]
    fn standby_doubles_from_the_park_gate_to_its_cap() {
        let mut w = SpinWait::new();
        w.rounds = spin_rounds() + YIELD_ROUNDS + 1; // first park taken
        let mut looks = Vec::new();
        for _ in 0..6 {
            looks.push(w.standby_duration());
            w.rounds += 1;
        }
        assert_eq!(
            looks,
            [1, 2, 4, 8, 8, 8].map(|ms| PARK_AFTER * ms),
            "1 ms looks for a young lease, STANDBY_MAX for a long-lived one"
        );
        w.reset();
        assert_eq!(w.standby_duration(), PARK_AFTER);
    }

    #[test]
    fn snooze_never_parks() {
        let mut w = SpinWait::new();
        // Even with the backoff fully escalated and the idle gate long
        // open, a snooze step must stay in the spin/yield regime: rounds
        // never advance past the spin phase, so `is_parking` stays false
        // and no timed sleep delays the caller's timer ticks.
        w.rounds = u32::MAX - 1;
        w.idle_since = Some(Instant::now() - PARK_AFTER * 2);
        let start = Instant::now();
        for _ in 0..64 {
            w.snooze();
        }
        assert_eq!(w.rounds, u32::MAX - 1, "snooze must not escalate rounds");
        assert!(
            start.elapsed() < PARK_START * 64,
            "snooze slept like a park"
        );
        // A fresh snoozer walks the spin phase but stops there.
        let mut fresh = SpinWait::new();
        for _ in 0..(SPIN_ROUNDS + YIELD_ROUNDS + 64) {
            fresh.snooze();
        }
        assert!(!fresh.is_parking());
        assert!(fresh.rounds <= SPIN_ROUNDS);
    }

    #[test]
    fn wake_cuts_park_short() {
        let waker = Arc::new(EngineWaker::new());
        let w2 = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            w2.register_current();
            let start = Instant::now();
            w2.park(Duration::from_secs(5));
            start.elapsed()
        });
        // Wait until the parker has registered and flagged itself.
        while !waker.parked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        waker.wake();
        let elapsed = handle.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "wake must cut the park short (took {elapsed:?})"
        );
    }

    #[test]
    fn wakes_are_skipped_under_a_live_lease_and_counted_by_outcome() {
        let stats = Arc::new(QueueStats::default());
        let waker = Arc::new(EngineWaker::for_queue(Arc::clone(&stats)));
        // No lease, nobody parked: a wake is neither sent nor skipped.
        waker.wake();
        assert_eq!(
            stats.snapshot().wakes_sent + stats.snapshot().wakes_skipped,
            0
        );
        // A host step takes the lease: wakes are skipped until the engine
        // thread's look clears it, and a second look finds it lapsed.
        waker.renew_lease();
        waker.wake();
        waker.wake();
        assert_eq!(stats.snapshot().wakes_skipped, 2);
        assert!(waker.take_lease(), "first look sees the renewal");
        assert!(!waker.take_lease(), "second look finds the lease lapsed");
        // Lapsed lease, parked thread: the wake is sent.
        let w2 = Arc::clone(&waker);
        let parker = std::thread::spawn(move || {
            w2.register_current();
            w2.park(Duration::from_secs(5));
        });
        while !waker.parked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        waker.wake();
        parker.join().unwrap();
        assert_eq!(stats.snapshot().wakes_sent, 1);
        // A waiter going to sleep hands a live lease back at once.
        waker.renew_lease();
        waker.hand_back();
        assert!(!waker.take_lease());
    }

    #[test]
    fn wake_without_parker_is_noop() {
        let waker = EngineWaker::new();
        waker.wake(); // no registered thread, no parked flag: must not panic
        assert!(!waker.parked.load(Ordering::Acquire));
    }
}
