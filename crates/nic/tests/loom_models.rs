//! Exhaustive-interleaving model checks for the engine's lock-free
//! primitives, in the style of `loom` (which is not vendored): run with
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p dagger-nic --test loom_models
//! ```
//!
//! Each test re-expresses one protocol from the NIC crate — the SPSC ring's
//! validity-flag handshake (`ring.rs`), `BufPool` get/put with shared atomic
//! stats (`bufpool.rs`), the `EngineWaker` park/unpark token dance
//! (`wait.rs`), and the drive lease that decides whether a host thread or
//! the engine thread steps a queue (`drive.rs`) — as a small state machine
//! whose transitions are exactly the protocol's atomic operations. A DFS explorer then enumerates **every**
//! thread interleaving (under sequential consistency; the real code's
//! acquire/release pairs are at least that strong on the paths modelled
//! here), checking an invariant after every step and an acceptance predicate
//! at every terminal state. Blocked threads (a step that would neither move
//! its pc nor change shared state, i.e. a spin retry) are pruned; if every
//! live thread is blocked, the explorer reports a deadlock.
//!
//! The models are deliberately tiny (2-slot rings, 4 items, 2 rounds) so the
//! reachable state space is in the hundreds of nodes and the check is
//! exhaustive, not sampled. `checker_has_teeth` proves the harness can
//! actually fail by seeding the classic flag-before-write ring bug.
#![cfg(loom)]

use std::collections::HashSet;
use std::hash::Hash;

/// One thread of a model: given the shared state and the thread's program
/// counter, perform exactly one atomic step and return the next pc
/// (`None` = thread finished). A step that returns its own pc *without
/// changing the state* is interpreted as a blocked spin-retry.
type StepFn<S> = fn(&mut S, u32) -> Option<u32>;

struct Explored {
    /// Distinct `(state, pcs)` nodes visited.
    nodes: u64,
    /// Terminal nodes (all threads finished) reached.
    terminals: u64,
}

/// Depth-first exploration of every interleaving of `threads` from
/// `initial`, deduplicating on `(state, pcs)`. Panics (via the supplied
/// checks) on any invariant violation, acceptance failure, or deadlock.
fn explore<S>(initial: S, threads: &[StepFn<S>], invariant: fn(&S), accept: fn(&S)) -> Explored
where
    S: Clone + Eq + Hash + std::fmt::Debug,
{
    let start_pcs: Vec<Option<u32>> = vec![Some(0); threads.len()];
    let mut visited: HashSet<(S, Vec<Option<u32>>)> = HashSet::new();
    let mut stack = vec![(initial, start_pcs)];
    let mut out = Explored {
        nodes: 0,
        terminals: 0,
    };
    while let Some((state, pcs)) = stack.pop() {
        if !visited.insert((state.clone(), pcs.clone())) {
            continue;
        }
        out.nodes += 1;
        if pcs.iter().all(Option::is_none) {
            accept(&state);
            out.terminals += 1;
            continue;
        }
        let mut progressed = false;
        for (i, pc) in pcs.iter().enumerate() {
            let Some(pc) = *pc else { continue };
            let mut next = state.clone();
            let next_pc = threads[i](&mut next, pc);
            if next_pc == Some(pc) && next == state {
                continue; // spin retry: identical node, reschedule later
            }
            progressed = true;
            invariant(&next);
            let mut next_pcs = pcs.clone();
            next_pcs[i] = next_pc;
            stack.push((next, next_pcs));
        }
        assert!(
            progressed,
            "deadlock: every live thread is blocked at pcs={pcs:?} state={state:?}"
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Model 1: the SPSC ring validity-flag protocol (`ring.rs`).
// ---------------------------------------------------------------------------

/// Ring capacity under model; small so the state space stays exhaustive.
const RING_CAP: usize = 2;
/// Items transferred end to end (forces multiple wraparounds at CAP=2).
const RING_ITEMS: u8 = 4;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RingState {
    valid: [bool; RING_CAP],
    slot: [u8; RING_CAP],
    prod_idx: usize,
    cons_idx: usize,
    /// Next value the producer writes (1-based so 0 = "never written").
    next: u8,
    /// Consumer's read-out register between its load and flag-clear steps.
    tmp: u8,
    popped: Vec<u8>,
}

fn ring_initial() -> RingState {
    RingState {
        valid: [false; RING_CAP],
        slot: [0; RING_CAP],
        prod_idx: 0,
        cons_idx: 0,
        next: 1,
        tmp: 0,
        popped: Vec::new(),
    }
}

/// `RingProducer::try_push` in three atomic steps: load `valid` (full ⇒
/// spin), write the payload cell, then publish with the flag store.
fn ring_producer(s: &mut RingState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            if s.valid[s.prod_idx % RING_CAP] {
                Some(0) // ring full: retry (blocked until the consumer clears)
            } else {
                Some(1)
            }
        }
        1 => {
            s.slot[s.prod_idx % RING_CAP] = s.next;
            Some(2)
        }
        _ => {
            s.valid[s.prod_idx % RING_CAP] = true;
            s.prod_idx += 1;
            s.next += 1;
            if s.next > RING_ITEMS {
                None
            } else {
                Some(0)
            }
        }
    }
}

/// `RingConsumer::try_pop` in three atomic steps: load `valid` (empty ⇒
/// spin), read the payload cell, then release the slot with the flag clear.
fn ring_consumer(s: &mut RingState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            if s.valid[s.cons_idx % RING_CAP] {
                Some(1)
            } else {
                Some(0) // empty: retry
            }
        }
        1 => {
            s.tmp = s.slot[s.cons_idx % RING_CAP];
            Some(2)
        }
        _ => {
            s.valid[s.cons_idx % RING_CAP] = false;
            s.cons_idx += 1;
            let v = s.tmp;
            s.tmp = 0;
            s.popped.push(v);
            if s.popped.len() == usize::from(RING_ITEMS) {
                None
            } else {
                Some(0)
            }
        }
    }
}

fn ring_invariant(s: &RingState) {
    for (i, &v) in s.popped.iter().enumerate() {
        assert!(
            usize::from(v) == i + 1,
            "invariant violated: consumer observed {:?}, expected 1..=n in order",
            s.popped
        );
    }
}

fn ring_accept(s: &RingState) {
    assert!(
        s.popped.len() == usize::from(RING_ITEMS),
        "invariant violated: terminal state lost items: {:?}",
        s.popped
    );
}

#[test]
fn spsc_ring_push_pop_is_fifo_and_lossless_under_all_interleavings() {
    let stats = explore(
        ring_initial(),
        &[ring_producer, ring_consumer],
        ring_invariant,
        ring_accept,
    );
    assert!(stats.terminals >= 1);
    // A degenerate exploration (one schedule) would mean the pruning is
    // broken and the "exhaustive" claim hollow.
    assert!(stats.nodes > 50, "explored only {} nodes", stats.nodes);
}

/// The classic torn-read bug: publish the validity flag *before* writing the
/// payload. The checker must find the interleaving where the consumer reads
/// the stale cell.
fn buggy_ring_producer(s: &mut RingState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            if s.valid[s.prod_idx % RING_CAP] {
                Some(0)
            } else {
                Some(1)
            }
        }
        1 => {
            s.valid[s.prod_idx % RING_CAP] = true; // flag first: BUG
            Some(2)
        }
        _ => {
            s.slot[s.prod_idx % RING_CAP] = s.next;
            s.prod_idx += 1;
            s.next += 1;
            if s.next > RING_ITEMS {
                None
            } else {
                Some(0)
            }
        }
    }
}

#[test]
#[should_panic(expected = "invariant violated")]
fn checker_has_teeth() {
    explore(
        ring_initial(),
        &[buggy_ring_producer, ring_consumer],
        ring_invariant,
        ring_accept,
    );
}

// ---------------------------------------------------------------------------
// Model 2: BufPool get/put with shared atomic stats (`bufpool.rs`).
// ---------------------------------------------------------------------------

/// Free-list retention cap per pool (matches `BufPool::with_capacity(1)`).
const POOL_CAP: usize = 1;
/// get→put rounds per engine worker.
const POOL_ROUNDS: u8 = 2;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PoolState {
    /// Per-worker free lists of buffer ids (pools are engine-private).
    free: [Vec<u8>; 2],
    /// Buffer currently held by each worker between its get and put.
    held: [Option<u8>; 2],
    next_id: u8,
    rounds: [u8; 2],
    /// The shared `BufPoolStats` atomics, one RMW per step.
    gets: u8,
    hits: u8,
    misses: u8,
    recycled: u8,
}

fn pool_initial() -> PoolState {
    PoolState {
        free: [Vec::new(), Vec::new()],
        held: [None, None],
        next_id: 0,
        rounds: [0, 0],
        gets: 0,
        hits: 0,
        misses: 0,
        recycled: 0,
    }
}

/// One worker's get→use→put loop, with every shared-counter `fetch_add`
/// its own atomic step so increments from the two workers interleave.
fn pool_worker(s: &mut PoolState, pc: u32, me: usize) -> Option<u32> {
    match pc {
        // get: pop the private free list.
        0 => {
            s.gets += 1;
            if let Some(id) = s.free[me].pop() {
                s.held[me] = Some(id);
                Some(1) // hit path
            } else {
                Some(2) // miss path
            }
        }
        1 => {
            s.hits += 1;
            Some(4)
        }
        2 => {
            s.misses += 1;
            Some(3)
        }
        // miss: a fresh heap allocation gets a new unique id.
        3 => {
            s.held[me] = Some(s.next_id);
            s.next_id += 1;
            Some(4)
        }
        // put: drop when over cap, else count the recycle and push back.
        4 => {
            if s.free[me].len() >= POOL_CAP {
                s.held[me] = None;
                Some(6)
            } else {
                Some(5)
            }
        }
        5 => {
            s.recycled += 1;
            let id = s.held[me].take().expect("put without a held buffer");
            s.free[me].push(id);
            Some(6)
        }
        _ => {
            s.rounds[me] += 1;
            if s.rounds[me] == POOL_ROUNDS {
                None
            } else {
                Some(0)
            }
        }
    }
}

fn pool_worker_a(s: &mut PoolState, pc: u32) -> Option<u32> {
    pool_worker(s, pc, 0)
}

fn pool_worker_b(s: &mut PoolState, pc: u32) -> Option<u32> {
    pool_worker(s, pc, 1)
}

fn pool_invariant(s: &PoolState) {
    // No buffer may ever be reachable twice (double hand-out / aliasing).
    let mut seen = HashSet::new();
    for id in s.free[0]
        .iter()
        .chain(s.free[1].iter())
        .chain(s.held.iter().flatten())
    {
        assert!(
            seen.insert(*id),
            "invariant violated: buffer {id} aliased in {s:?}"
        );
    }
    assert!(
        s.free[0].len() <= POOL_CAP && s.free[1].len() <= POOL_CAP,
        "invariant violated: free list over capacity in {s:?}"
    );
}

fn pool_accept(s: &PoolState) {
    // Conservation: every get was classified exactly once, no increment was
    // lost to the interleaving of the shared counters.
    assert!(
        s.hits + s.misses == s.gets,
        "invariant violated: hits {} + misses {} != gets {}",
        s.hits,
        s.misses,
        s.gets
    );
    assert!(
        s.misses == s.next_id,
        "invariant violated: misses {} != fresh allocations {}",
        s.misses,
        s.next_id
    );
    // `recycled` is cumulative; each hit re-takes one pooled buffer, so the
    // buffers still resident must be exactly the recycles not yet re-taken.
    assert!(
        usize::from(s.recycled - s.hits) == s.free[0].len() + s.free[1].len(),
        "invariant violated: recycled {} − hits {} != {} pooled",
        s.recycled,
        s.hits,
        s.free[0].len() + s.free[1].len()
    );
}

#[test]
fn bufpool_get_put_conserves_buffers_and_stats_under_all_interleavings() {
    let stats = explore(
        pool_initial(),
        &[pool_worker_a, pool_worker_b],
        pool_invariant,
        pool_accept,
    );
    assert!(stats.terminals >= 1);
    assert!(stats.nodes > 50, "explored only {} nodes", stats.nodes);
}

// ---------------------------------------------------------------------------
// Model 3: EngineWaker park/unpark (`wait.rs`).
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct WakerState {
    /// Work published by the producer, consumed by the engine.
    work: bool,
    consumed: u8,
    /// `EngineWaker::parked` (AtomicBool).
    parked: bool,
    /// The OS unpark token (`Thread::unpark` on a not-yet-parked thread).
    token: bool,
    /// Engine is inside `park_timeout`.
    asleep: bool,
}

fn waker_initial() -> WakerState {
    WakerState {
        work: false,
        consumed: 0,
        parked: false,
        token: false,
        asleep: false,
    }
}

/// Producer: publish work, then `EngineWaker::wake` — an AcqRel swap of
/// `parked`, and an unpark only when the swap observed `true`.
fn waker_producer(s: &mut WakerState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            s.work = true;
            Some(1)
        }
        1 => {
            let was = s.parked;
            s.parked = false;
            if was {
                Some(2)
            } else {
                None // engine not parked: wake is a no-op beyond the swap
            }
        }
        _ => {
            // `Thread::unpark`: wake the sleeper, or bank the token.
            if s.asleep {
                s.asleep = false;
            } else {
                s.token = true;
            }
            None
        }
    }
}

/// Engine idle loop: poll for work, then `park(dur)` = set `parked`, enter
/// `park_timeout` (returns on a banked token, an unpark, or the timeout),
/// clear `parked`, re-poll. The timed park is modelled as a step the
/// sleeping engine may always take — that is exactly the role the timeout
/// plays in the real protocol: a wake that races the flag store costs at
/// most one park period, never a hang.
fn waker_engine(s: &mut WakerState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            if s.work {
                s.work = false;
                s.consumed += 1;
                None
            } else {
                Some(1)
            }
        }
        1 => {
            s.parked = true;
            Some(2)
        }
        2 => {
            if s.token {
                s.token = false; // banked unpark: park returns immediately
                Some(4)
            } else {
                s.asleep = true;
                Some(3)
            }
        }
        3 => {
            // Wake by unpark (asleep already false) or by timeout.
            if s.asleep {
                s.asleep = false;
            }
            Some(4)
        }
        _ => {
            s.parked = false;
            Some(0)
        }
    }
}

fn waker_invariant(s: &WakerState) {
    assert!(
        s.consumed <= 1,
        "invariant violated: work consumed twice in {s:?}"
    );
}

fn waker_accept(s: &WakerState) {
    // Every schedule must end with the work consumed: no interleaving of
    // publish/wake against poll/park may strand the engine asleep with work
    // pending (the lost-wakeup bug this protocol exists to prevent).
    assert!(
        s.consumed == 1 && !s.work,
        "invariant violated: terminal state lost the wakeup: {s:?}"
    );
    assert!(
        !s.asleep,
        "invariant violated: engine finished while asleep: {s:?}"
    );
}

#[test]
fn engine_waker_never_loses_a_wakeup_under_all_interleavings() {
    let stats = explore(
        waker_initial(),
        &[waker_producer, waker_engine],
        waker_invariant,
        waker_accept,
    );
    assert!(stats.terminals >= 1);
    assert!(stats.nodes > 20, "explored only {} nodes", stats.nodes);
}

// ---------------------------------------------------------------------------
// Model 4: batched ring rounds with a single doorbell per batch
// (`ring.rs::try_push_batch` / `try_pop_batch` + `wait.rs`).
// ---------------------------------------------------------------------------
//
// `try_push_batch` publishes each slot with the same write-then-flag
// protocol as a single push, but rings the consumer's doorbell **once per
// batch** instead of once per element; `try_pop_batch` drains several
// published slots in one call. This model composes the ring protocol with
// the park/unpark protocol to check the elided per-element wakes can never
// strand items: the producer pushes BATCH-sized runs (partial on a full
// ring) with one wake at the end of each run, while the consumer pops
// until empty and parks. The timed park is again modelled as an
// always-available self-wake step, exactly the backstop role the timeout
// plays in the real engine loop.

/// Items per producer batch (one doorbell per batch).
const BATCHED_RUN: u8 = 2;
/// Total items pushed end to end (two full batches over the 2-slot ring).
const BATCHED_ITEMS: u8 = 4;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct BatchedState {
    valid: [bool; RING_CAP],
    slot: [u8; RING_CAP],
    prod_idx: usize,
    cons_idx: usize,
    next: u8,
    tmp: u8,
    popped: Vec<u8>,
    parked: bool,
    token: bool,
    asleep: bool,
}

fn batched_initial() -> BatchedState {
    BatchedState {
        valid: [false; RING_CAP],
        slot: [0; RING_CAP],
        prod_idx: 0,
        cons_idx: 0,
        next: 1,
        tmp: 0,
        popped: Vec::new(),
        parked: false,
        token: false,
        asleep: false,
    }
}

/// `try_push_batch(&[a, b])` as atomic steps: per element the usual
/// full-check / payload-write / flag-publish triple, a partial batch when
/// the ring fills after the first element, then exactly one doorbell
/// (`EngineWaker::wake`) for whatever the batch landed.
fn batched_producer(s: &mut BatchedState, pc: u32) -> Option<u32> {
    match pc {
        // First element's gate: an empty batch pushes nothing and rings no
        // doorbell, so a full ring here is a plain spin retry.
        0 => {
            if s.valid[s.prod_idx % RING_CAP] {
                Some(0)
            } else {
                Some(1)
            }
        }
        1 => {
            s.slot[s.prod_idx % RING_CAP] = s.next;
            Some(2)
        }
        2 => {
            s.valid[s.prod_idx % RING_CAP] = true;
            s.prod_idx += 1;
            s.next += 1;
            if s.next > BATCHED_ITEMS {
                Some(6) // nothing left: close the batch with its doorbell
            } else {
                Some(3)
            }
        }
        // Second element's gate: full now means a *partial* batch — stop
        // early and ring the doorbell for the element already published.
        3 => {
            if s.valid[s.prod_idx % RING_CAP] {
                Some(6)
            } else {
                Some(4)
            }
        }
        4 => {
            s.slot[s.prod_idx % RING_CAP] = s.next;
            Some(5)
        }
        5 => {
            s.valid[s.prod_idx % RING_CAP] = true;
            s.prod_idx += 1;
            s.next += 1;
            debug_assert!(BATCHED_RUN == 2, "model hardcodes two-element runs");
            Some(6)
        }
        // The batch's single doorbell: AcqRel swap of `parked`, unpark
        // only when the swap observed a parked engine.
        6 => {
            let was = s.parked;
            s.parked = false;
            if was {
                Some(7)
            } else if s.next > BATCHED_ITEMS {
                None
            } else {
                Some(0)
            }
        }
        _ => {
            if s.asleep {
                s.asleep = false;
            } else {
                s.token = true;
            }
            if s.next > BATCHED_ITEMS {
                None
            } else {
                Some(0)
            }
        }
    }
}

/// The engine's batched RX side: `try_pop_batch` drains published slots
/// one protocol-triple at a time until the ring reads empty, then the
/// idle loop parks (token check, sleep, timeout-or-unpark, unpark-flag
/// clear) and re-polls.
fn batched_consumer(s: &mut BatchedState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            if s.valid[s.cons_idx % RING_CAP] {
                Some(1)
            } else {
                Some(3) // batch drained: park until the next doorbell
            }
        }
        1 => {
            s.tmp = s.slot[s.cons_idx % RING_CAP];
            Some(2)
        }
        2 => {
            s.valid[s.cons_idx % RING_CAP] = false;
            s.cons_idx += 1;
            let v = s.tmp;
            s.tmp = 0;
            s.popped.push(v);
            if s.popped.len() == usize::from(BATCHED_ITEMS) {
                None
            } else {
                Some(0)
            }
        }
        3 => {
            s.parked = true;
            Some(4)
        }
        4 => {
            if s.token {
                s.token = false;
                Some(6)
            } else {
                s.asleep = true;
                Some(5)
            }
        }
        5 => {
            // Woken by unpark (asleep already cleared) or by the timeout.
            if s.asleep {
                s.asleep = false;
            }
            Some(6)
        }
        _ => {
            s.parked = false;
            Some(0)
        }
    }
}

fn batched_invariant(s: &BatchedState) {
    for (i, &v) in s.popped.iter().enumerate() {
        assert!(
            usize::from(v) == i + 1,
            "invariant violated: batched consumer observed {:?}, expected 1..=n in order",
            s.popped
        );
    }
}

fn batched_accept(s: &BatchedState) {
    assert!(
        s.popped.len() == usize::from(BATCHED_ITEMS),
        "invariant violated: terminal state lost items: {:?}",
        s.popped
    );
    assert!(
        s.valid.iter().all(|v| !v),
        "invariant violated: items still published after both sides finished: {s:?}"
    );
    assert!(
        !s.asleep,
        "invariant violated: engine finished while asleep: {s:?}"
    );
}

#[test]
fn batched_ring_rounds_with_one_doorbell_per_batch_are_fifo_and_lossless() {
    let stats = explore(
        batched_initial(),
        &[batched_producer, batched_consumer],
        batched_invariant,
        batched_accept,
    );
    assert!(stats.terminals >= 1);
    assert!(stats.nodes > 100, "explored only {} nodes", stats.nodes);
}

// ---------------------------------------------------------------------------
// Model 5: who drives the engine — slot try-lock × drive lease × stand-by
// park × producer wake (`drive.rs` + `wait.rs`).
// ---------------------------------------------------------------------------
//
// A host thread waiting on a flow steps the flow's engine queue itself:
// `renew_lease`, `try_lock` the slot, `step`, unlock — a bounded number of
// times, after which it walks away without telling anyone (reply taken,
// handler entered). A producer publishes one frame and calls
// `EngineWaker::wake`, which is *skipped* while the lease is set. The
// queue's engine thread loops: look at the lease (`take_lease` clears it);
// if it was set, stand by (a timed park that raises no flag); otherwise
// `try_lock`, `step`, and flag-park when nothing moved. Both parks are
// timed, so — as in model 3 — a sleeping thread may always take its
// timeout step; what the model checks is how often it has to:
//
// * `step()` is mutually exclusive (the try-lock is the only way in);
// * the frame is consumed exactly once on every schedule;
// * once the host has walked away, a frame it left behind waits for at
//   most **two** park timeouts of the thread — one look clears the stale
//   lease, the next finds it lapsed (the two-look bound of
//   `wait.rs`), whatever the thread was doing when the host left.
//
// The seeded twin is a look that reads the lease without clearing it: the
// thread then stands by behind a host that is gone for good.

/// Steps the host takes before it walks away.
const LEASE_HOST_ROUNDS: u8 = 2;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct LeaseState {
    /// A frame sits in the queue (pushed, not yet consumed by a step).
    frame: bool,
    consumed: u8,
    /// `EngineWaker::host_driven`.
    lease: bool,
    /// `EngineWaker::parked`.
    parked: bool,
    token: bool,
    /// Engine thread inside its flag-raising `park_timeout`.
    asleep: bool,
    /// The slot's try-lock.
    locked: bool,
    /// Threads currently inside `step()`.
    in_step: u8,
    /// The stepping thread's result register between step and unlock.
    moved: bool,
    host_rounds: u8,
    host_gone: bool,
    producer_done: bool,
    /// Park timeouts the thread sat through with the frame pending, the
    /// host gone and no wake on its way.
    waited: u8,
}

fn lease_initial() -> LeaseState {
    LeaseState {
        frame: false,
        consumed: 0,
        lease: false,
        parked: false,
        token: false,
        asleep: false,
        locked: false,
        in_step: 0,
        moved: false,
        host_rounds: 0,
        host_gone: false,
        producer_done: false,
        waited: 0,
    }
}

/// Producer: publish the frame, then `EngineWaker::wake` — skipped under a
/// live lease, otherwise the flag swap and (if it was up) the unpark.
fn lease_producer(s: &mut LeaseState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            s.frame = true;
            Some(1)
        }
        1 => {
            if s.lease {
                s.producer_done = true;
                return None; // skipped: the consumer is polling
            }
            let was = s.parked;
            s.parked = false;
            if was {
                Some(2)
            } else {
                s.producer_done = true;
                None
            }
        }
        _ => {
            if s.asleep {
                s.asleep = false;
            } else {
                s.token = true;
            }
            s.producer_done = true;
            None
        }
    }
}

/// `step()` under the slot: consume the frame if there is one.
fn lease_step(s: &mut LeaseState) {
    s.moved = s.frame;
    if s.frame {
        s.frame = false;
        s.consumed += 1;
    }
}

/// Host: `HostWait::idle` a bounded number of times — renew the lease,
/// try the slot, step, release — then walk away.
fn lease_host(s: &mut LeaseState, pc: u32) -> Option<u32> {
    match pc {
        0 => {
            s.lease = true;
            Some(1)
        }
        1 => {
            if s.locked {
                Some(4) // slot taken: back off, never block
            } else {
                s.locked = true;
                s.in_step += 1;
                Some(2)
            }
        }
        2 => {
            lease_step(s);
            Some(3)
        }
        3 => {
            s.in_step -= 1;
            s.locked = false;
            Some(4)
        }
        _ => {
            s.host_rounds += 1;
            if s.host_rounds < LEASE_HOST_ROUNDS {
                Some(0)
            } else {
                s.host_gone = true;
                None
            }
        }
    }
}

/// One park timeout of the thread: counts against the bound when nobody
/// else is going to attend the frame.
fn lease_timeout(s: &mut LeaseState) {
    if s.frame && s.host_gone && s.producer_done {
        s.waited += 1;
    }
}

/// Engine thread (`EngineSlot::run`); `clearing` is the real look, `false`
/// the seeded bug.
fn lease_engine_with(s: &mut LeaseState, pc: u32, clearing: bool) -> Option<u32> {
    match pc {
        // The look. Done once the frame has been consumed by anyone.
        0 => {
            if s.consumed == 1 && s.producer_done {
                return None;
            }
            if s.lease {
                if clearing {
                    s.lease = false;
                }
                Some(1)
            } else {
                Some(2)
            }
        }
        // Stand-by: a timed park without the flag.
        1 => {
            lease_timeout(s);
            Some(0)
        }
        2 => {
            if s.locked {
                Some(0) // a host holds the slot this instant: snooze
            } else {
                s.locked = true;
                s.in_step += 1;
                Some(3)
            }
        }
        3 => {
            lease_step(s);
            Some(4)
        }
        4 => {
            s.in_step -= 1;
            s.locked = false;
            if s.moved {
                Some(0)
            } else {
                Some(5)
            }
        }
        // `EngineWaker::park`: flag up, park, flag down.
        5 => {
            s.parked = true;
            Some(6)
        }
        6 => {
            if s.token {
                s.token = false;
                Some(8)
            } else {
                s.asleep = true;
                Some(7)
            }
        }
        7 => {
            // Woken by unpark (asleep already cleared) or by the timeout.
            if s.asleep {
                s.asleep = false;
                lease_timeout(s);
            }
            Some(8)
        }
        _ => {
            s.parked = false;
            Some(0)
        }
    }
}

fn lease_engine(s: &mut LeaseState, pc: u32) -> Option<u32> {
    lease_engine_with(s, pc, true)
}

fn lease_engine_never_clearing(s: &mut LeaseState, pc: u32) -> Option<u32> {
    lease_engine_with(s, pc, false)
}

fn lease_invariant(s: &LeaseState) {
    assert!(
        s.in_step <= 1,
        "invariant violated: two drivers inside step() at once: {s:?}"
    );
    assert!(
        s.consumed <= 1,
        "invariant violated: frame consumed twice: {s:?}"
    );
    assert!(
        s.waited <= 2,
        "invariant violated: frame left behind a departed host sat through {} park timeouts: {s:?}",
        s.waited
    );
}

fn lease_accept(s: &LeaseState) {
    assert!(
        s.consumed == 1 && !s.frame,
        "invariant violated: terminal state stranded the frame: {s:?}"
    );
    assert!(
        !s.locked && s.in_step == 0 && !s.asleep,
        "invariant violated: terminal state holds the slot or sleeps: {s:?}"
    );
}

#[test]
fn drive_lease_hands_the_queue_back_within_two_looks_under_all_interleavings() {
    let stats = explore(
        lease_initial(),
        &[lease_producer, lease_host, lease_engine],
        lease_invariant,
        lease_accept,
    );
    assert!(stats.terminals >= 1);
    assert!(stats.nodes > 200, "explored only {} nodes", stats.nodes);
}

#[test]
#[should_panic(expected = "invariant violated")]
fn drive_lease_checker_has_teeth() {
    explore(
        lease_initial(),
        &[lease_producer, lease_host, lease_engine_never_clearing],
        lease_invariant,
        lease_accept,
    );
}
