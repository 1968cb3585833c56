//! Deterministic discrete-event scheduler for whole-system simulation.
//!
//! The scoped-thread concurrency of PR 4 is honest but caps experiments
//! at dozens of in-flight episodes: every concurrent message needs an OS
//! thread, and timing-sensitive scenarios lean on wall-clock sleeps. This
//! module supplies the GridSim-style substrate from ROADMAP item 2: a
//! single event queue ordered by `(sim_time, seq)` where message latency,
//! fault-plan firings, daemon ticks, and backoff sleeps are all *events*
//! — latency becomes event reordering, not sleeping — so thousands of
//! concurrent placement episodes run in milliseconds of real time.
//!
//! # Execution model
//!
//! A [`SimHandle`] owns the queue. Work comes in two shapes:
//!
//! * **Run events** ([`SimHandle::schedule_at`] / [`SimHandle::schedule_in`])
//!   — plain closures executed on the control thread at their due time.
//!   Daemon ticks, watchdog patrols and fault firings are Run events.
//! * **Tasks** ([`SimHandle::spawn`]) — actor-style logical threads in
//!   the datacake clock-actor idiom: one task owns its state, runs
//!   straight-line code, and parks in [`SimHandle::sleep`], which turns
//!   the wait into a scheduled wake event. A placement episode (schedule
//!   → reserve → backoff → enact) is one task.
//!
//! A task needs a stack of its own, because it may park deep inside a
//! call chain (a wire wait in `Fabric::link_between`, under Enactor and
//! Host calls). Tasks therefore run on **carrier** OS threads, pooled
//! per [`SimHandle::run`]: a carrier is taken from an idle list, or
//! started, only when a task's first wake fires, and rejoins the list
//! when its task returns. A run needs as many carriers as it has tasks
//! started and not yet returned at one instant, not one per task.
//!
//! The scheduler enforces a **baton discipline**: at most one logical
//! task (or the control thread) executes at any instant, and whoever
//! holds the baton pops the earliest event and advances the shared
//! [`VirtualClock`] to its time. A task giving up the baton (in `sleep`
//! or by returning) dispatches in place: its own wake next means it
//! just carries on, with no thread switch; another task's wake passes
//! the baton straight to that task's carrier. Only a Run event, an empty
//! queue or a failure hands it back to the control thread, which runs
//! Run closures inline. Concurrency is therefore entirely *simulated* —
//! interleavings are decided by the event queue, never by the OS —
//! which is what makes runs bit-identical from one seed.
//!
//! # Determinism contract
//!
//! Two runs of the same scenario from the same seed produce the same
//! event schedule, the same trace export, and the same ledger, byte for
//! byte, provided the scenario (a) draws randomness only from
//! [`crate::DetRng`] streams, (b) schedules the same events in the same
//! order, and (c) rebases the global LOID counter through
//! `Loid::replay_guard` when exact identifier strings matter. Ties at
//! one instant fire in scheduling order (the `seq` tie-break).
//!
//! # Replay on failure
//!
//! Every executed event is appended to a schedule log that keeps the
//! last [`LOG_CAPACITY`] records and a digest of all of them, so a long
//! run's memory does not grow with the events it has executed. A panic
//! inside a task or Run closure aborts the run and [`SimHandle::run`]
//! returns a [`SimError`] carrying the formatted tail of that log — a
//! failing seed reprints its event schedule, so the interleaving that
//! broke is right in the test output. See `docs/simulation.md`.

use crate::clock::VirtualClock;
use legion_core::hash::KeyedTag;
use legion_core::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Identifies a spawned task within one scheduler.
type TaskId = u64;

/// Index of a carrier thread in one run's pool.
type CarrierId = usize;

/// Stack of one carrier thread: deep enough for a placement episode
/// parked inside a wire wait under Enactor and Host calls.
const CARRIER_STACK: usize = 512 * 1024;

thread_local! {
    /// `(core address, task id)` of the sim task carried by this thread,
    /// if any. The core address keeps two coexisting schedulers from
    /// mistaking each other's tasks for their own.
    static CURRENT_TASK: Cell<Option<(usize, TaskId)>> = const { Cell::new(None) };
}

/// Panic payload used to unwind parked tasks during shutdown; carriers
/// recognise it and retire quietly instead of reporting a failure.
struct SimShutdown;

/// A task's closure, held in its slot until its first wake.
type TaskBody = Box<dyn FnOnce(&SimHandle) + Send>;

/// An entry in the event queue.
enum SimEvent {
    /// Hand the baton to a parked (or not-yet-started) task.
    Wake(TaskId),
    /// Execute a closure on the control thread.
    Run { label: String, f: Box<dyn FnOnce(&SimHandle) + Send> },
}

/// Records the schedule log keeps: the failure tail prints 40 of them.
const LOG_CAPACITY: usize = 1024;

/// What an executed event was: a task's wake, or a Run closure.
enum EventLabel {
    /// The woken task's label, shared with its slot.
    Wake(Arc<str>),
    /// The closure's label, moved out of its queue entry.
    Run(String),
}

impl EventLabel {
    /// The printed kind (`wake:` for a wake, nothing for a Run) and label.
    fn parts(&self) -> (&'static str, &str) {
        match self {
            EventLabel::Wake(label) => ("wake:", label),
            EventLabel::Run(label) => ("", label),
        }
    }
}

/// One line of the replayable schedule log, formatted only when printed.
struct EventRecord {
    seq: u64,
    at: SimTime,
    label: EventLabel,
}

/// The executed schedule: its last [`LOG_CAPACITY`] records, how many
/// were ever logged, and a digest over every one.
struct ScheduleLog {
    tail: VecDeque<EventRecord>,
    logged: u64,
    digest: KeyedTag,
}

impl ScheduleLog {
    fn new() -> Self {
        ScheduleLog { tail: VecDeque::new(), logged: 0, digest: KeyedTag::new(0) }
    }

    fn push(&mut self, rec: EventRecord) {
        let (kind, label) = rec.label.parts();
        self.digest.write_u64(rec.seq).write_u64(rec.at.as_micros());
        self.digest.write_bytes(kind.as_bytes()).write_bytes(label.as_bytes());
        if self.tail.len() == LOG_CAPACITY {
            self.tail.pop_front();
        }
        self.tail.push_back(rec);
        self.logged += 1;
    }
}

struct TaskSlot {
    label: Arc<str>,
    /// The closure, until the first wake hands it to a carrier.
    body: Option<TaskBody>,
    /// The carrier running this task, from its first wake on.
    carrier: Option<CarrierId>,
    /// Set when the baton is passed to this parked task; cleared by the
    /// task as it resumes.
    runnable: bool,
}

/// One pooled OS thread that runs tasks, one at a time, start to end.
struct Carrier {
    cv: Arc<Condvar>,
    /// The unstarted task this idle carrier has just been handed.
    start: Option<TaskId>,
    thread: Option<JoinHandle<()>>,
}

struct SimState {
    queue: BTreeMap<(u64, u64), SimEvent>,
    next_seq: u64,
    next_task: TaskId,
    /// Whether a carrier holds the baton (the control thread waits
    /// while one does).
    active: bool,
    tasks: BTreeMap<TaskId, TaskSlot>,
    /// This run's carriers; joined and cleared when the run ends.
    carriers: Vec<Carrier>,
    /// Carriers whose task has returned, most recently freed last.
    idle: Vec<CarrierId>,
    log: ScheduleLog,
    failure: Option<String>,
    shutdown: bool,
    tasks_spawned: u64,
}

struct SimCore {
    clock: Arc<VirtualClock>,
    state: Mutex<SimState>,
    /// Signalled when the baton returns to the control loop.
    control_cv: Condvar,
}

/// Handle to a deterministic discrete-event scheduler (cheaply `Clone`).
///
/// Create one over a fabric's clock, attach it with
/// [`crate::Fabric::attach_sim`], seed the queue with tasks and events,
/// then drain it with [`SimHandle::run`].
#[derive(Clone)]
pub struct SimHandle {
    core: Arc<SimCore>,
}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRunStats {
    /// Events executed (wakes + closures).
    pub events: u64,
    /// Tasks spawned over the run's lifetime.
    pub tasks: u64,
    /// Carrier threads this run started: the most tasks that were
    /// started and not yet returned at any one instant.
    pub carriers: u64,
    /// Virtual time when the queue drained.
    pub end: SimTime,
    /// Digest of every event this scheduler has executed — sequence
    /// number, time, kind and label — so two runs with equal stats ran
    /// the same whole schedule, however much of it the log still holds.
    pub schedule_digest: u64,
}

/// A failed simulation run: the failure message plus the formatted tail
/// of the event schedule that led to it, for seed replay.
#[derive(Clone)]
pub struct SimError {
    /// The panic message from the failing task or closure.
    pub message: String,
    /// Human-readable tail of the event schedule (see
    /// [`SimHandle::format_schedule`]).
    pub schedule: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation failed: {}\nevent schedule (tail):\n{}", self.message, self.schedule)
    }
}

impl fmt::Debug for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl SimHandle {
    /// A fresh scheduler driving the given clock.
    pub fn new(clock: Arc<VirtualClock>) -> Self {
        SimHandle {
            core: Arc::new(SimCore {
                clock,
                state: Mutex::new(SimState {
                    queue: BTreeMap::new(),
                    next_seq: 0,
                    next_task: 1,
                    active: false,
                    tasks: BTreeMap::new(),
                    carriers: Vec::new(),
                    idle: Vec::new(),
                    log: ScheduleLog::new(),
                    failure: None,
                    shutdown: false,
                    tasks_spawned: 0,
                }),
                control_cv: Condvar::new(),
            }),
        }
    }

    /// Current virtual time (the shared fabric clock).
    pub fn now(&self) -> SimTime {
        self.core.clock.now()
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.core.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the calling thread is a task of *this* scheduler.
    pub fn in_task(&self) -> bool {
        let here = Arc::as_ptr(&self.core) as usize;
        CURRENT_TASK.with(|c| c.get().is_some_and(|(core, _)| core == here))
    }

    fn enqueue(st: &mut SimState, at: SimTime, ev: SimEvent) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.insert((at.as_micros(), seq), ev);
    }

    /// Schedules a closure to run on the control thread at `at` (clamped
    /// to now if already past). Closures may schedule further events and
    /// spawn tasks — a recurring tick is a closure that re-schedules
    /// itself.
    pub fn schedule_at(
        &self,
        at: SimTime,
        label: impl Into<String>,
        f: impl FnOnce(&SimHandle) + Send + 'static,
    ) {
        let at = at.max(self.now());
        let mut st = self.lock();
        Self::enqueue(&mut st, at, SimEvent::Run { label: label.into(), f: Box::new(f) });
    }

    /// Schedules a closure `delay` after now.
    pub fn schedule_in(
        &self,
        delay: SimDuration,
        label: impl Into<String>,
        f: impl FnOnce(&SimHandle) + Send + 'static,
    ) {
        self.schedule_at(self.now() + delay, label, f);
    }

    /// Spawns a logical task. The task does not start immediately: its
    /// first run is a wake event at the current virtual time, so spawn
    /// order is part of the deterministic schedule, and no carrier
    /// thread is taken until that wake fires. The closure runs straight
    /// through, parking only in [`SimHandle::sleep`].
    pub fn spawn(&self, label: impl Into<String>, f: impl FnOnce(&SimHandle) + Send + 'static) {
        let label: Arc<str> = label.into().into();
        let now = self.now();
        let mut st = self.lock();
        assert!(!st.shutdown, "spawn on a finished scheduler");
        let tid = st.next_task;
        st.next_task += 1;
        st.tasks_spawned += 1;
        let slot = TaskSlot { label, body: Some(Box::new(f)), carrier: None, runnable: false };
        st.tasks.insert(tid, slot);
        Self::enqueue(&mut st, now, SimEvent::Wake(tid));
    }

    /// Parks the calling task for `d` of virtual time: enqueues a wake
    /// event at `now + d` and gives up the baton. If that wake is the
    /// next event the task simply carries on; otherwise it blocks until
    /// the wake fires. Only callable from inside a task spawned on this
    /// scheduler.
    pub fn sleep(&self, d: SimDuration) {
        let here = Arc::as_ptr(&self.core) as usize;
        let tid = CURRENT_TASK.with(|c| c.get()).filter(|&(core, _)| core == here).map(|(_, t)| t);
        let tid = tid.expect("SimHandle::sleep called outside a sim task");
        let wake_at = self.now() + d;
        let mut st = self.lock();
        Self::enqueue(&mut st, wake_at, SimEvent::Wake(tid));
        if self.pass_baton(&mut st, Some(tid)) {
            return;
        }
        let carrier = st.tasks[&tid].carrier.expect("a sleeping task has a carrier");
        let cv = Arc::clone(&st.carriers[carrier].cv);
        loop {
            if st.shutdown {
                // Unwind out of the task body; the carrier recognises the
                // payload and retires the task quietly.
                drop(st);
                std::panic::panic_any(SimShutdown);
            }
            let slot = st.tasks.get_mut(&tid).expect("a parked task keeps its slot");
            if slot.runnable {
                slot.runnable = false;
                return;
            }
            st = cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Gives up the baton held by task `me` (`None`: the control thread,
    /// or a carrier whose task returned). Pops wakes in `(time, seq)`
    /// order, logging each and advancing the clock to it, and hands the
    /// baton to the first one whose task is still live: to the carrier
    /// of a parked task, or to a carrier from the idle list (or a new
    /// one) for a task's first wake. Returns whether that task is `me`,
    /// which then keeps running with no thread switch. A Run event, an
    /// empty queue or a failure hands the baton to the control thread.
    fn pass_baton(&self, st: &mut SimState, me: Option<TaskId>) -> bool {
        while st.failure.is_none() {
            let Some(entry) = st.queue.first_entry() else { break };
            let &(at, seq) = entry.key();
            let SimEvent::Wake(tid) = *entry.get() else { break };
            entry.remove();
            // The task finished before a pending wake fired: drop it.
            let Some(slot) = st.tasks.get_mut(&tid) else { continue };
            let at = SimTime(at);
            st.log.push(EventRecord { seq, at, label: EventLabel::Wake(Arc::clone(&slot.label)) });
            self.core.clock.advance_to(at);
            if me == Some(tid) {
                return true;
            }
            let carrier = match slot.carrier {
                Some(carrier) => {
                    slot.runnable = true;
                    carrier
                }
                None => {
                    let carrier = st.idle.pop().unwrap_or_else(|| self.new_carrier(st));
                    st.tasks.get_mut(&tid).expect("woken task is live").carrier = Some(carrier);
                    st.carriers[carrier].start = Some(tid);
                    carrier
                }
            };
            st.carriers[carrier].cv.notify_one();
            st.active = true;
            return false;
        }
        st.active = false;
        self.core.control_cv.notify_one();
        false
    }

    /// Starts one more carrier thread for this run's pool.
    fn new_carrier(&self, st: &mut SimState) -> CarrierId {
        let id = st.carriers.len();
        let handle = self.clone();
        let thread = std::thread::Builder::new()
            .name(format!("sim-carrier-{id}"))
            .stack_size(CARRIER_STACK)
            .spawn(move || carrier_main(handle, id))
            .expect("spawn sim carrier thread");
        st.carriers.push(Carrier { cv: Arc::new(Condvar::new()), start: None, thread: Some(thread) });
        id
    }

    /// Drains the event queue, advancing the clock to each event's time
    /// and executing it. Returns run statistics, or — if any task or
    /// closure panicked — a [`SimError`] carrying the schedule tail.
    /// All carrier threads are joined before this returns.
    pub fn run(&self) -> Result<SimRunStats, SimError> {
        let mut st = self.lock();
        let logged_before = st.log.logged;
        let failure = loop {
            while st.active {
                st = self.core.control_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            if let Some(msg) = st.failure.take() {
                break Some(msg);
            }
            let Some(entry) = st.queue.first_entry() else { break None };
            if let SimEvent::Wake(_) = entry.get() {
                // Wakes run on carriers, which keep the baton among
                // themselves until a Run event or the end is next.
                self.pass_baton(&mut st, None);
                continue;
            }
            let ((at, seq), SimEvent::Run { label, f }) = entry.remove_entry() else {
                unreachable!("the entry is a Run event")
            };
            let at = SimTime(at);
            st.log.push(EventRecord { seq, at, label: EventLabel::Run(label) });
            drop(st);
            self.core.clock.advance_to(at);
            let h = self.clone();
            let result = catch_unwind(AssertUnwindSafe(|| f(&h)));
            st = self.lock();
            if let Err(payload) = result {
                st.failure = Some(panic_message(payload.as_ref()));
            }
        };

        // Shut down: drop the bodies of tasks that never started, unwind
        // any still-parked tasks and join every carrier.
        st.shutdown = true;
        let mut unstarted = Vec::new();
        st.tasks.retain(|_, slot| match slot.body.take() {
            Some(body) => {
                unstarted.push(body);
                false
            }
            None => true,
        });
        for carrier in &st.carriers {
            carrier.cv.notify_one();
        }
        let threads: Vec<_> = st.carriers.iter_mut().filter_map(|c| c.thread.take()).collect();
        let carriers = threads.len() as u64;
        drop(st);
        drop(unstarted);
        for t in threads {
            let _ = t.join();
        }

        let mut st = self.lock();
        st.carriers.clear();
        st.idle.clear();
        // A task may have recorded a failure while we were shutting down.
        let failure = failure.or_else(|| st.failure.take());
        match failure {
            Some(message) => {
                let schedule = format_schedule_locked(&st, 40);
                Err(SimError { message, schedule })
            }
            None => {
                let stats = SimRunStats {
                    events: st.log.logged - logged_before,
                    tasks: st.tasks_spawned,
                    carriers,
                    end: self.now(),
                    schedule_digest: st.log.digest.finish(),
                };
                // Allow the scheduler to be reused for a follow-up phase.
                st.shutdown = false;
                Ok(stats)
            }
        }
    }

    /// Formats the last `tail` entries of the executed event schedule —
    /// the replay transcript printed when a seeded run fails. The log
    /// keeps the last [`LOG_CAPACITY`] entries; earlier ones are counted
    /// in the elision line.
    pub fn format_schedule(&self, tail: usize) -> String {
        format_schedule_locked(&self.lock(), tail)
    }
}

fn format_schedule_locked(st: &SimState, tail: usize) -> String {
    let kept = &st.log.tail;
    let shown = kept.len().min(tail);
    let skip = st.log.logged - shown as u64;
    let mut out = String::new();
    if skip > 0 {
        out.push_str(&format!("  … {skip} earlier events elided …\n"));
    }
    for rec in kept.iter().skip(kept.len() - shown) {
        let (kind, label) = rec.label.parts();
        out.push_str(&format!("  [{:>12}µs #{:<6}] {kind}{label}\n", rec.at.as_micros(), rec.seq));
    }
    out
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// Body of a pooled carrier thread: wait on the idle list until handed
/// an unstarted task, run it to the end under `catch_unwind`, rejoin the
/// idle list and pass the baton on — possibly to itself, if the next
/// event is another task's first wake. Exits when the run shuts down.
fn carrier_main(handle: SimHandle, id: CarrierId) {
    let core_addr = Arc::as_ptr(&handle.core) as usize;
    let mut st = handle.lock();
    loop {
        let tid = loop {
            if st.shutdown {
                return;
            }
            if let Some(tid) = st.carriers[id].start.take() {
                break tid;
            }
            let cv = Arc::clone(&st.carriers[id].cv);
            st = cv.wait(st).unwrap_or_else(|p| p.into_inner());
        };
        let body = st.tasks.get_mut(&tid).and_then(|s| s.body.take());
        let body = body.expect("a task starts exactly once");
        drop(st);

        CURRENT_TASK.with(|c| c.set(Some((core_addr, tid))));
        let result = catch_unwind(AssertUnwindSafe(|| body(&handle)));
        CURRENT_TASK.with(|c| c.set(None));

        st = handle.lock();
        let slot = st.tasks.remove(&tid).expect("a running task keeps its slot");
        if let Err(payload) = result {
            if !payload.is::<SimShutdown>() {
                let message = panic_message(payload.as_ref());
                st.failure = Some(format!("task `{}`: {message}", slot.label));
            }
        }
        st.idle.push(id);
        // During shutdown the control thread holds the baton.
        if !st.shutdown {
            handle.pass_baton(&mut st, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SimHandle {
        SimHandle::new(Arc::new(VirtualClock::new()))
    }

    #[test]
    fn events_fire_in_time_then_seq_order() {
        let h = sim();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (at, tag) in [(30, "c"), (10, "a"), (10, "b"), (20, "z")] {
            let order = Arc::clone(&order);
            h.schedule_at(SimTime::from_micros(at), tag, move |hh| {
                order.lock().unwrap().push((hh.now().as_micros(), tag));
            });
        }
        let stats = h.run().unwrap();
        assert_eq!(stats.events, 4);
        assert_eq!(stats.end, SimTime::from_micros(30));
        // Same instant → scheduling order ("a" before "b": both at 10µs).
        assert_eq!(*order.lock().unwrap(), vec![(10, "a"), (10, "b"), (20, "z"), (30, "c")]);
    }

    #[test]
    fn task_sleep_advances_virtual_time_only() {
        let h = sim();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        h.spawn("sleeper", move |hh| {
            s.lock().unwrap().push(hh.now());
            hh.sleep(SimDuration::from_secs(3600));
            s.lock().unwrap().push(hh.now());
        });
        let wall = std::time::Instant::now();
        h.run().unwrap();
        assert!(wall.elapsed() < std::time::Duration::from_secs(2), "sleep must be simulated");
        assert_eq!(
            *seen.lock().unwrap(),
            vec![SimTime::ZERO, SimTime::from_secs(3600)],
            "one hour of virtual time passed"
        );
    }

    #[test]
    fn tasks_interleave_deterministically() {
        // Two tasks ping-ponging through staggered sleeps interleave by
        // wake time, not by OS scheduling.
        let run = || {
            let h = sim();
            let log = Arc::new(Mutex::new(Vec::new()));
            for (name, start, step) in [("a", 0u64, 10u64), ("b", 5, 10)] {
                let log = Arc::clone(&log);
                h.spawn(name, move |hh| {
                    hh.sleep(SimDuration::from_micros(start));
                    for i in 0..5 {
                        log.lock().unwrap().push(format!("{name}{i}@{}", hh.now().as_micros()));
                        hh.sleep(SimDuration::from_micros(step));
                    }
                });
            }
            h.run().unwrap();
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "same schedule every run");
        assert_eq!(first[0], "a0@0");
        assert_eq!(first[1], "b0@5");
    }

    #[test]
    fn run_closures_can_reschedule_themselves() {
        let h = sim();
        let count = Arc::new(Mutex::new(0u32));
        fn tick(hh: &SimHandle, count: Arc<Mutex<u32>>) {
            *count.lock().unwrap() += 1;
            if hh.now() < SimTime::from_secs(10) {
                let c = Arc::clone(&count);
                hh.schedule_in(SimDuration::from_secs(1), "tick", move |hh| tick(hh, c));
            }
        }
        let c = Arc::clone(&count);
        h.schedule_at(SimTime::from_secs(1), "tick", move |hh| tick(hh, c));
        h.run().unwrap();
        assert_eq!(*count.lock().unwrap(), 10);
    }

    #[test]
    fn failing_task_reports_schedule_tail() {
        let h = sim();
        h.schedule_at(SimTime::from_micros(5), "benign", |_| {});
        h.spawn("doomed", |hh| {
            hh.sleep(SimDuration::from_micros(10));
            panic!("injected failure at {now}", now = hh.now());
        });
        h.spawn("parked-forever", |hh| {
            // Still asleep when the failure aborts the run; shutdown must
            // unwind it rather than leak the carrier thread.
            hh.sleep(SimDuration::from_secs(1_000_000));
        });
        let err = h.run().unwrap_err();
        assert!(err.message.contains("injected failure"), "{}", err.message);
        assert!(err.message.contains("doomed"), "{}", err.message);
        assert!(err.schedule.contains("wake:doomed"), "schedule:\n{}", err.schedule);
    }

    #[test]
    fn failing_closure_reports_too() {
        let h = sim();
        h.schedule_at(SimTime::from_micros(1), "boom", |_| panic!("closure exploded"));
        let err = h.run().unwrap_err();
        assert!(err.message.contains("closure exploded"));
        assert!(err.schedule.contains("boom"), "schedule:\n{}", err.schedule);
    }

    #[test]
    fn spawned_tasks_run_in_spawn_order_at_same_instant() {
        let h = sim();
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["first", "second", "third"] {
            let order = Arc::clone(&order);
            h.spawn(name, move |_| order.lock().unwrap().push(name));
        }
        h.run().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["first", "second", "third"]);
    }

    #[test]
    fn in_task_distinguishes_contexts() {
        let h = sim();
        assert!(!h.in_task(), "control context is not a task");
        let flag = Arc::new(Mutex::new((false, true)));
        let fl = Arc::clone(&flag);
        h.spawn("prober", move |hh| {
            fl.lock().unwrap().0 = hh.in_task();
        });
        let fl = Arc::clone(&flag);
        h.schedule_at(SimTime::from_micros(1), "closure-probe", move |hh| {
            fl.lock().unwrap().1 = hh.in_task();
        });
        h.run().unwrap();
        let (task_saw, closure_saw) = *flag.lock().unwrap();
        assert!(task_saw, "task context must report in_task");
        assert!(!closure_saw, "control-thread closure must not");
    }

    #[test]
    fn scheduler_is_reusable_after_a_clean_run() {
        let h = sim();
        h.schedule_at(SimTime::from_micros(1), "one", |_| {});
        h.run().unwrap();
        let again = Arc::new(Mutex::new(false));
        let a = Arc::clone(&again);
        h.spawn("two", move |_| *a.lock().unwrap() = true);
        h.run().unwrap();
        assert!(*again.lock().unwrap());
    }

    #[test]
    fn ten_thousand_tasks_complete_quickly() {
        let h = sim();
        let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for i in 0..10_000u64 {
            let done = Arc::clone(&done);
            h.spawn(format!("ep-{i}"), move |hh| {
                hh.sleep(SimDuration::from_micros(i % 97));
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        let stats = h.run().unwrap();
        assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 10_000);
        assert_eq!(stats.tasks, 10_000);
    }

    #[test]
    fn tasks_that_never_overlap_share_one_carrier() {
        let h = sim();
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for i in 0..1_000u64 {
            let threads = Arc::clone(&threads);
            h.schedule_at(SimTime::from_secs(i), format!("arrive-{i}"), move |hh| {
                hh.spawn(format!("ep-{i}"), move |hh| {
                    for _ in 0..3 {
                        hh.sleep(SimDuration::from_millis(10));
                    }
                    threads.lock().unwrap().insert(std::thread::current().id());
                });
            });
        }
        let stats = h.run().unwrap();
        assert_eq!(stats.tasks, 1_000);
        assert_eq!(stats.events, 5_000, "1,000 arrivals, each with 4 wakes");
        assert_eq!(stats.carriers, 1, "each episode ends before the next arrives");
        assert_eq!(threads.lock().unwrap().len(), 1);
    }

    #[test]
    fn overlapping_tasks_take_one_carrier_each_and_the_next_run_starts_afresh() {
        let h = sim();
        for i in 0..3u64 {
            h.spawn(format!("t{i}"), move |hh| hh.sleep(SimDuration::from_micros(10 + i)));
        }
        assert_eq!(h.run().unwrap().carriers, 3);
        h.spawn("alone", |hh| hh.sleep(SimDuration::from_micros(1)));
        assert_eq!(h.run().unwrap().carriers, 1, "the pool is joined at the end of a run");
    }

    #[test]
    fn failing_task_on_a_reused_carrier_reports_its_own_label() {
        let h = sim();
        let threads = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u64 {
            let threads = Arc::clone(&threads);
            h.schedule_at(SimTime::from_secs(i), "arrive", move |hh| {
                hh.spawn(format!("warm-{i}"), move |hh| {
                    hh.sleep(SimDuration::from_micros(5));
                    threads.lock().unwrap().push(std::thread::current().id());
                });
            });
        }
        let t = Arc::clone(&threads);
        h.schedule_at(SimTime::from_secs(10), "arrive", move |hh| {
            hh.spawn("doomed", move |hh| {
                t.lock().unwrap().push(std::thread::current().id());
                hh.sleep(SimDuration::from_micros(10));
                panic!("injected failure at {now}", now = hh.now());
            });
        });
        let err = h.run().unwrap_err();
        let threads = threads.lock().unwrap();
        assert_eq!(threads.len(), 4);
        assert!(threads.iter().all(|&t| t == threads[0]), "one carrier ran every task");
        assert!(err.message.starts_with("task `doomed`: injected failure"), "{}", err.message);
        assert!(err.schedule.contains("wake:doomed"), "schedule:\n{}", err.schedule);
    }

    #[test]
    fn schedule_log_keeps_a_bounded_tail_and_digests_all() {
        let run = |first: &'static str| {
            let h = sim();
            for i in 0..2_000u64 {
                let label = if i == 0 { first } else { "tick" };
                h.schedule_at(SimTime::from_micros(i), label, |_| {});
            }
            let stats = h.run().unwrap();
            (stats, h.format_schedule(usize::MAX), h.format_schedule(2))
        };
        let (stats, all, two) = run("first");
        assert_eq!(stats.events, 2_000);
        assert_eq!(all.lines().count(), 1 + LOG_CAPACITY);
        assert!(all.starts_with("  … 976 earlier events elided …\n"), "{all}");
        let tail = [
            "  … 1998 earlier events elided …",
            "  [        1998µs #1998  ] tick",
            "  [        1999µs #1999  ] tick",
        ];
        assert_eq!(two.lines().collect::<Vec<_>>(), tail);
        // The digest covers the whole schedule, elided events included.
        assert_eq!(stats, run("first").0);
        let other = run("other");
        assert_eq!((&other.1, &other.2), (&all, &two));
        assert_ne!(stats.schedule_digest, other.0.schedule_digest);
    }
}
