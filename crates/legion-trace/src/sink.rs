//! The trace sink: span collection, episode context, rollups.
//!
//! Lock discipline is deliberately light: closing a span bumps a
//! per-kind array of atomic histogram buckets, and span bookkeeping
//! takes one short mutex. The *context* — which episode and parent the
//! next span belongs to — is a per-thread stack, so the synchronous RMI
//! pipeline never passes trace handles through its public signatures:
//! `ScheduleDriver::place` opens an episode, and every nested
//! Collection query, reservation attempt, or instantiation on the same
//! thread files itself under it automatically.

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use legion_core::{
    AttrValue, EpisodeId, Loid, SimDuration, SimTime, Span, SpanId, SpanKind, SpanOutcome,
};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A virtual-time source the sink reads span timestamps from.
pub type ClockFn = dyn Fn() -> SimTime + Send + Sync;

thread_local! {
    /// (sink identity, episode, span) for every open, context-pushed
    /// span on this thread, innermost last.
    static CONTEXT: RefCell<Vec<CtxEntry>> = const { RefCell::new(Vec::new()) };
}

struct CtxEntry {
    sink: Weak<TraceSink>,
    sink_ptr: *const TraceSink,
    episode: EpisodeId,
    span: SpanId,
}

/// Charges simulated latency to the innermost open span on this thread
/// (no-op when no span is open). The fabric calls this from its network
/// model so every message's latency lands on the stage that sent it.
pub fn charge_active(d: SimDuration) {
    CONTEXT.with(|c| {
        if let Some(top) = c.borrow().last() {
            if let Some(sink) = top.sink.upgrade() {
                sink.charge(top.span, d);
            }
        }
    });
}

struct Inner {
    /// Open spans by raw id.
    active: BTreeMap<u64, Span>,
    /// Closed spans, in closing order.
    done: Vec<Span>,
}

/// Collects spans, aggregates per-stage latency histograms, and exports
/// traces. Shared via `Arc`; one per fabric.
pub struct TraceSink {
    enabled: AtomicBool,
    next_span: AtomicU64,
    next_episode: AtomicU64,
    clock: RwLock<Option<Arc<ClockFn>>>,
    hist: [LatencyHistogram; SpanKind::COUNT],
    inner: Mutex<Inner>,
}

impl TraceSink {
    /// A new sink, **disabled**: spans are no-ops until
    /// [`TraceSink::enable`] is called, so untraced runs pay one atomic
    /// load per instrumentation point.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            enabled: AtomicBool::new(false),
            next_span: AtomicU64::new(1),
            next_episode: AtomicU64::new(1),
            clock: RwLock::new(None),
            hist: std::array::from_fn(|_| LatencyHistogram::new()),
            inner: Mutex::new(Inner { active: BTreeMap::new(), done: Vec::new() }),
        })
    }

    /// Turns span recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Turns span recording off (open spans may still close).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Wires the virtual clock timestamps are read from.
    pub fn set_clock(&self, clock: Arc<ClockFn>) {
        *self.clock.write() = Some(clock);
    }

    /// Current virtual time (epoch when no clock is wired).
    pub fn now(&self) -> SimTime {
        self.clock.read().as_ref().map(|c| c()).unwrap_or(SimTime::ZERO)
    }

    /// Discards all recorded spans and histograms (episode and span id
    /// counters keep advancing so ids stay unique per sink).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.done.clear();
        inner.active.clear();
        for h in &self.hist {
            h.reset();
        }
    }

    // --- span lifecycle ---------------------------------------------------

    /// Opens an episode rooted at `root` (the class being placed, the
    /// host being recovered...) and pushes it onto this thread's
    /// context. Spans opened on this thread until the guard ends file
    /// under the episode.
    pub fn begin_episode(self: &Arc<Self>, label: &'static str, root: Loid) -> EpisodeGuard {
        if !self.is_enabled() {
            return EpisodeGuard { span: SpanGuard::disabled(), episode: None };
        }
        let episode = EpisodeId { root, seq: self.next_episode.fetch_add(1, Ordering::Relaxed) };
        let span = self.open_span(SpanKind::Episode, Some(episode));
        span.attr("label", label);
        EpisodeGuard { span, episode: Some(episode) }
    }

    /// Opens a span of `kind` under this thread's current episode and
    /// parent (ambient episode, no parent, when none is open).
    pub fn span(self: &Arc<Self>, kind: SpanKind) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::disabled();
        }
        self.open_span(kind, None)
    }

    fn open_span(self: &Arc<Self>, kind: SpanKind, new_episode: Option<EpisodeId>) -> SpanGuard {
        let me = Arc::as_ptr(self);
        let (episode, parent) = match new_episode {
            Some(ep) => (ep, SpanId::NONE),
            None => CONTEXT.with(|c| {
                c.borrow()
                    .iter()
                    .rev()
                    .find(|e| e.sink_ptr == me)
                    .map(|e| (e.episode, e.span))
                    .unwrap_or((EpisodeId::AMBIENT, SpanId::NONE))
            }),
        };
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let now = self.now();
        let span = Span {
            id,
            parent,
            episode,
            kind,
            start: now,
            end: now,
            charged: SimDuration::ZERO,
            outcome: SpanOutcome::Unset,
            attrs: Vec::new(),
        };
        self.inner.lock().active.insert(id.0, span);
        CONTEXT.with(|c| {
            c.borrow_mut().push(CtxEntry {
                sink: Arc::downgrade(self),
                sink_ptr: me,
                episode,
                span: id,
            })
        });
        SpanGuard { sink: Some(Arc::clone(self)), id }
    }

    fn charge(&self, id: SpanId, d: SimDuration) {
        if let Some(s) = self.inner.lock().active.get_mut(&id.0) {
            s.charged += d;
        }
    }

    fn set_attr(&self, id: SpanId, key: &'static str, value: AttrValue) {
        if let Some(s) = self.inner.lock().active.get_mut(&id.0) {
            s.attrs.push((key, value));
        }
    }

    fn set_outcome(&self, id: SpanId, outcome: SpanOutcome) {
        if let Some(s) = self.inner.lock().active.get_mut(&id.0) {
            s.outcome = outcome;
        }
    }

    fn close(&self, id: SpanId, outcome: Option<SpanOutcome>) {
        // Pop this span from the thread context (it is normally the
        // innermost entry; search from the top for robustness).
        CONTEXT.with(|c| {
            let mut ctx = c.borrow_mut();
            if let Some(pos) = ctx.iter().rposition(|e| e.span == id) {
                ctx.remove(pos);
            }
        });
        let now = self.now();
        let mut inner = self.inner.lock();
        let Some(mut span) = inner.active.remove(&id.0) else { return };
        // The virtual clock never runs backwards, but defend anyway: a
        // span can never close before it opened.
        span.end = now.max(span.start);
        if let Some(o) = outcome {
            span.outcome = o;
        }
        if span.outcome == SpanOutcome::Unset {
            span.outcome = SpanOutcome::Ok;
        }
        self.hist[span.kind.index()].record(span.duration());
        inner.done.push(span);
    }

    // --- inspection -------------------------------------------------------

    /// All closed spans, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().done.clone()
    }

    /// Closed spans of one episode, in opening (id) order.
    pub fn episode_spans(&self, episode: EpisodeId) -> Vec<Span> {
        let mut spans: Vec<Span> =
            self.inner.lock().done.iter().filter(|s| s.episode == episode).cloned().collect();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Every episode that has at least one closed span, in id order,
    /// with its root-span label (episodes are created by
    /// [`TraceSink::begin_episode`]).
    pub fn episodes(&self) -> Vec<(EpisodeId, String)> {
        let mut out: BTreeMap<EpisodeId, String> = BTreeMap::new();
        for s in self.inner.lock().done.iter() {
            if s.kind == SpanKind::Episode {
                let label = s.attr_str("label").unwrap_or("").to_string();
                out.insert(s.episode, label);
            }
        }
        out.into_iter().collect()
    }

    /// Number of spans currently open (diagnostics).
    pub fn open_spans(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// The live per-stage histogram for `kind` (recorded at span close,
    /// lock-free).
    pub fn histogram(&self, kind: SpanKind) -> HistogramSnapshot {
        self.hist[kind.index()].snapshot()
    }

    /// Rollup over every closed span.
    pub fn rollup(&self) -> TraceRollup {
        TraceRollup::from_spans(self.inner.lock().done.iter())
    }

    /// Rollup over one episode's closed spans.
    pub fn rollup_for(&self, episode: EpisodeId) -> TraceRollup {
        TraceRollup::from_spans(self.inner.lock().done.iter().filter(|s| s.episode == episode))
    }

    /// Partitioned rollups in one pass: every closed span is routed to
    /// the group `group_of` assigns its episode (spans whose episode
    /// maps to `None`, such as ambient maintenance work, are skipped).
    ///
    /// This is the per-tenant / per-priority-class aggregation path: the
    /// ingress front door records which episode belonged to which tenant,
    /// and one call here turns a hundred-thousand-span soak into per-group
    /// latency histograms without re-scanning the span list per group —
    /// `rollup_for` in a loop would be O(groups × spans).
    pub fn rollup_grouped(
        &self,
        groups: usize,
        group_of: impl Fn(EpisodeId) -> Option<usize>,
    ) -> Vec<TraceRollup> {
        let mut out = vec![TraceRollup::default(); groups];
        let mut memo: BTreeMap<EpisodeId, Option<usize>> = BTreeMap::new();
        for s in self.inner.lock().done.iter() {
            let g = *memo.entry(s.episode).or_insert_with(|| {
                group_of(s.episode).filter(|&g| g < groups)
            });
            if let Some(g) = g {
                out[g].absorb(s);
            }
        }
        out
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("open", &inner.active.len())
            .field("closed", &inner.done.len())
            .finish()
    }
}

/// Handle to one open span. Ends the span (at the sink's current time)
/// on drop; prefer the explicit `end_*` methods so the outcome is
/// stated at the close site.
#[must_use = "a span guard measures until it is dropped or ended"]
pub struct SpanGuard {
    sink: Option<Arc<TraceSink>>,
    id: SpanId,
}

impl SpanGuard {
    /// A no-op guard (disabled sink).
    pub fn disabled() -> Self {
        SpanGuard { sink: None, id: SpanId::NONE }
    }

    /// This span's id (`NONE` when disabled).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Whether this guard records anything.
    pub fn is_recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Attaches a key/value attribute.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(sink) = &self.sink {
            sink.set_attr(self.id, key, value.into());
        }
    }

    /// Adds simulated latency to this span's duration.
    pub fn charge(&self, d: SimDuration) {
        if let Some(sink) = &self.sink {
            sink.charge(self.id, d);
        }
    }

    /// Sets the outcome without closing (for drop-closed error paths).
    pub fn set_outcome(&self, outcome: SpanOutcome) {
        if let Some(sink) = &self.sink {
            sink.set_outcome(self.id, outcome);
        }
    }

    /// Ends the span with the given outcome.
    pub fn end_with(mut self, outcome: SpanOutcome) {
        if let Some(sink) = self.sink.take() {
            sink.close(self.id, Some(outcome));
        }
    }

    /// Ends the span successfully.
    pub fn end_ok(self) {
        self.end_with(SpanOutcome::Ok);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink.close(self.id, None);
        }
    }
}

/// Handle to one open episode: the root span plus the episode id.
#[must_use = "an episode guard scopes spans until it is dropped or ended"]
pub struct EpisodeGuard {
    span: SpanGuard,
    episode: Option<EpisodeId>,
}

impl EpisodeGuard {
    /// The episode id (`None` when the sink is disabled).
    pub fn id(&self) -> Option<EpisodeId> {
        self.episode
    }

    /// Attaches an attribute to the episode's root span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.span.attr(key, value);
    }

    /// Sets the root span's outcome without closing.
    pub fn set_outcome(&self, outcome: SpanOutcome) {
        self.span.set_outcome(outcome);
    }

    /// Ends the episode with the given outcome.
    pub fn end_with(self, outcome: SpanOutcome) {
        self.span.end_with(outcome);
    }
}

/// Per-stage aggregate over a set of closed spans: counts, success
/// counts, latency histograms, and the object-start total (the one
/// ledger counter that is a per-span *sum*, not a span count).
#[derive(Debug, Clone, Default)]
pub struct TraceRollup {
    counts: [u64; SpanKind::COUNT],
    ok_counts: [u64; SpanKind::COUNT],
    hist: [HistogramSnapshot; SpanKind::COUNT],
    /// Sum of the `started` attribute over `StartObject` spans.
    pub objects_started: u64,
    /// Sum of charged simulated latency across all spans, µs.
    pub charged_us: u64,
}

impl TraceRollup {
    /// Builds a rollup from an iterator of closed spans.
    pub fn from_spans<'a>(spans: impl Iterator<Item = &'a Span>) -> Self {
        let mut r = TraceRollup::default();
        for s in spans {
            r.absorb(s);
        }
        r
    }

    /// Folds one closed span into the aggregate.
    pub fn absorb(&mut self, s: &Span) {
        let i = s.kind.index();
        self.counts[i] += 1;
        if s.outcome.is_ok() {
            self.ok_counts[i] += 1;
        }
        self.hist[i].record(s.duration());
        self.charged_us += s.charged.as_micros();
        if s.kind == SpanKind::StartObject {
            self.objects_started += s.attr_i64("started").unwrap_or(0).max(0) as u64;
        }
    }

    /// Number of spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Number of `kind` spans that ended [`SpanOutcome::Ok`].
    pub fn ok_count(&self, kind: SpanKind) -> u64 {
        self.ok_counts[kind.index()]
    }

    /// Latency histogram for `kind`.
    pub fn histogram(&self, kind: SpanKind) -> &HistogramSnapshot {
        &self.hist[kind.index()]
    }

    /// Total spans across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;

    fn enabled_sink() -> Arc<TraceSink> {
        let s = TraceSink::new();
        s.enable();
        s
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::new();
        let g = s.span(SpanKind::Schedule);
        g.attr("x", 1i64);
        g.end_ok();
        assert!(s.spans().is_empty());
        assert_eq!(s.histogram(SpanKind::Schedule).count(), 0);
    }

    #[test]
    fn nesting_follows_thread_context() {
        let s = enabled_sink();
        let ep = s.begin_episode("place", Loid::synthetic(LoidKind::Class, 1));
        let outer = s.span(SpanKind::MakeReservations);
        let inner = s.span(SpanKind::ReserveAttempt);
        inner.end_ok();
        outer.end_ok();
        ep.end_with(SpanOutcome::Ok);

        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|x| x.kind == SpanKind::Episode).unwrap();
        let mk = spans.iter().find(|x| x.kind == SpanKind::MakeReservations).unwrap();
        let at = spans.iter().find(|x| x.kind == SpanKind::ReserveAttempt).unwrap();
        assert_eq!(mk.parent, root.id);
        assert_eq!(at.parent, mk.id);
        assert!(spans.iter().all(|x| x.episode == root.episode));
        assert_eq!(root.parent, SpanId::NONE);
    }

    #[test]
    fn ambient_spans_have_no_episode() {
        let s = enabled_sink();
        s.span(SpanKind::CollectionQuery).end_ok();
        let spans = s.spans();
        assert_eq!(spans[0].episode, EpisodeId::AMBIENT);
        assert_eq!(spans[0].parent, SpanId::NONE);
    }

    #[test]
    fn charge_active_lands_on_innermost() {
        let s = enabled_sink();
        let outer = s.span(SpanKind::MakeReservations);
        let inner = s.span(SpanKind::CancelReservation);
        charge_active(SimDuration::from_micros(40));
        inner.end_ok();
        charge_active(SimDuration::from_micros(7));
        outer.end_ok();
        let spans = s.spans();
        let cancel = spans.iter().find(|x| x.kind == SpanKind::CancelReservation).unwrap();
        let mk = spans.iter().find(|x| x.kind == SpanKind::MakeReservations).unwrap();
        assert_eq!(cancel.charged, SimDuration::from_micros(40));
        assert_eq!(mk.charged, SimDuration::from_micros(7));
        assert_eq!(cancel.duration(), SimDuration::from_micros(40));
    }

    #[test]
    fn drop_closes_with_ok_and_histogram_counts_match() {
        let s = enabled_sink();
        {
            let _g = s.span(SpanKind::Backoff);
        }
        let spans = s.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Ok);
        assert_eq!(s.histogram(SpanKind::Backoff).count(), 1);
        assert_eq!(s.open_spans(), 0);
    }

    #[test]
    fn rollup_counts_and_objects_started() {
        let s = enabled_sink();
        let g = s.span(SpanKind::StartObject);
        g.attr("started", 3i64);
        g.end_ok();
        let g = s.span(SpanKind::StartObject);
        g.attr("started", 1i64);
        g.end_with(SpanOutcome::HostDown);
        let r = s.rollup();
        assert_eq!(r.count(SpanKind::StartObject), 2);
        assert_eq!(r.ok_count(SpanKind::StartObject), 1);
        assert_eq!(r.objects_started, 4);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn episodes_listing_and_scoped_rollup() {
        let s = enabled_sink();
        let ep1 = s.begin_episode("place", Loid::synthetic(LoidKind::Class, 1));
        let id1 = ep1.id().unwrap();
        s.span(SpanKind::Schedule).end_ok();
        ep1.end_with(SpanOutcome::Ok);
        let ep2 = s.begin_episode("recover", Loid::synthetic(LoidKind::Host, 2));
        ep2.end_with(SpanOutcome::Error("nothing to do".into()));

        let eps = s.episodes();
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].1, "place");
        assert_eq!(eps[1].1, "recover");
        let r = s.rollup_for(id1);
        assert_eq!(r.count(SpanKind::Schedule), 1);
        assert_eq!(r.count(SpanKind::Episode), 1);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn rollup_grouped_routes_by_episode() {
        let s = enabled_sink();
        let ep_a = s.begin_episode("place", Loid::synthetic(LoidKind::Class, 1));
        let id_a = ep_a.id().unwrap();
        s.span(SpanKind::Schedule).end_ok();
        ep_a.end_with(SpanOutcome::Ok);
        let ep_b = s.begin_episode("place", Loid::synthetic(LoidKind::Class, 2));
        let id_b = ep_b.id().unwrap();
        s.span(SpanKind::Schedule).end_ok();
        s.span(SpanKind::Schedule).end_ok();
        ep_b.end_with(SpanOutcome::Ok);
        // An ambient span maps to no group and is skipped.
        s.span(SpanKind::CollectionQuery).end_ok();

        let groups = s.rollup_grouped(2, |ep| {
            if ep == id_a {
                Some(0)
            } else if ep == id_b {
                Some(1)
            } else {
                None
            }
        });
        assert_eq!(groups[0].count(SpanKind::Schedule), 1);
        assert_eq!(groups[1].count(SpanKind::Schedule), 2);
        assert_eq!(groups[0].count(SpanKind::Episode), 1);
        assert_eq!(groups[0].total() + groups[1].total(), 5, "ambient span dropped");
    }

    #[test]
    fn sim_clock_timestamps() {
        let s = enabled_sink();
        let t = Arc::new(AtomicU64::new(5));
        let t2 = Arc::clone(&t);
        s.set_clock(Arc::new(move || SimTime(t2.load(Ordering::Relaxed))));
        let g = s.span(SpanKind::Backoff);
        t.store(25, Ordering::Relaxed);
        g.end_ok();
        let spans = s.spans();
        assert_eq!(spans[0].start, SimTime(5));
        assert_eq!(spans[0].end, SimTime(25));
        assert_eq!(spans[0].duration(), SimDuration::from_micros(20));
    }
}
