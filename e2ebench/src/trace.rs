//! The benchmark's own tracer: spans recorded from outside the program,
//! around its public calls, kept in memory and written out as Chrome
//! trace-event JSON when a run ends.
//!
//! [`TracedLayer`] wraps a model `Layer` to time `forward`/`backward`;
//! [`TracedSource`] wraps a `BatchSource` to time `next_batch` and to mark
//! where each training step begins. Both only observe: they forward every
//! call unchanged, so the traced run's parameters and outputs must hash
//! equal to the untraced run's.

use exaclim_distrib::trainer::Batch;
use exaclim_distrib::BatchSource;
use exaclim_nn::{Ctx, Layer, ParamSet};
use exaclim_tensor::{pool, Tensor};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed interval on a lane (a rank, a replica or the request stream).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// What was timed (`step`, `next_batch`, `forward`, ...).
    pub name: &'static str,
    /// Chrome-trace thread lane.
    pub lane: u32,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Work items the span covered (batch size of a forward; 1 otherwise).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Training steps begun but not yet closed: `(lane, id, start)`.
type OpenSteps = Vec<(u32, u64, Instant)>;

/// In-memory span sink shared by every wrapper of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    open_steps: Mutex<OpenSteps>,
    pool_at_first_timed_step: Mutex<Option<pool::PoolStats>>,
    first_timed_step: usize,
}

thread_local! {
    /// `(lane, step span id)` of the training step running on this thread.
    static CURRENT_STEP: Cell<Option<(u32, u64)>> = const { Cell::new(None) };
}

impl Tracer {
    /// A tracer whose pool-statistics window opens when rank 0 begins step
    /// `first_timed_step`.
    pub fn new(first_timed_step: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            open_steps: Mutex::new(Vec::new()),
            pool_at_first_timed_step: Mutex::new(None),
            first_timed_step,
        })
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        lane: u32,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let id = self.fresh_id();
        let span = Span {
            id,
            parent,
            name,
            lane,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Opens a training step on `lane` and makes it the parent of the
    /// spans this thread records until the next step opens.
    fn begin_step(&self, lane: u32, start: Instant) -> u64 {
        let id = self.fresh_id();
        self.open_steps
            .lock()
            .expect("tracer lock poisoned")
            .push((lane, id, start));
        CURRENT_STEP.with(|c| c.set(Some((lane, id))));
        id
    }

    /// Closes every opened step: step `i` of each lane lasts
    /// `step_walls[i]`, the rank-0 step wall time the trainer reports
    /// (ranks advance in lock-step through the step's collectives).
    pub fn close_steps(&self, step_walls: &[f64]) {
        let open = std::mem::take(&mut *self.open_steps.lock().expect("tracer lock poisoned"));
        let mut per_lane_index = std::collections::BTreeMap::<u32, usize>::new();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        for (lane, id, start) in open {
            let i = per_lane_index.entry(lane).or_insert(0);
            let wall = step_walls.get(*i).copied().unwrap_or(0.0);
            *i += 1;
            spans.push(Span {
                id,
                parent: None,
                name: "step",
                lane,
                start_ns: self.ns(start),
                end_ns: self.ns(start + Duration::from_secs_f64(wall)),
                items: 1,
            });
        }
    }

    /// Pool counters when rank 0 began its first timed step.
    pub fn pool_at_first_timed_step(&self) -> Option<pool::PoolStats> {
        *self
            .pool_at_first_timed_step
            .lock()
            .expect("tracer lock poisoned")
    }

    /// Every span recorded so far, ordered by start time then id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer lock poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Length of the union of half-open intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Overlapping children are counted once and
/// children are clipped to the parent's interval.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let covered: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .collect();
    span.dur_ns() - union_len(&covered)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`,
/// with `lanes` naming each thread lane.
pub fn chrome_trace_json(spans: &[Span], lanes: &[(u32, String)]) -> String {
    let mut events = Vec::with_capacity(spans.len() + lanes.len());
    for (lane, name) in lanes {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{lane},"args":{{"name":{}}}}}"#,
            json_str(name)
        ));
    }
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            r#"{{"name":{},"cat":"e2ebench","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{},"items":{}}}}}"#,
            json_str(s.name),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.items
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// A model wrapper that times `forward` and `backward`. The lane is fixed
/// for a serving replica, or taken from the training step running on the
/// calling thread.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    tracer: Arc<Tracer>,
    lane: Option<u32>,
}

impl TracedLayer {
    /// Wraps `inner`; `lane` pins the lane (serving replicas).
    pub fn new(inner: Box<dyn Layer>, tracer: Arc<Tracer>, lane: Option<u32>) -> TracedLayer {
        TracedLayer {
            inner,
            tracer,
            lane,
        }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        items: u64,
        f: impl FnOnce(&mut dyn Layer) -> T,
    ) -> T {
        let step = CURRENT_STEP.with(|c| c.get());
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = Instant::now();
        let (lane, parent) = match (self.lane, step) {
            (Some(lane), _) => (lane, None),
            (None, Some((lane, id))) => (lane, Some(id)),
            (None, None) => (0, None),
        };
        self.tracer.record(name, lane, parent, start, end, items);
        out
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let items = x.shape().dims()[0] as u64;
        self.timed("forward", items, |l| l.forward(x, ctx))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let items = grad_out.shape().dims()[0] as u64;
        self.timed("backward", items, |l| l.backward(grad_out))
    }

    fn params(&self) -> ParamSet {
        self.inner.params()
    }

    fn buffers(&self) -> ParamSet {
        self.inner.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A batch-source wrapper. Untraced it only forwards; traced it opens a
/// step span at each `next_batch` call (the first thing a trainer step
/// does) and times the call itself.
pub struct TracedSource<S> {
    inner: S,
    rank: usize,
    step: usize,
    tracer: Option<Arc<Tracer>>,
}

impl<S: BatchSource> TracedSource<S> {
    /// Wraps rank `rank`'s source; `tracer: None` passes calls straight through.
    pub fn new(inner: S, rank: usize, tracer: Option<Arc<Tracer>>) -> TracedSource<S> {
        TracedSource {
            inner,
            rank,
            step: 0,
            tracer,
        }
    }
}

impl<S: BatchSource> BatchSource for TracedSource<S> {
    fn next_batch(&mut self) -> Batch {
        let Some(tracer) = self.tracer.clone() else {
            return self.inner.next_batch();
        };
        let start = Instant::now();
        if self.rank == 0 && self.step == tracer.first_timed_step {
            *tracer
                .pool_at_first_timed_step
                .lock()
                .expect("tracer lock poisoned") = Some(pool::stats());
        }
        let lane = self.rank as u32;
        let step_id = tracer.begin_step(lane, start);
        self.step += 1;
        let batch = self.inner.next_batch();
        tracer.record("next_batch", lane, Some(step_id), start, Instant::now(), 1);
        batch
    }

    fn on_generation(&mut self, generation: u64, members: &[usize]) {
        self.inner.on_generation(generation, members)
    }

    fn on_step_timing(&mut self, ingest_wait: Duration, step_wall: Duration) {
        self.inner.on_step_timing(ingest_wait, step_wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            lane: 0,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
        assert_eq!(
            union_len(&[(4, 4), (9, 1)]),
            0,
            "empty and inverted intervals cover nothing"
        );
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A 100 ns step whose comm child overlaps its backward child.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 80, 90),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 50 - 10);
    }

    #[test]
    fn self_time_counts_only_direct_children_and_clips_them() {
        // Grandchild 3 lies inside child 2: it reduces 2's self time, not 1's.
        // Child 4 runs past the parent's end and is clipped to it.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 10, 20),
            span(4, Some(1), 90, 130),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 50 - 10);
        assert_eq!(self_time_ns(&all[1], &all), 50 - 10);
        assert_eq!(self_time_ns(&all[2], &all), 10);
    }

    #[test]
    fn chrome_trace_names_lanes_and_links_parents() {
        let all = vec![span(1, None, 0, 2000), span(2, Some(1), 500, 1500)];
        let json = chrome_trace_json(&all, &[(0, "rank \"0\"".to_string())]);
        assert!(json.contains(r#""args":{"name":"rank \"0\""}"#));
        assert!(json.contains(r#""ts":0.500,"dur":1.000,"args":{"id":2,"parent":1,"items":1}"#));
        assert!(json.contains(r#""args":{"id":1,"parent":null,"items":1}"#));
    }
}
