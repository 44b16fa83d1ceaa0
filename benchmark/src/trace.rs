//! In-memory span recorder, self-time accounting and sample statistics.
//!
//! Spans are recorded by the benchmark's own code around calls into a
//! layer's public functions; nothing inside the program is instrumented.
//! A span's self time is its duration minus the part of its interval
//! covered by its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `http.round_trip`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Request (or work item) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread; written out when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Convert an instant to the recorder's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Reserve a parent span before its children run; close it with
    /// [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, request)
    }

    /// Set the end of a span opened with [`Recorder::open`].
    pub fn close(&self, idx: usize) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        if let Some(s) = spans.get_mut(idx) {
            s.end_ns = now;
        }
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.timed(name, parent, request, f).0
    }

    /// Time `f` as a span and also return its duration in nanoseconds.
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, request);
        (out, end - start)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span. Never exceeds the span's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor).min(s.end_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: `(count, total ns, total self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// Spans as JSON lines (name, start, end, parent, request, self).
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q` quantile (nearest rank) of `samples`, reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    let beyond = v.len() - 1 - idx;
    (beyond >= MIN_BEYOND).then(|| v[idx])
}

/// Median without the tail-sample requirement (for a handful of
/// repetitions, e.g. set-up times).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 130, Some(0)), // runs past the parent: clipped
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 100 - 50 - 10);
        assert_eq!(s[1], 30);
        assert_eq!(s[3], 40);
    }

    #[test]
    fn self_time_never_exceeds_span_time() {
        let mut rng = crate::gen::Rng::new(5, 9);
        let mut spans = Vec::new();
        for i in 0..400u64 {
            let start = rng.below(10_000);
            let end = start + rng.below(5_000);
            let parent = (i > 0 && rng.below(3) > 0).then(|| rng.below(i) as usize);
            spans.push(span("x", start, end, parent));
        }
        for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
            assert!(self_ns <= s.dur_ns());
        }
    }

    #[test]
    fn recorder_nests_spans() {
        let r = Recorder::new();
        let outer = r.open("outer", None, 1);
        r.time("inner", Some(outer), 1, || std::hint::black_box(3 + 4));
        r.close(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = by_name(&spans);
        assert_eq!(totals["outer"].0, 1);
        assert!(totals["outer"].2 <= totals["outer"].1);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.999), None);
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), None);
        let twenty: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
