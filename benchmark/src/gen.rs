//! Seeded open-loop traffic: arrival schedules, query streams and route
//! mixes, all pure functions of the workload seed.
//!
//! The program under test only ever sees the request bodies this module
//! renders; nothing here reads a clock.

use cosmo_serving::{NavigateRequest, ReloadRequest, ServeRequest};
use cosmo_synth::scale::mix64;
use std::sync::Arc;

/// splitmix64 stream: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a purpose tag, so two streams drawn
    /// from one seed never share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(0x0C05_0B0E))))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Exponential gap with the given rate (events per unit).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(s) over ranks `0..n`, sampled by binary search over the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for r in 0..n.max(1) {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// What one arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/serve-intents`.
    Serve,
    /// `POST /v1/navigate`.
    Navigate,
    /// `POST /ops/reload`.
    Reload,
}

impl Route {
    /// The HTTP path of this route.
    pub fn path(self) -> &'static str {
        match self {
            Route::Serve => "/v1/serve-intents",
            Route::Navigate => "/v1/navigate",
            Route::Reload => "/ops/reload",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Route::Serve => 0,
            Route::Navigate => 1,
            Route::Reload => 2,
        }
    }
}

/// One scheduled request. Bodies are rendered from the schedule when
/// sent, so a long window stays small in memory.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the window start.
    pub due_ns: u64,
    /// Which of the client connections sends it.
    pub conn: u8,
    /// Route.
    pub route: Route,
    /// Whether the query was drawn from the never-seen set.
    pub novel: bool,
    /// Index into the ranked queries, or the novel query's serial.
    pub item: u32,
}

/// A window's arrivals plus what is needed to render their bodies.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Arrivals in due-time order.
    pub arrivals: Vec<Arrival>,
    seed: u64,
    window: u64,
    ranked: Arc<Vec<String>>,
    reload_path: String,
}

impl Schedule {
    /// The query an arrival carries (the snapshot path, for a reload).
    pub fn query(&self, a: &Arrival) -> String {
        match (a.route, a.novel) {
            (Route::Reload, _) => self.reload_path.clone(),
            (_, true) => novel_query(self.seed, self.window, a.item as u64),
            _ => self.ranked[a.item as usize].clone(),
        }
    }

    /// The exact request body an arrival sends.
    pub fn body(&self, a: &Arrival) -> String {
        let query = self.query(a);
        match a.route {
            Route::Serve => ServeRequest::new(query).to_json(),
            Route::Navigate => NavigateRequest { query, k: NAV_K }.to_json(),
            Route::Reload => ReloadRequest::new(query).to_json(),
        }
    }

    /// Canonical bytes of the schedule, for reproducibility checks.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for a in &self.arrivals {
            let body = self.body(a);
            out.extend_from_slice(&a.due_ns.to_le_bytes());
            out.push(a.conn);
            out.push(a.route.tag());
            out.push(a.novel as u8);
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(body.as_bytes());
        }
        out
    }
}

/// Where queries come from.
#[derive(Debug, Clone)]
pub struct QueryStream {
    /// Query texts in popularity order at time zero.
    pub ranked: Arc<Vec<String>>,
    /// Zipf exponent over `ranked`.
    pub zipf_s: f64,
    /// How many ranks the popularity order rotates per second (0 = fixed).
    pub drift_per_s: f64,
    /// Share of serve-intents arrivals that carry a never-seen query.
    pub novel_share: f64,
}

/// The arrival process of one measurement window.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Offered rate over all routes except reloads, requests per second.
    pub rate: f64,
    /// Window length in seconds.
    pub secs: f64,
    /// Client connections the arrivals are spread over.
    pub conns: u8,
    /// Share of arrivals that are navigate requests.
    pub nav_share: f64,
    /// Reload cadence in seconds (sent on connection 0), if any.
    pub reload_every_s: Option<f64>,
    /// Snapshot file named in reload bodies.
    pub reload_path: String,
}

/// Default `k` of the navigate bodies.
pub const NAV_K: usize = 5;

/// Draw the window's schedule: a pure function of `(seed, window,
/// spec, stream)`. `window` separates the streams of several windows in
/// one run so each is independent yet reproducible.
pub fn schedule(seed: u64, window: u64, spec: &TrafficSpec, stream: &QueryStream) -> Schedule {
    let mut arrivals_rng = Rng::new(seed, 1 + window * 16);
    let mut route_rng = Rng::new(seed, 2 + window * 16);
    let mut query_rng = Rng::new(seed, 3 + window * 16);
    let zipf = Zipf::new(stream.ranked.len(), stream.zipf_s);
    let horizon_ns = (spec.secs * 1e9) as u64;
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let mut novel_serial = 0u32;
    loop {
        t += arrivals_rng.exp(spec.rate);
        let due_ns = (t * 1e9) as u64;
        if due_ns >= horizon_ns {
            break;
        }
        let conn = route_rng.below(spec.conns.max(1) as u64) as u8;
        let route = if route_rng.unit() < spec.nav_share {
            Route::Navigate
        } else {
            Route::Serve
        };
        let novel = route == Route::Serve && query_rng.unit() < stream.novel_share;
        let item = if novel {
            novel_serial += 1;
            novel_serial
        } else {
            let rank = zipf.sample(&mut query_rng);
            let shift = (t * stream.drift_per_s) as usize;
            ((rank + shift) % stream.ranked.len()) as u32
        };
        arrivals.push(Arrival {
            due_ns,
            conn,
            route,
            novel,
            item,
        });
    }
    if let Some(every) = spec.reload_every_s {
        let mut at = every / 2.0;
        while at < spec.secs {
            arrivals.push(Arrival {
                due_ns: (at * 1e9) as u64,
                conn: 0,
                route: Route::Reload,
                novel: false,
                item: 0,
            });
            at += every;
        }
        arrivals.sort_by_key(|a| a.due_ns);
    }
    Schedule {
        arrivals,
        seed,
        window,
        ranked: Arc::clone(&stream.ranked),
        reload_path: spec.reload_path.clone(),
    }
}

/// A query text no world generates: it misses the knowledge graph, so
/// the batch path must fall through to the student model.
pub fn novel_query(seed: u64, window: u64, serial: u64) -> String {
    const WORDS: [&str; 8] = [
        "gift", "outdoor", "compact", "travel", "kids", "winter", "garden", "office",
    ];
    let r = mix64(seed ^ mix64(window.wrapping_mul(0x9E37) ^ serial));
    format!(
        "unseen {} {} idea {seed:x}-{window}-{serial}",
        WORDS[(r % 8) as usize],
        WORDS[((r >> 8) % 8) as usize]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> QueryStream {
        QueryStream {
            ranked: Arc::new((0..500).map(|i| format!("query {i}")).collect()),
            zipf_s: 1.0,
            drift_per_s: 40.0,
            novel_share: 0.05,
        }
    }

    fn spec() -> TrafficSpec {
        TrafficSpec {
            rate: 2_000.0,
            secs: 0.5,
            conns: 2,
            nav_share: 0.1,
            reload_every_s: Some(0.2),
            reload_path: "snap.kg2".to_string(),
        }
    }

    #[test]
    fn same_seed_gives_identical_schedule_bytes() {
        let a = schedule(7, 0, &spec(), &stream()).bytes();
        let b = schedule(7, 0, &spec(), &stream()).bytes();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_or_window_gives_a_different_schedule() {
        let a = schedule(7, 0, &spec(), &stream()).bytes();
        assert_ne!(a, schedule(8, 0, &spec(), &stream()).bytes());
        assert_ne!(a, schedule(7, 1, &spec(), &stream()).bytes());
    }

    #[test]
    fn schedule_honours_rate_mix_and_reload_cadence() {
        let s = schedule(11, 0, &spec(), &stream()).arrivals;
        let requests = s.iter().filter(|a| a.route != Route::Reload).count();
        // 2000/s over 0.5 s: Poisson mean 1000, well inside ±15%
        assert!((850..=1150).contains(&requests), "{requests}");
        let nav = s.iter().filter(|a| a.route == Route::Navigate).count();
        let share = nav as f64 / requests as f64;
        assert!((0.06..0.14).contains(&share), "{share}");
        let reloads: Vec<u64> = s
            .iter()
            .filter(|a| a.route == Route::Reload)
            .map(|a| a.due_ns)
            .collect();
        assert_eq!(reloads, vec![100_000_000, 300_000_000]);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().any(|a| a.novel));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(3, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top10 = draws.iter().filter(|&&r| r < 10).count();
        assert!(top10 > 3_000, "top-10 share too small: {top10}");
        assert!(draws.iter().all(|&r| r < 1000));
    }
}
