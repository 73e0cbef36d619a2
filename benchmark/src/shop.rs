//! `shop-mix`: independent shoppers against the durable HTTP server,
//! open loop, plus a closed-loop saturation phase.
//!
//! Set-up synthesizes the seed's world into a `ShardedStore` (learning
//! correspondences and extracting every unmatched offer's page), starts
//! an in-process durable `pse_serve::start` server on it, and makes one
//! warm-up pass that builds every category's response and search index.
//!
//! A seeded request stream mixes four kinds of request — `GET /search`
//! with ground-truth queries, `GET /product` lookups,
//! `GET /products/{category}` listings, and a trickle of `POST /ingest` /
//! `POST /retract` churn windows that invalidate response caches and
//! search indexes. The saturation phase replays it closed loop from
//! `nproc` connections and measures the server's capacity. The open-loop
//! phase then replays it as independent shoppers: Poisson arrivals at
//! [`OPEN_LOAD`] of that capacity, from at most `nproc` generator
//! threads. Latency is timed from each request's due time, so a request
//! that waited for a free generator pays for the wait. A generator that
//! runs late, or a backlog that grows over the run, makes the run
//! invalid.
//!
//! A final write-free pass, after the last churn window is retracted,
//! fetches every query once: each `/search` body must equal a direct
//! `ShardedStore::search` on the same snapshot, rendered in the wire
//! format, and precision@1 against the generator's ground truth must
//! reach the documented floor.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pse_core::{AttributeKind, CategoryId, Offer, Spec};
use pse_datagen::{truth_queries, TruthQuery, World, WorldConfig};
use pse_query::{CategoryIndex, Resolution, SearchIndex};
use pse_serve::{ServerConfig, ServerHandle, ShardedStore};
use pse_synthesis::runtime::normalize_key;
use pse_synthesis::{ExtractingProvider, FnProvider, OfflineLearner, SpecProvider};

use crate::http::{encode, request, Timing};
use crate::stats::{mean, median, ratio, sorted, steady, tail};
use crate::{host, obs_layers, trace, Outcome, Rng};

/// The precision@1 floor the search engine is held to.
pub const MIN_PRECISION_AT_1: f64 = 0.80;
/// Hits requested per search.
pub const TOP_K: usize = 10;
/// A generator later than this at p99 invalidates the run.
pub const MAX_LATE_P99_MS: f64 = 100.0;
/// Offers per churn window (one `POST /ingest` or `/retract`).
pub const CHURN_WINDOW: usize = 10;
/// Store shards.
pub const SHARDS: usize = 4;
/// Shares of search, product lookup and listing among reads. A chosen,
/// search-heavy mix (search is the workload's subject), not one measured
/// from shopper traffic.
pub const MIX: [f64; 3] = [0.6, 0.25, 0.15];
/// Open-loop arrival rate as a share of the saturation phase's
/// requests per second. At a quarter of the capacity Poisson bursts
/// queue behind each other now and then without the queue growing; at
/// half of it, a host slowdown of a few seconds pushed the load near
/// saturation, and the spread of the search p50 over ten seeds was 0.21
/// on a 2-CPU host.
pub const OPEN_LOAD: f64 = 0.25;
/// Windows the saturation phase is cut into; its rate is the median
/// window's (see [`steady`]), since the first window runs slow after
/// set-up.
pub const WINDOWS: usize = 10;
/// Distinct requests the saturation phase cycles through.
pub const SAT_REQUESTS: usize = 4_096;

/// Knobs of one shop-mix run.
#[derive(Debug, Clone)]
pub struct ShopConfig {
    /// The world whose synthesized catalog is served.
    pub world: WorldConfig,
    /// Seed of the request stream.
    pub seed: u64,
    /// Ground-truth queries requested from the generator.
    pub queries: usize,
    /// Length of the open-loop phase.
    pub open_seconds: f64,
    /// Length of the closed-loop saturation phase.
    pub sat_seconds: f64,
    /// Every `write_every`-th request is a churn write.
    pub write_every: usize,
    /// Set-ups made; `setup_s` is their median.
    pub setups: usize,
}

impl ShopConfig {
    /// The configuration of a `--seconds` run on `seed`. The served world
    /// is the same on every run and the seed drives the traffic: per-query
    /// search cost differs by up to 1.4x between worlds, which put the
    /// spread of the search latency over seeds at 0.63 with a world per
    /// seed, far past any useful regression bound.
    pub fn for_run(seed: u64, seconds: f64, setups: usize) -> Self {
        Self {
            world: crate::world_config(crate::FIXED_WORLD_SEED, crate::SMOKE_SCALE),
            seed,
            queries: 1_000,
            open_seconds: 0.7 * seconds,
            sat_seconds: 0.3 * seconds,
            write_every: 500,
            setups,
        }
    }

    /// A short run for smoke runs and tests. It keeps the smoke-scale
    /// world: the precision@1 floor is defined on that corpus.
    pub fn tiny(seed: u64) -> Self {
        Self {
            queries: 64,
            open_seconds: 0.5,
            sat_seconds: 0.3,
            write_every: 20,
            setups: 1,
            ..Self::for_run(seed, 1.0, 1)
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `GET /search` with query `i`.
    Search(usize),
    /// `GET /product` for product `i`.
    Product(usize),
    /// `GET /products/{category}` for category `i`.
    Listing(usize),
    /// A churn write: the `n`-th write a server sees ingests churn
    /// window `n / 2` (modulo the pool) when `n` is even and retracts it
    /// when `n` is odd, whichever phase sends it.
    Write,
}

/// A request and when it is due, seconds after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Due time.
    pub at_s: f64,
    /// The request.
    pub kind: Kind,
}

/// Sizes of the request pools a schedule draws from.
#[derive(Debug, Clone, Copy)]
pub struct Pools {
    /// Distinct search queries.
    pub queries: usize,
    /// Distinct products.
    pub products: usize,
    /// Distinct categories.
    pub categories: usize,
}

/// The seeded request stream of `seed` for `seconds`: Poisson arrivals
/// at `rate` per second, reads drawn by [`MIX`], and every
/// `write_every`-th request a churn write. Searches cycle through a
/// seeded permutation of the queries, so every run searches each query
/// about equally often: per-query cost differs by over 3x, and random
/// draws made the search p50 depend on which queries a seed drew. The
/// seed fixes the order of requests and their gaps in units of the mean
/// gap, so every rate gives the same requests, only spaced differently.
pub fn schedule(seed: u64, rate: f64, seconds: f64, write_every: usize, pools: Pools) -> Vec<Due> {
    let mut rng = Rng::new(seed ^ 0x5409_3D1E);
    let mut order: Vec<usize> = (0..pools.queries).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut searches = 0;
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        let i = out.len();
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            break;
        }
        let kind = if (i + 1) % write_every.max(1) == 0 {
            Kind::Write
        } else {
            let u = rng.unit();
            if u < MIX[0] {
                searches += 1;
                Kind::Search(order[(searches - 1) % order.len()])
            } else if u < MIX[0] + MIX[1] {
                Kind::Product(rng.below(pools.products))
            } else {
                Kind::Listing(rng.below(pools.categories))
            }
        };
        out.push(Due { at_s: at, kind });
    }
    out
}

/// The running server plus every request body and path the mix uses.
struct Prepared {
    world: World,
    handle: ServerHandle,
    addr: SocketAddr,
    queries: Vec<TruthQuery>,
    search_paths: Vec<String>,
    product_paths: Vec<String>,
    categories: Vec<CategoryId>,
    ingest_bodies: Vec<String>,
    retract_bodies: Vec<String>,
    /// Churn writes sent so far.
    writes: AtomicUsize,
    rss: [f64; 3],
}

impl Prepared {
    fn pools(&self) -> Pools {
        Pools {
            queries: self.search_paths.len(),
            products: self.product_paths.len(),
            categories: self.categories.len(),
        }
    }

    fn path_of(&self, kind: Kind) -> (&'static str, String, Option<&str>) {
        match kind {
            Kind::Search(i) => ("GET", self.search_paths[i].clone(), None),
            Kind::Product(i) => ("GET", self.product_paths[i].clone(), None),
            Kind::Listing(i) => ("GET", format!("/products/{}", self.categories[i].0), None),
            Kind::Write => {
                let n = self.writes.fetch_add(1, Ordering::Relaxed);
                let window = (n / 2) % self.ingest_bodies.len();
                if n.is_multiple_of(2) {
                    ("POST", "/ingest".to_string(), Some(self.ingest_bodies[window].as_str()))
                } else {
                    ("POST", "/retract".to_string(), Some(self.retract_bodies[window].as_str()))
                }
            }
        }
    }
}

fn prepare(cfg: &ShopConfig, dir: &Path) -> Prepared {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create server directory");
    let rss0 = host::rss_mb();
    let world = World::generate(cfg.world.clone());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let correspondences = OfflineLearner::new()
        .learn(&world.catalog, &world.offers, &world.historical, &provider)
        .correspondences;
    // The wire form `POST /ingest` uses: extracted specs embedded.
    let corpus: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .map(|o| Offer { spec: provider.spec(o), ..o.clone() })
        .collect();
    let rss_world = host::rss_mb() - rss0;
    // The tail tenth is the churn pool; the rest is the served bulk.
    let pool_len = (corpus.len() / 10).max(CHURN_WINDOW);
    let (bulk, pool) = corpus.split_at(corpus.len() - pool_len);
    let ingest_bodies = pool
        .chunks(CHURN_WINDOW)
        .map(|w| serde_json::to_string(&w.to_vec()).expect("offers serialize"))
        .collect();
    let retract_bodies = pool
        .chunks(CHURN_WINDOW)
        .map(|w| serde_json::to_string(&w.iter().map(|o| o.id.0).collect::<Vec<u64>>()))
        .map(|r| r.expect("ids serialize"))
        .collect();
    let rss1 = host::rss_mb();
    let store = ShardedStore::new(correspondences, SHARDS);
    store.ingest(&world.catalog, bulk, &FnProvider(|o: &Offer| -> Spec { o.spec.clone() }));
    let config = ServerConfig {
        wal_path: Some(dir.join("wal.log")),
        snapshot_dir: Some(dir.join("segments")),
        ..ServerConfig::default()
    };
    let handle = pse_serve::start(store, world.catalog.clone(), config).expect("server starts");
    let addr = handle.addr();
    let rss_store = host::rss_mb() - rss1;

    let queries = truth_queries(&world, cfg.queries);
    let search_paths =
        queries.iter().map(|q| format!("/search?q={}&k={TOP_K}", encode(&q.text))).collect();
    let products = handle.store().products();
    let product_paths = products
        .iter()
        .map(|p| {
            format!(
                "/product?category={}&attr={}&key={}",
                p.category.0,
                encode(&p.key_attribute),
                encode(&p.key_value)
            )
        })
        .collect();
    let categories: Vec<CategoryId> =
        products.iter().map(|p| p.category).collect::<BTreeSet<_>>().into_iter().collect();

    // Warm-up: every listing body and, through one search, every
    // category's search index.
    let rss2 = host::rss_mb();
    for c in &categories {
        let _ = request(addr, "GET", &format!("/products/{}", c.0), None);
    }
    let _ = request(addr, "GET", &format!("/search?q=warm&k={TOP_K}"), None);
    let rss_index = host::rss_mb() - rss2;
    Prepared {
        world,
        handle,
        addr,
        queries,
        search_paths,
        product_paths,
        categories,
        ingest_bodies,
        retract_bodies,
        writes: AtomicUsize::new(0),
        rss: [rss_world, rss_store, rss_index],
    }
}

/// One load pass: the saturation phase, then the open loop at `rate`.
struct Pass {
    capacity: Capacity,
    sat: Vec<Sample>,
    rate: f64,
    open: Vec<Sample>,
}

/// One completed (or failed) request of a load phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Due time in the schedule, seconds (0 in the closed loop).
    due_s: f64,
    /// Completion, seconds after the phase started.
    end_s: f64,
    /// From due time (open loop) or send (closed loop) to the last byte.
    latency_us: f64,
    /// How late the generator started the request, ms.
    late_ms: f64,
    timing: Timing,
    ok: bool,
}

/// Replay `sched` open loop from `generators` threads.
fn open_loop(p: &Prepared, sched: &[Due], generators: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(sched.len()));
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..generators.max(1) {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(due) = sched.get(i) else { break };
                    let due_at = t0 + Duration::from_secs_f64(due.at_s);
                    let now = Instant::now();
                    if now < due_at {
                        std::thread::sleep(due_at - now);
                    }
                    let start = Instant::now();
                    let (method, path, body) = p.path_of(due.kind);
                    let result = {
                        let _s = trace::request_span(span_name(due.kind), i as u64);
                        request(p.addr, method, &path, body)
                    };
                    let end = Instant::now();
                    let (ok, timing) = match result {
                        Ok(r) => (r.status == 200, r.timing),
                        Err(_) => (false, Timing::default()),
                    };
                    local.push(Sample {
                        kind: due.kind,
                        due_s: due.at_s,
                        end_s: end.duration_since(t0).as_secs_f64(),
                        latency_us: end.duration_since(due_at).as_secs_f64() * 1e6,
                        late_ms: start.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                        timing,
                        ok,
                    });
                }
                samples.lock().expect("samples").extend(local);
            });
        }
    });
    samples.into_inner().expect("samples")
}

/// Completed requests per second of the phase and of each of its
/// [`WINDOWS`] windows, by completion time.
struct Capacity {
    rps: f64,
    window_rps: Vec<f64>,
}

/// Replay the schedule's kinds closed loop from `connections` threads
/// for `seconds`.
fn saturate(
    p: &Prepared,
    sched: &[Due],
    connections: usize,
    seconds: f64,
) -> (Capacity, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..connections.max(1) {
            s.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let kind = sched[i % sched.len()].kind;
                    let (method, path, body) = p.path_of(kind);
                    let start = Instant::now();
                    let result = request(p.addr, method, &path, body);
                    let (ok, timing) = match result {
                        Ok(r) => (r.status == 200, r.timing),
                        Err(_) => (false, Timing::default()),
                    };
                    local.push(Sample {
                        kind,
                        due_s: 0.0,
                        end_s: t0.elapsed().as_secs_f64(),
                        latency_us: start.elapsed().as_secs_f64() * 1e6,
                        late_ms: 0.0,
                        timing,
                        ok,
                    });
                }
                samples.lock().expect("samples").extend(local);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let samples = samples.into_inner().expect("samples");
    let width = elapsed / WINDOWS as f64;
    let mut done = [0usize; WINDOWS];
    for s in samples.iter().filter(|s| s.ok) {
        done[((s.end_s / width) as usize).min(WINDOWS - 1)] += 1;
    }
    let rps = done.iter().sum::<usize>() as f64 / elapsed;
    (Capacity { rps, window_rps: done.iter().map(|&n| n as f64 / width).collect() }, samples)
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Search(_) => "http.search",
        Kind::Product(_) => "http.product",
        Kind::Listing(_) => "http.listing",
        Kind::Write => "http.write",
    }
}

fn is_search(k: Kind) -> bool {
    matches!(k, Kind::Search(_))
}

fn is_lookup(k: Kind) -> bool {
    matches!(k, Kind::Product(_) | Kind::Listing(_))
}

fn is_write(k: Kind) -> bool {
    matches!(k, Kind::Write)
}

/// Sorted `f` over the successful samples whose kind passes `keep`.
fn pick(samples: &[Sample], keep: fn(Kind) -> bool, f: fn(&Sample) -> f64) -> Vec<f64> {
    sorted(samples.iter().filter(|s| s.ok && keep(s.kind)).map(f).collect())
}

/// Fail the run when the open-loop generator fell behind: a late p99
/// over [`MAX_LATE_P99_MS`], or a backlog that grew — the last fifth of
/// the schedule starting markedly later than the first.
fn check_generator(samples: &[Sample], out: &mut Outcome) -> f64 {
    let late = sorted(samples.iter().map(|s| s.late_ms).collect());
    let p99 = tail(&late, 99.0);
    if p99 > MAX_LATE_P99_MS {
        out.fail(format!("open-loop generator late: p99 {p99:.1} ms > {MAX_LATE_P99_MS} ms"));
    }
    let fifth = (samples.len() / 5).max(1);
    let mut in_order: Vec<(f64, f64)> = samples.iter().map(|s| (s.due_s, s.late_ms)).collect();
    in_order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let by_due: Vec<f64> = in_order.into_iter().map(|(_, late)| late).collect();
    let (head, rest) = by_due.split_at(fifth.min(by_due.len()));
    let last = &rest[rest.len().saturating_sub(fifth)..];
    if mean(last) > mean(head) + MAX_LATE_P99_MS / 4.0 {
        out.fail(format!(
            "open-loop backlog grew: mean lateness {:.1} ms at the end vs {:.1} ms at the start",
            mean(last),
            mean(head)
        ));
    }
    p99
}

/// The `/search` body the server sends for `outcome`, rendered from a
/// direct engine call — the wire format of `GET /search`.
fn search_body(outcome: &pse_serve::SearchOutcome) -> String {
    #[derive(serde::Serialize)]
    struct ConstraintOut {
        phrase: String,
        attribute: String,
        value: String,
        score: f64,
        exact: bool,
    }
    let constraints: Vec<ConstraintOut> = outcome
        .result
        .constraints
        .iter()
        .map(|c| ConstraintOut {
            phrase: c.phrase.clone(),
            attribute: c.attribute.clone(),
            value: c.value.clone(),
            score: c.score,
            exact: c.exact,
        })
        .collect();
    let category = outcome.result.category.map_or_else(|| "null".to_string(), |c| c.0.to_string());
    let hits: Vec<String> = outcome
        .result
        .hits
        .iter()
        .zip(&outcome.hit_json)
        .map(|(hit, json)| {
            format!(
                "{{\"matched\":{},\"score\":{},\"product\":{json}}}",
                hit.matched,
                serde_json::to_string(&hit.score).expect("score serializes")
            )
        })
        .collect();
    format!(
        "{{\"category\":{category},\"constraints\":{},\"hits\":[{}]}}",
        serde_json::to_string(&constraints).expect("constraints serialize"),
        hits.join(",")
    )
}

/// Normalized identifier values of a query's ground-truth answers.
fn answer_keys(world: &World, query: &TruthQuery) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for pid in &query.products {
        let product = world.catalog.product(*pid);
        let Some(info) = world.category_info(product.category) else { continue };
        for t in info.templates.iter().filter(|t| t.kind == AttributeKind::Identifier) {
            if let Some(value) = product.spec.get(&t.name) {
                let key = normalize_key(value);
                if !key.is_empty() {
                    keys.insert(key);
                }
            }
        }
    }
    keys
}

/// The `key_value` of each hit of a `/search` body, in rank order.
fn hit_keys(body: &str) -> Vec<String> {
    let Ok(v) = serde_json::from_str::<serde::Value>(body) else { return Vec::new() };
    let Some(serde::Value::Array(hits)) = v.get("hits") else { return Vec::new() };
    hits.iter()
        .filter_map(|h| match h.get("product").and_then(|p| p.get("key_value")) {
            Some(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// The write-free final pass. It first retracts the churn window the
/// last write ingested, if any, so the pass always sees the served bulk
/// alone. Every `/search` body must then equal the direct engine answer
/// on the same snapshot, and precision@1 over the distinct queries, the
/// run's quality metric, must reach [`MIN_PRECISION_AT_1`].
fn verify(p: &Prepared, out: &mut Outcome) -> f64 {
    if p.writes.load(Ordering::Relaxed) % 2 == 1 {
        let (method, path, body) = p.path_of(Kind::Write);
        if !request(p.addr, method, &path, body).is_ok_and(|r| r.status == 200) {
            out.fail("the final churn retract failed".to_string());
        }
    }
    let store = p.handle.store();
    let served: BTreeSet<String> = store.products().into_iter().map(|p| p.key_value).collect();
    let (mut scored, mut top1, mut mismatched) = (0usize, 0usize, 0usize);
    for (query, path) in p.queries.iter().zip(&p.search_paths) {
        let body = match request(p.addr, "GET", path, None) {
            Ok(r) if r.status == 200 => r.body,
            _ => {
                mismatched += 1;
                continue;
            }
        };
        if body != search_body(&store.search(&query.text, TOP_K)) {
            mismatched += 1;
        }
        let expected: BTreeSet<String> =
            answer_keys(&p.world, query).into_iter().filter(|k| served.contains(k)).collect();
        if expected.is_empty() {
            continue;
        }
        scored += 1;
        top1 += usize::from(hit_keys(&body).first().is_some_and(|k| expected.contains(k)));
    }
    if mismatched > 0 {
        out.fail(format!("{mismatched} /search bodies differ from a direct ShardedStore::search"));
    }
    let precision = ratio(top1 as f64, scored as f64);
    if scored == 0 || precision < MIN_PRECISION_AT_1 {
        out.fail(format!(
            "search precision@1 {precision:.3} over {scored} queries below {MIN_PRECISION_AT_1}"
        ));
    }
    out.note("scored_queries", scored.to_string());
    precision
}

/// Run the workload.
pub fn run(cfg: &ShopConfig, traced: bool) -> Outcome {
    let dir: PathBuf = crate::out_dir().join(format!("shop-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    // The memory deltas of the first set-up; later ones reuse freed pages.
    let mut rss = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(old) = prepared.take() {
            old.handle.shutdown().expect("server stops");
        }
        let t = Instant::now();
        let next = prepare(cfg, &dir);
        setup_s.push(t.elapsed().as_secs_f64());
        rss.get_or_insert(next.rss);
        prepared = Some(next);
    }
    let p = prepared.expect("at least one set-up");
    let rss = rss.expect("at least one set-up");
    let generators = host::nproc();
    let mut out = Outcome {
        config: vec![
            ("world", format!("{:?}", cfg.world)),
            ("schedule_seed", cfg.seed.to_string()),
            ("shards", SHARDS.to_string()),
            ("server_workers", ServerConfig::default().workers.to_string()),
            ("queries", p.queries.len().to_string()),
            ("products", p.product_paths.len().to_string()),
            ("categories", p.categories.len().to_string()),
            ("churn_windows", p.ingest_bodies.len().to_string()),
            ("open_load", OPEN_LOAD.to_string()),
            ("open_seconds", cfg.open_seconds.to_string()),
            ("sat_seconds", cfg.sat_seconds.to_string()),
            ("generators", generators.to_string()),
            ("mix", format!("{MIX:?}")),
            ("write_every", cfg.write_every.to_string()),
            ("setups", cfg.setups.to_string()),
        ],
        ..Outcome::default()
    };
    if p.search_paths.is_empty() || p.product_paths.is_empty() || p.ingest_bodies.is_empty() {
        out.fail("the world yields no queries, products or churn windows".to_string());
        let _ = p.handle.shutdown();
        return out;
    }

    let (open_s, sat_s) = if traced {
        (cfg.open_seconds / 2.0, cfg.sat_seconds / 2.0)
    } else {
        (cfg.open_seconds, cfg.sat_seconds)
    };
    let pools = p.pools();
    // The saturation phase cycles through the stream's first requests.
    let sat_sched = schedule(cfg.seed, 1.0, SAT_REQUESTS as f64, cfg.write_every, pools);
    let pass = |rate: Option<f64>| {
        let (capacity, sat) = saturate(&p, &sat_sched, generators, sat_s);
        let rate = rate.unwrap_or(OPEN_LOAD * capacity.rps).max(1.0);
        let open =
            open_loop(&p, &schedule(cfg.seed, rate, open_s, cfg.write_every, pools), generators);
        Pass { capacity, sat, rate, open }
    };
    // The traced run's untraced baseline pass; its requests are checked
    // like the measured ones, and the traced pass offers the same load.
    let plain = traced.then(|| pass(None));
    if traced {
        pse_obs::set_enabled(true);
        trace::set_enabled(true);
    }
    let run = pass(plain.as_ref().map(|b| b.rate));
    if traced {
        trace::set_enabled(false);
        pse_obs::set_enabled(false);
    }
    // A second untraced pass after the traced one completes the baseline,
    // so a drift over the run does not read as tracing overhead.
    let after = plain.as_ref().map(|b| pass(Some(b.rate)));
    let late_p99 = check_generator(&run.open, &mut out);
    let passes = std::iter::once(&run).chain(&plain).chain(&after);
    let all: Vec<&Sample> = passes.flat_map(|b| b.open.iter().chain(&b.sat)).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|s| !s.ok).count() as u64;
    if out.failed > 0 {
        out.fail(format!("{} requests failed", out.failed));
    }
    let precision = verify(&p, &mut out);

    let Pass { capacity, sat, rate, open } = run;
    let search = pick(&open, is_search, |s| s.latency_us);
    let lookup = pick(&open, is_lookup, |s| s.latency_us);
    out.note("open_rate_per_s", rate.to_string());
    out.note("sat_rps", capacity.rps.to_string());
    out.note("sat_window_rps", format!("{:?}", capacity.window_rps));
    out.note("search_p99_us", tail(&search, 99.0).to_string());
    out.note("lookup_p99_us", tail(&lookup, 99.0).to_string());
    if let (Some(plain), Some(after)) = (plain, after) {
        let spans = trace::take();
        crate::write_trace("shop-mix", &spans);
        let report = pse_obs::report();
        let writes = open.iter().chain(&sat).filter(|s| s.ok && is_write(s.kind)).count();
        let mut m = obs_layers(&report, writes as u64, (writes * CHURN_WINDOW / 2) as u64);
        m.extend(direct_layers(&p));
        let all = pick(&open, |_| true, |s| s.timing.connect_us);
        m.insert("http.connect_us", median(&all));
        let product = pick(&open, |k| matches!(k, Kind::Product(_)), |s| s.timing.ttfb_us);
        m.insert("http.ttfb_us.lookup", median(&product));
        m.insert("http.ttfb_us.search", median(&pick(&open, is_search, |s| s.timing.ttfb_us)));
        let listing = |k| matches!(k, Kind::Listing(_));
        m.insert("http.body_us.listing", median(&pick(&open, listing, |s| s.timing.body_us)));
        m.insert("http.bytes.listing", mean(&pick(&open, listing, |s| s.timing.bytes as f64)));
        m.insert(
            "http.write_us",
            median(&pick(&open, is_write, |s| {
                s.timing.connect_us + s.timing.send_us + s.timing.ttfb_us + s.timing.body_us
            })),
        );
        m.insert("gen.late_ms.p99", late_p99);
        m.insert("rss.world_mb", rss[0]);
        m.insert("rss.store_mb", rss[1]);
        m.insert("rss.index_mb", rss[2]);
        let baseline = |f: &dyn Fn(&Pass) -> f64| (f(&plain) + f(&after)) / 2.0;
        m.insert(
            "trace.overhead_pct",
            100.0 * baseline(&|b| b.capacity.rps) / capacity.rps - 100.0,
        );
        let search_p50 = |b: &Pass| median(&pick(&b.open, is_search, |s| s.latency_us));
        m.insert(
            "trace.overhead_pct.primary_us",
            100.0 * median(&search) / baseline(&search_p50) - 100.0,
        );
        out.metrics = m;
    } else {
        out.metrics.insert("setup_s", median(&sorted(setup_s)));
        out.metrics.insert("peak_rss_mb", host::peak_rss_mb());
        out.metrics.insert("throughput_per_s", steady(&capacity.window_rps));
        out.metrics.insert("primary_us", median(&search));
        out.metrics.insert("secondary_us", median(&lookup));
        out.metrics.insert("quality", precision);
    }
    out.note("open_requests", open.len().to_string());
    out.note("open_searches", search.len().to_string());
    out.note("sat_requests", sat.len().to_string());
    if p.handle.shutdown().is_err() {
        out.fail("server shutdown failed".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Per-layer metrics from direct, single-threaded calls on the warm
/// snapshot: response lookups, the search engine and its stages.
fn direct_layers(p: &Prepared) -> crate::Metrics {
    let store = p.handle.store();
    let time_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut m = crate::Metrics::new();
    let products = store.products();
    let product_us = products
        .iter()
        .map(|pr| {
            let key = (pr.category, pr.key_attribute.clone(), pr.key_value.clone());
            time_us(&mut || {
                std::hint::black_box(store.product_response(&key));
            })
        })
        .collect();
    m.insert("serve.product_response_us", median(&sorted(product_us)));
    let listing_us = p
        .categories
        .iter()
        .map(|&c| {
            time_us(&mut || {
                std::hint::black_box(store.products_response(c));
            })
        })
        .collect();
    m.insert("serve.products_response_us", median(&sorted(listing_us)));

    let search_us: Vec<f64> = p
        .queries
        .iter()
        .map(|q| {
            time_us(&mut || {
                std::hint::black_box(store.search(&q.text, TOP_K));
            })
        })
        .collect();
    let search_total: f64 = search_us.iter().sum();
    let search_us = sorted(search_us);
    m.insert("query.search_us.p50", median(&search_us));
    m.insert("query.search_us.p99", tail(&search_us, 99.0));

    // The engine's per-category indexes, exactly as searches see them.
    let snap = store.snapshot();
    let index: SearchIndex = snap
        .search
        .iter()
        .map(|(&c, slot)| (c, slot.get_or_build(&snap.shards, c, store.correspondences())))
        .collect();
    let (mut resolve_us, mut fuzzy_us, mut fuzzy_calls) = (Vec::new(), Vec::new(), 0usize);
    for q in &p.queries {
        let toks = pse_text::tokens(&q.text);
        let mut resolutions = Vec::new();
        resolve_us.push(time_us(&mut || {
            resolutions = index.values().map(|ci| Resolution::resolve(ci, &toks)).collect();
        }));
        // The resolver falls back to fuzzy matching for tokens no exact
        // constraint covers; probe each such token once per category.
        for (ci, r) in index.values().zip(&resolutions) {
            let covered: BTreeSet<&str> = r
                .constraints
                .iter()
                .filter(|c| c.exact)
                .flat_map(|c| c.phrase.split(' '))
                .collect();
            for tok in toks.iter().filter(|t| !covered.contains(t.as_str())) {
                fuzzy_calls += 1;
                fuzzy_us.push(time_us(&mut || {
                    std::hint::black_box(ci.fuzzy_value(tok));
                }));
            }
        }
    }
    let fuzzy_total: f64 = fuzzy_us.iter().sum();
    m.insert("query.resolve_us", median(&sorted(resolve_us)));
    m.insert("query.fuzzy_us", median(&sorted(fuzzy_us)));
    m.insert("query.fuzzy_calls_per_search", ratio(fuzzy_calls as f64, p.queries.len() as f64));
    m.insert("query.fuzzy_share", ratio(fuzzy_total, search_total).min(1.0));

    let build_ms = p
        .categories
        .iter()
        .map(|&c| {
            let products = store.products_in_category(c);
            let refs: Vec<_> = products.iter().collect();
            time_us(&mut || {
                std::hint::black_box(CategoryIndex::build(c, &refs, store.correspondences()));
            }) / 1e3
        })
        .collect();
    m.insert("query.index_build_ms", median(&sorted(build_ms)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(sched: &[Due], keep: fn(Kind) -> bool) -> usize {
        sched.iter().filter(|d| keep(d.kind)).count()
    }

    fn pools() -> Pools {
        Pools { queries: 50, products: 400, categories: 11 }
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(7, 200.0, 5.0, 500, pools());
        assert_eq!(a, schedule(7, 200.0, 5.0, 500, pools()));
        assert_ne!(a, schedule(8, 200.0, 5.0, 500, pools()));
        // Poisson arrivals near the rate, in due order.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        // Another rate spaces the same requests differently.
        let b = schedule(7, 400.0, 5.0, 500, pools());
        assert!(b.len() > a.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert!((x.at_s - 2.0 * y.at_s).abs() < 1e-9);
        }
        // Every kind appears; every 500th request is a churn write.
        assert!(count(&a, is_search) > count(&a, is_lookup) / 2);
        // Searches cycle through every query equally often.
        let mut per_query = vec![0; pools().queries];
        for d in &a {
            if let Kind::Search(q) = d.kind {
                per_query[q] += 1;
            }
        }
        let (lo, hi) = (per_query.iter().min().unwrap(), per_query.iter().max().unwrap());
        assert!(*lo > 0 && hi - lo <= 1, "{lo}..{hi}");
        assert_eq!(count(&a, is_write), a.len() / 500);
    }

    #[test]
    fn tiny_shop_mix_serves_correct_searches() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&ShopConfig::tiny(31), false);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.failed, 0);
        for name in ["throughput_per_s", "primary_us", "secondary_us", "quality"] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn tiny_traced_shop_mix_fills_the_serve_and_query_layers() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&ShopConfig::tiny(32), true);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        for name in [
            "http.connect_us",
            "http.ttfb_us.search",
            "http.bytes.listing",
            "serve.product_response_us",
            "query.search_us.p50",
            "query.resolve_us",
            "query.index_build_ms",
        ] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }
}
