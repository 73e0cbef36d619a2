//! `catalog-build`: the paper's Fig. 4 path as a batch job.
//!
//! Set-up generates the world and renders every landing page, so the
//! timed phase runs only program code: `OfflineLearner::learn` over the
//! historical matches, then `Pipeline::process` over the unmatched
//! offers in the run's arrival order, both through an
//! `ExtractingProvider` over the pre-rendered pages. Builds repeat until
//! the run's time is spent; every build must produce byte-identical
//! products.
//!
//! The traced run makes a traced build between two untraced ones (the
//! overhead baseline). The traced build calls the same layers through
//! their public parts — `FeatureIndex::build_matched` +
//! `learn_from_index` for the learner, `reconcile_batch` →
//! `cluster_by_key` → `fuse_cluster` for the pipeline — with a span
//! around each call and around every page extraction. Its products must
//! equal the untraced builds'.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pse_core::{Offer, Spec};
use pse_datagen::{World, WorldConfig};
use pse_extract::PageExtractor;
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::runtime::{cluster_by_key, fuse_cluster, reconcile_batch, RuntimeConfig};
use pse_synthesis::{
    ExtractingProvider, OfflineLearner, Pipeline, SpecProvider, SynthesizedProduct,
};

use crate::stats::{mean, median, ratio, sorted};
use crate::{digest, host, obs_layers, trace, Outcome, Rng};

/// Lowest attribute precision a build of a smoke or test world may
/// reach (the paper's Table 2 reports ≈0.9).
pub const MIN_ATTR_PRECISION: f64 = 0.85;

/// Attribute precision of the products of the default-scale world on
/// the fixed world seed, as measured when the benchmark was defined; every
/// arrival order measured gave this value.
pub const DEFAULT_WORLD_PRECISION: f64 = 0.9491738214806416;

/// How far below [`DEFAULT_WORLD_PRECISION`] a default-scale build may
/// fall. Fusion breaks near-ties in member order, so an arrival order
/// could in principle flip a few attributes (one attribute moves
/// precision by about 5e-5); a change that trades quality for speed moves
/// it by more.
pub const PRECISION_SLACK: f64 = 0.002;

/// Knobs of one catalog-build run.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// The world to build the catalog from.
    pub world: WorldConfig,
    /// Seed of the order in which the unmatched offers arrive.
    pub order_seed: u64,
    /// Lowest attribute precision the products may reach.
    pub min_precision: f64,
    /// Set-ups made; `setup_s` is their median.
    pub setups: usize,
    /// Builds repeat until this much time has been spent building.
    pub seconds: f64,
}

/// `Pipeline::process` calls per learned correspondence set in the
/// untraced run: one call takes a quarter of a learn, so repeating it
/// gives its median more samples per run.
pub const PROCESS_REPEATS: usize = 3;

/// One timed build: a learn, then one or more identical synthesis passes.
struct Build {
    learn_s: f64,
    process_s: Vec<f64>,
    /// The digest of each synthesis pass's products.
    digests: Vec<u64>,
    /// The products of the first pass (the others are dropped once
    /// digested, so a run's memory does not grow with its passes).
    products: Vec<SynthesizedProduct>,
}

/// The generated world plus every landing page, rendered once.
struct Prepared {
    world: World,
    pages: Vec<String>,
}

fn prepare(config: &WorldConfig) -> Prepared {
    let world = World::generate(config.clone());
    let ids: Vec<_> = world.offers.iter().map(|o| o.id).collect();
    let pages = world.landing_pages(&ids);
    Prepared { world, pages }
}

/// Run the workload.
pub fn run(cfg: &CatalogConfig, traced: bool) -> Outcome {
    let rss0 = host::rss_mb();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..cfg.setups.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(&cfg.world));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rss_world = host::rss_mb() - rss0;
    let Prepared { world, pages } = prepared.expect("at least one set-up");
    let mut unmatched: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    arrival_order(&mut unmatched, cfg.order_seed);

    let mut out = Outcome {
        config: vec![
            ("world", format!("{:?}", cfg.world)),
            ("order_seed", cfg.order_seed.to_string()),
            ("min_precision", cfg.min_precision.to_string()),
            ("setups", cfg.setups.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("unmatched_offers", unmatched.len().to_string()),
            ("threads", pse_par::current_threads().to_string()),
        ],
        ..Outcome::default()
    };

    let mut builds = Vec::new();
    if traced {
        builds.push(build(&world, &pages, &unmatched, 1));
        let (traced_build, layers) = traced_build(&world, &pages, &unmatched);
        out.metrics = layers;
        builds.push(traced_build);
        builds.push(build(&world, &pages, &unmatched, 1));
    } else {
        let t0 = Instant::now();
        loop {
            builds.push(build(&world, &pages, &unmatched, PROCESS_REPEATS));
            if t0.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
        }
    }
    out.attempted = builds.len() as u64;

    // Every pass must produce the same products; quality is checked on
    // the first (the rest are byte-identical to it).
    let products = &builds[0].products;
    let first = builds[0].digests[0];
    for (i, b) in builds.iter().enumerate() {
        if b.digests.iter().any(|&d| d != first) {
            out.fail(format!("build {i} products differ from build 0 (digest mismatch)"));
        }
    }
    let precision = pse_eval::evaluate_synthesis(&world, products).attribute_precision();
    if precision < cfg.min_precision {
        out.fail(format!("attribute precision {precision} below {}", cfg.min_precision));
    }
    if products.is_empty() {
        out.fail("no products synthesized".to_string());
    }
    out.note("products_digest", format!("{first:016x}"));
    out.note("products", products.len().to_string());

    let process_s: Vec<f64> = builds.iter().flat_map(|b| b.process_s.iter().copied()).collect();
    let learn_s: Vec<f64> = builds.iter().map(|b| b.learn_s).collect();
    out.note("process_s", format!("{process_s:?}"));
    out.note("learn_s", format!("{learn_s:?}"));
    // Means, not medians: over a run's dozen passes and handful of learns
    // the mean moved less from run to run (quartile spread over ten seeds
    // 0.16 against 0.20 for both).
    let (process, learn) = (mean(&process_s), mean(&learn_s));
    if traced {
        // builds[1] is the traced build; the untraced builds before and
        // after it are the baseline, so a drift over the run does not read
        // as tracing overhead.
        let traced = &builds[1];
        let traced_p = traced.process_s[0];
        let plain_p = (builds[0].process_s[0] + builds[2].process_s[0]) / 2.0;
        let plain_learn = (builds[0].learn_s + builds[2].learn_s) / 2.0;
        out.metrics.insert(
            "trace.overhead_pct",
            100.0 * (traced.learn_s + traced_p) / (plain_learn + plain_p) - 100.0,
        );
        out.metrics.insert("trace.overhead_pct.primary_us", 100.0 * traced_p / plain_p - 100.0);
        out.metrics.insert("rss.world_mb", rss_world);
        out.metrics.insert("runtime.products", traced.products.len() as f64);
    } else {
        out.metrics.insert("setup_s", median(&sorted(setup_s)));
        out.metrics.insert("peak_rss_mb", host::peak_rss_mb());
        out.metrics.insert("throughput_per_s", unmatched.len() as f64 / process);
        out.metrics.insert("primary_us", process * 1e6);
        out.metrics.insert("secondary_us", learn * 1e6);
        out.metrics.insert("quality", precision);
    }
    out
}

/// Shuffle `offers` into the arrival order of `seed` (Fisher–Yates).
pub fn arrival_order(offers: &mut [Offer], seed: u64) {
    let mut rng = Rng::new(seed ^ 0xA441_7A1E);
    for i in (1..offers.len()).rev() {
        offers.swap(i, rng.below(i + 1));
    }
}

/// One untraced build: learn, then synthesize the unmatched offers
/// `passes` times.
fn build(world: &World, pages: &[String], unmatched: &[Offer], passes: usize) -> Build {
    let provider = ExtractingProvider::new(|o: &Offer| pages[o.id.index()].clone());
    let t = Instant::now();
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let learn_s = t.elapsed().as_secs_f64();
    let pipeline = Pipeline::builder()
        .catalog(world.catalog.clone())
        .correspondences(offline.correspondences)
        .build()
        .expect("catalog and correspondences supplied");
    let (mut process_s, mut digests, mut products) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..passes {
        let t = Instant::now();
        let result = pipeline.process(unmatched, &provider);
        process_s.push(t.elapsed().as_secs_f64());
        digests.push(digest(&result.products));
        if pass == 0 {
            products = result.products;
        }
    }
    Build { learn_s, process_s, digests, products }
}

/// `ExtractingProvider` with a span around every page extraction.
struct TracedExtractor<'a> {
    pages: &'a [String],
    extractor: PageExtractor,
    pages_extracted: AtomicU64,
    pairs: AtomicU64,
}

impl SpecProvider for TracedExtractor<'_> {
    fn spec(&self, offer: &Offer) -> Spec {
        let html = self.pages[offer.id.index()].clone();
        let mut spec = {
            let _s = trace::span("extract.page");
            self.extractor.extract(&html)
        };
        self.pages_extracted.fetch_add(1, Ordering::Relaxed);
        self.pairs.fetch_add(spec.len() as u64, Ordering::Relaxed);
        for pair in offer.spec.iter() {
            spec.push(pair.name.clone(), pair.value.clone());
        }
        spec
    }
}

/// The traced build and its per-layer table.
fn traced_build(world: &World, pages: &[String], unmatched: &[Offer]) -> (Build, crate::Metrics) {
    let provider = TracedExtractor {
        pages,
        extractor: PageExtractor::new(),
        pages_extracted: AtomicU64::new(0),
        pairs: AtomicU64::new(0),
    };
    let catalog = &world.catalog;
    pse_obs::set_enabled(true);
    trace::set_enabled(true);

    let t = Instant::now();
    let index = {
        let _p = trace::phase("offline.bags");
        FeatureIndex::build_matched(catalog, &world.offers, &world.historical, &provider)
    };
    let historical_offers =
        world.offers.iter().filter(|o| world.historical.product_of(o.id).is_some()).count();
    let offline = {
        let _p = trace::phase("offline.learn_from_index");
        OfflineLearner::new().learn_from_index(catalog, &index, historical_offers)
    };
    let learn_s = t.elapsed().as_secs_f64();
    drop(index);

    let config = RuntimeConfig::default();
    let t = Instant::now();
    let reconciled = {
        let _p = trace::phase("runtime.reconcile");
        reconcile_batch(unmatched, &offline.correspondences, &provider)
    };
    let clusters = {
        let _p = trace::phase("runtime.cluster");
        cluster_by_key(reconciled, &config.key_attributes)
    };
    let kept: Vec<_> =
        clusters.into_iter().filter(|c| c.members.len() >= config.min_cluster_size).collect();
    let products: Vec<SynthesizedProduct> = {
        let _p = trace::phase("runtime.fuse");
        pse_par::par_map_chunked(&kept, 4, |c| fuse_cluster(catalog, c, &config))
            .into_iter()
            .flatten()
            .collect()
    };
    let process_s = t.elapsed().as_secs_f64();

    trace::set_enabled(false);
    pse_obs::set_enabled(false);
    let spans = trace::take();
    crate::write_trace("catalog-build", &spans);
    let table = trace::SpanTable::new(&spans);
    let report = pse_obs::report();
    let mut m = obs_layers(&report, 0, 0);

    let pages_extracted = provider.pages_extracted.load(Ordering::Relaxed) as f64;
    m.insert("extract.page_us", median(&table.durations_us("extract.page")));
    m.insert("extract.busy_s", table.total_s("extract.page"));
    m.insert(
        "extract.pairs_per_page",
        ratio(provider.pairs.load(Ordering::Relaxed) as f64, pages_extracted),
    );
    let span_s = |suffix: &str| {
        report
            .spans
            .iter()
            .filter(|s| s.path.ends_with(suffix))
            .map(|s| s.total_ns as f64 / 1e9)
            .sum::<f64>()
    };
    m.insert("offline.bags_s", table.self_s("offline.bags"));
    m.insert("offline.features_s", span_s("offline.features"));
    m.insert("offline.train_s", span_s("offline.train"));
    m.insert("offline.score_s", span_s("offline.score"));
    m.insert("offline.candidates", offline.stats.candidates as f64);
    m.insert(
        "offline.accept_ratio",
        ratio(offline.stats.predicted_valid as f64, offline.stats.candidates as f64),
    );
    m.insert("runtime.reconcile_s", table.total_s("runtime.reconcile"));
    m.insert("runtime.cluster_s", table.total_s("runtime.cluster"));
    m.insert("runtime.fuse_s", table.total_s("runtime.fuse"));
    (Build { learn_s, process_s: vec![process_s], digests: vec![digest(&products)], products }, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> CatalogConfig {
        CatalogConfig {
            world: WorldConfig { seed, ..WorldConfig::tiny() },
            order_seed: seed,
            min_precision: MIN_ATTR_PRECISION,
            setups: 2,
            seconds: 0.0,
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_arrival_order() {
        let world = World::generate(WorldConfig::tiny());
        let order = |seed| {
            let mut offers = world.offers.clone();
            arrival_order(&mut offers, seed);
            offers.iter().map(|o| o.id).collect::<Vec<_>>()
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut ids = order(3);
        ids.sort_unstable();
        assert_eq!(ids, world.offers.iter().map(|o| o.id).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_catalog_build_passes_its_checks() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&CatalogConfig { seconds: 0.05, ..tiny(11) }, false);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.attempted >= 1);
        for name in ["setup_s", "throughput_per_s", "primary_us", "secondary_us", "quality"] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn tiny_traced_build_matches_the_untraced_build() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&tiny(12), true);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        // Untraced, traced, untraced.
        assert_eq!(out.attempted, 3);
        for name in [
            "extract.page_us",
            "extract.busy_s",
            "offline.bags_s",
            "offline.features_s",
            "offline.candidates",
            "runtime.reconcile_s",
            "runtime.fuse_s",
            "runtime.kept_pair_ratio",
            "runtime.products",
        ] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }
}
