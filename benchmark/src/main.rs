//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload catalog-build|merchant-ingest|shop-mix \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each invocation runs one workload in this process, in-process
//! against the workspace crates' public APIs, on inputs generated from
//! `--seed`. It checks the outputs, prints the stamped result record as
//! a `# record` line and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end metrics; with `--trace 1` they are the
//! per-layer metrics of a separate traced run (see `METRICS.md`). Any
//! failed check makes the exit code non-zero.
//!
//! `--smoke` shrinks every workload to a tiny world for a quick look;
//! smoke runs never write the result record file.

mod catalog;
mod host;
mod http;
mod ingest;
mod shop;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use pse_datagen::WorldConfig;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, reported by every workload's untraced run
/// (name, unit). `METRICS.md` defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("primary_us", "us"),
    ("secondary_us", "us"),
    ("quality", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run (name,
/// unit). A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("extract.page_us", "us"),
    ("extract.busy_s", "s"),
    ("extract.pairs_per_page", "count"),
    ("offline.bags_s", "s"),
    ("offline.features_s", "s"),
    ("offline.train_s", "s"),
    ("offline.score_s", "s"),
    ("offline.candidates", "count"),
    ("offline.accept_ratio", "ratio"),
    ("runtime.reconcile_s", "s"),
    ("runtime.cluster_s", "s"),
    ("runtime.fuse_s", "s"),
    ("runtime.kept_pair_ratio", "ratio"),
    ("runtime.products", "count"),
    ("store.reconcile_us", "us"),
    ("store.apply_us", "us"),
    ("store.clusters_dirty_per_commit", "count"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.group_wait_us.p50", "us"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.group_size_mean", "count"),
    ("wal.bytes_per_offer", "B"),
    ("snapshot.bytes_written", "B"),
    ("recovery.read_wal_s", "s"),
    ("recovery.apply_s", "s"),
    ("recovery.us_per_record", "us"),
    ("recovery.records", "count"),
    ("http.connect_us", "us"),
    ("http.ttfb_us.lookup", "us"),
    ("http.ttfb_us.search", "us"),
    ("http.body_us.listing", "us"),
    ("http.bytes.listing", "B"),
    ("http.write_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.product_response_us", "us"),
    ("serve.products_response_us", "us"),
    ("query.search_us.p50", "us"),
    ("query.search_us.p99", "us"),
    ("query.resolve_us", "us"),
    ("query.fuzzy_us", "us"),
    ("query.fuzzy_calls_per_search", "count"),
    ("query.fuzzy_share", "ratio"),
    ("query.candidates_per_search", "count"),
    ("query.index_build_ms", "ms"),
    ("query.index_rebuilds", "count"),
    ("rss.world_mb", "MiB"),
    ("rss.store_mb", "MiB"),
    ("rss.index_mb", "MiB"),
    ("gen.late_ms.p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_pct.primary_us", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload's full configuration, for the result record.
    pub config: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record a failed correctness check.
    fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Record a configuration or output fact in the result record.
    fn note(&mut self, key: &'static str, value: String) {
        self.config.push((key, value));
    }
}

/// FNV-1a digest of the products' JSON: equal digests, equal products.
pub fn digest<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("products serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Per-layer metrics the program's own `PSE_OBS` counters and
/// histograms provide. `commits` and `offers` are the workload's durable
/// commits and ingested offers (0 when it makes none).
pub fn obs_layers(report: &pse_obs::ObsReport, commits: u64, offers: u64) -> Metrics {
    use stats::{histogram_percentile, ratio};
    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    let hist = |name: &str| report.histograms.iter().find(|h| h.name == name);
    let hist_pct = |name: &str, p: f64| hist(name).map_or(0.0, |h| histogram_percentile(h, p));
    let hist_count = |name: &str| hist(name).map_or(0.0, |h| h.count as f64);
    let hist_mean = |name: &str| hist(name).map_or(0.0, |h| ratio(h.sum as f64, h.count as f64));
    let (commits, offers) = (commits as f64, offers as f64);
    let kept = counter("runtime.pairs_kept");
    let hits = counter("serve.cache.hit");
    let mut m = Metrics::new();
    m.insert(
        "runtime.kept_pair_ratio",
        ratio(kept, kept + counter("runtime.pairs_discarded_unmapped")),
    );
    m.insert("store.clusters_dirty_per_commit", ratio(counter("store.clusters_dirty"), commits));
    m.insert("wal.fsync_us.p50", hist_pct("wal.fsync_us", 50.0));
    m.insert("wal.fsync_us.p99", hist_pct("wal.fsync_us", 99.0));
    m.insert("wal.group_wait_us.p50", hist_pct("wal.group_wait_us", 50.0));
    m.insert("wal.fsyncs_per_commit", ratio(hist_count("wal.fsync_us"), commits));
    m.insert("wal.group_size_mean", hist_mean("wal.group_size"));
    m.insert("wal.bytes_per_offer", ratio(counter("wal.bytes"), offers));
    m.insert("serve.cache_hit_ratio", ratio(hits, hits + counter("serve.cache.miss")));
    m.insert("query.candidates_per_search", hist_mean("query.candidates"));
    m.insert(
        "query.index_rebuilds",
        report
            .spans
            .iter()
            .filter(|s| s.path.ends_with("query.index_build"))
            .map(|s| s.count as f64)
            .sum(),
    );
    m
}

/// Scratch directory inside the working directory for WAL state, trace
/// files and result records.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// Write a traced run's spans (JSON lines, self time included).
pub fn write_trace(workload: &str, spans: &[trace::SpanRecord]) {
    let path = out_dir().join(format!("trace-{workload}-{}.jsonl", std::process::id()));
    std::fs::write(&path, trace::to_json_lines(spans)).expect("write trace file");
}

/// The world scale knobs shared by the workloads' generators.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    offers: usize,
    merchants: usize,
    leaves: [usize; 4],
    products_per_category: usize,
}

/// The experiments' default scale: 60k offers, 150 merchants, 2,500
/// catalog products.
pub const DEFAULT_SCALE: Scale =
    Scale { offers: 60_000, merchants: 150, leaves: [12, 22, 8, 8], products_per_category: 50 };

/// The experiments' smoke scale: 4k offers, 30 merchants.
pub const SMOKE_SCALE: Scale =
    Scale { offers: 4_000, merchants: 30, leaves: [3, 6, 2, 2], products_per_category: 30 };

/// The world configuration of `scale` on `seed`, with the experiments'
/// match-error rate and merchant coverage.
pub fn world_config(seed: u64, scale: Scale) -> WorldConfig {
    let leaves: usize = scale.leaves.iter().sum();
    WorldConfig {
        seed,
        leaf_categories_per_top: scale.leaves,
        products_per_category: scale.products_per_category,
        num_merchants: scale.merchants,
        num_offers: scale.offers,
        match_error_rate: 0.08,
        merchant_category_coverage: (30.0 / leaves as f64).clamp(0.05, 0.6),
        ..WorldConfig::default()
    }
}

/// Seed of the world every workload runs against (the experiments'
/// default seed); the run seed drives the offer arrival order, the offer
/// window and the request schedule instead.
pub const FIXED_WORLD_SEED: u64 = 0x5EED;

/// A tiny world on `seed` for smoke runs and tests.
pub fn tiny_world(seed: u64) -> WorldConfig {
    WorldConfig { seed, ..WorldConfig::tiny() }
}

/// SplitMix64: the benchmark's own seeded generator for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator on `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    CatalogBuild,
    MerchantIngest,
    ShopMix,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "catalog-build" => Workload::CatalogBuild,
                    "merchant-ingest" => Workload::MerchantIngest,
                    "shop-mix" => Workload::ShopMix,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

fn run(args: &Args) -> Outcome {
    // Shop-mix set-ups are cheap (under a second each), so it makes more
    // of them for a steadier median.
    let setups = match (args.smoke, args.workload) {
        (true, _) => 1,
        (false, Workload::ShopMix) => 5,
        (false, _) => 3,
    };
    match args.workload {
        Workload::CatalogBuild => catalog::run(
            &catalog::CatalogConfig {
                world: if args.smoke {
                    tiny_world(args.seed)
                } else {
                    world_config(FIXED_WORLD_SEED, DEFAULT_SCALE)
                },
                order_seed: args.seed,
                min_precision: if args.smoke {
                    catalog::MIN_ATTR_PRECISION
                } else {
                    catalog::DEFAULT_WORLD_PRECISION - catalog::PRECISION_SLACK
                },
                setups,
                seconds: args.seconds,
            },
            args.trace,
        ),
        Workload::MerchantIngest => {
            let cfg = if args.smoke {
                ingest::IngestConfig::tiny(args.seed)
            } else {
                ingest::IngestConfig::for_run(args.seed, args.seconds, setups)
            };
            ingest::run(&cfg, args.trace)
        }
        Workload::ShopMix => {
            let cfg = if args.smoke {
                shop::ShopConfig::tiny(args.seed)
            } else {
                shop::ShopConfig::for_run(args.seed, args.seconds, setups)
            };
            shop::run(&cfg, args.trace)
        }
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

/// The result record: commit, host fingerprint, seed, full workload
/// configuration and every metric.
fn record(args: &Args, out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let wal_fs = host::fs_type(&out_dir());
    let config: Vec<String> =
        out.config.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let values: Vec<String> =
        metrics.iter().map(|(k, v, _)| format!("{}:{}", json_str(k), num(*v))).collect();
    format!(
        "{{\"commit\":{},\"host\":{{\"nproc\":{},\"wal_fs\":{},\"kernel\":{}}},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"config\":{{{}}},\"correct\":{},\"errors\":{},\"metrics\":{{{}}}}}",
        json_str(&host::commit()),
        host::nproc(),
        json_str(&wal_fs),
        json_str(&host::kernel()),
        json_str(workload_name(args.workload)),
        args.seed,
        num(args.seconds),
        args.trace,
        args.smoke,
        config.join(","),
        out.errors.is_empty(),
        serde_json::to_string(&out.errors).expect("errors serialize"),
        values.join(",")
    )
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::CatalogBuild => "catalog-build",
        Workload::MerchantIngest => "merchant-ingest",
        Workload::ShopMix => "shop-mix",
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pse-benchmark --workload catalog-build|merchant-ingest|shop-mix \
                 --seed N --seconds S --trace 0|1 [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let mut out = run(&args);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for name in out.metrics.keys() {
        if !names.iter().any(|(n, _)| n == name) {
            out.errors.push(format!("workload reported undeclared metric {name}"));
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            // `+ 0.0` turns an empty float sum's -0 into 0.
            Some(v) if v.is_finite() => *v + 0.0,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            _ => {
                out.errors.push(format!("metric {name} missing or not finite"));
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:>36} = {value} {unit}");
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let rec = record(&args, &out, &metrics);
    if !args.smoke {
        let path = out_dir().join(format!(
            "record-{}-seed{}-trace{}.json",
            workload_name(args.workload),
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(path, &rec).expect("write result record");
    }
    println!("# record {rec}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), num(*value), json_str(unit))
        })
        .collect();
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Serializes tests that flip the process-global trace and obs switches.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload shop-mix --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::ShopMix);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (3, 10.0, true, false));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload shop-mix --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload shop-mix --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload shop-mix --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn the_generator_is_seeded() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
