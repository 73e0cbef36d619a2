//! `merchant-ingest`: merchant feeds streaming into the durable write
//! path, closed loop — each writer waits for its ack.
//!
//! Set-up learns correspondences from a small materialized world and
//! materializes the run's offer stream (`WorldBase::stream_scenario`
//! under the benchmark's own scenario, page specs embedded), so the
//! timed phase runs only program code. `nproc` writer threads then
//! commit one offer per `durable_ingest`, plus every retraction wave as
//! one `durable_retract`, into `open_durable` on local disk.
//!
//! The stream is cut into epochs; between epochs the writers join and
//! the WAL is folded into segments (`durable_snapshot`). The fold point
//! is therefore set by record count, never by a timer, and the last
//! epoch is left unfolded: every run replays the same WAL records. After
//! the last commit the durability context is dropped, `pse_wal::recover`
//! is timed over the directory (read-only), and the recovered store must
//! equal the live one byte for byte.
//!
//! The timed phase makes several rounds of this, each streaming the
//! same offers into a fresh directory. Every epoch and every recovery is
//! timed on its own, and the run reports the medians over all rounds, so
//! a stall in one epoch does not move the run's figures, and the
//! recoveries are spread over the run instead of sharing one moment of
//! the host.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pse_core::{CorrespondenceSet, Offer, OfferId, Spec};
use pse_datagen::{
    FlashSale, MerchantChurn, RetractionWave, Scenario, World, WorldBase, WorldConfig,
};
use pse_serve::{durable_ingest, durable_retract, durable_snapshot, open_durable, ShardedStore};
use pse_store::ProductStore;
use pse_synthesis::{ExtractingProvider, FnProvider, OfflineLearner};
use pse_wal::{DurabilityConfig, GroupCommitConfig, WalRecord};

use crate::stats::{mean, median, percentile, ratio, sorted, steady, tail};
use crate::{host, obs_layers, trace, Outcome};

/// Offers streamed per round per second of `--seconds`: a round's fixed
/// offer count is this times the requested seconds. At the 7,000–9,000
/// offers/s measured on a 2-CPU host the rounds' commit phases take
/// about half of `--seconds` and their recoveries a fifth.
pub const OFFERS_PER_SECOND: f64 = 1_400.0;

/// Rounds per run. One round's recoveries, timed back to back, all fell
/// into the same fast (about 0.5 s) or slow (about 0.7 s) spell of the
/// host, so the run's recovery time followed the spell.
pub const ROUNDS: usize = 3;

/// Knobs of one merchant-ingest run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// The world the stream is drawn from. Its `num_offers` sizes the
    /// materialized world correspondences are learned from.
    pub world: WorldConfig,
    /// Offers of the stream skipped before the run's window; the run's
    /// seed picks the window.
    pub skip: usize,
    /// Offers streamed in each round of the timed phase.
    pub offers: usize,
    /// Rounds; each streams the same offers into a fresh directory.
    pub rounds: usize,
    /// Epochs; the WAL is folded between epochs, never after the last.
    pub epochs: usize,
    /// Concurrent writer threads.
    pub writers: usize,
    /// Store shards.
    pub shards: usize,
    /// Load shape of the stream.
    pub scenario: Scenario,
    /// Set-ups made; `setup_s` is their median.
    pub setups: usize,
}

impl IngestConfig {
    /// The configuration of a `--seconds` run on `seed`. The world is
    /// the same on every run; the seed picks which window of its offer
    /// stream the run ingests. Per-world ingest and recovery cost differ
    /// by up to 1.3x, which put the spread of recovery time over ten seeds
    /// at 0.26 with a world per seed, past the largest permitted bound.
    /// Windows start at most 15,000 offers in, so generating the skipped
    /// offers costs about the same set-up time on every seed.
    pub fn for_run(seed: u64, seconds: f64, setups: usize) -> Self {
        let mut world = crate::world_config(crate::FIXED_WORLD_SEED, crate::DEFAULT_SCALE);
        world.num_offers = 4_000;
        Self {
            world,
            skip: (seed % 16) as usize * 1_000,
            offers: ((OFFERS_PER_SECOND * seconds) as usize).max(1_000),
            rounds: ROUNDS,
            epochs: 10,
            writers: host::nproc(),
            shards: 4,
            scenario: scenario(1_000),
            setups,
        }
    }

    /// A tiny run for smoke runs and tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            world: crate::tiny_world(seed),
            skip: (seed % 4) as usize * 100,
            offers: 600,
            rounds: 2,
            epochs: 3,
            writers: 2,
            shards: 2,
            scenario: scenario(100),
            setups: 1,
        }
    }
}

/// The benchmark's load shape: flash-sale bursts, merchant churn, and a
/// retraction wave every `wave_every` offers — frequent enough that the
/// unfolded last epoch always logs retract records.
pub fn scenario(wave_every: usize) -> Scenario {
    Scenario {
        flash_sale: Some(FlashSale { period: 2 * wave_every, burst: wave_every / 2 }),
        merchant_churn: Some(MerchantChurn { window: wave_every / 2, online_fraction: 0.6 }),
        retraction_wave: Some(RetractionWave { every: wave_every, fraction: 0.1 }),
    }
}

/// One streamed offer (page spec embedded) and the wave it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// The offer as a merchant feed sends it.
    pub offer: Offer,
    /// Offer ids the retraction wave completing at this offer revokes.
    pub retract: Vec<OfferId>,
}

/// The materialized window of `n` offers after the stream's first
/// `skip`, plus the true product of every offer up to the window's end
/// (offer ids are stream positions). `skip` must be a multiple of the
/// scenario's wave period, so every wave revokes offers of the window.
pub fn stream_items(
    base: &WorldBase,
    skip: usize,
    n: usize,
    scenario: Scenario,
) -> (Vec<Item>, Vec<pse_core::ProductId>) {
    let mut stream = base.stream_scenario(skip + n, scenario);
    let mut truth = Vec::with_capacity(skip + n);
    while stream.position() < skip {
        let batch = stream.next_batch(1024.min(skip - stream.position())).expect("skip < limit");
        truth.extend(batch.offers.iter().map(|so| so.product));
    }
    let mut items = Vec::with_capacity(n);
    while let Some(batch) = stream.next_batch(1) {
        for so in batch.offers {
            let spec = base.page_spec_for(&so.offer, so.product);
            truth.push(so.product);
            items.push(Item { offer: Offer { spec, ..so.offer }, retract: Vec::new() });
        }
        if let Some(last) = items.last_mut() {
            last.retract = batch.retractions;
        }
    }
    (items, truth)
}

struct Prepared {
    /// The small world, its truth extended to the streamed offers.
    world: World,
    correspondences: CorrespondenceSet,
    items: Vec<Item>,
}

fn prepare(cfg: &IngestConfig) -> Prepared {
    let mut world = World::generate(cfg.world.clone());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let correspondences = OfflineLearner::new()
        .learn(&world.catalog, &world.offers, &world.historical, &provider)
        .correspondences;
    // The stream shares catalog, merchants and vocabularies with the
    // materialized world by construction (`num_offers` feeds no set-up
    // decision); only the per-offer truth is the stream's own.
    let base = WorldBase::generate(cfg.world.clone());
    let (items, truth) = stream_items(&base, cfg.skip, cfg.offers, cfg.scenario);
    world.truth.offer_product = truth;
    Prepared { world, correspondences, items }
}

/// Everything one ingest leg measured.
struct Leg {
    /// Wall time of each epoch's commit phase (folds excluded), in epoch
    /// order.
    epoch_s: Vec<f64>,
    /// Median commit latency of each epoch, µs, in epoch order.
    epoch_p50_us: Vec<f64>,
    /// Every commit latency of the leg, ascending, µs.
    commit_us: Vec<f64>,
    commits: u64,
    retract_commits: u64,
    failed: u64,
    offers: u64,
    snapshot_bytes: u64,
    store: ShardedStore,
    dcfg: DurabilityConfig,
}

fn durability_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        // Folds happen only at epoch ends (the benchmark calls them).
        compaction_threshold_bytes: u64::MAX,
        group: GroupCommitConfig::default(),
    }
}

/// Stream `items` through the durable write path into a fresh `dir`.
fn run_leg(cfg: &IngestConfig, p: &Prepared, items: &[Item], dir: &Path) -> Leg {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL directory");
    let catalog = &p.world.catalog;
    let dcfg = durability_config(dir);
    let seed = ShardedStore::new(p.correspondences.clone(), cfg.shards);
    let (store, ctx, _) = open_durable(dcfg.clone(), catalog, seed).expect("open durable state");
    let provider = FnProvider(|o: &Offer| -> Spec { o.spec.clone() });
    // Offer ids are stream positions; a wave waits until every offer it
    // revokes has been acked, so no run retracts an offer still in flight
    // (the ack's Release pairs with the waiting writer's Acquire).
    let first_id = items.first().map_or(0, |i| i.offer.id.index());
    let acked: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
    let latencies = Mutex::new(Vec::new());
    let (retracts, failed) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut snapshot_bytes = 0;
    let (mut epoch_s, mut epoch_p50_us, mut commit_us) = (Vec::new(), Vec::new(), Vec::new());
    let epochs = cfg.epochs.max(1);
    for e in 0..epochs {
        let (start, end) = (e * items.len() / epochs, (e + 1) * items.len() / epochs);
        let next = AtomicUsize::new(start);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..cfg.writers.max(1) {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        let item = &items[i];
                        let batch = std::slice::from_ref(&item.offer);
                        let t = Instant::now();
                        let ok = {
                            let _s = trace::request_span("commit.ingest", i as u64);
                            durable_ingest(&store, &ctx, catalog, batch, &provider).is_ok()
                        };
                        local.push(t.elapsed().as_secs_f64() * 1e6);
                        if !ok {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        acked[i].store(true, Ordering::Release);
                        if item.retract.is_empty() {
                            continue;
                        }
                        for id in &item.retract {
                            while !acked[id.index() - first_id].load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                        let t = Instant::now();
                        let ok = {
                            let _s = trace::request_span("commit.retract", i as u64);
                            durable_retract(&store, &ctx, catalog, &item.retract).is_ok()
                        };
                        local.push(t.elapsed().as_secs_f64() * 1e6);
                        retracts.fetch_add(1, Ordering::Relaxed);
                        if !ok {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    latencies.lock().expect("latencies").extend(local);
                });
            }
        });
        epoch_s.push(t0.elapsed().as_secs_f64());
        let epoch_us = sorted(std::mem::take(&mut *latencies.lock().expect("latencies")));
        epoch_p50_us.push(median(&epoch_us));
        commit_us.extend(epoch_us);
        if e + 1 < epochs {
            let _s = trace::span("wal.fold");
            match durable_snapshot(&store, &ctx) {
                Ok(stats) => snapshot_bytes += stats.bytes_written,
                Err(_) => {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    // Drop the context with the last epoch unfolded: recovery must
    // replay real records, not just load segments.
    drop(ctx);
    Leg {
        epoch_s,
        epoch_p50_us,
        commits: commit_us.len() as u64,
        commit_us: sorted(commit_us),
        retract_commits: retracts.into_inner(),
        failed: failed.into_inner(),
        offers: items.len() as u64,
        snapshot_bytes,
        store,
        dcfg,
    }
}

impl Leg {
    /// Offers acked per second of commit phase, over every epoch.
    fn offers_per_s(&self) -> f64 {
        ratio(self.offers as f64, self.epoch_s.iter().sum())
    }
    /// This leg's measurements followed by `next`'s, with `next`'s store
    /// and directory.
    fn then(mut self, next: Leg) -> Leg {
        self.epoch_s.extend(next.epoch_s);
        self.epoch_p50_us.extend(next.epoch_p50_us);
        self.commit_us = sorted([self.commit_us, next.commit_us].concat());
        Leg {
            epoch_s: self.epoch_s,
            epoch_p50_us: self.epoch_p50_us,
            commit_us: self.commit_us,
            commits: self.commits + next.commits,
            retract_commits: self.retract_commits + next.retract_commits,
            failed: self.failed + next.failed,
            offers: self.offers + next.offers,
            snapshot_bytes: self.snapshot_bytes + next.snapshot_bytes,
            ..next
        }
    }
}

/// Timed recoveries of a leg's directory.
struct Recovery {
    /// Each recovery's time, in order.
    seconds: Vec<f64>,
    records: usize,
    retract_records: usize,
    /// Each `read_wal`'s time, in order.
    read_wal_s: Vec<f64>,
}

impl Recovery {
    /// These recoveries' times followed by `next`'s.
    fn then(mut self, next: Recovery) -> Recovery {
        self.seconds.extend(next.seconds);
        self.read_wal_s.extend(next.read_wal_s);
        Recovery { seconds: self.seconds, read_wal_s: self.read_wal_s, ..next }
    }
}

/// Recoveries timed per round.
pub const RECOVERIES: usize = 8;

/// The percentile of a run's recovery times it reports: the tenth, the
/// third fastest of 24. One recovery takes about 0.2 s, and the host's
/// short bursts of contention slowed up to half of a run's recoveries by
/// up to 1.5×; over ten seeds the tenth percentile spread 0.13, the
/// median 0.19.
pub const RECOVERY_PERCENTILE: f64 = 10.0;

/// Time `pse_wal::recover` over the leg's directory [`RECOVERIES`]
/// times (it is read-only) and check every recovered store against the
/// live one. `read_wal` is timed separately before each recovery (it is
/// also the retract-record count's source).
fn recover(leg: &Leg, catalog: &pse_core::Catalog, out: &mut Outcome) -> Recovery {
    let live = leg.store.snapshot_json();
    let empty = || {
        ProductStore::with_config(leg.store.correspondences().clone(), leg.store.config().clone())
    };
    let (mut read_wal_s, mut seconds) = (Vec::new(), Vec::new());
    let (mut records, mut retract_records) = (0, 0);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let tail = pse_wal::read_wal(&leg.dcfg.wal_path, 0).ok().flatten();
        read_wal_s.push(t.elapsed().as_secs_f64());
        retract_records = tail.as_ref().map_or(0, |t| {
            t.records.iter().filter(|(r, _)| matches!(r, WalRecord::Retract(_))).count()
        });
        drop(tail);
        let t = Instant::now();
        let recovered = pse_wal::recover(&leg.dcfg, catalog, empty);
        seconds.push(t.elapsed().as_secs_f64());
        match recovered {
            Ok(Some((store, stats))) => {
                records = stats.wal_records_replayed;
                if store.snapshot_json() != live {
                    out.fail("recovered store differs from the live store".to_string());
                }
            }
            Ok(None) => out.fail("recovery found no durable state".to_string()),
            Err(e) => out.fail(format!("recovery failed: {e}")),
        }
    }
    if records == 0 {
        out.fail("recovery replayed no WAL records".to_string());
    }
    if retract_records == 0 {
        out.fail("the unfolded WAL tail holds no retract record".to_string());
    }
    Recovery { seconds, records, retract_records, read_wal_s }
}

/// Run the workload.
pub fn run(cfg: &IngestConfig, traced: bool) -> Outcome {
    let rss0 = host::rss_mb();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..cfg.setups.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rss_world = host::rss_mb() - rss0;
    let p = prepared.expect("at least one set-up");
    let dir: PathBuf = crate::out_dir().join(format!("ingest-{}", std::process::id()));

    let mut out = Outcome {
        config: vec![
            ("world", format!("{:?}", cfg.world)),
            ("skip", cfg.skip.to_string()),
            ("offers", cfg.offers.to_string()),
            ("rounds", cfg.rounds.to_string()),
            ("epochs", cfg.epochs.to_string()),
            ("writers", cfg.writers.to_string()),
            ("shards", cfg.shards.to_string()),
            ("scenario", format!("{:?}", cfg.scenario)),
            ("setups", cfg.setups.to_string()),
            ("group_commit", format!("{:?}", GroupCommitConfig::default())),
            ("wal_fs", host::fs_type(&crate::out_dir())),
        ],
        ..Outcome::default()
    };

    let catalog = &p.world.catalog;
    let (leg, rec, plain) = if traced {
        // The legs are rounds into fresh directories: untraced, then
        // traced; a second untraced round after the traced one completes
        // the overhead baseline.
        let plain = run_leg(cfg, &p, &p.items, &dir.join("plain"));
        let rss_before = host::rss_mb();
        pse_obs::set_enabled(true);
        trace::set_enabled(true);
        let leg = run_leg(cfg, &p, &p.items, &dir.join("traced"));
        out.metrics.insert("rss.store_mb", host::rss_mb() - rss_before);
        let rec = {
            let _s = trace::span("recovery");
            recover(&leg, catalog, &mut out)
        };
        (leg, rec, Some(plain))
    } else {
        let mut rounds: Option<(Leg, Recovery)> = None;
        for r in 0..cfg.rounds.max(1) {
            let round_dir = dir.join(format!("round-{r}"));
            let leg = run_leg(cfg, &p, &p.items, &round_dir);
            let rec = recover(&leg, catalog, &mut out);
            let _ = std::fs::remove_dir_all(&round_dir);
            rounds = Some(match rounds {
                None => (leg, rec),
                Some((l, r)) => (l.then(leg), r.then(rec)),
            });
        }
        let (leg, rec) = rounds.expect("at least one round");
        (leg, rec, None)
    };
    out.attempted = leg.commits;
    out.failed = leg.failed;
    if leg.failed > 0 {
        out.fail(format!("{} commits failed", leg.failed));
    }
    if leg.retract_commits == 0 {
        out.fail("the stream issued no retraction".to_string());
    }
    out.note("recovery_s", format!("{:?}", rec.seconds));
    let fast = |v: &[f64]| percentile(&sorted(v.to_vec()), RECOVERY_PERCENTILE);
    let (recovery_s, read_wal_s) = (fast(&rec.seconds), fast(&rec.read_wal_s));
    let products = leg.store.products();
    let precision = pse_eval::evaluate_synthesis(&p.world, &products).attribute_precision();
    if products.is_empty() {
        out.fail("no products synthesized".to_string());
    }
    out.note("products", products.len().to_string());
    out.note("recovered_records", rec.records.to_string());
    out.note("recovered_retract_records", rec.retract_records.to_string());

    let throughput = leg.offers_per_s();
    let p50 = steady(&leg.epoch_p50_us);
    out.note("epoch_s", format!("{:?}", leg.epoch_s));
    out.note("epoch_commit_p50_us", format!("{:?}", leg.epoch_p50_us));
    out.note("commit_p99_us", tail(&leg.commit_us, 99.0).to_string());
    if let Some(plain) = plain {
        // The program's counters stop with the traced leg; the direct
        // replays below are the benchmark's own calls.
        pse_obs::set_enabled(false);
        let report = pse_obs::report();
        let reconcile_us = replay_reconcile_us(&leg.store, &p.items);
        trace::set_enabled(false);
        let apply_us = shadow_apply_us(&leg, &p.world.catalog);
        crate::write_trace("merchant-ingest", &trace::take());
        let after = run_leg(cfg, &p, &p.items, &dir.join("plain-after"));
        // The mean of the untraced legs before and after the traced one,
        // so a drift over the run does not read as tracing overhead.
        let baseline = |f: fn(&Leg) -> f64| (f(&plain) + f(&after)) / 2.0;
        let mut m = obs_layers(&report, leg.commits, leg.offers);
        m.append(&mut out.metrics);
        m.insert("store.reconcile_us", reconcile_us);
        m.insert("store.apply_us", apply_us);
        m.insert("snapshot.bytes_written", leg.snapshot_bytes as f64);
        m.insert("recovery.read_wal_s", read_wal_s);
        m.insert("recovery.apply_s", (recovery_s - read_wal_s).max(0.0));
        m.insert("recovery.us_per_record", ratio(recovery_s * 1e6, rec.records as f64));
        m.insert("recovery.records", rec.records as f64);
        m.insert("rss.world_mb", rss_world);
        m.insert("trace.overhead_pct", 100.0 * baseline(Leg::offers_per_s) / throughput - 100.0);
        m.insert(
            "trace.overhead_pct.primary_us",
            100.0 * p50 / baseline(|l| steady(&l.epoch_p50_us)) - 100.0,
        );
        out.metrics = m;
    } else {
        out.metrics.insert("setup_s", median(&sorted(setup_s)));
        out.metrics.insert("peak_rss_mb", host::peak_rss_mb());
        out.metrics.insert("throughput_per_s", throughput);
        out.metrics.insert("primary_us", p50);
        out.metrics.insert("secondary_us", recovery_s * 1e6);
        out.metrics.insert("quality", precision);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Median `ShardedStore::reconcile` time of one offer, from a
/// single-threaded replay of `items` after the traced leg, outside the
/// leg whose throughput `trace.overhead_pct` compares. Each call is a
/// `store.reconcile` span.
fn replay_reconcile_us(store: &ShardedStore, items: &[Item]) -> f64 {
    let provider = FnProvider(|o: &Offer| -> Spec { o.spec.clone() });
    let times = items.iter().enumerate().map(|(i, item)| {
        let _s = trace::request_span("store.reconcile", i as u64);
        let t = Instant::now();
        std::hint::black_box(store.reconcile(std::slice::from_ref(&item.offer), &provider));
        t.elapsed().as_secs_f64() * 1e6
    });
    median(&sorted(times.collect()))
}

/// Mean per-commit apply cost on a `ShardedStore`: restore the leg's
/// folded segments into a shadow store, then replay the unfolded WAL
/// records through `ingest_reconciled` / `retract_write`, one call per
/// record, timing each. A mean, not a median: most one-offer commits
/// carry no key attribute and route to no shard, so the median is a
/// no-op's cost.
fn shadow_apply_us(leg: &Leg, catalog: &pse_core::Catalog) -> f64 {
    let shadow = leg.dcfg.snapshot_dir.with_file_name("shadow");
    let _ = std::fs::remove_dir_all(&shadow);
    std::fs::create_dir_all(&shadow).expect("create shadow directory");
    for entry in std::fs::read_dir(&leg.dcfg.snapshot_dir).expect("read segments").flatten() {
        std::fs::copy(entry.path(), shadow.join(entry.file_name())).expect("copy segment");
    }
    let shadow_cfg = DurabilityConfig {
        wal_path: shadow.join("absent.wal"),
        snapshot_dir: shadow.clone(),
        ..leg.dcfg.clone()
    };
    let empty = || {
        ProductStore::with_config(leg.store.correspondences().clone(), leg.store.config().clone())
    };
    let Ok(Some((folded, _))) = pse_wal::recover(&shadow_cfg, catalog, empty) else {
        return 0.0;
    };
    let store = ShardedStore::from_store(folded, leg.store.n_shards());
    let records = pse_wal::read_wal(&leg.dcfg.wal_path, 0).ok().flatten().map(|t| t.records);
    let mut apply = Vec::new();
    for (record, _) in records.unwrap_or_default() {
        let t = Instant::now();
        match record {
            WalRecord::Ingest(reconciled) => {
                let _ = store.ingest_reconciled(catalog, reconciled);
            }
            WalRecord::Retract(ids) => {
                let _ = store.retract_write(catalog, &ids);
            }
        }
        apply.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_dir_all(&shadow);
    mean(&apply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_offer_stream() {
        let cfg = IngestConfig::tiny(21);
        let base = WorldBase::generate(cfg.world.clone());
        let (a, ta) = stream_items(&base, 200, 300, cfg.scenario);
        let (b, tb) = stream_items(&WorldBase::generate(cfg.world.clone()), 200, 300, cfg.scenario);
        assert_eq!(a[0].offer.id.index(), 200);
        assert_eq!(ta.len(), 500);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert!(a.iter().any(|i| !i.retract.is_empty()), "waves must fire");
        let other = WorldBase::generate(IngestConfig::tiny(22).world);
        assert_ne!(stream_items(&other, 200, 300, cfg.scenario).0, a);
        assert_ne!(stream_items(&base, 100, 300, cfg.scenario).0, a);
    }

    #[test]
    fn tiny_ingest_recovers_byte_identically() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&IngestConfig::tiny(23), false);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.failed, 0);
        for name in ["throughput_per_s", "primary_us", "secondary_us", "quality"] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn tiny_traced_ingest_fills_the_store_and_wal_layers() {
        let _g = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&IngestConfig::tiny(24), true);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        for name in [
            "store.reconcile_us",
            "store.apply_us",
            "wal.fsync_us.p50",
            "wal.fsyncs_per_commit",
            "wal.bytes_per_offer",
            "snapshot.bytes_written",
            "recovery.records",
        ] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
    }
}
