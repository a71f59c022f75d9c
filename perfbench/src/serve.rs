//! `serve-geo`: NOAA-like 3-d reports served one request per call through
//! `ResilientRouter` over 4 Hilbert-range shards with 2 replicas each, the
//! exact-result cache on, one tenant over a token-bucket quota and one
//! replica armed with a seeded fault plan. A saturated closed loop gives the
//! end-to-end metrics; the traced run adds an open loop at a fixed rate,
//! timed from each request's due time, for the load generator's figures.

use std::cell::Cell;
use std::time::{Duration, Instant};

use psb_core::shard::{partition, ShardPolicy};
use psb_core::{EngineError, GpuIndex, KernelOptions, QueryOutcome};
use psb_data::{NoaaSpec, SkewedQuerySpec};
use psb_geom::PointSet;
use psb_gpu::{DeviceConfig, FaultPlan};
use psb_serve::{
    AdmissionConfig, AdmissionControl, QueryCache, QuotaConfig, RequestMeta, ResilienceConfig,
    ResilientBatchResult, ResilientRouter, ServeConfig, ServeOutcome, ShardRouter, TenantId,
};
use psb_sstree::{Neighbor, SsTree};

use crate::common::*;
use crate::loadgen::{open_loop, OpenLoop, WallClock};
use crate::oracle;
use crate::stats::{fast_level, median_of, Ledger};
use crate::trace::Tracer;

pub const POINTS: usize = 400_000;
pub const STATIONS: usize = 20_000;
pub const SHARDS: usize = 4;
pub const REPLICAS: usize = 2;
pub const CACHE: usize = 4_096;
/// Requests generated per run; a run stops early if it uses them all.
pub const STREAM: usize = 300_000;
/// Distinct queries in the stream's pool, as a share of its length.
pub const DISTINCT: f64 = 0.7;
pub const ZIPF: f64 = 0.75;
/// Offered rate of the traced run's open loop, requests per second.
pub const RATE: f64 = 600.0;
/// Requests per window of the closed loop, whose fast levels (see
/// `stats::fast_level`) give `qps` and `p50_us`: about a tenth of a second,
/// enough to hold the stream's mix of cache hits and misses.
pub const WINDOW: usize = 500;
/// Every `QUOTA_EVERY`-th request comes from the metered tenant, whose
/// bucket holds `QUOTA_BURST` tokens and is refilled every `QUOTA_WINDOW`
/// requests: 10 requests per window against 9 tokens, so 0.1% of all
/// requests are refused by design.
pub const QUOTA_TENANT: TenantId = 7;
pub const QUOTA_EVERY: usize = 100;
pub const QUOTA_WINDOW: usize = 1_000;
pub const QUOTA_BURST: u64 = 9;
/// Replica 0 of shard 0 is re-armed with a fresh bit-flip plan every
/// `FAULT_EVERY` requests, so failover keeps running.
pub const FAULT_EVERY: usize = 2_048;
pub const FLIP_PER_MILLE: u32 = 5;
/// Router and front-end builds timed for `setup_s`.
pub const SETUP_REPS: usize = 5;
/// Every `CHECK_EVERY`-th answer, and every answer that needed failover, is
/// checked against the brute oracle.
pub const CHECK_EVERY: usize = 32;

pub fn data(seed: u64) -> (PointSet, PointSet) {
    let points =
        NoaaSpec { stations: STATIONS, reports: POINTS, extra_dims: 1, seed: DATA_SEED }.generate();
    let stream = stream_for(&points, STREAM, subseed(seed, 2));
    (points, stream)
}

pub fn stream_for(points: &PointSet, count: usize, seed: u64) -> PointSet {
    SkewedQuerySpec {
        count,
        distinct: (count as f64 * DISTINCT) as usize,
        zipf_s: ZIPF,
        hotspots: 64,
        hot_fraction: 0.1,
        jitter: 0.005,
        seed,
    }
    .generate(points)
}

/// The first `count` distinct queries of `stream`, in stream order.
fn distinct_prefix(stream: &PointSet, count: usize) -> PointSet {
    let mut seen = std::collections::HashSet::new();
    let mut out = PointSet::with_capacity(stream.dims(), count);
    for q in stream.iter() {
        if out.len() == count {
            break;
        }
        if seen.insert(q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()) {
            out.push(q);
        }
    }
    out
}

/// Builds the sharded router, adding each shard index's bytes to `bytes`.
fn build_router(points: &PointSet, dev: &DeviceConfig, bytes: &Cell<u64>) -> ShardRouter<SsTree> {
    let cfg = ServeConfig::new(SHARDS).with_replicas(REPLICAS);
    ShardRouter::build(points, &cfg, dev, |ps| {
        let t = build_tree(ps);
        bytes.set(bytes.get() + t.index_bytes());
        t
    })
}

fn front_of(router: ShardRouter<SsTree>) -> ResilientRouter<SsTree> {
    ResilientRouter::new(router, ResilienceConfig { cache_capacity: CACHE, ..Default::default() })
}

fn meta(i: usize) -> RequestMeta {
    RequestMeta::tenant(if i.is_multiple_of(QUOTA_EVERY) { QUOTA_TENANT } else { 0 })
}

fn quota() -> QuotaConfig {
    QuotaConfig { burst: QUOTA_BURST, refill_per_tick: 0 }
}

/// Re-arms the faulted replica when request `i` is due for it.
fn rearm(router: &mut ShardRouter<SsTree>, i: usize, seed: u64) {
    if i.is_multiple_of(FAULT_EVERY) {
        router.restore_replica(0, 0);
        router.set_fault_plan(0, 0, FaultPlan::bit_flips(subseed(seed, i as u64), FLIP_PER_MILLE));
    }
}

/// The designed pressure before request `i`: fault plan and quota refill.
fn prepare(front: &mut ResilientRouter<SsTree>, i: usize, seed: u64) {
    rearm(front.inner_mut(), i, seed);
    if i.is_multiple_of(QUOTA_WINDOW) {
        front.set_quota(QUOTA_TENANT, quota());
    }
}

/// Outcome accounting of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Errors, inexact answers and oracle mismatches.
    failed: u64,
    exact: u64,
    rejected: Vec<usize>,
    hits: u64,
    admitted: u64,
    checks: Vec<(usize, Vec<Neighbor>)>,
}

impl Tally {
    fn add(&mut self, i: usize, res: &Result<ResilientBatchResult, EngineError>) {
        self.attempted += 1;
        let Ok(r) = res else {
            self.failed += 1;
            return;
        };
        let o = r.outcomes[0];
        if o.is_rejected() {
            self.rejected.push(i);
            return;
        }
        self.admitted += 1;
        self.hits += r.resilience.cache_hits;
        if !o.is_exact() {
            self.failed += 1;
            return;
        }
        self.exact += 1;
        let failover = matches!(o, ServeOutcome::Executed(QueryOutcome::Retried { .. }));
        if i.is_multiple_of(CHECK_EVERY) || failover {
            self.checks.push((i, r.neighbors[0].clone()));
        }
    }

    fn verify(&mut self, points: &PointSet, stream: &PointSet, dev: &DeviceConfig) {
        for (i, got) in &self.checks {
            if !oracle::matches(&oracle::brute(points, stream.point(*i), K, dev), got) {
                self.failed += 1;
                self.exact -= 1;
            }
        }
    }
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let dev = DeviceConfig::k40();
    let (points, stream) = data(cfg.seed);
    if cfg.trace {
        return traced(cfg, &points, &stream, &dev);
    }
    let (bytes, unused) = (Cell::new(0), Cell::new(0));
    let mut setup = SetupTimes::new(SETUP_REPS);
    let mut front = setup.time(|| front_of(build_router(&points, &dev, &bytes)));
    let rebuild = || drop(front_of(build_router(&points, &dev, &unused)));
    let mut rep = Report::default();
    let l = &mut rep.ledger;
    l.set("index_bytes_per_point", "B", bytes.get() as f64 / points.len() as f64);
    // Simulated cost of the first distinct requests on the healthy router:
    // the device work of a stream whose repeats the cache absorbs.
    let sample = distinct_prefix(&stream, SIM_QUERIES);
    let sim = front.inner_mut().serve_batch(&sample, K, &sim_opts()).map_err(|e| e.to_string())?;
    l.set("sim_response_ms", "ms", sim.report.launch.avg_response_ms);
    l.set("sim_accessed_mb", "MB", sim.report.launch.avg_accessed_mb);

    // A saturated closed loop. Set-up builds go between its requests, where
    // they delay none. Per request: the time inside `serve_batch`, and the
    // latency it counts as, infinite when refused (a refused request misses
    // any latency limit).
    let opts = KernelOptions::default();
    let mut tally = Tally::default();
    let (mut busy_us, mut lat_us) = (Vec::new(), Vec::new());
    let mut i = 0;
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    while started.elapsed() - paused < cfg.share(1.0) && i < stream.len() {
        let done = (started.elapsed() - paused).as_secs_f64() / cfg.seconds;
        paused += setup.during(done, rebuild);
        prepare(&mut front, i, cfg.seed);
        let q = single(stream.point(i));
        let t = Instant::now();
        let r = front.serve_batch(&q, K, &opts, &[meta(i)]);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let refused = r.as_ref().is_ok_and(|r| r.outcomes[0].is_rejected());
        busy_us.push(us);
        lat_us.push(if refused { f64::INFINITY } else { us });
        tally.add(i, &r);
        i += 1;
    }
    tally.verify(&points, &stream, &dev);
    if busy_us.is_empty() {
        return Err("the closed loop ran no request".to_string());
    }
    let l = &mut rep.ledger;
    l.set("setup_s", "s", setup.median(rebuild));
    let window_us = fast_level(&busy_us, WINDOW, |w| w.iter().sum());
    l.set("qps", "1/s", WINDOW.min(busy_us.len()) as f64 / (window_us * 1e-6));
    l.set("p50_us", "us", fast_level(&lat_us, WINDOW, median_of));
    l.set("answered_frac", "fraction", tally.exact as f64 / tally.attempted as f64);
    eprintln!(
        "serve-geo: {} requests, {} refused by quota, {} cache hits of {} admitted",
        tally.attempted,
        tally.rejected.len(),
        tally.hits,
        tally.admitted
    );
    rep.attempted = tally.attempted;
    rep.failed = tally.failed;
    Ok(rep)
}

fn over_capacity(open: &OpenLoop) -> Result<(), String> {
    if open.over_capacity() {
        return Err(format!(
            "open loop over capacity at {RATE} requests/s: backlog {} at the end, {} halfway",
            open.backlog, open.mid_backlog
        ));
    }
    Ok(())
}

/// A resilient front-end plus the identically built and faulted pieces its
/// requests are replayed on: the bare router, each shard's own tree, and a
/// shadow admission controller and cache fed the same sequence.
struct Traced {
    front: ResilientRouter<SsTree>,
    bare: ShardRouter<SsTree>,
    trees: Vec<SsTree>,
    adm: AdmissionControl,
    cache: QueryCache,
    seed: u64,
    dev: DeviceConfig,
    routed: u64,
    visited: u64,
    pruned: u64,
    failovers: u64,
    retried: u64,
    diverged: u64,
}

impl Traced {
    fn new(points: &PointSet, dev: &DeviceConfig, seed: u64) -> Self {
        let unused = Cell::new(0);
        let plan = partition(points, SHARDS, &ShardPolicy::HilbertRange);
        Traced {
            front: front_of(build_router(points, dev, &unused)),
            bare: build_router(points, dev, &unused),
            trees: plan.assignments.iter().map(|ids| build_tree(&points.gather(ids))).collect(),
            adm: AdmissionControl::new(AdmissionConfig::default()),
            cache: QueryCache::new(CACHE),
            seed,
            dev: dev.clone(),
            routed: 0,
            visited: 0,
            pruned: 0,
            failovers: 0,
            retried: 0,
            diverged: 0,
        }
    }

    fn request(
        &mut self,
        i: usize,
        q: &[f32],
        tracer: &mut Tracer,
        gpu: &mut GpuCounts,
        tally: &mut Tally,
    ) {
        prepare(&mut self.front, i, self.seed);
        rearm(&mut self.bare, i, self.seed);
        if i.is_multiple_of(QUOTA_WINDOW) {
            self.adm.set_quota(QUOTA_TENANT, quota());
        }
        let (single, meta, opts) = (single(q), meta(i), KernelOptions::default());
        let req = i as u64;
        let live = tracer.now_ns();
        let front = &mut self.front;
        let (res, root, _) =
            tracer.time("ResilientRouter::serve_batch", RESILIENT, req, None, || {
                front.serve_batch(&single, K, &opts, &[meta])
            });
        tracer.live_ns += tracer.now_ns() - live;
        tracer.roots += 1;
        tally.add(i, &res);
        let Ok(res) = res else { return };

        let (adm, tick) = (&mut self.adm, self.front.tick());
        let (admitted, _, _) =
            tracer.time("AdmissionControl::try_admit", ADMISSION, req, Some(root), || {
                adm.try_admit(meta.tenant, tick).is_ok()
            });
        if admitted == res.outcomes[0].is_rejected() {
            self.diverged += 1;
        }
        if !admitted {
            return;
        }
        self.adm.complete();
        let (cache, nb, exact) = (&mut self.cache, &res.neighbors[0], res.outcomes[0].is_exact());
        let (hit, _, _) = tracer.time("QueryCache::get+insert", ADMISSION, req, Some(root), || {
            let hit = cache.get(q, K).is_some();
            if !hit && exact {
                cache.insert(q, K, nb);
            }
            hit
        });
        if hit != (res.resilience.cache_hits > 0) {
            self.diverged += 1;
        }
        if hit {
            return;
        }
        let bare = &mut self.bare;
        let (routed, route, _) =
            tracer.time("ShardRouter::serve_batch", ROUTER, req, Some(root), || {
                bare.serve_batch(&single, K, &opts)
            });
        let Ok(routed) = routed else {
            self.diverged += 1;
            return;
        };
        let r = &routed.report;
        self.routed += 1;
        self.visited += r.shards_visited();
        self.pruned += r.shards_pruned();
        self.failovers += r.failovers.len() as u64;
        self.retried += r.launch.retried_queries;
        for (s, &v) in r.shard_visits.iter().enumerate() {
            if v > 0 {
                replay_query(tracer, &self.trees[s], q, req, route, &self.dev, gpu);
            }
        }
    }

    fn counts(&self, tally: &Tally, l: &mut Ledger) {
        l.set("serve.cache_hit_frac", "fraction", tally.hits as f64 / tally.admitted.max(1) as f64);
        l.set(
            "serve.rejected_frac",
            "fraction",
            tally.rejected.len() as f64 / tally.attempted as f64,
        );
        l.set(
            "router.shards_visited",
            "count/query",
            self.visited as f64 / self.routed.max(1) as f64,
        );
        let decided = (self.visited + self.pruned).max(1) as f64;
        l.set("router.prune_rate", "fraction", self.pruned as f64 / decided);
        l.set("router.failovers", "count", self.failovers as f64);
        l.set("router.retried", "count", self.retried as f64);
    }
}

/// Traced closed loop over the stream for `budget`.
fn traced_loop(
    st: &mut Traced,
    stream: &PointSet,
    budget: std::time::Duration,
    tracer: &mut Tracer,
    gpu: &mut GpuCounts,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed() < budget && i < stream.len() {
        st.request(i, stream.point(i), tracer, gpu, &mut tally);
        i += 1;
    }
    tally
}

fn traced(
    cfg: &Cfg,
    points: &PointSet,
    stream: &PointSet,
    dev: &DeviceConfig,
) -> Result<Report, String> {
    let mut rep = Report::default();
    // Untraced open loop: the load generator's own figures, and the request
    // service time the tracing overhead is measured against.
    let mut front = front_of(build_router(points, dev, &Cell::new(0)));
    let opts = KernelOptions::default();
    let mut base_us = Vec::new();
    let mut tally = Tally::default();
    let n_open = (RATE * cfg.seconds / 4.0) as usize;
    let open = open_loop(&WallClock::new(), n_open, RATE, |i| {
        prepare(&mut front, i, cfg.seed);
        let q = single(stream.point(i));
        let t = Instant::now();
        let r = front.serve_batch(&q, K, &opts, &[meta(i)]);
        base_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.add(i, &r);
    });
    over_capacity(&open)?;
    drop(front);
    for &lag in &open.lag_us {
        rep.ledger.sample("loadgen.lag_us", "us", lag);
    }
    for (j, &lat) in open.latency_us.iter().enumerate() {
        let refused = tally.rejected.contains(&j);
        rep.ledger.sample("loadgen.latency_us", "us", if refused { f64::INFINITY } else { lat });
    }
    rep.ledger.set("loadgen.backlog", "count", open.backlog as f64);
    tally.verify(points, stream, dev);
    rep.attempted += tally.attempted;
    rep.failed += tally.failed;

    let mut st = Traced::new(points, dev, cfg.seed);
    let mut tracer = Tracer::new();
    let mut gpu = GpuCounts::default();
    let mut tally = traced_loop(&mut st, stream, cfg.share(0.5), &mut tracer, &mut gpu);
    tally.verify(points, stream, dev);
    rep.attempted += tally.attempted;
    rep.failed += tally.failed;
    if st.diverged > 0 {
        return Err(format!("{} replays diverged from the requests they reproduce", st.diverged));
    }
    st.counts(&tally, &mut rep.ledger);
    crate::finish_trace(cfg, "serve-geo", &tracer, &base_us, gpu, &mut rep.ledger)?;
    let plan = partition(points, SHARDS, &ShardPolicy::HilbertRange);
    micro_probes(points, stream, Some(&points.gather(&plan.assignments[0])), &mut rep.ledger);
    Ok(rep)
}
