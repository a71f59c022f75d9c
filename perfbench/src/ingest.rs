//! `ingest-geo`: one closed-loop client mixing `knn` reads with `insert` and
//! `remove` writes at 3:1 over a `DynamicShardRouter` on NOAA-like 3-d
//! points. Writes trip each shard's churn-triggered rebuild many times a run.

use std::time::{Duration, Instant};

use psb_core::shard::{partition, ShardPolicy};
use psb_core::{psb_batch, GpuIndex};
use psb_data::{sample_queries, NoaaSpec};
use psb_geom::PointSet;
use psb_gpu::DeviceConfig;
use psb_serve::DynamicShardRouter;
use psb_sstree::{knn_best_first, SsTree};

use crate::common::*;
use crate::oracle::{matches, Mirror};
use crate::stats::{fast_level, median_of};
use crate::trace::Tracer;

pub const INITIAL: usize = 20_000;
/// Points held back for inserts; a run stops early if it uses them all.
pub const INSERT_POOL: usize = 200_000;
pub const STATIONS: usize = 5_000;
pub const SHARDS: usize = 4;
/// Distinct read queries the client cycles through.
pub const READS: usize = 20_000;
pub const READ_FRAC: f64 = 0.75;
/// Every `CHECK_EVERY`-th read is checked against the mirrored live set.
pub const CHECK_EVERY: usize = 8;
/// Operations per window whose fast level (see `stats::fast_level`) gives
/// `qps`. Each shard's churn rebuild fires about once per window, so a
/// window holds a whole cycle of delta growth, tombstones and rebuild.
pub const WINDOW: usize = 16_384;
/// Reads per window for `p50_us`: the reads of a window.
pub const READ_WINDOW: usize = WINDOW * 3 / 4;
/// Dynamic-router builds timed for `setup_s`.
pub const SETUP_REPS: usize = 9;
/// Operations of the stream after which the live set is taken for the
/// static-index metrics.
pub const SIM_OPS: usize = 50_000;

pub struct Data {
    pub initial: PointSet,
    pub inserts: PointSet,
    pub reads: PointSet,
}

pub fn data(seed: u64) -> Data {
    let all = NoaaSpec {
        stations: STATIONS,
        reports: INITIAL + INSERT_POOL,
        extra_dims: 1,
        seed: DATA_SEED,
    }
    .generate();
    // A fixed shuffle splits the reports into initial points and the insert
    // pool; the reads come from `seed`.
    let perm = permutation(all.len(), subseed(DATA_SEED, 5));
    let initial = all.gather(&perm[..INITIAL]);
    let reads = sample_queries(&initial, READS, 0.01, subseed(seed, 6));
    Data { inserts: all.gather(&perm[INITIAL..]), initial, reads }
}

fn build_router(initial: &PointSet) -> DynamicShardRouter {
    DynamicShardRouter::build(initial, SHARDS, &ShardPolicy::HilbertRange, DEGREE)
}

enum Op {
    Read(usize),
    Insert(usize),
    Remove(u32),
}

/// The seeded operation stream and the live set it mutates.
struct Stream {
    mirror: Mirror,
    rng: Rng,
    reads: usize,
    inserts: usize,
}

impl Stream {
    fn new(d: &Data, seed: u64) -> Self {
        Stream {
            mirror: Mirror::of(&d.initial),
            rng: Rng::new(subseed(seed, 8)),
            reads: 0,
            inserts: 0,
        }
    }

    fn next_op(&mut self, d: &Data) -> Option<Op> {
        if self.rng.unit() < READ_FRAC {
            self.reads += 1;
            Some(Op::Read((self.reads - 1) % d.reads.len()))
        } else if self.rng.next_u64() & 1 == 0 {
            self.inserts += 1;
            (self.inserts <= d.inserts.len()).then(|| Op::Insert(self.inserts - 1))
        } else {
            Some(Op::Remove(self.mirror.id_at(self.rng.below(self.mirror.len()))))
        }
    }
}

/// The live set after the first `ops` operations of the stream, replayed on
/// the mirror alone, so it is fixed for a seed whatever the host's speed.
/// Which point a remove takes depends only on mirror positions, so the ids
/// given to inserted points here need not be the router's.
fn live_after(d: &Data, seed: u64, ops: usize) -> PointSet {
    let mut s = Stream::new(d, seed);
    let mut next_id = d.initial.len() as u32;
    for _ in 0..ops {
        match s.next_op(d) {
            None => break,
            Some(Op::Read(_)) => {}
            Some(Op::Insert(j)) => {
                s.mirror.insert(next_id, d.inserts.point(j));
                next_id += 1;
            }
            Some(Op::Remove(id)) => {
                s.mirror.remove(id);
            }
        }
    }
    s.mirror.points()
}

/// The client: the operation stream and the router it drives.
struct Client {
    router: DynamicShardRouter,
    stream: Stream,
}

impl Client {
    fn new(d: &Data, seed: u64, router: DynamicShardRouter) -> Self {
        Client { router, stream: Stream::new(d, seed) }
    }
}

/// What one drive of the client measured.
#[derive(Default)]
struct Drive {
    attempted: u64,
    failed: u64,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Per operation, in order.
    op_us: Vec<f64>,
    /// Time between one call's return and the next call, in µs.
    gap_us: Vec<f64>,
}

/// Runs the client for `budget`. With a tracer, each call is a root span and
/// each read is replayed through `knn_best_first` on `shard_tree`. With set-up
/// times, their remaining builds are spread over the drive.
fn drive(
    c: &mut Client,
    d: &Data,
    budget: Duration,
    mut traced: Option<(&mut Tracer, &SsTree)>,
    mut setup: Option<&mut SetupTimes>,
) -> Drive {
    let mut out = Drive::default();
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut last_end: Option<Instant> = None;
    while started.elapsed() - paused < budget {
        if let Some(setup) = setup.as_mut() {
            let done = (started.elapsed() - paused).as_secs_f64() / budget.as_secs_f64();
            let spent = setup.during(done, || build_router(&d.initial));
            if !spent.is_zero() {
                paused += spent;
                // The gap before the next call is the build's, not the client's.
                last_end = None;
            }
        }
        let Some(op) = c.stream.next_op(d) else { break };
        let req = out.attempted;
        let (router, mirror) = (&mut c.router, &mut c.stream.mirror);
        let t0 = Instant::now();
        if let Some(end) = last_end {
            out.gap_us.push((t0 - end).as_secs_f64() * 1e6);
        }
        let live = traced.as_ref().map(|(t, _)| t.now_ns());
        let (name, layer) = match op {
            Op::Read(_) => ("DynamicShardRouter::knn", DYNAMIC),
            Op::Insert(_) => ("DynamicShardRouter::insert", DYNAMIC),
            Op::Remove(_) => ("DynamicShardRouter::remove", DYNAMIC),
        };
        let mut call = || match op {
            Op::Read(r) => (Some(router.knn(d.reads.point(r), K)), None, true),
            Op::Insert(j) => (None, Some(router.insert(d.inserts.point(j))), true),
            Op::Remove(id) => (None, None, router.remove(id)),
        };
        let ((nb, new_id, ok), root, dur_ns) = match traced.as_mut() {
            Some((tracer, _)) => tracer.time(name, layer, req, None, call),
            None => {
                let r = call();
                (r, 0, t0.elapsed().as_nanos() as u64)
            }
        };
        last_end = Some(Instant::now());
        let us = dur_ns as f64 * 1e-3;
        out.attempted += 1;
        out.op_us.push(us);
        if let (Some(tracer), Some(live)) = (traced.as_mut().map(|(t, _)| t), live) {
            tracer.live_ns += tracer.now_ns() - live;
            tracer.roots += 1;
        }
        match op {
            Op::Read(r) => {
                let q = d.reads.point(r);
                out.read_us.push(us);
                if let Some((tracer, tree)) = traced.as_mut() {
                    tracer.time("knn_best_first", SSTREE, req, Some(root), || {
                        knn_best_first(tree, q, K)
                    });
                }
                let nb = nb.expect("a read returns neighbors");
                if out.read_us.len() % CHECK_EVERY == 0 && !matches(&mirror.knn(q, K), &nb) {
                    out.failed += 1;
                }
            }
            Op::Insert(j) => {
                out.write_us.push(us);
                mirror.insert(new_id.expect("an insert returns an id"), d.inserts.point(j));
            }
            Op::Remove(id) => {
                out.write_us.push(us);
                if !ok || !mirror.remove(id) {
                    out.failed += 1;
                }
            }
        }
    }
    out
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let dev = DeviceConfig::k40();
    let d = data(cfg.seed);
    if cfg.trace {
        return traced(cfg, &d);
    }
    let mut setup = SetupTimes::new(SETUP_REPS);
    let router = setup.time(|| build_router(&d.initial));
    let mut c = Client::new(&d, cfg.seed, router);
    let out = drive(&mut c, &d, cfg.share(1.0), None, Some(&mut setup));

    let mut rep = Report { attempted: out.attempted, failed: out.failed, ..Report::default() };
    let l = &mut rep.ledger;
    l.set("setup_s", "s", setup.median(|| drop(build_router(&d.initial))));
    let window_us = fast_level(&out.op_us, WINDOW, |w| w.iter().sum());
    l.set("qps", "1/s", WINDOW.min(out.op_us.len()) as f64 / (window_us * 1e-6));
    l.set("p50_us", "us", fast_level(&out.read_us, READ_WINDOW, median_of));
    l.set("answered_frac", "fraction", 1.0 - out.failed as f64 / out.attempted as f64);
    // The simulated device and the index footprint, on a static index over
    // the live set after a fixed number of operations.
    let live = live_after(&d, cfg.seed, SIM_OPS);
    let tree = build_tree(&live);
    l.set("index_bytes_per_point", "B", tree.index_bytes() as f64 / live.len() as f64);
    let sample = batch_of(&d.reads, 0, SIM_QUERIES);
    let sim = psb_batch(&tree, &sample, K, &dev, &sim_opts()).map_err(|e| e.to_string())?;
    l.set("sim_response_ms", "ms", sim.report.avg_response_ms);
    l.set("sim_accessed_mb", "MB", sim.report.avg_accessed_mb);
    let median_write = median_of(&out.write_us);
    let slow = out.write_us.iter().filter(|&&w| w > 20.0 * median_write).count();
    eprintln!(
        "ingest-geo: {} ops, {} writes, {slow} writes over 20x the median write (inline rebuilds)",
        out.attempted,
        out.write_us.len()
    );
    Ok(rep)
}

/// The first shard of `initial`, as the router partitions it.
fn first_shard(initial: &PointSet) -> PointSet {
    let plan = partition(initial, SHARDS, &ShardPolicy::HilbertRange);
    initial.gather(&plan.assignments[0])
}

fn traced(cfg: &Cfg, d: &Data) -> Result<Report, String> {
    let mut rep = Report::default();
    // Untraced baseline over the same operation stream.
    let mut c = Client::new(d, cfg.seed, build_router(&d.initial));
    let base = drive(&mut c, d, cfg.share(0.25), None, None);
    for &g in &base.gap_us {
        rep.ledger.sample("loadgen.lag_us", "us", g);
    }
    rep.ledger.set("loadgen.backlog", "count", 0.0);

    let mut c = Client::new(d, cfg.seed, build_router(&d.initial));
    let shard = first_shard(&d.initial);
    let tree = build_tree(&shard);
    let mut tracer = Tracer::new();
    let out = drive(&mut c, d, cfg.share(0.5), Some((&mut tracer, &tree)), None);
    rep.attempted = base.attempted + out.attempted;
    rep.failed = base.failed + out.failed;
    crate::finish_trace(
        cfg,
        "ingest-geo",
        &tracer,
        &base.op_us,
        GpuCounts::default(),
        &mut rep.ledger,
    )?;
    micro_probes(&d.initial, &d.reads, Some(&shard), &mut rep.ledger);
    Ok(rep)
}
