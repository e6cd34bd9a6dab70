//! `serve_mix`: open-loop predictions against two registered datasets,
//! with training requests beside them and one publish mid-run.
//!
//! A round runs a low rate (1 000 req/s), a high rate (4 000 req/s) and a
//! rate ladder. At the low rate the batching window mostly adds latency;
//! near the knee, coalescing saves work, so the two rates pull the
//! dispatcher in opposite directions. Latency percentiles and CPU time
//! per request are taken per window and reported as the median over the
//! windows of every round; `max_rps` as the median over the rounds that
//! climbed the ladder.

use crate::checks::bits_identical;
use crate::cpu::CpuClock;
use crate::ctx::{Ctx, Section};
use crate::openloop::{self, Record, Schedule};
use crate::stats::{median, percentile};
use crate::trace::Span;
use amalur_catalog::DatasetRegistry;
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_ml::LinRegConfig;
use amalur_serve::{
    PredictRequest, PredictResponse, Server, ServerConfig, ServerHandle, Ticket, TrainRequest,
    TrainResponse,
};
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const DATASETS: [&str; 2] = ["hot", "warm"];
/// Share of predictions sent to `hot`; the rest go to `warm` (3:1).
const HOT_SHARE: f64 = 0.75;
const LOW_RPS: f64 = 1000.0;
const HIGH_RPS: f64 = 4000.0;
/// Requests per low-rate and high-rate phase (one second and half a
/// second).
const LOW_N: usize = 1000;
const HIGH_N: usize = 2000;
/// Requests of the unmeasured warm-up phase.
const WARMUP_N: usize = 300;
/// Every this many requests, one is a training request.
const TRAIN_EVERY: usize = 200;
const TRAIN: LinRegConfig = LinRegConfig {
    epochs: 5,
    learning_rate: 1e-3,
    l2: 0.0,
    tolerance: 0.0,
};
/// Ladder rates above the two fixed phases, which are the ladder's first
/// rungs; each runs for `RUNG_SECONDS`.
const LADDER: [f64; 8] = [
    5000.0, 6000.0, 7000.0, 8000.0, 9000.0, 10000.0, 12000.0, 14000.0,
];
const RUNG_SECONDS: f64 = 0.3;
/// Percentiles are taken per window of this length (at 1 000 req/s, 250
/// requests: a p95 with 12 samples beyond it) and the median over windows
/// is reported, so one scheduler stall moves one window only.
const WINDOW_SECONDS: f64 = 0.25;
/// A rung passes when predict p95 stays within this limit.
const P95_LIMIT_US: f64 = 5000.0;
/// One sampled prediction in this many is checked bit for bit.
const CHECK_EVERY: usize = 50;
/// Distinct feature columns per dataset.
const POOL: usize = 64;

/// Seeded inputs: the datasets, a replacement published mid-run, and
/// request payloads.
pub struct Inputs {
    /// `hot` and `warm`.
    pub tables: [FactorizedTable; 2],
    /// Published as a new version of `hot` in the middle of each high
    /// phase (same shape, different values).
    pub replacement: FactorizedTable,
    /// Feature columns per dataset.
    pub features: [Vec<DenseMatrix>; 2],
    /// Training labels per dataset.
    pub labels: [DenseMatrix; 2],
    /// Dataset index of request `i % mix.len()`.
    pub mix: Vec<usize>,
}

fn table(
    rows_s1: usize,
    cols_s1: usize,
    cols_s2: usize,
    seed: u64,
) -> Result<FactorizedTable, String> {
    let spec = TwoSourceSpec {
        rows_s1,
        cols_s1,
        rows_s2: rows_s1 / 5,
        cols_s2,
        seed,
        ..TwoSourceSpec::default()
    };
    let (md, data) = generate_two_source(&spec).map_err(|e| e.to_string())?;
    FactorizedTable::new(md, data).map_err(|e| e.to_string())
}

/// Builds the inputs for `seed`.
///
/// # Errors
/// When the generator rejects a dataset spec.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let tables = [table(2000, 3, 40, seed)?, table(1000, 2, 20, seed ^ 0xA11)?];
    let replacement = table(2000, 3, 40, seed ^ 0xB22)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC33);
    let features = [0, 1].map(|k| {
        let c = tables[k].target_shape().1;
        (0..POOL)
            .map(|_| DenseMatrix::random_uniform(c, 1, -1.0, 1.0, &mut rng))
            .collect()
    });
    let labels = [0, 1]
        .map(|k| DenseMatrix::random_uniform(tables[k].target_shape().0, 1, -1.0, 1.0, &mut rng));
    let mix = (0..4096)
        .map(|_| usize::from(!rng.gen_bool(HOT_SHARE)))
        .collect();
    Ok(Inputs {
        tables,
        replacement,
        features,
        labels,
        mix,
    })
}

/// Inputs plus a running server.
pub struct Setup {
    inputs: Inputs,
    registry: Arc<DatasetRegistry<FactorizedTable>>,
    server: Server,
}

/// Generates the inputs, registers both datasets and starts the server.
///
/// # Errors
/// When registration or the server start fails.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = inputs(seed)?;
    let registry = Arc::new(DatasetRegistry::new());
    for (name, t) in DATASETS.iter().zip(&inputs.tables) {
        registry
            .register(name, t.clone())
            .map_err(|e| e.to_string())?;
    }
    let server =
        Server::start(Arc::clone(&registry), ServerConfig::default()).map_err(|e| e.to_string())?;
    Ok(Setup {
        inputs,
        registry,
        server,
    })
}

impl Setup {
    /// Stops the server, draining anything in flight.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

enum Pending {
    Predict(usize, Ticket<PredictResponse>),
    Train(Ticket<TrainResponse>),
}

/// A served prediction kept for the bit-identity check.
struct Sample {
    dataset: usize,
    version: u64,
    feature: usize,
    predictions: DenseMatrix,
}

/// What one phase produced.
struct Phase {
    rate: f64,
    /// CPU time of the whole process per request in each window, µs.
    cpu_us_per_req: Vec<f64>,
    records: Vec<Record>,
    /// Per request: whether it was a training request.
    is_train: Vec<bool>,
    /// Start and end of each request's `submit_*` call.
    submit_at: Vec<Option<(Instant, Instant)>>,
    samples: Vec<Sample>,
    publish_ms: Option<f64>,
}

impl Phase {
    fn latencies_us(&self, train: bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| self.is_train[r.id] == train)
            .filter_map(Record::latency_us)
            .collect()
    }

    fn failures(&self) -> usize {
        self.records.iter().filter(|r| !r.ok).count()
    }

    /// The predict latency quantile `q` of each `WINDOW_SECONDS` window,
    /// ms.
    fn window_quantiles_ms(&self, q: f64) -> Vec<f64> {
        self.records
            .chunks(per_window(self.rate))
            .filter_map(|w| {
                let lat: Vec<f64> = w
                    .iter()
                    .filter(|r| !self.is_train[r.id])
                    .filter_map(Record::latency_us)
                    .collect();
                percentile(&lat, q).map(|v| v / 1e3)
            })
            .collect()
    }
}

/// Requests per `WINDOW_SECONDS` window at `rate`.
fn per_window(rate: f64) -> usize {
    ((rate * WINDOW_SECONDS) as usize).max(1)
}

/// Runs `n` requests at `rate`; when `publish` is set, the replacement
/// table is published as a new version of `hot` halfway through.
fn phase(
    s: &Setup,
    clock: CpuClock,
    rate: f64,
    n: usize,
    publish: Option<FactorizedTable>,
) -> Phase {
    let handle = s.server.handle();
    let inputs = &s.inputs;
    let is_train: Vec<bool> = (0..n).map(|i| i % TRAIN_EVERY == TRAIN_EVERY - 1).collect();
    let mut submit_at = vec![None; n];
    let mut publish = publish;
    let mut publish_ms = None;
    let samples = Mutex::new(Vec::new());
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        rate,
    };
    let window = per_window(rate);
    // Process CPU time when each window's first request is submitted.
    let mut cpu_marks = Vec::with_capacity(n / window + 2);
    let records = openloop::run(
        schedule,
        n,
        |i| {
            if i % window == 0 {
                cpu_marks.push(clock());
            }
            if i == n / 2 {
                if let Some(t) = publish.take() {
                    let t0 = Instant::now();
                    let ok = s.registry.publish(DATASETS[0], t).is_ok();
                    publish_ms = ok.then(|| t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            let k = inputs.mix[i % inputs.mix.len()];
            let t0 = Instant::now();
            let pending = if is_train[i] {
                handle
                    .submit_train(TrainRequest {
                        dataset: DATASETS[k].to_owned(),
                        version: None,
                        labels: inputs.labels[k].clone(),
                        config: TRAIN,
                    })
                    .map(Pending::Train)
            } else {
                let f = i % POOL;
                handle
                    .submit_predict(PredictRequest {
                        dataset: DATASETS[k].to_owned(),
                        version: None,
                        features: inputs.features[k][f].clone(),
                    })
                    .map(|t| Pending::Predict(f, t))
            };
            submit_at[i] = Some((t0, Instant::now()));
            pending.ok()
        },
        |i, pending| match pending {
            Pending::Train(t) => t.wait().is_ok(),
            Pending::Predict(feature, t) => match t.wait() {
                Ok(r) => {
                    if i % CHECK_EVERY == 0 {
                        let dataset = usize::from(r.dataset != DATASETS[0]);
                        // Only this thread pushes; no panic can leave
                        // the list half-updated.
                        samples
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(Sample {
                                dataset,
                                version: r.version,
                                feature,
                                predictions: r.predictions,
                            });
                    }
                    true
                }
                Err(_) => false,
            },
        },
    );
    cpu_marks.push(clock());
    let cpu_us_per_req = cpu_marks
        .windows(2)
        .enumerate()
        .map(|(k, m)| {
            let requests = window.min(n - k * window);
            (m[1] - m[0]).as_secs_f64() * 1e6 / requests as f64
        })
        .collect();
    Phase {
        rate,
        cpu_us_per_req,
        records,
        is_train,
        submit_at,
        samples: samples.into_inner().unwrap_or_else(PoisonError::into_inner),
        publish_ms,
    }
}

/// Whether a ladder rung kept up: p95 within the limit, nothing refused
/// or failed, and the last tenth of requests no slower than the limit
/// at their median (a backlog that grows shows there first).
fn rung_passes(p: &Phase) -> bool {
    let lat = p.latencies_us(false);
    let tail = &lat[lat.len() - lat.len() / 10..];
    p.failures() == 0
        && median(&p.window_quantiles_ms(0.95)).is_some_and(|v| v * 1e3 <= P95_LIMIT_US)
        && median(tail).is_some_and(|v| v <= P95_LIMIT_US)
}

/// Climbs the rate ladder, whose first two rungs are the low and high
/// phases already run, and sets `max_rps` to the highest rung that kept
/// up. One rung that misses the limit does not end the climb (a stalled
/// virtual CPU can fail a rung far below capacity); two in a row do.
/// After the climb, one bisection step between the highest passing rung
/// and the failing rung above it halves the ladder's step. Returns the
/// phases it ran.
fn climb(s: &Setup, clock: CpuClock, low: &Phase, high: &Phase, max_rps: &mut f64) -> Vec<Phase> {
    let mut ran = Vec::new();
    let mut misses = 0;
    let mut first_miss_above = None;
    for (i, rate) in [LOW_RPS, HIGH_RPS].into_iter().chain(LADDER).enumerate() {
        let passed = match i {
            0 => rung_passes(low),
            1 => rung_passes(high),
            _ => {
                let p = phase(s, clock, rate, (rate * RUNG_SECONDS) as usize, None);
                let passed = rung_passes(&p);
                ran.push(p);
                passed
            }
        };
        if passed {
            *max_rps = rate;
            misses = 0;
            first_miss_above = None;
        } else {
            misses += 1;
            first_miss_above.get_or_insert(rate);
            if misses == 2 {
                break;
            }
        }
    }
    if let Some(fail) = first_miss_above {
        let mid = (*max_rps + fail) / 2.0;
        if mid > *max_rps && fail > HIGH_RPS {
            let p = phase(s, clock, mid, (mid * RUNG_SECONDS) as usize, None);
            if rung_passes(&p) {
                *max_rps = mid;
            }
            ran.push(p);
        }
    }
    ran
}

/// The section: repeated rounds against one running server.
pub struct Runner<'a> {
    setup: &'a Setup,
    rounds: usize,
    busy_before: u64,
    /// Time spent in this section's rounds, µs.
    active_us: f64,
    /// Per-window predict latency quantiles (ms): p50 and p95 at the low
    /// rate, then at the high rate, over every round.
    windows: [Vec<f64>; 4],
    /// CPU µs per request at the low and at the high rate, per window of
    /// every round.
    cpu_us: [Vec<f64>; 2],
    max_rps: Vec<f64>,
    train_us: Vec<f64>,
    submit_us: Vec<f64>,
    lateness_us: Vec<f64>,
    publish_ms: Vec<f64>,
    next_req: u64,
}

impl<'a> Runner<'a> {
    /// A runner against the set-up's server.
    pub fn new(setup: &'a Setup) -> Self {
        let busy = setup
            .server
            .handle()
            .metrics()
            .counter("serve.worker.busy_us");
        Self {
            setup,
            rounds: 0,
            busy_before: busy.unwrap_or(0),
            active_us: 0.0,
            windows: Default::default(),
            cpu_us: Default::default(),
            max_rps: Vec::new(),
            train_us: Vec::new(),
            submit_us: Vec::new(),
            lateness_us: Vec::new(),
            publish_ms: Vec::new(),
            next_req: 0,
        }
    }
}

impl Section for Runner<'_> {
    /// One round: the low phase, the high phase with a publish halfway,
    /// then, every other round, the rest of the rate ladder.
    fn rep(&mut self, ctx: &mut Ctx) {
        let s = self.setup;
        let clock = ctx.cpu_clock;
        let started = Instant::now();
        if self.rounds == 0 {
            // The workers' workspace shards and the dispatcher reach
            // steady state before anything is measured.
            let warm = phase(s, clock, LOW_RPS, WARMUP_N, None);
            account(s, &warm, &mut self.next_req, ctx);
        }
        let low = phase(s, clock, LOW_RPS, LOW_N, None);
        let high = phase(
            s,
            clock,
            HIGH_RPS,
            HIGH_N,
            Some(s.inputs.replacement.clone()),
        );
        for (k, (p, q)) in [(&low, 0.5), (&low, 0.95), (&high, 0.5), (&high, 0.95)]
            .into_iter()
            .enumerate()
        {
            self.windows[k].extend(p.window_quantiles_ms(q));
        }
        self.cpu_us[0].extend(&low.cpu_us_per_req);
        self.cpu_us[1].extend(&high.cpu_us_per_req);
        self.train_us.extend(low.latencies_us(true));
        self.train_us.extend(high.latencies_us(true));
        self.publish_ms.extend(high.publish_ms);
        // The ladder takes seconds and feeds only the unbounded `max_rps`,
        // so it runs on every other round.
        let ladder = if self.rounds.is_multiple_of(2) {
            let mut max_rps = 0.0;
            let ladder = climb(s, clock, &low, &high, &mut max_rps);
            self.max_rps.push(max_rps);
            ladder
        } else {
            Vec::new()
        };
        self.rounds += 1;
        for p in std::iter::once(&low).chain([&high]).chain(&ladder) {
            account(s, p, &mut self.next_req, ctx);
            let submit = p.submit_at.iter().flatten();
            self.submit_us
                .extend(submit.map(|(a, b)| (*b - *a).as_secs_f64() * 1e6));
            self.lateness_us
                .extend(p.records.iter().map(Record::lateness_us));
        }
        self.active_us += started.elapsed().as_secs_f64() * 1e6;
    }

    fn report(&mut self, ctx: &mut Ctx) {
        let names = [
            "predict_p50_ms.low",
            "predict_p95_ms.low",
            "predict_p50_ms.high",
            "predict_p95_ms.high",
        ];
        for (name, w) in names.into_iter().zip(&self.windows) {
            if let Some(v) = median(w) {
                ctx.set(name, v);
            }
        }
        for (name, v) in ["serve_cpu_us.low", "serve_cpu_us.high"]
            .into_iter()
            .zip(&self.cpu_us)
        {
            if let Some(v) = median(v) {
                ctx.set(name, v);
            }
        }
        if let Some(v) = median(&self.max_rps) {
            ctx.set("max_rps", v);
        }
        if let Some(v) = median(&self.train_us) {
            ctx.set("train_req_ms", v / 1e3);
        }
        let handle = self.setup.server.handle();
        layer_metrics(&handle, self.busy_before, self.active_us, ctx);
        if let Some(v) = median(&self.submit_us) {
            ctx.set("serve.submit_us", v);
        }
        if let Some(v) = percentile(&self.lateness_us, 0.95) {
            ctx.set("serve.generator_lateness_us.p95", v);
        }
        if let Some(v) = median(&self.publish_ms) {
            ctx.set("catalog.publish_ms.serve", v);
        }
        if ctx.tracer.enabled() {
            probe_colstable(self.setup, ctx);
        }
    }
}

/// Counts a phase's requests, checks its sampled predictions bit for bit
/// against a local `lmm_into`, and records its request spans.
fn account(s: &Setup, p: &Phase, next_req: &mut u64, ctx: &mut Ctx) {
    ctx.attempted += p.records.len() as u64;
    ctx.failed += p.failures() as u64;
    let mut ws = Workspace::new();
    for sample in &p.samples {
        let table = match (sample.dataset, sample.version) {
            (k, 1) => &s.inputs.tables[k],
            (0, _) => &s.inputs.replacement,
            _ => {
                ctx.check("served version exists", false);
                continue;
            }
        };
        let mut local = DenseMatrix::zeros(table.target_shape().0, 1);
        let same = table
            .lmm_into(
                &s.inputs.features[sample.dataset][sample.feature],
                &mut local,
                &mut ws,
            )
            .is_ok()
            && bits_identical(sample.predictions.as_slice(), local.as_slice());
        ctx.check("served prediction bit-identical to a local lmm_into", same);
    }
    let tracer = &ctx.tracer;
    if !tracer.enabled() {
        return;
    }
    for r in &p.records {
        let req = *next_req;
        *next_req += 1;
        let (Some(done), Some((s0, s1))) = (r.done, p.submit_at[r.id]) else {
            continue;
        };
        let root = tracer.new_id();
        let span = |id, parent, layer, name, a: Instant, b: Instant| Span {
            id,
            parent,
            layer,
            name,
            start_ns: tracer.at(a),
            end_ns: tracer.at(b),
            req: Some(req),
        };
        tracer.push(span(root, None, "bench", "request", r.due, done));
        let submit = if p.is_train[r.id] {
            "submit_train"
        } else {
            "submit_predict"
        };
        tracer.push(span(tracer.new_id(), Some(root), "serve", submit, s0, s1));
        tracer.push(span(
            tracer.new_id(),
            Some(root),
            "serve",
            "await",
            s1,
            done,
        ));
    }
}

/// Server-side figures from the server's own metrics registry;
/// `active_us` is the time the section's rounds took.
fn layer_metrics(handle: &ServerHandle, busy_before: u64, active_us: f64, ctx: &mut Ctx) {
    let m = handle.metrics();
    if let Some(h) = m.histogram("serve.predict.queue_wait_us") {
        ctx.set("serve.queue_wait_us.p50", h.quantile(0.5) as f64);
        ctx.set("serve.queue_wait_us.p95", h.quantile(0.95) as f64);
    }
    if let Some(h) = m.histogram("serve.batch.jobs") {
        ctx.set("serve.batch_jobs_mean", h.mean());
    }
    let busy = m.counter("serve.worker.busy_us").unwrap_or(0) - busy_before;
    let workers = ServerConfig::default().workers as f64;
    ctx.set(
        "serve.worker_busy_share",
        busy as f64 / (active_us * workers),
    );
    let rejected = m.counter("serve.requests.rejected").unwrap_or(0);
    ctx.set("serve.requests_rejected", rejected as f64);
}

/// Times the column-stable factorized multiply the batching dispatcher
/// runs, at batch widths 1 and 32, on the `hot` table.
fn probe_colstable(s: &Setup, ctx: &mut Ctx) {
    let t = &s.inputs.tables[0];
    let (rows, cols) = t.target_shape();
    let mut ws = Workspace::new();
    for width in [1usize, 32] {
        let x = DenseMatrix::filled(cols, width, 0.5);
        let mut out = DenseMatrix::zeros(rows, width);
        let mut times = Vec::new();
        let mut ok = true;
        for _ in 0..50 {
            let t0 = Instant::now();
            ok &= ctx.tracer.span("factorize", "lmm_colstable", || {
                t.lmm_colstable_into(&x, &mut out, &mut ws).is_ok()
            });
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        ctx.op(
            "colstable probe",
            if ok {
                Ok(())
            } else {
                Err("lmm_colstable_into failed")
            },
        );
        if let Some(v) = median(&times) {
            ctx.set(format!("factorize.lmm_colstable_us.w{width}"), v);
        }
    }
}
