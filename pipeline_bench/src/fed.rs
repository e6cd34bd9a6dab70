//! `fed_private`: paper use case 2, the only section that runs the
//! `federated` and `crypto` layers.
//!
//! A repetition runs FedAvg over the keyboard silos through a faulty
//! transport (20% drops, 10% stragglers) and vertical federated learning
//! with additive secret sharing over the party views of the integrated
//! drug-risk silos; every third repetition adds a small Paillier-512 VFL
//! (one row, two parties, one epoch, key generation included: a few CPU
//! seconds).

use crate::checks::{within_abs, within_rel};
use crate::cpu::Stopwatch;
use crate::ctx::{Ctx, Section};
use crate::stats::median;
use amalur_crypto::sharing::additive;
use amalur_crypto::KeyPair;
use amalur_factorize::FactorizedTable;
use amalur_federated::{
    party_views, train_fedavg_with_transport, train_vfl, FaultPlan, FaultyTransport, HflConfig,
    PartySamples, PrivacyMode, VflConfig, VflResult,
};
use amalur_integration::{integrate_star, IntegrationOptions, StarKind};
use amalur_matrix::DenseMatrix;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Phones and keystrokes per phone for FedAvg.
pub const PHONES: (usize, usize) = (12, 4000);
/// Patients in the drug-risk silos.
pub const PATIENTS: usize = 20_000;
const FEDAVG_ROUNDS: usize = 100;
const VFL_EPOCHS: usize = 30;
const PAILLIER_BITS: usize = 512;
/// Aligned rows and parties the Paillier run trains on (one epoch).
const PAILLIER_ROWS: usize = 1;
const PAILLIER_PARTIES: usize = 2;
/// The Paillier run takes seconds; it runs on every this many
/// repetitions.
const PAILLIER_EVERY: u64 = 3;
/// FedAvg and secret-shared VFL runs per repetition.
const RUNS_PER_REP: u64 = 2;
/// Protocol seed of the Paillier run. Key generation searches for random
/// primes and its time varies severalfold with the seed; a fixed seed
/// keeps that luck out of `vfl_paillier_s` while the data still follow
/// `--seed`.
const PAILLIER_KEY_SEED: u64 = 0x9A11;
/// Fixed-point encodings bound the distance to plaintext VFL.
const VFL_TOL: f64 = 1e-3;
/// Faulty FedAvg must end within this share of the fault-free loss.
const FEDAVG_TOL: f64 = 0.01;
/// Repetitions of each crypto probe in a traced run.
const PROBE_REPS: usize = 2;

/// Seeded inputs.
pub struct Inputs {
    /// FedAvg parties: standardized keystroke features plus a bias.
    pub parties: Vec<PartySamples>,
    /// Drug-risk silos integrated on `pid`, label split off.
    pub table: FactorizedTable,
    /// Adverse-event labels, aligned with `table`.
    pub y: DenseMatrix,
    /// Seed for protocol randomness (shares, keys, fault plan).
    pub seed: u64,
}

/// Column-wise standardization; each silo can do this locally.
fn standardize(x: &DenseMatrix) -> DenseMatrix {
    let n = x.rows() as f64;
    let mut out = x.clone();
    for j in 0..x.cols() {
        let col = x.col(j);
        let mean = col.iter().sum::<f64>() / n;
        let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let sd = var.sqrt().max(1e-9);
        for i in 0..x.rows() {
            out.set(i, j, (x.get(i, j) - mean) / sd);
        }
    }
    out
}

/// Builds the inputs for `seed`: generates both silo sets and integrates
/// the drug-risk silos (an inner star join on the clean key `pid`).
///
/// # Errors
/// When the generated silos fail to integrate.
pub fn inputs(seed: u64, phones: (usize, usize), patients: usize) -> Result<Inputs, String> {
    let features = ["dwell_ms", "flight_ms", "pressure", "x", "y"];
    let parties = amalur_data::workloads::keyboard_silos(phones.0, phones.1, seed)
        .iter()
        .map(|t| -> Result<PartySamples, String> {
            let x = standardize(&t.to_matrix(&features, 0.0).map_err(|e| e.to_string())?);
            Ok(PartySamples {
                name: t.name().to_owned(),
                x: x.hstack(&DenseMatrix::ones(x.rows(), 1))
                    .map_err(|e| e.to_string())?,
                y: t.to_matrix(&["next_flight_ms"], 0.0)
                    .map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let silos = amalur_data::workloads::drug_risk_silos(patients, 0.0, seed);
    let satellites: Vec<_> = silos[1..].iter().collect();
    let integrated = integrate_star(
        &silos[0],
        &satellites,
        StarKind::Inner,
        &IntegrationOptions::with_exact_key("pid", "pid"),
    )
    .map_err(|e| e.to_string())?;
    let ft = FactorizedTable::from_integration(integrated).map_err(|e| e.to_string())?;
    let label = ft
        .metadata()
        .target_columns
        .iter()
        .position(|c| c == "adverse_event")
        .ok_or("label column missing")?;
    let (table, y) = ft.split_label(label).map_err(|e| e.to_string())?;
    Ok(Inputs {
        parties,
        table,
        y,
        seed,
    })
}

fn fedavg_config(seed: u64) -> HflConfig {
    HflConfig {
        rounds: FEDAVG_ROUNDS,
        local_epochs: 2,
        learning_rate: 0.1,
        seed,
        ..HflConfig::default()
    }
}

fn vfl_config(epochs: usize, privacy: PrivacyMode, seed: u64) -> VflConfig {
    VflConfig {
        epochs,
        learning_rate: 0.1,
        l2: 0.0,
        privacy,
        seed,
        ..VflConfig::default()
    }
}

fn stacked(r: &VflResult) -> Vec<f64> {
    r.coefficients
        .iter()
        .flat_map(|c| c.as_slice().to_vec())
        .collect()
}

/// Everything a job's checks compare against, computed once per run.
struct References {
    fedavg_loss: f64,
    shared: Vec<f64>,
    paillier: Vec<f64>,
    tiny: Vec<DenseMatrix>,
    tiny_y: DenseMatrix,
}

/// Plaintext and fault-free references for the checks, and the small
/// Paillier inputs.
fn references(inp: &Inputs) -> Result<References, String> {
    let mut clean =
        FaultyTransport::new(FaultPlan::reliable(inp.seed)).map_err(|e| e.to_string())?;
    let fedavg = train_fedavg_with_transport(&inp.parties, &fedavg_config(inp.seed), &mut clean)
        .map_err(|e| e.to_string())?;
    let views: Vec<DenseMatrix> = party_views(&inp.table)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|v| standardize(&v.features))
        .collect();
    let shared = train_vfl(
        &views,
        &inp.y,
        &vfl_config(VFL_EPOCHS, PrivacyMode::Plaintext, inp.seed),
    )
    .map_err(|e| e.to_string())?;
    let rows = 0..PAILLIER_ROWS;
    let tiny = views[..PAILLIER_PARTIES]
        .iter()
        .map(|v| v.slice(rows.clone(), 0..v.cols()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let tiny_y = inp.y.slice(rows, 0..1).map_err(|e| e.to_string())?;
    let paillier = train_vfl(
        &tiny,
        &tiny_y,
        &vfl_config(1, PrivacyMode::Plaintext, inp.seed),
    )
    .map_err(|e| e.to_string())?;
    Ok(References {
        fedavg_loss: *fedavg.loss_history.last().ok_or("no FedAvg rounds")?,
        shared: stacked(&shared),
        paillier: stacked(&paillier),
        tiny,
        tiny_y,
    })
}

/// Figures of one protocol run.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    wall_s: f64,
    cpu_s: f64,
    /// Party-view alignment, ms (secret-shared VFL only).
    align_ms: f64,
    /// Share of the wall time spent in crypto.
    crypto_share: f64,
}

/// One faulty FedAvg run, checked against the fault-free loss.
fn fedavg(inp: &Inputs, refs: &References, seed: u64, ctx: &mut Ctx) -> Option<Run> {
    let watch = Stopwatch::start(ctx.cpu_clock);
    let result = ctx.tracer.span("federated", "train_fedavg", || {
        let mut transport = FaultyTransport::new(FaultPlan::grid(seed, 0.2, 0.1))?;
        train_fedavg_with_transport(&inp.parties, &fedavg_config(inp.seed), &mut transport)
    });
    let (wall_s, cpu_s) = watch.read();
    let result = ctx.op("faulty FedAvg", result)?;
    let loss = result.loss_history.last().copied().unwrap_or(f64::NAN);
    ctx.check(
        "faulty FedAvg within 1% of the fault-free loss",
        within_rel(loss, refs.fedavg_loss, FEDAVG_TOL),
    );
    ctx.set("federated.retries", result.comm.retries as f64);
    ctx.set("federated.messages", result.comm.messages as f64);
    ctx.set("federated.bytes", result.comm.total_bytes() as f64);
    Some(Run {
        wall_s,
        cpu_s,
        ..Run::default()
    })
}

/// One secret-shared VFL run from the integrated table (party views,
/// then training), checked against plaintext VFL.
fn vfl_shared(inp: &Inputs, refs: &References, seed: u64, ctx: &mut Ctx) -> Option<Run> {
    let watch = Stopwatch::start(ctx.cpu_clock);
    let t = Instant::now();
    let views = ctx
        .tracer
        .span("federated", "party_views", || party_views(&inp.table));
    let align_ms = t.elapsed().as_secs_f64() * 1e3;
    let views: Vec<DenseMatrix> = ctx
        .op("party views", views)?
        .into_iter()
        .map(|v| standardize(&v.features))
        .collect();
    let result = ctx.tracer.span("federated", "train_vfl_shared", || {
        train_vfl(
            &views,
            &inp.y,
            &vfl_config(VFL_EPOCHS, PrivacyMode::SecretShared, seed),
        )
    });
    let (wall_s, cpu_s) = watch.read();
    let result = ctx.op("secret-shared VFL", result)?;
    ctx.check(
        "secret-shared VFL matches plaintext VFL",
        within_abs(&stacked(&result), &refs.shared, VFL_TOL),
    );
    Some(Run {
        wall_s,
        cpu_s,
        align_ms,
        crypto_share: result.comm.crypto_time.as_secs_f64() / wall_s,
    })
}

/// One small Paillier VFL run (key generation included), checked against
/// plaintext VFL.
fn vfl_paillier(refs: &References, seed: u64, ctx: &mut Ctx) -> Option<Run> {
    let watch = Stopwatch::start(ctx.cpu_clock);
    let result = ctx.tracer.span("federated", "train_vfl_paillier", || {
        let privacy = PrivacyMode::Paillier {
            key_bits: PAILLIER_BITS,
        };
        train_vfl(&refs.tiny, &refs.tiny_y, &vfl_config(1, privacy, seed))
    });
    let (wall_s, cpu_s) = watch.read();
    let result = ctx.op("Paillier VFL", result)?;
    ctx.check(
        "Paillier VFL matches plaintext VFL",
        within_abs(&stacked(&result), &refs.paillier, VFL_TOL),
    );
    Some(Run {
        wall_s,
        cpu_s,
        crypto_share: result.comm.crypto_time.as_secs_f64() / wall_s,
        ..Run::default()
    })
}

/// The section: FedAvg and secret-shared VFL `RUNS_PER_REP` times every
/// repetition, the Paillier run every `PAILLIER_EVERY` repetitions.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    /// Computed on the first repetition; `None` after it failed.
    refs: Option<Option<References>>,
    reps: u64,
    fedavg: Vec<Run>,
    shared: Vec<Run>,
    paillier: Vec<Run>,
}

impl<'a> Runner<'a> {
    /// A runner over `inputs`.
    pub fn new(inputs: &'a Inputs) -> Self {
        Self {
            inputs,
            refs: None,
            reps: 0,
            fedavg: Vec::new(),
            shared: Vec::new(),
            paillier: Vec::new(),
        }
    }
}

impl Section for Runner<'_> {
    fn rep(&mut self, ctx: &mut Ctx) {
        let inp = self.inputs;
        let refs = self
            .refs
            .get_or_insert_with(|| ctx.op("federated references", references(inp)));
        let Some(refs) = refs.as_ref() else {
            return;
        };
        // Every repetition draws fresh protocol randomness (fault
        // schedule, shares), so the medians are over fault schedules too.
        if self.reps.is_multiple_of(PAILLIER_EVERY) {
            self.paillier
                .extend(vfl_paillier(refs, PAILLIER_KEY_SEED, ctx));
        }
        for k in 0..RUNS_PER_REP {
            let seed = inp.seed.wrapping_add(self.reps * RUNS_PER_REP + k);
            self.fedavg.extend(fedavg(inp, refs, seed, ctx));
            self.shared.extend(vfl_shared(inp, refs, seed, ctx));
        }
        self.reps += 1;
    }

    fn report(&mut self, ctx: &mut Ctx) {
        let med =
            |runs: &[Run], f: fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let values = [
            ("fedavg_s", med(&self.fedavg, |r| r.wall_s)),
            ("fedavg_cpu_s", med(&self.fedavg, |r| r.cpu_s)),
            (
                "federated.round_ms",
                med(&self.fedavg, |r| r.wall_s * 1e3 / FEDAVG_ROUNDS as f64),
            ),
            ("vfl_shared_s", med(&self.shared, |r| r.wall_s)),
            ("vfl_shared_cpu_s", med(&self.shared, |r| r.cpu_s)),
            ("federated.align_ms", med(&self.shared, |r| r.align_ms)),
            (
                "crypto.vfl_shared_share",
                med(&self.shared, |r| r.crypto_share),
            ),
            ("vfl_paillier_s", med(&self.paillier, |r| r.wall_s)),
            ("vfl_paillier_cpu_s", med(&self.paillier, |r| r.cpu_s)),
            (
                "crypto.vfl_paillier_share",
                med(&self.paillier, |r| r.crypto_share),
            ),
        ];
        for (name, v) in values {
            if let Some(v) = v {
                ctx.set(name, v);
            }
        }
        if ctx.tracer.enabled() {
            probe_crypto(self.inputs.seed, ctx);
        }
    }
}

/// Median ms of `PROBE_REPS` calls of `f`, each inside a span.
fn probe_ms<T>(ctx: &mut Ctx, name: &'static str, mut f: impl FnMut() -> Option<T>) -> Option<f64> {
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let out = ctx.tracer.span("crypto", name, &mut f);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        ctx.op(name, out.ok_or("crypto operation failed"))?;
    }
    median(&times)
}

/// Times single crypto operations: one additive sharing of a value among
/// three parties, and Paillier-512 key generation, encryption and
/// decryption.
fn probe_crypto(seed: u64, ctx: &mut Ctx) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
    const SHARES: usize = 2000;
    let t = Instant::now();
    let shared = ctx.tracer.span("crypto", "share", || {
        (0..SHARES).all(|i| additive::share(i as u64, 3, &mut rng).is_ok())
    });
    ctx.set(
        "crypto.share_us",
        t.elapsed().as_secs_f64() * 1e6 / SHARES as f64,
    );
    let _ = ctx.op(
        "additive sharing",
        if shared { Ok(()) } else { Err("share failed") },
    );

    let mut keys = None;
    if let Some(v) = probe_ms(ctx, "keygen", || {
        keys = KeyPair::generate(PAILLIER_BITS, &mut rng).ok();
        keys.as_ref().map(|_| ())
    }) {
        ctx.set("crypto.keygen_ms", v);
    }
    let Some(keys) = keys else {
        return;
    };
    let mut cipher = None;
    if let Some(v) = probe_ms(ctx, "encrypt", || {
        cipher = keys
            .public
            .encrypt_f64(rng.gen_range(-1.0..1.0), &mut rng)
            .ok();
        cipher.as_ref().map(|_| ())
    }) {
        ctx.set("crypto.encrypt_ms", v);
    }
    let Some(cipher) = cipher else {
        return;
    };
    if let Some(v) = probe_ms(ctx, "decrypt", || keys.private.decrypt_f64(&cipher).ok()) {
        ctx.set("crypto.decrypt_ms", v);
    }
}
