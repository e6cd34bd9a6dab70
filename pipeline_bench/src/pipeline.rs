//! `augment_pipeline`: paper use case 1, closed loop, one job at a time.
//!
//! A job registers the two hospital silos, integrates them with a left
//! join on the fuzzy key `n` (schema matching, entity resolution, DI
//! metadata), factorizes the result, lets the cost model pick a plan,
//! trains logistic regression with that plan, publishes the table to the
//! serving registry and serves a few predictions. `pipeline_s` runs from
//! the silos to the first served prediction; `pipeline_cpu_s` is the CPU
//! time of the same interval.

use crate::checks::{bits_identical, er_quality, er_recall_complete};
use crate::cpu::Stopwatch;
use crate::ctx::{Ctx, Section};
use crate::stats::median;
use amalur_catalog::{DatasetRegistry, DatasetVersion, MetadataCatalog, SourceEntry};
use amalur_cost::{AmalurCostModel, CostFeatures, CostModel, Decision, TrainingWorkload};
use amalur_factorize::FactorizedTable;
use amalur_integration::{
    integrate_pair, match_rows, match_schemas, IntegrationOptions, ScenarioKind,
};
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_ml::{LogRegConfig, LogisticRegression};
use amalur_relational::Table;
use amalur_serve::{PredictRequest, Server, ServerConfig};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Patients in the ER silo, the pulmonary silo, and in both.
pub const SILOS: (usize, usize, usize) = (4000, 2500, 2000);
const DATASET: &str = "augmented";
const LABEL: &str = "m";
const TRAIN: LogRegConfig = LogRegConfig {
    epochs: 400,
    learning_rate: 1e-4,
    l2: 0.0,
};
/// Predictions served per job after the first.
const EXTRA_PREDICTS: usize = 3;
/// Repetitions, in a traced run, of the fuzzy entity-resolution probe
/// and of the cheaper exact-key probes the metadata build is derived
/// from.
const PROBE_REPS: usize = 2;
const METADATA_REPS: usize = 7;

/// The job's inputs: two dirty silos with `SILOS.2` shared patients.
pub struct Inputs {
    /// ER department silo (base table, holds the label `m`).
    pub er: Table,
    /// Pulmonary department silo (adds oxygen `o`).
    pub pulmonary: Table,
    /// Seeded feature columns for the predictions after the first.
    pub probes: Vec<DenseMatrix>,
}

/// Builds the inputs for `seed`.
pub fn inputs(seed: u64, sizes: (usize, usize, usize)) -> Inputs {
    let (er, pulmonary) = amalur_data::hospital::scaled_silos(sizes.0, sizes.1, sizes.2, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
    // Target features after the label is split off: a, hr, o.
    let probes = (0..EXTRA_PREDICTS)
        .map(|_| DenseMatrix::random_uniform(3, 1, -0.01, 0.01, &mut rng))
        .collect();
    Inputs {
        er,
        pulmonary,
        probes,
    }
}

/// Inputs plus a running server and its registry.
pub struct Setup {
    inputs: Inputs,
    registry: Arc<DatasetRegistry<FactorizedTable>>,
    server: Server,
}

/// Generates the inputs and starts the serving engine.
///
/// # Errors
/// When the server cannot start its threads.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = inputs(seed, SILOS);
    let registry = Arc::new(DatasetRegistry::new());
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

/// What one job produced, before the checks.
struct Raw {
    /// Silos to the first served prediction, `(wall s, CPU s)`.
    pipeline_s: (f64, f64),
    register_ms: f64,
    logreg_fit_ms: f64,
    publish_ms: f64,
    pairs: Vec<(usize, usize)>,
    published: DatasetVersion<FactorizedTable>,
    y: DenseMatrix,
    model: LogisticRegression,
    /// `(features, served predictions)` per predict request.
    served: Vec<(DenseMatrix, DenseMatrix)>,
}

struct Job {
    pipeline_s: f64,
    pipeline_cpu_s: f64,
    accuracy: f64,
    register_ms: f64,
    publish_ms: f64,
    logreg_fit_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One job from silos to served predictions; `None` when a step failed.
fn job(s: &Setup, model: &AmalurCostModel, ctx: &mut Ctx) -> Option<Job> {
    let (er, pulmonary) = (&s.inputs.er, &s.inputs.pulmonary);
    let handle = s.server.handle();
    let tracer = &ctx.tracer;
    let start = Stopwatch::start(ctx.cpu_clock);
    let outcome = tracer.span("bench", "pipeline_job", || -> Result<_, String> {
        let t = Instant::now();
        let catalog = MetadataCatalog::new();
        tracer
            .span("catalog", "register", || {
                catalog.register_source(SourceEntry::from_table(er, "er-department"))?;
                catalog.register_source(SourceEntry::from_table(pulmonary, "pulmonary-department"))
            })
            .map_err(|e| format!("register silos: {e}"))?;
        let register_ms = ms_since(t);

        let integrated = tracer
            .span("integration", "integrate_pair", || {
                integrate_pair(
                    er,
                    pulmonary,
                    ScenarioKind::LeftJoin,
                    &IntegrationOptions::with_key("n", "n"),
                )
            })
            .map_err(|e| format!("integrate: {e}"))?;
        let pairs: Vec<(usize, usize)> = integrated
            .row_matches
            .iter()
            .map(|m| (m.left, m.right))
            .collect();

        let ft = tracer
            .span("factorize", "from_integration", || {
                FactorizedTable::from_integration(integrated)
            })
            .map_err(|e| format!("factorize: {e}"))?;
        let label = ft
            .metadata()
            .target_columns
            .iter()
            .position(|c| c == LABEL)
            .ok_or("label column missing from the target schema")?;
        let (x, y) = tracer
            .span("factorize", "split_label", || ft.split_label(label))
            .map_err(|e| format!("split label: {e}"))?;

        let workload = TrainingWorkload {
            epochs: TRAIN.epochs,
            x_cols: 1,
        };
        let plan = tracer.span("cost", "decide", || {
            model.decide(&CostFeatures::from_table(&x), &workload)
        });
        let mut lr = LogisticRegression::new(TRAIN);
        let t = Instant::now();
        match plan {
            Decision::Factorize => tracer.span("ml", "logreg_fit", || lr.fit(&x, &y)),
            Decision::Materialize => {
                let m = tracer.span("factorize", "materialize", || x.materialize());
                tracer.span("ml", "logreg_fit", || lr.fit(&m, &y))
            }
        }
        .map_err(|e| format!("train: {e}"))?;
        let logreg_fit_ms = ms_since(t);
        let theta = lr.coefficients().ok_or("model unfitted after fit")?.clone();

        let t = Instant::now();
        let published = tracer
            .span("catalog", "publish", || {
                if s.registry.status(DATASET).is_ok() {
                    s.registry.publish(DATASET, x)
                } else {
                    s.registry.register(DATASET, x)
                }
            })
            .map_err(|e| format!("publish: {e}"))?;
        let publish_ms = ms_since(t);

        // The first served prediction ends the pipeline; the extra
        // predicts are operations too but fall outside `pipeline_s`.
        let mut served = Vec::with_capacity(1 + EXTRA_PREDICTS);
        let mut pipeline_s = (0.0, 0.0);
        for features in std::iter::once(&theta).chain(&s.inputs.probes) {
            let response = tracer
                .span("serve", "predict", || {
                    handle.predict(PredictRequest {
                        dataset: DATASET.to_owned(),
                        version: Some(published.version),
                        features: features.clone(),
                    })
                })
                .map_err(|e| format!("serve: {e}"))?;
            if served.is_empty() {
                pipeline_s = start.read();
            }
            served.push((features.clone(), response.predictions));
        }
        Ok(Raw {
            pipeline_s,
            register_ms,
            logreg_fit_ms,
            publish_ms,
            pairs,
            published,
            y,
            model: lr,
            served,
        })
    });
    let raw = ctx.op("augment pipeline job", outcome)?;

    let quality = er_quality(raw.pairs.iter().copied(), SILOS.2);
    ctx.check(
        "ER recall on the known shared patients",
        er_recall_complete(&quality),
    );
    ctx.set("integration.er_matches", quality.matches as f64);
    ctx.set("integration.er_precision", quality.precision);
    ctx.set("integration.er_recall", quality.recall);

    let x = &raw.published.data;
    let mut ws = Workspace::new();
    for (features, predictions) in &raw.served {
        ctx.attempted += 1;
        let mut local = DenseMatrix::zeros(x.target_shape().0, 1);
        let same = x.lmm_into(features, &mut local, &mut ws).is_ok()
            && bits_identical(predictions.as_slice(), local.as_slice());
        ctx.check("served prediction bit-identical to a local lmm_into", same);
    }
    let accuracy = raw
        .model
        .predict(x.as_ref())
        .map(|p| amalur_ml::metrics::accuracy(&p, raw.y.as_slice()));
    let accuracy = ctx.op("model accuracy", accuracy)?;
    Some(Job {
        pipeline_s: raw.pipeline_s.0,
        pipeline_cpu_s: raw.pipeline_s.1,
        accuracy,
        register_ms: raw.register_ms,
        publish_ms: raw.publish_ms,
        logreg_fit_ms: raw.logreg_fit_ms,
    })
}

/// The section: repeated jobs over one set-up.
pub struct Runner<'a> {
    setup: &'a Setup,
    model: &'a AmalurCostModel,
    jobs: Vec<Job>,
}

impl<'a> Runner<'a> {
    /// A runner that plans with `model`.
    pub fn new(setup: &'a Setup, model: &'a AmalurCostModel) -> Self {
        Self {
            setup,
            model,
            jobs: Vec::new(),
        }
    }
}

impl Section for Runner<'_> {
    fn rep(&mut self, ctx: &mut Ctx) {
        if let Some(j) = job(self.setup, self.model, ctx) {
            self.jobs.push(j);
        }
    }

    fn report(&mut self, ctx: &mut Ctx) {
        let jobs = &self.jobs;
        let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
        for (name, f) in [
            ("pipeline_s", (|j: &Job| j.pipeline_s) as fn(&Job) -> f64),
            ("pipeline_cpu_s", |j| j.pipeline_cpu_s),
            ("model_accuracy", |j| j.accuracy),
            ("catalog.register_ms", |j| j.register_ms),
            ("catalog.publish_ms", |j| j.publish_ms),
            ("ml.logreg_fit_ms", |j| j.logreg_fit_ms),
        ] {
            if let Some(v) = med(f) {
                ctx.set(name, v);
            }
        }
        if ctx.tracer.enabled() {
            probe_integration(self.setup, ctx);
        }
    }
}

/// Times schema matching and entity resolution on their own, with the
/// arguments `integrate_pair` passes them. The metadata build is what
/// remains of `integrate_pair` once both are subtracted (a derived
/// figure), taken on the same silos joined on the exact key: fuzzy
/// entity resolution takes about a second of CPU, and on a shared host
/// that varies by more from call to call than the whole metadata build
/// takes, so a difference of fuzzy runs would be noise. CPU time
/// throughout, so that time the host steals does not land in it.
fn probe_integration(s: &Setup, ctx: &mut Ctx) {
    let (er, pulmonary) = (&s.inputs.er, &s.inputs.pulmonary);
    let fuzzy = IntegrationOptions::with_key("n", "n");
    let exact = IntegrationOptions::with_exact_key("n", "n");
    let clock = ctx.cpu_clock;
    let cpu_ms = |w: Stopwatch| w.read().1 * 1e3;
    let mut rows = Vec::new();
    for _ in 0..PROBE_REPS {
        let w = Stopwatch::start(clock);
        let r = ctx.tracer.span("integration", "match_rows", || {
            match_rows(er, pulmonary, "n", "n", &fuzzy.er)
        });
        rows.push(cpu_ms(w));
        ctx.op("match_rows probe", r);
    }
    let (mut schemas, mut rest) = (Vec::new(), Vec::new());
    for _ in 0..METADATA_REPS {
        let w = Stopwatch::start(clock);
        ctx.tracer.span("integration", "match_schemas", || {
            match_schemas(er, pulmonary, &exact.matching)
        });
        let sm = cpu_ms(w);
        let w = Stopwatch::start(clock);
        let r = ctx.tracer.span("integration", "match_rows_exact", || {
            match_rows(er, pulmonary, "n", "n", &exact.er)
        });
        let rm = cpu_ms(w);
        let w = Stopwatch::start(clock);
        let whole = ctx.tracer.span("integration", "integrate_pair_exact", || {
            integrate_pair(er, pulmonary, ScenarioKind::LeftJoin, &exact)
        });
        let total = cpu_ms(w);
        if ctx.op("exact match_rows probe", r).is_some()
            && ctx.op("exact integrate probe", whole).is_some()
        {
            schemas.push(sm);
            rest.push(total - sm - rm);
        }
    }
    for (name, v) in [
        ("integration.match_schemas_ms", &schemas),
        ("integration.match_rows_ms", &rows),
        ("integration.metadata_ms", &rest),
    ] {
        if let Some(m) = median(v) {
            ctx.set(name, m);
        }
    }
}
