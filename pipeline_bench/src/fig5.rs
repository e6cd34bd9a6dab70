//! `fig5_train`: the paper's headline, factorized against materialized
//! training over fixed cells of the Figure 5 plane (tuple ratio ×
//! feature ratio at `r_S1 = 40 000`), with no DI and no serving.
//!
//! Each cell trains linear regression (gradient descent) and k-means
//! three ways: factorized, materialized (the join is part of the cost),
//! and with the plan the calibrated cost model picks.

use crate::checks::models_agree;
use crate::cpu::Stopwatch;
use crate::ctx::{Ctx, Section};
use crate::stats::median;
use amalur_cost::{AmalurCostModel, CostFeatures, CostModel, Decision, TrainingWorkload};
use amalur_data::{generate_two_source, TwoSourceSpec};
use amalur_factorize::FactorizedTable;
use amalur_matrix::{DenseMatrix, Workspace};
use amalur_ml::{KMeans, KMeansConfig, LinRegConfig, LinearRegression};
use amalur_obs::{MetricsRegistry, MetricsSnapshot};
use rand::SeedableRng;
use std::time::Instant;

/// Rows of the base table in every cell.
pub const ROWS_S1: usize = 40_000;
/// `(tuple ratio, feature ratio)` cells. `(32, 1)` and `(4, 2)` sit in
/// the area where materializing wins; `(8, 16)` and `(32, 64)` in the
/// area where factorizing wins.
pub const CELLS: [(usize, usize); 4] = [(32, 1), (4, 2), (8, 16), (32, 64)];
const EPOCHS: usize = 20;
const LINREG: LinRegConfig = LinRegConfig {
    epochs: EPOCHS,
    learning_rate: 0.01,
    l2: 0.0,
    tolerance: 0.0,
};
const KMEANS_ITERS: usize = 10;
/// Cells whose measured strategies differ by less than this share are
/// near-ties and excluded from the plan-agreement count.
const NEAR_TIE: f64 = 0.10;
/// Repetitions of each single-operator probe in a traced run.
const PROBE_REPS: usize = 15;

/// One Figure 5 cell.
pub struct Cell {
    /// `tr<T>_fr<F>`.
    pub name: String,
    /// The two-source table.
    pub table: FactorizedTable,
    /// Regression labels.
    pub y: DenseMatrix,
}

/// Builds the cells for `seed` with `rows_s1` base rows.
///
/// # Errors
/// When the generator rejects a cell's spec or emits inconsistent
/// metadata.
pub fn cells(seed: u64, rows_s1: usize) -> Result<Vec<Cell>, String> {
    CELLS
        .iter()
        .map(|&(tr, fr)| {
            let cols_s1 = 2;
            let spec = TwoSourceSpec {
                rows_s1,
                cols_s1,
                rows_s2: (rows_s1 / tr).max(1),
                cols_s2: cols_s1 * fr,
                shared_cols: 0,
                target_redundancy: tr > 1,
                row_coverage: 1.0,
                source_redundancy: false,
                seed: seed ^ (tr * 1000 + fr) as u64,
            };
            let (md, data) = generate_two_source(&spec).map_err(|e| e.to_string())?;
            let table = FactorizedTable::new(md, data).map_err(|e| e.to_string())?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed ^ 0x1AB);
            let y = DenseMatrix::random_uniform(table.target_shape().0, 1, -1.0, 1.0, &mut rng);
            Ok(Cell {
                name: format!("tr{tr}_fr{fr}"),
                table,
                y,
            })
        })
        .collect()
}

fn kmeans() -> KMeans {
    KMeans::new(KMeansConfig {
        k: 4,
        max_iters: KMEANS_ITERS,
        tolerance: 0.0,
        seed: 7,
    })
}

/// Fitted models of one strategy, for the equivalence check.
struct Fitted {
    coefficients: Vec<f64>,
    assignments: Vec<usize>,
    centroids: Vec<f64>,
}

/// Times of one strategy on one cell, seconds: wall time per step, and
/// the CPU time of all of them.
#[derive(Default, Clone, Copy)]
struct Times {
    materialize: f64,
    linreg: f64,
    kmeans: f64,
    cpu: f64,
}

impl Times {
    fn total(&self) -> f64 {
        self.materialize + self.linreg + self.kmeans
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Trains both models on one cell with one strategy, inside a root span
/// named `root`.
fn train(
    cell: &Cell,
    decision: Decision,
    root: &'static str,
    ctx: &mut Ctx,
) -> Option<(Times, Fitted)> {
    let tracer = &ctx.tracer;
    let clock = ctx.cpu_clock;
    let result = tracer.span("bench", root, || -> Result<_, String> {
        let watch = Stopwatch::start(clock);
        let mut times = Times::default();
        let mut lr = LinearRegression::new(LINREG);
        let mut km = kmeans();
        let assignments = match decision {
            Decision::Factorize => {
                let t = Instant::now();
                tracer
                    .span("ml", "linreg_fit", || lr.fit(&cell.table, &cell.y))
                    .map_err(|e| e.to_string())?;
                times.linreg = secs(t);
                let t = Instant::now();
                let a = tracer.span("ml", "kmeans_fit", || km.fit(&cell.table));
                times.kmeans = secs(t);
                a
            }
            Decision::Materialize => {
                let t = Instant::now();
                let m = tracer.span("factorize", "materialize", || cell.table.materialize());
                times.materialize = secs(t);
                let t = Instant::now();
                tracer
                    .span("ml", "linreg_fit", || lr.fit(&m, &cell.y))
                    .map_err(|e| e.to_string())?;
                times.linreg = secs(t);
                let t = Instant::now();
                let a = tracer.span("ml", "kmeans_fit", || km.fit(&m));
                times.kmeans = secs(t);
                a
            }
        }
        .map_err(|e| e.to_string())?;
        times.cpu = watch.read().1;
        let fitted = Fitted {
            coefficients: lr.coefficients().ok_or("unfitted")?.as_slice().to_vec(),
            assignments,
            centroids: km.centroids().ok_or("unfitted")?.as_slice().to_vec(),
        };
        Ok((times, fitted))
    });
    ctx.op(&format!("{root} {}", cell.name), result)
}

/// Per-cell samples across iterations.
#[derive(Default)]
struct CellSamples {
    fact: Vec<Times>,
    mat: Vec<Times>,
}

/// The section: repeated iterations over every cell.
pub struct Runner<'a> {
    cells: &'a [Cell],
    model: &'a AmalurCostModel,
    /// The plan per cell, decided once up front for the agreement count.
    plans: Vec<Decision>,
    samples: Vec<CellSamples>,
    /// `(wall s, CPU s)` per iteration, summed over the cells.
    fact_s: Vec<(f64, f64)>,
    mat_s: Vec<(f64, f64)>,
    planned_s: Vec<(f64, f64)>,
    /// Kernel-layer counters, mounted so their deltas can be reported.
    registry: MetricsRegistry,
    before: MetricsSnapshot,
}

fn workload() -> TrainingWorkload {
    TrainingWorkload {
        epochs: EPOCHS,
        x_cols: 1,
    }
}

impl<'a> Runner<'a> {
    /// A runner over `cells` that plans with `model`.
    pub fn new(cells: &'a [Cell], model: &'a AmalurCostModel) -> Self {
        let registry = MetricsRegistry::new();
        amalur_matrix::mount_metrics(&registry);
        let before = registry.snapshot();
        Self {
            cells,
            model,
            plans: cells
                .iter()
                .map(|c| model.decide(&CostFeatures::from_table(&c.table), &workload()))
                .collect(),
            samples: cells.iter().map(|_| CellSamples::default()).collect(),
            fact_s: Vec::new(),
            mat_s: Vec::new(),
            planned_s: Vec::new(),
            registry,
            before,
        }
    }
}

impl Section for Runner<'_> {
    /// One iteration: every cell trained factorized, materialized and
    /// with the model's plan.
    fn rep(&mut self, ctx: &mut Ctx) {
        let (mut fact_total, mut mat_total, mut planned_total) =
            ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
        let mut complete = true;
        for (cell, sample) in self.cells.iter().zip(&mut self.samples) {
            let fact = train(cell, Decision::Factorize, "fact_train", ctx);
            let mat = train(cell, Decision::Materialize, "mat_train", ctx);
            let watch = Stopwatch::start(ctx.cpu_clock);
            let plan = ctx.tracer.span("cost", "decide", || {
                self.model
                    .decide(&CostFeatures::from_table(&cell.table), &workload())
            });
            let planned_run = train(cell, plan, "planned_train", ctx);
            let planned_secs = watch.read();
            let (Some((ft, ff)), Some((mt, mf)), Some(_)) = (fact, mat, planned_run) else {
                complete = false;
                continue;
            };
            let (rows, cols) = cell.table.target_shape();
            let tol = amalur_gen::diff::equivalence_tolerance(rows, cols, EPOCHS.max(KMEANS_ITERS));
            ctx.check(
                &format!("{}: factorized and materialized models agree", cell.name),
                models_agree(&ff.coefficients, &mf.coefficients, tol)
                    && ff.assignments == mf.assignments
                    && models_agree(&ff.centroids, &mf.centroids, tol),
            );
            fact_total.0 += ft.total();
            fact_total.1 += ft.cpu;
            mat_total.0 += mt.total();
            mat_total.1 += mt.cpu;
            planned_total.0 += planned_secs.0;
            planned_total.1 += planned_secs.1;
            sample.fact.push(ft);
            sample.mat.push(mt);
        }
        if complete {
            self.fact_s.push(fact_total);
            self.mat_s.push(mat_total);
            self.planned_s.push(planned_total);
        }
    }

    fn report(&mut self, ctx: &mut Ctx) {
        for (name, values) in [
            ("fact_train", &self.fact_s),
            ("mat_train", &self.mat_s),
            ("planned_train", &self.planned_s),
        ] {
            let wall: Vec<f64> = values.iter().map(|v| v.0).collect();
            let cpu: Vec<f64> = values.iter().map(|v| v.1).collect();
            if let (Some(w), Some(c)) = (median(&wall), median(&cpu)) {
                ctx.set(format!("{name}_s"), w);
                ctx.set(format!("{name}_cpu_s"), c);
            }
        }
        layer_metrics(
            self.cells,
            &self.plans,
            &self.samples,
            self.model,
            &workload(),
            ctx,
        );
        // Dispatches since the runner started, by every section of the run.
        let after = self.registry.snapshot();
        for name in [
            "matrix.gemm.packed_dispatches",
            "matrix.gemm.fallback_dispatches",
            "matrix.gemm.colstable_dispatches",
        ] {
            let delta = after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0);
            ctx.set(name, delta as f64);
        }
        let high_water = after
            .gauge("matrix.workspace.high_water_elems")
            .unwrap_or(0);
        ctx.set("matrix.workspace.high_water_elems", high_water as f64);
        if ctx.tracer.enabled() {
            probe_operators(self.cells, ctx);
        }
    }
}

/// Per-cell epoch times, the cost model's agreement with the measured
/// winner, and its estimation error.
fn layer_metrics(
    cells: &[Cell],
    plans: &[Decision],
    samples: &[CellSamples],
    model: &AmalurCostModel,
    workload: &TrainingWorkload,
    ctx: &mut Ctx,
) {
    let (mut agree, mut decided) = (0usize, 0usize);
    let mut rel_errs = Vec::new();
    let mut materialize_ms = 0.0;
    for ((cell, plan), s) in cells.iter().zip(plans).zip(samples) {
        let med = |v: &[Times], f: fn(&Times) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
        let (Some(fact_lr), Some(mat_lr), Some(mat_m), Some(fact_all), Some(mat_all)) = (
            med(&s.fact, |t| t.linreg),
            med(&s.mat, |t| t.linreg),
            med(&s.mat, |t| t.materialize),
            med(&s.fact, Times::total),
            med(&s.mat, Times::total),
        ) else {
            continue;
        };
        ctx.set(
            format!("ml.fact_epoch_ms.{}", cell.name),
            fact_lr * 1e3 / EPOCHS as f64,
        );
        ctx.set(
            format!("ml.mat_epoch_ms.{}", cell.name),
            mat_lr * 1e3 / EPOCHS as f64,
        );
        materialize_ms += mat_m * 1e3;

        if (fact_all - mat_all).abs() / fact_all.max(mat_all) > NEAR_TIE {
            decided += 1;
            let winner = if fact_all < mat_all {
                Decision::Factorize
            } else {
                Decision::Materialize
            };
            agree += usize::from(winner == *plan);
        }
        // The cost model estimates linear-regression GD in ns.
        let f = CostFeatures::from_table(&cell.table);
        let est_fact = model.factorized_cost(&f, workload) / 1e9;
        let est_mat = model.materialized_cost(&f, workload) / 1e9;
        rel_errs.push((est_fact - fact_lr).abs() / fact_lr);
        rel_errs.push((est_mat - (mat_m + mat_lr)).abs() / (mat_m + mat_lr));
    }
    ctx.set("factorize.materialize_ms", materialize_ms);
    ctx.set("cost.decide_agree", agree as f64);
    ctx.set("cost.decide_cells", decided as f64);
    if !rel_errs.is_empty() {
        ctx.set(
            "cost.estimate_rel_err",
            rel_errs.iter().sum::<f64>() / rel_errs.len() as f64,
        );
    }
}

/// Median µs of `PROBE_REPS` calls of `f`, each inside a span.
fn probe_us(ctx: &Ctx, layer: &'static str, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        ctx.tracer.span(layer, name, &mut f);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times).unwrap_or(0.0)
}

/// Times the single operators training is made of, per cell: the
/// factorized `T·x` and `Tᵀ·r`, and the materialized GEMM.
fn probe_operators(cells: &[Cell], ctx: &mut Ctx) {
    for cell in cells {
        let (rows, cols) = cell.table.target_shape();
        let theta = DenseMatrix::filled(cols, 1, 0.5);
        let resid = DenseMatrix::filled(rows, 1, 0.25);
        let mut out_rows = DenseMatrix::zeros(rows, 1);
        let mut out_cols = DenseMatrix::zeros(cols, 1);
        let mut ws = Workspace::new();
        let mut ok = true;
        let lmm = probe_us(ctx, "factorize", "lmm", || {
            ok &= cell.table.lmm_into(&theta, &mut out_rows, &mut ws).is_ok();
        });
        let lmm_t = probe_us(ctx, "factorize", "lmm_t", || {
            ok &= cell
                .table
                .lmm_transpose_into(&resid, &mut out_cols, &mut ws)
                .is_ok();
        });
        let m = cell.table.materialize();
        let gemm = probe_us(ctx, "matrix", "gemm", || {
            ok &= std::hint::black_box(m.matmul(&theta)).is_ok();
        });
        ctx.op(
            &format!("operator probes {}", cell.name),
            if ok {
                Ok(())
            } else {
                Err("operator returned an error")
            },
        );
        ctx.set(format!("factorize.lmm_us.{}", cell.name), lmm);
        ctx.set(format!("factorize.lmm_t_us.{}", cell.name), lmm_t);
        ctx.set(format!("matrix.gemm_us.{}", cell.name), gemm);
    }
}
