//! The metric names the benchmark reports, with their units. These lists
//! and `BENCHMARK.json` must agree (a test checks it).

use crate::fig5::CELLS;

/// End-to-end metrics, printed with `--trace 0`. Compute-bound jobs are
/// timed in CPU seconds (`*_cpu_s`, see `cpu.rs`); their wall times are
/// per-layer metrics.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pipeline_cpu_s", "s"),
    ("model_accuracy", "ratio"),
    ("fact_train_cpu_s", "s"),
    ("mat_train_cpu_s", "s"),
    ("planned_train_cpu_s", "s"),
    ("predict_p50_ms.low", "ms"),
    ("serve_cpu_us.low", "us"),
    ("serve_cpu_us.high", "us"),
    ("fedavg_cpu_s", "s"),
    ("vfl_shared_cpu_s", "s"),
    ("vfl_paillier_cpu_s", "s"),
];

/// Layers, in the order their self times are reported.
pub const LAYERS: [&str; 10] = [
    "integration",
    "catalog",
    "factorize",
    "matrix",
    "ml",
    "cost",
    "serve",
    "federated",
    "crypto",
    "bench",
];

const FIXED_LAYER: [(&str, &str); 53] = [
    // End-to-end figures too unsteady on a shared virtual machine for a
    // bound: wall times, which include CPU time the host steals, and
    // serving figures under load, which a host stall of tens of
    // milliseconds moves several-fold between runs.
    ("pipeline_s", "s"),
    ("fact_train_s", "s"),
    ("mat_train_s", "s"),
    ("planned_train_s", "s"),
    ("fedavg_s", "s"),
    ("vfl_shared_s", "s"),
    ("vfl_paillier_s", "s"),
    ("predict_p95_ms.low", "ms"),
    ("predict_p50_ms.high", "ms"),
    ("predict_p95_ms.high", "ms"),
    ("max_rps", "1/s"),
    ("train_req_ms", "ms"),
    ("integration.match_schemas_ms", "ms"),
    ("integration.match_rows_ms", "ms"),
    ("integration.metadata_ms", "ms"),
    ("integration.er_matches", "count"),
    ("integration.er_precision", "ratio"),
    ("integration.er_recall", "ratio"),
    ("catalog.register_ms", "ms"),
    ("catalog.publish_ms", "ms"),
    ("catalog.publish_ms.serve", "ms"),
    ("factorize.materialize_ms", "ms"),
    ("factorize.lmm_colstable_us.w1", "us"),
    ("factorize.lmm_colstable_us.w32", "us"),
    ("matrix.gemm.packed_dispatches", "count"),
    ("matrix.gemm.fallback_dispatches", "count"),
    ("matrix.gemm.colstable_dispatches", "count"),
    ("matrix.workspace.high_water_elems", "count"),
    ("ml.logreg_fit_ms", "ms"),
    ("cost.calibrate_ms", "ms"),
    ("cost.decide_agree", "count"),
    ("cost.decide_cells", "count"),
    ("cost.estimate_rel_err", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p95", "us"),
    ("serve.batch_jobs_mean", "count"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.requests_rejected", "count"),
    ("serve.generator_lateness_us.p95", "us"),
    ("federated.round_ms", "ms"),
    ("federated.retries", "count"),
    ("federated.messages", "count"),
    ("federated.bytes", "bytes"),
    ("federated.align_ms", "ms"),
    ("crypto.share_us", "us"),
    ("crypto.keygen_ms", "ms"),
    ("crypto.encrypt_ms", "ms"),
    ("crypto.decrypt_ms", "ms"),
    ("crypto.vfl_shared_share", "ratio"),
    ("crypto.vfl_paillier_share", "ratio"),
    ("trace.uncovered_share.pipeline", "ratio"),
    ("trace.uncovered_share.fact_train", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_LAYER
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for (tr, fr) in CELLS {
        let cell = format!("tr{tr}_fr{fr}");
        for (prefix, unit) in [
            ("factorize.lmm_us", "us"),
            ("factorize.lmm_t_us", "us"),
            ("matrix.gemm_us", "us"),
            ("ml.fact_epoch_ms", "ms"),
            ("ml.mat_epoch_ms", "ms"),
        ] {
            out.push((format!("{prefix}.{cell}"), unit));
        }
    }
    for layer in LAYERS {
        out.push((format!("trace.self_ms.{layer}"), "ms"));
    }
    out.push(("trace.overhead_pct".to_owned(), "%"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Name/unit pairs of one section of `BENCHMARK.json`, read with a
    /// plain scan (the file is flat and written by hand).
    fn declared(section: &str) -> BTreeSet<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        let field = |obj: &str, key: &str| -> String {
            let k = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[k + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_owned()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let e2e: BTreeSet<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: BTreeSet<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
        assert_eq!(layer.len(), per_layer().len(), "names are unique");
    }
}
