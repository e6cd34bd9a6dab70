//! Summarizes the result lines of repeated runs: for each metric, the
//! median and the interquartile range as a share of the median (the
//! figure a metric's bound in `BENCHMARK.json` is compared against).
//!
//! ```text
//! for s in 1 2 3 4 5; do <benchmark command> --seed $s ... | tail -n1; done \
//!     | cargo run --release --manifest-path pipeline_bench/Cargo.toml --bin spread
//! ```

use amalur_pipeline_bench::stats::{median, relative_spread};
use std::collections::BTreeMap;
use std::io::BufRead;

/// `(name, value)` pairs of one result line
/// (`... "metrics": {"<name>": {"value": <v>, "unit": "<u>"}, ...}}`).
fn metrics(line: &str) -> Vec<(String, f64)> {
    let Some(start) = line.find("\"metrics\"") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &line[start + "\"metrics\"".len()..];
    while let Some(v) = rest.find("\"value\": ") {
        let head = &rest[..v];
        let name_end = head.rfind("\": {").unwrap_or(0);
        let name_start = head[..name_end].rfind('"').map_or(0, |i| i + 1);
        let tail = &rest[v + "\"value\": ".len()..];
        let num_end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..num_end].trim().parse::<f64>() {
            out.push((head[name_start..name_end].to_owned(), value));
        }
        rest = &tail[num_end..];
    }
    out
}

fn main() {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in std::io::stdin().lock().lines().map_while(Result::ok) {
        for (name, v) in metrics(&line) {
            values.entry(name).or_default().push(v);
        }
    }
    println!(
        "{:<40} {:>4} {:>14} {:>8}",
        "metric", "n", "median", "spread"
    );
    for (name, v) in &values {
        let med = median(v).unwrap_or(f64::NAN);
        let spread = relative_spread(v).unwrap_or(f64::NAN);
        println!("{name:<40} {:>4} {med:>14.6} {spread:>8.4}", v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::metrics;

    #[test]
    fn parses_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, "max_rps": {"value": 7500.0, "unit": "1/s"}}}"#;
        assert_eq!(
            metrics(line),
            vec![("setup_s".to_owned(), 0.81), ("max_rps".to_owned(), 7500.0)]
        );
        assert!(metrics("not a result").is_empty());
    }
}
