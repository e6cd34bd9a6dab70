//! Golden output of entity resolution on the scaled hospital silos.
//!
//! `match_rows` output is DI metadata: its row matches become the
//! indicator matrices factorized training runs on, so a faster scorer
//! or a different candidate sort must not move a single bit of it. The
//! fingerprints below were recorded with the per-pair `jaro_winkler`
//! scorer and the stable `(score desc, left, right)` sort that preceded
//! the bit-parallel kernel; the shapes keep the debug-mode suite fast
//! while still scoring tens of thousands of fuzzy pairs (every
//! non-shared `patient1…` / `patient2…` key lands in block `p`).

use amalur_data::hospital::scaled_silos;
use amalur_integration::{match_rows, ErConfig, RowMatch};

/// FNV-1a over `(left, right, score.to_bits())` of every match, in
/// output order.
fn fingerprint(matches: &[RowMatch]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in matches {
        for word in [m.left as u64, m.right as u64, m.score.to_bits()] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

fn golden(shape: (usize, usize, usize, u64)) -> (usize, u64) {
    let (er, pulmonary) = scaled_silos(shape.0, shape.1, shape.2, shape.3);
    let matches = match_rows(&er, &pulmonary, "n", "n", &ErConfig::default()).unwrap();
    (matches.len(), fingerprint(&matches))
}

#[test]
fn fuzzy_er_output_is_pinned_on_400_250_200_seed7() {
    assert_eq!(golden((400, 250, 200, 7)), (250, 0xf1a1_49b3_5ca7_7706));
}

#[test]
fn fuzzy_er_output_is_pinned_on_300_300_100_seed11() {
    assert_eq!(golden((300, 300, 100, 11)), (300, 0x66fb_c1e3_0276_8bea));
}

#[test]
fn zero_threshold_er_output_is_pinned() {
    // Every in-block pair becomes a candidate, so greedy resolution runs
    // over many exact score ties.
    let (er, pulmonary) = scaled_silos(120, 90, 30, 3);
    let cfg = ErConfig {
        threshold: 0.0,
        ..ErConfig::default()
    };
    let matches = match_rows(&er, &pulmonary, "n", "n", &cfg).unwrap();
    assert_eq!(
        (matches.len(), fingerprint(&matches)),
        (90, 0x7c7a_9dc8_5fd4_fb45)
    );
}

#[test]
fn exact_only_er_output_is_pinned() {
    let (er, pulmonary) = scaled_silos(400, 250, 200, 7);
    let cfg = ErConfig {
        exact_only: true,
        ..ErConfig::default()
    };
    let matches = match_rows(&er, &pulmonary, "n", "n", &cfg).unwrap();
    assert_eq!(
        (matches.len(), fingerprint(&matches)),
        (200, 0xe183_f5a9_3997_a325)
    );
}
