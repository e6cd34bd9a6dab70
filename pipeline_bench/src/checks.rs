//! Output checks: each compares what the program returned with a
//! reference the benchmark knows independently. Every check is a pure
//! function so the tests can feed it a corrupted result.

/// Entity-resolution quality against the generator's known truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErQuality {
    /// Pairs the resolver accepted.
    pub matches: usize,
    /// Accepted pairs that are true shared entities.
    pub true_matches: usize,
    /// `true_matches / matches`.
    pub precision: f64,
    /// `true_matches / shared`.
    pub recall: f64,
}

/// Scores accepted `(left row, right row)` pairs for silos whose first
/// `shared` rows on both sides are the same entities, in the same order
/// (the layout of `amalur_data::hospital::scaled_silos`).
pub fn er_quality(pairs: impl IntoIterator<Item = (usize, usize)>, shared: usize) -> ErQuality {
    let (mut matches, mut true_matches) = (0usize, 0usize);
    for (l, r) in pairs {
        matches += 1;
        if l == r && l < shared {
            true_matches += 1;
        }
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    ErQuality {
        matches,
        true_matches,
        precision: ratio(true_matches, matches),
        recall: ratio(true_matches, shared),
    }
}

/// Every shared entity was found.
pub fn er_recall_complete(q: &ErQuality) -> bool {
    q.recall == 1.0
}

/// Same length and the same bits in every position.
pub fn bits_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Element-wise agreement within `tol`, relative to the larger
/// magnitude with an absolute floor of 1 (the rule the repository's
/// factorized-vs-materialized harness uses).
pub fn models_agree(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

/// Element-wise agreement within an absolute `tol`.
pub fn within_abs(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// `value` is within `rel` (a share) of `reference`.
pub fn within_rel(value: f64, reference: f64, rel: f64) -> bool {
    value.is_finite() && (value - reference).abs() <= rel * reference.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_quality_counts_only_known_pairs() {
        let mut pairs: Vec<(usize, usize)> = (0..4).map(|i| (i, i)).collect();
        pairs.push((7, 9));
        let q = er_quality(pairs.clone(), 4);
        assert_eq!((q.matches, q.true_matches), (5, 4));
        assert!((q.precision - 0.8).abs() < 1e-12);
        assert!(er_recall_complete(&q));
        // Corrupted: one shared entity missed, one mismatched.
        pairs[0] = (0, 1);
        let q = er_quality(pairs, 4);
        assert!(!er_recall_complete(&q));
        assert!((q.recall - 0.75).abs() < 1e-12);
    }

    #[test]
    fn a_single_flipped_bit_fails_bit_identity() {
        let a = vec![1.5, -2.25, 1e-300];
        let mut b = a.clone();
        assert!(bits_identical(&a, &b));
        b[1] = f64::from_bits(b[1].to_bits() ^ 1);
        assert!(!bits_identical(&a, &b));
        assert!(!bits_identical(&a, &a[..2]));
    }

    #[test]
    fn model_agreement_rejects_a_shifted_coefficient() {
        let a = vec![0.5, 10.0, -3.0];
        let mut b = a.clone();
        b[1] += 1e-10;
        assert!(models_agree(&a, &b, 1e-9));
        b[1] += 1e-6;
        assert!(!models_agree(&a, &b, 1e-9));
        assert!(!models_agree(&a, &a[..1], 1e-9));
    }

    #[test]
    fn loss_and_absolute_tolerances() {
        assert!(within_rel(1.005, 1.0, 0.01));
        assert!(!within_rel(1.02, 1.0, 0.01));
        assert!(!within_rel(f64::NAN, 1.0, 0.01));
        assert!(within_abs(&[1.0, 2.0], &[1.005, 2.0], 1e-2));
        assert!(!within_abs(&[1.0, 2.0], &[1.0, 2.5], 1e-2));
    }
}
