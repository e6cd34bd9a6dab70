//! Entity resolution: discovering row matches between source tables.
//!
//! The paper's running example links `S1`'s *Jane* with `S2`'s *Jane*
//! ("Same Entity", Fig. 2). This module produces such row matchings —
//! the input to the indicator matrices of §III-B — with a standard
//! blocking + similarity pipeline:
//!
//! 1. **Blocking**: fuzzy candidate pairs are generated only within
//!    blocks that share a cheap key (the ASCII-lowercased first character
//!    of the rendered entity key). This prunes pairs across initials
//!    only: on keys that share a prefix (`patient1…`, `patient2…`) every
//!    row lands in one block and the fuzzy phase degenerates to the
//!    quadratic all-pairs comparison.
//! 2. **Similarity**: exact key equality scores 1.0; otherwise a
//!    Jaro–Winkler score over the rendered key values. Each key is
//!    decoded to chars once; a right-hand key that is ASCII and at most
//!    64 chars long is scored bit-parallel from per-character position
//!    masks, any other pair by a char-slice path with reusable scratch.
//!    Neither allocates per pair, and both give bit-identical scores.
//! 3. **1:1 greedy resolution**: pairs are accepted in descending score
//!    order above a threshold, each row used at most once. Every pair
//!    that passes the threshold costs one 16-byte candidate — score and
//!    both row indices packed into a `u128` whose integer order is the
//!    resolution order — so the fuzzy phase holds one such word per
//!    passing pair until the candidates are sorted.
//!
//! The output is deliberately *approximate* metadata (§V-B: "the results
//! from an entity resolution approach... are most likely approximate"):
//! the threshold trades recall for precision, and downstream consumers
//! (federated learning in particular) must tolerate imperfect matches.

use crate::{IntegrationError, Result};
use amalur_relational::Table;
use std::collections::BTreeMap;

/// A scored row correspondence `(left row, right row)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMatch {
    /// Row index in the left table.
    pub left: usize,
    /// Row index in the right table.
    pub right: usize,
    /// Match confidence in `[0, 1]`.
    pub score: f64,
}

/// Configuration for [`match_rows`].
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Minimum similarity for a candidate pair to be accepted.
    pub threshold: f64,
    /// When `true`, only exact key equality is considered (fast path for
    /// clean keys such as surrogate ids).
    pub exact_only: bool,
}

impl Default for ErConfig {
    fn default() -> Self {
        Self {
            threshold: 0.85,
            exact_only: false,
        }
    }
}

/// Resolves entities between `left` and `right` on the given key columns.
///
/// # Errors
/// Returns an error when a key column is missing, or when a table has
/// more rows than a candidate's 32-bit row index can address.
pub fn match_rows(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    config: &ErConfig,
) -> Result<Vec<RowMatch>> {
    let lcol = left
        .column_by_name(left_key)
        .map_err(|_| IntegrationError::UnknownColumn(left_key.to_owned()))?;
    let rcol = right
        .column_by_name(right_key)
        .map_err(|_| IntegrationError::UnknownColumn(right_key.to_owned()))?;
    check_row_index_width(left.name(), left.num_rows())?;
    check_row_index_width(right.name(), right.num_rows())?;

    let lkeys: Vec<String> = (0..left.num_rows())
        .map(|i| lcol.get(i).to_string())
        .collect();
    let rkeys: Vec<String> = (0..right.num_rows())
        .map(|i| rcol.get(i).to_string())
        .collect();

    let mut candidates: Vec<u128> = Vec::new();

    // Exact phase: key equality on the rendered key (NULL renders empty
    // and is skipped — NULL matches nothing). BTreeMap keeps iteration
    // (and hence candidate emission) in a deterministic order.
    let mut exact: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (j, k) in rkeys.iter().enumerate() {
        if !k.is_empty() {
            exact.entry(k.as_str()).or_default().push(j);
        }
    }
    let mut left_exactly_matched = vec![false; lkeys.len()];
    let mut right_exactly_matched = vec![false; rkeys.len()];
    for (i, k) in lkeys.iter().enumerate() {
        if k.is_empty() {
            continue;
        }
        if let Some(js) = exact.get(k.as_str()) {
            for &j in js {
                candidates.push(pack(1.0, i, j));
                left_exactly_matched[i] = true;
                right_exactly_matched[j] = true;
            }
        }
    }

    // Fuzzy phase with blocking: compare only rows whose normalized first
    // character agrees, and only rows not already matched exactly.
    if !config.exact_only {
        let block_of =
            |s: &str| -> Option<char> { s.chars().next().map(|c| c.to_ascii_lowercase()) };
        let mut blocks: BTreeMap<char, Block> = BTreeMap::new();
        for (j, k) in rkeys.iter().enumerate() {
            if right_exactly_matched[j] {
                continue;
            }
            if let Some(b) = block_of(k) {
                blocks.entry(b).or_default().right.push(j);
            }
        }
        for (i, k) in lkeys.iter().enumerate() {
            if left_exactly_matched[i] {
                continue;
            }
            if let Some(b) = block_of(k) {
                blocks.entry(b).or_default().left.push(i);
            }
        }
        let lchars = DecodedKeys::new(&lkeys);
        let rchars = DecodedKeys::new(&rkeys);
        let mut scorer = PairScorer::with_capacity(rchars.max_len);
        for block in blocks.values() {
            fuzzy_candidates(
                block,
                &lchars,
                &rchars,
                config.threshold,
                &mut scorer,
                &mut candidates,
            );
        }
    }

    // Greedy 1:1 resolution by descending score, ties by (left, right).
    // The packed order is total, so an unstable sort is deterministic.
    candidates.sort_unstable();
    let mut used_left = vec![false; left.num_rows()];
    let mut used_right = vec![false; right.num_rows()];
    let mut out = Vec::new();
    for &c in &candidates {
        let m = unpack(c);
        if used_left[m.left] || used_right[m.right] {
            continue;
        }
        used_left[m.left] = true;
        used_right[m.right] = true;
        out.push(m);
    }
    out.sort_unstable_by_key(|m| (m.left, m.right));
    Ok(out)
}

/// Rejects tables whose row indices do not fit a packed candidate.
fn check_row_index_width(table: &str, rows: usize) -> Result<()> {
    if u32::try_from(rows).is_err() {
        return Err(IntegrationError::TooManyRows(format!(
            "{table} has {rows} rows; entity resolution addresses at most {} rows",
            u32::MAX
        )));
    }
    Ok(())
}

/// Packs a candidate so that ascending `u128` order is the resolution
/// order: score descending, then left row, then right row ascending.
/// Scores are finite and non-negative, where `to_bits` is monotone.
fn pack(score: f64, left: usize, right: usize) -> u128 {
    (u128::from(u64::MAX - score.to_bits()) << 64) | ((left as u128) << 32) | right as u128
}

/// Inverse of [`pack`].
fn unpack(c: u128) -> RowMatch {
    RowMatch {
        left: (c >> 32) as u32 as usize,
        right: c as u32 as usize,
        score: f64::from_bits(u64::MAX - (c >> 64) as u64),
    }
}

/// Rows of both tables that share one blocking key.
#[derive(Default)]
struct Block {
    left: Vec<usize>,
    right: Vec<usize>,
}

/// Every key decoded to chars once, stored back to back.
struct DecodedKeys {
    chars: Vec<char>,
    /// `starts[i]..starts[i + 1]` spans key `i` in `chars`.
    starts: Vec<usize>,
    max_len: usize,
}

impl DecodedKeys {
    fn new(keys: &[String]) -> Self {
        let mut chars = Vec::with_capacity(keys.iter().map(String::len).sum());
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut max_len = 0;
        starts.push(0);
        for k in keys {
            let start = chars.len();
            chars.extend(k.chars());
            max_len = max_len.max(chars.len() - start);
            starts.push(chars.len());
        }
        Self {
            chars,
            starts,
            max_len,
        }
    }

    fn get(&self, i: usize) -> &[char] {
        &self.chars[self.starts[i]..self.starts[i + 1]]
    }
}

/// Scores every left × right pair of `block`, pushing each pair that
/// reaches `threshold` onto `out` as a packed candidate.
fn fuzzy_candidates(
    block: &Block,
    lchars: &DecodedKeys,
    rchars: &DecodedKeys,
    threshold: f64,
    scorer: &mut PairScorer,
    out: &mut Vec<u128>,
) {
    if block.left.is_empty() {
        return;
    }
    for &j in &block.right {
        let b = rchars.get(j);
        scorer.load(b);
        for &i in &block.left {
            let s = scorer.score(lchars.get(i), b);
            if s >= threshold {
                out.push(pack(s, i, j));
            }
        }
    }
}

/// Jaro–Winkler scoring against one right-hand key at a time.
struct PairScorer {
    /// `pos[c]` has bit `j` set when the loaded key's char `j` is `c`.
    pos: [u64; 128],
    /// Whether the loaded key is ASCII and at most 64 chars long.
    masked: bool,
    /// Scratch of the char-slice path.
    taken: Vec<bool>,
    a_matched: Vec<char>,
}

impl PairScorer {
    /// A scorer whose scratch fits keys of up to `len` chars without
    /// reallocating.
    fn with_capacity(len: usize) -> Self {
        Self {
            pos: [0; 128],
            masked: false,
            taken: Vec::with_capacity(len),
            a_matched: Vec::with_capacity(len),
        }
    }

    /// Makes `b` the right-hand key of the following [`Self::score`] calls.
    fn load(&mut self, b: &[char]) {
        self.pos = [0; 128];
        self.masked = b.len() <= 64 && b.iter().all(char::is_ascii);
        if self.masked {
            for (j, &c) in b.iter().enumerate() {
                self.pos[c as usize] |= 1 << j;
            }
        }
    }

    /// Jaro–Winkler similarity of `a` and the loaded key `b`.
    fn score(&mut self, a: &[char], b: &[char]) -> f64 {
        let j = if a.is_empty() && b.is_empty() {
            1.0
        } else if self.masked && a.len() <= 64 {
            jaro_masked(a, b, &self.pos)
        } else {
            jaro_scratch(a, b, &mut self.taken, &mut self.a_matched)
        };
        // Winkler's boost by the shared prefix (≤ 4 chars).
        let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }
}

/// Jaro similarity from the match count and the halved count of
/// out-of-order matched chars; `matches` is at least 1.
fn jaro_formula(matches: usize, transpositions: usize, la: usize, lb: usize) -> f64 {
    let m = matches as f64;
    (m / la as f64 + m / lb as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Bit-parallel Jaro similarity for `a` of at most 64 chars against an
/// ASCII `b` of at most 64 chars whose position masks are `pos`; 0.0
/// when either is empty.
///
/// Matching each `a[i]` to "the first free `b[j] == a[i]` inside the
/// window" is the lowest set bit of `pos[a[i]] & !taken & window`; the
/// matched chars of both strings, in order, are the set bits of the two
/// match masks, so transpositions come from walking those in step.
fn jaro_masked(a: &[char], b: &[char], pos: &[u64; 128]) -> f64 {
    let (la, lb) = (a.len(), b.len());
    let window = (la.max(lb) / 2).saturating_sub(1);
    let mut taken = 0u64;
    let mut a_matched = 0u64;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        if lo >= lb {
            break;
        }
        let hi = (i + window + 1).min(lb);
        // Non-ASCII chars of `a` match nothing in an ASCII `b`. The
        // updates are branch-free: whether a char matches is data.
        let at = pos.get(ca as usize).copied().unwrap_or(0);
        let free = at & !taken & (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
        let first = free & free.wrapping_neg();
        taken |= first;
        a_matched |= u64::from(first != 0) << i;
    }
    if taken == 0 {
        return 0.0;
    }
    let mut unordered = 0usize;
    let (mut am, mut bm) = (a_matched, taken);
    while am != 0 {
        unordered +=
            usize::from(a[am.trailing_zeros() as usize] != b[bm.trailing_zeros() as usize]);
        am &= am - 1;
        bm &= bm - 1;
    }
    jaro_formula(taken.count_ones() as usize, unordered / 2, la, lb)
}

/// Jaro similarity for any pair of char slices, with `taken` and
/// `a_matched` as reusable scratch (they grow to the longest key once,
/// then never allocate again); 0.0 when either is empty.
fn jaro_scratch(a: &[char], b: &[char], taken: &mut Vec<bool>, a_matched: &mut Vec<char>) -> f64 {
    let (la, lb) = (a.len(), b.len());
    let window = (la.max(lb) / 2).saturating_sub(1);
    taken.clear();
    taken.resize(lb, false);
    a_matched.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(lb);
        for j in lo..hi {
            if !taken[j] && b[j] == ca {
                taken[j] = true;
                a_matched.push(ca);
                break;
            }
        }
    }
    if a_matched.is_empty() {
        return 0.0;
    }
    let b_matched = b.iter().zip(taken.iter()).filter(|&(_, &t)| t);
    let unordered = a_matched
        .iter()
        .zip(b_matched)
        .filter(|&(x, (y, _))| x != y)
        .count();
    jaro_formula(a_matched.len(), unordered / 2, la, lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalur_relational::{DataType, TableBuilder, Value};
    use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-pair scorer that preceded the bit-parallel kernel, kept as
    /// the reference `PairScorer` is checked against bit for bit.
    fn reference_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_taken = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_matched: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_taken[j] && b[j] == ca {
                    b_taken[j] = true;
                    matches += 1;
                    a_matched.push(ca);
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let b_matched: Vec<char> = b
            .iter()
            .zip(&b_taken)
            .filter(|&(_, &t)| t)
            .map(|(&c, _)| c)
            .collect();
        let transpositions = a_matched
            .iter()
            .zip(&b_matched)
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    fn reference_jaro_winkler(a: &str, b: &str) -> f64 {
        let j = reference_jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    /// Jaro–Winkler as `match_rows` computes it.
    fn jaro_winkler(a: &str, b: &str) -> f64 {
        let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let mut scorer = PairScorer::with_capacity(0);
        scorer.load(&b);
        scorer.score(&a, &b)
    }

    /// Checks `PairScorer` against the reference on `to_bits()`, once on
    /// the path it picks and once forced onto the char-slice path.
    fn check_against_reference(a: &str, b: &str) -> std::result::Result<(), String> {
        let want = reference_jaro_winkler(a, b);
        let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let mut scorer = PairScorer::with_capacity(0);
        scorer.load(&bc);
        let path = if scorer.masked && ac.len() <= 64 {
            "masked"
        } else {
            "scratch"
        };
        let mut got = vec![(path, scorer.score(&ac, &bc))];
        scorer.masked = false;
        got.push(("scratch", scorer.score(&ac, &bc)));
        for (path, s) in got {
            if s.to_bits() != want.to_bits() {
                return Err(format!(
                    "{path} scored {a:?} vs {b:?} as {s}, reference {want}"
                ));
            }
        }
        Ok(())
    }

    fn random_key(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    const ASCII: &[char] = &[
        'a', 'b', 'c', 'd', 'e', 'n', 'p', 't', 'i', '0', '1', '2', ' ', '-', 'A', 'Z', '~',
    ];
    const MULTI_BYTE: &[char] = &['é', 'ß', 'Å', 'å', '中', '😀', 'a', 'e', 'n', ' '];

    fn left() -> Table {
        TableBuilder::new("S1", &[("n", DataType::Utf8), ("a", DataType::Float64)])
            .unwrap()
            .row(vec!["Jack".into(), 20.0.into()])
            .unwrap()
            .row(vec!["Sam".into(), 35.0.into()])
            .unwrap()
            .row(vec!["Ruby".into(), 22.0.into()])
            .unwrap()
            .row(vec!["Jane".into(), 37.0.into()])
            .unwrap()
            .build()
    }

    fn right() -> Table {
        TableBuilder::new("S2", &[("n", DataType::Utf8), ("o", DataType::Float64)])
            .unwrap()
            .row(vec!["Rose".into(), 95.0.into()])
            .unwrap()
            .row(vec!["Castiel".into(), 97.0.into()])
            .unwrap()
            .row(vec!["Jane".into(), 92.0.into()])
            .unwrap()
            .build()
    }

    #[test]
    fn running_example_matches_jane() {
        let matches = match_rows(&left(), &right(), "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].left, 3);
        assert_eq!(matches[0].right, 2);
        assert_eq!(matches[0].score, 1.0);
    }

    #[test]
    fn fuzzy_matching_catches_typos() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Johnathan Smith".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jonathan Smith".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert!(matches[0].score > 0.85 && matches[0].score < 1.0);
    }

    #[test]
    fn exact_only_mode_skips_fuzzy() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Johnathan".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jonathan".into()])
            .unwrap()
            .build();
        let cfg = ErConfig {
            exact_only: true,
            ..ErConfig::default()
        };
        assert!(match_rows(&l, &r, "n", "n", &cfg).unwrap().is_empty());
    }

    #[test]
    fn blocking_prevents_cross_initial_comparisons() {
        // "Zane" vs "Jane" is close in edit distance but lives in a
        // different block, so the fuzzy phase never sees the pair.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Zane".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &right(), "n", "n", &ErConfig::default()).unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn one_to_one_resolution() {
        // Two identical left keys, one right key: only one match survives.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &right(), "n", "n", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn nulls_never_match() {
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec![Value::Null])
            .unwrap()
            .build();
        assert!(match_rows(&l, &r, "n", "n", &ErConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn integer_keys_match_exactly() {
        let l = TableBuilder::new("l", &[("id", DataType::Int64)])
            .unwrap()
            .row(vec![7.into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("id", DataType::Int64)])
            .unwrap()
            .row(vec![7.into()])
            .unwrap()
            .row(vec![8.into()])
            .unwrap()
            .build();
        let matches = match_rows(&l, &r, "id", "id", &ErConfig::default()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].right, 0);
    }

    #[test]
    fn unknown_key_column_errors() {
        assert!(match_rows(&left(), &right(), "nope", "n", &ErConfig::default()).is_err());
        assert!(match_rows(&left(), &right(), "n", "nope", &ErConfig::default()).is_err());
    }

    #[test]
    fn matching_is_deterministic_and_order_pinned() {
        // Ambiguous input: two fuzzy candidates per side competing for
        // the same rows, plus an exact tie. With hash-ordered blocking
        // the greedy resolution could flip between runs; the BTreeMap
        // containers pin the exact output.
        let l = TableBuilder::new("l", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Janet".into()])
            .unwrap()
            .row(vec!["Jan".into()])
            .unwrap()
            .row(vec!["Rose".into()])
            .unwrap()
            .build();
        let r = TableBuilder::new("r", &[("n", DataType::Utf8)])
            .unwrap()
            .row(vec!["Janett".into()])
            .unwrap()
            .row(vec!["Jane".into()])
            .unwrap()
            .row(vec!["Rosa".into()])
            .unwrap()
            .build();
        let expected = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
        assert!(!expected.is_empty());
        // Output is sorted by (left, right) — a stable public order.
        for w in expected.windows(2) {
            assert!((w[0].left, w[0].right) < (w[1].left, w[1].right));
        }
        // Bit-identical across repeated runs in the same process (fresh
        // containers each call, so this exercises iteration order).
        for _ in 0..16 {
            let again = match_rows(&l, &r, "n", "n", &ErConfig::default()).unwrap();
            assert_eq!(again, expected);
        }
    }

    #[test]
    fn jaro_winkler_reference_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.9611).abs() < 1e-3);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-2);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn empty_strings_match_the_reference() {
        for (a, b) in [("", ""), ("", "a"), ("a", ""), ("", "é"), ("😀", "")] {
            check_against_reference(a, b).unwrap();
        }
    }

    #[test]
    fn scratch_path_reuses_its_buffers() {
        let (a, b): (Vec<char>, Vec<char>) =
            ("MARTHA".chars().collect(), "MARHTA".chars().collect());
        let mut scorer = PairScorer::with_capacity(b.len());
        scorer.load(&b);
        scorer.masked = false;
        let (pt, pm) = (scorer.taken.as_ptr(), scorer.a_matched.as_ptr());
        let first = scorer.score(&a, &b);
        assert_eq!(scorer.score(&a, &b), first);
        assert_eq!((scorer.taken.as_ptr(), scorer.a_matched.as_ptr()), (pt, pm));
    }

    #[test]
    fn packed_order_is_the_resolution_order() {
        // Score descending, then left, then right ascending — the
        // comparator the greedy scan used before candidates were packed.
        let scores = [0.0, 0.5999999999999999, 0.6, 0.85, 0.9611111111111111, 1.0];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let mut draw = || {
                let s = scores[rng.gen_range(0..scores.len())];
                (s, rng.gen_range(0..4usize), rng.gen_range(0..4usize))
            };
            let (x, y) = (draw(), draw());
            let old =
                y.0.partial_cmp(&x.0)
                    .unwrap()
                    .then_with(|| x.1.cmp(&y.1))
                    .then_with(|| x.2.cmp(&y.2));
            assert_eq!(pack(x.0, x.1, x.2).cmp(&pack(y.0, y.1, y.2)), old);
            let m = unpack(pack(x.0, x.1, x.2));
            assert_eq!((m.score, m.left, m.right), x);
        }
        let max = u32::MAX as usize;
        let m = unpack(pack(1.0, max, max));
        assert_eq!((m.score, m.left, m.right), (1.0, max, max));
    }

    #[test]
    fn row_counts_beyond_u32_are_a_typed_error() {
        assert!(check_row_index_width("t", u32::MAX as usize).is_ok());
        if let Some(rows) = (u32::MAX as usize).checked_add(1) {
            match check_row_index_width("t", rows) {
                Err(IntegrationError::TooManyRows(msg)) => assert!(msg.contains("t has"), "{msg}"),
                other => panic!("expected TooManyRows, got {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_ascii_around_the_mask_limit(seed in 0u64..u64::MAX, la in 0usize..81, lb in 0usize..81, k in 1usize..18) {
            // Lengths 0–80 straddle the 64-char mask limit on either side;
            // `k` narrows the alphabet so that matches are frequent.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_key(&mut rng, &ASCII[..k], la);
            let b = random_key(&mut rng, &ASCII[..k], lb);
            prop_assert_eq!(check_against_reference(&a, &b), Ok(()));
        }

        #[test]
        fn prop_repetitive_strings(seed in 0u64..u64::MAX, la in 1usize..70, lb in 1usize..70) {
            // Two or three letters repeated with a few swaps: many equal
            // chars inside each window, so transpositions are common.
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.gen_range(2..4);
            let a = random_key(&mut rng, &ASCII[..k], la);
            let mut b: Vec<char> = a.chars().cycle().take(lb).collect();
            for _ in 0..rng.gen_range(0..4) {
                let (x, y) = (rng.gen_range(0..lb), rng.gen_range(0..lb));
                b.swap(x, y);
            }
            let b: String = b.into_iter().collect();
            prop_assert_eq!(check_against_reference(&a, &b), Ok(()));
            prop_assert_eq!(check_against_reference(&b, &a), Ok(()));
        }

        #[test]
        fn prop_multi_byte_utf8(seed in 0u64..u64::MAX, la in 0usize..40, lb in 0usize..40, first in 0usize..6) {
            // Byte length differs from char length; `first` puts a
            // multi-byte char first on one side.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = random_key(&mut rng, MULTI_BYTE, la);
            let b = random_key(&mut rng, MULTI_BYTE, lb);
            a.insert(0, MULTI_BYTE[first]);
            prop_assert_eq!(check_against_reference(&a, &b), Ok(()));
            prop_assert_eq!(check_against_reference(&b, &a), Ok(()));
            // An ASCII right key against a non-ASCII left key still takes
            // the masked path.
            let ascii_b = random_key(&mut rng, &ASCII[..6], lb);
            prop_assert_eq!(check_against_reference(&a, &ascii_b), Ok(()));
        }
    }
}
