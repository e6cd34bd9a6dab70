//! Degenerate-input behavior of the integration planners — never panics.
//! Empty tables are valid silos for `integrate_pair` (they flow through
//! as possibly-zero-row scenarios, matching the failure-injection suite),
//! while genuine matching failures — missing join keys, all-NULL join
//! columns under an inner join, an empty member in a federated union —
//! come back as typed [`IntegrationError`]s.

use amalur_integration::{
    integrate_pair, integrate_union, match_rows, ErConfig, IntegrationError, IntegrationOptions,
    ScenarioKind,
};
use amalur_relational::{DataType, Table, TableBuilder, Value};

fn empty(name: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .build()
}

fn small(name: &str, col: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), (col, DataType::Float64)])
        .unwrap()
        .row(vec![1.into(), 2.0.into()])
        .unwrap()
        .row(vec![2.into(), 3.0.into()])
        .unwrap()
        .build()
}

/// Two rows whose join key is entirely NULL.
fn null_keyed(name: &str) -> Table {
    TableBuilder::new(name, &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .row(vec![Value::Null, 1.0.into()])
        .unwrap()
        .row(vec![Value::Null, 2.0.into()])
        .unwrap()
        .build()
}

fn opts() -> IntegrationOptions {
    IntegrationOptions::with_exact_key("id", "id")
}

const ALL_KINDS: [ScenarioKind; 4] = [
    ScenarioKind::FullOuterJoin,
    ScenarioKind::InnerJoin,
    ScenarioKind::LeftJoin,
    ScenarioKind::Union,
];

#[test]
fn empty_left_table_flows_through_every_kind() {
    // Rows surviving an empty left source: full outer keeps the right
    // side, inner and left join shrink to a valid zero-row target, and
    // union stacks the (zero) left rows on the right ones.
    let expected = [2, 0, 0, 2];
    for (kind, rows) in ALL_KINDS.into_iter().zip(expected) {
        let result = integrate_pair(&empty("E"), &small("R", "x"), kind, &opts())
            .unwrap_or_else(|e| panic!("{kind}: empty left must integrate, got {e}"));
        assert_eq!(result.metadata.target_rows, rows, "{kind}");
        assert!(result.row_matches.is_empty(), "{kind}");
    }
}

#[test]
fn empty_right_table_flows_through_every_kind() {
    let expected = [2, 0, 2, 2];
    for (kind, rows) in ALL_KINDS.into_iter().zip(expected) {
        let result = integrate_pair(&small("L", "x"), &empty("E"), kind, &opts())
            .unwrap_or_else(|e| panic!("{kind}: empty right must integrate, got {e}"));
        assert_eq!(result.metadata.target_rows, rows, "{kind}");
    }
}

#[test]
fn two_empty_tables_yield_a_zero_row_scenario_not_an_error() {
    // Pinned by the failure-injection suite: silos that have not
    // contributed data yet are still valid integration partners.
    for kind in ALL_KINDS {
        let result = integrate_pair(&empty("E1"), &empty("E2"), kind, &opts())
            .unwrap_or_else(|e| panic!("{kind}: empty silos are valid, got {e}"));
        assert_eq!(result.metadata.target_rows, 0, "{kind}");
    }
}

#[test]
fn missing_join_key_is_unknown_column_on_the_right_side_too() {
    let l = small("L", "x");
    let r = small("R", "y");
    let bad_left = IntegrationOptions::with_exact_key("nope", "id");
    assert_eq!(
        integrate_pair(&l, &r, ScenarioKind::InnerJoin, &bad_left).unwrap_err(),
        IntegrationError::UnknownColumn("nope".to_owned())
    );
    let bad_right = IntegrationOptions::with_exact_key("id", "absent");
    assert_eq!(
        integrate_pair(&l, &r, ScenarioKind::InnerJoin, &bad_right).unwrap_err(),
        IntegrationError::UnknownColumn("absent".to_owned())
    );
}

#[test]
fn all_null_join_column_inner_join_is_no_matches_not_a_zero_row_scenario() {
    let err = integrate_pair(
        &null_keyed("L"),
        &small("R", "y"),
        ScenarioKind::InnerJoin,
        &opts(),
    )
    .unwrap_err();
    match err {
        IntegrationError::NoMatches(msg) => {
            assert!(msg.contains("no target rows"), "{msg}");
        }
        other => panic!("expected NoMatches, got {other:?}"),
    }
}

#[test]
fn all_null_join_column_outer_kinds_still_integrate() {
    // NULL matches nothing, so the outer joins degrade gracefully to
    // disjoint row sets — still a valid scenario, not an error.
    let l = null_keyed("L");
    let r = small("R", "y");
    let full = integrate_pair(&l, &r, ScenarioKind::FullOuterJoin, &opts()).unwrap();
    assert_eq!(full.metadata.target_rows, 4);
    assert!(full.row_matches.is_empty());
    let left = integrate_pair(&l, &r, ScenarioKind::LeftJoin, &opts()).unwrap();
    assert_eq!(left.metadata.target_rows, 2);
}

#[test]
fn disjoint_keys_inner_join_is_no_matches() {
    let l = TableBuilder::new("L", &[("id", DataType::Int64), ("x", DataType::Float64)])
        .unwrap()
        .row(vec![100.into(), 1.0.into()])
        .unwrap()
        .build();
    let err = integrate_pair(&l, &small("R", "y"), ScenarioKind::InnerJoin, &opts()).unwrap_err();
    assert!(matches!(err, IntegrationError::NoMatches(_)), "{err:?}");
}

#[test]
fn union_rejects_empty_member_with_typed_error() {
    let a = small("A", "x");
    let e = empty("E");
    assert_eq!(
        integrate_union(&[&a, &e], "id", 0.0).unwrap_err(),
        IntegrationError::EmptyTable("E".to_owned())
    );
    // Zero tables stays NoMatches (there is no table to name).
    assert!(matches!(
        integrate_union(&[], "id", 0.0).unwrap_err(),
        IntegrationError::NoMatches(_)
    ));
}

#[test]
fn union_without_shared_features_is_no_matches() {
    let a = small("A", "x");
    let b = small("B", "z");
    // Shared feature set is {x} ∩ {z} = ∅ (the key is not a feature).
    assert!(matches!(
        integrate_union(&[&a, &b], "id", 0.0).unwrap_err(),
        IntegrationError::NoMatches(_)
    ));
}

#[test]
fn errors_render_human_readable_messages() {
    assert_eq!(
        IntegrationError::EmptyTable("S1".to_owned()).to_string(),
        "empty table: S1 has no rows"
    );
}

/// One-column table of string keys.
fn keyed(name: &str, keys: &[&str]) -> Table {
    let mut b = TableBuilder::new(name, &[("n", DataType::Utf8)]).unwrap();
    for &k in keys {
        b = b.row(vec![k.into()]).unwrap();
    }
    b.build()
}

/// `match_rows` output as `(left, right, score)` triples.
fn resolve(left: &[&str], right: &[&str], config: &ErConfig) -> Vec<(usize, usize, f64)> {
    match_rows(&keyed("L", left), &keyed("R", right), "n", "n", config)
        .unwrap()
        .into_iter()
        .map(|m| (m.left, m.right, m.score))
        .collect()
}

#[test]
fn er_one_left_key_exactly_equal_to_three_right_keys() {
    // The exact phase emits all three (0, j) candidates at 1.0; greedy
    // resolution keeps the lowest right row, and rows matched exactly
    // never enter the fuzzy phase, so "Janet" can only reach "Janey".
    let out = resolve(
        &["Jane", "Janet"],
        &["Jane", "Jane", "Jane", "Janey"],
        &ErConfig::default(),
    );
    assert_eq!(out, vec![(0, 0, 1.0), (1, 3, 0.92)]);
}

#[test]
fn er_non_ascii_keys() {
    // Multi-byte first characters block on themselves (`to_ascii_lowercase`
    // leaves them alone), so "Åsa" and "åsa" never meet; scores count
    // chars, not bytes.
    let out = resolve(
        &["Zoë Ångström", "Müller", "Åsa", "Ça va", "naïve café"],
        &[
            "åsa",
            "Zoe Angstrom",
            "Mueller",
            "Ça  va",
            "naive cafe",
            "Müler",
            "Zoë Ångstrom",
        ],
        &ErConfig::default(),
    );
    assert_eq!(
        out,
        vec![
            (0, 6, 0.9666666666666666),
            (1, 5, 0.9611111111111111),
            (3, 3, 0.9611111111111111),
            (4, 4, 0.8933333333333333),
        ]
    );
}

#[test]
fn er_keys_longer_than_64_chars() {
    // Both sides of the 64-char limit, in both directions: 64 vs 65 and
    // 65 vs 64 chars, plus two 80-char keys with a transposition.
    let base = "patient-record-".repeat(5);
    let l0 = format!("{base}alpha");
    let l1 = format!("{}x", "q".repeat(63)); // 64 chars
    let l2 = format!("{}xy", "q".repeat(63)); // 65 chars
    let r0 = format!("{base}aplha");
    let r1 = format!("{}yx", "q".repeat(63)); // 65 chars
    let r2 = format!("{}y", "q".repeat(63)); // 64 chars
    let out = resolve(&[&l0, &l1, &l2], &[&r1, &r0, &r2], &ErConfig::default());
    assert_eq!(
        out,
        vec![
            (0, 1, 0.9974999999999999),
            (1, 0, 0.9969230769230769),
            (2, 2, 0.9969230769230769),
        ]
    );
}

#[test]
fn er_zero_threshold_keeps_every_in_block_pair_and_breaks_ties_by_row() {
    // "Axx", "Ayy" and "Azz" tie at 0.6 against each of "Abb", "Acc" and
    // "Add", so greedy resolution breaks the ties by row. "Azz" ends up
    // with "axy" (same block, no shared character, score 0.0), which
    // still passes a 0.0 threshold.
    let cfg = ErConfig {
        threshold: 0.0,
        ..ErConfig::default()
    };
    let out = resolve(
        &["Axx", "Ayy", "Azz", "Abc", "Bq"],
        &["Abb", "Acc", "Add", "axy", "Bq"],
        &cfg,
    );
    assert_eq!(
        out,
        vec![
            (0, 1, 0.5999999999999999),
            (1, 2, 0.5999999999999999),
            (2, 3, 0.0),
            (3, 0, 0.8222222222222222),
            (4, 4, 1.0),
        ]
    );
}
