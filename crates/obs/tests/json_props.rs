//! Property and scaling tests for the shared JSON codec: `parse` inverts
//! both writers on arbitrary trees, and parsing (and checking as `RawJson`)
//! costs time linear in the input (a per-character rescan of the remaining
//! input once made every string-heavy document quadratic: 1 MB/s on a
//! plan-service frame).

use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use tofu_obs::json::{parse, Json, RawJson, MAX_DEPTH};

/// Strings that exercise every writer escape and every parser run boundary:
/// quotes, backslashes, the short escapes, raw control characters, DEL, and
/// 2-, 3- and 4-byte scalars, next to plain ASCII runs.
fn string(rng: &mut TestRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '/', ':', ',', '{', ']', '"', '\\', '\n', '\r', '\t', '\u{0}',
        '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '☕', '\u{fffd}', '\u{ffff}', '😀',
        '\u{10ffff}',
    ];
    (0..rng.below(12)).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
}

fn number(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => rng.below(1 << 53) as f64,
        1 => -(rng.below(1_000_000) as f64),
        2 => f64::from_bits(rng.next_u64()),
        _ => (rng.below(2_000_001) as f64 - 1_000_000.0) / 1024.0,
    }
}

fn tree(rng: &mut TestRng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => {
            // JSON has no NaN/Inf (the writer spells them `null`).
            let v = number(rng);
            Json::Num(if v.is_finite() { v } else { 0.5 })
        }
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj((0..rng.below(5)).map(|_| (string(rng), tree(rng, depth - 1))).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn parse_inverts_both_writers(seed in 0u64..u64::MAX, depth in 0usize..6) {
        let v = tree(&mut TestRng::for_test(&seed.to_string()), depth);
        let compact = v.to_json();
        prop_assert_eq!(parse(&compact), Ok(v.clone()), "compact: {}", compact);
        let pretty = v.to_json_pretty();
        prop_assert_eq!(parse(&pretty), Ok(v), "pretty: {}", pretty);
    }
}

#[test]
fn every_control_character_round_trips_escaped() {
    let all: String = (0u8..0x20).map(char::from).collect();
    let text = Json::Str(all.clone()).to_json();
    assert!(text.bytes().all(|b| b >= 0x20), "a raw control byte escaped the writer: {text:?}");
    assert_eq!(parse(&text).unwrap().as_str(), Some(all.as_str()));
}

/// Parses `text`, and checks it as `RawJson`, each within `bound`.
fn parse_within(label: &str, text: &str, bound: Duration) -> Json {
    let t0 = Instant::now();
    let v = parse(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let parsed = t0.elapsed();
    let t0 = Instant::now();
    RawJson::new(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let checked = t0.elapsed();
    for (took, what) in [(parsed, "parsing"), (checked, "checking")] {
        assert!(
            took < bound,
            "{label}: {what} {} bytes took {took:?} (bound {bound:?}) — is the parser rescanning?",
            text.len()
        );
    }
    v
}

/// Linear parsing handles this in tens of milliseconds; a parser that
/// revalidates the rest of the input per character visits ~10^13 bytes
/// (many minutes). The bound has orders of magnitude of margin on both sides.
#[test]
fn a_four_mebibyte_string_heavy_document_parses_in_linear_time() {
    let row = Json::obj(vec![
        ("name", "layer3/block7/conv2d_backward_filter — ☕ \"quoted\"\n".into()),
        ("op", "conv2d_bw_filter".into()),
        ("shape", Json::Arr(vec![64u64.into(), 64u64.into(), 3u64.into(), 3u64.into()])),
    ]);
    let rows = (4 << 20) / row.to_json().len() + 1;
    let doc = Json::Arr(vec![row; rows]);
    let text = doc.to_json();
    assert!(text.len() >= 4 << 20);
    assert_eq!(parse_within("4 MiB document", &text, Duration::from_secs(2)), doc);

    // One 4 MiB string: a single run, and a single run of escapes.
    for unit in ["x", "\\n", "é"] {
        let text = format!("\"{}\"", unit.repeat((4 << 20) / unit.len()));
        parse_within("4 MiB string", &text, Duration::from_secs(2));
    }
}

#[test]
fn nesting_is_bounded_not_stack_limited() {
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(parse(&nest(MAX_DEPTH)).is_ok());
    assert!(RawJson::new(&nest(MAX_DEPTH)).is_ok());
    let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
    assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
    assert_eq!(RawJson::new(&nest(MAX_DEPTH + 1)).unwrap_err(), err);
    // What used to overflow a 2 MiB thread stack: 200 KB of `[`, never closed.
    let hostile = std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(|| (parse(&"[".repeat(200_000)), RawJson::new(&"[".repeat(200_000))))
        .expect("spawn")
        .join()
        .expect("the parser must not overflow a small stack");
    assert!(hostile.0.unwrap_err().contains("nesting"));
    assert!(hostile.1.unwrap_err().contains("nesting"));
    // Depth counts open containers, not containers seen: a long flat list of
    // small arrays is fine.
    assert!(parse(&format!("[{}[]]", "[{}],".repeat(10_000))).is_ok());
}
