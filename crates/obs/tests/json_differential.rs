//! The checked-text path agrees with the parser: `RawJson::new` accepts a
//! text exactly when `parse` does, with the same error when it does not, and
//! `parse_with_raw` (the plan service's response decoder) reads the same
//! document `parse` does. The corpus is every plan response of the four
//! bench models at w=2 and w=8, hostile inputs, and seeded mutations of the
//! responses: truncations, single-byte substitutions and a deep `[` prefix.
//!
//! Truncating the 283 KB LSTM response at every 97th byte parses ≈1.7 GB,
//! ≈20 s optimised and ≈100 s not, so a debug build ignores the corpus test
//! and `scripts/check.sh` runs this file optimised.

use proptest::test_runner::TestRng;
use tofu_core::recursive::{partition, PartitionOptions};
use tofu_core::request_fingerprint;
use tofu_models::{
    decoder_block, mlp, rnn, wresnet, DecoderConfig, MlpConfig, RnnConfig, WResNetConfig,
};
use tofu_obs::json::{parse, parse_with_raw, Json, RawJson};
use tofu_serve::protocol::{encode_plan_response, fingerprint_hex, plan_to_json};

/// The plan responses the server writes for the bench models at w=2 and w=8.
fn plan_responses() -> Vec<String> {
    let graphs = [
        mlp(&MlpConfig { batch: 32, dims: vec![64, 128, 96], classes: 16, with_updates: true }),
        rnn(&RnnConfig {
            layers: 2,
            hidden: 64,
            batch: 8,
            steps: 20,
            embed: 32,
            vocab: 32,
            with_updates: true,
        }),
        decoder_block(&DecoderConfig {
            seq: 128,
            d_model: 256,
            heads: 8,
            d_ff: 1024,
            classes: 64,
            with_updates: true,
        }),
        wresnet(&WResNetConfig {
            layers: 50,
            width: 1,
            batch: 8,
            image: 16,
            classes: 8,
            with_updates: true,
        }),
    ];
    let mut out = Vec::new();
    for (i, built) in graphs.into_iter().enumerate() {
        let g = built.expect("bench model").graph;
        for workers in [2, 8] {
            let opts = PartitionOptions { workers, ..Default::default() };
            let plan = plan_to_json(&partition(&g, &opts).expect("plan")).to_json();
            let fp = fingerprint_hex(request_fingerprint(&g, &opts));
            let bytes = encode_plan_response(i as u64 + 1, workers == 8, &fp, &plan);
            out.push(String::from_utf8(bytes).expect("utf-8"));
        }
    }
    out
}

/// What the parser must reject, and once accepted numbers outside RFC 8259.
const GARBAGE: &[&str] = &[
    "{",
    "[1,]",
    "{\"a\" 1}",
    "12 34",
    "",
    "\"abc",
    "\"a\\qb\"",
    "\"\\u12g4\"",
    "\"\\ud83d\\u+e00\"",
    "01",
    "-01",
    "00",
    "1.",
    "0.",
    "1.e5",
    "-",
    "1e",
    "1e+",
    "[tru]",
    "{\"plan\":}",
    "{\"plan\":01}",
    "{\"plan\":[1,]}",
    "{\"a\":1,\"plan\":[],\"plan\":x}",
];

/// `parse`, `RawJson::new` and `parse_with_raw(_, "plan")` agree on `src`.
fn agree(src: &str, what: &str) {
    let tree = parse(src);
    let raw = RawJson::new(src);
    assert_eq!(raw.is_ok(), tree.is_ok(), "{what}: {:?} vs {:?}", raw.err(), tree.err());
    assert_eq!(raw.as_ref().err(), tree.as_ref().err(), "{what}");
    let split = parse_with_raw(src, "plan");
    assert_eq!(split.as_ref().err(), tree.as_ref().err(), "{what}: parse_with_raw");
    let (Ok(tree), Ok(raw), Ok((rest, plan))) = (tree, raw, split) else { return };
    assert_eq!(raw.as_str(), src, "{what}");
    assert_eq!(raw.parse(), tree, "{what}");
    // The split document is the tree with its `plan` members taken out, and
    // the first of them kept as text.
    let (want_rest, want_plan) = match tree {
        Json::Obj(pairs) => {
            let want_plan = pairs.iter().find(|(k, _)| k == "plan").map(|(_, v)| v.clone());
            (Json::Obj(pairs.into_iter().filter(|(k, _)| k != "plan").collect()), want_plan)
        }
        other => (other, None),
    };
    assert_eq!(rest, want_rest, "{what}: parse_with_raw tree");
    assert_eq!(plan.map(|p| p.parse()), want_plan, "{what}: parse_with_raw plan");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100 s unoptimised; scripts/check.sh runs it with --release")]
fn the_checked_text_path_agrees_with_the_parser() {
    for src in GARBAGE {
        assert!(parse(src).is_err(), "{src:?} must be rejected");
        agree(src, src);
    }
    // Duplicate and escaped keys: the first `plan` is kept, matched on its
    // decoded name, as `Json::get` would find it.
    agree(r#"{"plan":[1],"p\u006can":{"x":2},"id":3}"#, "duplicate plan");
    let (_, plan) = parse_with_raw(r#"{"p\u006can" : [1, 2] ,"plan":3}"#, "plan").unwrap();
    assert_eq!(plan.map(|p| p.to_json()), Some("[1, 2]".to_string()));

    const SUBSTITUTES: &[u8] = b"{}[]\",:0123456789.eE+-\\u";
    let mut rng = TestRng::for_test("json_differential");
    let responses = plan_responses();
    for (r, response) in responses.iter().enumerate() {
        agree(response, &format!("response {r}"));
        assert!(parse(response).unwrap().get("plan").is_some());
        for cut in (0..response.len()).step_by(97) {
            agree(&response[..cut], &format!("response {r} cut at {cut}"));
        }
        // The responses are ASCII, so every byte is a char boundary.
        assert!(response.is_ascii());
        let mut bytes = response.clone().into_bytes();
        for _ in 0..200 {
            let at = rng.below(bytes.len() as u64) as usize;
            let old = bytes[at];
            bytes[at] = SUBSTITUTES[rng.below(SUBSTITUTES.len() as u64) as usize];
            let what =
                format!("response {r}, byte {at} {:?} -> {:?}", old as char, bytes[at] as char);
            agree(std::str::from_utf8(&bytes).expect("ascii"), &what);
            bytes[at] = old;
        }
        agree(&format!("{}{response}", "[".repeat(200)), &format!("response {r} under 200 '['"));
    }
}

/// The depth guard counts the envelope: a plan nested to the limit is a
/// document on its own, one level too deep inside a response.
#[test]
fn the_envelope_counts_toward_the_depth_limit() {
    let max = tofu_obs::json::MAX_DEPTH;
    let plan = format!("{}{}", "[".repeat(max), "]".repeat(max));
    assert!(RawJson::new(&plan).is_ok());
    let response = format!(r#"{{"type":"plan","plan":{plan}}}"#);
    let err = parse_with_raw(&response, "plan").unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    agree(&response, "plan at the depth limit inside a response");
}
