//! Fuzz the request and spec parsers: whatever arrives on the wire —
//! random bytes, truncations, duplicated keys, absurd nesting, wrong
//! types — the daemon answers with a typed rejection that names the
//! problem. It never panics, because a panic in `parse_request` is a
//! remote crash.

use proptest::prelude::*;

use vrl_dram::experiment::ExperimentConfig;
use vrl_serve::protocol::parse_request;
use vrl_serve::spec::parse_spec;

/// A well-formed submit line to mutate.
const VALID: &str = r#"{"type":"submit","spec":{"benchmark":"x264","policy":"vrl","front_end":"dimm","channels":2,"ranks":1,"banks_per_rank":2,"rows":128,"duration_ms":48,"seed":9,"nbits":3,"guard_band":0.5}}"#;

/// Map bytes into a JSON-structural-heavy alphabet so random inputs
/// reach the parser's deep paths instead of dying at byte 0.
fn jsonish(bytes: &[u8]) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:0123456789eE+-. \"typesubmitspecbenchmarkpolicyrowsfront_end";
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_are_rejected_not_fatal(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request(&raw);
        let _ = parse_request(&jsonish(&bytes));
    }

    #[test]
    fn truncations_of_a_valid_request_always_reject_cleanly(cut in 0usize..180) {
        let cut = cut.min(VALID.len());
        let prefix = &VALID[..cut];
        if cut < VALID.len() {
            // Every proper prefix is malformed (the document only
            // closes at the last byte) — typed error, no panic.
            prop_assert!(parse_request(prefix).is_err());
        } else {
            prop_assert!(parse_request(prefix).is_ok());
        }
    }

    #[test]
    fn duplicated_keys_never_panic(dup in 0usize..10, n in 1usize..5) {
        // Duplicate one of the spec's keys n extra times; whatever
        // wins, the outcome is Ok or a typed error — never a panic.
        const KEYS: [&str; 10] = [
            "\"benchmark\":\"x264\"", "\"policy\":\"vrl\"", "\"rows\":128",
            "\"rows\":0", "\"duration_ms\":48", "\"seed\":7",
            "\"front_end\":\"sched\"", "\"banks\":4", "\"type\":\"submit\"",
            "\"nbits\":3",
        ];
        let extra = std::iter::repeat_n(KEYS[dup % KEYS.len()], n)
            .collect::<Vec<_>>()
            .join(",");
        let line = format!(
            "{{\"type\":\"submit\",{extra},\"spec\":{{\"benchmark\":\"x264\",\"policy\":\"vrl\",{extra2}}}}}",
            extra2 = extra,
        );
        let _ = parse_request(&line);
    }

    #[test]
    fn deep_nesting_hits_the_depth_guard_not_the_stack(depth in 1usize..400) {
        // The JSON parser bounds recursion (MAX_DEPTH); past it the
        // reject must be a typed error, not a stack overflow.
        let mut spec = String::new();
        for _ in 0..depth {
            spec.push_str("{\"spec\":");
        }
        spec.push_str("null");
        spec.push_str(&"}".repeat(depth));
        let line = format!("{{\"type\":\"submit\",\"spec\":{spec}}}");
        let outcome = parse_request(&line);
        prop_assert!(outcome.is_err(), "nested non-specs never validate");
    }

    #[test]
    fn type_mangled_fields_blame_the_field(which in 0usize..12) {
        // Swap one field's value for a wrong-typed or out-of-range one;
        // the rejection must name the mangled field.
        const MANGLES: [(&str, &str, &str); 12] = [
            ("\"benchmark\":\"x264\"", "\"benchmark\":7", "benchmark"),
            ("\"benchmark\":\"x264\"", "\"benchmark\":[]", "benchmark"),
            ("\"policy\":\"vrl\"", "\"policy\":true", "policy"),
            ("\"policy\":\"vrl\"", "\"policy\":\"warp\"", "policy"),
            ("\"rows\":128", "\"rows\":\"many\"", "rows"),
            ("\"rows\":128", "\"rows\":0", "rows"),
            ("\"rows\":128", "\"rows\":-5", "rows"),
            ("\"duration_ms\":48", "\"duration_ms\":{}", "duration_ms"),
            ("\"seed\":9", "\"seed\":0.5", "seed"),
            ("\"channels\":2", "\"channels\":0", "channels"),
            ("\"front_end\":\"dimm\"", "\"front_end\":\"warp\"", "front_end"),
            ("\"nbits\":3", "\"nbits\":99", "nbits"),
        ];
        let (from, to, blamed) = MANGLES[which % MANGLES.len()];
        let line = VALID.replacen(from, to, 1);
        prop_assert!(line != VALID, "mangle must apply");
        match parse_request(&line) {
            Ok(_) => prop_assert!(false, "mangled {} must not validate", blamed),
            Err(message) => prop_assert!(
                message.contains(blamed),
                "rejection must blame {}: {}", blamed, message
            ),
        }
    }

    #[test]
    fn simulated_work_is_bounded(
        rows in 1u32..=ExperimentConfig::MAX_ROWS,
        mantissa in 0.0f64..10.0,
        exponent in -3i32..14,
        nbits in 0u32..12,
    ) {
        // No spec that parses asks for more simulated time or more
        // rows × milliseconds than the shared bound allows, since an
        // engine cannot be preempted once it holds a worker; every spec
        // over the bound is rejected, naming the field.
        let duration_ms = mantissa * 10f64.powi(exponent);
        let line = format!(
            "{{\"benchmark\":\"x264\",\"policy\":\"vrl\",\"rows\":{rows},\"duration_ms\":{duration_ms:e},\"nbits\":{nbits}}}"
        );
        let value = vrl_obs::json::parse(&line).expect("valid JSON");
        let in_time = duration_ms > 0.0
            && duration_ms <= ExperimentConfig::MAX_DURATION_MS
            && f64::from(rows) * duration_ms <= ExperimentConfig::MAX_ROW_MS;
        let in_width = (1..=ExperimentConfig::MAX_NBITS).contains(&nbits);
        match parse_spec(&value) {
            Ok(spec) => {
                prop_assert!(in_time && in_width, "accepted {}", line);
                let config = spec.config;
                prop_assert!(config.duration_ms <= ExperimentConfig::MAX_DURATION_MS);
                prop_assert!(
                    f64::from(config.rows) * config.duration_ms <= ExperimentConfig::MAX_ROW_MS
                );
            }
            Err(e) => {
                let blamed = if in_width { "duration_ms" } else { "nbits" };
                prop_assert!(!(in_time && in_width), "rejected {}: {}", line, e);
                prop_assert_eq!(e.field.as_str(), blamed, "{}", line);
            }
        }
    }

    #[test]
    fn spec_parser_survives_arbitrary_json_shapes(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        // Drive parse_spec directly with whatever JSON the garbage
        // happens to form — the spec layer must reject, not panic.
        if let Ok(value) = vrl_obs::json::parse(&jsonish(&bytes)) {
            let _ = parse_spec(&value);
        }
    }
}
