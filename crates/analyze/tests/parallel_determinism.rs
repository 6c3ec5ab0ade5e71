//! Property test for the analyzer's determinism contract: the
//! pipeline's output must be byte-identical for any input file order
//! and any worker count. Workers only fill a slot vector indexed by
//! file position, and everything order-sensitive runs serially on the
//! completed vector — this test is the proof the contract survives
//! refactors.

use heb_analyze::{analyze_files, diagnostics, FileContext};
use proptest::prelude::*;

/// Synthetic source templates spanning lexical rules (HEB002/HEB003),
/// suppressions (used and unused), and the cross-file HEB007 pass — so
/// the property exercises errors *and* warnings.
fn template(kind: usize, i: usize) -> String {
    match kind % 6 {
        0 => format!("pub fn ok_{i}(x: u32) -> u32 {{ x + {i} }}\n"),
        1 => format!("pub fn bad_{i}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"),
        2 => "pub fn map() { let m: HashMap<u32, u32> = HashMap::new(); }\n".to_string(),
        3 => "// heb-analyze: allow(HEB003, fixture: the line below unwraps)\n\
              pub fn s(x: Option<u32>) -> u32 { x.unwrap() }\n"
            .to_string(),
        4 => "// heb-analyze: allow(HEB001, fixture: deliberately unused)\n\
              pub fn q() {}\n"
            .to_string(),
        // Reached from the hash root only while at most two files
        // define `salt` (the ambiguity cut-off), so the findings depend
        // on how many generated files share the name, never on order.
        _ => "pub fn salt() -> u64 {\n    std::env::args().count() as u64\n}\n".to_string(),
    }
}

/// The fixed companion unit that arms HEB007: a hash root with a
/// tainted same-file callee, and a call to `salt` that the cross-file
/// reachability pass resolves into the generated files.
fn static_units() -> Vec<(String, FileContext)> {
    vec![(
        "pub struct Scenario;\nimpl Scenario {\n    pub fn content_hash(&self) -> u64 {\n        \
         leak() + salt()\n    }\n}\nfn leak() -> u64 {\n    let h = \
         heb_telemetry::RecorderHandle::current();\n    h.id()\n}\n"
            .to_string(),
        FileContext::lib("core", "crates/core/src/scenario.rs"),
    )]
}

/// Fisher–Yates with an inline xorshift, so the shuffle itself is a
/// pure function of the seed.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..items.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        #[allow(clippy::cast_possible_truncation)]
        let j = (s % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shuffled_parallel_analysis_is_byte_identical(
        kinds in proptest::collection::vec(0usize..6, 1..24),
        jobs in 1usize..9,
        shuffle_seed in 0u64..10_000,
    ) {
        let mut units = static_units();
        for (i, k) in kinds.iter().enumerate() {
            units.push((
                template(*k, i),
                FileContext::lib("core", &format!("crates/core/src/gen_{i}.rs")),
            ));
        }
        // Reference: serial, in declaration order.
        let (base_err, base_warn) = analyze_files(&units, 1);
        prop_assert!(!base_err.is_empty(), "templates must seed findings");
        // The cross-file edge is live: `salt` is followed exactly while
        // one or two generated files define it.
        let salts = kinds.iter().filter(|&&k| k == 5).count();
        let crossed = base_err
            .iter()
            .any(|d| d.rule == "HEB007" && d.path.contains("/gen_"));
        prop_assert_eq!(crossed, (1..=2).contains(&salts));

        let mut shuffled = units.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let (err, warn) = analyze_files(&shuffled, jobs);

        prop_assert_eq!(&err, &base_err, "errors drifted (jobs={})", jobs);
        prop_assert_eq!(&warn, &base_warn, "warnings drifted (jobs={})", jobs);
        // Byte-identical, not just structurally equal.
        prop_assert_eq!(
            diagnostics::to_json(&err),
            diagnostics::to_json(&base_err)
        );
    }
}
