//! Golden JavaScript outcomes: every script the benchmark corpus runs,
//! pinned field by field.
//!
//! For each script of `benchmark_corpus(1)` — external `.js` objects and
//! inline `<script>` blocks, both page versions — the golden records
//! `(ops, tokens, bytes, effects, parse_ok, hit_gas_limit)` at the
//! pipeline's default budget, plus `ops`/`hit_gas_limit`/effect count at
//! a third of that script's own op count, so the gas cut-off point is
//! pinned too. A few hand-written programs cover what the corpus does
//! not: the call-depth cut-off, runaway loops and parse failures.
//!
//! The simulator prices script execution by `ops`, `tokens` and `bytes`,
//! and follows `effects` to fetch resources, so any change here changes
//! simulated time and energy. A diff means the interpreter's observable
//! behaviour changed; if that is intentional, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p ewb-browser --test js_golden` and
//! review the delta.

use ewb_browser::{html, js};
use ewb_webpage::{benchmark_corpus, ObjectKind, PageVersion};
use std::fmt::Write;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/js_outcomes.txt");

/// Programs outside the corpus's shape: cut-offs and failure paths.
const EXTRA: &[(&str, &str)] = &[
    ("recursion", "function f(n) { return f(n + 1); } f(0); loadImage(\"after\");"),
    ("deep_calls", "function d(n) { if (n > 0) { return d(n - 1) + 1; } return 0; } loadImage(\"d\" + d(40));"),
    ("too_deep", "function d(n) { if (n > 0) { return d(n - 1) + 1; } return 0; } loadImage(\"d\" + d(70));"),
    ("runaway", "var i = 0; while (true) { i = i + 1; }"),
    ("parse_error", "var x = {a: 1};"),
    ("globals", "function set(v) { g = v; var l = v; } set(3); set(g + 1); loadImage(\"g\" + g + l);"),
    ("shadowing", "var x = 1; function f(x) { x = x + 10; return x; } loadImage(\"s\" + f(x) + \"_\" + x);"),
    ("concat", "var s = \"\"; var k = 0; while (k < 20) { s = s + k * 1.5 + \",\"; k = k + 1; } document.write(s);"),
    ("nested_decl", "function outer() { function inner() { return 7; } return inner(); } loadImage(\"n\" + outer() + inner());"),
];

fn record(out: &mut String, name: &str, source: &str) {
    let full = js::execute(source, Some(js::DEFAULT_GAS));
    let effects: Vec<String> = full.effects.iter().map(|e| format!("{e:?}")).collect();
    let _ = writeln!(
        out,
        "{name}\tops={}\ttokens={}\tbytes={}\tparse_ok={}\thit_gas_limit={}\teffects=[{}]",
        full.ops,
        full.tokens,
        full.bytes,
        full.parse_ok,
        full.hit_gas_limit,
        effects.join(", ")
    );
    let gas = full.ops / 3;
    let cut = js::execute(source, Some(gas));
    let _ = writeln!(
        out,
        "{name}@gas={gas}\tops={}\thit_gas_limit={}\teffects={}",
        cut.ops,
        cut.hit_gas_limit,
        cut.effects.len()
    );
}

fn outcomes() -> String {
    let corpus = benchmark_corpus(1);
    let mut out = String::new();
    for version in [PageVersion::Full, PageVersion::Mobile] {
        for page in corpus.pages(version) {
            for obj in page.objects() {
                match obj.kind {
                    ObjectKind::Js => record(&mut out, &obj.url, &obj.body),
                    ObjectKind::Html => {
                        let parsed = html::parse(&obj.body);
                        for (i, script) in parsed.inline_scripts.iter().enumerate() {
                            record(&mut out, &format!("{}#inline{i}", obj.url), script);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    for (name, source) in EXTRA {
        record(&mut out, name, source);
    }
    out
}

#[test]
fn js_outcomes_match_the_golden() {
    let actual = outcomes();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden at {GOLDEN} ({e}); run with UPDATE_GOLDEN=1"));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "script count differs"
    );
}
