//! Property tests for the JavaScript interpreter over generated programs:
//! loops, nested and recursive calls, parameter shadowing, globals created
//! inside functions, and string/number concatenation.
//!
//! The invariants need no reference implementation: execution is
//! deterministic, and the operation count does not depend on the gas
//! budget until the budget cuts the script off — at which point exactly
//! one more operation is counted and the effects are a prefix of the
//! uncut run's. The simulator prices scripts by `ops`, so a budget that
//! leaked into the count would leak into simulated time.

use ewb_browser::js;
use proptest::prelude::*;

const VARS: &[&str] = &["a", "b", "x", "g0", "g1"];

/// One top-level fragment of a generated program.
fn fragment() -> impl Strategy<Value = String> {
    (0usize..8, 0..VARS.len(), 0u32..40, 0usize..3, "[a-z]{1,4}")
        .prop_map(|(kind, v, n, k, s)| fragment_text(kind, VARS[v], n, k, &s))
}

fn fragment_text(kind: usize, v: &str, n: u32, k: usize, s: &str) -> String {
    match kind {
        0 => format!("var {v} = {n};"),
        1 => format!("{v} = {v} + {n};"),
        2 => format!("{v} = \"{s}\" + {v} + {n}.5;"),
        // A global created inside a function; `a` and `b` shadow globals.
        3 => format!("function f{k}(a, b) {{ var t = a * {n}; g{k} = t; return t + b; }}"),
        4 => format!(
            "var i = 0; while (i < {}) {{ {v} = f{k}({v}, i); i = i + 1; }}",
            n % 12
        ),
        // Deep enough, at times, to hit the call-depth cut-off.
        5 => format!(
            "function r(n) {{ if (n > 0) {{ return r(n - 1) + 1; }} return 0; }} {v} = r({});",
            n * 2
        ),
        6 => format!(
            "if ({v} > {n}) {{ loadImage(\"i\" + {v}); }} \
             else {{ document.write(\"<p>\" + {v} + \"</p>\"); }}"
        ),
        _ => format!(
            "function sh(x) {{ x = x + 1; return x; }} var x = {n}; \
             loadImage(\"s\" + sh(x) + \"_\" + x);"
        ),
    }
}

fn program() -> impl Strategy<Value = String> {
    proptest::collection::vec(fragment(), 1..10).prop_map(|parts| parts.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same program under the same budget gives the same outcome.
    #[test]
    fn execution_is_deterministic(src in program()) {
        let a = js::execute(&src, None);
        let b = js::execute(&src, None);
        prop_assert!(a.parse_ok, "generated programs parse: {}", src);
        prop_assert_eq!(a, b);
    }

    /// A budget at or above what the script needs changes nothing; a
    /// smaller one stops it after exactly `gas + 1` counted operations
    /// with a prefix of the effects.
    #[test]
    fn ops_do_not_depend_on_gas_until_the_cut_off(
        src in program(),
        spare in 0u64..1000,
        frac in 0.0f64..1.0,
    ) {
        let full = js::execute(&src, None);
        let roomy = js::execute(&src, Some(full.ops + spare));
        prop_assert_eq!(&roomy, &full);

        let gas = (full.ops as f64 * frac) as u64;
        if gas < full.ops {
            let cut = js::execute(&src, Some(gas));
            prop_assert!(cut.hit_gas_limit);
            prop_assert_eq!(cut.ops, gas + 1);
            prop_assert!(
                full.effects.starts_with(&cut.effects),
                "cut effects {:?} not a prefix of {:?}", cut.effects, full.effects
            );
        }
    }
}
