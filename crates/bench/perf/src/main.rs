//! The page-visit simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/perf/Cargo.toml -- \
//!     --workload <fleet_day|live_original|live_energy_aware> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; progress and the per-layer split
//! go to standard error. See `README.md` in this directory.

mod clock;
mod fleet;
mod gen;
mod layers;
mod live;
mod recompose;
mod report;
mod trace;
mod world;

use ewb_core::cases::Case;
use report::{result_json, Metrics};
use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

/// What a workload run measured and checked.
pub struct Outcome {
    /// The metrics to print.
    pub metrics: Metrics,
    /// User-days attempted.
    pub attempted: u64,
    /// User-days that panicked or failed their output check.
    pub failed: u64,
    /// Traced run only: sessions or users whose re-composition did not
    /// reproduce the library path, plus any other probe mismatch.
    pub guard_failed: u64,
    /// Traced run only: the spans, written out when the run ends.
    pub spans: Option<trace::Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: ewb-perfbench --workload <fleet_day|live_original|live_energy_aware> \
         --seed <n> --seconds <n> --trace <0|1>\n\
         held-out seed (claims must also hold on it): {}",
        gen::HELD_OUT_SEED
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |v: Option<String>, name: &str| v.ok_or_else(|| format!("missing {name}"));
    let number = |v: String, name: &str| {
        v.parse::<u64>()
            .map_err(|e| format!("{name} {v:?} is not a whole number: {e}"))
    };
    let seconds = number(need(seconds, "--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: need(workload, "--workload")?,
        seed: number(need(seed, "--seed")?, "--seed")?,
        seconds,
        trace,
    })
}

/// Writes a traced run's spans as JSON lines under [`TRACE_DIR`].
fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/{workload}-seed{seed}.jsonl");
    std::fs::write(&path, tr.to_json_lines()).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("{} spans written to {path}", tr.spans().len());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "fleet_day" => fleet::run(args.seed, seconds, args.trace),
        "live_original" => live::run(
            live::Live {
                case: Case::Original,
                per_page: 4,
            },
            args.seed,
            seconds,
            args.trace,
        ),
        "live_energy_aware" => live::run(
            live::Live {
                case: Case::Predict9,
                per_page: 12,
            },
            args.seed,
            seconds,
            args.trace,
        ),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args).and_then(|mut o| {
        if let Some(tr) = &o.spans {
            write_trace(tr, &args.workload, args.seed)?;
            // Per-layer times in normalized seconds, like the end-to-end
            // ones (see `clock`); counts and ratios are unchanged.
            let factor = clock::run_factor();
            eprintln!("per-layer times scaled by the run's normalization factor {factor:.4}");
            o.metrics.scale_times(factor);
        }
        Ok(o)
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} ({}):\n{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.metrics.table()
    );
    let correct = outcome.failed == 0 && outcome.guard_failed == 0;
    if outcome.guard_failed > 0 {
        eprintln!("{} guard or probe mismatches", outcome.guard_failed);
    }
    println!(
        "{}",
        result_json(
            correct,
            outcome.attempted,
            outcome.failed + outcome.guard_failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn strict_arguments() {
        let a = parse("--workload fleet_day --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_day", 3, 10, true)
        );
        assert!(parse("--workload fleet_day --seed 3 --seconds 10").is_err());
        assert!(parse("--workload fleet_day --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload fleet_day --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload a --workload b --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload a --seed 1 --seconds 1 --trace 0 --smoke 1").is_err());
        assert!(parse("--workload a --seed 1 --seconds 0 --trace 0").is_err());
    }
}
