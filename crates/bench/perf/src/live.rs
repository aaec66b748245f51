//! The live workloads: generated user-days through the full browser
//! pipeline (`simulate_session`), one session at a time.
//!
//! `live_original` runs them under `Case::Original` (progressive redraw
//! and reflow, no predictor); `live_energy_aware` runs the same kind of
//! user-days under `Case::Predict9` (batch fetch, one layout pass, a GBRT
//! release decision per engaged visit).

use crate::gen::{self, PlannedVisit};
use crate::layers::{self, LiveJob};
use crate::recompose::{memoized_matches, profiled_visits, LiveCounts};
use crate::report::{median, peak_rss_mb, quantile, Metrics};
use crate::trace::Tracer;
use crate::Outcome;
use crate::{clock, world};
use ewb_core::cases::Case;
use ewb_core::profile::run_profiled_session;
use ewb_core::session::{simulate_session, SessionOutcome, Visit};
use ewb_core::traces::{ReadingTimePredictor, VisitSynthesizer, N_FEATURES};
use ewb_core::webpage::{Corpus, OriginServer};
use ewb_core::CoreConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A live workload.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    /// The case every session runs under.
    pub case: Case,
    /// Visits of each corpus page in the pool (see
    /// [`gen::stratified_pool`]).
    pub per_page: usize,
}

/// Fewest passes over the pool a run makes.
const MIN_PASSES: usize = 3;

/// Least host time set-up is repeated for, seconds, and the fewest and
/// most repetitions.
const SETUP_MIN_S: f64 = 0.5;
const SETUP_REPS: (usize, usize) = (3, 400);

/// User-days whose exact work counts the traced run reports.
const COUNT_DAYS: usize = 4;

/// Fleet users the traced run samples for the fleet-layer metrics.
const FLEET_SAMPLE_USERS: u64 = 1024;

/// The saving compares Predict-9 against the Original baseline.
const BASELINE: Case = Case::Original;
const OPTIMIZED: Case = Case::Predict9;

struct World {
    corpus: Corpus,
    server: OriginServer,
    cfg: CoreConfig,
    predictor: Option<ReadingTimePredictor>,
}

/// What the run phase uses: the corpus, and the predictor when the case
/// consults one. Never a profile capture.
fn setup(tr: &mut Tracer, case: Case) -> World {
    let cfg = CoreConfig::paper();
    let (corpus, server) = world::corpus(tr);
    let predictor = case.needs_predictor().then(|| world::predictor(tr, &cfg));
    World {
        corpus,
        server,
        cfg,
        predictor,
    }
}

fn visits_of<'a>(
    corpus: &'a Corpus,
    synth: &VisitSynthesizer,
    day: &[PlannedVisit],
) -> Vec<Visit<'a>> {
    day.iter()
        .map(|v| Visit {
            page: layers::page_of(corpus, synth, v.page_idx),
            reading_s: v.reading_s,
            features: Some(v.features),
        })
        .collect()
}

/// One untraced pass: every session through `simulate_session`, each
/// timed on its own.
struct Pass {
    outcomes: Vec<Option<SessionOutcome>>,
    host_s: f64,
    norm_s: f64,
}

fn untraced_pass(
    server: &OriginServer,
    cfg: &CoreConfig,
    predictor: Option<&ReadingTimePredictor>,
    case: Case,
    sessions: &[&[Visit<'_>]],
) -> Pass {
    let mut pass = Pass {
        outcomes: Vec::with_capacity(sessions.len()),
        host_s: 0.0,
        norm_s: 0.0,
    };
    for visits in sessions {
        let (out, host_s, norm_s) = clock::timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                simulate_session(server, visits, case, cfg, predictor)
            }))
            .ok()
        });
        pass.host_s += host_s;
        pass.norm_s += norm_s;
        pass.outcomes.push(out);
    }
    pass
}

fn sessions_of<'a>(jobs: &'a [LiveJob<'a>]) -> Vec<&'a [Visit<'a>]> {
    jobs.iter().map(|j| j.visits.as_slice()).collect()
}

/// Runs the workload.
pub fn run(spec: Live, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();

    // Set-up, timed. Untraced runs repeat it and report the median.
    let mut setup_s = Vec::new();
    let mut world = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_REPS.0
        || (!trace && setup_s.len() < SETUP_REPS.1 && started.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(world.take());
        let (w, _, norm_s) = clock::timed(|| setup(&mut tr, spec.case));
        world = Some(w);
        setup_s.push(norm_s);
    }
    let w = world.ok_or("no set-up ran")?;
    let setup_profile = tr.profile(0, tr.mark());
    let reps = setup_s.len() as f64;

    // Inputs: a stratified pool of the seed's user-days.
    let synth = VisitSynthesizer::from_corpus(&w.corpus);
    let days = gen::stratified_pool(&synth, w.corpus.sites().len(), seed, spec.per_page);
    let mut panicked = 0u64;
    let jobs: Vec<LiveJob<'_>> = days
        .iter()
        .map(|d| LiveJob {
            visits: visits_of(&w.corpus, &synth, d),
            case: spec.case,
        })
        .collect();
    let sessions = sessions_of(&jobs);

    // Run phase: a closed loop of passes over the pool, one session at a
    // time, until `seconds` have passed (one pass when traced: the traced
    // run times its own untraced passes, interleaved with traced ones).
    let predictor = w.predictor.as_ref();
    let min_passes = if trace { 1 } else { MIN_PASSES };
    let mut first_pass = Vec::new();
    let (mut host_s, mut norm_s) = (0.0, 0.0);
    let mut passes = 0;
    let started = Instant::now();
    while passes < min_passes || (!trace && started.elapsed().as_secs_f64() < seconds) {
        let pass = untraced_pass(&w.server, &w.cfg, predictor, spec.case, &sessions);
        host_s += pass.host_s;
        norm_s += pass.norm_s;
        if passes == 0 {
            first_pass = pass.outcomes;
        } else {
            panicked += pass.outcomes.iter().filter(|o| o.is_none()).count() as u64;
        }
        passes += 1;
    }
    panicked += first_pass.iter().filter(|o| o.is_none()).count() as u64;
    let attempted = (passes * days.len()) as u64;
    let run_s = started.elapsed().as_secs_f64();
    let pass_visits = days.iter().map(Vec::len).sum::<usize>();
    let visits = (passes * pass_visits) as f64;
    let visits_per_s = visits / norm_s;
    let rss = peak_rss_mb()?;
    eprintln!(
        "{} user-days, {pass_visits} visits a pass, {passes} passes in {run_s:.3} s: \
         {:.3} visits per host second, {visits_per_s:.3} per normalized second",
        days.len(),
        visits / host_s
    );

    // Checks, outside set-up and after the timed phase: every user-day
    // of the pool against the memoized replay of the same visits.
    let from = tr.mark();
    let table = world::capture(&mut tr, &w.corpus, &w.server, &w.cfg);
    let capture_s = tr.profile(from, tr.mark()).root_ns as f64 / 1e9;
    let from = tr.mark();
    let predictor = match w.predictor {
        Some(p) => p,
        None => world::predictor(&mut tr, &w.cfg),
    };
    let train_post_s = tr.profile(from, tr.mark()).root_ns as f64 / 1e9;
    let capture_loads = world::capture_loads(&table);
    let rows: Vec<f64> = days.iter().flatten().flat_map(|v| v.features.0).collect();
    let mut preds = vec![0.0; rows.len() / N_FEATURES];
    predictor.predict_rows(&rows, &mut preds);
    drop(sessions);
    drop(jobs);
    let env = world::env_from_parts(w.corpus, w.server, w.cfg, table, predictor);
    let (mut base_j, mut opt_j) = (0.0, 0.0);
    let mut mismatched = 0u64;
    let mut offset = 0;
    for (day, outcome) in days.iter().zip(&first_pass) {
        let day_preds = &preds[offset..offset + day.len()];
        offset += day.len();
        let own = profiled_visits(day, spec.case.needs_predictor().then_some(day_preds));
        let matched = outcome.as_ref().is_some_and(|o| {
            catch_unwind(AssertUnwindSafe(|| {
                memoized_matches(&env, spec.case, &own, o)
            }))
            .unwrap_or(false)
        });
        mismatched += u64::from(outcome.is_some() && !matched);
        for (case, sum) in [(BASELINE, &mut base_j), (OPTIMIZED, &mut opt_j)] {
            let visits = profiled_visits(day, case.needs_predictor().then_some(day_preds));
            *sum += run_profiled_session(&env.table, &env.cfg, case, &visits, |_| {}).total_joules;
        }
    }
    let failed = panicked + mismatched;

    if !trace {
        // Simulated outcomes of the pool (deterministic per seed).
        let outcomes: Vec<&SessionOutcome> = first_pass.iter().flatten().collect();
        let loads: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.pages.iter().map(|p| p.load_time_s()))
            .collect();
        if loads.is_empty() {
            return Err("every session of the pool failed".into());
        }
        let sim_j: f64 = outcomes.iter().map(|o| o.total_joules).sum();
        eprintln!("set-up repeated {reps} times");
        m.put("setup_s", median(&setup_s), "s");
        m.put("visits_per_s", visits_per_s, "1/s");
        m.put("peak_rss_mb", rss, "MiB");
        m.put("sim_energy_j_per_visit", sim_j / loads.len() as f64, "J");
        m.put(
            "sim_load_s_mean",
            loads.iter().sum::<f64>() / loads.len() as f64,
            "s",
        );
        m.put("sim_load_s_p95", quantile(&loads, 0.95), "s");
        m.put("sim_saved_pct", 100.0 * (1.0 - opt_j / base_j), "%");
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            guard_failed: 0,
            spans: None,
        });
    }

    // Traced run: the same passes re-composed call by call, then the
    // per-layer probes.
    let jobs: Vec<LiveJob<'_>> = days
        .iter()
        .map(|d| LiveJob {
            visits: visits_of(&env.corpus, &env.synth, d),
            case: spec.case,
        })
        .collect();
    let reference: Vec<SessionOutcome> = first_pass.into_iter().flatten().collect();
    if reference.len() != jobs.len() {
        return Err("a session of the untraced pass panicked".into());
    }
    let predictor = Some(&env.predictor);
    let mut guard_failed = 0;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut counts = LiveCounts::default();
    let from = tr.mark();
    for _ in 0..MIN_PASSES {
        let plain = untraced_pass(
            &env.server,
            &env.cfg,
            predictor,
            spec.case,
            &sessions_of(&jobs),
        );
        untraced_s += plain.norm_s;
        let pass = layers::traced_live_pass(&mut tr, &env.server, &env.cfg, predictor, &jobs);
        guard_failed += layers::live_guard(&pass, &reference);
        traced_s += pass.norm_s;
        counts.add(&pass.counts);
    }
    let p = tr.profile(from, tr.mark());
    eprintln!(
        "live split over {} visits:\n{}",
        counts.visits,
        p.table(counts.visits as f64, "visit")
    );
    if !p.balanced() {
        return Err("live self times do not add up to the visit total".into());
    }
    layers::live_split(&mut m, &p, &counts);

    m.put(
        "webpage.corpus_s",
        setup_profile.layer_ns("webpage") as f64 / 1e9 / reps,
        "s",
    );
    m.put("core.capture_s", capture_s, "s");
    m.put(
        "core.capture_ms_per_load",
        capture_s * 1e3 / capture_loads as f64,
        "ms",
    );
    let train_s = if spec.case.needs_predictor() {
        setup_profile.layer_ns("gbrt") as f64 / 1e9 / reps
    } else {
        train_post_s
    };
    m.put("gbrt.train_s", train_s, "s");
    guard_failed += layers::live_counts(
        &mut m,
        &env.server,
        &env.cfg,
        predictor,
        &jobs[..COUNT_DAYS.min(jobs.len())],
    );
    let weights = layers::page_weights(jobs.iter().flat_map(|j| j.visits.iter()));
    layers::stage_costs(&mut tr, &mut m, &weights);
    guard_failed += layers::predict_costs(&mut tr, &mut m, &env.predictor, &rows);
    let fleet = layers::fleet_sample(&mut tr, &mut m, &env, seed, FLEET_SAMPLE_USERS);
    guard_failed += fleet.guard_failed;
    m.put(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
    );
    Ok(Outcome {
        metrics: m,
        attempted: attempted + (2 * MIN_PASSES * jobs.len()) as u64,
        failed,
        guard_failed,
        spans: Some(tr),
    })
}
