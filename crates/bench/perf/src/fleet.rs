//! `fleet_day`: the memoized population run, `run_fleet` over
//! `FleetConfig::paper` (Original against Predict-9, 5–30 visits per
//! user, clean link) on two worker threads, in chunks of users.

use crate::layers::{self, LiveJob};
use crate::recompose::{memoized_matches, profiled_visits};
use crate::report::{median, peak_rss_mb, Metrics};
use crate::trace::Tracer;
use crate::{clock, gen, world, Outcome};
use ewb_core::session::{simulate_session, SessionOutcome, Visit};
use ewb_core::simcore::SplitMix64;
use ewb_core::traces::N_FEATURES;
use ewb_core::CoreConfig;
use ewb_fleet::{plan_user, run_fleet, summary_fingerprint, FleetConfig, FleetEnv, FleetSummary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups an untraced run times; it reports their median.
const SETUP_REPS: usize = 5;
/// Users per `run_fleet` call.
const CHUNK_USERS: u64 = 2048;
/// Worker threads (the reference machine has two cores).
const THREADS: usize = 2;
/// Chunks whose merged summary gives the simulated metrics and which the
/// shape check reruns. Always run, however short `--seconds` is.
const SIM_CHUNKS: u64 = 4;
/// The second shard × thread shape the checked chunks must reproduce.
const CHECK_SHARDS: usize = 7;
const CHECK_THREADS: usize = 1;
/// Users per checked chunk whose two sessions are rerun through the full
/// browser pipeline.
const LIVE_SAMPLE_USERS: usize = 1;
/// Users the traced run re-composes.
const TRACE_USERS: u64 = 2048;

/// The population seed of chunk `chunk` of a run seeded by `seed`.
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    SplitMix64::mix(seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn chunk_config(seed: u64, chunk: u64) -> FleetConfig {
    FleetConfig {
        seed: chunk_seed(seed, chunk),
        threads: THREADS,
        ..FleetConfig::paper(CHUNK_USERS)
    }
}

/// The `k` users of `cfg` with the smallest hash of `(seed, user)`: a
/// deterministic sample whose size does not depend on the seed.
fn hash_sample(cfg: &FleetConfig, k: usize) -> Vec<u64> {
    let mut users: Vec<u64> = (0..cfg.users).collect();
    users.sort_by_key(|&u| (SplitMix64::mix(cfg.seed ^ u), u));
    users.truncate(k);
    users.sort_unstable();
    users
}

/// The full-pipeline sessions (baseline, optimized) of `user`.
fn live_jobs<'a>(env: &'a FleetEnv, cfg: &FleetConfig, user: u64) -> [LiveJob<'a>; 2] {
    let plan = plan_user(env, cfg, user);
    let visits: Vec<Visit<'a>> = plan
        .iter()
        .map(|v| Visit {
            page: layers::page_of(&env.corpus, &env.synth, v.page_idx),
            reading_s: v.reading_s,
            features: Some(v.features),
        })
        .collect();
    [
        LiveJob {
            visits: visits.clone(),
            case: cfg.baseline,
        },
        LiveJob {
            visits,
            case: cfg.optimized,
        },
    ]
}

/// The memoized twin of `user`'s sessions matches `outcomes` (baseline,
/// optimized) to the bit.
fn user_matches(env: &FleetEnv, cfg: &FleetConfig, user: u64, outcomes: &[SessionOutcome]) -> bool {
    let plan: Vec<gen::PlannedVisit> = plan_user(env, cfg, user)
        .iter()
        .map(|v| gen::PlannedVisit {
            page_idx: v.page_idx,
            features: v.features,
            reading_s: v.reading_s,
        })
        .collect();
    let rows: Vec<f64> = plan.iter().flat_map(|v| v.features.0).collect();
    let mut preds = vec![0.0; rows.len() / N_FEATURES];
    env.predictor.predict_rows(&rows, &mut preds);
    [cfg.baseline, cfg.optimized]
        .iter()
        .zip(outcomes)
        .all(|(&case, outcome)| {
            let visits = profiled_visits(&plan, case.needs_predictor().then_some(&preds[..]));
            memoized_matches(env, case, &visits, outcome)
        })
}

fn full_sessions(env: &FleetEnv, jobs: &[LiveJob<'_>]) -> Vec<SessionOutcome> {
    jobs.iter()
        .map(|j| {
            let predictor = j.case.needs_predictor().then_some(&env.predictor);
            simulate_session(&env.server, &j.visits, j.case, &env.cfg, predictor)
        })
        .collect()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return run_traced(seed);
    }
    let mut m = Metrics::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let (e, _, norm_s) = clock::timed(FleetEnv::prepare);
        env = Some(e);
        setup_s.push(norm_s);
    }
    let env = env.ok_or("no set-up ran")?;

    // Run phase: chunks of users until `seconds` have passed.
    let mut rates = Vec::new();
    let mut summaries: Vec<Option<FleetSummary>> = Vec::new();
    let started = Instant::now();
    let mut chunk = 0u64;
    while chunk < SIM_CHUNKS || started.elapsed().as_secs_f64() < seconds {
        let cfg = chunk_config(seed, chunk);
        let (summary, _, norm_s) =
            clock::timed(|| catch_unwind(AssertUnwindSafe(|| run_fleet(&env, &cfg))).ok());
        if let Some(s) = &summary {
            rates.push(s.visits as f64 / norm_s);
        }
        summaries.push(summary);
        chunk += 1;
    }
    let rss = peak_rss_mb()?;

    // Checks: the simulated chunks at a second shape, and a hash sample
    // of their users through the full browser pipeline.
    let mut failed_users = summaries.iter().filter(|s| s.is_none()).count() as u64 * CHUNK_USERS;
    let mut sim = FleetSummary::default();
    for (c, summary) in summaries.iter().enumerate().take(SIM_CHUNKS as usize) {
        let Some(summary) = summary else { continue };
        sim.merge(summary);
        let cfg = chunk_config(seed, c as u64);
        let other = run_fleet(
            &env,
            &FleetConfig {
                shards: CHECK_SHARDS,
                threads: CHECK_THREADS,
                ..cfg
            },
        );
        if summary_fingerprint(&other) != summary_fingerprint(summary) || other != *summary {
            failed_users += CHUNK_USERS;
            continue;
        }
        for user in hash_sample(&cfg, LIVE_SAMPLE_USERS) {
            let matched = catch_unwind(AssertUnwindSafe(|| {
                let outcomes = full_sessions(&env, &live_jobs(&env, &cfg, user));
                user_matches(&env, &cfg, user, &outcomes)
            }));
            failed_users += u64::from(!matches!(matched, Ok(true)));
        }
    }
    if rates.is_empty() || sim.users == 0 {
        return Err("every chunk of the run failed".into());
    }
    let per_session = sim.visits as f64 / 2.0;
    m.put("setup_s", median(&setup_s), "s");
    m.put("visits_per_s", median(&rates), "1/s");
    m.put("peak_rss_mb", rss, "MiB");
    m.put(
        "sim_energy_j_per_visit",
        sim.optimized_uj as f64 / 1e6 / per_session,
        "J",
    );
    m.put("sim_load_s_mean", sim.load_mean_s(true), "s");
    m.put("sim_load_s_p95", sim.load_quantile_s(true, 0.95), "s");
    m.put("sim_saved_pct", 100.0 * sim.saved_fraction(), "%");
    eprintln!(
        "{chunk} chunks of {CHUNK_USERS} users in {:.3} s",
        started.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        metrics: m,
        attempted: chunk * CHUNK_USERS,
        failed: failed_users,
        guard_failed: 0,
        spans: None,
    })
}

/// The traced run: set-up piece by piece, every user of a chunk
/// re-composed under spans (held against `run_fleet`), then a hash
/// sample of its users re-composed through the full browser pipeline
/// (held against `simulate_session` and the memoized replay).
fn run_traced(seed: u64) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let cfg = CoreConfig::paper();
    let (corpus, server) = world::corpus(&mut tr);
    let table = world::capture(&mut tr, &corpus, &server, &cfg);
    let predictor = world::predictor(&mut tr, &cfg);
    let setup = tr.profile(0, tr.mark());
    let loads = world::capture_loads(&table);
    let env = world::env_from_parts(corpus, server, cfg, table, predictor);
    let capture_s = setup.layer_ns("core") as f64 / 1e9;
    m.put(
        "webpage.corpus_s",
        setup.layer_ns("webpage") as f64 / 1e9,
        "s",
    );
    m.put("core.capture_s", capture_s, "s");
    m.put(
        "core.capture_ms_per_load",
        capture_s * 1e3 / loads as f64,
        "ms",
    );
    m.put("gbrt.train_s", setup.layer_ns("gbrt") as f64 / 1e9, "s");

    let fleet = layers::fleet_sample(&mut tr, &mut m, &env, chunk_seed(seed, 0), TRACE_USERS);
    let mut guard_failed = fleet.guard_failed;

    let cfg = FleetConfig {
        seed: chunk_seed(seed, 0),
        ..FleetConfig::paper(TRACE_USERS)
    };
    let sample = hash_sample(&cfg, LIVE_SAMPLE_USERS);
    let jobs: Vec<LiveJob<'_>> = sample
        .iter()
        .flat_map(|&u| live_jobs(&env, &cfg, u))
        .collect();
    let reference = full_sessions(&env, &jobs);
    let pass =
        layers::traced_live_pass(&mut tr, &env.server, &env.cfg, Some(&env.predictor), &jobs);
    guard_failed += layers::live_guard(&pass, &reference);
    for (i, &user) in sample.iter().enumerate() {
        guard_failed += u64::from(!user_matches(
            &env,
            &cfg,
            user,
            &reference[2 * i..2 * i + 2],
        ));
    }
    let p = tr.profile(pass.spans.0, pass.spans.1);
    eprintln!(
        "live split over {} visits:\n{}",
        pass.counts.visits,
        p.table(pass.counts.visits as f64, "visit")
    );
    if !p.balanced() {
        return Err("live self times do not add up to the visit total".into());
    }
    layers::live_split(&mut m, &p, &pass.counts);
    guard_failed += layers::live_counts(&mut m, &env.server, &env.cfg, Some(&env.predictor), &jobs);
    let weights = layers::page_weights(jobs.iter().flat_map(|j| j.visits.iter()));
    layers::stage_costs(&mut tr, &mut m, &weights);
    let rows: Vec<f64> = jobs
        .iter()
        .step_by(2)
        .flat_map(|j| j.visits.iter())
        .flat_map(|v| v.features.map(|f| f.0).unwrap_or_default())
        .collect();
    guard_failed += layers::predict_costs(&mut tr, &mut m, &env.predictor, &rows);
    m.put(
        "trace.overhead_pct",
        100.0 * (fleet.traced_s_per_user / fleet.untraced_s_per_user - 1.0),
        "%",
    );
    Ok(Outcome {
        metrics: m,
        attempted: fleet.users,
        failed: 0,
        guard_failed,
        spans: Some(tr),
    })
}
