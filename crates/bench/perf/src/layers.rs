//! Per-layer measurements shared by every workload's traced run.
//!
//! A traced run reports every per-layer metric on every workload. The
//! workload decides which loop dominates: the live workloads trace their
//! own sessions and sample the fleet layer afterwards; `fleet_day`
//! traces its own users and samples live sessions for a few of them.

use crate::clock;
use crate::recompose::{fleet_user, live_session, same_outcome, LiveCounts};
use crate::report::{median, Metrics};
use crate::trace::{Profile, Tracer};
use ewb_core::browser::{css, html, js, layout};
use ewb_core::cases::Case;
use ewb_core::obs::{Event, Recorder};
use ewb_core::session::{simulate_session, SessionOutcome, Visit};
use ewb_core::traces::{FeatureVector, ReadingTimePredictor, N_FEATURES};
use ewb_core::webpage::{Corpus, ObjectKind, OriginServer, Page};
use ewb_core::CoreConfig;
use ewb_fleet::{run_fleet, summary_fingerprint, FleetConfig, FleetEnv, FleetSummary};

/// Layout viewport of every pipeline load, px.
const VIEWPORT_PX: f64 = 980.0;

/// Repetitions of each standalone stage per visited page.
const STAGE_REPS: usize = 3;

/// Untraced `run_fleet` repetitions per thread count in the fleet sample.
const FLEET_REPS: usize = 3;

/// A traced live pass: outcomes, work counts and its span range.
pub struct LivePass {
    /// One outcome per session, in order.
    pub outcomes: Vec<SessionOutcome>,
    /// Work counts summed over the pass.
    pub counts: LiveCounts,
    /// Span range of the pass.
    pub spans: (usize, usize),
    /// Normalized seconds of the whole pass (see [`crate::clock`]).
    pub norm_s: f64,
}

/// One live session to run: its visits and case.
pub struct LiveJob<'a> {
    /// The visits.
    pub visits: Vec<Visit<'a>>,
    /// The policy.
    pub case: Case,
}

/// Runs every job through the traced re-composition.
pub fn traced_live_pass(
    tr: &mut Tracer,
    server: &OriginServer,
    cfg: &CoreConfig,
    predictor: Option<&ReadingTimePredictor>,
    jobs: &[LiveJob<'_>],
) -> LivePass {
    let from = tr.mark();
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut counts = LiveCounts::default();
    let mut norm_s = 0.0;
    for job in jobs {
        let ((outcome, c), _, norm) = clock::timed(|| {
            live_session(
                tr,
                server,
                &job.visits,
                job.case,
                cfg,
                predictor,
                &Recorder::disabled(),
            )
        });
        norm_s += norm;
        counts.add(&c);
        outcomes.push(outcome);
    }
    LivePass {
        outcomes,
        counts,
        spans: (from, tr.mark()),
        norm_s,
    }
}

/// The re-composition guard of a live pass: every traced session must
/// equal `reference` (the library's `simulate_session`) to the bit.
/// Returns the number of sessions that differ.
pub fn live_guard(pass: &LivePass, reference: &[SessionOutcome]) -> u64 {
    assert_eq!(
        pass.outcomes.len(),
        reference.len(),
        "one reference per session"
    );
    pass.outcomes
        .iter()
        .zip(reference)
        .filter(|(a, b)| !same_outcome(a, b))
        .count() as u64
}

/// The live per-visit split: each layer's self time and the glue, µs per
/// visit, adding up to `live.visit_us`.
pub fn live_split(m: &mut Metrics, p: &Profile, counts: &LiveCounts) {
    let visits = counts.visits as f64;
    let us = |ns: u64| ns as f64 / 1e3 / visits;
    m.put(
        "browser.load_ms",
        p.call_ns("browser", "load_page_recorded") as f64 / 1e6 / visits,
        "ms",
    );
    m.put(
        "net.events_us_per_visit",
        us(p.call_ns("net", "events_of_load_parallel")),
        "us",
    );
    m.put("net.self_us_per_visit", us(p.layer_ns("net")), "us");
    m.put("core.decide_us_per_visit", us(p.layer_ns("core")), "us");
    m.put(
        "rrc.step_us_per_visit",
        us(p.call_ns("rrc", "release_to_idle") + p.call_ns("rrc", "advance_to")),
        "us",
    );
    m.put(
        "rrc.replay_us_per_event",
        p.call_ns("rrc", "replay_radio_recorded") as f64 / 1e3 / counts.radio_events as f64,
        "us",
    );
    m.put("rrc.self_us_per_visit", us(p.layer_ns("rrc")), "us");
    m.put(
        "live.glue_us_per_visit",
        us(p.layer_ns(crate::trace::GLUE)),
        "us",
    );
    m.put("live.visit_us", us(p.root_ns), "us");
}

/// Exact work counts from the simulator's own event recorder, over
/// `jobs` (run again, untimed, with a recording sink attached). Also
/// checks that recording changes no simulated bit. Returns the number
/// of sessions whose recorded outcome differs from `simulate_session`.
pub fn live_counts(
    m: &mut Metrics,
    server: &OriginServer,
    cfg: &CoreConfig,
    predictor: Option<&ReadingTimePredictor>,
    jobs: &[LiveJob<'_>],
) -> u64 {
    let mut scratch = Tracer::new();
    let mut counts = LiveCounts::default();
    let mut redraws = 0u64;
    let mut transfers = 0u64;
    let mut differ = 0u64;
    for job in jobs {
        let recorder = Recorder::memory();
        let (outcome, c) = live_session(
            &mut scratch,
            server,
            &job.visits,
            job.case,
            cfg,
            predictor,
            &recorder,
        );
        let reference = simulate_session(server, &job.visits, job.case, cfg, predictor);
        differ += u64::from(!same_outcome(&outcome, &reference));
        counts.add(&c);
        redraws += recorder
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Span {
                        name: "redraw_reflow",
                        ..
                    }
                )
            })
            .count() as u64;
        transfers += recorder.summary().transfers_begun;
    }
    let visits = counts.visits as f64;
    m.put(
        "browser.redraws_per_visit",
        redraws as f64 / visits,
        "count",
    );
    m.put(
        "browser.objects_per_visit",
        counts.objects as f64 / visits,
        "count",
    );
    m.put(
        "browser.dom_nodes_per_visit",
        counts.dom_nodes as f64 / visits,
        "count",
    );
    m.put(
        "net.transfers_per_visit",
        transfers as f64 / visits,
        "count",
    );
    m.put(
        "rrc.events_per_visit",
        counts.radio_events as f64 / visits,
        "count",
    );
    differ
}

/// Standalone engine-stage costs on the visited pages' own objects,
/// weighted by how often each page was visited: HTML parse per byte, CSS
/// parse per byte, JS execution per script, one style resolution and
/// one layout of the parsed document.
pub fn stage_costs(tr: &mut Tracer, m: &mut Metrics, pages: &[(&Page, u64)]) {
    let (mut html_ns, mut html_bytes) = (0.0, 0.0);
    let (mut css_ns, mut css_bytes) = (0.0, 0.0);
    let (mut js_ns, mut scripts) = (0.0, 0.0);
    let (mut style_ns, mut layout_ns, mut calls) = (0.0, 0.0, 0.0);
    for &(page, weight) in pages {
        let w = weight as f64;
        let root = page
            .object(page.root_url())
            .expect("a page serves its root document");
        let objects = |kind: ObjectKind| page.objects().filter(move |o| o.kind == kind);
        for _ in 0..STAGE_REPS {
            let t = tr.mark();
            let parsed = tr.time("browser", "html::parse", || html::parse(&root.body));
            html_ns += w * span_ns(tr, t);
            html_bytes += w * root.body.len() as f64;

            let mut sheets = Vec::new();
            let css_sources = objects(ObjectKind::Css)
                .map(|o| o.body.as_str())
                .chain(parsed.inline_styles.iter().map(String::as_str));
            for source in css_sources {
                let t = tr.mark();
                let p = tr.time("browser", "css::parse", || css::parse(source));
                css_ns += w * span_ns(tr, t);
                css_bytes += w * source.len() as f64;
                sheets.push(p.sheet);
            }

            let js_sources = objects(ObjectKind::Js)
                .map(|o| o.body.as_str())
                .chain(parsed.inline_scripts.iter().map(String::as_str));
            for source in js_sources {
                let t = tr.mark();
                tr.time("browser", "js::execute", || {
                    js::execute(source, Some(js::DEFAULT_GAS))
                });
                js_ns += w * span_ns(tr, t);
                scripts += w;
            }

            let refs: Vec<&css::Stylesheet> = sheets.iter().collect();
            let t = tr.mark();
            let styles = tr.time("browser", "css::compute_styles", || {
                css::compute_styles(&parsed.document, &refs)
            });
            style_ns += w * span_ns(tr, t);
            let t = tr.mark();
            tr.time("browser", "layout::layout", || {
                layout::layout(&parsed.document, Some(&styles), VIEWPORT_PX)
            });
            layout_ns += w * span_ns(tr, t);
            calls += w;
        }
    }
    m.put("browser.html_parse_ns_per_byte", html_ns / html_bytes, "ns");
    m.put("browser.css_parse_ns_per_byte", css_ns / css_bytes, "ns");
    m.put("browser.js_exec_us_per_script", js_ns / 1e3 / scripts, "us");
    m.put("browser.style_us_per_call", style_ns / 1e3 / calls, "us");
    m.put("browser.layout_us_per_call", layout_ns / 1e3 / calls, "us");
}

/// Duration of the single span recorded since `mark`, ns.
fn span_ns(tr: &Tracer, mark: usize) -> f64 {
    tr.spans()[mark].dur_ns() as f64
}

/// How often each page of the corpus occurs in `visits`, as
/// `(page, visits)` pairs in corpus order, unvisited pages left out.
pub fn page_weights<'a>(visits: impl Iterator<Item = &'a Visit<'a>>) -> Vec<(&'a Page, u64)> {
    let mut out: Vec<(&'a Page, u64)> = Vec::new();
    for v in visits {
        match out
            .iter_mut()
            .find(|(p, _)| p.root_url() == v.page.root_url())
        {
            Some((_, n)) => *n += 1,
            None => out.push((v.page, 1)),
        }
    }
    out.sort_by(|a, b| a.0.root_url().cmp(b.0.root_url()));
    out
}

/// Single-row prediction on `rows`, timed per call and held against the
/// batched prediction of the same rows. Returns the number of rows whose
/// two predictions differ in any bit.
pub fn predict_costs(
    tr: &mut Tracer,
    m: &mut Metrics,
    predictor: &ReadingTimePredictor,
    rows: &[f64],
) -> u64 {
    let n = rows.len() / N_FEATURES;
    let mut batch = vec![0.0; n];
    predictor.predict_rows(rows, &mut batch);
    let from = tr.mark();
    let mut differ = 0u64;
    for (i, row) in rows.chunks_exact(N_FEATURES).enumerate() {
        let features = FeatureVector::from_slice(row);
        let single = tr.time("gbrt", "predict_seconds", || {
            predictor.predict_seconds(&features)
        });
        differ += u64::from(single.to_bits() != batch[i].to_bits());
    }
    let calls_ns = tr.profile(from, tr.mark()).layer_ns("gbrt") as f64;
    m.put("gbrt.predict_us_per_call", calls_ns / 1e3 / n as f64, "us");
    differ
}

/// What the fleet sample measured.
pub struct FleetSample {
    /// Users whose re-composed summary did not match `run_fleet`
    /// (all of them, when it does not match).
    pub guard_failed: u64,
    /// Users traced, over all repetitions.
    pub users: u64,
    /// Traced normalized seconds per user.
    pub traced_s_per_user: f64,
    /// Untraced single-thread `run_fleet` normalized seconds per user.
    pub untraced_s_per_user: f64,
}

/// The fleet layer on `users` users of the population seeded by `seed`,
/// repeated: untraced `run_fleet` at one and two threads (parallel
/// efficiency), then every user re-composed under spans and the
/// re-composed summary held against `run_fleet`'s.
pub fn fleet_sample(
    tr: &mut Tracer,
    m: &mut Metrics,
    env: &FleetEnv,
    seed: u64,
    users: u64,
) -> FleetSample {
    let cfg = FleetConfig {
        seed,
        threads: 1,
        ..FleetConfig::paper(users)
    };
    let two = FleetConfig { threads: 2, ..cfg };
    // Interleaved repetitions, so that a slow spell of the machine hits
    // all three measurements alike.
    let (mut one_s, mut two_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut guard_failed = 0;
    let mut visits = 0;
    let from = tr.mark();
    for _ in 0..FLEET_REPS {
        let (reference, _, norm_s) = clock::timed(|| run_fleet(env, &cfg));
        one_s.push(norm_s);
        let (s, _, norm_s) = clock::timed(|| run_fleet(env, &two));
        two_s.push(norm_s);
        let mut summary = FleetSummary::default();
        let (v, _, norm_s) = clock::timed(|| {
            (0..users)
                .map(|user| fleet_user(tr, env, &cfg, user, &mut summary))
                .sum::<u64>()
        });
        traced_s.push(norm_s);
        visits += v;
        let same = |a: &FleetSummary, b: &FleetSummary| {
            a == b && summary_fingerprint(a) == summary_fingerprint(b)
        };
        if !same(&summary, &reference) || !same(&s, &reference) {
            guard_failed = users;
        }
    }
    let one = median(&one_s);
    let efficiency = one / (two.threads as f64 * median(&two_s));
    let p = tr.profile(from, tr.mark());
    let users_traced = users * FLEET_REPS as u64;

    let per_user = |ns: u64| ns as f64 / 1e3 / users_traced as f64;
    m.put(
        "fleet.plan_us_per_user",
        per_user(p.call_ns("fleet", "plan_user") + p.call_ns("fleet", "predictor_outage_from")),
        "us",
    );
    m.put(
        "gbrt.predict_us_per_row",
        p.call_ns("gbrt", "predict_rows") as f64 / 1e3 / visits as f64,
        "us",
    );
    m.put(
        "core.replay_us_per_visit",
        p.call_ns("core", "run_profiled_session_with") as f64 / 1e3 / (2 * visits) as f64,
        "us",
    );
    m.put(
        "fleet.fold_us_per_user",
        per_user(p.call_ns("fleet", "FleetSummary::fold")),
        "us",
    );
    m.put(
        "fleet.glue_us_per_user",
        per_user(p.layer_ns(crate::trace::GLUE)),
        "us",
    );
    m.put("fleet.user_us", per_user(p.root_ns), "us");
    m.put(
        "fleet.visits_per_user",
        visits as f64 / users_traced as f64,
        "count",
    );
    m.put("fleet.parallel_efficiency", efficiency, "ratio");
    eprintln!(
        "fleet split over {users_traced} users:\n{}",
        p.table(users_traced as f64, "user")
    );
    assert!(
        p.balanced(),
        "fleet self times must add up to the user total"
    );
    FleetSample {
        guard_failed,
        users: users_traced,
        traced_s_per_user: median(&traced_s) / users as f64,
        untraced_s_per_user: one / users as f64,
    }
}

/// The benchmark corpus page of synthesizer base `idx`.
pub fn page_of<'a>(
    corpus: &'a Corpus,
    synth: &ewb_core::traces::VisitSynthesizer,
    idx: usize,
) -> &'a Page {
    let (key, version) = synth.base(idx);
    corpus
        .page(key, version)
        .expect("every synthesizer base is a corpus page")
}
