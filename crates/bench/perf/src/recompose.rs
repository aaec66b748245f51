//! Traced re-compositions of the simulator's two session paths.
//!
//! [`live_session`] issues, call for call, what
//! `ewb_core::session::simulate_session` issues, and [`fleet_user`] what
//! `ewb_fleet::simulate_user` does — each call inside a [`Tracer`] span
//! named after the public function it enters. The guards in the callers
//! hold these to the library paths bit for bit: a re-composition that
//! drifted would time a different program.

use crate::trace::{Tracer, GLUE};
use ewb_core::browser::pipeline::{load_page_recorded, PipelineConfig};
use ewb_core::cases::Case;
use ewb_core::net::replay::{events_of_load_parallel, replay_radio_recorded, RadioEvent};
use ewb_core::net::RadioFetcher;
use ewb_core::obs::Recorder;
use ewb_core::profile::{run_profiled_session_with, ProfiledSessionOpts, ProfiledVisit};
use ewb_core::rrc::{RadioModel, RrcMachine};
use ewb_core::session::{release_decision, PageRecord, SessionOutcome, Visit};
use ewb_core::simcore::{SimDuration, SimTime};
use ewb_core::traces::{FeatureVector, ReadingTimePredictor, N_FEATURES};
use ewb_core::webpage::{OriginServer, PageVersion};
use ewb_core::CoreConfig;
use ewb_fleet::{plan_user, predictor_outage_from, FleetConfig, FleetEnv, FleetSummary};

/// Exact per-visit work counts of a live session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LiveCounts {
    /// Visits.
    pub visits: u64,
    /// Objects fetched.
    pub objects: u64,
    /// Final DOM nodes.
    pub dom_nodes: u64,
    /// Radio events handed to the energy replay.
    pub radio_events: u64,
}

impl LiveCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LiveCounts) {
        self.visits += other.visits;
        self.objects += other.objects;
        self.dom_nodes += other.dom_nodes;
        self.radio_events += other.radio_events;
    }
}

/// `simulate_session_recorded` on the 3G radio, re-composed from the
/// public calls it makes, with a span around each.
///
/// # Panics
///
/// Panics as `simulate_session` does, or if `case` needs a predictor and
/// none is given.
pub fn live_session(
    tr: &mut Tracer,
    server: &OriginServer,
    visits: &[Visit<'_>],
    case: Case,
    cfg: &CoreConfig,
    predictor: Option<&ReadingTimePredictor>,
    recorder: &Recorder,
) -> (SessionOutcome, LiveCounts) {
    let session = tr.open(GLUE, "session");
    let start = SimTime::ZERO;
    let mut machine = RrcMachine::new(cfg.rrc, start);
    let mut events: Vec<RadioEvent> = Vec::new();
    let mut boundaries: Vec<(SimTime, SimTime)> = Vec::new();
    let mut partial: Vec<PageRecord> = Vec::new();
    let mut counts = LiveCounts::default();
    let mut t = start;

    for (visit_idx, visit) in visits.iter().enumerate() {
        let span = tr.open(GLUE, "visit");
        let mut pipe_cfg = PipelineConfig::new(case.pipeline_mode());
        if visit.page.spec().version == PageVersion::Mobile {
            pipe_cfg.draw_intermediate = false;
        }
        let mut fetcher = tr.time("net", "RadioFetcher::with_machine", || {
            RadioFetcher::with_machine(cfg.net, machine, server).with_recorder(recorder.clone())
        });
        let metrics = tr.time("browser", "load_page_recorded", || {
            load_page_recorded(
                &mut fetcher,
                visit.page.root_url(),
                t,
                &pipe_cfg,
                &cfg.cost,
                recorder.clone(),
            )
        });
        let load_events = tr.time("net", "events_of_load_parallel", || {
            events_of_load_parallel(fetcher.transfers(), &metrics.cpu_busy, &metrics.aux_busy)
        });
        counts.radio_events += load_events.len() as u64;
        events.extend(load_events);
        machine = tr.time("net", "RadioFetcher::into_machine", || {
            fetcher.into_machine()
        });

        let opened = metrics.final_display_at;
        let next_start = opened + SimDuration::from_secs_f64(visit.reading_s);
        // The span includes the predictor call Algorithm 2 makes.
        let (decision, predicted_s) = tr.time("core", "release_decision", || {
            release_decision(
                case.release_policy(),
                cfg.alg.alpha_s,
                opened,
                visit.reading_s,
                || {
                    let features = visit
                        .features
                        .unwrap_or_else(|| FeatureVector::from_slice(&metrics.features().to_vec()));
                    predictor
                        .expect("a predicted case needs a predictor")
                        .predict_seconds(&features)
                },
            )
        });
        let release_latency = RrcMachine::release_latency(&cfg.rrc);
        let released_at = decision.filter(|&at| at + release_latency <= next_start);
        if let Some(at) = released_at {
            tr.time("rrc", "release_to_idle", || {
                RadioModel::release_to_idle(&mut machine, at)
            });
            events.push(RadioEvent::Release { at });
            counts.radio_events += 1;
        }
        tr.time("rrc", "advance_to", || {
            RadioModel::advance_to(&mut machine, next_start)
        });

        recorder.emit_with(|| ewb_core::obs::Event::PageVisit {
            at: t,
            index: visit_idx as u32,
            url: visit.page.root_url().to_string(),
            opened,
            end: next_start,
            released_at,
        });
        boundaries.push((t, opened));
        counts.visits += 1;
        counts.objects += metrics.objects_fetched as u64;
        counts.dom_nodes += metrics.dom_nodes as u64;
        partial.push(PageRecord {
            url: visit.page.root_url().to_string(),
            version: visit.page.spec().version,
            start: t,
            tx_end: metrics.data_transmission_end,
            opened,
            first_display: metrics.first_display_at,
            released_at,
            reading_s: visit.reading_s,
            predicted_s,
            load_joules: 0.0,
            reading_joules: 0.0,
            work: metrics.work,
            bytes: metrics.bytes_fetched,
            objects: metrics.objects_fetched,
            failed_objects: metrics.failed_objects,
            degraded: metrics.degraded,
        });
        t = next_start;
        tr.close(span);
    }

    let radio: RrcMachine = tr.time("rrc", "replay_radio_recorded", || {
        replay_radio_recorded(cfg.rrc, start, events, t, recorder.clone())
    });
    tr.time("rrc", "EnergyMeter::joules_between", || {
        let meter = RadioModel::meter(&radio);
        for (i, record) in partial.iter_mut().enumerate() {
            let (page_start, opened) = boundaries[i];
            let next = boundaries.get(i + 1).map_or(t, |b| b.0);
            record.load_joules = meter.joules_between(page_start, opened);
            record.reading_joules = meter.joules_between(opened, next);
        }
    });
    let outcome = SessionOutcome {
        total_joules: RadioModel::energy_j(&radio),
        total_load_time_s: partial.iter().map(PageRecord::load_time_s).sum(),
        duration: t - start,
        counters: RadioModel::counters(&radio),
        pages: partial,
        radio,
    };
    tr.close(session);
    (outcome, counts)
}

/// Whether two live outcomes agree on every field, floats to the bit.
pub fn same_outcome(a: &SessionOutcome, b: &SessionOutcome) -> bool {
    let bits = |x: f64| x.to_bits();
    let page_same = |p: &PageRecord, q: &PageRecord| {
        p.url == q.url
            && p.version == q.version
            && p.start == q.start
            && p.tx_end == q.tx_end
            && p.opened == q.opened
            && p.first_display == q.first_display
            && p.released_at == q.released_at
            && bits(p.reading_s) == bits(q.reading_s)
            && p.predicted_s.map(bits) == q.predicted_s.map(bits)
            && bits(p.load_joules) == bits(q.load_joules)
            && bits(p.reading_joules) == bits(q.reading_joules)
            && p.work == q.work
            && p.bytes == q.bytes
            && p.objects == q.objects
            && p.failed_objects == q.failed_objects
            && p.degraded == q.degraded
    };
    bits(a.total_joules) == bits(b.total_joules)
        && bits(a.total_load_time_s) == bits(b.total_load_time_s)
        && a.duration == b.duration
        && a.counters == b.counters
        && a.radio.residency() == b.radio.residency()
        && a.pages.len() == b.pages.len()
        && a.pages.iter().zip(&b.pages).all(|(p, q)| page_same(p, q))
}

/// One fleet user, re-composed from the public calls
/// `ewb_fleet::simulate_user` makes, folded into `summary`. Returns the
/// user's visit count.
///
/// The per-visit load folds run after each replay instead of inside its
/// callback, so that they get a span of their own; the summary is a sum
/// of integer histograms, which the guard against `run_fleet` confirms
/// is order-free.
pub fn fleet_user(
    tr: &mut Tracer,
    env: &FleetEnv,
    cfg: &FleetConfig,
    user_id: u64,
    summary: &mut FleetSummary,
) -> u64 {
    let user = tr.open(GLUE, "user");
    let plan = tr.time("fleet", "plan_user", || plan_user(env, cfg, user_id));
    let n = plan.len();
    let mut visits: Vec<ProfiledVisit> = plan
        .iter()
        .map(|v| ProfiledVisit {
            page_idx: v.page_idx,
            reading_s: v.reading_s,
            predicted_s: None,
        })
        .collect();
    if cfg.baseline.needs_predictor() || cfg.optimized.needs_predictor() {
        let mut rows = Vec::with_capacity(n * N_FEATURES);
        for v in &plan {
            rows.extend_from_slice(&v.features.0);
        }
        let mut preds = vec![0.0; n];
        tr.time("gbrt", "predict_rows", || {
            env.predictor.predict_rows(&rows, &mut preds)
        });
        for (visit, &tr_s) in visits.iter_mut().zip(&preds) {
            visit.predicted_s = Some(tr_s);
        }
    }
    let opts = ProfiledSessionOpts {
        tier: cfg.tier,
        predictor_outage_from: tr.time("fleet", "predictor_outage_from", || {
            predictor_outage_from(cfg, user_id, n as u64)
        }),
        ..ProfiledSessionOpts::default()
    };
    let mut base_loads = Vec::with_capacity(n);
    let baseline = tr.time("core", "run_profiled_session_with", || {
        run_profiled_session_with(&env.table, &env.cfg, cfg.baseline, opts, &visits, |v| {
            base_loads.push(v.load)
        })
    });
    let mut opt_loads = Vec::with_capacity(n);
    let optimized = tr.time("core", "run_profiled_session_with", || {
        run_profiled_session_with(&env.table, &env.cfg, cfg.optimized, opts, &visits, |v| {
            opt_loads.push(v.load)
        })
    });
    tr.time("fleet", "FleetSummary::fold", || {
        for &load in &base_loads {
            summary.fold_baseline_load(load);
        }
        for &load in &opt_loads {
            summary.fold_optimized_load(load);
        }
        summary.fold_user(&baseline, &optimized, n as u64);
    });
    tr.close(user);
    n as u64
}

/// A live workload's memoized twin: the same visits as profiled visits,
/// with batch predictions when `case` needs them.
pub fn profiled_visits(
    day: &[crate::gen::PlannedVisit],
    preds: Option<&[f64]>,
) -> Vec<ProfiledVisit> {
    day.iter()
        .enumerate()
        .map(|(i, v)| ProfiledVisit {
            page_idx: v.page_idx,
            reading_s: v.reading_s,
            predicted_s: preds.map(|p| p[i]),
        })
        .collect()
}

/// Replays `visits` memoized and reports whether the result matches the
/// live `outcome` of the same visits under `case`: energy and every
/// per-page load time to the bit, counters, residency and duration.
pub fn memoized_matches(
    env: &FleetEnv,
    case: Case,
    visits: &[ProfiledVisit],
    outcome: &SessionOutcome,
) -> bool {
    let mut loads = Vec::with_capacity(visits.len());
    let fast = run_profiled_session_with(
        &env.table,
        &env.cfg,
        case,
        ProfiledSessionOpts::default(),
        visits,
        |v| loads.push(v.load),
    );
    fast.total_joules.to_bits() == outcome.total_joules.to_bits()
        && fast.total_load_time_s.to_bits() == outcome.total_load_time_s.to_bits()
        && fast.counters == outcome.counters
        && fast.residency == outcome.radio.residency()
        && fast.duration == outcome.duration
        && loads.len() == outcome.pages.len()
        && loads
            .iter()
            .zip(&outcome.pages)
            .all(|(l, p)| l.as_secs_f64().to_bits() == p.load_time_s().to_bits())
}
