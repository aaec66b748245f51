//! Set-up: the pieces a workload's run phase uses, built from the same
//! public calls `FleetEnv::prepare` makes, each timed as a span.

use crate::trace::Tracer;
use ewb_core::profile::{FaultTier, ProfileTable};
use ewb_core::traces::{
    reading_time_params, ReadingTimePredictor, TraceConfig, TraceDataset, VisitSynthesizer,
};
use ewb_core::webpage::{benchmark_corpus, Corpus, OriginServer};
use ewb_core::CoreConfig;
use ewb_fleet::FleetEnv;

/// The corpus seed every experiment of the workspace uses.
pub const CORPUS_SEED: u64 = 1;

/// Corpus and origin server.
pub fn corpus(tr: &mut Tracer) -> (Corpus, OriginServer) {
    tr.time("webpage", "benchmark_corpus", || {
        let corpus = benchmark_corpus(CORPUS_SEED);
        let server = OriginServer::from_corpus(&corpus);
        (corpus, server)
    })
}

/// The deployed reading-time predictor, flat forest compiled.
pub fn predictor(tr: &mut Tracer, cfg: &CoreConfig) -> ReadingTimePredictor {
    tr.time("gbrt", "ReadingTimePredictor::train", || {
        let trace = TraceDataset::generate(&TraceConfig::small());
        let predictor = ReadingTimePredictor::train_with_interest_threshold(
            &trace,
            cfg.alg.alpha_s,
            &reading_time_params(),
        );
        let _ = predictor.flat();
        predictor
    })
}

/// The clean-link profile table: one full-pipeline load per
/// (page, mode, click-state).
pub fn capture(
    tr: &mut Tracer,
    corpus: &Corpus,
    server: &OriginServer,
    cfg: &CoreConfig,
) -> ProfileTable {
    tr.time("core", "ProfileTable::capture", || {
        ProfileTable::capture_tiered(corpus, server, cfg, &[FaultTier::Clean])
    })
}

/// Profile loads one capture runs.
pub fn capture_loads(table: &ProfileTable) -> usize {
    // Two pipeline modes × three click states per page.
    table.n_pages() * 2 * 3
}

/// A fleet environment assembled from already-built parts — what
/// `FleetEnv::prepare` builds, without building anything twice.
pub fn env_from_parts(
    corpus: Corpus,
    server: OriginServer,
    cfg: CoreConfig,
    table: ProfileTable,
    predictor: ReadingTimePredictor,
) -> FleetEnv {
    let synth = VisitSynthesizer::from_corpus(&corpus);
    FleetEnv {
        corpus,
        server,
        cfg,
        table,
        synth,
        predictor,
    }
}
