//! The two page-load pipelines — the heart of the paper's first technique.
//!
//! **Original** (§2.2, Fig. 2): data-transmission computation and layout
//! computation are mixed. Every arriving object is fully processed (CSS
//! parsed into rules, images decoded) before the next, and the browser
//! periodically redraws/reflows an intermediate display. Transmissions
//! therefore spread across the whole load (the paper's Fig. 4).
//!
//! **Energy-aware** (§4.1, Fig. 5): the browser first runs only the
//! computations that can *generate* transmissions — parse HTML, execute
//! JavaScript, *scan* (not parse) CSS — requesting everything it finds.
//! When the last byte is in, the transmission phase ends (the radio can
//! drop to IDLE), and only then run the layout computations once: parse
//! CSS, style, decode, lay out, paint. A cheap text-only intermediate
//! display (§4.2) is drawn right after the main document parses
//! (simplification: the paper draws it at 1/3 of the parse; we draw it at
//! the end of the root parse, a few hundred ms later on the model).
//!
//! The pipeline is network-agnostic: it drives any
//! [`ResourceFetcher`] and produces
//! [`LoadMetrics`] with the full timing/energy-relevant breakdown,
//! including the Table 1 feature vector used by the reading-time
//! predictor.

use crate::cache::{CachedLayout, LayoutCache};
use crate::cost::{CpuCostModel, CpuWork};
use crate::css;
use crate::dom::Document;
use crate::fetch::ResourceFetcher;
use crate::html;
use crate::js;
use crate::layout;
use crate::parallel::{self, ParallelismPlan};
use ewb_obs::{Event as ObsEvent, Layer as ObsLayer, Recorder};
use ewb_simcore::{SimDuration, SimTime, TimeSeries};
use ewb_webpage::ObjectKind;
use std::collections::HashSet;

/// Which computation schedule to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineMode {
    /// The stock browser: interleaved processing, progressive display.
    Original,
    /// The paper's reorganized sequence: transmission phase, then layout.
    EnergyAware,
}

/// Pipeline knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The schedule.
    pub mode: PipelineMode,
    /// Layout viewport in px (980 = the classic mobile "desktop viewport").
    pub viewport_px: f64,
    /// Original mode: redraw the intermediate display every this many
    /// processed objects.
    pub progressive_batch: usize,
    /// Energy-aware mode: draw the cheap text-only intermediate display.
    /// The paper disables it for mobile-version pages (§4.2).
    pub draw_intermediate: bool,
    /// Gas budget per script.
    pub js_gas: u64,
    /// Maximum concurrent requests (2009-era mobile browsers used two
    /// connections). This is what makes browser-paced downloads slow
    /// (Fig. 4): while the CPU processes an object, at most this many
    /// transfers can still be draining, so heavy per-object processing
    /// starves the link.
    pub max_parallel: usize,
    /// How independent pipeline stage units fan out over the simulated
    /// cores (see [`crate::parallel`]). [`ParallelismPlan::SEQUENTIAL`]
    /// reproduces the legacy single-core schedule bit-for-bit.
    pub plan: ParallelismPlan,
    /// Whether the *host* executor may actually use threads for the
    /// fanned-out engine work. Results are bit-identical either way
    /// (the differential oracle in `ewb-check` proves it); `false`
    /// forces the single-threaded reference execution.
    pub host_parallel: bool,
}

impl PipelineConfig {
    /// Defaults for the given mode.
    ///
    /// The original browser keeps the era-typical two connections and its
    /// heavy per-object processing starves them (Fig. 4's spread-out
    /// traffic). The energy-aware browser "groups all data transmissions
    /// together" (§3.1) — it requests aggressively with a deeper
    /// connection pool and defers all heavy processing, approaching the
    /// socket-download profile of Fig. 4.
    pub fn new(mode: PipelineMode) -> Self {
        PipelineConfig {
            mode,
            viewport_px: 980.0,
            progressive_batch: 3,
            draw_intermediate: true,
            js_gas: js::DEFAULT_GAS,
            max_parallel: match mode {
                PipelineMode::Original => 2,
                PipelineMode::EnergyAware => 3,
            },
            plan: ParallelismPlan::SEQUENTIAL,
            host_parallel: true,
        }
    }
}

/// The paper's Table 1 feature vector, extracted from a load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageFeatures {
    /// Data transmission time, seconds.
    pub transmission_time_s: f64,
    /// Page size without figures, KB.
    pub page_size_kb: f64,
    /// Number of downloaded objects.
    pub download_objects: f64,
    /// Number of downloaded JavaScript files.
    pub download_js: f64,
    /// Number of downloaded figures.
    pub download_figures: f64,
    /// Total size of downloaded figures, KB.
    pub figure_size_kb: f64,
    /// JavaScript running time, seconds.
    pub js_running_time_s: f64,
    /// Number of secondary URLs.
    pub second_urls: f64,
    /// Page height, px.
    pub page_height: f64,
    /// Page width, px.
    pub page_width: f64,
}

impl PageFeatures {
    /// The features as the 10-element input vector `x = {x1..x10}` the
    /// GBRT predictor consumes, in Table 1 order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.transmission_time_s,
            self.page_size_kb,
            self.download_objects,
            self.download_js,
            self.download_figures,
            self.figure_size_kb,
            self.js_running_time_s,
            self.second_urls,
            self.page_height,
            self.page_width,
        ]
    }
}

/// Everything measured during one page load.
#[derive(Debug, Clone)]
pub struct LoadMetrics {
    /// The schedule that produced this load.
    pub mode: PipelineMode,
    /// When the load began.
    pub start: SimTime,
    /// When the last transfer *and* the last transmission-generating
    /// computation finished — the instant the energy-aware browser can
    /// release the radio (§4.1).
    pub data_transmission_end: SimTime,
    /// When the first (intermediate) display appeared, if one was drawn.
    pub first_display_at: Option<SimTime>,
    /// When the final display appeared — the end of the page load.
    pub final_display_at: SimTime,
    /// CPU-busy intervals of the main core, for replaying CPU power onto
    /// the radio model. Always disjoint and ordered.
    pub cpu_busy: Vec<(SimTime, SimTime)>,
    /// Busy intervals of helper cores under a parallel
    /// [`ParallelismPlan`]: these run *concurrently* with `cpu_busy`
    /// (and each other) and add their own CPU power draw during replay
    /// (`ewb_net::replay::events_of_load_parallel`). Empty under the
    /// sequential plan.
    pub aux_busy: Vec<(SimTime, SimTime)>,
    /// CPU time by category.
    pub work: CpuWork,
    /// Total bytes fetched.
    pub bytes_fetched: u64,
    /// Bytes of textual objects (HTML/CSS/JS) — Table 1's "page size
    /// without considering the figures".
    pub text_bytes_fetched: u64,
    /// Objects fetched successfully.
    pub objects_fetched: usize,
    /// JavaScript files fetched.
    pub js_objects: usize,
    /// Images/flash fetched.
    pub image_objects: usize,
    /// Bytes of images/flash.
    pub image_bytes: u64,
    /// Requests that 404ed.
    pub fetch_failures: usize,
    /// Requests whose transfers errored out (retries/deadline exhausted on
    /// a faulty link) or were abandoned by the fetcher. The page still
    /// renders with whatever arrived.
    pub failed_objects: usize,
    /// `true` when at least one object failed: the displayed page is a
    /// partial (degraded) render, not the complete page.
    pub degraded: bool,
    /// Per-completion traffic: `(arrival, bytes)` — the Fig. 4 series.
    pub traffic: TimeSeries,
    /// `<a href>` count (Table 1's "Second URL").
    pub secondary_urls: usize,
    /// Final page height, px.
    pub page_height: f64,
    /// Final page width, px.
    pub page_width: f64,
    /// Final DOM size in nodes.
    pub dom_nodes: usize,
    /// Number of image-decode units executed.
    pub decode_jobs: usize,
    /// Bytes decoded across those units (equals `image_bytes` on a
    /// clean, fully decoded load).
    pub decoded_bytes: u64,
    /// Total CPU work of the plan-eligible stage units (deferred CSS
    /// parse, deferred image decode, final style resolution) — what a
    /// 1-core schedule spends on them.
    pub parallel_work: SimDuration,
    /// Critical-path time those units actually occupied under the plan
    /// (fork overhead included). Equals `parallel_work` when sequential.
    pub parallel_span: SimDuration,
}

impl LoadMetrics {
    /// Total load duration (start → final display).
    pub fn load_time(&self) -> SimDuration {
        self.final_display_at - self.start
    }

    /// Duration of the transmission phase (start → last byte + last
    /// transmission-generating computation).
    pub fn transmission_time(&self) -> SimDuration {
        self.data_transmission_end - self.start
    }

    /// Duration of the layout phase (energy-aware mode: after the radio
    /// could drop).
    pub fn layout_phase_time(&self) -> SimDuration {
        self.final_display_at - self.data_transmission_end
    }

    /// Speedup of the plan-eligible pipeline stages vs a 1-core
    /// schedule: `parallel_work / parallel_span` (1.0 when the page has
    /// no eligible work).
    pub fn pipeline_speedup(&self) -> f64 {
        if self.parallel_span.is_zero() {
            1.0
        } else {
            self.parallel_work.as_secs_f64() / self.parallel_span.as_secs_f64()
        }
    }

    /// The Table 1 feature vector.
    pub fn features(&self) -> PageFeatures {
        PageFeatures {
            transmission_time_s: self.transmission_time().as_secs_f64(),
            page_size_kb: self.text_bytes_fetched as f64 / 1024.0,
            download_objects: self.objects_fetched as f64,
            download_js: self.js_objects as f64,
            download_figures: self.image_objects as f64,
            figure_size_kb: self.image_bytes as f64 / 1024.0,
            js_running_time_s: self.work.js.as_secs_f64(),
            second_urls: self.secondary_urls as f64,
            page_height: self.page_height,
            page_width: self.page_width,
        }
    }
}

/// Loads `root_url` through `fetcher` starting at `start`, using the
/// schedule in `cfg` and pricing CPU work with `cost`.
///
/// A 404 on the root URL yields an empty page (all-zero metrics except
/// `fetch_failures`), mirroring a browser error page.
pub fn load_page<F: ResourceFetcher + ?Sized>(
    fetcher: &mut F,
    root_url: &str,
    start: SimTime,
    cfg: &PipelineConfig,
    cost: &CpuCostModel,
) -> LoadMetrics {
    load_page_inner(
        fetcher,
        root_url,
        start,
        cfg,
        cost,
        None,
        Recorder::disabled(),
    )
}

/// Like [`load_page`], but each computation stage emits a
/// [`Span`](ewb_obs::Event::Span) into `recorder`, plus phase spans
/// (`transmission_phase`, `layout_phase`) and per-load counters once the
/// load completes. The recorder only observes — the returned
/// [`LoadMetrics`] are identical with it enabled or disabled.
pub fn load_page_recorded<F: ResourceFetcher + ?Sized>(
    fetcher: &mut F,
    root_url: &str,
    start: SimTime,
    cfg: &PipelineConfig,
    cost: &CpuCostModel,
    recorder: Recorder,
) -> LoadMetrics {
    load_page_inner(fetcher, root_url, start, cfg, cost, None, recorder)
}

fn load_page_inner<F: ResourceFetcher + ?Sized>(
    fetcher: &mut F,
    root_url: &str,
    start: SimTime,
    cfg: &PipelineConfig,
    cost: &CpuCostModel,
    cache: Option<&mut LayoutCache>,
    recorder: Recorder,
) -> LoadMetrics {
    let mut loader = Loader {
        fetcher,
        cfg,
        cost,
        cache,
        root_url: root_url.to_string(),
        t: start,
        requested: HashSet::new(),
        queue: std::collections::VecDeque::new(),
        in_flight: 0,
        doc: None,
        sheets: Vec::new(),
        css_bodies: Vec::new(),
        undecoded_images: Vec::new(),
        css_discovered: 0,
        css_processed: 0,
        since_display: 0,
        generation: 0,
        redraw_memo: None,
        side_end: start,
        m: LoadMetrics {
            mode: cfg.mode,
            start,
            data_transmission_end: start,
            first_display_at: None,
            final_display_at: start,
            cpu_busy: Vec::new(),
            aux_busy: Vec::new(),
            work: CpuWork::default(),
            bytes_fetched: 0,
            text_bytes_fetched: 0,
            objects_fetched: 0,
            js_objects: 0,
            image_objects: 0,
            image_bytes: 0,
            fetch_failures: 0,
            failed_objects: 0,
            degraded: false,
            traffic: TimeSeries::new(),
            secondary_urls: 0,
            page_height: 0.0,
            page_width: 0.0,
            dom_nodes: 0,
            decode_jobs: 0,
            decoded_bytes: 0,
            parallel_work: SimDuration::ZERO,
            parallel_span: SimDuration::ZERO,
        },
        recorder,
    };
    loader.run(root_url);
    let m = loader.m;
    let recorder = loader.recorder;
    recorder.emit_with(|| ObsEvent::Span {
        layer: ObsLayer::Browser,
        name: "transmission_phase",
        start: m.start,
        end: m.data_transmission_end,
    });
    recorder.emit_with(|| ObsEvent::Span {
        layer: ObsLayer::Browser,
        name: "layout_phase",
        start: m.data_transmission_end,
        end: m.final_display_at,
    });
    if recorder.is_enabled() {
        for (name, value) in [
            ("objects_fetched", m.objects_fetched as f64),
            ("bytes_fetched", m.bytes_fetched as f64),
            ("failed_objects", m.failed_objects as f64),
        ] {
            recorder.emit(ObsEvent::Counter {
                at: m.final_display_at,
                layer: ObsLayer::Browser,
                name,
                value,
            });
        }
    }
    m
}

/// Like [`load_page`], but consults (and fills) a [`LayoutCache`]: on a
/// repeat visit to an unchanged page, the layout phase skips CSS rule
/// extraction, style formatting, and layout calculation, paying only
/// image decoding and painting — the Zhang et al. layout-caching
/// extension discussed in the paper's §6.
pub fn load_page_cached<F: ResourceFetcher + ?Sized>(
    fetcher: &mut F,
    root_url: &str,
    start: SimTime,
    cfg: &PipelineConfig,
    cost: &CpuCostModel,
    cache: &mut LayoutCache,
) -> LoadMetrics {
    load_page_inner(
        fetcher,
        root_url,
        start,
        cfg,
        cost,
        Some(cache),
        Recorder::disabled(),
    )
}

/// Which CPU category a busy interval belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cat {
    Dtc,
    Layout,
    RedrawReflow,
}

/// `(match_attempts, declarations_applied, layout)` of one styled layout.
type StyledLayout = (usize, usize, layout::LayoutResult);

struct Loader<'a, F: ResourceFetcher + ?Sized> {
    fetcher: &'a mut F,
    cfg: &'a PipelineConfig,
    cost: &'a CpuCostModel,
    cache: Option<&'a mut LayoutCache>,
    root_url: String,
    t: SimTime,
    m: LoadMetrics,
    requested: HashSet<String>,
    /// Discovered-but-not-yet-issued requests (connection-limited).
    queue: std::collections::VecDeque<String>,
    in_flight: usize,
    doc: Option<Document>,
    sheets: Vec<css::Stylesheet>,
    css_bodies: Vec<String>,
    /// Per-object byte sizes of deferred (undecoded) images, in arrival
    /// order — the decode units a parallel plan fans out.
    undecoded_images: Vec<u64>,
    css_discovered: usize,
    css_processed: usize,
    since_display: usize,
    /// Bumped on every change to what a styled layout reads: the DOM
    /// (root set, markup adopted) and the sheet set.
    generation: u64,
    /// The last styled layout and the generation it was computed at.
    redraw_memo: Option<(u64, StyledLayout)>,
    /// Latest finish time of helper-core work issued during the
    /// transmission phase (`overlap_css`); the phase cannot end before it.
    side_end: SimTime,
    recorder: Recorder,
}

impl<F: ResourceFetcher + ?Sized> Loader<'_, F> {
    fn run(&mut self, root_url: &str) {
        self.request(root_url);
        while self.in_flight > 0 {
            // A fetcher that loses track of outstanding requests would
            // wedge the load forever; degrade to a partial page instead.
            let Some(c) = self.fetcher.next_completion() else {
                self.m.failed_objects += self.in_flight + self.queue.len();
                self.in_flight = 0;
                self.queue.clear();
                break;
            };
            self.in_flight -= 1;
            self.t = self.t.max(c.at);
            let Some(obj) = c.object else {
                if c.failed {
                    self.m.failed_objects += 1;
                } else {
                    self.m.fetch_failures += 1;
                }
                self.pump();
                continue;
            };
            self.m.traffic.record(c.at, obj.bytes as f64);
            self.m.bytes_fetched += obj.bytes;
            self.m.objects_fetched += 1;
            match obj.kind {
                ObjectKind::Html => self.on_html(&obj.body, obj.bytes),
                ObjectKind::Css => self.on_css(&obj.body, obj.bytes),
                ObjectKind::Js => self.on_js(&obj.body, obj.bytes),
                ObjectKind::Image | ObjectKind::Flash => self.on_image(obj.bytes),
            }
            if self.cfg.mode == PipelineMode::Original {
                self.maybe_progressive_display();
            }
            // Processing done: the freed connections pick up queued work.
            self.pump();
        }
        // The transmission phase also covers any transmission-generating
        // scan still draining on a helper core (`overlap_css`).
        self.m.data_transmission_end = self.t.max(self.side_end);
        // Graceful degradation: a load with failed objects still renders
        // whatever arrived, but is flagged partial.
        self.m.degraded = self.m.failed_objects > 0;
        self.layout_phase();
    }

    /// CPU work: advance time, record the busy interval and category.
    fn busy(&mut self, d: SimDuration, cat: Cat, stage: &'static str) {
        if d.is_zero() {
            return;
        }
        self.m.cpu_busy.push((self.t, self.t + d));
        let start = self.t;
        self.recorder.emit_with(|| ObsEvent::Span {
            layer: ObsLayer::Browser,
            name: stage,
            start,
            end: start + d,
        });
        self.t += d;
        match cat {
            Cat::Dtc => self.m.work.dtc += d,
            Cat::Layout => self.m.work.layout += d,
            Cat::RedrawReflow => {
                self.m.work.layout += d;
                self.m.work.redraw_reflow += d;
            }
        }
    }

    /// Grafts parsed markup under the document root (no-op before the
    /// root document exists).
    fn adopt(&mut self, fragment: &Document) {
        if let Some(doc) = &mut self.doc {
            let root = doc.root();
            doc.adopt(root, fragment);
            self.generation += 1;
        }
    }

    fn push_sheet(&mut self, sheet: css::Stylesheet) {
        self.sheets.push(sheet);
        self.generation += 1;
    }

    /// Style resolution plus styled layout of `doc` (the current DOM)
    /// under the current sheets.
    ///
    /// The result is memoized on [`Loader::generation`], so a redraw of an
    /// unchanged page reuses the previous pass instead of recomputing it.
    /// Only host time is saved: callers still charge the full simulated
    /// style/layout/paint cost from the returned counts.
    fn styled_layout(&mut self, doc: &Document) -> StyledLayout {
        if let Some((generation, memo)) = self.redraw_memo {
            if generation == self.generation {
                return memo;
            }
        }
        let sheet_refs: Vec<&css::Stylesheet> = self.sheets.iter().collect();
        let styles = css::compute_styles(doc, &sheet_refs);
        let lr = layout::layout(doc, Some(&styles), self.cfg.viewport_px);
        let out = (styles.match_attempts, styles.declarations_applied, lr);
        self.redraw_memo = Some((self.generation, out));
        out
    }

    fn request(&mut self, url: &str) {
        if self.requested.insert(url.to_string()) {
            self.queue.push_back(url.to_string());
            self.pump();
        }
    }

    /// Issues queued requests up to the connection limit.
    fn pump(&mut self) {
        while self.in_flight < self.cfg.max_parallel.max(1) {
            let Some(url) = self.queue.pop_front() else {
                break;
            };
            self.fetcher.request(&url, self.t);
            self.in_flight += 1;
        }
    }

    fn on_html(&mut self, body: &str, bytes: u64) {
        self.m.text_bytes_fetched += bytes;
        let parsed = html::parse(body);
        let d = self.cost.html_parse(parsed.bytes, parsed.document.len());
        self.busy(d, Cat::Dtc, "html_parse");
        self.m.secondary_urls += parsed.secondary_urls.len();
        for r in &parsed.resources {
            if r.kind == ObjectKind::Css {
                self.css_discovered += 1;
            }
            self.request(&r.url.clone());
        }
        let is_root = self.doc.is_none();
        if is_root {
            self.doc = Some(parsed.document);
            self.generation += 1;
        } else {
            self.adopt(&parsed.document);
        }
        for style in &parsed.inline_styles {
            self.on_inline_style(style);
        }
        for script in &parsed.inline_scripts {
            self.run_script(script);
        }
        if is_root && self.cfg.mode == PipelineMode::EnergyAware && self.cfg.draw_intermediate {
            // §4.2: a simplified display with no CSS rules, styles, or
            // images — just the text content laid out with defaults.
            let doc = self.doc.as_ref().expect("root doc just set");
            let lr = layout::layout(doc, None, self.cfg.viewport_px);
            let d = self.cost.layout(lr.boxes) + self.cost.paint(lr.boxes);
            self.busy(d, Cat::Layout, "intermediate_display");
            self.m.first_display_at = Some(self.t);
        }
    }

    fn on_css(&mut self, body: &str, bytes: u64) {
        self.m.text_bytes_fetched += bytes;
        self.css_processed += 1;
        match self.cfg.mode {
            PipelineMode::Original => {
                // Full parse now (rule extraction on the critical path).
                let parsed = css::parse(body);
                let d = self.cost.css_parse(parsed.bytes, parsed.sheet.rules.len());
                self.busy(d, Cat::Layout, "css_parse");
                for u in parsed.urls.iter().chain(&parsed.sheet.imports) {
                    if u.ends_with(".css") {
                        self.css_discovered += 1;
                    }
                    self.request(&u.clone());
                }
                self.push_sheet(parsed.sheet);
            }
            PipelineMode::EnergyAware => {
                // Cheap scan only; parsing waits for the layout phase.
                self.ea_scan_css(body);
            }
        }
    }

    /// Energy-aware CSS handling: cheap URL scan now — on the main core,
    /// or concurrently on a helper core when the plan overlaps it with
    /// the HTML parsing and transfer wait — full parse deferred to the
    /// layout phase.
    fn ea_scan_css(&mut self, body: &str) {
        let scan = css::scan_urls(body);
        let d = self.cost.css_scan(scan.bytes);
        if self.cfg.plan.overlap_css {
            self.side_scan(d);
        } else {
            self.busy(d, Cat::Dtc, "css_scan");
        }
        for u in scan.urls.iter().chain(&scan.imports) {
            self.request(&u.clone());
        }
        self.css_bodies.push(body.to_string());
    }

    /// Runs a transmission-generating scan on a helper core, off the
    /// main core's critical path. The discovered requests are issued at
    /// the same loop point as in the sequential schedule (the scanner
    /// emits URLs as it finds them); the transmission phase is extended
    /// to cover the helper core's finish via `side_end`.
    fn side_scan(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let fork = SimDuration::from_micros(parallel::FORK_US_PER_WORKER.round() as u64);
        let start = self.t;
        let end = start + fork + d;
        self.m.aux_busy.push((start, end));
        self.recorder.emit_with(|| ObsEvent::Span {
            layer: ObsLayer::Browser,
            name: "css_scan",
            start,
            end,
        });
        self.side_end = self.side_end.max(end);
        self.m.work.dtc += fork + d;
        self.m.parallel_work += d;
    }

    /// Inline `<style>` blocks follow the same §4.1 split as external
    /// stylesheets: the original browser extracts rules on the spot, the
    /// energy-aware browser scans for URLs now and parses in the layout
    /// phase. They are not fetched objects, so they touch no byte or
    /// progressive-display accounting.
    fn on_inline_style(&mut self, body: &str) {
        match self.cfg.mode {
            PipelineMode::Original => {
                let parsed = css::parse(body);
                let d = self.cost.css_parse(parsed.bytes, parsed.sheet.rules.len());
                self.busy(d, Cat::Layout, "css_parse");
                for u in parsed.urls.iter().chain(&parsed.sheet.imports) {
                    if u.ends_with(".css") {
                        self.css_discovered += 1;
                    }
                    self.request(&u.clone());
                }
                self.push_sheet(parsed.sheet);
            }
            PipelineMode::EnergyAware => {
                self.ea_scan_css(body);
            }
        }
    }

    fn on_js(&mut self, body: &str, bytes: u64) {
        self.m.text_bytes_fetched += bytes;
        self.m.js_objects += 1;
        self.run_script(body);
    }

    fn run_script(&mut self, source: &str) {
        let out = js::execute(source, Some(self.cfg.js_gas));
        let d = self.cost.js_run(out.bytes, out.ops);
        self.busy(d, Cat::Dtc, "js_run");
        self.m.work.js += d;
        for effect in out.effects {
            match effect {
                js::JsEffect::LoadImage(u) | js::JsEffect::LoadScript(u) => self.request(&u),
                js::JsEffect::DocumentWrite(fragment) => {
                    let parsed = html::parse(&fragment);
                    let d = self.cost.html_parse(parsed.bytes, parsed.document.len());
                    self.busy(d, Cat::Dtc, "html_parse");
                    self.m.secondary_urls += parsed.secondary_urls.len();
                    for r in &parsed.resources {
                        if r.kind == ObjectKind::Css {
                            self.css_discovered += 1;
                        }
                        self.request(&r.url.clone());
                    }
                    self.adopt(&parsed.document);
                    for style in &parsed.inline_styles {
                        self.on_inline_style(style);
                    }
                }
            }
        }
    }

    fn on_image(&mut self, bytes: u64) {
        self.m.image_objects += 1;
        self.m.image_bytes += bytes;
        match self.cfg.mode {
            PipelineMode::Original => {
                // Decode immediately — layout computation on the critical
                // path of the transmission schedule. Always one unit at a
                // time here, so no plan fan-out applies.
                let d = self.cost.image_decode(bytes);
                self.busy(d, Cat::Layout, "image_decode");
                self.m.decode_jobs += 1;
                self.m.decoded_bytes += bytes;
            }
            PipelineMode::EnergyAware => {
                // "Image files ... can be saved in memory instead of being
                // delivered to the web browser" (§4.1).
                self.undecoded_images.push(bytes);
            }
        }
    }

    /// The original browser's progressive intermediate display: once the
    /// stylesheets are in, redraw/reflow every `progressive_batch` objects
    /// (§4.2: "the browser wastes a lot of computation resource to
    /// frequently redraw and reflow the intermediate display").
    fn maybe_progressive_display(&mut self) {
        self.since_display += 1;
        let css_ready = self.css_processed >= self.css_discovered;
        if !css_ready || self.since_display < self.cfg.progressive_batch {
            return;
        }
        // The *first* intermediate display additionally waits for a
        // meaningful fraction of the page: the original browser "has to
        // wait before displaying the intermediate results ... to associate
        // DOM nodes and CSS style rules" (§4.2), and in practice paints
        // once a good chunk of content is in (the paper's espn snapshot
        // appears at ~half the load).
        if self.m.first_display_at.is_none()
            && self.m.objects_fetched * 5 < self.requested.len() * 2
        {
            return;
        }
        let Some(doc) = self.doc.take() else { return };
        let (attempts, applied, lr) = self.styled_layout(&doc);
        self.doc = Some(doc);
        let d = self.cost.style(attempts, applied)
            + self.cost.layout(lr.boxes)
            + self.cost.paint(lr.boxes);
        self.busy(d, Cat::RedrawReflow, "redraw_reflow");
        if self.m.first_display_at.is_none() {
            self.m.first_display_at = Some(self.t);
        }
        self.since_display = 0;
    }

    /// The final layout computation (both modes) — plus, in energy-aware
    /// mode, all the deferred CSS parsing and image decoding.
    fn layout_phase(&mut self) {
        // Layout cache (Zhang et al.): a fresh entry for this exact page
        // skips rule extraction, style, and layout; decoding and painting
        // still run. The cache-hit path always decodes sequentially —
        // its residual work is too small for a fan-out to pay the fork.
        let fingerprint = self.m.bytes_fetched;
        if let Some(cache) = self.cache.as_mut() {
            if let Some(hit) = cache.lookup(&self.root_url, fingerprint) {
                if self.cfg.mode == PipelineMode::EnergyAware {
                    let bytes: u64 = self.undecoded_images.iter().sum();
                    let d = self.cost.image_decode(bytes);
                    self.busy(d, Cat::Layout, "image_decode");
                    self.m.decode_jobs += self.undecoded_images.len();
                    self.m.decoded_bytes += bytes;
                }
                let d = self.cost.paint(hit.boxes);
                self.busy(d, Cat::Layout, "paint_cached");
                let doc = self.doc.take().unwrap_or_default();
                self.m.final_display_at = self.t;
                self.m.page_height = hit.page_height;
                self.m.page_width = hit.page_width;
                self.m.dom_nodes = doc.len();
                return;
            }
        }
        if self.cfg.plan.is_sequential() {
            self.layout_phase_sequential();
        } else {
            self.layout_phase_parallel();
        }
    }

    /// The exact legacy single-core schedule — every golden in the repo
    /// pins this path bit-for-bit (note the *summed* image decode: µs
    /// rounding makes it differ from a per-object sum, so the sequential
    /// plan must not be routed through the per-unit code).
    fn layout_phase_sequential(&mut self) {
        if self.cfg.mode == PipelineMode::EnergyAware {
            let bodies = std::mem::take(&mut self.css_bodies);
            for body in &bodies {
                let parsed = css::parse(body);
                let d = self.cost.css_parse(parsed.bytes, parsed.sheet.rules.len());
                self.busy(d, Cat::Layout, "css_parse");
                self.m.parallel_work += d;
                self.m.parallel_span += d;
                self.push_sheet(parsed.sheet);
            }
            let bytes: u64 = self.undecoded_images.iter().sum();
            let d = self.cost.image_decode(bytes);
            self.busy(d, Cat::Layout, "image_decode");
            self.m.decode_jobs += self.undecoded_images.len();
            self.m.decoded_bytes += bytes;
            self.m.parallel_work += d;
            self.m.parallel_span += d;
        }
        let doc = self.doc.take().unwrap_or_default();
        let (attempts, applied, lr) = self.styled_layout(&doc);
        let d_style = self.cost.style(attempts, applied);
        let d = d_style + self.cost.layout(lr.boxes) + self.cost.paint(lr.boxes);
        self.busy(d, Cat::Layout, "style_layout_paint");
        self.m.parallel_work += d_style;
        self.m.parallel_span += d_style;
        self.finish_layout(&doc, lr);
    }

    /// The plan's multi-core layout phase: deferred CSS parses fan out
    /// over `style_threads`, per-object image decodes over
    /// `decode_threads`, and final style resolution is chunked over
    /// `style_threads`. Layout and paint remain sequential — a single
    /// dependent tail after the merged styles exist.
    fn layout_phase_parallel(&mut self) {
        let plan = self.cfg.plan;
        let hp = self.cfg.host_parallel;
        let cost = self.cost;
        if self.cfg.mode == PipelineMode::EnergyAware {
            let bodies = std::mem::take(&mut self.css_bodies);
            if !bodies.is_empty() {
                let parsed = parallel::run_jobs(bodies.len(), plan.style_threads, hp, |i| {
                    css::parse(&bodies[i])
                });
                let durs: Vec<SimDuration> = parsed
                    .iter()
                    .map(|p| cost.css_parse(p.bytes, p.sheet.rules.len()))
                    .collect();
                self.parallel_stage(&durs, plan.style_threads, "css_parse");
                for p in parsed {
                    self.push_sheet(p.sheet);
                }
            }
            let images = std::mem::take(&mut self.undecoded_images);
            if !images.is_empty() {
                let k = plan.decode_threads.min(images.len()).max(1);
                let durs = parallel::run_jobs(images.len(), plan.decode_threads, hp, |i| {
                    cost.image_decode(images[i])
                });
                self.m.decode_jobs += images.len();
                // Workers accumulate their own decoded-byte subtotals;
                // the merge is where the seeded racy-counter defect bites.
                self.m.decoded_bytes += if hp && k > 1 {
                    parallel::merge_worker_byte_counts(&parallel::worker_byte_counts(&images, k))
                } else {
                    images.iter().sum::<u64>()
                };
                self.parallel_stage(&durs, plan.decode_threads, "image_decode");
            }
        }
        let doc = self.doc.take().unwrap_or_default();
        let sheet_refs: Vec<&css::Stylesheet> = self.sheets.iter().collect();
        let ids = doc.descendants();
        let k = plan.style_threads.min(ids.len()).max(1);
        let chunks: Vec<_> = ids.chunks(ids.len().div_ceil(k).max(1)).collect();
        let partials = parallel::run_jobs(chunks.len(), k, hp, |i| {
            css::compute_styles_for(&doc, &sheet_refs, chunks[i])
        });
        let durs: Vec<SimDuration> = partials
            .iter()
            .map(|p| cost.style(p.match_attempts, p.declarations_applied))
            .collect();
        self.parallel_stage(&durs, plan.style_threads, "style");
        let mut styles = css::StyleResult {
            styles: Default::default(),
            match_attempts: 0,
            declarations_applied: 0,
        };
        for p in partials {
            styles.match_attempts += p.match_attempts;
            styles.declarations_applied += p.declarations_applied;
            styles.styles.extend(p.styles);
        }
        let lr = layout::layout(&doc, Some(&styles), self.cfg.viewport_px);
        let d = cost.layout(lr.boxes) + cost.paint(lr.boxes);
        self.busy(d, Cat::Layout, "layout_paint");
        self.finish_layout(&doc, lr);
    }

    /// Advances simulated time over one fanned-out stage: units are
    /// placed on `threads` cores by [`parallel::schedule_jobs`], the main
    /// core's share extends `cpu_busy`, helper cores' shares land in
    /// `aux_busy`, and the stage's total CPU work plus the per-worker
    /// fork overhead is charged to the layout category.
    fn parallel_stage(&mut self, durs: &[SimDuration], threads: usize, stage: &'static str) {
        let work = durs.iter().copied().fold(SimDuration::ZERO, |a, b| a + b);
        let k = threads.min(durs.len()).max(1);
        if k == 1 {
            for &d in durs {
                self.busy(d, Cat::Layout, stage);
            }
            self.m.parallel_work += work;
            self.m.parallel_span += work;
            return;
        }
        let fork =
            SimDuration::from_micros((parallel::FORK_US_PER_WORKER * k as f64).round() as u64);
        self.busy(fork, Cat::Layout, "parallel_fork");
        let sched = parallel::schedule_jobs(durs, k);
        let t0 = self.t;
        for (c, &b) in sched.core_busy.iter().enumerate() {
            if b.is_zero() {
                continue;
            }
            if c == 0 {
                self.m.cpu_busy.push((t0, t0 + b));
            } else {
                self.m.aux_busy.push((t0, t0 + b));
            }
            self.recorder.emit_with(|| ObsEvent::Span {
                layer: ObsLayer::Browser,
                name: stage,
                start: t0,
                end: t0 + b,
            });
        }
        self.t = t0 + sched.makespan;
        self.m.work.layout += work;
        self.m.parallel_work += work;
        self.m.parallel_span += fork + sched.makespan;
    }

    fn finish_layout(&mut self, doc: &Document, lr: layout::LayoutResult) {
        let fingerprint = self.m.bytes_fetched;
        self.m.final_display_at = self.t;
        self.m.page_height = lr.page_height;
        self.m.page_width = lr.page_width;
        self.m.dom_nodes = doc.len();
        if let Some(cache) = self.cache.as_mut() {
            cache.insert(
                self.root_url.clone(),
                CachedLayout {
                    page_height: lr.page_height,
                    page_width: lr.page_width,
                    boxes: lr.boxes,
                    fingerprint,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::FixedRateFetcher;
    use ewb_webpage::{benchmark_corpus, OriginServer, PageVersion};

    fn load(mode: PipelineMode, key: &str, version: PageVersion) -> LoadMetrics {
        let corpus = benchmark_corpus(1);
        let page = corpus.page(key, version).unwrap();
        let mut fetcher = FixedRateFetcher::paper_3g(OriginServer::from_corpus(&corpus));
        let mut cfg = PipelineConfig::new(mode);
        if version == PageVersion::Mobile {
            cfg.draw_intermediate = false;
        }
        load_page(
            &mut fetcher,
            page.root_url(),
            SimTime::ZERO,
            &cfg,
            &CpuCostModel::default(),
        )
    }

    #[test]
    fn both_modes_fetch_every_object() {
        let corpus = benchmark_corpus(1);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let orig = load(PipelineMode::Original, "espn", PageVersion::Full);
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        assert_eq!(orig.objects_fetched, espn.object_count());
        assert_eq!(ea.objects_fetched, espn.object_count());
        assert_eq!(orig.bytes_fetched, espn.total_bytes());
        assert_eq!(ea.bytes_fetched, ea.bytes_fetched);
        assert_eq!(orig.fetch_failures, 0);
    }

    #[test]
    fn energy_aware_shortens_the_transmission_phase() {
        let orig = load(PipelineMode::Original, "espn", PageVersion::Full);
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        let saving =
            1.0 - ea.transmission_time().as_secs_f64() / orig.transmission_time().as_secs_f64();
        assert!(
            (0.15..0.55).contains(&saving),
            "tx saving should be paper-scale (27%), got {saving:.3} \
             (orig {}, ea {})",
            orig.transmission_time(),
            ea.transmission_time()
        );
    }

    #[test]
    fn energy_aware_shortens_the_total_load() {
        let orig = load(PipelineMode::Original, "espn", PageVersion::Full);
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        assert!(
            ea.load_time() < orig.load_time(),
            "ea {} vs orig {}",
            ea.load_time(),
            orig.load_time()
        );
    }

    #[test]
    fn energy_aware_intermediate_display_is_much_earlier() {
        let corpus = benchmark_corpus(1);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let mut fetcher = FixedRateFetcher::paper_3g(OriginServer::from_corpus(&corpus));
        let ea = load_page(
            &mut fetcher,
            espn.root_url(),
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::EnergyAware),
            &CpuCostModel::default(),
        );
        let orig = load(PipelineMode::Original, "espn", PageVersion::Full);
        let ea_first = ea.first_display_at.unwrap();
        let orig_first = orig.first_display_at.unwrap();
        assert!(
            ea_first.as_secs_f64() < 0.6 * orig_first.as_secs_f64(),
            "EA first display {ea_first} should be far earlier than {orig_first}"
        );
    }

    #[test]
    fn original_pays_redraw_reflow_energy_aware_does_not() {
        let orig = load(PipelineMode::Original, "espn", PageVersion::Full);
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        assert!(
            orig.work.redraw_reflow.as_secs_f64() > 1.0,
            "{:?}",
            orig.work
        );
        assert!(ea.work.redraw_reflow.is_zero());
    }

    #[test]
    fn js_discovered_resources_are_fetched() {
        // The dyn images only exist behind JS execution; both pipelines
        // must find them all.
        let corpus = benchmark_corpus(1);
        let espn = corpus.page("espn", PageVersion::Full).unwrap();
        let n_dyn = espn.spec().js_fetches;
        assert!(n_dyn > 0);
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        // objects_fetched == all objects implies dynamic ones included.
        assert_eq!(ea.objects_fetched, espn.object_count());
    }

    #[test]
    fn traffic_series_accounts_all_bytes() {
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        assert!((ea.traffic.total() - ea.bytes_fetched as f64).abs() < 1e-6);
    }

    #[test]
    fn mobile_without_intermediate_display() {
        let ea = load(PipelineMode::EnergyAware, "cnn", PageVersion::Mobile);
        assert!(ea.first_display_at.is_none());
        assert!(ea.load_time().as_secs_f64() < 15.0, "{}", ea.load_time());
    }

    #[test]
    fn features_are_sane() {
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        let f = ea.features();
        assert!(f.page_size_kb > 100.0);
        assert!(f.download_figures >= 40.0);
        assert!(f.figure_size_kb > 300.0);
        assert!(f.download_js >= 8.0);
        assert!(f.js_running_time_s > 0.5);
        assert!(f.second_urls >= 20.0);
        assert!(f.page_height > 2000.0);
        assert!(f.page_width >= 980.0);
        assert_eq!(f.to_vec().len(), 10);
    }

    #[test]
    fn cpu_busy_intervals_are_disjoint_and_ordered() {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            let m = load(mode, "ebay", PageVersion::Full);
            for w in m.cpu_busy.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
            let total: f64 = m
                .cpu_busy
                .iter()
                .map(|(s, e)| (*e - *s).as_secs_f64())
                .sum();
            assert!((total - m.work.total().as_secs_f64()).abs() < 1e-6);
        }
    }

    #[test]
    fn missing_root_yields_error_page() {
        let corpus = benchmark_corpus(1);
        let mut fetcher = FixedRateFetcher::paper_3g(OriginServer::from_corpus(&corpus));
        let m = load_page(
            &mut fetcher,
            "http://nowhere/",
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::Original),
            &CpuCostModel::default(),
        );
        assert_eq!(m.fetch_failures, 1);
        assert_eq!(m.objects_fetched, 0);
        assert_eq!(m.dom_nodes, 1);
    }

    #[test]
    fn transmission_phase_precedes_layout_phase_in_ea() {
        let ea = load(PipelineMode::EnergyAware, "espn", PageVersion::Full);
        assert!(ea.data_transmission_end < ea.final_display_at);
        // Layout phase should be a material chunk (CSS parse + decode +
        // layout) but far less than the transmission phase.
        let lp = ea.layout_phase_time().as_secs_f64();
        assert!((1.0..20.0).contains(&lp), "layout phase {lp}");
    }
}

#[cfg(test)]
mod inline_style_pipeline_tests {
    use super::*;
    use crate::fetch::{FetchCompletion, ResourceFetcher};
    use ewb_webpage::{ObjectKind, WebObject};

    struct OnePage {
        body: String,
        queue: std::collections::VecDeque<(String, SimTime)>,
        bg: bool,
    }
    impl ResourceFetcher for OnePage {
        fn request(&mut self, url: &str, t: SimTime) {
            self.queue.push_back((url.to_string(), t));
        }
        fn next_completion(&mut self) -> Option<FetchCompletion> {
            let (url, t) = self.queue.pop_front()?;
            let object = if url == "http://t/" {
                Some(WebObject::text(
                    url.clone(),
                    ObjectKind::Html,
                    self.body.clone(),
                ))
            } else if self.bg && url == "http://t/bg.png" {
                Some(WebObject::opaque(url.clone(), ObjectKind::Image, 2048))
            } else {
                None
            };
            Some(FetchCompletion::delivered(url, t, object))
        }
    }

    fn doc_with_inline_style() -> String {
        "<html><head><style>.hero { background: url(\"http://t/bg.png\"); height: 120px; }\
         </style></head><body><p class=\"c0\">text</p></body></html>"
            .to_string()
    }

    #[test]
    fn inline_style_urls_are_fetched_by_both_modes() {
        for mode in [PipelineMode::Original, PipelineMode::EnergyAware] {
            let mut fetcher = OnePage {
                body: doc_with_inline_style(),
                queue: Default::default(),
                bg: true,
            };
            let m = load_page(
                &mut fetcher,
                "http://t/",
                SimTime::ZERO,
                &PipelineConfig::new(mode),
                &CpuCostModel::default(),
            );
            assert_eq!(
                m.objects_fetched, 2,
                "{mode:?}: html + CSS-discovered image"
            );
            assert_eq!(m.image_objects, 1);
        }
    }

    #[test]
    fn energy_aware_defers_inline_style_parsing_to_the_layout_phase() {
        // In EA mode the inline style contributes only a cheap scan to the
        // transmission phase; the full parse lands after tx end. With no
        // other objects, the dtc share of CSS work must be tiny.
        let mut fetcher = OnePage {
            body: doc_with_inline_style(),
            queue: Default::default(),
            bg: false,
        };
        let ea = load_page(
            &mut fetcher,
            "http://t/",
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::EnergyAware),
            &CpuCostModel::default(),
        );
        assert!(ea.work.layout > SimDuration::ZERO);
        assert!(ea.data_transmission_end < ea.final_display_at);
    }
}

#[cfg(test)]
mod layout_cache_tests {
    use super::*;
    use crate::cache::LayoutCache;
    use crate::fetch::FixedRateFetcher;
    use ewb_webpage::{benchmark_corpus, OriginServer, PageVersion};

    fn load_with(cache: &mut LayoutCache) -> LoadMetrics {
        let corpus = benchmark_corpus(1);
        let page = corpus.page("espn", PageVersion::Full).unwrap();
        let mut fetcher = FixedRateFetcher::paper_3g(OriginServer::from_corpus(&corpus));
        load_page_cached(
            &mut fetcher,
            page.root_url(),
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::EnergyAware),
            &CpuCostModel::default(),
            cache,
        )
    }

    #[test]
    fn repeat_visit_hits_the_cache_and_loads_faster() {
        let mut cache = LayoutCache::new();
        let first = load_with(&mut cache);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.len(), 1);
        let second = load_with(&mut cache);
        assert_eq!(cache.stats().0, 1, "second visit hits");
        // Same transfers, but the layout phase shrinks substantially.
        assert_eq!(second.bytes_fetched, first.bytes_fetched);
        assert!(
            second.layout_phase_time().as_secs_f64()
                < 0.7 * first.layout_phase_time().as_secs_f64(),
            "cached {} vs cold {}",
            second.layout_phase_time(),
            first.layout_phase_time()
        );
        // Geometry is reproduced from the cache.
        assert_eq!(second.page_height, first.page_height);
        assert_eq!(second.page_width, first.page_width);
    }

    #[test]
    fn uncached_entry_point_never_touches_a_cache() {
        // Two plain loads agree exactly (no hidden global state).
        let corpus = benchmark_corpus(1);
        let page = corpus.page("cnn", PageVersion::Mobile).unwrap();
        let run = || {
            let mut fetcher = FixedRateFetcher::paper_3g(OriginServer::from_corpus(&corpus));
            load_page(
                &mut fetcher,
                page.root_url(),
                SimTime::ZERO,
                &PipelineConfig::new(PipelineMode::Original),
                &CpuCostModel::default(),
            )
        };
        assert_eq!(run().final_display_at, run().final_display_at);
    }
}

#[cfg(test)]
mod redraw_memo_tests {
    use super::*;
    use crate::fetch::{FetchCompletion, ResourceFetcher};
    use ewb_webpage::{ObjectKind, WebObject};
    use std::collections::{HashMap, VecDeque};

    /// Serves a fixed object set, completing requests in request order.
    struct Site {
        objects: HashMap<String, WebObject>,
        queue: VecDeque<(String, SimTime)>,
    }
    impl ResourceFetcher for Site {
        fn request(&mut self, url: &str, t: SimTime) {
            self.queue.push_back((url.to_string(), t));
        }
        fn next_completion(&mut self) -> Option<FetchCompletion> {
            let (url, t) = self.queue.pop_front()?;
            let object = self.objects.get(&url).cloned();
            Some(FetchCompletion::delivered(url, t, object))
        }
    }

    const ROOT: &str = "<html><head><link rel=\"stylesheet\" href=\"http://t/a.css\"></head>\
        <body><p class=\"c0\">text</p>\
        <img src=\"http://t/i0.png\"><img src=\"http://t/i1.png\"><img src=\"http://t/i2.png\">\
        <img src=\"http://t/i3.png\"><img src=\"http://t/i4.png\"><img src=\"http://t/i5.png\">\
        <img src=\"http://t/i6.png\"><img src=\"http://t/i7.png\">\
        <script src=\"http://t/s.js\"></script>\
        <img src=\"http://t/i8.png\"><img src=\"http://t/i9.png\"><img src=\"http://t/i10.png\">\
        </body></html>";
    /// Imports a sheet whose URL does not end in `.css`: the browser does
    /// not wait for it before redrawing, so it lands between redraws.
    const A_CSS: &str =
        "@import \"http://t/late.style\"; .c0 { font-size: 20px; } .w p { margin: 10px; }";
    /// Written by `s.js`: new content, no new resources.
    const WRITTEN: &str = "<div class='w'><p>written</p><p>more</p></div>";
    const LATE_CSS: &str = ".w { padding: 5px; } p { height: 30px; } \
        .b0 { background: url(http://t/bg0.png); } .b1 { background: url(http://t/bg1.png); } \
        .b2 { background: url(http://t/bg2.png); }";

    fn site() -> Site {
        let mut objects = HashMap::new();
        let mut text = |url: &str, kind, body: String| {
            objects.insert(url.to_string(), WebObject::text(url, kind, body));
        };
        text("http://t/", ObjectKind::Html, ROOT.to_string());
        text("http://t/a.css", ObjectKind::Css, A_CSS.to_string());
        text("http://t/late.style", ObjectKind::Css, LATE_CSS.to_string());
        text(
            "http://t/s.js",
            ObjectKind::Js,
            format!("document.write(\"{WRITTEN}\");"),
        );
        let images = (0..11)
            .map(|i| format!("http://t/i{i}.png"))
            .chain((0..3).map(|i| format!("http://t/bg{i}.png")));
        for url in images {
            let obj = WebObject::opaque(url.clone(), ObjectKind::Image, 1024);
            objects.insert(url, obj);
        }
        Site {
            objects,
            queue: VecDeque::new(),
        }
    }

    /// Style + layout + paint of `doc` under `sheets`, computed from
    /// scratch — what one redraw must charge.
    fn full_redraw(cost: &CpuCostModel, doc: &Document, sheets: &[&str]) -> SimDuration {
        let parsed: Vec<css::Stylesheet> = sheets.iter().map(|s| css::parse(s).sheet).collect();
        let refs: Vec<&css::Stylesheet> = parsed.iter().collect();
        let styles = css::compute_styles(doc, &refs);
        let lr = layout::layout(doc, Some(&styles), 980.0);
        cost.style(styles.match_attempts, styles.declarations_applied)
            + cost.layout(lr.boxes)
            + cost.paint(lr.boxes)
    }

    fn spans(events: &[ObsEvent], stage: &str) -> Vec<SimDuration> {
        events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Span {
                    name, start, end, ..
                } if *name == stage => Some(*end - *start),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn redraws_after_dom_and_sheet_changes_charge_the_new_page() {
        let cost = CpuCostModel::default();
        let recorder = Recorder::memory();
        let m = load_page_recorded(
            &mut site(),
            "http://t/",
            SimTime::ZERO,
            &PipelineConfig::new(PipelineMode::Original),
            &cost,
            recorder.clone(),
        );
        assert_eq!(m.objects_fetched, 18, "every object, including late ones");

        // Before the script: the root document under a.css.
        let root_doc = html::parse(ROOT).document;
        let d_root = full_redraw(&cost, &root_doc, &[A_CSS]);
        // After document.write: the written markup grafted on.
        let mut written = root_doc.clone();
        let root = written.root();
        written.adopt(root, &html::parse(WRITTEN).document);
        let d_written = full_redraw(&cost, &written, &[A_CSS]);
        // After the late sheet arrives.
        let d_late = full_redraw(&cost, &written, &[A_CSS, LATE_CSS]);
        assert!(
            d_root != d_written && d_written != d_late,
            "each change must show"
        );

        let events = recorder.events();
        // Two redraws of the root page (the second a memo hit); one after
        // document.write alone (a miss); one after the late sheet alone (a
        // miss); one more of that page (a hit); then the final pass (a hit).
        let redraws = [d_root, d_root, d_written, d_late, d_late];
        assert_eq!(spans(&events, "redraw_reflow"), redraws);
        assert_eq!(spans(&events, "style_layout_paint"), [d_late]);
        assert_eq!(
            m.work.redraw_reflow,
            redraws.iter().fold(SimDuration::ZERO, |a, &b| a + b)
        );
    }
}
