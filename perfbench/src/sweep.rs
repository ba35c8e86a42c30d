//! `paper-sweep`: the paper's own grid, {baseline, AVR} × all 10 workloads
//! at tiny scale, SoA, exact backend, each cell run through
//! `run_grid_layouts` on a one-worker pool. One worker, because on a
//! two-thread host a wider pool measures thread contention rather than the
//! simulator. Tiny scale, because a cell then takes milliseconds and a run
//! times every cell a hundred times or more: on a shared host, other
//! tenants slow the simulator in bursts, and only many short samples per
//! cell find its uncontended time (bench-scale cells take up to seconds,
//! and the best of three or four runs each moved by up to 2× between
//! half-hour windows).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use avr_core::{BackendKind, DesignKind, LayoutKind, SimPool, SystemConfig};
use avr_server::{base_config, Json};
use avr_sim::RunMetrics;
use avr_workloads::{
    all_benchmarks, golden, golden_run, metrics_digest, run_grid_layouts, run_on_design_in,
    BenchScale, Workload,
};

use crate::draw::{stream, Rng};
use crate::layers::{self, span, CellTrace, GoldenLookups, LayerInputs};
use crate::stats::{quantile, sorted};
use crate::trace::{self, Tracer};
use crate::{sim_headlines, Args, CellResult, Metric, Outcome, SetupTimes};

const DESIGNS: [DesignKind; 2] = [DesignKind::Baseline, DesignKind::Avr];
const BACKEND: BackendKind = BackendKind::Exact;
const SCALE: BenchScale = BenchScale::Tiny;
const LAYOUT: LayoutKind = LayoutKind::Soa;
const POOL_WIDTH: usize = 1;
/// Cold set-ups before the timed phase; `setup_s` is the fastest of these
/// and of one more every `SETUP_EVERY` passes.
const SETUP_REPS: usize = 11;
const SETUP_EVERY: usize = 4;
/// Passes over the grid in a traced run.
const TRACE_PASSES: usize = 10;

/// Build the suite and compute every golden from cold. Returns the suite
/// and the golden time in ms.
fn set_up(tracer: Option<&mut Tracer>) -> (Vec<Box<dyn Workload>>, f64) {
    golden::clear();
    let suite = all_benchmarks(SCALE);
    let t = Instant::now();
    match tracer {
        Some(tr) => {
            for w in &suite {
                tr.leaf(span::GOLDEN, u64::MAX, || golden_run(w.as_ref()));
            }
        }
        None => suite.iter().for_each(|w| drop(golden_run(w.as_ref()))),
    }
    (suite, t.elapsed().as_secs_f64() * 1e3)
}

struct Cell {
    wi: usize,
    design: DesignKind,
}

fn result(suite: &[Box<dyn Workload>], c: &Cell, cfg: &SystemConfig, m: &RunMetrics) -> CellResult {
    CellResult::new(suite[c.wi].name(), c.design, LAYOUT, cfg.error_model.backend, m)
}

/// One cell through the grid runner, as a sweep would run it.
fn run_cell(
    pool: &SimPool,
    suite: &[Box<dyn Workload>],
    c: &Cell,
    cfg: &SystemConfig,
) -> RunMetrics {
    let mut grid = run_grid_layouts(pool, &suite[c.wi..=c.wi], cfg, &[c.design], &[LAYOUT]);
    grid.pop().expect("a one-cell grid yields one cell").metrics
}

pub fn run(args: &Args) -> Outcome {
    let cfg = base_config(SCALE).with_backend(BACKEND);
    let mut tracer = Tracer::new();
    let mut setup = SetupTimes::default();
    // Traced: one cold set-up, traced, for the golden time.
    let suite = &setup.time(|| set_up(args.trace.then_some(&mut tracer)));
    if !args.trace {
        for _ in 1..SETUP_REPS {
            drop(setup.time(|| set_up(None)));
        }
    }

    let mut cells: Vec<Cell> =
        (0..suite.len()).flat_map(|wi| DESIGNS.map(|design| Cell { wi, design })).collect();
    Rng::for_stream(args.seed, stream::ORDER).shuffle(&mut cells);
    let pool = SimPool::new(POOL_WIDTH);

    let mut out = Outcome::default();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut first: Vec<Option<RunMetrics>> = vec![None; cells.len()];
    let mut traced = Vec::new();
    let lookups_start = GoldenLookups::now();
    let start = Instant::now();
    // Untraced: whole passes over the grid until the time is up, so every
    // cell has the same number of samples. Traced: `TRACE_PASSES` passes,
    // each cell once untraced and once split into spans.
    for (n, i) in (0..cells.len()).cycle().enumerate() {
        let pass = n / cells.len();
        let done = if args.trace {
            pass == TRACE_PASSES
        } else {
            pass > 0 && i == 0 && start.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            break;
        }
        if !args.trace && i == 0 && pass > 0 && pass % SETUP_EVERY == 0 {
            // Set-up leaves the golden cache as full as it found it.
            drop(setup.time(|| set_up(None)));
        }
        let c = &cells[i];
        let w = suite[c.wi].as_ref();
        // The traced run alternates which of the two runs of a cell goes
        // first, so neither always finds the caches warmed by the other.
        let split_first = (pass + i) % 2 == 1;
        let split_run = |tracer: &mut Tracer| {
            catch_unwind(AssertUnwindSafe(|| {
                layers::traced_cell(tracer, i as u64, w, &cfg, c.design, LAYOUT)
            }))
            .ok()
        };
        let mut split = None;
        if args.trace && split_first {
            split = split_run(&mut tracer);
        }
        out.attempted += 1;
        let t = Instant::now();
        let id = args.trace.then(|| tracer.begin(span::UNTRACED, i as u64));
        let ran = catch_unwind(AssertUnwindSafe(|| run_cell(&pool, suite, c, &cfg)));
        if let Some(id) = id {
            tracer.end(id);
        }
        let dt = t.elapsed().as_secs_f64();
        let Ok(m) = ran else {
            out.failed += 1;
            continue;
        };
        samples[i].push(dt);
        match &first[i] {
            // A repeat of a cell must reproduce it exactly.
            Some(f) if metrics_digest(f) != metrics_digest(&m) => out.failed += 1,
            Some(_) => {}
            None => first[i] = Some(m.clone()),
        }
        if args.trace {
            if !split_first {
                split = split_run(&mut tracer);
            }
            out.attempted += 1;
            match split {
                Some(s) if metrics_digest(&s) == metrics_digest(&m) => traced.push(CellTrace {
                    workload: w.name(),
                    design: c.design,
                    metrics: s,
                    request: i as u64,
                }),
                _ => out.failed += 1,
            }
        }
    }
    let golden = GoldenLookups::now().since(lookups_start);

    // Output check after timing: recompute a seed-chosen cell directly.
    let check = Rng::for_stream(args.seed, stream::CHECK).below(cells.len());
    let c = &cells[check];
    out.attempted += 1;
    let direct = catch_unwind(AssertUnwindSafe(|| {
        run_on_design_in(suite[c.wi].as_ref(), &cfg, c.design, LAYOUT)
    }));
    let ok = matches!((&direct, &first[check]), (Ok(d), Some(f)) if metrics_digest(d) == metrics_digest(f));
    if !ok {
        out.failed += 1;
    }

    let results: Vec<CellResult> = cells
        .iter()
        .zip(&first)
        .filter_map(|(c, m)| m.as_ref().map(|m| result(suite, c, &cfg, m)))
        .collect();
    let names: Vec<&'static str> = suite.iter().map(|w| w.name()).collect();
    out.provenance = vec![
        ("pool_width", Json::from(POOL_WIDTH)),
        ("scale", Json::from(SCALE.label())),
        ("layout", Json::from(LAYOUT.label())),
        ("backend", Json::from(BACKEND.label())),
        ("cells", Json::from(cells.len())),
        ("passes", Json::from(samples[0].len())),
        ("cell_runs", Json::from(samples.iter().map(Vec::len).sum::<usize>())),
        ("check_cell", Json::from(format!("{}/{}", suite[c.wi].name(), c.design.label()))),
        ("setup_reps", Json::from(setup.reps())),
        ("setup_median_s", Json::from(setup.median())),
    ];

    if args.trace {
        let spans = tracer.spans();
        out.metrics = layers::per_layer(&LayerInputs {
            spans,
            cells: &traced,
            golden_setup_ms: setup.fastest_golden_ms(),
            golden,
            server: Default::default(),
            workload_names: &names,
        });
        out.spans = Some(spans.to_vec());
        let self_ns = trace::self_by_name(spans);
        out.provenance.push(("span_self_ms", Json::from(crate::span_summary(&self_ns))));
        return out;
    }

    if samples.iter().any(Vec::is_empty) {
        // A cell that never completed leaves nothing to report.
        out.failed += 1;
        return out;
    }
    // Each cell's fastest run. A cell is deterministic, and on a shared
    // host contention only ever slows it down, so over many runs its best
    // time is the steadiest estimate of its cost.
    let cell_s: Vec<f64> =
        samples.iter().map(|s| s.iter().copied().fold(f64::MAX, f64::min)).collect();
    let instr: u64 = results.iter().map(|r| r.instructions).sum();
    let cell_ms = sorted(cell_s.iter().map(|s| s * 1e3).collect());
    out.metrics = vec![
        Metric::new("setup_s", setup.fastest(), "s"),
        Metric::new("sim_instr_per_s", instr as f64 / cell_s.iter().sum::<f64>(), "1/s"),
        // The grid is enumerated, not sampled: these are quantiles of the
        // per-cell latency over every cell of the grid.
        Metric::new("request_ms_p50", quantile(&cell_ms, 0.5), "ms"),
        Metric::new("request_ms_p95", quantile(&cell_ms, 0.95), "ms"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    out.metrics.extend(sim_headlines(&results));
    out
}
