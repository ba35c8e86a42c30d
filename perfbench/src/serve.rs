//! `server-loop`: one client in a closed loop against an in-process
//! `SweepServer` at its default width, one tiny-scale cell per request.
//! Per-request fixed costs dominate: connection I/O, job bookkeeping, JSON
//! rendering and parsing, `System::new`.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::Instant;

use avr_core::BackendKind;
use avr_server::{base_config, metrics_to_json, result_event, Client, Json, SweepServer};
use avr_types::CellSpec;
use avr_workloads::{
    all_benchmarks, golden, golden_run, metrics_digest, run_on_design_in, BenchScale, Workload,
};

use crate::draw::{server_cycle, stream, Rng};
use crate::layers::{self, span, CellTrace, GoldenLookups, LayerInputs, ServerLayer};
use crate::stats::{percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{sim_headlines, Args, CellResult, Metric, Outcome, SetupTimes};

/// Results compared byte for byte against a direct run after timing.
const CHECKED_RESULTS: usize = 16;
/// Cold set-ups before the timed phase; `setup_s` is the fastest of these
/// and of one more before every `SETUP_EVERY`-th request.
const SETUP_REPS: usize = 11;
const SETUP_EVERY: u64 = 16;
/// Cycles rotate the backend, so this many cover every cell once.
const MIN_CYCLES: usize = BackendKind::ALL.len();

struct Live {
    suite: Vec<Box<dyn Workload>>,
    client: Client,
    addr: SocketAddr,
    threads: usize,
    handle: JoinHandle<std::io::Result<()>>,
}

fn set_up(mut tracer: Option<&mut Tracer>) -> (Live, f64) {
    golden::clear();
    let suite = all_benchmarks(BenchScale::Tiny);
    let t = Instant::now();
    for w in &suite {
        match tracer.as_deref_mut() {
            Some(tr) => drop(tr.leaf(span::GOLDEN, u64::MAX, || golden_run(w.as_ref()))),
            None => drop(golden_run(w.as_ref())),
        }
    }
    let golden_ms = t.elapsed().as_secs_f64() * 1e3;
    let server = SweepServer::bind("127.0.0.1:0").expect("bind the sweep server on loopback");
    let threads = server.threads();
    let (addr, handle) = server.spawn();
    let client = Client::connect(addr).expect("connect to the sweep server");
    (Live { suite, client, addr, threads, handle }, golden_ms)
}

fn tear_down(mut live: Live) {
    let stopped = live.client.shutdown().is_ok();
    let joined = live.handle.join();
    if !stopped || !matches!(joined, Ok(Ok(()))) {
        eprintln!("perfbench: the sweep server at {} did not shut down cleanly", live.addr);
    }
}

/// One served result: the cell and the `metrics` object it came back with.
struct Served {
    spec: CellSpec,
    metrics: Json,
}

fn workload<'a>(suite: &'a [Box<dyn Workload>], name: &str) -> &'a dyn Workload {
    suite.iter().find(|w| w.name() == name).expect("drawn from the suite").as_ref()
}

fn direct_json(suite: &[Box<dyn Workload>], spec: &CellSpec) -> Option<String> {
    let cfg = spec.config(&base_config(BenchScale::Tiny));
    catch_unwind(AssertUnwindSafe(|| {
        run_on_design_in(workload(suite, &spec.workload), &cfg, spec.design, spec.layout)
    }))
    .ok()
    .map(|m| metrics_to_json(&m).render())
}

pub fn run(args: &Args) -> Outcome {
    let mut tracer = Tracer::new();
    let mut setup = SetupTimes::default();
    let mut live = setup.time(|| set_up(args.trace.then_some(&mut tracer)));
    if !args.trace {
        for _ in 1..SETUP_REPS {
            tear_down(setup.time(|| set_up(None)));
        }
    }
    let base = base_config(BenchScale::Tiny);

    let mut rng = Rng::for_stream(args.seed, stream::REQUESTS);
    let cycle_len = server_cycle(&live.suite, 0, &mut rng.clone()).len();
    let mut queue = Vec::new().into_iter();
    let mut out = Outcome::default();
    let mut served: Vec<Served> = Vec::new();
    let (mut rtt_ms, mut ack_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse_us, mut render_us) = (Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut lookups = GoldenLookups::default();
    let mut instr = 0u64;
    let rss_before = crate::rss_mb();
    let start = Instant::now();
    // Seconds of the loop spent in set-ups, which are not serving time.
    let mut paused = 0.0;
    // Whole cycles only, and at least every cell once, so every run serves
    // the same mix.
    let (mut cycles, mut requests) = (0, 0u64);
    // The peak resident set once `MIN_CYCLES` cycles are served. The jobs
    // map keeps every finished job, so the peak at the end of a run would
    // grow with the number of requests a run fits in: a faster server
    // would read as a bigger one.
    let mut peak_rss = None;
    loop {
        let spec = match queue.next() {
            Some(spec) => spec,
            None if cycles < MIN_CYCLES || start.elapsed().as_secs_f64() < args.seconds => {
                if cycles == MIN_CYCLES {
                    peak_rss = Some(crate::peak_rss_mb());
                }
                queue = server_cycle(&live.suite, cycles, &mut rng).into_iter();
                cycles += 1;
                queue.next().expect("the request cycle is never empty")
            }
            None => break,
        };
        let req = requests;
        requests += 1;
        if !args.trace && req > 0 && req % SETUP_EVERY == 0 {
            // Between requests the served connection is idle, and set-up
            // leaves the golden cache as full as it found it.
            let t = Instant::now();
            tear_down(setup.time(|| set_up(None)));
            paused += t.elapsed().as_secs_f64();
        }
        out.attempted += 1;
        let before = GoldenLookups::now();
        let t0 = Instant::now();
        let whole = args.trace.then(|| tracer.begin("request", req));
        let part = args.trace.then(|| tracer.begin("submit->ack", req));
        let job = live.client.submit(vec![spec.clone()]);
        let ack = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(id) = part {
            tracer.end(id);
        }
        let part = args.trace.then(|| tracer.begin("ack->job_done", req));
        let outcome = job.and_then(|job| live.client.collect_job(job));
        if let Some(id) = part {
            tracer.end(id);
        }
        if let Some(id) = whole {
            tracer.end(id);
        }
        let rtt = t0.elapsed().as_secs_f64() * 1e3;
        lookups.add(GoldenLookups::now().since(before));
        let metrics = match outcome {
            Ok(o) if o.completed == 1 => {
                o.results.into_iter().flatten().next().and_then(|e| e.get("metrics").cloned())
            }
            Ok(_) => None,
            Err(e) => {
                // The connection is gone; nothing further can be served.
                eprintln!("perfbench: request {req} failed: {e}");
                out.failed += 1;
                break;
            }
        };
        let Some(metrics) = metrics else {
            out.failed += 1;
            continue;
        };
        let Some(result) = CellResult::from_json(&spec, &metrics) else {
            out.failed += 1;
            continue;
        };
        instr += result.instructions;
        rtt_ms.push(rtt);
        ack_ms.push(ack);
        if args.trace {
            // Replay the same cell directly: once as one call (the server's
            // overhead is the round trip minus this), once split into spans.
            // Which replay goes first alternates, so neither always finds
            // the caches warmed by the other.
            let w = workload(&live.suite, &spec.workload);
            let cfg = spec.config(&base);
            let split_first = req % 2 == 1;
            let split_run =
                |t: &mut Tracer| layers::traced_cell(t, req, w, &cfg, spec.design, spec.layout);
            let early = split_first.then(|| split_run(&mut tracer));
            let t = Instant::now();
            let direct = tracer
                .leaf(span::UNTRACED, req, || run_on_design_in(w, &cfg, spec.design, spec.layout));
            overhead_ms.push(rtt - t.elapsed().as_secs_f64() * 1e3);
            let split = early.unwrap_or_else(|| split_run(&mut tracer));
            let t = Instant::now();
            let line = tracer.leaf("result_event", req, || result_event(req, 0, &spec, &direct));
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let parsed = tracer.leaf("Json::parse", req, || Json::parse(&line));
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            let same = metrics_digest(&split) == metrics_digest(&direct)
                && metrics_to_json(&direct).render() == metrics.render()
                && parsed.ok().and_then(|p| p.get("metrics").cloned()) == Some(metrics.clone());
            if !same {
                out.failed += 1;
            }
            traced.push(CellTrace {
                workload: w.name(),
                design: spec.design,
                metrics: split,
                request: req,
            });
        }
        served.push(Served { spec, metrics });
    }
    let wall = start.elapsed().as_secs_f64() - paused;
    let rss_growth = crate::rss_mb() - rss_before;
    let peak_rss = peak_rss.unwrap_or_else(crate::peak_rss_mb);

    // Output check after timing: a seed-chosen sample of results against
    // `metrics_to_json(run_on_design_in(..))`, byte for byte.
    let picks =
        Rng::for_stream(args.seed, stream::CHECK).sample_indices(served.len(), CHECKED_RESULTS);
    for &i in &picks {
        out.attempted += 1;
        if direct_json(&live.suite, &served[i].spec) != Some(served[i].metrics.render()) {
            out.failed += 1;
        }
    }

    // The headlines count each (workload, design, layout) combination of
    // the exact backend once. Relaxed and mram cells carry a fault seed
    // drawn per request, so their outputs follow the seed, not the code.
    let mut seen = HashSet::new();
    let results: Vec<CellResult> = served
        .iter()
        .filter(|s| s.spec.backend == Some(BackendKind::Exact))
        .filter_map(|s| CellResult::from_json(&s.spec, &s.metrics))
        .filter(|r| seen.insert(r.key()))
        .collect();
    out.provenance = vec![
        ("server_threads", Json::from(live.threads)),
        ("loop", Json::from("closed, 1 client, 1 cell per request")),
        ("scale", Json::from("tiny")),
        ("requests", Json::from(rtt_ms.len())),
        ("request_cycle", Json::from(cycle_len)),
        ("cycles", Json::from(cycles)),
        ("peak_rss_after_requests", Json::from(MIN_CYCLES * cycle_len)),
        ("headline_cells", Json::from(results.len())),
        ("checked_results", Json::from(picks.len())),
        ("setup_reps", Json::from(setup.reps())),
        ("setup_median_s", Json::from(setup.median())),
    ];
    let names: Vec<&'static str> = live.suite.iter().map(|w| w.name()).collect();
    tear_down(live);

    let rtt = sorted(rtt_ms);
    if args.trace {
        let overhead = sorted(overhead_ms);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let spans = tracer.spans();
        out.metrics = layers::per_layer(&LayerInputs {
            spans,
            cells: &traced,
            golden_setup_ms: setup.fastest_golden_ms(),
            golden: lookups,
            server: ServerLayer {
                ack_ms_p50: percentile(&sorted(ack_ms), 0.5).unwrap_or(0.0),
                overhead_ms_p50: percentile(&overhead, 0.5).unwrap_or(0.0),
                overhead_ms_p95: percentile(&overhead, 0.95).unwrap_or(0.0),
                json_parse_us: mean(&parse_us),
                json_render_us: mean(&render_us),
                rss_growth_mb: rss_growth,
            },
            workload_names: &names,
        });
        out.spans = Some(spans.to_vec());
        out.provenance
            .push(("span_self_ms", Json::from(crate::span_summary(&trace::self_by_name(spans)))));
        return out;
    }
    let (Some(p50), Some(p95)) = (percentile(&rtt, 0.5), percentile(&rtt, 0.95)) else {
        eprintln!("perfbench: {} requests are too few for a p95 with 10 samples beyond", rtt.len());
        out.failed += 1;
        return out;
    };
    out.metrics = vec![
        Metric::new("setup_s", setup.fastest(), "s"),
        Metric::new("sim_instr_per_s", instr as f64 / wall, "1/s"),
        Metric::new("request_ms_p50", p50, "ms"),
        Metric::new("request_ms_p95", p95, "ms"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    out.metrics.extend(sim_headlines(&results));
    out
}
