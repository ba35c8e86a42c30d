//! Per-layer metrics of the traced run. Host times come from span self
//! times around the public calls a cell makes; counts are summed from each
//! cell's `RunMetrics`. Metrics a workload does not exercise read 0.

use std::collections::HashMap;

use avr_core::{DesignKind, LayoutKind, SystemConfig};
use avr_sim::stats::Counters;
use avr_sim::RunMetrics;
use avr_workloads::{
    all_benchmarks, golden, golden_run, mean_relative_error, BenchScale, Workload,
};

use crate::trace::{self_times, Span, Tracer};
use crate::Metric;

/// Span names of one cell, split into the public calls `run_on_design_in`
/// makes.
pub mod span {
    pub const CELL: &str = "cell";
    pub const GOLDEN: &str = "golden_run";
    pub const SYSTEM_NEW: &str = "System::new";
    pub const RUN_IN: &str = "Workload::run_in";
    pub const FINISH: &str = "System::finish";
    pub const SCORE: &str = "mean_relative_error";
    /// Freeing the simulated system's memory, which the one-call path
    /// also pays before it returns.
    pub const DROP: &str = "drop(System)";
    /// The same cell as one untraced call, for the tracing overhead.
    pub const UNTRACED: &str = "untraced_cell";
}

/// `run_on_design_in`, one span per public call, under a `cell` span.
pub fn traced_cell(
    t: &mut Tracer,
    request: u64,
    w: &dyn Workload,
    cfg: &SystemConfig,
    design: DesignKind,
    layout: LayoutKind,
) -> RunMetrics {
    let cell = t.begin(span::CELL, request);
    let golden = t.leaf(span::GOLDEN, request, || golden_run(w));
    let mut sys = t.leaf(span::SYSTEM_NEW, request, || avr_core::System::new(cfg.clone(), design));
    let out = t.leaf(span::RUN_IN, request, || w.run_in(&mut sys, layout));
    let mut m = t.leaf(span::FINISH, request, || sys.finish(w.name()));
    m.output_error = t.leaf(span::SCORE, request, || mean_relative_error(&golden, &out));
    t.leaf(span::DROP, request, || drop(sys));
    t.end(cell);
    m
}

/// One traced cell: what it simulated and its host time per call.
pub struct CellTrace {
    pub workload: &'static str,
    pub design: DesignKind,
    pub metrics: RunMetrics,
    pub request: u64,
}

/// Host nanoseconds per (request, span name), from span self times.
pub fn self_ns_by_request(spans: &[Span]) -> HashMap<(u64, &'static str), u64> {
    let mut out = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry((s.request, s.name)).or_insert(0) += t;
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Golden-cache lookups between two points: (hits, computes).
#[derive(Clone, Copy, Default)]
pub struct GoldenLookups {
    pub hits: u64,
    pub computes: u64,
}

impl GoldenLookups {
    pub fn now() -> GoldenLookups {
        GoldenLookups { hits: golden::stats::hits(), computes: golden::stats::computes() }
    }

    pub fn since(self, start: GoldenLookups) -> GoldenLookups {
        GoldenLookups { hits: self.hits - start.hits, computes: self.computes - start.computes }
    }

    pub fn add(&mut self, other: GoldenLookups) {
        self.hits += other.hits;
        self.computes += other.computes;
    }
}

/// Server-side numbers; all zero on `paper-sweep`.
#[derive(Default)]
pub struct ServerLayer {
    pub ack_ms_p50: f64,
    pub overhead_ms_p50: f64,
    pub overhead_ms_p95: f64,
    pub json_parse_us: f64,
    pub json_render_us: f64,
    pub rss_growth_mb: f64,
}

pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    pub cells: &'a [CellTrace],
    /// Cold golden runs in set-up, summed over workloads.
    pub golden_setup_ms: f64,
    /// Golden-cache lookups made by the measured cells.
    pub golden: GoldenLookups,
    pub server: ServerLayer,
    /// The workloads whose AVR cost per instruction is reported, in suite order.
    pub workload_names: &'a [&'static str],
}

/// The per-layer metric names, in `BENCHMARK.json` order.
pub fn names() -> Vec<String> {
    let workloads: Vec<&'static str> =
        all_benchmarks(BenchScale::Tiny).iter().map(|w| w.name()).collect();
    let none = LayerInputs {
        spans: &[],
        cells: &[],
        golden_setup_ms: 0.0,
        golden: GoldenLookups::default(),
        server: ServerLayer::default(),
        workload_names: &workloads,
    };
    per_layer(&none).into_iter().map(|m| m.name).collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let selfs = self_ns_by_request(inp.spans);
    let ns = |c: &CellTrace, name: &'static str| *selfs.get(&(c.request, name)).unwrap_or(&0);
    let n_cells = inp.cells.len().max(1) as f64;
    let mean_ms = |name: &'static str| {
        inp.cells.iter().map(|c| ns(c, name)).sum::<u64>() as f64 / 1e6 / n_cells
    };
    // Host ns of `Workload::run_in` per simulated instruction over the
    // cells `pick` selects.
    let run_ns_per_instr = |pick: &dyn Fn(&CellTrace) -> bool| {
        let (mut t, mut i) = (0u64, 0u64);
        for c in inp.cells.iter().filter(|c| pick(c)) {
            t += ns(c, span::RUN_IN);
            i += c.metrics.counters.instructions;
        }
        ratio(t, i)
    };
    let mut sum = Counters::default();
    for c in inp.cells {
        sum.merge(&c.metrics.counters);
    }

    let mut m = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };
    put("avr-workloads.golden_ms".into(), inp.golden_setup_ms, "ms");
    put(
        "avr-workloads.golden_hit_ratio".into(),
        ratio(inp.golden.hits, inp.golden.hits + inp.golden.computes),
        "ratio",
    );
    put("avr-workloads.score_ms".into(), mean_ms(span::SCORE), "ms");
    for &w in inp.workload_names {
        put(
            format!("avr-workloads.{w}.avr_ns_per_instr"),
            run_ns_per_instr(&|c| c.workload == w && c.design == DesignKind::Avr),
            "ns/instr",
        );
    }
    put("avr-core.system_new_ms".into(), mean_ms(span::SYSTEM_NEW), "ms");
    put("avr-core.run_ns_per_instr".into(), run_ns_per_instr(&|_| true), "ns/instr");
    put("avr-core.finish_ms".into(), mean_ms(span::FINISH), "ms");
    for d in [
        DesignKind::Baseline,
        DesignKind::ZeroAvr,
        DesignKind::Avr,
        DesignKind::MemoIn,
        DesignKind::MemoOut,
    ] {
        put(
            format!("avr-core.{}.ns_per_instr", d.label()),
            run_ns_per_instr(&|c| c.design == d),
            "ns/instr",
        );
    }
    put("avr-core.memo.in_hit_ratio".into(), ratio(sum.memo.in_hits, sum.memo.in_probes), "ratio");
    put("avr-core.memo.out_elided".into(), sum.memo.out_elided as f64, "count");
    for d in [DesignKind::Doppelganger, DesignKind::Truncate] {
        put(
            format!("avr-baselines.{}.ns_per_instr", d.label()),
            run_ns_per_instr(&|c| c.design == d),
            "ns/instr",
        );
    }
    let attempts = sum.blocks_compressed + sum.compression_failures;
    put("avr-compress.compress_attempts".into(), attempts as f64, "count");
    put("avr-compress.compress_ok_ratio".into(), ratio(sum.blocks_compressed, attempts), "ratio");
    put("avr-compress.decompressions".into(), sum.blocks_decompressed as f64, "count");
    let accesses = sum.loads + sum.stores;
    put("avr-cache.l1_hit_ratio".into(), ratio(sum.l1_hits, accesses), "ratio");
    put(
        "avr-cache.l2_hit_ratio".into(),
        ratio(sum.l2_hits, accesses.saturating_sub(sum.l1_hits)),
        "ratio",
    );
    put("avr-cache.llc_requests".into(), sum.llc_requests_total as f64, "count");
    put(
        "avr-cache.llc_miss_ratio".into(),
        ratio(sum.llc_misses_total, sum.llc_requests_total),
        "ratio",
    );
    let approx = sum.approx_requests.total();
    put(
        "avr-cache.compressed_hit_frac".into(),
        ratio(sum.approx_requests.compressed_hit, approx),
        "ratio",
    );
    put("avr-cache.dbuf_hit_frac".into(), ratio(sum.approx_requests.dbuf_hit, approx), "ratio");
    put("avr-cache.evictions".into(), sum.evictions.total() as f64, "count");
    put("avr-dram.traffic_bytes".into(), sum.traffic.total() as f64, "B");
    put("avr-dram.metadata_bytes".into(), sum.traffic.metadata_bytes as f64, "B");
    put("avr-dram.bit_flips".into(), sum.faults.injected_bit_flips as f64, "count");
    put("avr-dram.retries".into(), sum.faults.retries as f64, "count");
    put("avr-dram.ecc_scrubs".into(), sum.faults.ecc_scrubs as f64, "count");
    put("avr-dram.degraded_lines".into(), sum.faults.degraded_lines as f64, "count");
    let s = &inp.server;
    put("avr-server.ack_ms_p50".into(), s.ack_ms_p50, "ms");
    put("avr-server.overhead_ms_p50".into(), s.overhead_ms_p50, "ms");
    put("avr-server.overhead_ms_p95".into(), s.overhead_ms_p95, "ms");
    put("avr-server.json_parse_us".into(), s.json_parse_us, "us");
    put("avr-server.json_render_us".into(), s.json_render_us, "us");
    put("avr-server.rss_growth_mb".into(), s.rss_growth_mb, "MB");
    // Tracing overhead: the same cells as one untraced call each vs split
    // into spans, in simulated instructions per host second.
    let instr: u64 = inp.cells.iter().map(|c| c.metrics.counters.instructions).sum();
    let untraced: u64 = inp.cells.iter().map(|c| ns(c, span::UNTRACED)).sum();
    let traced: u64 = inp.cells.iter().map(|c| ns(c, span::CELL)).sum::<u64>()
        + [span::GOLDEN, span::SYSTEM_NEW, span::RUN_IN, span::FINISH, span::SCORE, span::DROP]
            .iter()
            .map(|&n| inp.cells.iter().map(|c| ns(c, n)).sum::<u64>())
            .sum::<u64>();
    let ips_untraced = ratio(instr, untraced) * 1e9;
    let ips_traced = ratio(instr, traced) * 1e9;
    put("bench.trace_overhead_instr_per_s".into(), ips_untraced - ips_traced, "1/s");
    put(
        "bench.trace_overhead_pct".into(),
        if ips_untraced > 0.0 { 100.0 * (ips_untraced - ips_traced) / ips_untraced } else { 0.0 },
        "%",
    );
    m
}
