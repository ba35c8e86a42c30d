//! End-to-end and per-layer benchmark of the AVR simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|server-loop> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! It measures from outside the program, timing calls into each crate's
//! public functions. Set-up (suite, cold goldens, and for `server-loop` the
//! server and client) is timed on its own and repeated; the timed phase
//! follows; outputs are checked after timing stops. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`,
//! a separate run that also writes its spans out).

mod draw;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use avr_core::{BackendKind, DesignKind, LayoutKind};
use avr_server::Json;
use avr_sim::RunMetrics;
use avr_types::CellSpec;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 50.0;

const WORKLOADS: [&str; 2] = ["paper-sweep", "server-loop"];

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "sim_instr_per_s",
    "request_ms_p50",
    "request_ms_p95",
    "peak_rss_mb",
    "sim_speedup_geomean",
    "sim_traffic_ratio_geomean",
    "sim_output_error_mean",
];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: "", seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS.into_iter().find(|w| w == value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {WORKLOADS:?}")
                })?
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required: one of {WORKLOADS:?}"));
    }
    Ok(args)
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub provenance: Vec<(&'static str, Json)>,
    pub spans: Option<Vec<trace::Span>>,
}

/// Times of cold set-ups, sampled before and during the timed phase.
///
/// Set-up is deterministic work, and on a shared host contention only ever
/// slows it down, so `setup_s` is the fastest sample. Other tenants slow
/// the host in episodes that can outlast a burst of back-to-back set-ups,
/// so the samples are spread over the whole run.
#[derive(Default)]
pub struct SetupTimes {
    secs: Vec<f64>,
    golden_ms: Vec<f64>,
}

impl SetupTimes {
    /// Time one cold set-up; `build` returns what it built and its golden
    /// time in ms.
    pub fn time<T>(&mut self, build: impl FnOnce() -> (T, f64)) -> T {
        let t = Instant::now();
        let (value, golden_ms) = build();
        self.secs.push(t.elapsed().as_secs_f64());
        self.golden_ms.push(golden_ms);
        value
    }

    pub fn fastest(&self) -> f64 {
        self.secs.iter().copied().fold(f64::MAX, f64::min)
    }

    /// The median, for the provenance line: it follows how busy the
    /// host's other tenants were.
    pub fn median(&self) -> f64 {
        stats::median(&self.secs)
    }

    pub fn fastest_golden_ms(&self) -> f64 {
        self.golden_ms.iter().copied().fold(f64::MAX, f64::min)
    }

    pub fn reps(&self) -> usize {
        self.secs.len()
    }
}

/// What the headline metrics need from one simulated cell.
pub struct CellResult {
    pub workload: String,
    pub design: DesignKind,
    pub layout: LayoutKind,
    pub backend: BackendKind,
    pub cycles: u64,
    pub traffic: u64,
    pub output_error: f64,
    pub instructions: u64,
}

impl CellResult {
    pub fn new(
        workload: &str,
        design: DesignKind,
        layout: LayoutKind,
        backend: Option<BackendKind>,
        m: &RunMetrics,
    ) -> CellResult {
        CellResult {
            workload: workload.to_string(),
            design,
            layout,
            backend: backend.unwrap_or(BackendKind::Exact),
            cycles: m.cycles,
            traffic: m.counters.traffic.total(),
            output_error: m.output_error,
            instructions: m.counters.instructions,
        }
    }

    /// From a served `metrics` object.
    pub fn from_json(spec: &CellSpec, m: &Json) -> Option<CellResult> {
        let counters = m.get("counters")?;
        let traffic = counters.get("traffic")?;
        let bytes = ["approx_read_bytes", "approx_write_bytes", "nonapprox_read_bytes"]
            .into_iter()
            .chain(["nonapprox_write_bytes", "metadata_bytes"])
            .map(|k| traffic.get(k).and_then(Json::as_u64))
            .sum::<Option<u64>>()?;
        Some(CellResult {
            workload: spec.workload.clone(),
            design: spec.design,
            layout: spec.layout,
            backend: spec.backend.unwrap_or(BackendKind::Exact),
            cycles: m.get("cycles")?.as_u64()?,
            traffic: bytes,
            output_error: m.get("output_error")?.as_f64()?,
            instructions: counters.get("instructions")?.as_u64()?,
        })
    }

    pub fn key(&self) -> (String, DesignKind, LayoutKind, BackendKind) {
        (self.workload.clone(), self.design, self.layout, self.backend)
    }
}

/// The paper's headlines over the cells: speed-up (Fig. 9), memory
/// traffic (Fig. 11) and output error (Table 3) of every non-Baseline cell
/// whose (workload, layout, backend) group has a Baseline cell, the first
/// two against that Baseline. Simulated, so they repeat exactly for a seed.
pub fn sim_headlines(results: &[CellResult]) -> Vec<Metric> {
    let mut base: HashMap<(&str, LayoutKind, BackendKind), &CellResult> = HashMap::new();
    for r in results.iter().filter(|r| r.design == DesignKind::Baseline) {
        base.entry((&r.workload, r.layout, r.backend)).or_insert(r);
    }
    let (mut speedup, mut traffic, mut error) = (Vec::new(), Vec::new(), Vec::new());
    for r in results.iter().filter(|r| r.design != DesignKind::Baseline) {
        if let Some(b) = base.get(&(r.workload.as_str(), r.layout, r.backend)) {
            speedup.push(b.cycles as f64 / r.cycles.max(1) as f64);
            traffic.push(r.traffic.max(1) as f64 / b.traffic.max(1) as f64);
            error.push(r.output_error);
        }
    }
    if error.is_empty() {
        return Vec::new();
    }
    vec![
        Metric::new("sim_speedup_geomean", avr_sim::stats::geomean(&speedup), "x"),
        Metric::new("sim_traffic_ratio_geomean", avr_sim::stats::geomean(&traffic), "x"),
        Metric::new(
            "sim_output_error_mean",
            error.iter().sum::<f64>() / error.len() as f64,
            "ratio",
        ),
    ]
}

/// A `/proc/self/status` field, in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Span self time per name, in ms, for the provenance line.
pub fn span_summary(self_ns: &BTreeMap<&'static str, u64>) -> String {
    let parts: Vec<String> =
        self_ns.iter().map(|(k, v)| format!("{k}={:.1}", *v as f64 / 1e6)).collect();
    parts.join(" ")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = match args.workload {
        "paper-sweep" => sweep::run(&args),
        _ => serve::run(&args),
    };

    if let Some(spans) = &out.spans {
        let dir =
            std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
        let path =
            dir.join("perfbench").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(spans, &path) {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }

    let mut prov = vec![
        ("workload", Json::from(args.workload)),
        ("seed", Json::from(args.seed)),
        ("default_seed", Json::from(DEFAULT_SEED)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(nproc)),
    ];
    prov.extend(out.provenance);
    println!("{}", Json::obj([("provenance", Json::obj(prov))]).render());

    let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    let expected = if args.trace { layers::names() } else { END_TO_END.map(String::from).to_vec() };
    if !names.is_empty() && names != expected {
        eprintln!("perfbench: emitted metrics {names:?} differ from the declared {expected:?}");
        std::process::exit(1);
    }
    let metrics = out.metrics.iter().map(|m| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let metric = Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]);
        (m.name.clone(), metric)
    });
    let result = Json::obj([
        ("correct", Json::from(out.failed == 0 && !out.metrics.is_empty())),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics.collect())),
    ]);
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn read_json(rel: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        let text = std::fs::read_to_string(&path).expect("the file is in the checkout");
        Json::parse(&text).expect("valid JSON")
    }

    fn field_list(doc: &Json, list: &str, field: &str) -> Vec<String> {
        let items = doc.get(list).and_then(Json::as_arr).expect("a list");
        items.iter().map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string()).collect()
    }

    #[test]
    fn benchmark_json_and_interaction_map_name_every_metric() {
        let bench = read_json("../BENCHMARK.json");
        assert_eq!(field_list(&bench, "end_to_end", "name"), END_TO_END);
        assert_eq!(field_list(&bench, "per_layer", "name"), layers::names());
        assert_eq!(field_list(&bench, "workloads", "name"), WORKLOADS);
        let map = read_json("interactions.json");
        assert_eq!(field_list(&map, "interactions", "metric"), layers::names());
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload paper-sweep --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), ("paper-sweep", 9, 3.0, true));
        assert_eq!(parse_args(&argv("--workload server-loop")).unwrap().seed, DEFAULT_SEED);
        for bad in ["", "--workload nope", "--workload paper-sweep --trace 2", "--seconds 0"] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn headlines_compare_each_cell_with_its_groups_baseline() {
        let cell = |design, cycles, traffic, err| CellResult {
            workload: "w".into(),
            design,
            layout: LayoutKind::Soa,
            backend: BackendKind::Exact,
            cycles,
            traffic,
            output_error: err,
            instructions: 1,
        };
        let mut cells = vec![
            cell(DesignKind::Baseline, 100, 100, 0.0),
            cell(DesignKind::Avr, 50, 25, 0.5),
            cell(DesignKind::ZeroAvr, 100, 100, 0.0),
        ];
        // A cell whose group has no Baseline does not count.
        cells.push(CellResult { layout: LayoutKind::Aos, ..cell(DesignKind::Avr, 1, 1, 0.5) });
        let m = sim_headlines(&cells);
        assert!((m[0].value - 2f64.sqrt()).abs() < 1e-12); // speed-ups 2 and 1
        assert!((m[1].value - 0.5).abs() < 1e-12); // traffic 0.25 and 1
        assert_eq!(m[2].value, 0.25); // errors 0.5 and 0
    }
}
