//! `perfbench`: end-to-end and per-layer benchmark of the CCDP
//! reproduction.
//!
//! ```text
//! perfbench --workload tables|rivals|jobs --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--ccdpd PATH] [--write-pins]
//! ```
//!
//! Every number is measured from outside the program, by timing calls into
//! the repository crates' public functions (and, for `jobs`, HTTP requests
//! to a `ccdpd` child process). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics of a traced replay. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any output-check mismatch sets `correct` to false and exits 1.

mod grid;
mod jobs;
mod pipeline;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ccdp_core::Scheme;
use t3d_sim::PeStats;

use crate::trace::Span;

/// Environment knobs that change the engine or the problem size. The
/// numbers must describe the default engine, so the benchmark clears them
/// (and ccdpd inherits the cleared environment).
const ENGINE_ENV: [&str; 6] = [
    "CCDP_SIM_THREADS",
    "CCDP_SHARD_STATIC",
    "CCDP_FORCE_TREEWALK",
    "CCDP_SCALE",
    "CCDP_SERVE_WORKERS",
    "CCDP_COMPACT_BYTES",
];

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// Schemes with per-scheme simulator metrics.
const SIM_SCHEMES: [&str; 5] = ["seq", "base", "ccdp", "mesi", "dragon"];

/// Per-layer metrics of the traced run, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("ir.parse_ms", "ms"),
        ("ir.validate_ms", "ms"),
        ("dist.layout_ms", "ms"),
        ("analysis.stale_ms", "ms"),
        ("prefetch.plan_ms", "ms"),
        ("lint.verify_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for s in SIM_SCHEMES {
        m.push((format!("t3d.{s}.sim_ms"), "ms"));
        m.push((format!("t3d.{s}.ns_per_access"), "ns"));
        m.push((format!("t3d.{s}.accesses"), "count"));
        m.push((format!("t3d.{s}.hit_ratio"), "ratio"));
    }
    m.extend(
        [
            ("t3d.ccdp.prefetch_use_ratio", "ratio"),
            ("t3d.mesi.bus_txns", "count"),
            ("t3d.dragon.bus_txns", "count"),
            ("core.cell_p50_ms", "ms"),
            ("core.cell_max_ms", "ms"),
            ("bench.pool_busy_frac", "ratio"),
            ("json.decode_ms", "ms"),
            ("json.encode_ms", "ms"),
            ("serve.run_job_ms", "ms"),
            ("serve.overhead_ms", "ms"),
            ("serve.journal_record_ms", "ms"),
            ("serve.http_read_us", "us"),
            ("serve.cache_lookup_us", "us"),
            ("trace.overhead_frac", "ratio"),
            ("trace.unattributed_frac", "ratio"),
            ("miss_p50_ms", "ms"),
            ("miss_p90_ms", "ms"),
            ("hit_p50_ms", "ms"),
            ("error_frac", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    m
}

/// Problem size: `full` is the benchmark; `tiny` is the self-test smoke.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub ccdpd: Option<PathBuf>,
    pub write_pins: bool,
}

/// Where traced runs write their spans and `jobs` keeps its scratch
/// journals, relative to the repository root the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        ccdpd: None,
        write_pins: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|_| "--seed: expected a u64")?,
            "--seconds" => {
                args.seconds = val()?.parse().map_err(|_| "--seconds: expected a number")?
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--size" => {
                args.size = match val()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size: expected full or tiny, got {v}")),
                }
            }
            "--ccdpd" => args.ccdpd = Some(PathBuf::from(val()?)),
            "--write-pins" => args.write_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["tables", "rivals", "jobs"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: expected tables, rivals or jobs, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds: expected a positive number".to_string());
    }
    Ok(args)
}

#[derive(Clone, Copy)]
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    errors: Vec<String>,
    provenance: Vec<(String, String)>,
}

impl Report {
    /// Record a metric with the number of samples behind it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a percentile, or fail the run when too few samples lie
    /// beyond it to print one.
    pub fn put_percentile(&mut self, name: &str, xs: &[f64], p: f64, unit: &'static str) {
        match stats::percentile(xs, p) {
            Some(v) => self.put(name, v, unit, xs.len()),
            None => self.fail(format!(
                "{name}: {} samples leave fewer than 10 beyond p{}",
                xs.len(),
                (p * 100.0).round()
            )),
        }
    }

    /// Count one failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Record a provenance field (value already JSON-encoded).
    pub fn note(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    /// Per-layer metrics from a traced replay. `units` is the number of
    /// units the layer times are divided by (grid passes, or miss jobs);
    /// `sims` are the replay's per-scheme simulator statistics.
    pub fn put_layers(&mut self, spans: &[Span], units: usize, sims: &BTreeMap<&str, SimAgg>) {
        let by = trace::self_by_name(spans);
        let ms_per_unit = |name: &str| {
            by.get(name)
                .map_or(0.0, |&(_, ns)| ns as f64 / 1e6 / units as f64)
        };
        for (name, span) in [
            ("ir.parse_ms", "ir.parse"),
            ("ir.validate_ms", "ir.validate"),
            ("dist.layout_ms", "dist.layout"),
            ("analysis.stale_ms", "analysis.stale"),
            ("prefetch.plan_ms", "prefetch.plan"),
            ("lint.verify_ms", "lint.verify"),
            ("json.decode_ms", "json.decode"),
            ("json.encode_ms", "json.encode"),
            ("serve.journal_record_ms", "serve.journal_record"),
        ] {
            if by.contains_key(span) {
                self.put(name, ms_per_unit(span), "ms", units);
            }
        }
        for s in SIM_SCHEMES {
            let Some(agg) = sims.get(s) else { continue };
            let span = pipeline::sim_span(s);
            let ns = by.get(span).map_or(0, |&(_, ns)| ns);
            self.put(
                &format!("t3d.{s}.sim_ms"),
                ms_per_unit(span),
                "ms",
                agg.runs as usize,
            );
            self.put(
                &format!("t3d.{s}.ns_per_access"),
                ns as f64 / agg.accesses.max(1) as f64,
                "ns",
                agg.runs as usize,
            );
            self.put(
                &format!("t3d.{s}.accesses"),
                agg.accesses as f64 / units as f64,
                "count",
                agg.runs as usize,
            );
            self.put(
                &format!("t3d.{s}.hit_ratio"),
                ratio(agg.hits, agg.reads),
                "ratio",
                agg.runs as usize,
            );
            match s {
                "ccdp" => self.put(
                    "t3d.ccdp.prefetch_use_ratio",
                    ratio(agg.prefetch_used, agg.prefetch_issued),
                    "ratio",
                    agg.runs as usize,
                ),
                "mesi" | "dragon" => self.put(
                    &format!("t3d.{s}.bus_txns"),
                    agg.bus_txns as f64 / units as f64,
                    "count",
                    agg.runs as usize,
                ),
                _ => {}
            }
        }
        // Unattributed: time inside unit roots not covered by any layer
        // span, i.e. the roots' own self time.
        let own = trace::self_times(spans);
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() && UNIT_ROOTS.contains(&s.name) {
                total += s.dur_ns();
                unattributed += own[i];
            }
        }
        self.put(
            "trace.unattributed_frac",
            ratio(unattributed, total),
            "ratio",
            units,
        );
    }
}

/// Root span names of the units of work a replay is made of.
pub const UNIT_ROOTS: [&str; 3] = ["seq", "cell", "job"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated shared accesses of a run: every read outcome plus every
/// write. Unlike simulated cycles, it does not fall when the modelled
/// machine gets faster.
pub fn accesses(s: &PeStats) -> u64 {
    s.cache_hits
        + s.local_fills
        + s.remote_fills
        + s.staged_fills
        + s.bypass_reads
        + s.uncached_reads
        + s.writes_local
        + s.writes_remote
}

/// Simulator statistics of one scheme summed over a replay's runs.
#[derive(Default, Clone, Copy)]
pub struct SimAgg {
    pub runs: u64,
    pub accesses: u64,
    pub hits: u64,
    pub reads: u64,
    pub prefetch_issued: u64,
    pub prefetch_used: u64,
    pub bus_txns: u64,
}

impl SimAgg {
    pub fn add(&mut self, s: &PeStats) {
        self.runs += 1;
        self.accesses += accesses(s);
        self.hits += s.cache_hits;
        self.reads += s.cache_hits
            + s.local_fills
            + s.remote_fills
            + s.staged_fills
            + s.bypass_reads
            + s.uncached_reads;
        self.prefetch_issued += s.prefetch_words_issued;
        self.prefetch_used += s.prefetch_words_used;
        self.bus_txns += s.bus_txns;
    }
}

/// Lower-case key of a scheme, `"seq"` for the sequential run.
pub fn scheme_key(s: Option<Scheme>) -> &'static str {
    s.map_or("seq", Scheme::key)
}

/// Write the trace of a traced run under `dir`, after checking it is well
/// formed.
pub fn write_spans(args: &Args, spans: &[Span], report: &mut Report) {
    if let Err(e) = trace::validate(spans) {
        report.fail(format!("malformed span tree: {e}"));
    }
    let dir = std::path::Path::new(OUT_DIR);
    let path = dir.join(format!("spans-{}.jsonl", args.workload));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::to_jsonl(spans)));
    match written {
        Ok(()) => report.note("spans_file", json_str(&path.display().to_string())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    report.note("spans", spans.len().to_string());
}

pub fn json_str(s: &str) -> String {
    ccdp_json::Json::Str(s.to_string()).to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cleared = Vec::new();
    for var in ENGINE_ENV {
        if std::env::var_os(var).is_some() {
            // Single-threaded here: no thread has been spawned yet.
            std::env::remove_var(var);
            cleared.push(var);
        }
    }
    if !cleared.is_empty() {
        eprintln!("perfbench: cleared inherited {}", cleared.join(", "));
    }

    let mut report = Report::default();
    report.note("workload", json_str(&args.workload));
    report.note("seed", args.seed.to_string());
    report.note("seconds", args.seconds.to_string());
    report.note("trace", (args.trace as u8).to_string());
    report.note(
        "size",
        json_str(if args.size == Size::Full {
            "full"
        } else {
            "tiny"
        }),
    );
    report.note("nproc", stats::nproc().to_string());
    report.note("cpu_model", json_str(&stats::cpu_model()));
    report.note(
        "cleared_env",
        format!(
            "[{}]",
            cleared
                .iter()
                .map(|v| json_str(v))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );

    let outcome = match args.workload.as_str() {
        "jobs" => jobs::run(&args, &mut report),
        w => grid::run(&args, w, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.write_pins {
        return if report.failed() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.trace {
        let (failed, attempted) = (report.failed(), report.attempted);
        report.put(
            "error_frac",
            ratio(failed, attempted),
            "ratio",
            attempted as usize,
        );
    }
    let wanted: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut not_applicable = Vec::new();
    let mut fields = Vec::new();
    let mut samples = Vec::new();
    for (name, unit) in &wanted {
        let m = match report.metrics.get(name) {
            Some(&m) => m,
            None if args.trace => {
                // A layer this workload does not exercise did no work.
                not_applicable.push(json_str(name));
                Metric {
                    value: 0.0,
                    unit,
                    samples: 0,
                }
            }
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                return ExitCode::from(2);
            }
        };
        assert_eq!(m.unit, *unit, "unit of {name}");
        if !m.value.is_finite() {
            report.fail(format!("{name} is not finite"));
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!("metric {name} = {value} {} (samples {})", m.unit, m.samples);
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(m.unit)
        ));
        samples.push(format!("{}:{}", json_str(name), m.samples));
    }
    report.note("samples", format!("{{{}}}", samples.join(",")));
    report.note("not_applicable", format!("[{}]", not_applicable.join(",")));
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("provenance {{{}}}", provenance.join(","));
    for e in report.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    if report.attempted == 0 {
        report.fail("no operation was attempted".to_string());
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed(),
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
