//! The `tables` and `rivals` workloads: the paper's evaluation grid, one
//! SEQ run per kernel, then one `compare_with_seq` cell per kernel × PE
//! count, as the `report` binary's `ccdp_bench::run_grid_timed` runs it.
//!
//! The end-to-end throughputs come from passes that run those units one
//! at a time on one thread and are timed in process CPU seconds, scaled
//! to nominal seconds by the host speed ([`stats::Reference`]): on a
//! shared host with few cores, a pool as wide as `nproc` and wall time
//! measure how many cores other tenants leave free, not the simulator. The
//! traced run times `run_grid_timed` itself on its `nproc`-thread pool for
//! the pool's per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use ccdp_bench::{
    cell_config, paper_kernels, pooled, run_grid_timed, BenchKernel, Scale, PAPER_PES,
};
use ccdp_core::{compare_with_seq, run_seq, PipelineError, Scheme, SchemeMatrix};
use ccdp_ir::Program;
use t3d_sim::SimResult;

use crate::trace;
use crate::{pipeline, scheme_key, stats, Args, Report, SimAgg, Size};

/// Set-up is repeated this many times and its median reported.
const SETUP_TRIALS: usize = 25;

/// Cells the traced run's pooled passes collect before they stop, so that
/// the cell-time median has ten samples beyond it.
const TRACE_MIN_CELLS: usize = 20;

struct GridSpec {
    scale: Scale,
    kernels: &'static [&'static str],
    pes: Vec<usize>,
    schemes: Vec<Scheme>,
}

fn spec(workload: &str, size: Size) -> GridSpec {
    match (workload, size) {
        ("tables", Size::Full) => GridSpec {
            scale: Scale::Quick,
            kernels: &["MXM", "VPENTA", "TOMCATV", "SWIM"],
            pes: PAPER_PES.to_vec(),
            schemes: vec![Scheme::Base, Scheme::Ccdp],
        },
        ("tables", Size::Tiny) => GridSpec {
            scale: Scale::Quick,
            kernels: &["MXM"],
            pes: vec![1, 2, 4],
            schemes: vec![Scheme::Base, Scheme::Ccdp],
        },
        (_, Size::Full) => GridSpec {
            scale: Scale::Paper,
            kernels: &["MXM", "VPENTA"],
            pes: vec![16, 64],
            schemes: vec![Scheme::Mesi, Scheme::Dragon],
        },
        (_, Size::Tiny) => GridSpec {
            scale: Scale::Quick,
            kernels: &["MXM", "VPENTA"],
            pes: vec![16],
            schemes: vec![Scheme::Mesi, Scheme::Dragon],
        },
    }
}

/// Values pinned per run: cycles, accesses, cache hits, fills, bus
/// transactions.
type Pin = [u64; 5];

fn pin_of(r: &SimResult) -> Pin {
    let s = r.total_stats();
    [
        r.cycles,
        crate::accesses(&s),
        s.cache_hits,
        s.local_fills + s.remote_fills + s.staged_fills,
        s.bus_txns,
    ]
}

fn pins_file(workload: &str, size: Size) -> (&'static str, &'static str) {
    match (workload, size) {
        ("tables", Size::Full) => ("tables-full.txt", include_str!("../pins/tables-full.txt")),
        ("tables", Size::Tiny) => ("tables-tiny.txt", include_str!("../pins/tables-tiny.txt")),
        (_, Size::Full) => ("rivals-full.txt", include_str!("../pins/rivals-full.txt")),
        (_, Size::Tiny) => ("rivals-tiny.txt", include_str!("../pins/rivals-tiny.txt")),
    }
}

/// Output checks of every simulated run: coherence, numerics equal to the
/// sequential run, and the pinned values.
struct Checker {
    pins: BTreeMap<String, Pin>,
    /// `--write-pins`: collect instead of compare.
    collected: Option<BTreeMap<String, Pin>>,
}

impl Checker {
    fn new(text: &str, write: bool) -> Checker {
        let mut pins = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let nums: Vec<u64> = f[3..].iter().filter_map(|v| v.parse().ok()).collect();
            if let (3, Ok(pin)) = (f.len() - nums.len(), Pin::try_from(nums)) {
                pins.insert(f[..3].join(" "), pin);
            }
        }
        Checker {
            pins,
            collected: write.then(BTreeMap::new),
        }
    }

    fn check(
        &mut self,
        report: &mut Report,
        key: String,
        program: &Program,
        r: &SimResult,
        seq: Option<&SimResult>,
    ) {
        report.attempted += 1;
        if !r.oracle.is_coherent() {
            report.fail(format!("{key}: {} stale reads", r.oracle.stale_reads));
        }
        if let Some(seq) = seq {
            for a in &program.arrays {
                let bits = |x: &SimResult| -> Vec<u64> {
                    x.array_values(program, a.id)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                if bits(r) != bits(seq) {
                    report.fail(format!("{key}: array {} differs from SEQ", a.name));
                }
            }
        }
        let pin = pin_of(r);
        match &mut self.collected {
            Some(c) => {
                c.insert(key, pin);
            }
            None => match self.pins.get(&key) {
                Some(want) if *want == pin => {}
                Some(want) => report.fail(format!("{key}: got {pin:?}, pinned {want:?}")),
                None => report.fail(format!("{key}: no pinned values")),
            },
        }
    }
}

fn run_key(kernel: &str, pes: usize, scheme: Option<Scheme>) -> String {
    format!("{kernel} {pes} {}", scheme_key(scheme))
}

/// What one serial pass produced: per kernel, its SEQ run and one
/// [`SchemeMatrix`] per PE count.
type Rows = Vec<(SimResult, Vec<SchemeMatrix>)>;

/// One timed pass of the grid.
struct Pass {
    /// `VmHWM` during the pass (reset before it), with its results held.
    peak_rss_mb: f64,
    /// Σ wall seconds of the pass's units.
    wall_s: f64,
    /// Σ CPU seconds the process spent in the pass's units.
    cpu_s: f64,
    /// Host speed during the pass (see [`stats::Reference`]).
    speed: f64,
    accesses: u64,
    cells: usize,
}

/// The grid's units on the calling thread, in the order of
/// `run_grid_timed`: one SEQ run per kernel, then one `compare_with_seq`
/// cell per kernel × PE count. Each unit's wall and CPU time includes
/// building its configuration, as in `run_grid_timed`. The host speed is
/// sampled after every unit, outside its timing.
fn serial_pass(
    kernels: &[BenchKernel],
    spec: &GridSpec,
    reference: &mut stats::Reference,
) -> Result<(Rows, Pass), PipelineError> {
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut timed = |f: &mut dyn FnMut() -> Result<(), PipelineError>| {
        let (t, c) = (Instant::now(), stats::process_cpu_s());
        let r = f();
        cpu_s += stats::process_cpu_s() - c;
        wall_s += t.elapsed().as_secs_f64();
        reference.sample(cpu_s);
        r
    };
    let mut seqs = Vec::with_capacity(kernels.len());
    for k in kernels {
        timed(&mut || {
            seqs.push(run_seq(&k.program, &cell_config(k, spec.pes[0]))?);
            Ok(())
        })?;
    }
    let mut rows: Rows = Vec::with_capacity(kernels.len());
    let mut accesses = 0;
    for (k, seq) in kernels.iter().zip(seqs) {
        accesses += crate::accesses(&seq.total_stats());
        let mut row = Vec::with_capacity(spec.pes.len());
        for &p in &spec.pes {
            timed(&mut || {
                let cfg = cell_config(k, p);
                row.push(compare_with_seq(&k.program, &cfg, seq.clone(), &spec.schemes)?);
                Ok(())
            })?;
        }
        for m in &row {
            accesses += m
                .runs
                .iter()
                .map(|r| crate::accesses(&r.result.total_stats()))
                .sum::<u64>();
        }
        rows.push((seq, row));
    }
    let pass = Pass {
        peak_rss_mb: f64::NAN,
        wall_s,
        cpu_s,
        speed: reference.take().0,
        accesses,
        cells: kernels.len() * spec.pes.len(),
    };
    Ok((rows, pass))
}

pub fn run(args: &Args, workload: &str, report: &mut Report) -> Result<(), String> {
    let spec = spec(workload, args.size);
    report.note("scale", crate::json_str(spec.scale.name()));

    // Set-up: build the kernels and every cell's configuration, timed in
    // CPU seconds like the passes.
    let mut setup_s = Vec::with_capacity(SETUP_TRIALS);
    let mut kernels: Vec<BenchKernel> = Vec::new();
    for _ in 0..SETUP_TRIALS {
        let c = stats::process_cpu_s();
        kernels = paper_kernels(spec.scale)
            .into_iter()
            .filter(|k| spec.kernels.contains(&k.name))
            .collect();
        for k in &kernels {
            for &p in &spec.pes {
                std::hint::black_box(cell_config(k, p));
            }
        }
        setup_s.push(stats::process_cpu_s() - c);
    }
    let sim_threads = cell_config(&kernels[0], spec.pes[0]).sim.sim_threads.max(1);
    report.note("sim_threads", sim_threads.to_string());

    let (pin_name, pin_text) = pins_file(workload, args.size);
    let mut checker = Checker::new(pin_text, args.write_pins);
    if args.trace {
        return traced(args, &kernels, &spec, &mut checker, report);
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference = stats::Reference::new();
    let start = Instant::now();
    loop {
        if let Err(e) = stats::reset_peak_rss() {
            return Err(format!("cannot reset the peak RSS: {e}"));
        }
        let (rows, mut pass) = match serial_pass(&kernels, &spec, &mut reference) {
            Ok(out) => out,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("grid pass failed: {e}"));
                break;
            }
        };
        check_rows(&kernels, &spec, &rows, &mut checker, report);
        pass.peak_rss_mb =
            stats::peak_rss_mb("self").unwrap_or(f64::NAN) - stats::Reference::TABLE_MB;
        drop(rows);
        passes.push(pass);
        if args.write_pins || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if let Some(pins) = checker.collected.take() {
        return write_pins(pin_name, &pins);
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let list = |xs: Vec<f64>| {
        let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
        format!("[{}]", xs.join(","))
    };
    report.note("pool_threads", "1".to_string());
    report.note("passes", passes.len().to_string());
    report.note("pass_wall_s", list(per_pass(&|p| p.wall_s)));
    report.note("pass_cpu_s", list(per_pass(&|p| p.cpu_s)));
    report.note("host_speed", list(per_pass(&|p| p.speed)));
    report.note(
        "wall_accesses_per_s",
        stats::median(&per_pass(&|p| p.accesses as f64 / p.wall_s)).to_string(),
    );
    report.note(
        "cpu_accesses_per_s",
        stats::median(&per_pass(&|p| p.accesses as f64 / p.cpu_s)).to_string(),
    );
    // Nominal seconds: CPU seconds scaled by the host speed of the pass.
    report.put(
        "accesses_per_s",
        stats::median(&per_pass(&|p| p.accesses as f64 / (p.cpu_s * p.speed))),
        "1/s",
        passes.len(),
    );
    report.put(
        "jobs_per_s",
        stats::median(&per_pass(&|p| p.cells as f64 / (p.cpu_s * p.speed))),
        "1/s",
        passes.len(),
    );
    let setup_speed = stats::median(&per_pass(&|p| p.speed));
    report.put("setup_s", stats::median(&setup_s) * setup_speed, "s", setup_s.len());
    let peaks = per_pass(&|p| p.peak_rss_mb);
    if peaks.iter().any(|mb| !mb.is_finite()) {
        report.fail("cannot read VmHWM of the benchmark process".to_string());
    }
    report.put("peak_rss_mb", stats::median(&peaks), "MB", passes.len());
    Ok(())
}

/// The traced run: passes of the `report` harness path on its `nproc`
/// threads, for `--seconds` and until there are enough cells for the
/// cell-time median, then one pass replayed through the layer calls.
fn traced(
    args: &Args,
    kernels: &[BenchKernel],
    spec: &GridSpec,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<(), String> {
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut busy = Vec::new();
    let mut threads = 1;
    let start = Instant::now();
    while cell_ms.len() < TRACE_MIN_CELLS || start.elapsed().as_secs_f64() < args.seconds {
        let (grid, timing) = match run_grid_timed(kernels, &spec.pes, &spec.schemes) {
            Ok(g) => g,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("pooled grid pass failed: {e}"));
                return Ok(());
            }
        };
        let rows: Rows = grid
            .into_iter()
            .map(|row| (row[0].seq.clone(), row))
            .collect();
        check_rows(kernels, spec, &rows, checker, report);
        threads = timing.threads;
        cell_ms.extend(timing.cells.iter().flatten().map(|c| c.wall_seconds * 1e3));
        let pool_s: f64 = timing
            .seq
            .iter()
            .chain(timing.cells.iter().flatten())
            .map(|c| c.wall_seconds)
            .sum();
        busy.push(pool_s / (timing.threads as f64 * timing.wall_seconds));
    }
    report.note("pool_threads", threads.to_string());
    report.note("passes", busy.len().to_string());
    report.put_percentile("core.cell_p50_ms", &cell_ms, 0.5, "ms");
    report.put(
        "core.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        cell_ms.len(),
    );
    report.put("bench.pool_busy_frac", stats::median(&busy), "ratio", busy.len());

    let (spans, runs, overhead) = replay(kernels, spec, threads, checker, report);
    let units = kernels.len() * (1 + spec.pes.len());
    report.put("trace.overhead_frac", overhead, "ratio", units);
    let mut sims: BTreeMap<&str, SimAgg> = BTreeMap::new();
    for (key, s) in &runs {
        sims.entry(key).or_default().add(s);
    }
    report.put_layers(&spans, 1, &sims);
    crate::write_spans(args, &spans, report);
    Ok(())
}

/// Check every run of a pass: the SEQ runs against their pins, every
/// scheme run against its pin and its kernel's SEQ arrays.
fn check_rows(
    kernels: &[BenchKernel],
    spec: &GridSpec,
    rows: &Rows,
    checker: &mut Checker,
    report: &mut Report,
) {
    for (k, (seq, row)) in kernels.iter().zip(rows) {
        checker.check(report, run_key(k.name, 1, None), &k.program, seq, None);
        for (&p, m) in spec.pes.iter().zip(row) {
            for run in &m.runs {
                let key = run_key(k.name, p, Some(run.scheme));
                checker.check(report, key, &k.program, &run.result, Some(seq));
            }
        }
    }
}

/// One pass of the grid replayed through the layer calls of [`pipeline`]
/// on the same pool, each unit untraced and traced back to back. Checks
/// every traced run against its pin; returns the spans, the simulator
/// statistics of the runs by scheme, and the tracing overhead.
fn replay(
    kernels: &[BenchKernel],
    spec: &GridSpec,
    threads: usize,
    checker: &mut Checker,
    report: &mut Report,
) -> (Vec<trace::Span>, Vec<(&'static str, t3d_sim::PeStats)>, f64) {
    let t0 = Instant::now();
    let seqs = pooled(kernels.len(), threads, |ki| {
        let k = &kernels[ki];
        let cfg = cell_config(k, spec.pes[0]);
        trace::paired(t0, ki as u64, |t| {
            t.span("seq", |t| pipeline::seq(t, &k.program, &cfg))
        })
    });
    let n_cells = kernels.len() * spec.pes.len();
    let cells = pooled(n_cells, threads, |i| {
        let (k, p) = (&kernels[i / spec.pes.len()], spec.pes[i % spec.pes.len()]);
        let cfg = cell_config(k, p);
        trace::paired(t0, (kernels.len() + i) as u64, |t| {
            t.span("cell", |t| {
                pipeline::schemes(t, &k.program, &cfg, &spec.schemes)
            })
        })
    });
    let wall = |traced: bool| -> f64 {
        let pick = |off: f64, on: f64| if traced { on } else { off };
        seqs.iter()
            .map(|u| pick(u.untraced_s, u.traced_s))
            .sum::<f64>()
            + cells
                .iter()
                .map(|u| pick(u.untraced_s, u.traced_s))
                .sum::<f64>()
    };
    let overhead = wall(true) / wall(false) - 1.0;

    let mut spans = Vec::new();
    let mut sims = Vec::new();
    for (k, u) in kernels.iter().zip(seqs) {
        spans.push(u.spans);
        match u.out {
            Ok(r) => {
                sims.push(("seq", r.total_stats()));
                checker.check(report, run_key(k.name, 1, None), &k.program, &r, None);
            }
            Err(e) => report.fail(format!("replay {} seq: {e}", k.name)),
        }
    }
    for (i, u) in cells.into_iter().enumerate() {
        let (k, p) = (&kernels[i / spec.pes.len()], spec.pes[i % spec.pes.len()]);
        spans.push(u.spans);
        match u.out {
            Ok(runs) => {
                for (scheme, r) in runs {
                    sims.push((scheme.key(), r.total_stats()));
                    let key = run_key(k.name, p, Some(scheme));
                    checker.check(report, key, &k.program, &r, None);
                }
            }
            Err(e) => report.fail(format!("replay {} P={p}: {e}", k.name)),
        }
    }
    (trace::merge(spans), sims, overhead)
}

fn write_pins(name: &str, pins: &BTreeMap<String, Pin>) -> Result<(), String> {
    let mut text = String::from("# kernel pes scheme cycles accesses hits fills bus_txns\n");
    for (k, v) in pins {
        text.push_str(&format!("{k} {}\n", v.map(|x| x.to_string()).join(" ")));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {} pins to {}", pins.len(), path.display());
    Ok(())
}
