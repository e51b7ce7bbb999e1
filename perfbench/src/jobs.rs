//! The `jobs` workload: ccdpd driven over HTTP in a closed loop.
//!
//! One client connection at a time: each caller waits for its answer
//! before sending the next job. ccdpd runs with default flags apart from
//! port 0 and a fresh `--journal-dir`. The job stream is a pure function
//! of the seed: synthesized programs at extents 16/32/48 (below and above
//! the 1024-word modelled cache) on 4/8/16 PEs with the default schemes,
//! and one request in four resubmitting an earlier job byte for byte.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccdp_bench::pooled;
use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_core::{compare, PipelineConfig, Scheme};
use ccdp_json::{Json, ToJson};
use ccdp_serve::api::{self, JobSpec, RetryPolicy};
use ccdp_serve::cache::PlanCache;
use ccdp_serve::journal::JobJournal;
use ccdp_serve::{http, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use t3d_sim::SimOptions;

use crate::trace::{self, Tracer};
use crate::{pipeline, stats, Args, Report, SimAgg, Size};

/// Daemon start-ups per run; the median is `setup_s`.
const SETUP_TRIALS: usize = 21;
/// How long a start-up, a request or a drain may take before the run
/// fails.
const PATIENCE: Duration = Duration::from_secs(60);
/// Resubmissions pick among this many latest distinct jobs. It is below
/// ccdpd's default cache capacity (1024, evicted oldest first), so every
/// resubmission is a cache hit.
const RESUBMIT_WINDOW: usize = 512;
const EXTENTS: [usize; 3] = [16, 32, 48];
const N_PES: [usize; 3] = [4, 8, 16];

/// One distinct job of the stream.
struct Job {
    program: String,
    n_pes: usize,
    request: Vec<u8>,
}

/// The seeded job stream.
struct Stream {
    rng: StdRng,
    jobs: Vec<Job>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            jobs: Vec::new(),
        }
    }

    /// The next request: `(distinct job index, is a resubmission)`.
    fn next(&mut self) -> (usize, bool) {
        if !self.jobs.is_empty() && self.rng.gen_range(0..4) == 0 {
            let window = self.jobs.len().min(RESUBMIT_WINDOW);
            return (self.jobs.len() - 1 - self.rng.gen_range(0..window), true);
        }
        let k = self.jobs.len();
        let cfg = SynthConfig {
            extent: EXTENTS[k % 3],
            ..SynthConfig::default()
        };
        let program = ccdp_ir::print_program(&random_program(self.rng.gen(), &cfg));
        let n_pes = N_PES[(k / 3) % 3];
        let body =
            Json::obj([("program", program.to_json()), ("n_pes", n_pes.to_json())]).to_string();
        let request = format!(
            "POST /jobs HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        self.jobs.push(Job {
            program,
            n_pes,
            request,
        });
        (k, false)
    }
}

/// One HTTP/1.1 exchange on a fresh connection; the full raw response.
fn exchange(addr: &str, request: &[u8]) -> Result<Vec<u8>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    Ok(raw)
}

/// Status code and body of a raw response.
fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, &raw[head_end + 4..]))
}

fn get(addr: &str, path: &str) -> Result<(u16, Json), String> {
    let raw = exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes(),
    )?;
    let (status, body) = split_response(&raw).ok_or("malformed response")?;
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    Ok((status, ccdp_json::parse(text).map_err(|e| e.to_string())?))
}

mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    pub const SIGTERM: i32 = 15;
    pub const SIGKILL: i32 = 9;

    /// Send `sig` to a process this benchmark started.
    pub fn signal(pid: u32, sig: i32) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process; a stale pid at worst signals nothing.
        unsafe {
            kill(pid as i32, sig);
        }
    }
}

/// A running ccdpd. Dropping it without [`Daemon::stop`] kills the
/// supervisor and its workers and waits for the supervisor.
struct Daemon {
    child: Child,
    addr: String,
    workers: Arc<Mutex<Vec<u32>>>,
    reader: Option<JoinHandle<()>>,
    dir: PathBuf,
    stopped: bool,
}

impl Daemon {
    /// Spawn ccdpd and wait until `/readyz` answers 200.
    fn start(bin: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--journal-dir"])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let workers = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let seen = Arc::clone(&workers);
        // Reads until ccdpd exits, so its stdout never fills up.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("ccdpd worker ") {
                    if let Some(pid) = rest.split(" pid ").nth(1).and_then(|p| p.parse().ok()) {
                        seen.lock().expect("worker list lock").push(pid);
                    }
                } else if let Some(addr) = line.strip_prefix("ccdpd listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut d = Daemon {
            child,
            addr: String::new(),
            workers,
            reader: Some(reader),
            dir,
            stopped: false,
        };
        d.addr = rx
            .recv_timeout(PATIENCE)
            .map_err(|_| "ccdpd never listened".to_string())?;
        let deadline = Instant::now() + PATIENCE;
        while !matches!(get(&d.addr, "/readyz"), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("ccdpd never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(d)
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.workers.lock().expect("worker list lock").clone()
    }

    /// CPU seconds the supervisor and its workers have used so far, or
    /// `None` when one of them has exited.
    fn cpu_s(&self) -> Option<f64> {
        std::iter::once(self.child.id())
            .chain(self.worker_pids())
            .map(stats::proc_cpu_s)
            .sum()
    }

    /// SIGTERM, then require a clean drain: exit status 0 and no worker
    /// process left behind.
    fn stop(&mut self) -> Result<(), String> {
        self.stopped = true;
        sys::signal(self.child.id(), sys::SIGTERM);
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(s) => break s,
                None if Instant::now() > deadline => {
                    self.kill();
                    return Err("ccdpd did not drain".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "stdout reader panicked")?;
        }
        let pids = self.worker_pids();
        let deadline = Instant::now() + Duration::from_secs(5);
        let alive = |p: &u32| Path::new(&format!("/proc/{p}")).exists();
        while pids.iter().any(alive) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let left: Vec<u32> = pids.iter().copied().filter(alive).collect();
        for &p in &left {
            sys::signal(p, sys::SIGKILL);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if !status.success() {
            return Err(format!("ccdpd drain exited with {status}"));
        }
        if !left.is_empty() {
            return Err(format!("ccdpd left worker processes {left:?} behind"));
        }
        if pids.len() != ServerConfig::default().workers {
            return Err(format!("{} worker spawns (restarts happened)", pids.len()));
        }
        Ok(())
    }

    fn kill(&mut self) {
        for p in self.worker_pids() {
            sys::signal(p, sys::SIGKILL);
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            self.kill();
        }
    }
}

/// The configuration `api::run_job` builds for a job.
fn job_config(n_pes: usize) -> PipelineConfig {
    PipelineConfig::t3d(n_pes)
        .with_verify(true)
        .with_sim(SimOptions {
            cycle_budget: Some(api::CYCLE_BUDGET),
            step_budget: Some(api::STEP_BUDGET),
            wall_deadline: Some(
                Instant::now() + Duration::from_millis(ServerConfig::default().default_deadline_ms),
            ),
            ..SimOptions::default()
        })
}

const SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Ccdp];

/// In-process `compare` of one job: its expected cycles, its simulated
/// accesses and its wall time.
struct Expected {
    cycles: Result<(u64, u64, u64), String>,
    accesses: u64,
    wall_ms: f64,
}

fn expected(job: &Job) -> Expected {
    let t = Instant::now();
    let m = ccdp_ir::parse_program(&job.program)
        .map_err(|e| e.to_string())
        .and_then(|p| compare(&p, &job_config(job.n_pes), &SCHEMES).map_err(|e| e.to_string()));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    match m {
        Ok(m) => Expected {
            accesses: crate::accesses(&m.seq.total_stats())
                + m.runs
                    .iter()
                    .map(|r| crate::accesses(&r.result.total_stats()))
                    .sum::<u64>(),
            cycles: Ok((
                m.seq.cycles,
                m.cycles(Scheme::Base).unwrap_or(0),
                m.cycles(Scheme::Ccdp).unwrap_or(0),
            )),
            wall_ms,
        },
        Err(e) => Expected {
            cycles: Err(e),
            accesses: 0,
            wall_ms,
        },
    }
}

/// Cycles a 200 answer reports: (seq, base, ccdp).
fn answered_cycles(body: &[u8]) -> Option<(u64, u64, u64)> {
    let doc = ccdp_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let scheme = |s: &str| doc.get("schemes")?.get(s)?.get("cycles")?.as_u64();
    Some((
        doc.get("seq_cycles")?.as_u64()?,
        scheme("base")?,
        scheme("ccdp")?,
    ))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let bin = args
        .ccdpd
        .clone()
        .ok_or("the jobs workload needs --ccdpd PATH")?;
    let tmp = Path::new(crate::OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let result = run_in(args, &bin, &tmp, report);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

fn run_in(args: &Args, bin: &Path, tmp: &Path, report: &mut Report) -> Result<(), String> {
    report.note("scale", crate::json_str("synth extents 16/32/48"));
    report.note("ccdpd_workers", ServerConfig::default().workers.to_string());
    report.note(
        "sim_threads",
        SimOptions::default().sim_threads.max(1).to_string(),
    );

    // Set-up: spawn ccdpd until /readyz says 200; the last one is used.
    // Timed by the wall clock and by the CPU ccdpd used to get there.
    let mut setup_s = Vec::with_capacity(SETUP_TRIALS);
    let mut setup_cpu_s = Vec::with_capacity(SETUP_TRIALS);
    let mut daemon = None;
    for trial in 0..SETUP_TRIALS {
        let t = Instant::now();
        let mut d = Daemon::start(bin, tmp.join(format!("journal-{trial}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        match d.cpu_s() {
            Some(cpu) => setup_cpu_s.push(cpu),
            None => report.fail("cannot read the CPU time of a ccdpd start-up".to_string()),
        }
        if trial + 1 < SETUP_TRIALS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up trial");

    // The closed loop.
    let mut stream = Stream::new(args.seed);
    let mut first: Vec<Option<Vec<u8>>> = Vec::new();
    let mut miss_ms: Vec<(usize, f64)> = Vec::new();
    let mut hit_ms = Vec::new();
    let mut order = Vec::new();
    let mut busy_s = 0.0;
    let mut reference = stats::Reference::new();
    let cpu_before = daemon.cpu_s();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let (j, resubmit) = stream.next();
        first.resize(stream.jobs.len(), None);
        order.push(j);
        let t = Instant::now();
        let raw = exchange(&daemon.addr, &stream.jobs[j].request);
        let dt = t.elapsed().as_secs_f64();
        busy_s += dt;
        reference.sample(busy_s);
        report.attempted += 1;
        let raw = match raw {
            Ok(raw) => raw,
            Err(e) => {
                report.fail(format!("job {j}: {e}"));
                continue;
            }
        };
        match split_response(&raw) {
            Some((200, _)) => {}
            Some((status, body)) => {
                report.fail(format!(
                    "job {j}: status {status}: {}",
                    String::from_utf8_lossy(body)
                ));
                continue;
            }
            None => {
                report.fail(format!("job {j}: malformed response"));
                continue;
            }
        }
        if resubmit {
            hit_ms.push(dt * 1e3);
            if first[j].as_deref() != Some(raw.as_slice()) {
                report.fail(format!(
                    "job {j}: resubmission not byte-identical to its first answer"
                ));
            }
        } else {
            miss_ms.push((j, dt * 1e3));
            first[j] = Some(raw);
        }
    }

    let cpu_s = match (cpu_before, daemon.cpu_s()) {
        (Some(before), Some(after)) => after - before,
        _ => {
            report.fail("cannot read the CPU time of the ccdpd processes".to_string());
            f64::NAN
        }
    };
    let peak = daemon
        .worker_pids()
        .iter()
        .filter_map(|p| stats::peak_rss_mb(&p.to_string()))
        .fold(0.0, f64::max);
    match get(&daemon.addr, "/stats") {
        Ok((200, s)) => {
            let count = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
            if count("cache_hits") != hit_ms.len() as u64
                || count("cache_misses") != miss_ms.len() as u64
            {
                report.fail(format!(
                    "ccdpd counted {} hits / {} misses, the client {} / {}",
                    count("cache_hits"),
                    count("cache_misses"),
                    hit_ms.len(),
                    miss_ms.len()
                ));
            }
        }
        other => report.fail(format!("/stats: {other:?}")),
    }
    if let Err(e) = daemon.stop() {
        report.fail(e);
    }

    // Every first answer against an in-process compare of the same spec.
    let threads = stats::nproc();
    let exp = pooled(stream.jobs.len(), threads, |j| expected(&stream.jobs[j]));
    let mut accesses = 0u64;
    for (j, e) in exp.iter().enumerate() {
        let Some(raw) = &first[j] else { continue };
        let got = split_response(raw).and_then(|(_, body)| answered_cycles(body));
        match &e.cycles {
            Ok(want) if got == Some(*want) => accesses += e.accesses,
            Ok(want) => report.fail(format!(
                "job {j}: answered cycles {got:?}, in-process {want:?}"
            )),
            Err(err) => report.fail(format!("job {j}: in-process compare failed: {err}")),
        }
    }

    report.note("jobs", order.len().to_string());
    report.note("distinct_jobs", stream.jobs.len().to_string());
    // Nominal seconds: the CPU seconds ccdpd spent during the loop, scaled
    // by the host speed of the loop.
    let (speed, chunks) = reference.take();
    report.note("host_speed", speed.to_string());
    report.note("reference_chunks", chunks.to_string());
    report.note("ccdpd_cpu_s", cpu_s.to_string());
    report.note("wait_s", busy_s.to_string());
    report.note("wall_jobs_per_s", (order.len() as f64 / busy_s).to_string());
    report.note("setup_wall_s", stats::median(&setup_s).to_string());
    report.put(
        "setup_s",
        stats::median(&setup_cpu_s) * speed,
        "s",
        setup_cpu_s.len(),
    );
    report.put(
        "jobs_per_s",
        order.len() as f64 / (cpu_s * speed),
        "1/s",
        order.len(),
    );
    report.put(
        "accesses_per_s",
        accesses as f64 / (cpu_s * speed),
        "1/s",
        miss_ms.len(),
    );
    if peak > 0.0 {
        report.put("peak_rss_mb", peak, "MB", daemon.worker_pids().len());
    } else {
        report.fail("cannot read VmHWM of the ccdpd workers".to_string());
    }
    if !args.trace {
        return Ok(());
    }

    let miss: Vec<f64> = miss_ms.iter().map(|&(_, ms)| ms).collect();
    report.put_percentile("miss_p50_ms", &miss, 0.5, "ms");
    report.put_percentile("miss_p90_ms", &miss, 0.9, "ms");
    report.put_percentile("hit_p50_ms", &hit_ms, 0.5, "ms");
    let cell_ms: Vec<f64> = exp.iter().map(|e| e.wall_ms).collect();
    report.put_percentile("core.cell_p50_ms", &cell_ms, 0.5, "ms");
    report.put(
        "core.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        cell_ms.len(),
    );

    // Traced replay of the stream's first requests, in-process.
    let n = order
        .len()
        .min(if args.size == Size::Full { 200 } else { 60 });
    let prefix: Vec<(usize, &Job)> = order[..n].iter().map(|&j| (j, &stream.jobs[j])).collect();
    let on = replay(&prefix, tmp)?;
    report.put("trace.overhead_frac", on.overhead, "ratio", prefix.len());
    for (j, body) in &on.bodies {
        let http_body = first[*j]
            .as_deref()
            .and_then(split_response)
            .map(|(_, b)| b);
        if http_body != Some(body.as_bytes()) {
            report.fail(format!(
                "job {j}: in-process run_job body differs from the HTTP answer"
            ));
        }
    }
    for e in &on.errors {
        report.fail(e.clone());
    }

    let misses = on.run_job_ms.len();
    let by = trace::self_by_name(&on.spans);
    let us_per_call = |name: &str| {
        by.get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n as f64)
    };
    let calls = |name: &str| by.get(name).map_or(0, |&(n, _)| n as usize);
    report.put(
        "serve.http_read_us",
        us_per_call("serve.http_read"),
        "us",
        calls("serve.http_read"),
    );
    report.put(
        "serve.cache_lookup_us",
        us_per_call("serve.cache_lookup"),
        "us",
        calls("serve.cache_lookup"),
    );
    let run_job: Vec<f64> = on.run_job_ms.iter().map(|&(_, ms)| ms).collect();
    report.put_percentile("serve.run_job_ms", &run_job, 0.5, "ms");
    let overhead: Vec<f64> = on
        .run_job_ms
        .iter()
        .filter_map(|&(j, ms)| {
            miss_ms
                .iter()
                .find(|&&(m, _)| m == j)
                .map(|&(_, http)| http - ms)
        })
        .collect();
    report.put_percentile("serve.overhead_ms", &overhead, 0.5, "ms");
    report.put_layers(&on.spans, misses.max(1), &on.sims);
    crate::write_spans(args, &on.spans, report);
    Ok(())
}

struct ReplayOut {
    spans: Vec<trace::Span>,
    /// Traced over untraced replay wall, minus one.
    overhead: f64,
    /// (job, ms) of `api::run_job` for every miss.
    run_job_ms: Vec<(usize, f64)>,
    /// (job, response body) of every miss.
    bodies: Vec<(usize, String)>,
    sims: std::collections::BTreeMap<&'static str, SimAgg>,
    errors: Vec<String>,
}

/// The service state a replay runs against: a plan cache and a journal.
struct ServeState {
    cache: PlanCache,
    journal: JobJournal,
}

impl ServeState {
    fn open(journal_path: &Path) -> Result<ServeState, String> {
        let (journal, _) = JobJournal::open(journal_path, false, 0).map_err(|e| e.to_string())?;
        Ok(ServeState {
            cache: PlanCache::new(ServerConfig::default().cache_cap),
            journal,
        })
    }
}

/// What replaying one request produced.
#[derive(Default)]
struct UnitOut {
    run_job_ms: Option<f64>,
    body: Option<String>,
    sims: Vec<(&'static str, t3d_sim::PeStats)>,
    error: Option<String>,
}

/// Replay requests in-process through the calls ccdpd makes for them:
/// request parse, spec decode, cache lookup and, on a miss, the pipeline,
/// the response encode and the fsynced journal records. `api::run_job` of
/// each miss is timed alongside, as a root of its own. Each request runs
/// untraced and traced back to back, against separate service states.
fn replay(jobs: &[(usize, &Job)], dir: &Path) -> Result<ReplayOut, String> {
    let states = [
        ServeState::open(&dir.join("replay-off.jsonl"))?,
        ServeState::open(&dir.join("replay-on.jsonl"))?,
    ];
    let mut answered = std::collections::BTreeSet::new();
    let t0 = Instant::now();
    let mut units = Vec::with_capacity(jobs.len());
    for (u, &(j, job)) in jobs.iter().enumerate() {
        let first = answered.insert(j);
        units.push(trace::paired(t0, u as u64, |t| {
            let state = &states[t.enabled() as usize];
            replay_one(t, state, job, first)
        }));
    }
    let untraced: f64 = units.iter().map(|u| u.untraced_s).sum();
    let traced: f64 = units.iter().map(|u| u.traced_s).sum();
    let mut out = ReplayOut {
        spans: Vec::new(),
        overhead: traced / untraced - 1.0,
        run_job_ms: Vec::new(),
        bodies: Vec::new(),
        sims: Default::default(),
        errors: Vec::new(),
    };
    let mut parts = Vec::with_capacity(units.len());
    for (&(j, _), u) in jobs.iter().zip(units) {
        parts.push(u.spans);
        let o = u.out;
        if let Some(ms) = o.run_job_ms {
            out.run_job_ms.push((j, ms));
        }
        if let Some(body) = o.body {
            out.bodies.push((j, body));
        }
        for (s, stats) in &o.sims {
            out.sims.entry(s).or_default().add(stats);
        }
        if let Some(e) = o.error {
            out.errors.push(format!("replay of job {j}: {e}"));
        }
    }
    out.spans = trace::merge(parts);
    Ok(out)
}

fn replay_one(t: &mut Tracer, state: &ServeState, job: &Job, first: bool) -> UnitOut {
    let mut out = UnitOut::default();
    // The service's own runner on a first submission, timed whole.
    let run_job = first.then(|| {
        let spec = JobSpec {
            program_text: job.program.clone(),
            n_pes: job.n_pes,
            schemes: SCHEMES.to_vec(),
            deadline_ms: ServerConfig::default().default_deadline_ms,
        };
        let c = Instant::now();
        let r = t.span("serve.run_job", |_| {
            api::run_job(&spec, &RetryPolicy::default())
        });
        out.run_job_ms = Some(c.elapsed().as_secs_f64() * 1e3);
        r.body
    });
    let outcome = t.span("job", |t| -> Result<(), String> {
        let req = t
            .span("serve.http_read", |_| {
                http::read_request(&mut Cursor::new(&job.request), 1 << 20)
            })
            .map_err(|e| e.to_string())?;
        let spec = t
            .span("json.decode", |_| {
                let doc = ccdp_json::parse(std::str::from_utf8(&req.body).ok()?).ok()?;
                JobSpec::from_json(&doc, ServerConfig::default().default_deadline_ms).ok()
            })
            .ok_or("undecodable job")?;
        let fp = t.span("serve.cache_lookup", |_| {
            let fp = spec.fingerprint().to_hex();
            state.cache.lookup_done(&fp).is_none().then_some(fp)
        });
        let (Some(fp), Some(doc)) = (fp, run_job.as_ref()) else {
            return match run_job {
                Some(_) => Err("first submission found in the cache".to_string()),
                None => Ok(()),
            };
        };
        let program = t
            .span("ir.parse", |_| ccdp_ir::parse_program(&spec.program_text))
            .map_err(|e| e.to_string())?;
        let cfg = job_config(spec.n_pes);
        let seq = pipeline::seq(t, &program, &cfg)?;
        let runs = pipeline::schemes(t, &program, &cfg, &spec.schemes)?;
        out.sims.push(("seq", seq.total_stats()));
        for (s, r) in &runs {
            out.sims.push((s.key(), r.total_stats()));
        }
        let body = t.span("json.encode", |_| doc.to_string());
        let response = http::response_bytes(200, "OK", &body);
        t.span("serve.journal_record", |_| {
            state
                .journal
                .record_job(&fp, &spec)
                .and_then(|_| state.journal.record_done(&fp, &response))
        })
        .map_err(|e| e.to_string())?;
        state.cache.insert_done(&fp, response);
        out.body = Some(body);
        Ok(())
    });
    out.error = outcome.err();
    out
}
