//! # groupsa-servebench
//!
//! The serve benchmark. One run builds a workload's world, serves it
//! in-process (`serve::server::run_with` on `127.0.0.1:0`, two engine
//! workers) and drives it over NDJSON/TCP from the same process:
//!
//! 1. a **latency** phase — in end-to-end runs a *serial* closed loop
//!    (two connections, one request in flight on each, latency timed
//!    from each write); in the traced run an **open loop** (a seeded,
//!    jittered schedule at a fixed offered rate on one connection,
//!    latency timed from each request's *scheduled* send time);
//! 2. a **closed-loop** phase — two connections, each keeping a fixed
//!    window of pipelined requests in flight.
//!
//! After an untimed warm-up the pair runs in seven rounds; each timing
//! is the median of the rounds' figures.
//!
//! Every reply is validated, a sample is bit-compared against a direct
//! `FrozenModel::recommend` call, and the server's final `Stats` must
//! conserve requests. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it repeats the phases against a server
//! recording every request's lifecycle, replays the scoring layers on
//! the model's own weights, and prints the per-layer metrics.
//!
//! ```text
//! servebench --workload user-catalog --seed 1 --seconds 16 --trace 0
//! servebench --workload wire-snapshot --seed 1 --seconds 16 --repeat 5
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

mod clock;
mod layers;
mod plan;
mod stats;
mod wire;
mod world;

use groupsa_obs::TelemetryConfig;
use groupsa_serve::{Response, StatsSnapshot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use wire::{Checker, ClosedRun, Host, Ledger, OpenRun, Pool};
use world::{Workload, World};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Open-loop validity bounds: past these the generator, not the server,
/// shaped the numbers, and the run is invalid rather than slow.
/// The lateness bound allows for the two CPU-bound workers delaying the
/// generator's wake-ups by a scheduler slice on a two-core host; the
/// lateness itself is part of every latency (timed from the schedule).
const LATENESS_P95_BOUND_MS: f64 = 25.0;
/// A backlog past one second of offered requests (and at least 16) is
/// a queue that is not draining, not a scheduling hiccup.
const BACKLOG_BOUND_S: f64 = 1.0;
const BACKLOG_FLOOR: usize = 16;

/// A p95 needs this many samples to have ten beyond it; counted over
/// the run's latency phases together.
const MIN_LATENCY_SAMPLES: usize = 200;

/// Id ranges: the warm-up and every (round, phase, connection) draw ids
/// from their own stride-wide range; the traced pass is offset past all
/// of them.
const ID_STRIDE: u64 = 1_000_000_000;
const TRACED_OFFSET: u64 = 100 * ID_STRIDE;
const PROBE_ID: u64 = 7;

/// Where a run keeps its snapshot files and trace output, relative to
/// the working directory (the checkout root).
const WORK_ROOT: &str = ".bench_work";

/// Seed reserved for confirming a claimed gain after the fact; never
/// used while tuning a change.
const HELD_OUT_SEED: u64 = 90_210;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, 1u64, 16.0f64, false, 0usize);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--repeat" => repeat = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, repeat })
}

/// Refuses to run with tracing or telemetry switched on from the
/// environment: `GROUPSA_TRACE` starts a registry timer per candidate
/// item inside γ attention, which would distort the catalog workloads,
/// and `GROUPSA_OBS_*` would override the injected telemetry config.
fn refuse_tracing_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key == groupsa_obs::TRACE_ENV || key.starts_with("GROUPSA_OBS_") {
            return Err(format!("{key} is set; unset it so the benchmark measures the untraced program"));
        }
    }
    Ok(())
}

/// One printed metric.
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A per-run working directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A round's latency phase.
pub enum Probe {
    /// Open loop at the workload's offered rate (traced pass).
    Open(OpenRun),
    /// Serial closed loop: one request in flight per connection.
    Serial(ClosedRun),
}

impl Probe {
    /// Latency of every valid reply in the phase, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        match self {
            Probe::Open(open) => open.latencies_ms(),
            Probe::Serial(serial) => serial.latencies_ms(),
        }
    }

    fn ledgers(&self) -> &[Ledger] {
        match self {
            Probe::Open(open) => std::slice::from_ref(&open.ledger),
            Probe::Serial(serial) => &serial.ledgers,
        }
    }

    fn open(&self) -> Option<&OpenRun> {
        match self {
            Probe::Open(open) => Some(open),
            Probe::Serial(_) => None,
        }
    }
}

/// One round: a latency phase, then a windowed closed-loop phase.
pub struct Round {
    /// The latency phase.
    pub probe: Probe,
    /// The windowed closed-loop phase.
    pub closed: ClosedRun,
}

/// One pass against one server: the warm-up and the rounds, plus the
/// server's final stats.
pub struct Pass {
    /// The untimed warm-up (validated like every phase).
    pub warmup: ClosedRun,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// The server's `Stats` after the last round.
    pub stats: StatsSnapshot,
}

impl Pass {
    /// Every connection's ledger.
    pub fn ledgers(&self) -> impl Iterator<Item = &Ledger> {
        self.warmup.ledgers.iter().chain(self.rounds.iter().flat_map(|r| r.probe.ledgers().iter().chain(&r.closed.ledgers)))
    }

    /// The open-loop phases (traced pass only).
    pub fn opens(&self) -> impl Iterator<Item = &OpenRun> {
        self.rounds.iter().filter_map(|r| r.probe.open())
    }

    /// Generator lateness of every open-loop request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.opens().flat_map(OpenRun::lateness_ms).collect()
    }

    /// The median of the rounds' figures. A phase of a few seconds
    /// swings with how requests happen to meet in one worker's batch
    /// drain (and, on `user-catalog`, coalesce), and outside load on a
    /// shared host comes in bursts; the median settles the first and
    /// ignores a burst that covers fewer than half of the rounds, while a
    /// slower program moves every round and so moves it too.
    pub fn per_round(&self, f: impl Fn(&Round) -> f64) -> f64 {
        stats::median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// The median over rounds of each round's latency percentile `p`.
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.per_round(|r| stats::percentile(&stats::sorted(&r.probe.latencies_ms()), p))
    }

    /// Requests written in both phases.
    pub fn attempted(&self) -> usize {
        self.ledgers().map(Ledger::attempted).sum()
    }

    /// Requests without a valid answer in both phases.
    pub fn failed(&self) -> usize {
        self.ledgers().map(Ledger::failed).sum()
    }

    /// Everything that makes the pass invalid.
    fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for l in self.ledgers() {
            out.extend(l.invalid.iter().take(5).cloned());
            if l.invalid.len() > 5 {
                out.push(format!("… and {} more invalid replies", l.invalid.len() - 5));
            }
            if l.missing() > 0 {
                out.push(format!("{} replies missing on the connection at id base {}", l.missing(), l.base));
            }
        }
        let s = &self.stats;
        if s.submitted != s.completed + s.errors + s.expired + s.shed {
            out.push(format!(
                "conservation broken: submitted {} != completed {} + errors {} + expired {} + shed {}",
                s.submitted, s.completed, s.errors, s.expired, s.shed
            ));
        }
        let lateness = stats::sorted(&self.lateness_ms());
        let late_p95 = stats::percentile(&lateness, 95.0);
        if late_p95 > LATENESS_P95_BOUND_MS {
            out.push(format!("open loop invalid: generator lateness p95 {late_p95:.2} ms > {LATENESS_P95_BOUND_MS} ms"));
        }
        for open in self.opens() {
            let (backlog, bound) = (open.max_backlog(), open.backlog_bound(BACKLOG_BOUND_S, BACKLOG_FLOOR));
            if backlog > bound {
                out.push(format!("open loop invalid: backlog reached {backlog} > {bound} requests"));
            }
        }
        out
    }
}

/// What a pass's latency phases are.
pub enum ProbePlan<'a> {
    /// One open-loop schedule per round.
    Open(&'a [wire::OpenPlan]),
    /// The same serial closed loop every round.
    Serial(&'a wire::ClosedPlan),
}

/// The phases of one pass.
pub struct PassPlan<'a> {
    /// Latency phases.
    pub probe: ProbePlan<'a>,
    /// Windowed closed-loop phase of every round.
    pub closed: &'a wire::ClosedPlan,
    /// Untimed warm-up before the rounds.
    pub warmup: &'a wire::ClosedPlan,
}

/// Runs the warm-up and every round against `host`; the phases walk the
/// request pool in order.
fn drive(host: &Host, pool: &Pool, checker: &Checker<'_>, plan: &PassPlan<'_>, offset: u64, keep_lines: bool) -> Result<Pass, String> {
    let bases = |i: u64| [offset + ID_STRIDE * i, offset + ID_STRIDE * (i + 1)];
    let warmup = wire::closed_loop(host.addr, pool, checker, plan.warmup, 0, bases(0), keep_lines)?;
    let mut next = warmup.next_spec;
    let mut rounds = Vec::with_capacity(plan::ROUNDS);
    for r in 0..plan::ROUNDS as u64 {
        let (probe_ids, closed_ids) = (bases(4 * r + 2), bases(4 * r + 4));
        let probe = match &plan.probe {
            ProbePlan::Open(opens) => {
                let open = &opens[r as usize];
                let run = wire::open_loop(host.addr, pool, checker, open, next, probe_ids[0], keep_lines)?;
                next += open.at.len();
                Probe::Open(run)
            }
            ProbePlan::Serial(serial) => {
                let run = wire::closed_loop(host.addr, pool, checker, serial, next, probe_ids, keep_lines)?;
                next = run.next_spec;
                Probe::Serial(run)
            }
        };
        let closed = wire::closed_loop(host.addr, pool, checker, plan.closed, next, closed_ids, keep_lines)?;
        next = closed.next_spec;
        rounds.push(Round { probe, closed });
    }
    let stats = wire::fetch_stats(host.addr)?;
    Ok(Pass { warmup, rounds, stats })
}

/// Runs `plan` against a fresh server over `world` that records every
/// request's lifecycle; returns the pass and the server's engine
/// (records, telemetry clock, reload entry point).
pub fn drive_traced(world: &World, pool: &Pool, plan: &PassPlan<'_>) -> Result<(Pass, Arc<groupsa_serve::Engine>), String> {
    let telemetry = TelemetryConfig { ring_capacity: 1 << 18, ..TelemetryConfig::sampling(1) };
    let host = Host::start(Arc::clone(&world.frozen), telemetry)?;
    let checker = Checker { frozen: &world.frozen, memory_backed: world.memory_backed };
    let pass = drive(&host, pool, &checker, plan, TRACED_OFFSET, true)?;
    let engine = Arc::clone(&host.engine);
    host.shutdown()?;
    Ok((pass, engine))
}

/// Set-up ends at the first valid reply: one pool request, validated.
fn first_reply(host: &Host, pool: &Pool, checker: &Checker<'_>) -> Result<(), String> {
    let spec = pool.spec(0);
    match wire::roundtrip(host.addr, &spec.request(PROBE_ID))? {
        Response::Recommend { id: PROBE_ID, items } => checker.check_items(spec, &items),
        other => Err(format!("first request answered with {other:?}")),
    }
}

/// Problems that make a pass invalid, including a bit comparison of
/// every sampled wire reply with a direct `FrozenModel::recommend`
/// call on the same model.
pub fn pass_problems(world: &World, pool: &Pool, pass: &Pass) -> Vec<String> {
    let mut out = pass.problems();
    for (idx, items) in pass.ledgers().flat_map(|l| &l.samples) {
        let spec = pool.spec(*idx);
        match world.frozen.recommend(spec.target, spec.k, spec.exclude_seen, spec.mode.group_mode()) {
            Ok(direct) => {
                let same = direct.len() == items.len()
                    && direct.iter().zip(items).all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
                if !same {
                    out.push(format!("wire reply for {spec:?} differs from FrozenModel::recommend"));
                }
            }
            Err(e) => out.push(format!("direct recommend for {spec:?} failed: {e}")),
        }
    }
    out
}

/// The end-to-end metrics of one pass. Timings and rates are each
/// round's figure, then the median over rounds (see
/// [`Pass::per_round`]).
pub fn end_to_end(pass: &Pass, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    let attempted = pass.attempted().max(1) as f64;
    vec![
        Metric { name: "setup_s", value: setup_s, unit: "s" },
        Metric {
            name: "throughput_rps",
            value: pass.per_round(|r| r.closed.valid_in_phase as f64 / r.closed.seconds),
            unit: "req/s",
        },
        Metric { name: "latency_p50_ms", value: pass.latency_ms(50.0), unit: "ms" },
        Metric { name: "success_rate", value: 1.0 - pass.failed() as f64 / attempted, unit: "ratio" },
        Metric {
            name: "cpu_us_per_req",
            value: pass.per_round(|r| r.closed.cpu_s * 1e6 / r.closed.valid_in_phase.max(1) as f64),
            unit: "us",
        },
        Metric { name: "peak_rss_mb", value: rss_mib, unit: "MiB" },
    ]
}

/// What a run prints.
struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str().map(str::to_string).ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    refuse_tracing_env()?;
    let work = WorkDir::create(args)?;
    let shape = plan::shape(args.workload);
    let round_s = args.seconds / plan::ROUNDS as f64;
    let probe_s = round_s * shape.probe_share;
    let closed_s = round_s - probe_s;
    // Inputs first: nothing below generates a request.
    let pool = plan::pool(args.workload, args.seed)?;

    // The served world is the first one built, so the peak RSS read
    // after the phases covers one world in a fresh process; the other
    // timed set-ups run once the phases are over.
    let (world, host, first_setup) = set_up(args.workload, &work.0, &pool)?;
    let cycle = match &world.snapshot_dirs {
        Some((a, b)) if shape.controls => plan::control_cycle(&(path_str(a)?, path_str(b)?)),
        _ => Vec::new(),
    };
    let opens = plan::open_plans(args.workload, args.seed, probe_s, &cycle);
    let serial = plan::serial_plan(probe_s);
    let closed = plan::closed_plan(args.workload, closed_s, &cycle);
    let warmup = plan::closed_plan(args.workload, plan::WARMUP.as_secs_f64(), &[]);
    let checker = Checker { frozen: &world.frozen, memory_backed: world.memory_backed };

    let untraced = PassPlan { probe: ProbePlan::Serial(&serial), closed: &closed, warmup: &warmup };
    let pass = drive(&host, &pool, &checker, &untraced, 0, false)?;
    host.shutdown()?;
    let rss_mib = stats::peak_rss_mib()?;
    let mut problems = pass_problems(&world, &pool, &pass);
    let per_round: Vec<usize> = pass.rounds.iter().map(|r| r.probe.latencies_ms().len()).collect();
    let samples: usize = per_round.iter().sum();
    println!(
        "{}: seed {} (held-out seed {HELD_OUT_SEED}); warm-up {:.1} s, then {} rounds of: serial loop {probe_s:.1} s \
         with 2 x 1 in flight ({samples} latency samples, at least {} a round), closed loop {closed_s:.1} s with \
         2 x {} in flight",
        args.workload.name(),
        args.seed,
        plan::WARMUP.as_secs_f64(),
        plan::ROUNDS,
        per_round.iter().min().unwrap_or(&0),
        shape.window
    );
    if samples < MIN_LATENCY_SAMPLES {
        eprintln!("warning: {samples} latency samples leave fewer than ten beyond p95; lengthen --seconds");
    }
    for (i, r) in pass.rounds.iter().enumerate() {
        let lat = stats::sorted(&r.probe.latencies_ms());
        println!(
            "round {i}: p50 {:.3} ms, p95 {:.3} ms over {} samples; closed loop {:.1} req/s",
            stats::percentile(&lat, 50.0),
            stats::percentile(&lat, 95.0),
            lat.len(),
            r.closed.valid_in_phase as f64 / r.closed.seconds
        );
    }
    println!(
        "requests attempted {}, failed {} (error_rate {:.6}); final stats: submitted {} completed {} errors {} \
         expired {} shed {} rejected {}",
        pass.attempted(),
        pass.failed(),
        pass.failed() as f64 / pass.attempted().max(1) as f64,
        pass.stats.submitted,
        pass.stats.completed,
        pass.stats.errors,
        pass.stats.expired,
        pass.stats.shed,
        pass.stats.rejected
    );

    if args.trace {
        let traced = layers::traced_run(&layers::TraceInputs {
            workload: args.workload,
            seed: args.seed,
            world: &world,
            pool: &pool,
            plan: &PassPlan { probe: ProbePlan::Open(&opens), closed: &closed, warmup: &warmup },
            untraced: &pass,
            work: &work.0,
            trace_dir: &Path::new(WORK_ROOT).join("trace"),
        })?;
        problems.extend(traced.problems);
        return Ok(Report {
            attempted: pass.attempted() + traced.attempted,
            failed: pass.failed() + traced.failed,
            problems,
            metrics: traced.metrics,
        });
    }

    drop(world);
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (world, host, seconds) = set_up(args.workload, &work.0, &pool)?;
        host.shutdown()?;
        drop(world);
        setups.push(seconds);
    }
    println!("set-ups: {setups:?} s");
    let metrics = end_to_end(&pass, stats::median(&setups), rss_mib);
    Ok(Report { attempted: pass.attempted(), failed: pass.failed(), problems, metrics })
}

/// Builds the workload's world and serves it; returns both and the
/// seconds from the start to the first valid reply.
fn set_up(workload: Workload, work: &Path, pool: &Pool) -> Result<(World, Host, f64), String> {
    let t0 = clock::now();
    let world = world::build(workload, work)?;
    let host = Host::start(Arc::clone(&world.frozen), TelemetryConfig::disabled())?;
    first_reply(&host, pool, &Checker { frozen: &world.frozen, memory_backed: world.memory_backed })?;
    Ok((world, host, t0.elapsed().as_secs_f64()))
}

fn print_report(report: &Report) -> bool {
    let mut correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("problem: {p}");
    }
    let mut fields = Vec::new();
    for m in &report.metrics {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("problem: metric {} is not finite", m.name);
            correct = false;
            continue;
        }
        fields.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    correct
}

/// The steadiness self-check: runs the workload `repeat` times (seeds
/// `seed..seed+repeat`) as child processes and prints each metric's
/// quartiles and spread — the spread a `BENCHMARK.json` bound must
/// exceed.
fn steadiness(args: &Args) -> Result<bool, String> {
    use groupsa_json::Json;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for i in 0..args.repeat as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &(args.seed + i).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let json = Json::parse(last).map_err(|e| format!("run {i}: no result line ({e})"))?;
        all_correct &= out.status.success() && json.get("correct") == Some(&Json::Bool(true));
        let Some(Json::Object(metrics)) = json.get("metrics") else {
            return Err(format!("run {i}: result has no metrics"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            match series.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => series.push((name.clone(), unit, vec![value])),
            }
        }
        eprintln!("steadiness: run {}/{} done", i + 1, args.repeat);
    }
    println!("{:<34} {:>8} {:>14} {:>14} {:>14} {:>8}", "metric", "unit", "q1", "median", "q3", "spread");
    for (name, unit, values) in &series {
        let (q1, q2, q3) = stats::quartiles(values);
        let spread = (q3 - q1) / q2.abs();
        let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("{name:<34} {unit:>8} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4}  [{}]", runs.join(" "));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <user-catalog|group-catalog|wire-snapshot> --seed <n> \
                 --seconds <s> --trace <0|1> [--repeat <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat > 0 {
        steadiness(&args)
    } else {
        run(&args).map(|report| print_report(&report))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
