//! End-to-end and per-layer benchmark for Amalur: dirty silos through
//! data integration to factorized, materialized, served and federated
//! models.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload <augment_pipeline|fig5_train|serve_mix|fed_private> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run sets up all four sections (`setup_s` is the median of
//! several set-ups), then runs them interleaved: the one the workload
//! names for `--seconds`, the others a few jobs each, so every run
//! reports every metric as a median over repetitions.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! first measures the workload's headline metric untraced (its own
//! section only), then runs everything with spans on; the difference is
//! `trace.overhead_pct`. Spans are
//! written to `pipeline_bench/traces/` when the run ends.

use amalur_cost::{calibrate, AmalurCostModel, CalibrationConfig};
use amalur_pipeline_bench::ctx::{Ctx, Section};
use amalur_pipeline_bench::stats::median;
use amalur_pipeline_bench::{fed, fig5, names, pipeline, serving, trace};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Jobs every section runs at least; the named section runs more until
/// it has spent `--seconds`.
const CONTEXT_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AugmentPipeline,
    Fig5Train,
    ServeMix,
    FedPrivate,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "augment_pipeline" => Self::AugmentPipeline,
            "fig5_train" => Self::Fig5Train,
            "serve_mix" => Self::ServeMix,
            "fed_private" => Self::FedPrivate,
            _ => return None,
        })
    }

    /// The end-to-end metric the tracing overhead is measured on.
    fn headline(self) -> &'static str {
        match self {
            Self::AugmentPipeline => "pipeline_cpu_s",
            Self::Fig5Train => "fact_train_cpu_s",
            Self::ServeMix => "serve_cpu_us.high",
            Self::FedPrivate => "vfl_shared_cpu_s",
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    Ok(Args {
        name: workload.to_owned(),
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds.clamp(1, 600) as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Everything the sections run on.
struct Setup {
    pipeline: pipeline::Setup,
    cells: Vec<fig5::Cell>,
    serving: serving::Setup,
    fed: fed::Inputs,
    model: AmalurCostModel,
}

impl Setup {
    fn shutdown(self) {
        self.pipeline.shutdown();
        self.serving.shutdown();
    }
}

/// Generates every input, starts both servers and calibrates the cost
/// model; returns the set-up and its calibration time in ms.
fn setup(seed: u64) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let report = calibrate(&CalibrationConfig::default());
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        Setup {
            pipeline: pipeline::setup(seed)?,
            cells: fig5::cells(seed, fig5::ROWS_S1)?,
            serving: serving::setup(seed)?,
            fed: fed::inputs(seed, fed::PHONES, fed::PATIENTS)?,
            model: AmalurCostModel::with_profile(report.profile),
        },
        calibrate_ms,
    ))
}

/// The four sections over one set-up, in a fixed order.
fn sections(s: &Setup) -> [(Workload, Box<dyn Section + '_>); 4] {
    [
        (
            Workload::AugmentPipeline,
            Box::new(pipeline::Runner::new(&s.pipeline, &s.model)),
        ),
        (
            Workload::Fig5Train,
            Box::new(fig5::Runner::new(&s.cells, &s.model)),
        ),
        (
            Workload::ServeMix,
            Box::new(serving::Runner::new(&s.serving)),
        ),
        (Workload::FedPrivate, Box::new(fed::Runner::new(&s.fed))),
    ]
}

/// Runs every section, interleaved so that a slow spell of the machine
/// lands on several sections' repetitions rather than on all of one: the
/// named section runs after each job of another section and until its
/// own jobs have taken `seconds`; the others run `CONTEXT_REPS` jobs.
/// With `only_focus`, the other sections do not run at all.
fn run_sections(s: &Setup, focus: Workload, seconds: f64, only_focus: bool, ctx: &mut Ctx) {
    let mut sections = sections(s);
    let f = sections
        .iter()
        .position(|(w, _)| *w == focus)
        .expect("every workload names a section");
    let mut reps = [0usize; 4];
    let mut focus_s = 0.0;
    loop {
        let context = (0..sections.len())
            .filter(|&i| i != f && !only_focus && reps[i] < CONTEXT_REPS)
            .min_by_key(|&i| reps[i]);
        let focus_left = reps[f] < CONTEXT_REPS || focus_s < seconds;
        if context.is_none() && !focus_left {
            break;
        }
        if let Some(i) = context {
            sections[i].1.rep(ctx);
            reps[i] += 1;
        }
        if focus_left {
            let t = Instant::now();
            sections[f].1.rep(ctx);
            focus_s += t.elapsed().as_secs_f64();
            reps[f] += 1;
        }
    }
    for (w, section) in &mut sections {
        if !only_focus || *w == focus {
            section.report(ctx);
        }
    }
}

/// High-water resident set of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-layer figures derived from the spans of a traced run.
fn span_metrics(ctx: &mut Ctx) {
    let spans = ctx.tracer.spans();
    let self_ms = trace::self_time_ms(&spans);
    for layer in names::LAYERS {
        ctx.set(
            format!("trace.self_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
        );
    }
    for (metric, root) in [
        ("trace.uncovered_share.pipeline", "pipeline_job"),
        ("trace.uncovered_share.fact_train", "fact_train"),
    ] {
        if let Some(v) = trace::uncovered_share(&spans, root) {
            ctx.set(metric, v);
        }
    }
}

fn json_line(ctx: &Ctx, names: &[(String, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = ctx
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.correct,
        ctx.attempted.max(1),
        ctx.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut calibrate_ms = Vec::new();
    let mut current = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = current.take() {
            Setup::shutdown(old);
        }
        let t = Instant::now();
        let (s, cal) = setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        calibrate_ms.push(cal);
        current = Some(s);
    }
    let s = current.ok_or("no set-up ran")?;

    let line = measure(args, &s, &setup_s, &calibrate_ms);
    s.shutdown();
    line
}

/// The measured part of a run, over the set-up `s`.
fn measure(
    args: &Args,
    s: &Setup,
    setup_s: &[f64],
    calibrate_ms: &[f64],
) -> Result<String, String> {
    let mut ctx = Ctx::new(args.trace, process_cpu);
    if args.trace {
        let half = args.seconds / 2.0;
        let mut plain = Ctx::new(false, process_cpu);
        run_sections(s, args.workload, half, true, &mut plain);
        let plain = plain.get(args.workload.headline());
        run_sections(s, args.workload, half, false, &mut ctx);
        if let (Some(p), Some(t)) = (plain, ctx.get(args.workload.headline())) {
            ctx.set("trace.overhead_pct", (t - p) / p * 100.0);
        }
        ctx.set("cost.calibrate_ms", median(calibrate_ms).unwrap_or(0.0));
        span_metrics(&mut ctx);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.name, args.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        json_line(&ctx, &names::per_layer())
    } else {
        run_sections(s, args.workload, args.seconds, false, &mut ctx);
        ctx.set("setup_s", median(setup_s).unwrap_or(0.0));
        ctx.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
        let e2e: Vec<(String, &str)> = names::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect();
        json_line(&ctx, &e2e)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, all threads included, also
/// those that have exited. The host's stolen time is not charged.
///
/// # Panics
/// When the clock cannot be read, which Linux rules out for this clock.
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux always provides; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Pins this process to the first CPU it may run on. Called before any
/// thread starts, so every thread inherits the mask, and the library's
/// kernel and server thread budgets (from `available_parallelism`) see
/// one CPU.
///
/// On a shared virtual machine the second virtual CPU is often stolen
/// by the host while both are busy; unpinned, serving latencies swung
/// tenfold between runs. One CPU keeps the figures comparable from run
/// to run, at the price of not measuring parallel speed-up.
fn pin_to_one_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list")?
        .trim();
    let first = allowed
        .split([',', '-'])
        .next()
        .filter(|c| c.parse::<usize>().is_ok())
        .ok_or(format!("cannot read CPU list {allowed:?}"))?;
    let pid = std::process::id().to_string();
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", first, &pid])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(first.to_owned())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("warning: running unpinned, figures are not comparable: {e}"),
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::process_cpu;
    use amalur_pipeline_bench::cpu::Stopwatch;
    use std::time::Duration;

    /// About 10 ms of arithmetic on one core.
    fn spin() -> u64 {
        (0..20_000_000u64).fold(0, |acc, i| std::hint::black_box(acc.wrapping_add(i)))
    }

    // Other tests run in parallel and add their own CPU time, so only
    // lower bounds can be checked here.

    #[test]
    fn work_on_this_thread_is_charged() {
        let w = Stopwatch::start(process_cpu);
        spin();
        let (wall, cpu) = w.read();
        assert!(cpu > 0.002 && wall > 0.0, "wall {wall} cpu {cpu}");
    }

    #[test]
    fn exited_threads_stay_charged() {
        let before = process_cpu();
        std::thread::spawn(spin).join().expect("spinner thread");
        assert!(process_cpu() - before > Duration::from_millis(2));
    }
}
