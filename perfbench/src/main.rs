//! `pxbench` — the benchmark command.
//!
//! ```text
//! pxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures every end-to-end metric; with `--trace 1`
//! it runs the workload once more under a span trace and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Each
//! measured phase runs in a fresh child process (`pxbench setup|campaign|
//! probe|trace ...`), so every per-process cache starts empty.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use px_perfbench::measure::{self, median, percentile};
use px_perfbench::traced::{self, PER_LAYER};
use px_perfbench::workload::Workload;
use px_perfbench::{END_TO_END, PINS};
use px_util::json::parse;
use px_util::{Json, ToJson};

/// Scratch directory (journals, span files), relative to the working
/// directory.
const SCRATCH: &str = ".perfbench";

/// Share of the measured time the campaign workloads spend on campaigns;
/// the engine runs that follow each campaign get the rest.
const CAMPAIGN_SHARE: f64 = 0.7;

/// Set-ups after each round of measurement: at least one, and as many as
/// fit in this share of the round's time.
const SETUP_SHARE: f64 = 0.25;

/// Length of one round of engine runs on the engine-only workload, s.
const ENGINE_ROUND_S: f64 = 2.0;

/// Repetitions of each phase: at least this many, so every figure is a
/// median.
const MIN_REPS: usize = 3;

/// Workers of every measured campaign: a closed loop of one per vCPU of
/// the 2-vCPU reference host.
const WORKERS: usize = 2;

/// Most of the traced wall time that may fall outside every layer span.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Throughputs are reported at this quantile of their samples (per
/// campaign, per round of engine runs), and set-up time at the mirror
/// quantile: the figure sustained in the slowest tenth of the run. On a
/// shared host whose speed switches between regimes ~1.5x apart for tens
/// of seconds at a time, a median flips between them run to run; the slow
/// tail stays in the slow regime whenever a run touches it.
const SUSTAINED: f64 = 0.1;

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child phases only: campaign workers.
    workers: usize,
    /// Child phases only: least rounds of engine runs.
    rounds: usize,
}

/// Parses the flags; `--workers` and `--rounds` are accepted only by the
/// child phases, so every reported figure comes from the same set-up.
fn parse_opts(args: &[String], child: bool) -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::RosterCold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: WORKERS,
        rounds: MIN_REPS,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: `{val}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?);
            }
            "--seed" => o.seed = num()?,
            "--seconds" => {
                o.seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{val}` is not a duration"))?;
            }
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{val}` (expected 0 or 1)")),
                };
            }
            "--workers" | "--rounds" if !child => {
                return Err(format!("{flag}: only for the child phases"));
            }
            "--workers" => o.workers = usize::try_from(num()?).map_err(|e| e.to_string())?,
            "--rounds" => o.rounds = usize::try_from(num()?).map_err(|e| e.to_string())?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("setup" | "campaign" | "probe" | "trace")) => (Some(s), &args[1..]),
        _ => (None, &args[..]),
    };
    let result = parse_opts(rest, sub.is_some()).and_then(|o| match sub {
        Some(s) => child(s, &o),
        None => report(&o),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pxbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn scratch_file(name: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(SCRATCH).map_err(|e| format!("{SCRATCH}: {e}"))?;
    Ok(Path::new(SCRATCH).join(format!("{name}-{}", std::process::id())))
}

/// A child phase: prints one JSON line.
fn child(sub: &str, o: &Opts) -> Result<ExitCode, String> {
    let (w, seed) = (o.workload, o.seed);
    let out = match sub {
        "setup" => Json::obj([("setup_s", measure::setup(w, seed).to_json())]),
        "campaign" => measure::campaign_child(w, seed, &scratch_file("journal")?, o.workers)?,
        "probe" => measure::probe_child(w, seed, o.seconds, o.rounds),
        _ => {
            let spans = Path::new(SCRATCH).join(format!("trace-{}-{seed}.ndjson", w.name()));
            let t = traced::run(w, seed, &scratch_file("trace-journal")?, &spans)?;
            traced::to_json(&t)
        }
    };
    println!("{}", out.dump());
    Ok(ExitCode::SUCCESS)
}

/// Runs `pxbench <sub> ...` in a fresh process and parses its JSON line.
fn spawn(sub: &str, o: &Opts, extra: &[(&str, String)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg(sub)
        .args(["--workload", o.workload.name()])
        .args(["--seed", &o.seed.to_string()]);
    for (k, v) in extra {
        cmd.args([k, v.as_str()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn {sub}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{sub} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    parse(line).map_err(|e| format!("{sub} child output: {e:?}"))
}

fn num(j: &Json) -> f64 {
    match j {
        Json::Float(v) => *v,
        other => other.as_u64().map_or(0.0, |v| v as f64),
    }
}

fn f64_of(j: &Json, key: &str) -> f64 {
    j.get(key).map_or(0.0, num)
}

fn floats_of(j: &Json) -> Vec<f64> {
    match j {
        Json::Arr(xs) => xs.iter().map(num).collect(),
        _ => Vec::new(),
    }
}

fn obj_of<'a>(j: &'a Json, key: &str) -> Vec<(&'a str, &'a Json)> {
    match j.get(key) {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn str_of(j: &Json, key: &str) -> String {
    j.get(key).and_then(Json::as_str).unwrap_or("").to_owned()
}

/// The pinned digest `section/workload/seed`, when there is one.
fn pin(section: &str, w: Workload, seed: u64) -> Option<String> {
    let pins = parse(PINS).expect("pins.json parses");
    pins.get(section)?
        .get(w.name())?
        .get(&seed.to_string())
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// Output checks: each failure is one line of text.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn same(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.0.push(format!("{what}: got {got}, expected {want}"));
        }
    }

    fn pinned(&mut self, what: &str, got: &str, pinned: Option<String>) {
        if let Some(want) = pinned {
            self.same(&format!("{what} (pinned)"), got, &want);
        }
    }
}

fn report(o: &Opts) -> Result<ExitCode, String> {
    let (correct, attempted, failed, metrics) = if o.trace {
        traced_run(o)?
    } else {
        untraced_run(o)?
    };
    let metrics = Json::obj(metrics.into_iter().map(|(name, unit, v)| {
        (
            name,
            Json::obj([("value", v.to_json()), ("unit", unit.to_json())]),
        )
    }));
    for c in &correct.0 {
        eprintln!("pxbench: output check failed: {c}");
    }
    println!(
        "{}",
        Json::obj([
            ("correct", correct.0.is_empty().to_json()),
            ("attempted", attempted.to_json()),
            ("failed", failed.to_json()),
            ("metrics", metrics),
        ])
        .dump()
    );
    Ok(if correct.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn untraced_run(o: &Opts) -> Result<(Checks, u64, u64, Metrics), String> {
    let w = o.workload;
    let mut checks = Checks::default();
    let has_campaign = w.manifest(o.seed).is_some();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut rss = Vec::new();
    let mut modelled = None;
    let mut probes = Vec::new();
    let mut digests = Vec::new();

    // Each round runs one campaign (campaign workloads) and a share of
    // engine runs, then set-ups, so every phase samples the host across
    // the whole run rather than one stretch of it.
    let (mut measured_s, mut rounds) = (0.0, 0);
    while rounds < MIN_REPS || measured_s < o.seconds {
        let t = Instant::now();
        let probe_s = if has_campaign {
            let c = spawn("campaign", o, &[("--workers", WORKERS.to_string())])?;
            let total = f64_of(&c, "total");
            let wall = f64_of(&c, "wall_s");
            attempted += total as u64;
            failed += f64_of(&c, "failed") as u64;
            rates.push(total / wall);
            rss.push(f64_of(&c, "rss_mb"));
            digests.push(str_of(&c, "digest"));
            if modelled.is_none() {
                modelled = c.get("modelled").cloned();
            }
            wall * (1.0 - CAMPAIGN_SHARE) / CAMPAIGN_SHARE
        } else {
            ENGINE_ROUND_S
        };
        let p = spawn(
            "probe",
            o,
            &[
                ("--seconds", probe_s.to_string()),
                ("--rounds", "1".to_owned()),
            ],
        )?;
        if !has_campaign {
            rates.extend(floats_of(p.get("runs_per_s").unwrap_or(&Json::Null)));
            rss.push(f64_of(&p, "rss_mb"));
        }
        probes.push(p);
        let round_s = t.elapsed().as_secs_f64();
        measured_s += round_s;
        rounds += 1;

        let t = Instant::now();
        loop {
            setups.push(f64_of(&spawn("setup", o, &[])?, "setup_s"));
            if t.elapsed().as_secs_f64() >= SETUP_SHARE * round_s {
                break;
            }
        }
    }
    if has_campaign {
        for d in &digests[1..] {
            checks.same("campaign digest, rerun", d, &digests[0]);
        }
        checks.pinned("campaign digest", &digests[0], pin("campaign", w, o.seed));
    }

    let rows = str_of(&probes[0], "rows_digest");
    checks.pinned("engine rows digest", &rows, pin("rows", w, o.seed));
    let mut mips: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in &probes {
        if p.get("deterministic").and_then(Json::as_bool) != Some(true) {
            checks
                .0
                .push("engine rows differ between rounds".to_owned());
        }
        checks.same(
            "engine rows digest, rerun",
            &str_of(p, "rows_digest"),
            &rows,
        );
        attempted += f64_of(p, "attempted") as u64;
        failed += f64_of(p, "failed") as u64;
        for (name, rounds) in obj_of(p, "mips") {
            mips.entry(name).or_default().extend(floats_of(rounds));
        }
    }
    let modelled = modelled
        .or_else(|| probes[0].get("modelled").cloned())
        .ok_or("no modelled results")?;

    let mut m: Metrics = Vec::new();
    for (name, unit, _) in END_TO_END {
        let v = match name {
            "setup_s" => percentile(&setups, 1.0 - SUSTAINED),
            "cases_per_s" => percentile(&rates, SUSTAINED),
            "peak_rss_mb" => median(&rss),
            "completed_frac" => 1.0 - failed as f64 / attempted.max(1) as f64,
            "bugs_detected" => f64_of(&modelled, "bugs"),
            "edge_coverage" | "prime_path_coverage" => f64_of(&modelled, name),
            mips_name => {
                let engine = mips_name.trim_start_matches("sim_mips_");
                percentile(mips.get(engine).map_or(&[][..], Vec::as_slice), SUSTAINED)
            }
        };
        m.push((name, unit, v));
    }
    Ok((checks, attempted, failed, m))
}

fn traced_run(o: &Opts) -> Result<(Checks, u64, u64, Metrics), String> {
    let w = o.workload;
    let mut checks = Checks::default();
    let (attempted, failed, untraced_digest, untraced_s, parallel_wall) =
        if w.manifest(o.seed).is_some() {
            let par = spawn("campaign", o, &[("--workers", WORKERS.to_string())])?;
            let serial = spawn("campaign", o, &[("--workers", "1".to_owned())])?;
            (
                f64_of(&par, "total") as u64,
                f64_of(&par, "failed") as u64,
                str_of(&par, "digest"),
                f64_of(&serial, "wall_s"),
                Some(f64_of(&par, "wall_s")),
            )
        } else {
            let p = spawn(
                "probe",
                o,
                &[("--seconds", "0".to_owned()), ("--rounds", "1".to_owned())],
            )?;
            (
                f64_of(&p, "attempted") as u64,
                f64_of(&p, "failed") as u64,
                str_of(&p, "rows_digest"),
                f64_of(&p, "build_s") + f64_of(&p, "first_round_s"),
                None,
            )
        };
    let t = spawn("trace", o, &[])?;
    let traced_digest = str_of(&t, "digest");
    checks.same(
        "traced digest vs untraced",
        &traced_digest,
        &untraced_digest,
    );
    let section = if parallel_wall.is_some() {
        "campaign"
    } else {
        "rows"
    };
    checks.pinned("traced digest", &traced_digest, pin(section, w, o.seed));

    let total_s = f64_of(&t, "total_s");
    let layers = t.get("layers").cloned().unwrap_or(Json::Null);
    let unattributed = f64_of(&layers, "trace.unattributed_frac");
    if unattributed > MAX_UNATTRIBUTED {
        checks.0.push(format!(
            "unattributed time is {unattributed:.4} of traced wall, above {MAX_UNATTRIBUTED}"
        ));
    }
    let mut m: Metrics = Vec::new();
    for (name, unit, _) in PER_LAYER {
        let v = match name {
            "campaign.parallel_efficiency" => {
                parallel_wall.map_or(0.0, |wall| total_s / (WORKERS as f64 * wall))
            }
            "trace.overhead_frac" => (total_s - untraced_s) / untraced_s.max(1e-9),
            _ => f64_of(&layers, name),
        };
        m.push((name, unit, v));
    }
    Ok((checks, attempted, failed, m))
}
