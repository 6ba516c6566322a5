//! Command-line parsing for `pxc` (no external dependencies).

use pathexpander::PxConfig;
use px_detect::Tool;
use px_mach::{FaultMix, FaultPlan, IoState};

/// Usage text.
pub const USAGE: &str = "\
pxc — PathExpander command-line driver

USAGE:
    pxc run   <file.pxc|file.pxs> [options]   compile + run under PathExpander
    pxc base  <file.pxc|file.pxs> [options]   compile + plain monitored run
    pxc build <file.pxc|file.pxs> [options]   compile only
    pxc bench <workload>          [options]   run a bundled workload
    pxc analyze <file|workload>   [options]   static CFG analysis + lint
    pxc list                                  list bundled workloads
    pxc zoo list                              list the generated-zoo roster
    pxc zoo generate <spec>       [options]   print a generated program
    pxc zoo run <spec>            [options]   run a generated program
    pxc campaign --cases <manifest> [opts]    crash-safe case campaign
    pxc help                                  this text

    Zoo specs name generated programs: zoo:<shape>:<seed>[:n<size>][:<mix>]
    with shapes state-machine|parser|interpreter|recursive, sizes n1..n4 and
    bug mixes full|cold|lean|none (e.g. `zoo:parser:3:n3:lean`). Zoo names
    are also accepted by `pxc bench` and `pxc analyze`.

OPTIONS:
    --tool <ccured|iwatcher|assertions>  detector to arm (default: assertions)
    --cmp                                use the CMP option (4 cores)
    --max-nt-len <n>                     MaxNTPathLength (default 1000)
    --threshold <n>                      NTPathCounterThreshold (default 5)
    --max-outstanding <n>                MaxNumNTPaths for --cmp (default 32)
    --no-fixes                           disable §4.4 variable fixing
    --no-memo                            disable the standard engine's NT-path
                                         replay cache (architecturally
                                         identical, slower; --cmp never replays)
    --os-sandbox                         sandbox unsafe events (§3.2 extension)
    --random-factor <n>                  1-in-n spawns from hot edges (§7.1(2))
    --refit                              profile-guided fix refitting (§4.4
                                         value-invariants extension): profile
                                         on the run's input, then refit
    --input <file>                       program stdin from a file
    --input-text <string>                program stdin from the argument
    --seed <n>                           input/rand seed (default 1)
    --budget <n>                         instruction budget (default 100M)
    --fault-seed <n>                     inject NT-path faults from this seed
    --fault-mix <spec>                   fault kinds to inject, e.g.
                                         bitflip,crash=3 (implies injection)
    --fault-rate <n>                     inject roughly 1-in-n NT steps
                                         (default 4)
    --static-filter <k>                  (run/bench) veto NT spawns that must
                                         hit an unsafe event within k insns
    --json                               (analyze) machine-readable output
    --path-cover                         (analyze) emit a minimal edge cover
                                         of the feasible prime paths
    --disasm                             (build) print the disassembly
    --annotate                           (run) print coverage-annotated
                                         disassembly: [T./N] per branch edge
    --verbose                            print NT-path stop breakdown

CAMPAIGN OPTIONS (pxc campaign):
    --cases <manifest>                   case manifest: `+`-joined generators
                                         fault:<seed>:<n>[:<mix>],
                                         zoo:<spec>[*K], zoo-roster[:quick],
                                         chaos:<seed>:<n>
    --journal <path>                     NDJSON journal (default
                                         px-campaign.ndjson); an existing
                                         journal for the same manifest is
                                         resumed, torn tail healed
    --timeout <n>                        per-case instruction watchdog
    --workers <n>                        worker threads (default: cores)
    --max-quarantine <n>                 abort (resumably) past n quarantined
    --only <id>                          replay one case inline, no journal
    --no-resume                          start fresh, overwriting any journal
    --json                               machine-readable report
";

/// What to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Run(String),
    Base(String),
    Build(String),
    Bench(String),
    Analyze(String),
    List,
    Zoo(ZooCmd),
    Campaign(CampaignOpts),
    Help,
}

/// Options for `pxc campaign` (parsed by a dedicated loop — campaign flags
/// describe a whole fleet of runs, not one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOpts {
    /// The case manifest spec (`fault:…+zoo:…+chaos:…`).
    pub cases: String,
    /// Journal path (default `px-campaign.ndjson`).
    pub journal: String,
    /// Per-case instruction watchdog.
    pub timeout: u64,
    /// Worker threads (0 = one per core).
    pub workers: usize,
    /// Abort (resumably) once more than this many cases are quarantined.
    pub max_quarantine: Option<u64>,
    /// Replay a single case id inline (the quarantine replay command).
    pub only: Option<u64>,
    /// Start fresh, overwriting any existing journal.
    pub no_resume: bool,
    /// Emit the report as JSON.
    pub json: bool,
}

/// `pxc zoo` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZooCmd {
    /// Print the E15 roster.
    List,
    /// Print the generated program and its bug manifest.
    Generate(String),
    /// Run the generated program under PathExpander.
    Run(String),
}

/// Parsed options.
#[derive(Debug, Clone)]
pub struct Options {
    pub action: Action,
    pub tool: Option<Tool>,
    pub px: PxConfig,
    pub input_file: Option<String>,
    pub input_text: Option<String>,
    pub seed: u64,
    pub disasm: bool,
    pub verbose: bool,
    pub refit: bool,
    pub annotate: bool,
    /// Emit machine-readable JSON (`analyze`).
    pub json: bool,
    /// `pxc analyze`: emit the Empc-style minimal edge cover of the
    /// feasible prime paths instead of the full analysis.
    pub path_cover: bool,
    /// Seed for NT-path fault injection (enables injection when set).
    pub fault_seed: Option<u64>,
    /// Fault kinds to inject (enables injection when set).
    pub fault_mix: Option<FaultMix>,
    /// Inject roughly one fault every `fault_rate` NT steps.
    pub fault_rate: u32,
    /// Known bug lines (set by `bench` from the workload manifest).
    pub bug_lines: Vec<u32>,
}

impl Options {
    /// Parses a raw argument list.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for unknown flags or missing values.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut it = args.iter().peekable();
        let action = match it.next().map(String::as_str) {
            None | Some("help" | "--help" | "-h") => Action::Help,
            Some("list") => Action::List,
            Some(verb @ ("run" | "base" | "build" | "bench" | "analyze")) => {
                let target = it
                    .next()
                    .ok_or_else(|| format!("`{verb}` needs a file or workload name"))?
                    .clone();
                match verb {
                    "run" => Action::Run(target),
                    "base" => Action::Base(target),
                    "build" => Action::Build(target),
                    "analyze" => Action::Analyze(target),
                    _ => Action::Bench(target),
                }
            }
            Some("zoo") => match it.next().map(String::as_str) {
                Some("list") => Action::Zoo(ZooCmd::List),
                Some(sub @ ("generate" | "run")) => {
                    let spec = it
                        .next()
                        .ok_or_else(|| format!("`zoo {sub}` needs a spec (e.g. zoo:parser:3)"))?
                        .clone();
                    if sub == "generate" {
                        Action::Zoo(ZooCmd::Generate(spec))
                    } else {
                        Action::Zoo(ZooCmd::Run(spec))
                    }
                }
                Some(other) => {
                    return Err(format!(
                        "unknown zoo subcommand `{other}` (expected list, generate or run)"
                    ))
                }
                None => return Err("`zoo` needs a subcommand: list, generate or run".to_owned()),
            },
            Some("campaign") => Action::Campaign(parse_campaign(&mut it)?),
            Some(other) => return Err(format!("unknown command `{other}`")),
        };

        let mut opts = Options {
            action,
            tool: None,
            px: PxConfig::default().with_max_instructions(100_000_000),
            input_file: None,
            input_text: None,
            seed: 1,
            disasm: false,
            verbose: false,
            refit: false,
            annotate: false,
            json: false,
            path_cover: false,
            fault_seed: None,
            fault_mix: None,
            fault_rate: 4,
            bug_lines: Vec::new(),
        };

        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("`{name}` needs a value"))
            };
            match flag.as_str() {
                "--tool" => {
                    opts.tool = Some(match value("--tool")?.as_str() {
                        "ccured" => Tool::Ccured,
                        "iwatcher" => Tool::Iwatcher,
                        "assertions" => Tool::Assertions,
                        other => return Err(format!("unknown tool `{other}`")),
                    });
                }
                "--cmp" => opts.px = opts.px.clone().cmp(),
                "--max-nt-len" => {
                    opts.px = opts
                        .px
                        .clone()
                        .with_max_nt_path_len(parse_num(&value("--max-nt-len")?)?);
                }
                "--threshold" => {
                    let n: u32 = parse_num(&value("--threshold")?)?;
                    opts.px = opts.px.clone().with_counter_threshold(n.min(255) as u8);
                }
                "--max-outstanding" => {
                    opts.px = opts
                        .px
                        .clone()
                        .with_max_outstanding(parse_num(&value("--max-outstanding")?)?);
                }
                "--no-fixes" => opts.px = opts.px.clone().with_fixes(false),
                "--no-memo" => opts.px = opts.px.clone().with_nt_memo(false),
                "--os-sandbox" => opts.px = opts.px.clone().with_os_sandbox(true),
                "--random-factor" => {
                    opts.px = opts
                        .px
                        .clone()
                        .with_random_factor(Some(parse_num(&value("--random-factor")?)?));
                }
                "--input" => opts.input_file = Some(value("--input")?),
                "--input-text" => opts.input_text = Some(value("--input-text")?),
                "--seed" => opts.seed = parse_u64("--seed", &value("--seed")?)?,
                "--budget" => {
                    let n = parse_u64("--budget", &value("--budget")?)?;
                    if n == 0 {
                        return Err("`--budget` must be at least 1 instruction".to_owned());
                    }
                    opts.px = opts.px.clone().with_max_instructions(n);
                }
                "--fault-seed" => {
                    opts.fault_seed = Some(parse_u64("--fault-seed", &value("--fault-seed")?)?);
                }
                "--fault-mix" => {
                    let spec = value("--fault-mix")?;
                    opts.fault_mix =
                        Some(FaultMix::parse(&spec).map_err(|e| format!("`--fault-mix`: {e}"))?);
                }
                "--fault-rate" => {
                    let n: u32 = parse_num(&value("--fault-rate")?)?;
                    if n == 0 {
                        return Err(
                            "`--fault-rate` must be at least 1 (one fault per NT step)".to_owned()
                        );
                    }
                    opts.fault_rate = n;
                }
                "--static-filter" => {
                    let k: u32 = parse_num(&value("--static-filter")?)?;
                    if k == 0 {
                        return Err("`--static-filter` must be at least 1".to_owned());
                    }
                    opts.px = opts.px.clone().with_static_nt_filter(Some(k));
                }
                "--json" => opts.json = true,
                "--path-cover" => opts.path_cover = true,
                "--disasm" => opts.disasm = true,
                "--verbose" => opts.verbose = true,
                "--refit" => opts.refit = true,
                "--annotate" => opts.annotate = true,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    /// Builds the run's fault-injection plan, if any fault flag was given.
    ///
    /// `--fault-mix` alone injects with the run seed; `--fault-seed` alone
    /// injects a uniform mix.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.fault_mix.is_none() {
            return None;
        }
        let seed = self.fault_seed.unwrap_or(self.seed);
        let mix = self.fault_mix.unwrap_or_else(FaultMix::uniform);
        Some(FaultPlan::new(seed, mix, self.fault_rate))
    }

    /// Builds the program's input state.
    ///
    /// # Errors
    ///
    /// Reports unreadable input files.
    pub fn io(&self) -> Result<IoState, String> {
        let bytes = if let Some(path) = &self.input_file {
            std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        } else if let Some(text) = &self.input_text {
            text.clone().into_bytes()
        } else {
            Vec::new()
        };
        Ok(IoState::new(bytes, self.seed))
    }
}

/// Drains the remaining arguments as `pxc campaign` flags.
fn parse_campaign(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<CampaignOpts, String> {
    let mut c = CampaignOpts {
        cases: String::new(),
        journal: "px-campaign.ndjson".to_owned(),
        timeout: px_campaign::Watchdog::DEFAULT_TIMEOUT,
        workers: 0,
        max_quarantine: None,
        only: None,
        no_resume: false,
        json: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match flag.as_str() {
            "--cases" => c.cases = value("--cases")?,
            "--journal" => c.journal = value("--journal")?,
            "--timeout" => {
                let n = parse_u64("--timeout", &value("--timeout")?)?;
                if n == 0 {
                    return Err("`--timeout` must be at least 1 instruction".to_owned());
                }
                c.timeout = n;
            }
            "--workers" => c.workers = parse_num(&value("--workers")?)? as usize,
            "--max-quarantine" => {
                c.max_quarantine =
                    Some(parse_u64("--max-quarantine", &value("--max-quarantine")?)?);
            }
            "--only" => c.only = Some(parse_u64("--only", &value("--only")?)?),
            "--no-resume" => c.no_resume = true,
            "--json" => c.json = true,
            other => return Err(format!("unknown campaign option `{other}`")),
        }
    }
    if c.cases.is_empty() {
        return Err(
            "`campaign` needs `--cases <manifest>` (e.g. --cases chaos:1:64+zoo:parser:3)"
                .to_owned(),
        );
    }
    Ok(c)
}

fn parse_num(s: &str) -> Result<u32, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("`{s}` is not a number"))
}

fn parse_u64(flag: &str, s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("`{flag}` expects an unsigned integer, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn verbs_parse() {
        assert_eq!(parse(&["help"]).unwrap().action, Action::Help);
        assert_eq!(parse(&[]).unwrap().action, Action::Help);
        assert_eq!(parse(&["list"]).unwrap().action, Action::List);
        assert_eq!(
            parse(&["run", "x.pxc"]).unwrap().action,
            Action::Run("x.pxc".into())
        );
        assert_eq!(
            parse(&["bench", "bc"]).unwrap().action,
            Action::Bench("bc".into())
        );
        assert_eq!(
            parse(&["analyze", "bc"]).unwrap().action,
            Action::Analyze("bc".into())
        );
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn zoo_verbs_parse() {
        assert_eq!(
            parse(&["zoo", "list"]).unwrap().action,
            Action::Zoo(ZooCmd::List)
        );
        assert_eq!(
            parse(&["zoo", "generate", "zoo:parser:3"]).unwrap().action,
            Action::Zoo(ZooCmd::Generate("zoo:parser:3".into()))
        );
        let o = parse(&[
            "zoo",
            "run",
            "zoo:recursive:1",
            "--tool",
            "ccured",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.action, Action::Zoo(ZooCmd::Run("zoo:recursive:1".into())));
        assert_eq!(o.tool, Some(Tool::Ccured));
        assert!(o.json);
        assert!(parse(&["zoo"]).is_err());
        assert!(parse(&["zoo", "generate"]).is_err());
        assert!(parse(&["zoo", "feed"]).is_err());
    }

    #[test]
    fn campaign_flags_parse() {
        let o = parse(&[
            "campaign",
            "--cases",
            "chaos:1:8+zoo:parser:3*2",
            "--journal",
            "j.ndjson",
            "--timeout",
            "50000",
            "--workers",
            "3",
            "--max-quarantine",
            "10",
            "--no-resume",
            "--json",
        ])
        .unwrap();
        let Action::Campaign(c) = o.action else {
            panic!("expected a campaign action");
        };
        assert_eq!(c.cases, "chaos:1:8+zoo:parser:3*2");
        assert_eq!(c.journal, "j.ndjson");
        assert_eq!(c.timeout, 50_000);
        assert_eq!(c.workers, 3);
        assert_eq!(c.max_quarantine, Some(10));
        assert!(c.no_resume && c.json && c.only.is_none());

        let c = match parse(&["campaign", "--cases", "fault:1:4", "--only", "2"])
            .unwrap()
            .action
        {
            Action::Campaign(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.only, Some(2));
        assert_eq!(c.timeout, px_campaign::Watchdog::DEFAULT_TIMEOUT);
        assert_eq!(c.journal, "px-campaign.ndjson");

        assert!(parse(&["campaign"]).is_err(), "--cases is mandatory");
        assert!(parse(&["campaign", "--cases", "x", "--timeout", "0"]).is_err());
        assert!(parse(&["campaign", "--cases", "x", "--wat"]).is_err());
    }

    #[test]
    fn options_apply() {
        let o = parse(&[
            "run",
            "x.pxc",
            "--tool",
            "ccured",
            "--cmp",
            "--max-nt-len",
            "50",
            "--threshold",
            "2",
            "--no-fixes",
            "--no-memo",
            "--os-sandbox",
            "--random-factor",
            "9",
            "--seed",
            "7",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(o.tool, Some(Tool::Ccured));
        assert_eq!(o.px.mode, pathexpander::Mode::Cmp);
        assert_eq!(o.px.max_nt_path_len, 50);
        assert_eq!(o.px.counter_threshold, 2);
        assert!(!o.px.apply_fixes);
        assert!(!o.px.nt_memo, "--no-memo turns the replay cache off");
        assert!(o.px.os_sandbox_unsafe);
        assert_eq!(o.px.random_factor, Some(9));
        assert_eq!(o.seed, 7);
        assert!(o.verbose);
    }

    #[test]
    fn bad_values_rejected() {
        assert!(parse(&["run", "x", "--tool", "purify"]).is_err());
        assert!(parse(&["run", "x", "--threshold"]).is_err());
        assert!(parse(&["run", "x", "--seed", "abc"]).is_err());
        assert!(parse(&["run", "x", "--wat"]).is_err());
    }

    #[test]
    fn seeds_accept_full_u64_range() {
        let o = parse(&["run", "x", "--seed", "18446744073709551615"]).unwrap();
        assert_eq!(o.seed, u64::MAX);
        let e = parse(&["run", "x", "--seed", "-1"]).unwrap_err();
        assert!(e.contains("--seed") && e.contains("-1"), "{e}");
    }

    #[test]
    fn fault_flags_build_a_plan() {
        assert!(parse(&["run", "x"]).unwrap().fault_plan().is_none());
        let o = parse(&["run", "x", "--fault-seed", "9"]).unwrap();
        assert_eq!(o.fault_seed, Some(9));
        assert!(o.fault_plan().is_some(), "--fault-seed alone injects");
        let o = parse(&["run", "x", "--fault-mix", "crash=2,bitflip"]).unwrap();
        assert!(o.fault_plan().is_some(), "--fault-mix alone injects");
        assert_eq!(o.fault_rate, 4);
        let o = parse(&["run", "x", "--fault-seed", "1", "--fault-rate", "2"]).unwrap();
        assert_eq!(o.fault_rate, 2);
    }

    #[test]
    fn bad_fault_flags_give_helpful_errors() {
        let e = parse(&["run", "x", "--fault-mix", "gremlins"]).unwrap_err();
        assert!(e.contains("--fault-mix") && e.contains("gremlins"), "{e}");
        let e = parse(&["run", "x", "--fault-mix", "crash=zero"]).unwrap_err();
        assert!(e.contains("--fault-mix"), "{e}");
        let e = parse(&["run", "x", "--fault-rate", "0"]).unwrap_err();
        assert!(e.contains("--fault-rate"), "{e}");
        let e = parse(&["run", "x", "--fault-seed", "soon"]).unwrap_err();
        assert!(e.contains("--fault-seed") && e.contains("soon"), "{e}");
        assert!(parse(&["run", "x", "--budget", "0"]).is_err());
    }

    #[test]
    fn static_filter_and_json_flags() {
        let o = parse(&["run", "x", "--static-filter", "16"]).unwrap();
        assert_eq!(o.px.static_nt_filter, Some(16));
        assert!(parse(&["run", "x", "--static-filter", "0"]).is_err());
        let o = parse(&["analyze", "x", "--json"]).unwrap();
        assert!(o.json);
        assert!(!o.path_cover);
        let o = parse(&["analyze", "x", "--path-cover", "--json"]).unwrap();
        assert!(o.path_cover && o.json);
        assert_eq!(
            parse(&["run", "x"]).unwrap().px.static_nt_filter,
            None,
            "filter is opt-in"
        );
    }

    #[test]
    fn io_from_text() {
        let o = parse(&["run", "x", "--input-text", "41 1"]).unwrap();
        let mut io = o.io().unwrap();
        assert_eq!(io.read_int(), 41);
        assert_eq!(io.read_int(), 1);
    }
}
