//! The four benchmark workloads and how each is generated from a seed.
//!
//! Every workload is a pure function of `(name, seed)`. Seed 1 is the
//! default and reproduces the manifests the benchmark was defined on; any
//! other seed gives a different, equally shaped input.

use px_campaign::Manifest;
use px_detect::Tool;
use px_workloads::zoo::{self, ZooSpec};

/// The seed every workload's reference manifest is generated from.
const DEFAULT_SEED: u64 = 1;

/// Fault cases per `fault-swarm` campaign.
const FAULT_CASES: u64 = 3000;

/// `*K` input seeds per program in `roster-repeat`.
const REPEAT_K: u64 = 32;

/// The E13 zoo programs the engine matrix runs.
const MATRIX_SHAPES: [&str; 2] = ["interpreter", "state-machine"];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full E15 roster in a fresh process: every per-process cache cold.
    RosterCold,
    /// Four programs × 32 input seeds × 3 tools: set-up amortised.
    RosterRepeat,
    /// Thousands of tiny fault-injection cases: campaign machinery bound.
    FaultSwarm,
    /// Four engines at a fixed budget on two zoo programs, in-process.
    EngineMatrix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RosterCold,
        Workload::RosterRepeat,
        Workload::FaultSwarm,
        Workload::EngineMatrix,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RosterCold => "roster-cold",
            Workload::RosterRepeat => "roster-repeat",
            Workload::FaultSwarm => "fault-swarm",
            Workload::EngineMatrix => "engine-matrix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign manifest spec, for the workloads that run a campaign.
    ///
    /// * `roster-cold`: seed 1 is `zoo-roster`; any other seed lists the
    ///   programs of [`roster_specs`] — the roster's shapes, sizes and bug
    ///   mixes on other structure seeds.
    /// * `roster-repeat`: structure seeds `s, s+1, s+2, s+3` for the four
    ///   shapes, each under input seeds `1..=32`.
    /// * `fault-swarm`: `fault:<seed>:3000`.
    #[must_use]
    pub fn manifest(self, seed: u64) -> Option<String> {
        match self {
            Workload::RosterCold => Some(if seed == DEFAULT_SEED {
                "zoo-roster".to_owned()
            } else {
                roster_specs(seed)
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("+")
            }),
            Workload::RosterRepeat => Some(
                repeat_specs(seed)
                    .iter()
                    .map(|s| format!("{s}*{REPEAT_K}"))
                    .collect::<Vec<_>>()
                    .join("+"),
            ),
            Workload::FaultSwarm => Some(format!("fault:{seed}:{FAULT_CASES}")),
            Workload::EngineMatrix => None,
        }
    }

    /// The parsed manifest.
    ///
    /// # Panics
    ///
    /// Never for a campaign workload: every generated spec parses.
    #[must_use]
    pub fn parsed_manifest(self, seed: u64) -> Option<Manifest> {
        self.manifest(seed)
            .map(|m| Manifest::parse(&m).expect("generated manifests parse"))
    }

    /// Every `(program, tool)` pair the workload's campaign or engine runs
    /// compile — what the set-up phase builds.
    #[must_use]
    pub fn programs(self, seed: u64) -> Vec<(ZooSpec, Tool)> {
        let specs = match self {
            Workload::RosterCold => roster_specs(seed),
            Workload::RosterRepeat => repeat_specs(seed).to_vec(),
            Workload::FaultSwarm | Workload::EngineMatrix => {
                return matrix_specs()
                    .into_iter()
                    .map(|s| (s, Tool::Assertions))
                    .collect();
            }
        };
        specs
            .into_iter()
            .flat_map(|s| Tool::ALL.map(|t| (s.clone(), t)))
            .collect()
    }

    /// Whether the campaign's set-up includes prime-path planning (zoo
    /// cases run with a path plan; the engine runs do not).
    #[must_use]
    pub fn plans(self) -> bool {
        matches!(self, Workload::RosterCold | Workload::RosterRepeat)
    }
}

/// The `roster-cold` programs: `zoo::roster()` with every structure seed
/// `k` in `1..=7` moved to `7(s-1)+k`, sizes and bug mixes kept. Seed 1 is
/// the roster itself.
#[must_use]
pub fn roster_specs(seed: u64) -> Vec<ZooSpec> {
    let shift = seed.wrapping_sub(DEFAULT_SEED).wrapping_mul(7);
    zoo::roster()
        .into_iter()
        .map(|mut spec| {
            spec.seed = spec.seed.wrapping_add(shift);
            spec
        })
        .collect()
}

fn repeat_specs(seed: u64) -> [ZooSpec; 4] {
    use zoo::ZooShape as S;
    [
        ZooSpec::new(S::Interpreter, seed),
        ZooSpec::new(S::Parser, seed.wrapping_add(1)),
        ZooSpec::new(S::StateMachine, seed.wrapping_add(2)),
        ZooSpec::new(S::Recursive, seed.wrapping_add(3)),
    ]
}

/// The engine-matrix programs (E13's zoo rows).
#[must_use]
fn matrix_specs() -> Vec<ZooSpec> {
    MATRIX_SHAPES
        .iter()
        .map(|s| ZooSpec::parse(&format!("zoo:{s}:1")).expect("matrix specs parse"))
        .collect()
}

/// Input-stream seed of the engine runs: E13's `0xC0FFEE` at seed 1.
#[must_use]
pub fn engine_input_seed(seed: u64) -> u64 {
    0x00C0_FFEE ^ seed.wrapping_sub(DEFAULT_SEED)
}
