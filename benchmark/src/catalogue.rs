//! Every workload and metric name the benchmark uses, in one place.
//!
//! `BENCHMARK.json` at the root of the repo declares the same names; a test
//! holds the two together so neither can rot.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// A named, united number.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and the share of the baseline by which it may
/// worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Gated {
    pub metric: Metric,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

/// What a user of the simulation sees; every untraced workload run reports
/// all of them. The bounds are sized by the run-to-run spread (interquartile
/// range ÷ median over ten runs) on the reference host, a shared 2-core VM,
/// where a time bound tighter than the widest the PR driver accepts would
/// not hold through a busy hour: README, "Sizing evidence".
pub const END_TO_END: [Gated; 3] = [
    Gated { metric: higher("particle_steps_per_s", "particle-steps/s"), bound: 0.25 },
    Gated { metric: lower("setup_s", "s"), bound: 0.25 },
    Gated { metric: lower("peak_rss_mib", "MiB"), bound: 0.20 },
];

/// Failed ÷ attempted operations of one workload. The per-run result line
/// carries the two counts themselves; `run` prints their quotient under this
/// name and `compare` refuses a file in which it is above zero.
pub const CHECK_FAIL_SHARE: Metric = lower("check_fail_share", "ratio");

/// What single layers do; every traced workload run reports all of them.
/// A layer the workload does not exercise, or that cannot be observed from
/// outside on that workload, reads 0 (README, "Per-layer metrics").
pub const PER_LAYER: [Metric; 43] = [
    lower("core.push.ns_per_particle", "ns/particle"),
    lower("core.push.share", "ratio"),
    lower("core.push.post_sort_ns_per_particle", "ns/particle"),
    lower("core.push.pre_sort_ns_per_particle", "ns/particle"),
    lower("core.push.crossings_per_particle", "count/particle"),
    higher("core.push.roofline_fraction", "ratio"),
    lower("core.sort.ns_per_particle_step", "ns/particle"),
    lower("core.sort.ms_per_sort", "ms"),
    lower("core.sort.share", "ratio"),
    lower("psort.sort_pairs.ns_per_key", "ns/key"),
    lower("core.sort.permute_ns_per_particle", "ns/particle"),
    lower("core.interpolate.ns_per_cell", "ns/cell"),
    lower("core.clear_j.ns_per_cell", "ns/cell"),
    lower("core.unload.ns_per_cell", "ns/cell"),
    lower("core.field_solve.ns_per_cell", "ns/cell"),
    lower("core.grid.share", "ratio"),
    lower("vsimd.push_ns_per_particle.auto", "ns/particle"),
    lower("vsimd.push_ns_per_particle.guided", "ns/particle"),
    lower("vsimd.push_ns_per_particle.manual", "ns/particle"),
    lower("vsimd.push_ns_per_particle.adhoc", "ns/particle"),
    lower("vsimd.grid_ns_per_cell.auto", "ns/cell"),
    lower("vsimd.grid_ns_per_cell.guided", "ns/cell"),
    lower("vsimd.grid_ns_per_cell.manual", "ns/cell"),
    lower("vsimd.grid_ns_per_cell.adhoc", "ns/cell"),
    lower("pk.dispatches_per_step", "count/step"),
    lower("pk.empty_dispatch_ns_p50", "ns"),
    lower("cluster.step_ns_per_particle", "ns/particle"),
    lower("cluster.migrants_per_step", "count/step"),
    lower("cluster.migrant_fraction", "ratio"),
    lower("cluster.rank_imbalance", "ratio"),
    lower("cluster.compute_s_per_step", "s"),
    lower("cluster.exposed_exchange_s_per_step.modeled", "s"),
    higher("cluster.hidden_fraction.modeled", "ratio"),
    lower("telemetry.enabled_step_ratio", "ratio"),
    higher("host.triad_gbps", "GB/s"),
    higher("host.peak_gflops_f32", "GFLOP/s"),
    higher("host.nproc", "count"),
    higher("host.llc_mib", "MiB"),
    higher("host.triad_drift", "ratio"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("core.energy_drift_rel", "ratio"),
    lower("core.gauss_residual", "norm.units"),
];

/// Ratios between two workloads of one `run`; no single workload run can
/// report them, so `BENCHMARK.json` does not declare them.
pub const DERIVED: [Metric; 3] = [
    higher("pk.push_speedup", "ratio"),
    higher("pk.parallel_efficiency", "ratio"),
    lower("cluster.rank_overhead", "ratio"),
];

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WeibelSorted,
    LpiGridheavy,
    WeibelThreads,
    WeibelRanks4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WeibelSorted,
        Workload::LpiGridheavy,
        Workload::WeibelThreads,
        Workload::WeibelRanks4,
    ];

    /// The workloads `BENCHMARK.json` declares: the PR driver runs each some
    /// twenty times and refuses a benchmark whose runs of one commit spread
    /// past a bound. `weibel-threads` is left to `run` and `compare`. Its
    /// two lanes need both cores of the reference host, each step waits for
    /// the slower lane, and for minutes at a time another tenant slows one
    /// core: whole runs then read a steady 1.3 times slower, which no
    /// statistic of one run can undo (README, "Sizing evidence").
    pub const DECLARED: [Workload; 3] =
        [Workload::WeibelSorted, Workload::LpiGridheavy, Workload::WeibelRanks4];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WeibelSorted => "weibel-sorted",
            Workload::LpiGridheavy => "lpi-gridheavy",
            Workload::WeibelThreads => "weibel-threads",
            Workload::WeibelRanks4 => "weibel-ranks4",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it stresses and which it must
    /// leave unmoved.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WeibelSorted => {
                "particle-dominated serial baseline, 32 particles per cell: push and sort set the \
                 headline, the grid side is under 2% and must not move it"
            }
            Workload::LpiGridheavy => {
                "one particle per cell on 393k cells: gather-bound push plus a grid pipeline that \
                 is over a third of the step, the only place a stencil change moves the headline"
            }
            Workload::WeibelThreads => {
                "same deck on the 2-lane pk pool with duplicated scatter: pool dispatch, replica \
                 reduction at unload and the serial sort as Amdahl term show only here"
            }
            Workload::WeibelRanks4 => {
                "same deck on the executed 4-rank driver: halo exchange and particle migration, \
                 the paper's scalability half, show here and nowhere else"
            }
        }
    }

    pub fn is_weibel(self) -> bool {
        self != Workload::LpiGridheavy
    }
}
