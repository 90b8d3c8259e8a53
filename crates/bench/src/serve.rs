//! Multi-tenant serving throughput and latency (DESIGN §15).
//!
//! Stands up one [`serve::Server`] and floods it with a synthetic tenant
//! population — a mix of plain, double-weight, tuner-armed, and tiled
//! jobs over small Weibel decks — far above the residency cap, so
//! checkpoint preemption and pool migration are the steady state rather
//! than a corner case. Drains the fleet and reports jobs/second, p50/p95
//! step latency from the `serve.step.ns` histogram, queue-wait and
//! preemption-cost percentiles, park/unpark/migration counts, and the
//! worst weight-normalized fairness ratio the scheduler allowed.
//!
//! Two gates: every admitted tenant must finish (no quarantines under
//! healthy load), and the worst max/min progress ratio after warmup must
//! stay ≤ 2 (the paper's fairness bar for the serving tier).

use serde::Serialize;
use serve::{JobSpec, ServePolicy, Server};
use vpic_core::{Deck, TilePolicy};

/// The `serve` target's result set.
#[derive(Serialize)]
pub struct Report {
    /// Tenants admitted (concurrently in flight).
    pub tenants: u64,
    /// Steps each tenant requested.
    pub steps_per_job: u64,
    /// Worker-pool lane counts the scheduler rotated over.
    pub pools: Vec<usize>,
    /// Steps per scheduler slice.
    pub quantum: u32,
    /// Live-simulation residency cap (preemption pressure knob).
    pub max_resident: usize,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs quarantined (0 under healthy load).
    pub quarantined: u64,
    /// Scheduler rounds to drain the fleet.
    pub rounds: u64,
    /// Total simulation steps executed across the fleet.
    pub total_steps: u64,
    /// Wall time of the drain, seconds.
    pub wall_s: f64,
    /// Completed jobs per second.
    pub jobs_per_sec: f64,
    /// Fleet steps per second.
    pub steps_per_sec: f64,
    /// Median per-step latency, ns (`serve.step.ns`).
    pub p50_step_ns: u64,
    /// 95th-percentile per-step latency, ns.
    pub p95_step_ns: u64,
    /// 95th-percentile admission-to-first-step wait, ns.
    pub p95_queue_wait_ns: u64,
    /// 95th-percentile preemption cost (park or unpark), ns.
    pub p95_preempt_ns: u64,
    /// Checkpoint parks (residency-cap evictions).
    pub parks: u64,
    /// Checkpoint resumes.
    pub unparks: u64,
    /// Slices that ran on a different pool than the job's previous one.
    pub migrations: u64,
    /// Worst weight-normalized max/min progress ratio after warmup
    /// (gate: ≤ 2), if the drain ever had ≥ 2 jobs in flight.
    pub fairness_worst: Option<f64>,
}

/// Tenants admitted at once (the serving gate needs ≥ 100).
const TENANTS: u64 = 120;
/// Steps each tenant requests.
const STEPS: u64 = 8;
/// Steps per scheduler slice.
const QUANTUM: u32 = 2;
/// Live simulations before the scheduler parks one.
const MAX_RESIDENT: usize = 8;

/// One synthetic tenant. The mix cycles deterministically by index:
/// every 7th tenant is double-weight, every 9th carries a tuner, every
/// 11th steps tiled (in-memory compressed tiles), the rest are plain.
fn tenant(i: u64, steps: u64) -> JobSpec {
    let grid = 4 + (i % 3) as usize; // 4³..6³ cells
    let mut deck = Deck::weibel(grid, grid, grid, 2, 0.3);
    deck.seed = 1000 + i;
    let mut spec = JobSpec::new(deck, steps);
    spec.name = format!("tenant-{i:04}");
    if i.is_multiple_of(7) {
        spec.weight = 2;
    }
    if i.is_multiple_of(9) {
        spec.tune = true;
    }
    if i.is_multiple_of(11) {
        let cells = grid * grid * grid;
        spec.tile = Some(TilePolicy::new((cells / 4).max(1)));
    }
    spec
}

/// Run the thousand-tenant-shaped serving measurement and print the
/// summary table.
pub fn run() -> Report {
    // the histograms only fill with telemetry on; restore on exit so a
    // standalone `repro -- serve` leaves the process as it found it
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    let before = telemetry::metrics_snapshot();
    let parks0 = telemetry::counter("serve.preempt.parks");
    let unparks0 = telemetry::counter("serve.preempt.unparks");
    let migrations0 = telemetry::counter("serve.migrations");

    let policy = ServePolicy {
        max_jobs: TENANTS as usize,
        max_bytes: 8 << 30,
        max_resident: MAX_RESIDENT,
        pools: vec![4, 2, 2],
        quantum: QUANTUM,
        tuner_epoch: 2,
    };
    let mut srv = Server::new(policy);
    for i in 0..TENANTS {
        srv.submit(tenant(i, STEPS)).expect("bench population fits the admission budget");
    }

    let report = srv.run_until_done(100_000);

    let delta = telemetry::metrics_snapshot().delta_since(&before);
    let parks = telemetry::counter("serve.preempt.parks") - parks0;
    let unparks = telemetry::counter("serve.preempt.unparks") - unparks0;
    let migrations = telemetry::counter("serve.migrations") - migrations0;
    telemetry::set_enabled(was_enabled);

    let hist = |name: &str, p: f64| {
        delta.hists.get(name).map(|h| h.percentile(p)).unwrap_or(0)
    };
    let wall_s = report.wall_ns as f64 / 1e9;

    let out = Report {
        tenants: TENANTS,
        steps_per_job: STEPS,
        pools: srv.policy().pools.clone(),
        quantum: QUANTUM,
        max_resident: MAX_RESIDENT,
        completed: report.completed,
        quarantined: report.quarantined,
        rounds: report.rounds,
        total_steps: report.steps,
        wall_s,
        jobs_per_sec: report.jobs_per_sec(),
        steps_per_sec: if wall_s > 0.0 { report.steps as f64 / wall_s } else { 0.0 },
        p50_step_ns: hist("serve.step.ns", 50.0),
        p95_step_ns: hist("serve.step.ns", 95.0),
        p95_queue_wait_ns: hist("serve.queue_wait.ns", 95.0),
        p95_preempt_ns: hist("serve.preempt.ns", 95.0),
        parks,
        unparks,
        migrations,
        fairness_worst: report.fairness_worst,
    };

    println!(
        "multi-tenant serving — {} tenants × {} steps, pools {:?}, quantum {}, {} resident",
        out.tenants, out.steps_per_job, out.pools, out.quantum, out.max_resident
    );
    println!("  completed           {:>10}  ({} quarantined)", out.completed, out.quarantined);
    println!("  drain               {:>10} rounds, {}", out.rounds, crate::fmt_time(out.wall_s));
    println!("  throughput          {:>10.1} jobs/s  ({:.0} steps/s)", out.jobs_per_sec, out.steps_per_sec);
    println!("  step latency        {:>10} p50, {} p95", fmt_ns(out.p50_step_ns), fmt_ns(out.p95_step_ns));
    println!("  queue wait p95      {:>10}", fmt_ns(out.p95_queue_wait_ns));
    println!("  preemption p95      {:>10}  ({} parks, {} unparks)", fmt_ns(out.p95_preempt_ns), out.parks, out.unparks);
    println!("  pool migrations     {:>10}", out.migrations);
    match out.fairness_worst {
        Some(r) => println!("  fairness worst      {:>10.2}  (gate: <= 2)", r),
        None => println!("  fairness worst         (never measurable)"),
    }

    assert_eq!(out.completed, out.tenants, "every healthy tenant must finish");
    assert_eq!(out.quarantined, 0, "healthy load must not quarantine anyone");
    if let Some(r) = out.fairness_worst {
        assert!(r <= 2.0, "weighted round-robin must keep max/min progress <= 2, got {r:.2}");
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    crate::fmt_time(ns as f64 / 1e9)
}
