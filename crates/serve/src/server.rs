//! The multi-tenant job runtime: admission, fair scheduling, preemption,
//! and graceful degradation.
//!
//! One [`Server`] multiplexes many small [`Simulation`]s over a bounded
//! set of shared worker pools. The design choices, in order of
//! importance:
//!
//! * **Fairness** — a weighted round-robin over *step quanta*: each
//!   round visits every runnable job in admission order and grants it
//!   `weight` slices of `quantum` steps. Equal-weight tenants never
//!   drift more than one round's worth of steps apart.
//! * **Bounded residency** — at most `max_resident` simulations are
//!   live at once; the rest are **parked** as checkpoint blobs
//!   ([`Simulation::checkpoint_bytes`]). Parking and resuming are
//!   bit-transparent, and the untiled/tiled step paths are worker-count
//!   invariant, so a job preempted at any step and resumed — on any
//!   pool — ends in a bit-identical final state (the `Server` stepper of
//!   the differential lattice, `tests/lattice/mod.rs`).
//! * **Typed failure, contained** — admission past the budget is a
//!   typed [`AdmitError`]; a lane panic, a torn-invariant
//!   [`StepError`], or a corrupt parked blob **quarantines that job
//!   only**; the fleet keeps stepping. No panic escapes the job loop.
//! * **Fleet learning** — tuned tenants start from the
//!   [`FleetPrior`](crate::fleet::FleetPrior): arms other tenants of
//!   the same deck class committed are explored first.

use crate::fleet::FleetPrior;
use crate::spec::{JobSpec, SpecError};
use pk::atomic::ScatterMode;
use pk::Threads;
use psort::SortOrder;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use telemetry::hist;
use tuner::{Config, ScheduleEntry, Tuner};
use vpic_core::Simulation;
use vsimd::Strategy;

/// Why a job submission was refused at the door. Admission control is
/// the *only* place the server says no; once admitted, a job either
/// completes, hits its deadline, is cancelled, or is quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The deckfile (or programmatic spec) is malformed.
    Spec(SpecError),
    /// The server already holds `max_jobs` unfinished jobs.
    JobBudget {
        /// Unfinished jobs currently admitted.
        active: usize,
        /// The policy ceiling.
        max_jobs: usize,
    },
    /// Admitting the job would push the estimated working-set total
    /// past the memory budget.
    MemoryBudget {
        /// This job's estimated bytes (`JobSpec::estimated_bytes`).
        estimated: u64,
        /// Bytes already pledged to admitted unfinished jobs.
        pledged: u64,
        /// The policy ceiling.
        max_bytes: u64,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(e) => write!(f, "rejected: {e}"),
            Self::JobBudget { active, max_jobs } => {
                write!(f, "rejected: job budget exhausted ({active}/{max_jobs} jobs active)")
            }
            Self::MemoryBudget { estimated, pledged, max_bytes } => write!(
                f,
                "rejected: memory budget exhausted ({estimated} B requested, \
                 {pledged}/{max_bytes} B pledged)"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

impl From<SpecError> for AdmitError {
    fn from(e: SpecError) -> Self {
        Self::Spec(e)
    }
}

/// An operation referenced a job the server cannot act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// No job with this id was ever admitted.
    UnknownJob(JobId),
    /// The job exists but is not in a state the operation applies to
    /// (e.g. parking a job that already finished).
    NotRunnable(JobId),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownJob(id) => write!(f, "unknown job {id}"),
            Self::NotRunnable(id) => write!(f, "job {id} is not runnable"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Opaque job handle, unique per server for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Server sizing and scheduling policy.
#[derive(Debug, Clone)]
pub struct ServePolicy {
    /// Maximum unfinished jobs admitted at once.
    pub max_jobs: usize,
    /// Memory budget: the sum of admitted unfinished jobs' estimated
    /// working sets may not exceed this. Conservative — a parked job
    /// actually costs only its snapshot blob — but it guarantees the
    /// server can always make any admitted job resident.
    pub max_bytes: u64,
    /// Simulations held live at once; beyond this, the least recently
    /// scheduled resident job is parked to a checkpoint blob.
    pub max_resident: usize,
    /// Lane counts of the shared worker pools. Slices rotate over
    /// these, so migration between pools is the steady state, not an
    /// edge case.
    pub pools: Vec<usize>,
    /// Steps per scheduler slice.
    pub quantum: u32,
    /// Epoch length (steps) for tuned tenants.
    pub tuner_epoch: usize,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self {
            max_jobs: 256,
            max_bytes: 256 << 20,
            max_resident: 8,
            pools: vec![4, 2],
            quantum: 4,
            tuner_epoch: 3,
        }
    }
}

/// Why a job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`Server::cancel`] was called.
    Requested,
    /// The job missed its [`JobSpec::deadline_rounds`] deadline.
    Deadline,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, simulation not built yet.
    Queued,
    /// Live in memory, receiving slices.
    Resident,
    /// Preempted to a checkpoint blob.
    Parked,
    /// Ran its full step budget; final state retained as a blob.
    Done,
    /// Cancelled by request or deadline.
    Cancelled,
    /// Failed (lane panic, step error, corrupt blob); removed from
    /// scheduling, fleet unaffected.
    Quarantined,
}

/// A point-in-time job summary.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's handle.
    pub id: JobId,
    /// Tenant-visible name.
    pub name: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Steps completed.
    pub steps_done: u64,
    /// Steps requested.
    pub steps_total: u64,
    /// Quarantine or cancellation detail, empty otherwise.
    pub detail: String,
}

enum State {
    Fresh,
    Resident(Box<Simulation>),
    Parked(Vec<u8>),
    Done {
        final_blob: Vec<u8>,
        schedule: Option<Vec<ScheduleEntry>>,
    },
    Cancelled(CancelReason),
    Quarantined(String),
    /// Transient placeholder while a slice owns the simulation; never
    /// observable between public calls.
    Torn,
}

struct Job {
    spec: JobSpec,
    state: State,
    steps_done: u64,
    admitted_round: u64,
    admitted_ns: u64,
    started: bool,
    last_scheduled: u64,
    last_pool: Option<usize>,
}

impl Job {
    fn phase(&self) -> JobPhase {
        match &self.state {
            State::Fresh => JobPhase::Queued,
            State::Resident(_) => JobPhase::Resident,
            State::Parked(_) => JobPhase::Parked,
            State::Done { .. } => JobPhase::Done,
            State::Cancelled(_) => JobPhase::Cancelled,
            State::Quarantined(_) => JobPhase::Quarantined,
            State::Torn => unreachable!("torn state observed outside a slice"),
        }
    }

    fn runnable(&self) -> bool {
        matches!(self.state, State::Fresh | State::Resident(_) | State::Parked(_))
    }
}

/// What one [`Server::run_until_done`] drain observed.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Jobs that completed their step budget.
    pub completed: u64,
    /// Jobs cancelled (request or deadline).
    pub cancelled: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Total simulation steps executed across the fleet.
    pub steps: u64,
    /// Wall time of the drain, ns.
    pub wall_ns: u64,
    /// Worst (largest) weight-normalized max/min progress ratio
    /// observed across in-flight jobs after warmup (1.0 = perfectly
    /// fair; `None` if never measurable).
    pub fairness_worst: Option<f64>,
}

impl ServeReport {
    /// Completed jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// The job runtime. See the module docs for the design.
pub struct Server {
    policy: ServePolicy,
    pools: Vec<Threads>,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    round: u64,
    pool_cursor: usize,
    steps_total: u64,
    fleet: FleetPrior,
}

impl Server {
    /// A server with `policy`. Pools are materialized now (shared
    /// process-wide per lane count) so the first slice pays no spawn
    /// cost.
    pub fn new(policy: ServePolicy) -> Self {
        let lanes: Vec<usize> = if policy.pools.is_empty() { vec![1] } else { policy.pools.clone() };
        let pools = lanes.iter().map(|&n| Threads::new(n)).collect();
        Self {
            policy,
            pools,
            jobs: BTreeMap::new(),
            next_id: 0,
            round: 0,
            pool_cursor: 0,
            steps_total: 0,
            fleet: FleetPrior::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &ServePolicy {
        &self.policy
    }

    /// Admitted unfinished jobs (queued + resident + parked).
    pub(crate) fn active_jobs(&self) -> usize {
        self.jobs.values().filter(|j| j.runnable()).count()
    }

    /// Estimated bytes pledged to admitted unfinished jobs.
    pub(crate) fn pledged_bytes(&self) -> u64 {
        self.jobs
            .values()
            .filter(|j| j.runnable())
            .map(|j| j.spec.estimated_bytes())
            .sum()
    }

    // ───────────────────────────────────────────── admission control ──

    /// Admit a job, or refuse with a typed [`AdmitError`]. Admission is
    /// the capacity gate: a job that gets a [`JobId`] is guaranteed a
    /// resident slot whenever the scheduler reaches it.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmitError> {
        if let Err(e) = spec.validate() {
            telemetry::count("serve.jobs.rejected", 1);
            return Err(AdmitError::Spec(e));
        }
        let active = self.active_jobs();
        if active >= self.policy.max_jobs {
            telemetry::count("serve.jobs.rejected", 1);
            return Err(AdmitError::JobBudget { active, max_jobs: self.policy.max_jobs });
        }
        let estimated = spec.estimated_bytes();
        let pledged = self.pledged_bytes();
        if pledged.saturating_add(estimated) > self.policy.max_bytes {
            telemetry::count("serve.jobs.rejected", 1);
            return Err(AdmitError::MemoryBudget {
                estimated,
                pledged,
                max_bytes: self.policy.max_bytes,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                spec,
                state: State::Fresh,
                steps_done: 0,
                admitted_round: self.round,
                admitted_ns: telemetry::now_ns(),
                started: false,
                last_scheduled: self.round,
                last_pool: None,
            },
        );
        telemetry::count("serve.jobs.admitted", 1);
        Ok(JobId(id))
    }

    /// Parse a deckfile and admit it.
    pub fn submit_deck(&mut self, text: &str) -> Result<JobId, AdmitError> {
        let spec = JobSpec::parse(text)?;
        self.submit(spec)
    }

    // ─────────────────────────────────────────────────── scheduling ──

    /// One weighted round-robin pass: every runnable job, in admission
    /// order, gets `weight` slices of `quantum` steps, each slice on
    /// the next pool in rotation. Returns whether any runnable job
    /// remains.
    pub fn run_round(&mut self) -> bool {
        self.round += 1;
        // deadline sweep first: a job that missed its deadline gets no
        // further slices
        let expired: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.runnable())
            .filter(|(_, j)| {
                j.spec
                    .deadline_rounds
                    .is_some_and(|d| self.round > j.admitted_round.saturating_add(d))
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.cancel_with(id, CancelReason::Deadline);
        }
        let runnable: Vec<(u64, u32)> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.runnable())
            .map(|(&id, j)| (id, j.spec.weight))
            .collect();
        for (id, weight) in runnable {
            for _ in 0..weight {
                let pool_idx = self.pool_cursor % self.pools.len();
                self.pool_cursor += 1;
                self.run_slice(id, pool_idx);
                if !self.jobs.get(&id).map(Job::runnable).unwrap_or(false) {
                    break;
                }
            }
            if let Some(j) = self.jobs.get_mut(&id) {
                j.last_scheduled = self.round;
            }
        }
        self.jobs.values().any(Job::runnable)
    }

    /// Drain the fleet: rounds until no runnable job remains (or
    /// `max_rounds`, a backstop against misconfigured deadlines).
    pub fn run_until_done(&mut self, max_rounds: u64) -> ServeReport {
        let t0 = telemetry::now_ns();
        let steps0 = self.steps_total;
        let mut rounds = 0;
        let mut fairness_worst: Option<f64> = None;
        while rounds < max_rounds {
            let more = self.run_round();
            rounds += 1;
            if let Some(r) = self.fairness_ratio() {
                fairness_worst = Some(fairness_worst.map_or(r, |w: f64| w.max(r)));
            }
            if !more {
                break;
            }
        }
        let mut report = ServeReport {
            rounds,
            steps: self.steps_total - steps0,
            wall_ns: telemetry::now_ns().saturating_sub(t0),
            fairness_worst,
            ..ServeReport::default()
        };
        for j in self.jobs.values() {
            match j.phase() {
                JobPhase::Done => report.completed += 1,
                JobPhase::Cancelled => report.cancelled += 1,
                JobPhase::Quarantined => report.quarantined += 1,
                _ => {}
            }
        }
        report
    }

    /// Weight-normalized progress spread across in-flight jobs that
    /// have started: `max(steps/weight) / min(steps/weight)`. `None`
    /// with fewer than two in-flight started jobs, or when an in-flight
    /// job has not stepped yet (warmup). 1.0 is perfectly fair.
    pub(crate) fn fairness_ratio(&self) -> Option<f64> {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut n = 0;
        for j in self.jobs.values().filter(|j| j.runnable()) {
            if j.steps_done == 0 {
                return None; // still warming up
            }
            let p = j.steps_done as f64 / j.spec.weight as f64;
            min = min.min(p);
            max = max.max(p);
            n += 1;
        }
        (n >= 2).then(|| max / min)
    }

    fn run_slice(&mut self, id: u64, pool_idx: usize) {
        if !self.ensure_resident(id) {
            return;
        }
        let pool = self.pools[pool_idx].clone();
        let quantum = self.policy.quantum.max(1);
        let Some(job) = self.jobs.get_mut(&id) else { return };
        if job.last_pool.is_some_and(|p| p != pool_idx) {
            telemetry::count("serve.migrations", 1);
        }
        job.last_pool = Some(pool_idx);
        if !job.started {
            job.started = true;
            hist!("serve.queue_wait.ns", telemetry::now_ns().saturating_sub(job.admitted_ns));
        }
        let State::Resident(sim) = &mut job.state else { return };
        let mut failure: Option<String> = None;
        let mut stepped = 0u64;
        for _ in 0..quantum {
            if job.steps_done >= job.spec.steps {
                break;
            }
            let t0 = telemetry::now_ns();
            // `try_step_on` types worker-lane panics; the outer catch
            // contains everything else a hostile deck can throw from
            // inside a step (e.g. tile-spill I/O panics), so a tenant
            // failure can never take the server down
            let result = catch_unwind(AssertUnwindSafe(|| sim.try_step_on(&pool)));
            let dt = telemetry::now_ns().saturating_sub(t0);
            match result {
                Ok(Ok(_)) => {
                    job.steps_done += 1;
                    stepped += 1;
                    hist!("serve.step.ns", dt);
                }
                Ok(Err(e)) => {
                    failure = Some(e.to_string());
                    break;
                }
                Err(payload) => {
                    failure = Some(format!("panic in step: {}", panic_text(&payload)));
                    break;
                }
            }
        }
        self.steps_total += stepped;
        telemetry::count("serve.steps", stepped);
        if let Some(reason) = failure {
            self.quarantine(id, reason);
        } else if self.jobs.get(&id).is_some_and(|j| j.steps_done >= j.spec.steps) {
            self.finish(id);
        }
    }

    /// Make `id` resident, evicting the least recently scheduled other
    /// resident job first if the residency cap is hit. Returns `false`
    /// when the job ended up non-runnable (quarantined on a corrupt
    /// blob, or was never runnable).
    fn ensure_resident(&mut self, id: u64) -> bool {
        match self.jobs.get(&id).map(|j| &j.state) {
            Some(State::Resident(_)) => return true,
            Some(State::Fresh) | Some(State::Parked(_)) => {}
            _ => return false,
        }
        // evict before building: the cap counts simultaneous sims
        let resident: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(&jid, j)| jid != id && matches!(j.state, State::Resident(_)))
            .map(|(&jid, _)| jid)
            .collect();
        if resident.len() >= self.policy.max_resident.max(1) {
            let victim = resident
                .into_iter()
                .min_by_key(|jid| (self.jobs[jid].last_scheduled, *jid))
                .expect("cap hit implies a resident job");
            // an eviction park can only fail by panicking inside
            // checkpointing, which `park_job` contains
            self.park_job(victim);
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        match std::mem::replace(&mut job.state, State::Torn) {
            State::Fresh => {
                // building can panic inside the core (e.g. a tile spill
                // directory that cannot be created); contain it so one
                // bad deck cannot take the fleet down
                let spec = job.spec.clone();
                let fleet = &self.fleet;
                let epoch = self.policy.tuner_epoch;
                let built = catch_unwind(AssertUnwindSafe(|| build_sim(&spec, fleet, epoch)));
                match built {
                    Ok((sim, promoted)) => {
                        if promoted > 0 {
                            telemetry::count("serve.warm_starts", 1);
                        }
                        job.state = State::Resident(Box::new(sim));
                    }
                    Err(payload) => {
                        job.state = State::Torn; // replaced by quarantine below
                        let reason = format!("panic in step 0 build: {}", panic_text(&payload));
                        self.quarantine(id, reason);
                        return false;
                    }
                }
            }
            State::Parked(blob) => {
                let t0 = telemetry::now_ns();
                match Simulation::restore_bytes(&blob) {
                    Ok(sim) => {
                        hist!("serve.preempt.ns", telemetry::now_ns().saturating_sub(t0));
                        telemetry::count("serve.preempt.unparks", 1);
                        job.state = State::Resident(Box::new(sim));
                    }
                    Err(e) => {
                        job.state = State::Torn; // replaced by quarantine below
                        self.quarantine(id, format!("parked checkpoint unreadable: {e}"));
                        return false;
                    }
                }
            }
            other => {
                job.state = other;
                return false;
            }
        }
        true
    }

    /// Park a resident job to a checkpoint blob (the preemption write
    /// half). A panic inside checkpointing quarantines the job.
    fn park_job(&mut self, id: u64) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let State::Resident(sim) = &mut job.state else { return };
        let t0 = telemetry::now_ns();
        let blob = catch_unwind(AssertUnwindSafe(|| sim.checkpoint_bytes()));
        match blob {
            Ok(blob) => {
                hist!("serve.preempt.ns", telemetry::now_ns().saturating_sub(t0));
                telemetry::count("serve.preempt.parks", 1);
                job.state = State::Parked(blob);
            }
            Err(payload) => {
                let reason = format!("panic while parking: {}", panic_text(&payload));
                self.quarantine(id, reason);
            }
        }
    }

    fn finish(&mut self, id: u64) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let State::Resident(sim) = &mut job.state else { return };
        // disarm the tuner first: its schedule is the job's tuning
        // record, and the committed arm feeds the fleet prior for the
        // next tenant of this class
        let mut commit = None;
        let schedule = sim.take_tuner().map(|tuner| {
            commit = tuner.best().map(|(cfg, cost)| (*cfg, cost));
            tuner.schedule().to_vec()
        });
        // the final state keeps its tiling; `checkpoint_bytes` handles
        // tiled sims transparently and records the policy in the blob
        let final_blob = sim.checkpoint_bytes();
        let class = FleetPrior::class_of(&job.spec.deck);
        job.state = State::Done { final_blob, schedule };
        if let Some((cfg, cost)) = commit {
            self.fleet.record_commit(&class, cfg, cost);
        }
        telemetry::count("serve.jobs.completed", 1);
    }

    fn quarantine(&mut self, id: u64, reason: String) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = State::Quarantined(reason);
            telemetry::count("serve.jobs.quarantined", 1);
        }
    }

    fn cancel_with(&mut self, id: u64, reason: CancelReason) {
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.runnable() {
                job.state = State::Cancelled(reason);
                telemetry::count("serve.jobs.cancelled", 1);
            }
        }
    }

    // ─────────────────────────────────────────────────── operations ──

    /// Cancel a runnable job. Its simulation (or blob) is dropped.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ServeError> {
        let job = self.jobs.get(&id.0).ok_or(ServeError::UnknownJob(id))?;
        if !job.runnable() {
            return Err(ServeError::NotRunnable(id));
        }
        self.cancel_with(id.0, CancelReason::Requested);
        Ok(())
    }

    /// Explicitly preempt a job: park a resident job to its checkpoint
    /// blob (queued and already-parked jobs are a no-op success).
    pub fn park(&mut self, id: JobId) -> Result<(), ServeError> {
        let job = self.jobs.get(&id.0).ok_or(ServeError::UnknownJob(id))?;
        match job.state {
            State::Resident(_) => {
                self.park_job(id.0);
                Ok(())
            }
            State::Fresh | State::Parked(_) => Ok(()),
            _ => Err(ServeError::NotRunnable(id)),
        }
    }

    /// A job's current status.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs.get(&id.0).map(|j| JobStatus {
            id,
            name: j.spec.name.clone(),
            phase: j.phase(),
            steps_done: j.steps_done,
            steps_total: j.spec.steps,
            detail: match &j.state {
                State::Quarantined(r) => r.clone(),
                State::Cancelled(CancelReason::Deadline) => "deadline expired".into(),
                State::Cancelled(CancelReason::Requested) => "cancelled by request".into(),
                _ => String::new(),
            },
        })
    }

    /// A finished job's final checkpoint blob
    /// (restore with [`Simulation::restore_bytes`]).
    pub fn final_blob(&self, id: JobId) -> Option<&[u8]> {
        match self.jobs.get(&id.0).map(|j| &j.state) {
            Some(State::Done { final_blob, .. }) => Some(final_blob),
            _ => None,
        }
    }

    /// A finished tuned job's configuration schedule (see
    /// [`Tuner::schedule`]); replaying it on the same deck reproduces the
    /// job bit-for-bit.
    pub fn tune_schedule(&self, id: JobId) -> Option<&[ScheduleEntry]> {
        match self.jobs.get(&id.0).map(|j| &j.state) {
            Some(State::Done { schedule: Some(s), .. }) => Some(s),
            _ => None,
        }
    }

    /// Mutable access to a parked job's checkpoint blob. This is the
    /// fault-injection seam the quarantine contract is tested through
    /// (`ckpt::faults` corrupting a blob must quarantine exactly this
    /// job); it is also how an external migration would carry a tenant
    /// to another host.
    pub fn parked_blob_mut(&mut self, id: JobId) -> Option<&mut Vec<u8>> {
        match self.jobs.get_mut(&id.0).map(|j| &mut j.state) {
            Some(State::Parked(blob)) => Some(blob),
            _ => None,
        }
    }

    /// The fleet tuning prior (commit counts per deck class).
    pub fn fleet(&self) -> &FleetPrior {
        &self.fleet
    }
}

/// Build a tenant's simulation from its spec: deck, tiling, tuner with
/// fleet-warm-started arms. Returns the sim and how many arms the fleet
/// prior promoted.
fn build_sim(spec: &JobSpec, fleet: &FleetPrior, epoch: usize) -> (Simulation, usize) {
    let mut sim = spec.deck.build();
    if let Some(policy) = &spec.tile {
        sim.enable_tiling(policy.clone());
    }
    let mut promoted = 0;
    if spec.tune {
        let mut arms = base_arms();
        promoted = fleet.reorder(&FleetPrior::class_of(&spec.deck), &mut arms);
        sim.set_tuner(Tuner::new(arms, epoch.max(1)));
    }
    (sim, promoted)
}

/// The serving arm set: a compact slice of the paper's configuration
/// space sized for short tenant jobs (a thousand-tenant fleet cannot
/// afford an 80-arm sweep per job — the fleet prior, not an exhaustive
/// search, is what amortizes exploration). All arms use atomic scatter,
/// whose fixed-point deposits are worker-count invariant, so exploration
/// is unaffected by slice-to-slice pool migration.
fn base_arms() -> Vec<Config> {
    vec![
        Config::unsorted(Strategy::Auto, ScatterMode::Atomic),
        Config::sorted(SortOrder::Standard, 20, Strategy::Auto, ScatterMode::Atomic),
        Config::sorted(SortOrder::Strided, 20, Strategy::Auto, ScatterMode::Atomic),
        Config::sorted(SortOrder::Standard, 5, Strategy::Manual, ScatterMode::Atomic),
    ]
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::Deck;

    fn tiny_spec(name: &str, steps: u64) -> JobSpec {
        let mut spec = JobSpec::new(Deck::weibel(4, 4, 4, 2, 0.3), steps);
        spec.name = name.to_string();
        spec
    }

    fn small_server(max_resident: usize) -> Server {
        Server::new(ServePolicy {
            max_jobs: 16,
            max_bytes: 64 << 20,
            max_resident,
            pools: vec![2, 1],
            quantum: 2,
            tuner_epoch: 2,
        })
    }

    #[test]
    fn jobs_run_to_completion_in_fair_rounds() {
        let mut srv = small_server(4);
        let a = srv.submit(tiny_spec("a", 6)).unwrap();
        let b = srv.submit(tiny_spec("b", 6)).unwrap();
        let report = srv.run_until_done(100);
        assert_eq!(report.completed, 2);
        assert_eq!(report.steps, 12);
        for id in [a, b] {
            let st = srv.status(id).unwrap();
            assert_eq!(st.phase, JobPhase::Done);
            assert_eq!(st.steps_done, 6);
            assert!(srv.final_blob(id).is_some());
        }
        if let Some(f) = report.fairness_worst {
            assert!(f <= 2.0, "fairness ratio {f}");
        }
    }

    #[test]
    fn job_budget_is_a_typed_refusal() {
        let mut srv = Server::new(ServePolicy { max_jobs: 1, ..ServePolicy::default() });
        srv.submit(tiny_spec("a", 2)).unwrap();
        match srv.submit(tiny_spec("b", 2)) {
            Err(AdmitError::JobBudget { active: 1, max_jobs: 1 }) => {}
            other => panic!("expected JobBudget, got {other:?}"),
        }
        // draining the first job frees the slot
        srv.run_until_done(100);
        srv.submit(tiny_spec("b", 2)).expect("slot freed after completion");
    }

    #[test]
    fn memory_budget_is_a_typed_refusal() {
        let probe = tiny_spec("probe", 2);
        let one_job = probe.estimated_bytes();
        let mut srv = Server::new(ServePolicy {
            max_bytes: one_job + one_job / 2,
            ..ServePolicy::default()
        });
        srv.submit(tiny_spec("a", 2)).unwrap();
        match srv.submit(tiny_spec("b", 2)) {
            Err(AdmitError::MemoryBudget { estimated, pledged, .. }) => {
                assert_eq!(estimated, one_job);
                assert_eq!(pledged, one_job);
            }
            other => panic!("expected MemoryBudget, got {other:?}"),
        }
    }

    #[test]
    fn malformed_spec_is_refused_at_the_door() {
        let mut srv = small_server(2);
        let mut spec = tiny_spec("zero", 0);
        spec.steps = 0;
        assert!(matches!(srv.submit(spec), Err(AdmitError::Spec(_))));
        assert!(matches!(
            srv.submit_deck("deck=unknown steps=1"),
            Err(AdmitError::Spec(SpecError::UnknownDeck(_)))
        ));
    }

    #[test]
    fn residency_cap_parks_and_resumes_jobs() {
        let mut srv = small_server(1); // every other job must park
        let ids: Vec<JobId> =
            (0..3).map(|i| srv.submit(tiny_spec(&format!("t{i}"), 4)).unwrap()).collect();
        // after one round everyone has stepped, so parking demonstrably
        // round-trips live state, not just fresh builds
        srv.run_round();
        let mut parked = 0;
        for &id in &ids {
            let st = srv.status(id).unwrap();
            assert!(st.steps_done > 0, "{} never stepped", st.name);
            parked += usize::from(st.phase == JobPhase::Parked);
        }
        assert!(parked >= 2, "cap of 1 must park the other jobs ({parked} parked)");
        let report = srv.run_until_done(100);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn deadline_cancels_only_the_late_job() {
        let mut srv = small_server(4);
        let mut late = tiny_spec("late", 1_000_000);
        late.deadline_rounds = Some(2);
        let late = srv.submit(late).unwrap();
        let ok = srv.submit(tiny_spec("ok", 4)).unwrap();
        let report = srv.run_until_done(100);
        assert_eq!(srv.status(late).unwrap().phase, JobPhase::Cancelled);
        assert_eq!(srv.status(late).unwrap().detail, "deadline expired");
        assert_eq!(srv.status(ok).unwrap().phase, JobPhase::Done);
        assert_eq!(report.cancelled, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn cancel_is_immediate_and_typed() {
        let mut srv = small_server(4);
        let id = srv.submit(tiny_spec("a", 100)).unwrap();
        srv.run_round();
        srv.cancel(id).unwrap();
        assert_eq!(srv.status(id).unwrap().phase, JobPhase::Cancelled);
        assert_eq!(srv.cancel(id), Err(ServeError::NotRunnable(id)));
        assert_eq!(srv.cancel(JobId(999)), Err(ServeError::UnknownJob(JobId(999))));
        let report = srv.run_until_done(10);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn explicit_park_preempts_a_resident_job() {
        let mut srv = small_server(4);
        let id = srv.submit(tiny_spec("a", 10)).unwrap();
        srv.run_round();
        assert_eq!(srv.status(id).unwrap().phase, JobPhase::Resident);
        srv.park(id).unwrap();
        assert_eq!(srv.status(id).unwrap().phase, JobPhase::Parked);
        assert!(srv.parked_blob_mut(id).is_some());
        let report = srv.run_until_done(100);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn distinct_job_names_register_no_metrics() {
        // a registered histogram lives as long as the process, so a
        // metric keyed by tenant name would grow with every new tenant
        let was = telemetry::enabled();
        telemetry::set_enabled(true);
        let mut srv = small_server(1);
        for i in 0..8 {
            srv.submit(tiny_spec(&format!("leak-probe-{i}"), 3)).unwrap();
        }
        let report = srv.run_until_done(100);
        telemetry::set_enabled(was);
        assert_eq!(report.completed, 8);
        let per_job: Vec<String> = telemetry::metrics_snapshot()
            .hists
            .into_keys()
            .filter(|k| k.starts_with("serve.job."))
            .collect();
        assert!(per_job.is_empty(), "{} per-job histograms: {per_job:?}", per_job.len());
    }
}
