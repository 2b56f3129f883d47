//! Elastic data-parallel training: ranks join and leave at step
//! boundaries without a full restart.
//!
//! Checkpoint-restart fault tolerance ([`train_data_parallel_ft`]
//! (crate::trainer::train_data_parallel_ft)) tears the whole world down on
//! any membership change and replays from the last snapshot — at the
//! paper's scale (4560 Summit nodes) that throws away up to
//! `checkpoint_every − 1` steps of work on every node failure, and cannot
//! *grow* the world at all. This module keeps training running across
//! membership changes:
//!
//! * **Generation-numbered views.** The world is described by a
//!   [`WorldView`] — a strictly increasing generation number plus the
//!   sorted member ids. Every collective runs against exactly one view;
//!   views change only *between* steps.
//! * **One membership round per decision.** At every step boundary, and
//!   after every failed step attempt, each member of the view checks in
//!   with the shared hub (the job scheduler's part in a deployment),
//!   reporting whether it wants to leave and whether it holds the live
//!   state. The round completes once every member has checked in or
//!   died (its hub lease dropped) and returns one decision to all of
//!   them: proceed, crash recovery without the dead, or a leave/join
//!   transition. A new view re-assembles the communicator through the
//!   generation-keyed [`Rendezvous`], so a collective can never straddle
//!   two worlds, then runs its own round at the same boundary — which is
//!   how a crash, a leave and a join cascade there.
//! * **State follows the view.** On every transition the learning rate is
//!   rescaled linearly with the world size (the paper's Figure-6 rule),
//!   the staging plan re-shards ownership so only orphaned samples are
//!   re-read, the overlap engine's fusion buckets are rebuilt for the new
//!   world, and joiners receive the parameters *and optimizer state* by
//!   broadcast from a live survivor — a checkpoint is touched only in the
//!   survivor-less handoff case.
//! * **Crash recovery without restart.** A member that vanishes never
//!   checks in; a step that fails mid-flight is reported as failed. Either
//!   way the survivors continue in a fresh generation from the *live*
//!   model — zero completed steps are lost, where checkpoint-restart
//!   would replay everything past the last snapshot.
//!
//! Fault schedules come from [`FaultPlan`] (`with_leave_at_step` /
//! `with_join_at_step` plus crashes), so any churn scenario — flapping
//! ranks, join-during-leave cascades, full founder turnover — replays
//! bit-identically.

use crate::replica::Replica;
use crate::trainer::{BatchSource, OptimizerKind, StepRecord, TrainerConfig};
use exaclim_comm::{CommError, CommWorld, Communicator, Rendezvous};
use exaclim_faults::FaultPlan;
use exaclim_nn::checkpoint;
use exaclim_nn::optim::{scale_lr_for_batch, OptState};
use exaclim_nn::Layer;
use exaclim_staging::StagingPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A training world: who is in it, under which generation number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldView {
    /// Strictly increasing across transitions; 0 is the founding world.
    pub generation: u64,
    /// Sorted original member ids.
    pub members: Vec<usize>,
}

/// One committed membership transition (or the founding world).
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    /// The generation that began here.
    pub generation: u64,
    /// Its members (sorted original ids).
    pub members: Vec<usize>,
    /// First step the generation executes.
    pub begin_step: usize,
    /// Human-readable reason ("initial world", "1 leave / 1 join",
    /// "crash recovery …").
    pub cause: String,
    /// Learning rate after the linear world-size rescale.
    pub lr: f32,
    /// Staging samples whose owner moved in the re-shard.
    pub staging_moved: usize,
    /// Wall-clock seconds the transition took (0 for the founding world).
    pub transition_wall_s: f64,
}

/// Elastic-training knobs wrapped around a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The underlying training configuration. `ranks` is the *founding*
    /// world size; membership changes from there.
    pub base: TrainerConfig,
    /// Save an auto-checkpoint after every this-many completed steps
    /// (kept as the fallback artifact; elastic transitions themselves do
    /// not read it unless a handoff leaves no survivor).
    pub checkpoint_every: usize,
    /// Directory for `step-*.exck` auto-checkpoints and
    /// `handoff-gen*.exck` survivor-less handoffs.
    pub checkpoint_dir: PathBuf,
    /// Per-receive deadline; also bounds each rendezvous wait.
    pub recv_deadline: Duration,
    /// Total samples in the simulated staging dataset.
    pub staging_samples: usize,
    /// Samples each member stages locally.
    pub staging_samples_per_node: usize,
}

impl ElasticConfig {
    /// Sensible defaults: checkpoint every 2 steps, 5-second deadline,
    /// a small staging universe.
    pub fn new(base: TrainerConfig, checkpoint_dir: impl Into<PathBuf>) -> ElasticConfig {
        ElasticConfig {
            base,
            checkpoint_every: 2,
            checkpoint_dir: checkpoint_dir.into(),
            recv_deadline: Duration::from_secs(5),
            staging_samples: 96,
            staging_samples_per_node: 16,
        }
    }
}

/// Result of an elastic run.
#[derive(Debug)]
pub struct ElasticReport {
    /// Per-step aggregates over all `base.steps` global steps.
    pub steps: Vec<StepRecord>,
    /// Final parameter hash per finishing member, in member-id order.
    pub final_hashes: Vec<u64>,
    /// True when every finishing replica ended bitwise identical and
    /// every per-step audit agreed.
    pub consistent: bool,
    /// The founding world plus every committed transition, in order.
    pub generations: Vec<GenerationRecord>,
    /// Ids admitted from the lobby, in admission order.
    pub ranks_joined: Vec<usize>,
    /// Ids that left gracefully, in departure order.
    pub ranks_left: Vec<usize>,
    /// Ids lost to crashes, in recovery order.
    pub ranks_lost: Vec<usize>,
    /// Step attempts abandoned mid-flight and re-run (0 when failures
    /// strike only at boundaries — boundary recovery loses nothing).
    pub steps_retried: usize,
    /// Live param + optimizer broadcasts to joiners.
    pub param_broadcasts: usize,
    /// Transitions that had to fall back to a handoff checkpoint because
    /// no survivor remained to broadcast from.
    pub checkpoint_fallbacks: usize,
    /// Periodic auto-checkpoints written.
    pub checkpoints_saved: usize,
    /// Staging samples whose owner moved across all re-shards.
    pub staging_moved_samples: usize,
    /// Scheduled joiners the run ended without ever admitting.
    pub never_admitted: Vec<usize>,
    /// Non-finite loss detected.
    pub diverged: bool,
}

// ---------------------------------------------------------------------------
// The hub: shared membership state (stands in for a job scheduler).
// ---------------------------------------------------------------------------

/// What an admitted joiner needs to enter the world.
struct Admission {
    view: WorldView,
    start_step: usize,
    /// Survivor to receive the live broadcast from; `None` means load the
    /// handoff checkpoint instead.
    root: Option<usize>,
    handoff: Option<PathBuf>,
}

#[derive(Default)]
struct Counters {
    retried: usize,
    param_broadcasts: usize,
    checkpoint_fallbacks: usize,
    checkpoints_saved: usize,
}

/// How a freshly assembled world synchronizes model state.
#[derive(Clone)]
enum SyncPlan {
    /// Everybody already holds the live state.
    None,
    /// Broadcast params + optimizer state from this member id; unsynced
    /// members import, synced members just relay.
    Broadcast { root: usize },
    /// No survivor: every unsynced member loads its handoff checkpoint.
    Handoff,
}

/// What a membership round decided, identically for every member.
#[derive(Clone)]
enum Decision {
    /// Membership unchanged — run the step.
    Proceed,
    /// Enter this view and sync by the plan; members outside it depart.
    Enter(WorldView, SyncPlan),
}

/// One member's report to a membership round.
struct CheckIn {
    /// The member departs gracefully at this boundary.
    wants_leave: bool,
    /// The member holds the live model state.
    synced: bool,
    /// The member's last step attempt (or world entry) failed.
    failed: bool,
}

/// One membership round: the members of one view meet at one boundary,
/// or after one failed attempt, and get one decision back.
struct Round {
    opened: Instant,
    checked: BTreeSet<usize>,
    synced: BTreeSet<usize>,
    leavers: BTreeSet<usize>,
    failed: bool,
    decision: Option<Decision>,
    /// Members yet to collect the decision; the round is dropped at 0.
    unread: usize,
}

struct HubState {
    /// Liveness leases per member id. A count, not a flag: a flapping
    /// rank's departing thread may still hold its lease when the
    /// admission of its next incarnation reserves another.
    leases: BTreeMap<usize, usize>,
    /// Waiting joiners: id → earliest admissible step.
    lobby: BTreeMap<usize, usize>,
    admissions: BTreeMap<usize, Admission>,
    next_generation: u64,
    /// Open rounds, keyed by (generation, rounds already run in it).
    rounds: BTreeMap<(u64, usize), Round>,
    staging: StagingPlan,
    staging_moved: usize,
    history: Vec<GenerationRecord>,
    ranks_joined: Vec<usize>,
    ranks_left: Vec<usize>,
    ranks_lost: Vec<usize>,
    counters: Counters,
    step_records: Vec<Option<StepRecord>>,
    closed: bool,
}

/// Shared membership authority — the piece a cluster scheduler plays in a
/// real deployment, and the only place a membership decision is made.
/// Everything in it is bookkeeping; the data plane stays on the
/// per-generation communicators.
struct ElasticHub {
    state: Mutex<HubState>,
    cv: Condvar,
    base_lr: f32,
    initial_ranks: usize,
    staging_spn: usize,
    staging_seed: u64,
    checkpoint_dir: PathBuf,
}

/// Membership lease: dropping it (graceful return *or* thread death)
/// deregisters the member and wakes anyone waiting on liveness.
struct HubGuard {
    hub: Arc<ElasticHub>,
    me: usize,
}

impl Drop for HubGuard {
    fn drop(&mut self) {
        let mut s = self.hub.state.lock().unwrap();
        if let Some(n) = s.leases.get_mut(&self.me) {
            *n -= 1;
            if *n == 0 {
                s.leases.remove(&self.me);
            }
        }
        self.hub.cv.notify_all();
    }
}

fn kind_lr(kind: OptimizerKind) -> f32 {
    match kind {
        OptimizerKind::Sgd { lr, .. } => lr,
        OptimizerKind::Adam { lr } => lr,
        OptimizerKind::Larc { lr, .. } => lr,
    }
}

impl ElasticHub {
    fn new(cfg: &ElasticConfig, faults: &FaultPlan) -> ElasticHub {
        let mut lobby: BTreeMap<usize, usize> = BTreeMap::new();
        for j in &faults.joins {
            let e = lobby.entry(j.node).or_insert(j.at_step);
            *e = (*e).min(j.at_step);
        }
        let base_lr = kind_lr(cfg.base.optimizer);
        let staging = StagingPlan::build(
            cfg.staging_samples,
            cfg.base.ranks,
            cfg.staging_samples_per_node,
            cfg.base.seed,
        );
        let state = HubState {
            leases: (0..cfg.base.ranks).map(|m| (m, 1)).collect(),
            lobby,
            admissions: BTreeMap::new(),
            next_generation: 1,
            rounds: BTreeMap::new(),
            staging,
            staging_moved: 0,
            history: vec![GenerationRecord {
                generation: 0,
                members: (0..cfg.base.ranks).collect(),
                begin_step: 0,
                cause: "initial world".into(),
                lr: scale_lr_for_batch(base_lr, cfg.base.ranks, cfg.base.ranks),
                staging_moved: 0,
                transition_wall_s: 0.0,
            }],
            ranks_joined: Vec::new(),
            ranks_left: Vec::new(),
            ranks_lost: Vec::new(),
            counters: Counters::default(),
            step_records: vec![None; cfg.base.steps],
            closed: false,
        };
        ElasticHub {
            state: Mutex::new(state),
            cv: Condvar::new(),
            base_lr,
            initial_ranks: cfg.base.ranks,
            staging_spn: cfg.staging_samples_per_node,
            staging_seed: cfg.base.seed,
            checkpoint_dir: cfg.checkpoint_dir.clone(),
        }
    }

    fn lr_for(&self, world: usize) -> f32 {
        scale_lr_for_batch(self.base_lr, self.initial_ranks, world)
    }

    /// Takes up a member's liveness lease: a founder's, or the one its
    /// admission reserved.
    fn adopt(self: &Arc<Self>, me: usize) -> HubGuard {
        debug_assert!(self.state.lock().unwrap().leases.contains_key(&me));
        HubGuard { hub: self.clone(), me }
    }

    /// Checks `me` in to round `seq` of `view` (`seq` counts the rounds
    /// the view has already run) and blocks until the round is decided.
    /// A round is complete once every member has checked in or lost its
    /// lease; whoever sees it complete decides for everyone. The decider
    /// calls `write_handoff` to persist its live state when the model
    /// moves to joiners with no survivor to broadcast it.
    fn round(
        &self,
        view: &WorldView,
        seq: usize,
        me: usize,
        step: usize,
        check_in: CheckIn,
        write_handoff: impl FnOnce(&Path) -> std::io::Result<()>,
    ) -> Decision {
        let key = (view.generation, seq);
        let mut s = self.state.lock().unwrap();
        let r = s.rounds.entry(key).or_insert_with(|| Round {
            opened: Instant::now(),
            checked: BTreeSet::new(),
            synced: BTreeSet::new(),
            leavers: BTreeSet::new(),
            failed: false,
            decision: None,
            unread: 0,
        });
        r.checked.insert(me);
        if check_in.synced {
            r.synced.insert(me);
        }
        if check_in.wants_leave {
            r.leavers.insert(me);
        }
        r.failed |= check_in.failed;
        self.cv.notify_all();
        loop {
            let r = &s.rounds[&key];
            if r.decision.is_some() {
                break;
            }
            if view.members.iter().all(|m| r.checked.contains(m) || !s.leases.contains_key(m)) {
                let mut r = s.rounds.remove(&key).expect("open round");
                r.decision = Some(self.decide(&mut s, &r, view, step, write_handoff));
                r.unread = r.checked.len();
                s.rounds.insert(key, r);
                self.cv.notify_all();
                break;
            }
            s = self.cv.wait(s).unwrap();
        }
        let r = s.rounds.get_mut(&key).expect("decided round");
        let decision = r.decision.clone().expect("decided round");
        r.unread -= 1;
        if r.unread == 0 {
            s.rounds.remove(&key);
        }
        decision
    }

    /// The decision of a complete round. A failure or a member that never
    /// checked in forces crash recovery; otherwise leavers and admissible
    /// lobby entries make a transition, and nothing at all means proceed.
    fn decide(
        &self,
        s: &mut HubState,
        r: &Round,
        view: &WorldView,
        step: usize,
        write_handoff: impl FnOnce(&Path) -> std::io::Result<()>,
    ) -> Decision {
        let wall_s = r.opened.elapsed().as_secs_f64();
        let dead: Vec<usize> =
            view.members.iter().copied().filter(|m| !r.checked.contains(m)).collect();
        if r.failed || !dead.is_empty() {
            // Whoever checked in carries on; a member without the live
            // state (a joiner whose entry failed) takes it from the
            // lowest synced member, or from its handoff if there is none.
            let members: Vec<usize> = r.checked.iter().copied().collect();
            let sync = if r.synced.len() == members.len() {
                SyncPlan::None
            } else if let Some(&root) = r.synced.first() {
                s.counters.param_broadcasts += 1;
                SyncPlan::Broadcast { root }
            } else {
                SyncPlan::Handoff
            };
            let cause = format!("crash recovery (lost {dead:?})");
            s.ranks_lost.extend(dead);
            return Decision::Enter(self.open_generation(s, members, step, cause, wall_s), sync);
        }
        let joiners: Vec<usize> = s
            .lobby
            .iter()
            .filter(|(node, &at)| at <= step && !view.members.contains(node))
            .map(|(&node, _)| node)
            .collect();
        if r.leavers.is_empty() && joiners.is_empty() {
            return Decision::Proceed;
        }
        let survivors: Vec<usize> =
            view.members.iter().copied().filter(|m| !r.leavers.contains(m)).collect();
        let mut members: Vec<usize> = survivors.iter().chain(&joiners).copied().collect();
        members.sort_unstable();
        assert!(
            !members.is_empty(),
            "every member left at step {step} and nobody joined — the model has no home"
        );
        for &j in &joiners {
            s.lobby.remove(&j);
            s.staging.ensure_node(j, self.staging_spn, self.staging_seed);
        }
        let cause = format!("{} leave / {} join", r.leavers.len(), joiners.len());
        let new_view = self.open_generation(s, members, step, cause, wall_s);
        // Survivor-less transition: persist the live state (params *and*
        // optimizer) before the joiners are admitted.
        let handoff = if survivors.is_empty() {
            let path =
                self.checkpoint_dir.join(format!("handoff-gen{:08}.exck", new_view.generation));
            std::fs::create_dir_all(&self.checkpoint_dir)
                .and_then(|()| write_handoff(&path))
                .unwrap_or_else(|e| panic!("write handoff for generation {}: {e}", new_view.generation));
            Some(path)
        } else {
            None
        };
        if !joiners.is_empty() {
            if survivors.is_empty() {
                s.counters.checkpoint_fallbacks += 1;
            } else {
                s.counters.param_broadcasts += 1;
            }
        }
        for &j in &joiners {
            *s.leases.entry(j).or_insert(0) += 1;
            s.admissions.insert(
                j,
                Admission {
                    view: new_view.clone(),
                    start_step: step,
                    root: survivors.first().copied(),
                    handoff: handoff.clone(),
                },
            );
        }
        s.ranks_joined.extend(&joiners);
        s.ranks_left.extend(&r.leavers);
        let sync = match survivors.first() {
            Some(&root) if !joiners.is_empty() => SyncPlan::Broadcast { root },
            _ => SyncPlan::None,
        };
        Decision::Enter(new_view, sync)
    }

    /// Starts the next generation over `members`: re-shards staging
    /// ownership onto them and logs the generation.
    fn open_generation(
        &self,
        s: &mut HubState,
        members: Vec<usize>,
        begin_step: usize,
        cause: String,
        wall_s: f64,
    ) -> WorldView {
        let generation = s.next_generation;
        s.next_generation += 1;
        let moved = s.staging.reassign_owners(&members);
        s.staging_moved += moved;
        s.history.push(GenerationRecord {
            generation,
            members: members.clone(),
            begin_step,
            cause,
            lr: self.lr_for(members.len()),
            staging_moved: moved,
            transition_wall_s: wall_s,
        });
        WorldView { generation, members }
    }

    /// Blocks until `me` is admitted or the run closes. `None` means the
    /// run finished without ever needing this joiner.
    fn wait_admission(&self, me: usize) -> Option<Admission> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(a) = s.admissions.remove(&me) {
                return Some(a);
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    fn record_step(&self, step: usize, mean_loss: f32, wall_time_s: f64) {
        let mut s = self.state.lock().unwrap();
        s.step_records[step] = Some(StepRecord { step, mean_loss, wall_time_s });
    }

    fn note_retry(&self) {
        self.state.lock().unwrap().counters.retried += 1;
    }

    fn note_checkpoint(&self) {
        self.state.lock().unwrap().counters.checkpoints_saved += 1;
    }

    fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Member state machine.
// ---------------------------------------------------------------------------

/// How one member thread's participation ended.
enum MemberOutcome {
    Finished { me: usize, final_hash: u64, hashes_ok: bool, model: Box<dyn Layer> },
    Left { me: usize },
    Crashed { me: usize },
    NeverAdmitted { me: usize },
}

struct Member<B: BatchSource> {
    me: usize,
    hub: Arc<ElasticHub>,
    rv: Arc<Rendezvous>,
    cfg: ElasticConfig,
    faults: FaultPlan,
    replica: Replica,
    source: B,
    view: WorldView,
    /// Membership rounds this member has run in `view`.
    rounds: usize,
    synced: bool,
    handoff: Option<PathBuf>,
    /// Step this incarnation entered the world (−1 for founders). A
    /// scheduled leave fires only if it post-dates the entry — a member
    /// that leaves and rejoins at one boundary must not leave again.
    joined_at: i64,
    _guard: HubGuard,
}

impl<B: BatchSource> Member<B> {
    /// A member not yet wired into any world; its replica's streams are
    /// keyed by the member id, stable across generations.
    #[allow(clippy::too_many_arguments)]
    fn new<MB>(
        me: usize,
        hub: Arc<ElasticHub>,
        rv: Arc<Rendezvous>,
        cfg: ElasticConfig,
        faults: FaultPlan,
        model_builder: &MB,
        source: B,
        guard: HubGuard,
    ) -> Member<B>
    where
        MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer>,
    {
        Member {
            me,
            hub,
            rv,
            faults,
            replica: Replica::new(&cfg.base, me, model_builder),
            source,
            view: WorldView { generation: 0, members: Vec::new() },
            rounds: 0,
            synced: false,
            handoff: None,
            joined_at: -1,
            _guard: guard,
            cfg,
        }
    }

    fn idx(&self) -> usize {
        self.view
            .members
            .iter()
            .position(|&m| m == self.me)
            .expect("member appears in its own view")
    }

    fn is_leader(&self) -> bool {
        self.view.members.first() == Some(&self.me)
    }

    /// Per-generation wiring: world-size-scaled learning rate plus the
    /// replica's reduce settings, buckets and (in overlap mode) engine.
    fn configure(&mut self, comm: Communicator) {
        let n = self.view.members.len();
        self.replica.optimizer().set_lr(self.hub.lr_for(n));
        self.replica.wire(comm, self.idx(), n);
        if self.is_leader() {
            self.rv.forget_before(self.view.generation);
        }
    }

    /// Enters a decided view: rendezvous the new communicator, run the
    /// sync plan, rewire. On error the member's view is already the new
    /// generation, so the round that reports the failure is keyed to it.
    fn enter(&mut self, view: WorldView, sync: SyncPlan) -> Result<(), CommError> {
        self.replica.unwire();
        self.view = view;
        self.rounds = 0;
        let mut comm = self.rv.join(
            self.view.generation,
            &self.view.members,
            self.me,
            self.cfg.recv_deadline,
        )?;
        match sync {
            SyncPlan::None => {}
            SyncPlan::Broadcast { root } => {
                let root_idx = self
                    .view
                    .members
                    .iter()
                    .position(|&m| m == root)
                    .expect("broadcast root is a member of the new view");
                // The full checkpointable state travels, not just the
                // trainable set, so joiners match survivors exactly.
                let state = &self.replica.state;
                let total: usize = state.iter().map(|p| p.numel()).sum();
                let mut flat = vec![0.0f32; total];
                if self.me == root {
                    let mut off = 0;
                    for p in state.iter() {
                        let v = p.value();
                        flat[off..off + v.numel()].copy_from_slice(v.as_slice());
                        off += v.numel();
                    }
                }
                comm.try_broadcast(root_idx, &mut flat)?;
                let mut opt_bytes = if self.me == root {
                    self.replica.optimizer().export_state().to_bytes()
                } else {
                    Vec::new()
                };
                comm.try_broadcast_bytes(root_idx, &mut opt_bytes)?;
                if !self.synced {
                    let mut off = 0;
                    for p in self.replica.state.iter() {
                        let n = p.numel();
                        let src = &flat[off..off + n];
                        p.apply_update(|v, _| v.copy_from_slice(src));
                        off += n;
                    }
                    let state = OptState::from_bytes(&opt_bytes)
                        .unwrap_or_else(|e| panic!("member {}: optimizer broadcast: {e}", self.me));
                    self.replica.import_optimizer(&state);
                    self.synced = true;
                }
            }
            SyncPlan::Handoff => {
                if !self.synced {
                    let path =
                        self.handoff.as_ref().expect("survivor-less admission carries a handoff checkpoint");
                    self.replica.restore(path);
                    self.synced = true;
                }
            }
        }
        self.configure(comm);
        // Let the batch source follow the membership change (streaming
        // sources re-shard deterministically on this hook).
        self.source.on_generation(self.view.generation, &self.view.members.clone());
        Ok(())
    }

    /// Runs this member's next membership round in its current view.
    fn round(&mut self, step: usize, failed: bool) -> Decision {
        let check_in = CheckIn {
            wants_leave: self.faults.leave_step(self.me) == Some(step)
                && step as i64 > self.joined_at,
            synced: self.synced,
            failed,
        };
        let replica = &mut self.replica;
        let decision = self.hub.round(&self.view, self.rounds, self.me, step, check_in, |path| {
            let opt = replica.optimizer().export_state();
            checkpoint::save_with_optimizer(&replica.state, &opt, path)
        });
        self.rounds += 1;
        decision
    }

    /// Runs the member from `step` until the step budget completes, it
    /// leaves, or it crashes; `failed` says its entry into the current
    /// view failed. Every step boundary, and every failed attempt, runs
    /// membership rounds to a fixpoint: a new view re-runs the round in
    /// that view, which is what lets a crash, a leave and a join cascade
    /// at one boundary.
    fn run(mut self, mut step: usize, mut failed: bool) -> MemberOutcome {
        while step < self.cfg.base.steps {
            if self.faults.crash_step(self.me) == Some(step) {
                // Fault injection: vanish. Dropping the communicator and
                // the hub guard is the whole signal.
                return MemberOutcome::Crashed { me: self.me };
            }
            while let Decision::Enter(view, sync) = self.round(step, failed) {
                if !view.members.contains(&self.me) {
                    return MemberOutcome::Left { me: self.me };
                }
                failed = self.enter(view, sync).is_err();
            }
            // Elastic never lends the optimizer to the comm worker: a
            // failed step is retried from live parameters, and members may
            // have applied *different* bucket subsets before the failure —
            // unrecoverable divergence.
            match self.replica.step(step, &mut self.source, false) {
                Ok(stats) => {
                    if self.is_leader() {
                        self.hub.record_step(step, stats.mean_loss, stats.wall_s);
                        let completed = step + 1;
                        if completed.is_multiple_of(self.cfg.checkpoint_every) {
                            self.replica.save_auto(&self.cfg.checkpoint_dir, completed);
                            self.hub.note_checkpoint();
                        }
                    }
                    step += 1;
                }
                Err(_) => {
                    // A mid-step failure abandons the attempt: reset the
                    // gradients and report it, so the next round moves to
                    // a fresh world where the same global step re-runs.
                    self.replica.params.zero_grads();
                    self.hub.note_retry();
                    failed = true;
                }
            }
        }
        self.hub.close();
        MemberOutcome::Finished {
            me: self.me,
            final_hash: self.replica.params.state_hash(),
            hashes_ok: self.replica.hashes_ok,
            model: self.replica.model,
        }
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Runs synchronous data-parallel training whose membership changes at
/// step boundaries without a full restart: graceful leaves, lobby joins
/// and crash recovery per the [`FaultPlan`], bit-identically replayable.
/// Returns the report and the trained replica of the lowest-id finisher.
pub fn train_data_parallel_elastic<B, MB, SB>(
    cfg: &ElasticConfig,
    faults: &FaultPlan,
    model_builder: MB,
    source_builder: SB,
) -> (ElasticReport, Box<dyn Layer>)
where
    B: BatchSource + 'static,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer> + Send + Sync + Clone,
    SB: Fn(usize) -> B + Send + Sync,
{
    assert!(cfg.base.ranks >= 1, "need at least one founding rank");
    assert_eq!(cfg.base.ranks % cfg.base.node_size, 0, "node_size must divide ranks");
    assert!(cfg.checkpoint_every >= 1, "checkpoint_every must be at least 1");

    let hub = Arc::new(ElasticHub::new(cfg, faults));
    let rv = Arc::new(Rendezvous::new());
    let founding: Vec<usize> = (0..cfg.base.ranks).collect();
    let comms = CommWorld::with_deadline(cfg.base.ranks, cfg.recv_deadline);

    let new_member = |me: usize, guard: HubGuard| {
        let source = source_builder(me);
        Member::new(me, hub.clone(), rv.clone(), cfg.clone(), faults.clone(), &model_builder, source, guard)
    };
    let mut outcomes: Vec<MemberOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (me, comm) in comms.into_iter().enumerate() {
            let guard = hub.adopt(me);
            let (founding, new_member) = (founding.clone(), &new_member);
            handles.push(scope.spawn(move || {
                let mut member = new_member(me, guard);
                member.view = WorldView { generation: 0, members: founding };
                member.synced = true;
                member.configure(comm);
                member.run(0, false)
            }));
        }
        for me in faults.joining_nodes() {
            let hub = hub.clone();
            let new_member = &new_member;
            handles.push(scope.spawn(move || {
                let Some(adm) = hub.wait_admission(me) else {
                    return MemberOutcome::NeverAdmitted { me };
                };
                let mut member = new_member(me, hub.adopt(me));
                member.replica.fast_forward(&mut member.source, adm.start_step);
                member.handoff = adm.handoff;
                member.joined_at = adm.start_step as i64;
                let sync = match adm.root {
                    Some(root) => SyncPlan::Broadcast { root },
                    None => SyncPlan::Handoff,
                };
                let failed = member.enter(adm.view, sync).is_err();
                member.run(adm.start_step, failed)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("member thread")).collect()
    });

    // Aggregate: the hub holds the authoritative membership story; the
    // outcomes hold the replicas.
    outcomes.sort_by_key(|o| match o {
        MemberOutcome::Finished { me, .. }
        | MemberOutcome::Left { me }
        | MemberOutcome::Crashed { me }
        | MemberOutcome::NeverAdmitted { me } => *me,
    });
    let mut final_hashes = Vec::new();
    let mut hashes_ok = true;
    let mut never_admitted = Vec::new();
    let mut model_out: Option<Box<dyn Layer>> = None;
    for o in outcomes.drain(..) {
        match o {
            MemberOutcome::Finished { final_hash, hashes_ok: ok, model, .. } => {
                final_hashes.push(final_hash);
                hashes_ok &= ok;
                if model_out.is_none() {
                    model_out = Some(model);
                }
            }
            MemberOutcome::NeverAdmitted { me } => never_admitted.push(me),
            MemberOutcome::Left { .. } | MemberOutcome::Crashed { .. } => {}
        }
    }

    let s = hub.state.lock().unwrap();
    let steps: Vec<StepRecord> = s
        .step_records
        .iter()
        .map(|r| r.expect("every global step completed"))
        .collect();
    let diverged = steps.iter().any(|r| !r.mean_loss.is_finite());
    let consistent = hashes_ok && final_hashes.windows(2).all(|w| w[0] == w[1]);
    let report = ElasticReport {
        steps,
        final_hashes,
        consistent,
        generations: s.history.clone(),
        ranks_joined: s.ranks_joined.clone(),
        ranks_left: s.ranks_left.clone(),
        ranks_lost: s.ranks_lost.clone(),
        steps_retried: s.counters.retried,
        param_broadcasts: s.counters.param_broadcasts,
        checkpoint_fallbacks: s.counters.checkpoint_fallbacks,
        checkpoints_saved: s.counters.checkpoints_saved,
        staging_moved_samples: s.staging_moved,
        never_admitted,
        diverged,
    };
    drop(s);
    (report, model_out.expect("at least one member finished"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::test_support::{mode, mode_configs, toy_config, toy_model, toy_source, ToySource};
    use crate::trainer::train_data_parallel;

    fn elastic_config(ranks: usize, steps: usize, dir: &str) -> ElasticConfig {
        let d = std::env::temp_dir()
            .join(format!("exaclim_elastic_{}", std::process::id()))
            .join(dir);
        std::fs::remove_dir_all(&d).ok();
        let mut base = toy_config(ranks, steps);
        if !ranks.is_multiple_of(base.node_size) {
            base.node_size = 1;
        }
        let mut cfg = ElasticConfig::new(base, d);
        cfg.recv_deadline = Duration::from_secs(2);
        cfg
    }

    fn run(
        cfg: &ElasticConfig,
        faults: &FaultPlan,
    ) -> (ElasticReport, Box<dyn exaclim_nn::Layer>) {
        train_data_parallel_elastic(cfg, faults, toy_model, toy_source)
    }

    /// `(members, begin_step, cause)` of every generation, in order.
    fn history(r: &ElasticReport) -> Vec<(Vec<usize>, usize, String)> {
        r.generations.iter().map(|g| (g.members.clone(), g.begin_step, g.cause.clone())).collect()
    }

    fn gen(members: &[usize], begin_step: usize, cause: &str) -> (Vec<usize>, usize, String) {
        (members.to_vec(), begin_step, cause.to_string())
    }

    #[test]
    fn healthy_elastic_run_matches_plain_trainer_bitwise() {
        // With no churn the elastic path must follow the plain trainer's
        // exact arithmetic in every mode: the membership rounds and the
        // ×1.0 LR rescale are bit-neutral, and the compute precision
        // reaches the kernels exactly as it does in the plain trainer.
        for (i, base) in mode_configs(2, 6).into_iter().enumerate() {
            let m = mode(&base);
            let (plain, _m) = train_data_parallel(&base, toy_model, toy_source);
            let cfg = ElasticConfig { base, ..elastic_config(2, 6, &format!("healthy_{i}")) };
            let (r, _m2) = run(&cfg, &FaultPlan::none());
            assert!(r.consistent, "{m}");
            assert_eq!(r.final_hashes[0], plain.final_hashes[0], "identical parameter bits ({m})");
            assert_eq!(r.generations.len(), 1, "no transitions ({m})");
            assert!(r.ranks_left.is_empty() && r.ranks_joined.is_empty() && r.ranks_lost.is_empty(), "{m}");
            assert_eq!(r.steps_retried, 0, "{m}");
            assert_eq!(r.checkpoints_saved, 3, "steps 2, 4, 6 ({m})");
            std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
        }
    }

    #[test]
    fn leave_and_join_complete_without_restart() {
        // Rank 1 leaves at step 2; a new rank 4 joins at step 5. Training
        // never restarts: the world shrinks to 3, grows to 4, finishes.
        let cfg = elastic_config(4, 8, "leave_join");
        let faults = FaultPlan::seeded(11).with_leave_at_step(1, 2).with_join_at_step(4, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "finishers diverged: {:?}", r.final_hashes);
        assert_eq!(r.steps.len(), 8, "every global step completed exactly once");
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![4]);
        assert!(r.ranks_lost.is_empty());
        assert_eq!(r.final_hashes.len(), 4, "members 0, 2, 3, 4 finish");
        assert_eq!(r.generations.len(), 3, "initial world + two transitions");
        assert_eq!(r.generations[1].members, vec![0, 2, 3]);
        assert_eq!(r.generations[2].members, vec![0, 2, 3, 4]);
        assert_eq!(r.param_broadcasts, 1, "the joiner got the live state");
        assert_eq!(r.checkpoint_fallbacks, 0, "no checkpoint was needed to resize");
        assert_eq!(r.steps_retried, 0, "boundary churn loses no step");
        assert!(r.staging_moved_samples > 0, "orphaned shards were re-owned");
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn elastic_churn_is_bit_identical_with_fused_optimizer() {
        // Elastic never lends the optimizer to the engine (see
        // Member::run); fused mode is par_step only — which must still be
        // bit-identical through leaves, joins, and the LR rescales.
        let run_mode = |fused: bool, dir: &str| {
            let mut cfg = elastic_config(4, 8, dir);
            cfg.base.overlap_comm = true;
            cfg.base.fused_optim = fused;
            let faults = FaultPlan::seeded(11).with_leave_at_step(1, 2).with_join_at_step(4, 5);
            let (r, _m) = run(&cfg, &faults);
            assert!(r.consistent, "fused={fused}");
            assert_eq!(r.steps.len(), 8, "fused={fused}");
            std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
            r.final_hashes
        };
        assert_eq!(run_mode(false, "churn_legacy"), run_mode(true, "churn_fused"));
    }

    #[test]
    fn learning_rate_rescales_linearly_with_the_world() {
        let cfg = elastic_config(4, 6, "lr_rescale");
        let faults = FaultPlan::seeded(3).with_leave_at_step(3, 2);
        let (r, _m) = run(&cfg, &faults);
        // toy_config uses SGD lr 0.05; 4 → 3 ranks scales by 3/4.
        assert_eq!(r.generations[0].lr, 0.05);
        assert_eq!(r.generations[1].lr, scale_lr_for_batch(0.05, 4, 3));
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn elastic_replay_is_bit_identical() {
        let faults = FaultPlan::seeded(9)
            .with_leave_at_step(2, 3)
            .with_join_at_step(4, 4)
            .with_crash_at_step(1, 6);
        let cfg_a = elastic_config(4, 8, "replay_a");
        let (a, _ma) = run(&cfg_a, &faults);
        let cfg_b = elastic_config(4, 8, "replay_b");
        let (b, _mb) = run(&cfg_b, &faults);
        assert_eq!(a.final_hashes, b.final_hashes, "same plan, same bits");
        assert_eq!(a.generations.len(), b.generations.len());
        assert_eq!(a.ranks_lost, b.ranks_lost);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
        std::fs::remove_dir_all(&cfg_a.checkpoint_dir).ok();
        std::fs::remove_dir_all(&cfg_b.checkpoint_dir).ok();
    }

    #[test]
    fn crash_recovers_without_checkpoint_restart() {
        // Rank 2 crashes at step 5. Survivors recover in place from the
        // live model: no checkpoint restore, no step lost or replayed —
        // where the FT trainer would replay everything past step 4.
        let cfg = elastic_config(4, 8, "crash");
        let faults = FaultPlan::seeded(7).with_crash_at_step(2, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_lost, vec![2]);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0, "a boundary crash loses zero completed steps");
        assert_eq!(r.checkpoint_fallbacks, 0);
        assert_eq!(r.final_hashes.len(), 3);
        let last = r.generations.last().unwrap();
        assert!(last.cause.contains("crash recovery"), "{}", last.cause);
        assert_eq!(last.members, vec![0, 1, 3]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn lowest_id_member_crash_recovers_in_place() {
        // Member 0 — the lowest id, which roots broadcasts and records
        // steps — vanishes at the step-4 boundary; the others carry on.
        let cfg = elastic_config(4, 8, "crash_lowest");
        let faults = FaultPlan::seeded(12).with_crash_at_step(0, 4);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0);
        assert_eq!(r.ranks_lost, vec![0]);
        assert!(r.ranks_left.is_empty() && r.ranks_joined.is_empty());
        assert_eq!(
            history(&r),
            vec![gen(&[0, 1, 2, 3], 0, "initial world"), gen(&[1, 2, 3], 4, "crash recovery (lost [0])")]
        );
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn crash_and_join_resolve_at_one_boundary() {
        // Member 2 crashes at the step-4 boundary exactly when id 5 is
        // admissible: the crash is recovered first, then 5 is admitted
        // into the recovered world, both before step 4 runs.
        let cfg = elastic_config(3, 8, "crash_join");
        let faults = FaultPlan::seeded(13).with_crash_at_step(2, 4).with_join_at_step(5, 4);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0);
        assert_eq!(r.ranks_lost, vec![2]);
        assert!(r.ranks_left.is_empty());
        assert_eq!(r.ranks_joined, vec![5]);
        assert_eq!(
            history(&r),
            vec![
                gen(&[0, 1, 2], 0, "initial world"),
                gen(&[0, 1], 4, "crash recovery (lost [2])"),
                gen(&[0, 1, 5], 4, "0 leave / 1 join"),
            ]
        );
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn crash_and_leave_resolve_at_one_boundary() {
        // Member 2 crashes at the step-4 boundary while member 1 asks to
        // leave there: the crash is recovered first, then 1 departs.
        let cfg = elastic_config(4, 8, "crash_leave");
        let faults = FaultPlan::seeded(14).with_crash_at_step(2, 4).with_leave_at_step(1, 4);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0);
        assert_eq!(r.ranks_lost, vec![2]);
        assert_eq!(r.ranks_left, vec![1]);
        assert!(r.ranks_joined.is_empty());
        assert_eq!(
            history(&r),
            vec![
                gen(&[0, 1, 2, 3], 0, "initial world"),
                gen(&[0, 1, 3], 4, "crash recovery (lost [2])"),
                gen(&[0, 3], 4, "1 leave / 0 join"),
            ]
        );
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn stalled_step_is_retried_in_a_fresh_world() {
        // Member 1 stalls past the receive deadline inside step 3, so every
        // member's attempt fails mid-flight. The round after the failed
        // attempt moves the same members to a fresh generation, where
        // step 3 re-runs: nobody is lost and every step completes once.
        struct Stall {
            inner: ToySource,
            me: usize,
            batches: usize,
        }
        impl BatchSource for Stall {
            fn next_batch(&mut self) -> crate::trainer::Batch {
                self.batches += 1;
                if self.me == 1 && self.batches == 4 {
                    std::thread::sleep(Duration::from_secs(3));
                }
                self.inner.next_batch()
            }
        }
        let mut cfg = elastic_config(3, 6, "stall");
        cfg.recv_deadline = Duration::from_secs(1);
        let stall = |me| Stall { inner: toy_source(me), me, batches: 0 };
        let (r, _m) = train_data_parallel_elastic(&cfg, &FaultPlan::none(), toy_model, stall);
        assert!(r.consistent);
        assert_eq!(r.steps.len(), 6);
        assert_eq!(r.steps_retried, 3, "each member re-ran step 3 once");
        assert!(r.ranks_lost.is_empty() && r.ranks_left.is_empty() && r.ranks_joined.is_empty());
        assert_eq!(
            history(&r),
            vec![gen(&[0, 1, 2], 0, "initial world"), gen(&[0, 1, 2], 3, "crash recovery (lost [])")]
        );
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn flapping_rank_leaves_and_rejoins() {
        // Rank 1 leaves at step 2 and rejoins at step 5 — the lobby and
        // liveness bookkeeping must treat the rejoin as a fresh member.
        let cfg = elastic_config(3, 8, "flap");
        let faults = FaultPlan::seeded(5).with_leave_at_step(1, 2).with_join_at_step(1, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.final_hashes.len(), 3, "all three ids finish (1 via its rejoin)");
        assert_eq!(r.generations.last().unwrap().members, vec![0, 1, 2]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn join_during_leave_cascades_at_one_boundary() {
        // Rank 1 leaves at step 2 while also queued to join at step 2:
        // the boundary commits *two* transitions back to back (out, then
        // readmitted), exercising the round-to-fixpoint loop.
        let cfg = elastic_config(3, 6, "cascade");
        let faults = FaultPlan::seeded(6).with_leave_at_step(1, 2).with_join_at_step(1, 2);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.generations.len(), 3, "two transitions at one boundary");
        assert_eq!(r.generations[1].begin_step, r.generations[2].begin_step);
        assert_eq!(r.generations[1].members, vec![0, 2]);
        assert_eq!(r.generations[2].members, vec![0, 1, 2]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn all_founders_leave_and_joiners_continue_via_handoff() {
        // Both founders leave at step 3 exactly when two joiners arrive:
        // no survivor can root a broadcast, so the old leader writes a
        // handoff checkpoint (with optimizer state) and the new world
        // boots from it.
        let cfg = elastic_config(2, 6, "handoff");
        let faults = FaultPlan::seeded(8)
            .with_leave_at_step(0, 3)
            .with_leave_at_step(1, 3)
            .with_join_at_step(2, 3)
            .with_join_at_step(3, 3);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "joiner replicas diverged: {:?}", r.final_hashes);
        assert_eq!(r.steps.len(), 6);
        let mut left = r.ranks_left.clone();
        left.sort_unstable();
        assert_eq!(left, vec![0, 1]);
        assert_eq!(r.ranks_joined, vec![2, 3]);
        assert_eq!(r.checkpoint_fallbacks, 1, "survivor-less transition used the handoff");
        assert_eq!(r.param_broadcasts, 0);
        assert_eq!(r.generations.last().unwrap().members, vec![2, 3]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn late_joiner_is_never_admitted() {
        let cfg = elastic_config(2, 4, "late");
        let faults = FaultPlan::seeded(4).with_join_at_step(7, 99);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.never_admitted, vec![7]);
        assert!(r.ranks_joined.is_empty());
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn random_churn_plan_completes_and_replays() {
        // A seeded ChaosConfig churn schedule (the fuzz-ish gate): joins
        // and leaves drawn pseudo-randomly, run twice, bit-compared.
        use exaclim_faults::ChaosConfig;
        let chaos = ChaosConfig {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            link_fault_prob: 0.0,
            leave_prob: 0.4,
            join_prob: 0.4,
            horizon: 6,
            ..ChaosConfig::default()
        };
        let faults = FaultPlan::random(31, 3, &chaos);
        assert!(!faults.leaves.is_empty() || !faults.joins.is_empty(), "plan has churn");
        let cfg_a = elastic_config(3, 6, "chaos_a");
        let (a, _ma) = run(&cfg_a, &faults);
        let cfg_b = elastic_config(3, 6, "chaos_b");
        let (b, _mb) = run(&cfg_b, &faults);
        assert!(a.consistent && b.consistent);
        assert_eq!(a.final_hashes, b.final_hashes);
        assert_eq!(a.generations.len(), b.generations.len());
        std::fs::remove_dir_all(&cfg_a.checkpoint_dir).ok();
        std::fs::remove_dir_all(&cfg_b.checkpoint_dir).ok();
    }
}
