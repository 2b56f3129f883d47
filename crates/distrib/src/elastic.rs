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
//! * **Boundary membership protocol.** At every step boundary each member
//!   reports status (including a graceful-leave intent) to the view's
//!   leader (its lowest member id). The leader merges leavers with the
//!   join lobby and either declares *no change* or runs a
//!   propose → ack → commit handshake for the next view. Committed
//!   transitions re-assemble the communicator through the generation-keyed
//!   [`Rendezvous`], so a collective can never straddle two worlds.
//! * **State follows the view.** On every transition the learning rate is
//!   rescaled linearly with the world size (the paper's Figure-6 rule),
//!   the staging plan re-shards ownership so only orphaned samples are
//!   re-read, the overlap engine's fusion buckets are rebuilt for the new
//!   world, and joiners receive the parameters *and optimizer state* by
//!   broadcast from a live survivor — a checkpoint is touched only in the
//!   survivor-less handoff case.
//! * **Crash recovery without restart.** A member that vanishes surfaces
//!   as a typed [`CommError`] on the survivors, who meet in a keyed
//!   recovery round, agree on the surviving set, and continue in a fresh
//!   generation from the *live* model — zero completed steps are lost,
//!   where checkpoint-restart would replay everything past the last
//!   snapshot.
//!
//! Fault schedules come from [`FaultPlan`] (`with_leave_at_step` /
//! `with_join_at_step` plus crashes), so any churn scenario — flapping
//! ranks, join-during-leave cascades, full founder turnover — replays
//! bit-identically.

use crate::control::{MemberMsg, ViewMsg, TAG_MS_CTRL, TAG_MS_UP};
use crate::replica::Replica;
use crate::trainer::{BatchSource, OptimizerKind, StepRecord, TrainerConfig};
use exaclim_comm::{CommError, CommWorld, Communicator, Rendezvous};
use exaclim_faults::FaultPlan;
use exaclim_nn::checkpoint;
use exaclim_nn::optim::{scale_lr_for_batch, OptState};
use exaclim_nn::Layer;
use exaclim_staging::StagingPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
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
#[derive(Clone)]
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

/// A keyed crash-recovery round: survivors of one failed generation meet
/// here, agree on who is left, and move to a fresh generation together.
struct Recovery {
    new_generation: u64,
    checked: BTreeSet<usize>,
    synced: BTreeSet<usize>,
    /// `(members, broadcast_root, any_unsynced)` once finalized.
    committed: Option<(Vec<usize>, Option<usize>, bool)>,
}

struct HubState {
    alive: BTreeSet<usize>,
    /// Waiting joiners: id → earliest admissible step.
    lobby: BTreeMap<usize, usize>,
    admissions: BTreeMap<usize, Admission>,
    next_generation: u64,
    recoveries: BTreeMap<u64, Recovery>,
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
/// real deployment. Everything in it is bookkeeping; the data plane stays
/// on the per-generation communicators.
struct ElasticHub {
    state: Mutex<HubState>,
    cv: Condvar,
    base_lr: f32,
    initial_ranks: usize,
    staging_spn: usize,
    staging_seed: u64,
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
        s.alive.remove(&self.me);
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
            alive: (0..cfg.base.ranks).collect(),
            lobby,
            admissions: BTreeMap::new(),
            next_generation: 1,
            recoveries: BTreeMap::new(),
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
        }
    }

    fn lr_for(&self, world: usize) -> f32 {
        scale_lr_for_batch(self.base_lr, self.initial_ranks, world)
    }

    /// Adopts a founding member's pre-registered liveness slot.
    fn adopt(self: &Arc<Self>, me: usize) -> HubGuard {
        debug_assert!(self.state.lock().unwrap().alive.contains(&me));
        HubGuard { hub: self.clone(), me }
    }

    /// Registers a joiner as alive, waiting out any still-held lease for
    /// the same id (a flapping rank's departing thread may not have
    /// dropped its guard yet when the rejoining thread is admitted).
    fn register(self: &Arc<Self>, me: usize) -> HubGuard {
        let mut s = self.state.lock().unwrap();
        while s.alive.contains(&me) {
            s = self.cv.wait(s).unwrap();
        }
        s.alive.insert(me);
        drop(s);
        HubGuard { hub: self.clone(), me }
    }

    fn alloc_generation(&self) -> u64 {
        let mut s = self.state.lock().unwrap();
        let g = s.next_generation;
        s.next_generation += 1;
        g
    }

    /// Lobby entries admissible at `step` that are not current members.
    fn pending_joins(&self, step: usize, members: &[usize]) -> Vec<usize> {
        let s = self.state.lock().unwrap();
        s.lobby
            .iter()
            .filter(|(node, &at)| at <= step && !members.contains(node))
            .map(|(&node, _)| node)
            .collect()
    }

    /// Books a committed transition: removes admitted joiners from the
    /// lobby, grants their admissions, re-shards staging ownership onto
    /// the new member set, and logs the generation.
    #[allow(clippy::too_many_arguments)]
    fn commit_transition(
        &self,
        new_gen: u64,
        old_members: &[usize],
        new_members: &[usize],
        begin_step: usize,
        cause: &str,
        handoff: Option<PathBuf>,
        wall_s: f64,
    ) {
        let mut s = self.state.lock().unwrap();
        let joiners: Vec<usize> =
            new_members.iter().copied().filter(|m| !old_members.contains(m)).collect();
        let leavers: Vec<usize> =
            old_members.iter().copied().filter(|m| !new_members.contains(m)).collect();
        let survivors: Vec<usize> =
            old_members.iter().copied().filter(|m| new_members.contains(m)).collect();
        for j in &joiners {
            s.lobby.remove(j);
            s.staging.ensure_node(*j, self.staging_spn, self.staging_seed);
        }
        let moved = s.staging.reassign_owners(new_members);
        s.staging_moved += moved;
        if !joiners.is_empty() {
            if survivors.is_empty() {
                s.counters.checkpoint_fallbacks += 1;
            } else {
                s.counters.param_broadcasts += 1;
            }
        }
        let root = survivors.first().copied();
        for j in &joiners {
            s.admissions.insert(
                *j,
                Admission {
                    view: WorldView { generation: new_gen, members: new_members.to_vec() },
                    start_step: begin_step,
                    root,
                    handoff: handoff.clone(),
                },
            );
        }
        s.ranks_joined.extend(joiners);
        s.ranks_left.extend(leavers);
        let lr = self.lr_for(new_members.len());
        s.history.push(GenerationRecord {
            generation: new_gen,
            members: new_members.to_vec(),
            begin_step,
            cause: cause.to_string(),
            lr,
            staging_moved: moved,
            transition_wall_s: wall_s,
        });
        self.cv.notify_all();
    }

    /// Meets the other survivors of `failed_gen`, waits until every old
    /// member has either checked in or provably died, and returns the
    /// recovery view plus its sync plan: `(view, broadcast_root,
    /// any_unsynced)`.
    fn recover(
        &self,
        failed_gen: u64,
        old_members: &[usize],
        me: usize,
        step: usize,
        synced: bool,
    ) -> (WorldView, Option<usize>, bool) {
        let t0 = Instant::now();
        let mut s = self.state.lock().unwrap();
        if !s.recoveries.contains_key(&failed_gen) {
            let g = s.next_generation;
            s.next_generation += 1;
            s.recoveries.insert(
                failed_gen,
                Recovery {
                    new_generation: g,
                    checked: BTreeSet::new(),
                    synced: BTreeSet::new(),
                    committed: None,
                },
            );
        }
        {
            let r = s.recoveries.get_mut(&failed_gen).unwrap();
            r.checked.insert(me);
            if synced {
                r.synced.insert(me);
            }
        }
        self.cv.notify_all();
        loop {
            let ready = {
                let r = s.recoveries.get(&failed_gen).unwrap();
                old_members.iter().all(|m| r.checked.contains(m) || !s.alive.contains(m))
            };
            if ready {
                break;
            }
            s = self.cv.wait(s).unwrap();
        }
        let needs_finalize = s.recoveries.get(&failed_gen).unwrap().committed.is_none();
        if needs_finalize {
            let (survivors, dead, root, any_unsynced, new_gen) = {
                let r = s.recoveries.get(&failed_gen).unwrap();
                let survivors: Vec<usize> = r.checked.iter().copied().collect();
                let dead: Vec<usize> =
                    old_members.iter().copied().filter(|m| !r.checked.contains(m)).collect();
                let root = r.synced.iter().copied().min();
                let any_unsynced = survivors.iter().any(|m| !r.synced.contains(m));
                (survivors, dead, root, any_unsynced, r.new_generation)
            };
            let moved = s.staging.reassign_owners(&survivors);
            s.staging_moved += moved;
            s.ranks_lost.extend(dead.iter().copied());
            let lr = self.lr_for(survivors.len());
            s.history.push(GenerationRecord {
                generation: new_gen,
                members: survivors.clone(),
                begin_step: step,
                cause: format!("crash recovery (lost {dead:?})"),
                lr,
                staging_moved: moved,
                transition_wall_s: t0.elapsed().as_secs_f64(),
            });
            if any_unsynced && root.is_some() {
                s.counters.param_broadcasts += 1;
            }
            s.recoveries.get_mut(&failed_gen).unwrap().committed =
                Some((survivors, root, any_unsynced));
            self.cv.notify_all();
        }
        let r = s.recoveries.get(&failed_gen).unwrap();
        let (members, root, any_unsynced) = r.committed.clone().expect("recovery finalized");
        (WorldView { generation: r.new_generation, members }, root, any_unsynced)
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

/// Outcome of one membership round at a step boundary.
enum Round {
    /// Membership unchanged — run the step.
    Proceed,
    /// This member departs gracefully.
    Left,
    /// A new view was committed; enter it and re-run the round.
    Transition { view: WorldView, sync: SyncPlan },
    /// The round was aborted by the leader — run recovery.
    Recover,
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

struct Member<B: BatchSource> {
    me: usize,
    hub: Arc<ElasticHub>,
    rv: Arc<Rendezvous>,
    cfg: ElasticConfig,
    faults: FaultPlan,
    replica: Replica,
    source: B,
    view: WorldView,
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

    /// Enters a committed view: rendezvous the new communicator, run the
    /// sync plan, rewire. On error the member's view is already the new
    /// generation, so recovery is keyed correctly.
    fn enter(&mut self, view: WorldView, sync: SyncPlan) -> Result<(), CommError> {
        self.replica.unwire();
        self.view = view;
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

    /// Keeps recovering until a world assembles. Each attempt is keyed by
    /// the generation that just failed, so repeated failures (e.g. a rank
    /// crashing during the recovery rendezvous) chain cleanly.
    fn recover(&mut self, step: usize) {
        loop {
            self.replica.unwire();
            let (view, root, any_unsynced) = self.hub.recover(
                self.view.generation,
                &self.view.members.clone(),
                self.me,
                step,
                self.synced,
            );
            let sync = if !any_unsynced {
                SyncPlan::None
            } else {
                match root {
                    Some(r) => SyncPlan::Broadcast { root: r },
                    None => SyncPlan::Handoff,
                }
            };
            if self.enter(view, sync).is_ok() {
                return;
            }
        }
    }

    /// One membership round of the boundary before `step`.
    ///
    /// (`i` below is simultaneously the comm rank to message and the index
    /// into `members` — an enumerate would obscure that, hence the allow.)
    #[allow(clippy::needless_range_loop)]
    fn boundary_round(&mut self, step: usize) -> Result<Round, CommError> {
        let wants_leave =
            self.faults.leave_step(self.me) == Some(step) && step as i64 > self.joined_at;
        let members = self.view.members.clone();
        let n = members.len();
        if self.is_leader() {
            let t0 = Instant::now();
            let mut leavers: Vec<usize> = Vec::new();
            if wants_leave {
                leavers.push(self.me);
            }
            for i in 1..n {
                let bytes = match self.replica.comm().try_recv_bytes(i, TAG_MS_UP) {
                    Ok(b) => b,
                    Err(e) => {
                        self.abort_round(n);
                        return Err(e);
                    }
                };
                match MemberMsg::decode(&bytes) {
                    Ok(MemberMsg::Status { wants_leave: true }) => leavers.push(members[i]),
                    Ok(MemberMsg::Status { wants_leave: false }) => {}
                    other => panic!("leader expected Status from {}, got {other:?}", members[i]),
                }
            }
            let joiners = self.hub.pending_joins(step, &members);
            if leavers.is_empty() && joiners.is_empty() {
                for i in 1..n {
                    self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, ViewMsg::NoChange.encode())?;
                }
                return Ok(Round::Proceed);
            }
            let mut new_members: Vec<usize> = members
                .iter()
                .copied()
                .filter(|m| !leavers.contains(m))
                .chain(joiners.iter().copied())
                .collect();
            new_members.sort_unstable();
            assert!(
                !new_members.is_empty(),
                "every member left at step {step} and nobody joined — the model has no home"
            );
            let new_gen = self.hub.alloc_generation();
            let survivors: Vec<usize> =
                members.iter().copied().filter(|m| new_members.contains(m)).collect();
            // Survivor-less transition: persist the live state (params
            // *and* optimizer) before the old world evaporates.
            let handoff = if survivors.is_empty() {
                let path = self.cfg.checkpoint_dir.join(format!("handoff-gen{new_gen:08}.exck"));
                std::fs::create_dir_all(&self.cfg.checkpoint_dir)
                    .and_then(|()| {
                        let opt = self.replica.optimizer().export_state();
                        checkpoint::save_with_optimizer(&self.replica.state, &opt, &path)
                    })
                    .unwrap_or_else(|e| panic!("write handoff for generation {new_gen}: {e}"));
                Some(path)
            } else {
                None
            };
            let propose = ViewMsg::Propose { generation: new_gen, members: new_members.clone() };
            for i in 1..n {
                if let Err(e) =
                    self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, propose.encode())
                {
                    self.abort_round(n);
                    return Err(e);
                }
            }
            for i in 1..n {
                let ack = match self.replica.comm().try_recv_bytes(i, TAG_MS_UP) {
                    Ok(b) => b,
                    Err(e) => {
                        self.abort_round(n);
                        return Err(e);
                    }
                };
                match MemberMsg::decode(&ack) {
                    Ok(MemberMsg::Ack) => {}
                    other => panic!("leader expected Ack from {}, got {other:?}", members[i]),
                }
            }
            for i in 1..n {
                if let Err(e) = self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, ViewMsg::Commit.encode()) {
                    self.abort_round(n);
                    return Err(e);
                }
            }
            let cause = format!("{} leave / {} join", leavers.len(), joiners.len());
            self.hub.commit_transition(
                new_gen,
                &members,
                &new_members,
                step,
                &cause,
                handoff,
                t0.elapsed().as_secs_f64(),
            );
            if leavers.contains(&self.me) {
                return Ok(Round::Left);
            }
            let sync = if joiners.is_empty() {
                SyncPlan::None
            } else {
                SyncPlan::Broadcast { root: survivors[0] }
            };
            Ok(Round::Transition {
                view: WorldView { generation: new_gen, members: new_members },
                sync,
            })
        } else {
            let comm = self.replica.comm();
            comm.try_send_bytes(0, TAG_MS_UP, MemberMsg::Status { wants_leave }.encode())?;
            let ctrl = ViewMsg::decode(&comm.try_recv_bytes(0, TAG_MS_CTRL)?)
                .unwrap_or_else(|e| panic!("member {}: bad control message: {e}", self.me));
            match ctrl {
                ViewMsg::NoChange => Ok(Round::Proceed),
                ViewMsg::Abort => Ok(Round::Recover),
                ViewMsg::Commit => panic!("member {}: Commit without a proposal", self.me),
                ViewMsg::Propose { generation, members: new_members } => {
                    comm.try_send_bytes(0, TAG_MS_UP, MemberMsg::Ack.encode())?;
                    match ViewMsg::decode(&comm.try_recv_bytes(0, TAG_MS_CTRL)?)
                        .unwrap_or_else(|e| panic!("member {}: bad control message: {e}", self.me))
                    {
                        ViewMsg::Commit => {
                            if !new_members.contains(&self.me) {
                                return Ok(Round::Left);
                            }
                            let joined_any =
                                new_members.iter().any(|m| !members.contains(m));
                            let sync = if joined_any {
                                let root = members
                                    .iter()
                                    .copied()
                                    .find(|m| new_members.contains(m))
                                    .expect("a surviving member roots the broadcast");
                                SyncPlan::Broadcast { root }
                            } else {
                                SyncPlan::None
                            };
                            Ok(Round::Transition {
                                view: WorldView { generation, members: new_members },
                                sync,
                            })
                        }
                        ViewMsg::Abort => Ok(Round::Recover),
                        other => {
                            panic!("member {}: expected Commit/Abort, got {other:?}", self.me)
                        }
                    }
                }
            }
        }
    }

    /// Best-effort Abort to every other member (peers may already be
    /// dead; that is exactly why we are aborting).
    fn abort_round(&mut self, n: usize) {
        for i in 1..n {
            let _ = self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, ViewMsg::Abort.encode());
        }
    }

    /// Runs the member until the step budget completes, it leaves, or it
    /// crashes. Every step boundary runs membership rounds to a fixpoint
    /// (a committed transition re-runs the round in the new world, which
    /// is what lets a leave and a join cascade at one boundary).
    fn run(mut self, start_step: usize) -> MemberOutcome {
        let mut step = start_step;
        while step < self.cfg.base.steps {
            if self.faults.crash_step(self.me) == Some(step) {
                // Fault injection: vanish. Dropping the communicator and
                // the hub guard is the whole signal.
                return MemberOutcome::Crashed { me: self.me };
            }
            loop {
                match self.boundary_round(step) {
                    Ok(Round::Proceed) => break,
                    Ok(Round::Left) => return MemberOutcome::Left { me: self.me },
                    Ok(Round::Transition { view, sync }) => {
                        if self.enter(view, sync).is_err() {
                            self.recover(step);
                        }
                    }
                    Ok(Round::Recover) | Err(_) => self.recover(step),
                }
            }
            // Elastic never lends the optimizer to the comm worker: a
            // failed step is retried from live parameters after `recover`,
            // and members may have applied *different* bucket subsets
            // before the failure — unrecoverable divergence.
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
                    // gradients, recover a smaller world, and re-run the
                    // same global step there.
                    self.replica.params.zero_grads();
                    self.hub.note_retry();
                    self.recover(step);
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
                member.run(0)
            }));
        }
        for me in faults.joining_nodes() {
            let hub = hub.clone();
            let new_member = &new_member;
            handles.push(scope.spawn(move || {
                let Some(adm) = hub.wait_admission(me) else {
                    return MemberOutcome::NeverAdmitted { me };
                };
                let mut member = new_member(me, hub.register(me));
                member.replica.fast_forward(&mut member.source, adm.start_step);
                member.handoff = adm.handoff.clone();
                member.joined_at = adm.start_step as i64;
                let sync = match adm.root {
                    Some(root) => SyncPlan::Broadcast { root },
                    None => SyncPlan::Handoff,
                };
                let start = adm.start_step;
                if member.enter(adm.view, sync).is_err() {
                    member.recover(start);
                }
                member.run(start)
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
    use crate::trainer::test_support::{mode, mode_configs, toy_config, toy_model, toy_source};
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
