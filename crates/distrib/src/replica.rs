//! One rank's training step, shared by every trainer.
//!
//! The paper runs one Horovod loop (§V-A3): forward, backward, fused
//! gradient all-reduce, optimizer. [`Replica`] is that loop body for one
//! rank — its model replica, optimizer, dropout and ready-order streams,
//! and the per-generation comm wiring. The plain, checkpoint-restart and
//! elastic trainers differ only in the membership policy wrapped around
//! [`Replica::step`]: whether the optimizer may be lent to the comm
//! worker, whether checkpoints are written, and whether the world changes
//! between steps.

use crate::control::Coordinator;
use crate::fusion::{fuse, FusionBucket};
use crate::overlap::{reduce_bucket, CommEngine, HookClearGuard, ReduceSettings};
use crate::trainer::{build_optimizer, BatchSource, TrainerConfig};
use exaclim_comm::{CommError, Communicator};
use exaclim_nn::checkpoint;
use exaclim_nn::loss::WeightedCrossEntropy;
use exaclim_nn::optim::{OptState, Optimizer};
use exaclim_nn::{Ctx, Layer, Param, ParamSet};
use exaclim_tensor::init::seeded_rng;
use exaclim_tensor::profile::{self, SpanKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One completed step as one rank saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepStats {
    /// Global step index.
    pub step: usize,
    /// Loss averaged over the world.
    pub mean_loss: f32,
    /// Wall-clock seconds of the whole step.
    pub wall_s: f64,
    /// Critical-path seconds blocked on `next_batch`.
    pub ingest_wait_s: f64,
    /// Critical-path seconds blocked on gradient communication.
    pub exposed_comm_s: f64,
    /// Seconds any thread of the rank spent reducing gradients.
    pub comm_busy_s: f64,
    /// Critical-path optimizer seconds (~0 when the worker applied).
    pub optim_s: f64,
    /// Seconds any thread of the rank spent applying updates.
    pub optim_busy_s: f64,
    /// Gradient bytes this step put on the wire.
    pub wire_bytes: u64,
    /// Post-step parameter hash.
    pub hash: u64,
}

/// One rank's replica and everything its training step touches.
pub(crate) struct Replica {
    /// Stable id: keys the dropout and ready-order streams, so a rank
    /// keeps them across generations.
    id: usize,
    cfg: TrainerConfig,
    pub model: Box<dyn Layer>,
    /// Full checkpointable state (superset of `params`) — what
    /// checkpoints persist and elastic broadcasts ship.
    pub state: ParamSet,
    pub params: ParamSet,
    params_vec: Vec<Param>,
    /// Step-invariant buckets from the canonical tensor order: membership
    /// (hence summation order and bits) cannot depend on readiness timing
    /// or on whether reduction overlaps backward.
    buckets: Vec<FusionBucket>,
    coordinator: Coordinator,
    loss_fn: WeightedCrossEntropy,
    /// `None` only while a fused-overlap step lends it to the comm worker.
    optimizer: Option<Box<dyn Optimizer + Send>>,
    ctx: Ctx,
    shuffle_rng: StdRng,
    /// Per-generation wiring, dropped in field order: hooks feed the
    /// engine, the engine joins its thread, then the communicator goes.
    hooks: Option<HookClearGuard>,
    engine: Option<CommEngine>,
    comm: Option<Communicator>,
    /// `(index in the world, reduce settings)` once wired.
    wiring: Option<(usize, ReduceSettings)>,
    /// False once any per-step hash audit disagreed with rank 0.
    pub hashes_ok: bool,
}

impl Replica {
    /// Builds the replica every rank builds identically from `cfg.seed`
    /// ("assuming consistent initialization", §V-A3), plus streams keyed
    /// by the stable `id`: dropout decorrelates across ranks, init does not.
    pub fn new<MB>(cfg: &TrainerConfig, id: usize, model_builder: &MB) -> Replica
    where
        MB: Fn(&mut StdRng) -> Box<dyn Layer>,
    {
        let model = model_builder(&mut seeded_rng(cfg.seed));
        let state = checkpoint::full_state(model.as_ref());
        let params = model.params();
        let params_vec: Vec<Param> = params.iter().cloned().collect();
        let sizes: Vec<usize> = params_vec.iter().map(|p| p.numel()).collect();
        let canonical: Vec<u32> = (0..sizes.len() as u32).collect();
        let lag = cfg.gradient_lag.then_some(cfg.lag_depth.max(1));
        Replica {
            id,
            buckets: fuse(&canonical, &sizes, cfg.fusion_threshold_bytes),
            coordinator: Coordinator::new(cfg.control, sizes.len()),
            loss_fn: WeightedCrossEntropy::with_scale(cfg.loss_scale),
            optimizer: Some(build_optimizer(cfg.optimizer, lag, cfg.loss_scale)),
            ctx: Ctx::train(cfg.seed ^ (id as u64 + 1) << 17).with_compute(cfg.compute),
            shuffle_rng: StdRng::seed_from_u64(cfg.seed ^ 0xABCD ^ id as u64),
            cfg: cfg.clone(),
            model,
            state,
            params,
            params_vec,
            hooks: None,
            engine: None,
            comm: None,
            wiring: None,
            hashes_ok: true,
        }
    }

    /// Fusion buckets, i.e. all-reduce launches per step.
    pub fn launches(&self) -> usize {
        self.buckets.len()
    }

    /// The optimizer (never lent between steps).
    pub fn optimizer(&mut self) -> &mut Box<dyn Optimizer + Send> {
        self.optimizer.as_mut().expect("optimizer on rank thread")
    }

    /// Joins a world of `world` ranks as rank `idx`: reduce settings whose
    /// node size falls back to flat when the world no longer tiles into
    /// full nodes, and — in overlap mode — a fresh comm engine fed by
    /// per-parameter ready hooks.
    pub fn wire(&mut self, comm: Communicator, idx: usize, world: usize) {
        self.unwire();
        let node_size = if world.is_multiple_of(self.cfg.node_size) {
            self.cfg.node_size
        } else {
            1
        };
        let settings = ReduceSettings {
            ranks: world,
            node_size,
            shard_leaders: self.cfg.shard_leaders.min(node_size),
            compress: self.cfg.compress_gradients,
        };
        self.engine = self.cfg.overlap_comm.then(|| {
            CommEngine::new(
                idx,
                self.params_vec.clone(),
                self.buckets.clone(),
                settings.clone(),
            )
        });
        self.hooks = self.engine.as_ref().map(|e| {
            for (i, p) in self.params_vec.iter().enumerate() {
                let t = e.tracker().clone();
                p.set_ready_hook(Arc::new(move || t.notify(i)));
            }
            HookClearGuard(self.params_vec.clone())
        });
        self.comm = Some(comm);
        self.wiring = Some((idx, settings));
    }

    /// Drops the world's wiring (peers then see this rank as gone).
    pub fn unwire(&mut self) {
        self.hooks = None;
        self.engine = None;
        self.comm = None;
        self.wiring = None;
    }

    /// Restores parameters, buffers and optimizer state from an EXCK
    /// checkpoint. v2 files carry the optimizer trailer, so a restored
    /// rank continues the exact momentum/moment trajectory; v1 files
    /// yield an empty state (a cold start). The trailer layout is the
    /// same whether a fused or a legacy run wrote it.
    pub fn restore(&mut self, path: &Path) {
        let id = self.id;
        let opt = checkpoint::load_into(&self.state, path)
            .and_then(|()| checkpoint::load_optimizer_state(path))
            .unwrap_or_else(|e| panic!("rank {id}: restore {}: {e}", path.display()));
        self.import_optimizer(&opt);
    }

    /// Imports optimizer state exported by a replica of the same model.
    pub fn import_optimizer(&mut self, opt: &OptState) {
        let id = self.id;
        let params = &self.params;
        self.optimizer
            .as_mut()
            .expect("optimizer on rank thread")
            .import_state(opt, params)
            .unwrap_or_else(|e| panic!("rank {id}: import optimizer state: {e}"));
    }

    /// Writes the `step-{completed}.exck` auto-checkpoint (with the
    /// optimizer trailer) into `dir`.
    pub fn save_auto(&self, dir: &Path, completed: usize) {
        let opt = self
            .optimizer
            .as_ref()
            .expect("optimizer on rank thread")
            .export_state();
        checkpoint::save_auto_with_optimizer(&self.state, &opt, dir, completed)
            .unwrap_or_else(|e| panic!("auto-checkpoint at step {completed}: {e}"));
    }

    /// Skips the first `steps` steps' draws — batches and ready orders —
    /// so a restarted or joining rank's step `s` sees what it would have
    /// seen training from step 0 (the replay-determinism anchor).
    pub fn fast_forward<B: BatchSource>(&mut self, source: &mut B, steps: usize) {
        for _ in 0..steps {
            let _ = source.next_batch();
            self.ready_order();
        }
    }

    /// This step's local gradient-ready order (models TensorFlow's
    /// independent per-rank schedulers). Consumes `shuffle_rng` exactly
    /// once per step.
    fn ready_order(&mut self) -> Vec<u32> {
        let mut ready: Vec<u32> = (0..self.params_vec.len() as u32).collect();
        if self.cfg.shuffle_ready_order {
            ready.shuffle(&mut self.shuffle_rng);
        }
        ready
    }

    /// Agrees on an all-reduce order despite per-rank scheduling skew.
    /// The round proves agreement and liveness (its traffic is what the
    /// control-plane comparisons measure), but the batch boundaries it
    /// emits depend on arrival timing, so execution uses the canonical
    /// buckets and fusion replays identically across runs and modes.
    fn coordinate(&mut self) -> Result<(), CommError> {
        let ready = self.ready_order();
        let comm = self.comm.as_mut().expect("communicator on rank thread");
        let mut order = self.coordinator.try_coordinate(comm, &ready)?;
        order.sort_unstable();
        debug_assert!(
            order.iter().copied().eq(0..ready.len() as u32),
            "coordination must cover every tensor"
        );
        Ok(())
    }

    /// One synchronous training step: ingest, coordination (before
    /// forward when overlapped, after backward when serial), forward,
    /// backward, gradient reduction (joined from the comm worker or run
    /// inline), optimizer, cross-rank loss mean and the replica hash
    /// audit. With `lend`, fused-overlap mode hands the optimizer to the
    /// comm worker, which applies each bucket the moment its all-reduce
    /// lands. A failed collective returns its typed [`CommError`]; the
    /// membership policy decides what happens next.
    pub fn step<B: BatchSource>(
        &mut self,
        step: usize,
        source: &mut B,
        lend: bool,
    ) -> Result<StepStats, CommError> {
        let (rank, settings) = self.wiring.clone().expect("replica wired into a world");
        let t0 = Instant::now();
        let batch = source.next_batch();
        let ingest_wait = t0.elapsed();
        profile::record_span(rank, step, SpanKind::Ingest, t0, ingest_wait.as_secs_f64());
        let input = if batch.input.dtype() == self.cfg.precision {
            batch.input
        } else {
            batch.input.cast(self.cfg.precision)
        };

        let lend = lend && self.cfg.fused_optim && self.engine.is_some();
        if self.engine.is_some() {
            // Overlap mode coordinates *before* forward so the worker can
            // start the moment the first bucket is ready. Bit-neutral: the
            // round uses fixed control tags either way.
            self.coordinate()?;
            // A lent optimizer's step is begun here (state bound, per-step
            // scalars advanced — grads untouched); the worker only applies.
            let opt = lend.then(|| {
                let mut o = self.optimizer.take().expect("optimizer on rank thread");
                o.begin_step(&self.params);
                o
            });
            let comm = self.comm.take().expect("communicator on rank thread");
            let engine = self.engine.as_mut().expect("overlap engine");
            engine.tracker().reset();
            engine.begin_step(comm, step, opt);
        }

        let tf = Instant::now();
        let logits = self.model.forward(&input, &mut self.ctx);
        profile::record_span(
            rank,
            step,
            SpanKind::Forward,
            tf,
            tf.elapsed().as_secs_f64(),
        );
        profile::set_phase(profile::Phase::Backward);
        let tb = Instant::now();
        let out = self.loss_fn.forward(&logits, &batch.labels, &batch.weights);
        // With the engine armed, ready hooks fire as layer backward paths
        // finish and the worker reduces buckets concurrently.
        self.model.backward(&out.grad_logits);
        profile::record_span(
            rank,
            step,
            SpanKind::Backward,
            tb,
            tb.elapsed().as_secs_f64(),
        );
        profile::set_phase(profile::Phase::Forward);

        let (exposed_comm_s, comm_busy_s, wire_bytes, mut optim_busy_s);
        if let Some(engine) = self.engine.as_mut() {
            // Join the worker; time blocked here is the step's exposed
            // communication (plus bucket applies that outlasted backward).
            // On a peer death the worker's collective fails with a typed
            // error after draining its bucket notifications — never a hang.
            let te = Instant::now();
            let done = engine.finish_step();
            exposed_comm_s = te.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::CommExposed, te, exposed_comm_s);
            self.comm = Some(done.comm);
            if let Some(o) = done.opt {
                self.optimizer = Some(o);
            }
            done.result?;
            assert!(
                !lend || done.applied_buckets == self.buckets.len(),
                "fused step must retire every bucket on the worker"
            );
            (comm_busy_s, wire_bytes, optim_busy_s) =
                (done.busy_s, done.wire_bytes, done.optim_busy_s);
        } else {
            self.coordinate()?;
            // Fused gradient all-reduces, serial on the critical path.
            let te = Instant::now();
            let comm = self.comm.as_mut().expect("communicator on rank thread");
            let mut wire = 0;
            for bucket in &self.buckets {
                wire += reduce_bucket(&self.params_vec, bucket, comm, &settings, rank, step)?;
            }
            exposed_comm_s = te.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::CommExposed, te, exposed_comm_s);
            (comm_busy_s, wire_bytes, optim_busy_s) = (exposed_comm_s, wire, 0.0);
        }

        let topt = Instant::now();
        if !lend {
            let o = self.optimizer.as_mut().expect("optimizer on rank thread");
            if self.cfg.fused_optim {
                // Fused without a lend: spread the independent
                // per-parameter updates over the kernel thread pool.
                o.par_step(&self.params);
            } else {
                o.step(&self.params);
            }
            let dur = topt.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::Optimizer, topt, dur);
            optim_busy_s += dur;
        }
        let optim_s = topt.elapsed().as_secs_f64();

        // Cross-rank loss mean (a tiny collective, as in real logging).
        let comm = self.comm.as_mut().expect("communicator on rank thread");
        let mut lbuf = vec![out.loss];
        comm.try_allreduce_tree(&mut lbuf)?;
        // Replica-consistency audit: all ranks must agree bit-for-bit.
        // The hash travels as four 16-bit limbs, each exact in f32.
        let hash = self.params.state_hash();
        let mine: Vec<f32> = (0..4)
            .map(|i| ((hash >> (16 * i)) & 0xffff) as f32)
            .collect();
        let mut root = mine.clone();
        comm.try_broadcast(0, &mut root)?;
        self.hashes_ok &= root == mine;
        source.on_step_timing(ingest_wait, t0.elapsed());
        Ok(StepStats {
            step,
            mean_loss: lbuf[0] / settings.ranks as f32,
            wall_s: t0.elapsed().as_secs_f64(),
            ingest_wait_s: ingest_wait.as_secs_f64(),
            exposed_comm_s,
            comm_busy_s,
            optim_s,
            optim_busy_s,
            wire_bytes,
            hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::elastic::{train_data_parallel_elastic, ElasticConfig};
    use crate::trainer::test_support::{toy_config, toy_model, toy_source, ToySource};
    use crate::trainer::{
        train_data_parallel, train_data_parallel_ft, Batch, BatchSource, FtConfig,
    };
    use exaclim_faults::FaultPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// The toy source, counting `on_step_timing` calls per rank.
    struct CountingSource {
        inner: ToySource,
        rank: usize,
        calls: Arc<Vec<AtomicUsize>>,
    }

    impl BatchSource for CountingSource {
        fn next_batch(&mut self) -> Batch {
            self.inner.next_batch()
        }

        fn on_step_timing(&mut self, _ingest_wait: Duration, _step_wall: Duration) {
            self.calls[self.rank].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A source builder whose sources count into `calls`.
    fn counting(calls: &Arc<Vec<AtomicUsize>>) -> impl Fn(usize) -> CountingSource + Send + Sync {
        let calls = calls.clone();
        move |rank| CountingSource {
            inner: toy_source(rank),
            rank,
            calls: calls.clone(),
        }
    }

    #[test]
    fn every_trainer_reports_step_timing_once_per_step() {
        // One step body means one feedback call per completed step per
        // rank, whichever trainer drives it — reader autoscaling works
        // the same under all three.
        let (ranks, steps) = (2, 5);
        let dir = std::env::temp_dir().join(format!("exaclim_step_timing_{}", std::process::id()));
        let calls: Vec<Arc<Vec<AtomicUsize>>> = (0..3)
            .map(|_| Arc::new((0..ranks).map(|_| AtomicUsize::new(0)).collect()))
            .collect();
        train_data_parallel(&toy_config(ranks, steps), toy_model, counting(&calls[0]));
        let ft = FtConfig::new(toy_config(ranks, steps), dir.join("ft"));
        train_data_parallel_ft(&ft, &FaultPlan::none(), toy_model, counting(&calls[1]));
        let elastic = ElasticConfig::new(toy_config(ranks, steps), dir.join("elastic"));
        train_data_parallel_elastic(&elastic, &FaultPlan::none(), toy_model, counting(&calls[2]));
        std::fs::remove_dir_all(&dir).ok();
        for (calls, trainer) in calls.iter().zip(["plain", "checkpoint-restart", "elastic"]) {
            let got: Vec<usize> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            assert_eq!(got, vec![steps; ranks], "{trainer}");
        }
    }
}
