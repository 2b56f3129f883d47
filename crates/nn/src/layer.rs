//! The [`Layer`] trait and [`Sequential`] container.

use crate::param::ParamSet;
use exaclim_tensor::{ComputePrecision, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-forward execution context.
pub struct Ctx {
    /// Training mode (enables dropout and batch-norm batch statistics).
    pub training: bool,
    /// RNG for stochastic layers (dropout). Seeded per rank so replicas
    /// can be made identical or decorrelated deliberately.
    pub rng: StdRng,
    /// GEMM operand precision for conv/deconv kernels: FP32, or half
    /// (f16/bf16) panels with FP32 accumulation — the tensor-core compute
    /// recipe. Parameters and optimizer state stay FP32 master copies.
    pub compute: ComputePrecision,
}

impl Ctx {
    /// Training-mode context with a seeded RNG.
    pub fn train(seed: u64) -> Ctx {
        Ctx {
            training: true,
            rng: StdRng::seed_from_u64(seed),
            compute: ComputePrecision::from_env(),
        }
    }

    /// Inference-mode context.
    pub fn eval() -> Ctx {
        Ctx {
            training: false,
            rng: StdRng::seed_from_u64(0),
            compute: ComputePrecision::from_env(),
        }
    }

    /// Builder-style override of the GEMM compute precision.
    pub fn with_compute(mut self, p: ComputePrecision) -> Ctx {
        self.compute = p;
        self
    }
}

/// A differentiable module with owned state.
///
/// Layers cache whatever the backward pass needs during `forward`;
/// `backward` consumes that cache, accumulates parameter gradients into
/// the shared [`crate::Param`] handles, and returns the gradient with
/// respect to the layer input.
///
/// `Send` is a supertrait: the distributed trainer moves whole replicas
/// into rank threads.
pub trait Layer: Send {
    /// Forward pass.
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor;

    /// Backward pass. Must be called after `forward` (panics otherwise).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The layer's trainable parameters (possibly empty).
    fn params(&self) -> ParamSet {
        ParamSet::new()
    }

    /// Non-trainable state (batch-norm running statistics). Not part of
    /// gradient all-reduce — like Horovod, running stats stay rank-local —
    /// but saved by checkpoints so eval-mode behaviour restores exactly.
    fn buffers(&self) -> ParamSet {
        ParamSet::new()
    }

    /// Sets the layer's *sticky* mode flag, recursively. A layer pinned
    /// with `set_training(false)` behaves as at inference — dropout is
    /// identity, batch norm normalizes with running statistics — even
    /// under a training [`Ctx`]; the effective mode is
    /// `ctx.training && layer mode`. Serving replicas pin whole models to
    /// eval so a mis-threaded training context can never perturb the
    /// read path. Default: no state to flip (stateless layers).
    fn set_training(&mut self, _training: bool) {}

    /// Human-readable name for architecture tables and census labels.
    fn name(&self) -> String;
}

/// Runs layers in order; the backbone of every block in both networks.
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty container with a name.
    pub fn new(name: impl Into<String>) -> Sequential {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if no layers have been added.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut cur = x.clone();
        for l in self.layers.iter_mut() {
            cur = l.forward(&cur, ctx);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let notify = crate::param::ready_hooks_active();
        let mut cur = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
            // Each sublayer's parameter gradients are final once its
            // backward returns: announce them so a gradient all-reduce can
            // start while the remaining (earlier) layers still compute.
            if notify {
                l.params().notify_all_ready();
            }
        }
        cur
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(l.params());
        }
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for l in &self.layers {
            set.extend(l.buffers());
        }
        set
    }

    fn set_training(&mut self, training: bool) {
        for l in self.layers.iter_mut() {
            l.set_training(training);
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::DType;

    /// y = 2x layer for container testing.
    struct Doubler;
    impl Layer for Doubler {
        fn forward(&mut self, x: &Tensor, _ctx: &mut Ctx) -> Tensor {
            exaclim_tensor::ops::scale_tensor(x, 2.0)
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            exaclim_tensor::ops::scale_tensor(g, 2.0)
        }
        fn name(&self) -> String {
            "doubler".into()
        }
    }

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut s = Sequential::new("s").push(Doubler).push(Doubler).push(Doubler);
        let mut ctx = Ctx::eval();
        let x = Tensor::from_vec([2], DType::F32, vec![1.0, -1.0]);
        let y = s.forward(&x, &mut ctx);
        assert_eq!(y.as_slice(), &[8.0, -8.0]);
        let g = s.backward(&Tensor::from_vec([2], DType::F32, vec![1.0, 1.0]));
        assert_eq!(g.as_slice(), &[8.0, 8.0]);
        assert_eq!(s.len(), 3);
    }
}
