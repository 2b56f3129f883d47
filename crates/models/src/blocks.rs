//! Composite blocks: dense blocks (Tiramisu), bottleneck residual blocks
//! (ResNet-50 core) and the atrous spatial pyramid pooling (ASPP) module.

use exaclim_nn::layers::{conv_bn_relu, BatchNorm2d, Conv2d, Dropout, MaxPool2d, ReLU};
use exaclim_nn::{Ctx, Layer, ParamSet, Sequential};
use exaclim_tensor::ops::{self, Conv2dParams};
use exaclim_tensor::Tensor;
use rand::rngs::StdRng;

/// One Tiramisu dense layer: BN → ReLU → Conv(k×k, growth) → Dropout.
fn dense_layer(name: &str, in_ch: usize, growth: usize, kernel: usize, dropout: f32, rng: &mut StdRng) -> Sequential {
    Sequential::new(name)
        .push(BatchNorm2d::new(format!("{name}.bn"), in_ch))
        .push(ReLU::new())
        .push(Conv2d::new(
            format!("{name}.conv"),
            in_ch,
            growth,
            kernel,
            Conv2dParams::padded(kernel / 2),
            false,
            rng,
        ))
        .push(Dropout::new(dropout))
}

/// A Tiramisu dense block: layer `j` consumes the concatenation of the
/// block input and all previous layer outputs and emits `growth` channels.
///
/// "Where ResNet uses addition, Tiramisu uses concatenation" (§III-A1).
/// In the down path the block output re-concatenates the input
/// (`include_input = true`); in the up path only the new feature maps are
/// kept to bound channel growth, following the original Tiramisu design.
pub struct DenseBlock {
    name: String,
    layers: Vec<Sequential>,
    growth: usize,
    in_ch: usize,
    include_input: bool,
    cached: Option<Vec<Tensor>>,
}

impl DenseBlock {
    /// Builds `n_layers` dense layers with the given growth rate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        n_layers: usize,
        growth: usize,
        kernel: usize,
        dropout: f32,
        include_input: bool,
        rng: &mut StdRng,
    ) -> DenseBlock {
        let name = name.into();
        let layers = (0..n_layers)
            .map(|j| dense_layer(&format!("{name}.l{j}"), in_ch + j * growth, growth, kernel, dropout, rng))
            .collect();
        DenseBlock {
            name,
            layers,
            growth,
            in_ch,
            include_input,
            cached: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        let new_ch = self.layers.len() * self.growth;
        if self.include_input {
            self.in_ch + new_ch
        } else {
            new_ch
        }
    }
}

impl Layer for DenseBlock {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut feats: Vec<Tensor> = vec![x.clone()];
        for layer in self.layers.iter_mut() {
            let inp = if feats.len() == 1 {
                feats[0].clone()
            } else {
                let refs: Vec<&Tensor> = feats.iter().collect();
                ops::concat_channels(&refs)
            };
            let out = layer.forward(&inp, ctx);
            feats.push(out);
        }
        let out_refs: Vec<&Tensor> = if self.include_input {
            feats.iter().collect()
        } else {
            feats.iter().skip(1).collect()
        };
        let y = ops::concat_channels(&out_refs);
        self.cached = Some(feats);
        y
    }

    fn set_training(&mut self, training: bool) {
        for l in self.layers.iter_mut() {
            l.set_training(training);
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let feats = self.cached.take().expect("DenseBlock::backward before forward");
        let n_layers = self.layers.len();

        // Per-feature gradient accumulators (feats[0] = block input).
        let mut grads: Vec<Tensor> = feats
            .iter()
            .map(|t| Tensor::zeros(t.shape().clone(), t.dtype()))
            .collect();

        // Split the output gradient back onto the concatenated features.
        let first_out = if self.include_input { 0 } else { 1 };
        let sizes: Vec<usize> = feats[first_out..].iter().map(|t| t.shape().dim(1)).collect();
        for (i, g) in ops::split_channels(grad_out, &sizes).into_iter().enumerate() {
            grads[first_out + i].add_assign(&g);
        }

        // Walk layers in reverse, scattering input gradients onto the
        // features each layer consumed.
        let notify = exaclim_nn::ready_hooks_active();
        for j in (0..n_layers).rev() {
            let gout = grads[j + 1].clone();
            let gin = self.layers[j].backward(&gout);
            // This dense layer's gradients are final (no later layer feeds
            // them): hand them to the overlap engine mid-backward.
            if notify {
                self.layers[j].params().notify_all_ready();
            }
            let consumed: Vec<usize> = feats[..=j].iter().map(|t| t.shape().dim(1)).collect();
            if consumed.len() == 1 {
                grads[0].add_assign(&gin);
            } else {
                for (i, g) in ops::split_channels(&gin, &consumed).into_iter().enumerate() {
                    grads[i].add_assign(&g);
                }
            }
        }
        grads.swap_remove(0)
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

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Tiramisu transition-down: BN → ReLU → 1×1 conv → Dropout → 2×2 max pool.
pub fn transition_down(name: &str, ch: usize, dropout: f32, rng: &mut StdRng) -> Sequential {
    Sequential::new(name)
        .push(BatchNorm2d::new(format!("{name}.bn"), ch))
        .push(ReLU::new())
        .push(Conv2d::new(format!("{name}.conv"), ch, ch, 1, Conv2dParams::default(), false, rng))
        .push(Dropout::new(dropout))
        .push(MaxPool2d::new(2, 2, 0))
}

/// ResNet bottleneck block (1×1 reduce → 3×3 [possibly atrous] → 1×1
/// expand ×4) with a projection shortcut where shapes change.
///
/// The paper's encoder keeps stages 3–4 at stride 1 and dilates their 3×3
/// convolutions instead (Figure 1: `d 2` and `d 4`), preserving the 144×96
/// feature resolution.
pub struct Bottleneck {
    name: String,
    conv1: Sequential,
    conv2: Sequential,
    conv3: Conv2d,
    bn3: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Option<Tensor>,
}

impl Bottleneck {
    /// Builds a bottleneck with `planes` internal channels (output is
    /// `4·planes`), the given stride on the 3×3, and dilation.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        planes: usize,
        stride: usize,
        dilation: usize,
        rng: &mut StdRng,
    ) -> Bottleneck {
        let name = name.into();
        let out_ch = planes * 4;
        let conv1 = conv_bn_relu(&format!("{name}.c1"), in_ch, planes, 1, Conv2dParams::default(), rng);
        let conv2 = conv_bn_relu(
            &format!("{name}.c2"),
            planes,
            planes,
            3,
            Conv2dParams { stride, pad: dilation, dilation },
            rng,
        );
        let conv3 = Conv2d::new(format!("{name}.c3"), planes, out_ch, 1, Conv2dParams::default(), false, rng);
        let bn3 = BatchNorm2d::new(format!("{name}.bn3"), out_ch);
        let shortcut = if stride != 1 || in_ch != out_ch {
            Some((
                Conv2d::new(
                    format!("{name}.proj"),
                    in_ch,
                    out_ch,
                    1,
                    Conv2dParams::strided(stride, 0),
                    false,
                    rng,
                ),
                BatchNorm2d::new(format!("{name}.projbn"), out_ch),
            ))
        } else {
            None
        };
        Bottleneck {
            name,
            conv1,
            conv2,
            conv3,
            bn3,
            shortcut,
            relu_out: None,
        }
    }

    /// Output channels (`4·planes`).
    pub fn out_channels(planes: usize) -> usize {
        planes * 4
    }
}

impl Layer for Bottleneck {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let mut main = self.conv1.forward(x, ctx);
        main = self.conv2.forward(&main, ctx);
        main = self.conv3.forward(&main, ctx);
        main = self.bn3.forward(&main, ctx);
        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, ctx);
                bn.forward(&s, ctx)
            }
            None => x.clone(),
        };
        let pre = ops::add(&main, &skip);
        let y = ops::relu_forward(&pre);
        // Cache the *output*: the backward mask (y > 0 iff pre > 0) comes
        // back out of it, so `pre` can be dropped here instead of living
        // until backward alongside y.
        self.relu_out = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.relu_out.take().expect("Bottleneck::backward before forward");
        let notify = exaclim_nn::ready_hooks_active();
        let g = ops::relu_backward_from_output(&y, grad_out);
        // Main branch. Each stage's parameter gradients are final as soon
        // as its backward returns; announce them stage by stage.
        let mut gm = self.bn3.backward(&g);
        if notify {
            self.bn3.params().notify_all_ready();
        }
        gm = self.conv3.backward(&gm);
        if notify {
            self.conv3.params().notify_all_ready();
        }
        gm = self.conv2.backward(&gm);
        if notify {
            self.conv2.params().notify_all_ready();
        }
        let mut gx = self.conv1.backward(&gm);
        if notify {
            self.conv1.params().notify_all_ready();
        }
        // Shortcut branch.
        match &mut self.shortcut {
            Some((conv, bn)) => {
                let gs = bn.backward(&g);
                let gs = conv.backward(&gs);
                gx.add_assign(&gs);
                if notify {
                    bn.params().notify_all_ready();
                    conv.params().notify_all_ready();
                }
            }
            None => gx.add_assign(&g),
        }
        gx
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.conv1.params());
        set.extend(self.conv2.params());
        set.extend(self.conv3.params());
        set.extend(self.bn3.params());
        if let Some((c, b)) = &self.shortcut {
            set.extend(c.params());
            set.extend(b.params());
        }
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        set.extend(self.conv1.buffers());
        set.extend(self.conv2.buffers());
        set.extend(self.bn3.buffers());
        if let Some((_, b)) = &self.shortcut {
            set.extend(b.buffers());
        }
        set
    }

    fn set_training(&mut self, training: bool) {
        self.conv1.set_training(training);
        self.conv2.set_training(training);
        self.conv3.set_training(training);
        self.bn3.set_training(training);
        if let Some((proj, projbn)) = self.shortcut.as_mut() {
            proj.set_training(training);
            projbn.set_training(training);
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Atrous spatial pyramid pooling: parallel 1×1 and atrous 3×3 branches
/// over the same input, concatenated and projected (Figure 1's green/ASPP
/// column: dilations 12, 24, 36 at paper scale).
pub struct Aspp {
    name: String,
    branches: Vec<Sequential>,
    project: Sequential,
    branch_ch: usize,
}

impl Aspp {
    /// ASPP with one 1×1 branch plus one 3×3 branch per dilation.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        branch_ch: usize,
        dilations: &[usize],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Aspp {
        let name = name.into();
        let mut branches = vec![conv_bn_relu(
            &format!("{name}.b1x1"),
            in_ch,
            branch_ch,
            1,
            Conv2dParams::default(),
            rng,
        )];
        for &d in dilations {
            branches.push(conv_bn_relu(
                &format!("{name}.bd{d}"),
                in_ch,
                branch_ch,
                3,
                Conv2dParams::atrous(d),
                rng,
            ));
        }
        let total = branch_ch * branches.len();
        let project = Sequential::new(format!("{name}.proj"))
            .push(Conv2d::new(format!("{name}.proj.conv"), total, branch_ch, 1, Conv2dParams::default(), false, rng))
            .push(BatchNorm2d::new(format!("{name}.proj.bn"), branch_ch))
            .push(ReLU::new())
            .push(Dropout::new(dropout));
        Aspp {
            name,
            branches,
            project,
            branch_ch,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.branch_ch
    }
}

impl Layer for Aspp {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let outs: Vec<Tensor> = self.branches.iter_mut().map(|b| b.forward(x, ctx)).collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        let cat = ops::concat_channels(&refs);
        self.project.forward(&cat, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let notify = exaclim_nn::ready_hooks_active();
        let gcat = self.project.backward(grad_out);
        if notify {
            self.project.params().notify_all_ready();
        }
        let sizes = vec![self.branch_ch; self.branches.len()];
        let parts = ops::split_channels(&gcat, &sizes);
        let mut gx: Option<Tensor> = None;
        for (branch, g) in self.branches.iter_mut().zip(parts) {
            let gb = branch.backward(&g);
            if notify {
                branch.params().notify_all_ready();
            }
            match gx.as_mut() {
                Some(acc) => acc.add_assign(&gb),
                None => gx = Some(gb),
            }
        }
        gx.expect("ASPP has at least one branch")
    }

    fn params(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for b in &self.branches {
            set.extend(b.params());
        }
        set.extend(self.project.params());
        set
    }

    fn buffers(&self) -> ParamSet {
        let mut set = ParamSet::new();
        for b in &self.branches {
            set.extend(b.buffers());
        }
        set.extend(self.project.buffers());
        set
    }

    fn set_training(&mut self, training: bool) {
        for b in self.branches.iter_mut() {
            b.set_training(training);
        }
        self.project.set_training(training);
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// Shared helper: used by both models' parameter-gradient tests.
#[doc(hidden)]
pub fn sum_loss_backward(layer: &mut dyn Layer, x: &Tensor, ctx: &mut Ctx) -> (f32, Tensor) {
    let y = layer.forward(x, ctx);
    let loss = y.sum();
    let ones = Tensor::full(y.shape().clone(), exaclim_tensor::DType::F32, 1.0);
    let gx = layer.backward(&ones);
    (loss, gx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::DType;

    #[test]
    fn dense_block_channel_arithmetic() {
        let mut rng = seeded_rng(41);
        let mut blk = DenseBlock::new("db", 16, 3, 8, 3, 0.0, true, &mut rng);
        assert_eq!(blk.out_channels(), 16 + 24);
        let x = randn([2, 16, 8, 8], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = blk.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 40, 8, 8]);
        let gx = blk.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        assert_eq!(gx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn dense_block_up_path_excludes_input() {
        let mut rng = seeded_rng(42);
        let mut blk = DenseBlock::new("db", 16, 2, 8, 3, 0.0, false, &mut rng);
        assert_eq!(blk.out_channels(), 16);
        let x = randn([1, 16, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = blk.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn dense_block_gradient_check() {
        let mut rng = seeded_rng(43);
        let mut blk = DenseBlock::new("db", 4, 2, 4, 3, 0.0, true, &mut rng);
        let x = randn([1, 4, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let (_, gx) = sum_loss_backward(&mut blk, &x, &mut ctx);
        let eps = 1e-2f32;
        for idx in [0usize, 17, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = blk.forward(&xp, &mut ctx).sum();
            let lm = blk.forward(&xm, &mut ctx).sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = gx.as_slice()[idx];
            // f32 sum-loss cancellation and ReLU kinks limit the achievable
            // agreement; the wiring bugs this guards against (missing skip
            // gradients) produce order-of-magnitude errors, not 15 %.
            assert!((num - ana).abs() < 0.15 * ana.abs().max(1.0), "grad[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn bottleneck_identity_and_projection_paths() {
        let mut rng = seeded_rng(44);
        let mut ctx = Ctx::train(0);
        // Projection path: channel change.
        let mut b1 = Bottleneck::new("b1", 16, 8, 1, 1, &mut rng);
        let x = randn([1, 16, 6, 6], DType::F32, 1.0, &mut rng);
        let y = b1.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 32, 6, 6]);
        // Identity path: in_ch == 4·planes, stride 1.
        let mut b2 = Bottleneck::new("b2", 32, 8, 1, 1, &mut rng);
        let y2 = b2.forward(&y, &mut ctx);
        assert_eq!(y2.shape().dims(), &[1, 32, 6, 6]);
        assert!(b2.shortcut.is_none());
        // Strided path halves resolution.
        let mut b3 = Bottleneck::new("b3", 32, 8, 2, 1, &mut rng);
        let y3 = b3.forward(&y2, &mut ctx);
        assert_eq!(y3.shape().dims(), &[1, 32, 3, 3]);
        // Atrous path preserves resolution.
        let mut b4 = Bottleneck::new("b4", 32, 8, 1, 2, &mut rng);
        let y4 = b4.forward(&y2, &mut ctx);
        assert_eq!(y4.shape().dims(), &[1, 32, 6, 6]);
    }

    #[test]
    fn bottleneck_gradient_flows_through_both_branches() {
        let mut rng = seeded_rng(45);
        let mut b = Bottleneck::new("b", 8, 4, 1, 1, &mut rng);
        let x = randn([1, 8, 4, 4], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let (_, gx) = sum_loss_backward(&mut b, &x, &mut ctx);
        let eps = 1e-2f32;
        for idx in [0usize, 31, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (b.forward(&xp, &mut ctx).sum() - b.forward(&xm, &mut ctx).sum()) / (2.0 * eps);
            let ana = gx.as_slice()[idx];
            assert!((num - ana).abs() < 0.05 * ana.abs().max(1.0), "grad[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn aspp_concatenates_branches() {
        let mut rng = seeded_rng(46);
        let mut aspp = Aspp::new("aspp", 16, 8, &[2, 4, 6], 0.0, &mut rng);
        assert_eq!(aspp.out_channels(), 8);
        let x = randn([1, 16, 12, 12], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = aspp.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 8, 12, 12]);
        let gx = aspp.backward(&Tensor::full(y.shape().clone(), DType::F32, 1.0));
        assert_eq!(gx.shape().dims(), x.shape().dims());
        // 4 branches × (conv w + bn γ/β) + projection (conv + bn γ/β).
        assert_eq!(aspp.params().len(), 4 * 3 + 3);
    }

    #[test]
    fn transition_down_halves() {
        let mut rng = seeded_rng(47);
        let mut td = transition_down("td", 8, 0.0, &mut rng);
        let x = randn([1, 8, 8, 8], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let y = td.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
    }
}
