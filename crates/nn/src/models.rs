//! The seven-model zoo of Table III.
//!
//! Each architecture is a width-scaled analogue of the paper's model,
//! preserving the family's distinguishing mechanism and the paper's
//! shallow/deep split:
//!
//! | Name      | Depth    | Paper summary                    | This crate             |
//! |-----------|----------|----------------------------------|------------------------|
//! | ConvNet   | Moderate | 3 Conv + 3 FC + Max Pooling      | same structure         |
//! | DeconvNet | Moderate | 4 Conv + 2 FC w/ 0.5 Dropout     | same structure         |
//! | VGG11     | Deep     | 8 Conv + 3 FC + Max Pooling      | same structure         |
//! | VGG16     | Deep     | 13 Conv + 3 FC + Max Pooling     | same structure         |
//! | ResNet18  | Deep     | 17 Conv + 1 FC + Avg Pooling     | 17 convs (8 blocks)    |
//! | ResNet50  | Deep     | 49 Conv + 1 FC + Avg Pooling     | 25 convs (12 blocks)*  |
//! | MobileNet | Deep     | 27 Conv + 1 FC + Avg Pooling     | 13 convs (6 ds-blocks)*|
//!
//! *Scaled for CPU budgets; relative depth ordering is preserved (see
//! DESIGN.md §1).

use crate::layers::{
    BatchNorm2d, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, MaxPool2d, ReLU, ResidualBlock,
    Sequential,
};
use crate::network::Network;
use tdfm_json::{json_struct, json_struct_to, json_unit_enum};
use tdfm_tensor::ops::Conv2dSpec;
use tdfm_tensor::rng::Rng;

/// Construction parameters shared by all architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Input image shape `(channels, height, width)`.
    pub in_shape: (usize, usize, usize),
    /// Number of output classes.
    pub classes: usize,
    /// Base channel width; deeper stages use multiples of it.
    pub width: usize,
    /// Seed for weight initialisation.
    pub seed: u64,
}

json_struct!(ModelConfig {
    in_shape,
    classes,
    width,
    seed
});

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            in_shape: (3, 12, 12),
            classes: 10,
            width: 8,
            seed: 0,
        }
    }
}

/// Why a [`ModelConfig`] cannot build a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidConfig {
    /// `width` is zero.
    ZeroWidth,
    /// The input image is smaller than 4×4.
    InputTooSmall {
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
    },
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidConfig::ZeroWidth => write!(f, "model width must be positive"),
            InvalidConfig::InputTooSmall { height, width } => {
                write!(f, "input must be at least 4x4, got {height}x{width}")
            }
        }
    }
}

impl std::error::Error for InvalidConfig {}

impl ModelConfig {
    /// Checks that every architecture can be built from this
    /// configuration: a positive width and an input of at least 4×4.
    ///
    /// # Errors
    ///
    /// Returns the first condition that fails.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let (_, height, width) = self.in_shape;
        if self.width == 0 {
            Err(InvalidConfig::ZeroWidth)
        } else if height < 4 || width < 4 {
            Err(InvalidConfig::InputTooSmall { height, width })
        } else {
            Ok(())
        }
    }
}

/// The architectures of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// 3 conv + 3 FC + max pooling (moderate depth).
    ConvNet,
    /// 4 conv + 2 FC with 0.5 dropout (moderate depth).
    DeconvNet,
    /// VGG-style 8 conv + 3 FC (deep).
    Vgg11,
    /// VGG-style 13 conv + 3 FC (deep).
    Vgg16,
    /// Residual network, 17 convs + 1 FC (deep).
    ResNet18,
    /// Residual network, deeper than ResNet18 (deep).
    ResNet50,
    /// Depthwise-separable convolutions + 1 FC (deep).
    MobileNet,
}

json_unit_enum!(ModelKind {
    ConvNet,
    DeconvNet,
    Vgg11,
    Vgg16,
    ResNet18,
    ResNet50,
    MobileNet
});

/// Depth classification used by Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthClass {
    /// Few layers; the paper shows these react badly to softened losses.
    Moderate,
    /// Many layers.
    Deep,
}

json_unit_enum!(DepthClass { Moderate, Deep });

impl std::fmt::Display for DepthClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepthClass::Moderate => write!(f, "Moderate"),
            DepthClass::Deep => write!(f, "Deep"),
        }
    }
}

/// Registry row describing one architecture (renders Table III).
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Architecture name as printed in the paper.
    pub name: &'static str,
    /// Depth class.
    pub depth: DepthClass,
    /// The paper's architecture summary string.
    pub summary: &'static str,
}

json_struct_to!(ModelInfo {
    name,
    depth,
    summary
});

impl ModelKind {
    /// All seven architectures in Table III order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::ConvNet,
        ModelKind::DeconvNet,
        ModelKind::Vgg11,
        ModelKind::Vgg16,
        ModelKind::ResNet18,
        ModelKind::MobileNet,
        ModelKind::ResNet50,
    ];

    /// Architecture name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ConvNet => "ConvNet",
            ModelKind::DeconvNet => "DeconvNet",
            ModelKind::Vgg11 => "VGG11",
            ModelKind::Vgg16 => "VGG16",
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::ResNet50 => "ResNet50",
            ModelKind::MobileNet => "MobileNet",
        }
    }

    /// Registry metadata (Table III).
    pub fn info(self) -> ModelInfo {
        let (depth, summary) = match self {
            ModelKind::ConvNet => (DepthClass::Moderate, "3 Conv + 3 FC + Max Pooling"),
            ModelKind::DeconvNet => (DepthClass::Moderate, "4 Conv + 2 FC w/ 0.5 Dropout"),
            ModelKind::Vgg11 => (DepthClass::Deep, "8 Conv + 3 FC + Max Pooling"),
            ModelKind::Vgg16 => (DepthClass::Deep, "13 Conv + 3 FC + Max Pooling"),
            ModelKind::ResNet18 => (DepthClass::Deep, "17 Conv + 1 FC + Avg Pooling"),
            ModelKind::ResNet50 => (DepthClass::Deep, "25 Conv + 1 FC + Avg Pooling"),
            ModelKind::MobileNet => (DepthClass::Deep, "13 Conv + 1 FC + Avg Pooling"),
        };
        ModelInfo {
            name: self.name(),
            depth,
            summary,
        }
    }

    /// Builds a freshly initialised network of this architecture.
    ///
    /// # Panics
    ///
    /// Panics if [`ModelConfig::validate`] rejects `cfg`: the input image
    /// is smaller than 4×4 or `width == 0`.
    pub fn build(self, cfg: &ModelConfig) -> Network {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let mut rng = Rng::seed_from(cfg.seed ^ 0x5EED_0000 ^ (self as u64) << 32);
        let body = match self {
            ModelKind::ConvNet => build_convnet(cfg, &mut rng),
            ModelKind::DeconvNet => build_deconvnet(cfg, &mut rng),
            ModelKind::Vgg11 => build_vgg(cfg, &[1, 1, 2, 2, 2], &mut rng),
            ModelKind::Vgg16 => build_vgg(cfg, &[2, 2, 3, 3, 3], &mut rng),
            ModelKind::ResNet18 => build_resnet(cfg, &[2, 2, 2, 2], &mut rng),
            ModelKind::ResNet50 => build_resnet(cfg, &[3, 3, 3, 3], &mut rng),
            ModelKind::MobileNet => build_mobilenet(cfg, &mut rng),
        };
        Network::new(self.name(), cfg.classes, body)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tracks `(channels, height, width)` while stacking layers.
#[derive(Clone, Copy)]
struct Dims {
    c: usize,
    h: usize,
    w: usize,
}

impl Dims {
    fn flat(self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether a 2×2/stride-2 pool still shrinks this size meaningfully.
    fn can_pool(self) -> bool {
        self.h >= 2 && self.w >= 2
    }

    fn pooled(self) -> Dims {
        Dims {
            c: self.c,
            h: tdfm_tensor::ops::conv_out_dim(self.h, 2, 2, 0),
            w: tdfm_tensor::ops::conv_out_dim(self.w, 2, 2, 0),
        }
    }

    fn strided(self) -> Dims {
        Dims {
            c: self.c,
            h: tdfm_tensor::ops::conv_out_dim(self.h, 3, 2, 1),
            w: tdfm_tensor::ops::conv_out_dim(self.w, 3, 2, 1),
        }
    }
}

fn conv_relu(seq: &mut Sequential, dims: &mut Dims, out_c: usize, rng: &mut Rng) {
    seq.add(Box::new(Conv2d::new(
        dims.c,
        out_c,
        3,
        Conv2dSpec::same(3),
        rng,
    )));
    seq.add(Box::new(ReLU::new()));
    dims.c = out_c;
}

/// Conv + batch norm + ReLU — the stabilised block the deeper plain stacks
/// (VGG, DeconvNet) need to train at the study's reduced widths.
fn conv_bn_relu(seq: &mut Sequential, dims: &mut Dims, out_c: usize, rng: &mut Rng) {
    seq.add(Box::new(Conv2d::new(
        dims.c,
        out_c,
        3,
        Conv2dSpec::same(3),
        rng,
    )));
    seq.add(Box::new(BatchNorm2d::new(out_c)));
    seq.add(Box::new(ReLU::new()));
    dims.c = out_c;
}

fn maybe_pool(seq: &mut Sequential, dims: &mut Dims) {
    if dims.can_pool() {
        seq.add(Box::new(MaxPool2d::new(2, 2)));
        *dims = dims.pooled();
    }
}

fn head_3fc(seq: &mut Sequential, dims: Dims, cfg: &ModelConfig, rng: &mut Rng) {
    let hidden1 = (8 * cfg.width).max(cfg.classes);
    let hidden2 = (4 * cfg.width).max(cfg.classes);
    seq.add(Box::new(Flatten::new()));
    seq.add(Box::new(Dense::new(dims.flat(), hidden1, rng)));
    seq.add(Box::new(ReLU::new()));
    seq.add(Box::new(Dense::new(hidden1, hidden2, rng)));
    seq.add(Box::new(ReLU::new()));
    seq.add(Box::new(Dense::new(hidden2, cfg.classes, rng)));
}

fn build_convnet(cfg: &ModelConfig, rng: &mut Rng) -> Sequential {
    let mut seq = Sequential::new();
    let mut dims = Dims {
        c: cfg.in_shape.0,
        h: cfg.in_shape.1,
        w: cfg.in_shape.2,
    };
    let w = cfg.width;
    conv_relu(&mut seq, &mut dims, w, rng);
    maybe_pool(&mut seq, &mut dims);
    conv_relu(&mut seq, &mut dims, 2 * w, rng);
    maybe_pool(&mut seq, &mut dims);
    conv_relu(&mut seq, &mut dims, 4 * w, rng);
    head_3fc(&mut seq, dims, cfg, rng);
    seq
}

fn build_deconvnet(cfg: &ModelConfig, rng: &mut Rng) -> Sequential {
    let mut seq = Sequential::new();
    let mut dims = Dims {
        c: cfg.in_shape.0,
        h: cfg.in_shape.1,
        w: cfg.in_shape.2,
    };
    let w = cfg.width;
    conv_bn_relu(&mut seq, &mut dims, w, rng);
    conv_bn_relu(&mut seq, &mut dims, w, rng);
    maybe_pool(&mut seq, &mut dims);
    conv_bn_relu(&mut seq, &mut dims, 2 * w, rng);
    conv_bn_relu(&mut seq, &mut dims, 2 * w, rng);
    maybe_pool(&mut seq, &mut dims);
    let hidden = (8 * cfg.width).max(2 * cfg.classes);
    seq.add(Box::new(Flatten::new()));
    seq.add(Box::new(Dense::new(dims.flat(), hidden, rng)));
    seq.add(Box::new(ReLU::new()));
    seq.add(Box::new(Dropout::new(0.5, rng.derive(102))));
    seq.add(Box::new(Dense::new(hidden, cfg.classes, rng)));
    seq
}

fn build_vgg(cfg: &ModelConfig, stage_convs: &[usize], rng: &mut Rng) -> Sequential {
    let mut seq = Sequential::new();
    let mut dims = Dims {
        c: cfg.in_shape.0,
        h: cfg.in_shape.1,
        w: cfg.in_shape.2,
    };
    let w = cfg.width;
    let stage_width = [w, 2 * w, 4 * w, 4 * w, 4 * w];
    for (stage, &n_convs) in stage_convs.iter().enumerate() {
        for _ in 0..n_convs {
            conv_bn_relu(&mut seq, &mut dims, stage_width[stage], rng);
        }
        maybe_pool(&mut seq, &mut dims);
    }
    head_3fc(&mut seq, dims, cfg, rng);
    seq
}

fn basic_block(dims: &mut Dims, out_c: usize, downsample: bool, rng: &mut Rng) -> ResidualBlock {
    let stride_spec = if downsample {
        Conv2dSpec {
            stride: 2,
            pad: 1,
            groups: 1,
        }
    } else {
        Conv2dSpec::same(3)
    };
    let mut main = Sequential::new();
    main.add(Box::new(Conv2d::new(dims.c, out_c, 3, stride_spec, rng)));
    main.add(Box::new(BatchNorm2d::new(out_c)));
    main.add(Box::new(ReLU::new()));
    main.add(Box::new(Conv2d::new(
        out_c,
        out_c,
        3,
        Conv2dSpec::same(3),
        rng,
    )));
    main.add(Box::new(BatchNorm2d::new(out_c)));
    let needs_projection = downsample || dims.c != out_c;
    let block = if needs_projection {
        let mut skip = Sequential::new();
        let skip_spec = if downsample {
            Conv2dSpec {
                stride: 2,
                pad: 0,
                groups: 1,
            }
        } else {
            Conv2dSpec {
                stride: 1,
                pad: 0,
                groups: 1,
            }
        };
        skip.add(Box::new(Conv2d::new(dims.c, out_c, 1, skip_spec, rng)));
        skip.add(Box::new(BatchNorm2d::new(out_c)));
        ResidualBlock::projected(main, skip)
    } else {
        ResidualBlock::identity(main)
    };
    if downsample {
        *dims = dims.strided();
    }
    dims.c = out_c;
    block
}

fn build_resnet(cfg: &ModelConfig, stage_blocks: &[usize], rng: &mut Rng) -> Sequential {
    let mut seq = Sequential::new();
    let mut dims = Dims {
        c: cfg.in_shape.0,
        h: cfg.in_shape.1,
        w: cfg.in_shape.2,
    };
    let w = cfg.width;
    // Stem.
    seq.add(Box::new(Conv2d::new(
        dims.c,
        w,
        3,
        Conv2dSpec::same(3),
        rng,
    )));
    seq.add(Box::new(BatchNorm2d::new(w)));
    seq.add(Box::new(ReLU::new()));
    dims.c = w;
    let stage_width = [w, 2 * w, 4 * w, 4 * w];
    for (stage, &n_blocks) in stage_blocks.iter().enumerate() {
        for b in 0..n_blocks {
            let downsample = stage > 0 && b == 0 && dims.h >= 2;
            seq.add(Box::new(basic_block(
                &mut dims,
                stage_width[stage],
                downsample,
                rng,
            )));
        }
    }
    seq.add(Box::new(GlobalAvgPool::new()));
    seq.add(Box::new(Dense::new(dims.c, cfg.classes, rng)));
    seq
}

fn build_mobilenet(cfg: &ModelConfig, rng: &mut Rng) -> Sequential {
    let mut seq = Sequential::new();
    let mut dims = Dims {
        c: cfg.in_shape.0,
        h: cfg.in_shape.1,
        w: cfg.in_shape.2,
    };
    let w = cfg.width;
    // Stem.
    seq.add(Box::new(Conv2d::new(
        dims.c,
        w,
        3,
        Conv2dSpec::same(3),
        rng,
    )));
    seq.add(Box::new(BatchNorm2d::new(w)));
    seq.add(Box::new(ReLU::new()));
    dims.c = w;
    // Depthwise-separable blocks: (out_channels, downsample).
    let blocks = [
        (w, false),
        (2 * w, true),
        (2 * w, false),
        (4 * w, true),
        (4 * w, false),
        (8 * w, false),
    ];
    for &(out_c, down) in &blocks {
        let stride = if down && dims.h >= 2 { 2 } else { 1 };
        // Depthwise 3x3.
        seq.add(Box::new(Conv2d::new(
            dims.c,
            dims.c,
            3,
            Conv2dSpec {
                stride,
                pad: 1,
                groups: dims.c,
            },
            rng,
        )));
        seq.add(Box::new(BatchNorm2d::new(dims.c)));
        seq.add(Box::new(ReLU::new()));
        if stride == 2 {
            dims = dims.strided();
        }
        // Pointwise 1x1.
        seq.add(Box::new(Conv2d::new(
            dims.c,
            out_c,
            1,
            Conv2dSpec {
                stride: 1,
                pad: 0,
                groups: 1,
            },
            rng,
        )));
        seq.add(Box::new(BatchNorm2d::new(out_c)));
        seq.add(Box::new(ReLU::new()));
        dims.c = out_c;
    }
    seq.add(Box::new(GlobalAvgPool::new()));
    seq.add(Box::new(Dense::new(dims.c, cfg.classes, rng)));
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use tdfm_tensor::Tensor;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            in_shape: (3, 8, 8),
            classes: 5,
            width: 4,
            seed: 7,
        }
    }

    #[test]
    fn all_models_produce_logits_of_right_shape() {
        let cfg = small_cfg();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        for kind in ModelKind::ALL {
            let mut net = kind.build(&cfg);
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(y.shape().dims(), &[2, 5], "{kind}");
        }
    }

    #[test]
    fn all_models_backpropagate() {
        let cfg = small_cfg();
        let mut rng = tdfm_tensor::rng::Rng::seed_from(0);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        for kind in ModelKind::ALL {
            let mut net = kind.build(&cfg);
            let y = net.forward(&x, Mode::Train);
            let gx = net.backward(&Tensor::ones(y.shape().dims()));
            assert_eq!(gx.shape().dims(), x.shape().dims(), "{kind}");
            assert!(!gx.has_non_finite(), "{kind} produced non-finite gradients");
            // At least one parameter received gradient.
            let got_grad = net.params_mut().iter().any(|p| p.grad.max_abs() > 0.0);
            assert!(got_grad, "{kind} has all-zero parameter gradients");
        }
    }

    /// A NaN in one pixel of sample `j` poisons sample `j`'s logits and no
    /// other sample's: lanes that span samples (convolution) or planes
    /// (max pooling) must not leak into their neighbours.
    #[test]
    fn a_poisoned_sample_leaves_the_others_bit_identical() {
        let cfg = small_cfg();
        let mut rng = tdfm_tensor::rng::Rng::seed_from(11);
        // Ten samples: a full lane block of eight and a ragged one.
        let clean = Tensor::randn(&[10, 3, 8, 8], 1.0, &mut rng);
        let sample = 3 * 8 * 8;
        for kind in ModelKind::ALL {
            let mut net = kind.build(&cfg);
            let want = net.forward(&clean, Mode::Eval);
            for j in [0, 5, 7, 8, 9] {
                let mut x = clean.clone();
                // Channel 1, row 3, column 4.
                x.data_mut()[j * sample + 64 + 3 * 8 + 4] = f32::NAN;
                let got = net.forward(&x, Mode::Eval);
                for (i, (g, w)) in got
                    .data()
                    .chunks_exact(cfg.classes)
                    .zip(want.data().chunks_exact(cfg.classes))
                    .enumerate()
                {
                    if i == j {
                        assert!(
                            g.iter().all(|v| !v.is_finite()),
                            "{kind}: sample {j} stayed finite"
                        );
                    } else {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(g),
                            bits(w),
                            "{kind}: NaN in sample {j} reached sample {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deep_models_have_more_parameters_than_shallow() {
        let cfg = small_cfg();
        let mut convnet = ModelKind::ConvNet.build(&cfg);
        let mut resnet50 = ModelKind::ResNet50.build(&cfg);
        let mut vgg16 = ModelKind::Vgg16.build(&cfg);
        let mut vgg11 = ModelKind::Vgg11.build(&cfg);
        assert!(resnet50.param_count() > convnet.param_count());
        assert!(vgg16.param_count() > vgg11.param_count());
    }

    #[test]
    fn resnet50_is_deeper_than_resnet18() {
        let cfg = small_cfg();
        let mut r18 = ModelKind::ResNet18.build(&cfg);
        let mut r50 = ModelKind::ResNet50.build(&cfg);
        assert!(r50.param_count() > r18.param_count());
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let mut cfg = small_cfg();
        let mut a = ModelKind::ConvNet.build(&cfg);
        cfg.seed = 8;
        let mut b = ModelKind::ConvNet.build(&cfg);
        let wa = a.params_mut()[0].value.clone();
        let wb = b.params_mut()[0].value.clone();
        assert_ne!(wa.data(), wb.data());
    }

    fn bits(net: &mut Network) -> (Vec<u32>, Vec<u32>) {
        let params = net
            .params_mut()
            .into_iter()
            .flat_map(|p| p.value.data().to_vec());
        let params = params.map(f32::to_bits).collect();
        let state = net.state_mut().into_iter().flat_map(|s| s.to_vec());
        (params, state.map(f32::to_bits).collect())
    }

    #[test]
    fn replica_is_indistinguishable_from_a_fresh_build() {
        use crate::loss::CrossEntropy;
        use crate::trainer::{fit, FitConfig, TargetSource};
        let cfg = small_cfg();
        let mut rng = tdfm_tensor::rng::Rng::seed_from(3);
        let x = Tensor::randn(&[8, 3, 8, 8], 1.0, &mut rng);
        let y = TargetSource::Hard((0..8).map(|i| i % 5).collect());
        let fit_cfg = FitConfig {
            epochs: 1,
            batch_size: 4,
            ..FitConfig::default()
        };
        for kind in ModelKind::ALL {
            let mut source = kind.build(&cfg);
            let mut fresh = kind.build(&cfg);
            let mut replica = source.replica();
            let built = bits(&mut fresh);
            assert!(
                bits(&mut replica) == built,
                "{kind}: replica differs at init"
            );
            // One epoch through every layer's training path (DeconvNet's
            // dropout stream, BatchNorm running statistics) must move the
            // copy exactly as it moves a fresh build, and leave the
            // network it was copied from untouched.
            fit(&mut fresh, &CrossEntropy, &x, &y, &fit_cfg);
            fit(&mut replica, &CrossEntropy, &x, &y, &fit_cfg);
            let trained = bits(&mut fresh);
            assert!(trained != built, "{kind}: the fit did not train");
            assert!(
                bits(&mut replica) == trained,
                "{kind}: replica trained differently"
            );
            assert!(bits(&mut source) == built, "{kind}: replica shares state");
        }
    }

    /// Parameter and state digests of fresh builds at the smoke configs
    /// of the 43-class and the 10-class datasets: the initial weights
    /// every trained result starts from.
    #[test]
    fn fresh_builds_match_their_pins() {
        // In `ModelKind::ALL` order.
        let pins: [(usize, [u64; 7]); 2] = [
            (
                43,
                [
                    0x2a12_715b_1827_0899,
                    0xa5a3_b0b1_b04f_7f90,
                    0xdbd9_3043_79bf_ff2c,
                    0xfb79_18a1_6298_421e,
                    0x4512_0639_5b5a_7099,
                    0x37e3_1a68_3c06_01d5,
                    0x6d56_fab8_1121_67d7,
                ],
            ),
            (
                10,
                [
                    0x48c6_0404_f81e_25e2,
                    0x044d_d389_7592_14d4,
                    0x65d5_7bd2_1d6a_7ec5,
                    0x8949_ee31_a402_dcc5,
                    0x7921_fe4d_1357_9555,
                    0x264d_b24f_69c8_28ce,
                    0xf263_8714_492d_a173,
                ],
            ),
        ];
        for (classes, pins) in pins {
            let cfg = ModelConfig {
                in_shape: (3, 8, 8),
                classes,
                width: 4,
                seed: 0,
            };
            for (kind, pin) in ModelKind::ALL.into_iter().zip(pins) {
                let (params, state) = bits(&mut kind.build(&cfg));
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in params.iter().chain(&state).flat_map(|w| w.to_le_bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                assert_eq!(h, pin, "{kind}/{classes}: digest {h:#018x}");
            }
        }
    }

    #[test]
    fn registry_matches_table_iii_names() {
        let names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.info().name).collect();
        assert_eq!(
            names,
            vec![
                "ConvNet",
                "DeconvNet",
                "VGG11",
                "VGG16",
                "ResNet18",
                "MobileNet",
                "ResNet50"
            ]
        );
        assert_eq!(ModelKind::ConvNet.info().depth, DepthClass::Moderate);
        assert_eq!(ModelKind::ResNet50.info().depth, DepthClass::Deep);
    }

    #[test]
    fn tiny_4x4_input_is_supported() {
        let cfg = ModelConfig {
            in_shape: (1, 4, 4),
            classes: 2,
            width: 2,
            seed: 0,
        };
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        for kind in ModelKind::ALL {
            let mut net = kind.build(&cfg);
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(y.shape().dims(), &[1, 2], "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 4x4")]
    fn too_small_input_rejected() {
        let cfg = ModelConfig {
            in_shape: (1, 2, 2),
            classes: 2,
            width: 2,
            seed: 0,
        };
        let _ = ModelKind::ConvNet.build(&cfg);
    }
}
