//! Residual blocks (the ResNet family's distinguishing mechanism).

use crate::layer::{Layer, Mode, Param};
use crate::layers::Sequential;
use tdfm_tensor::{simd, Scratch, ScratchHandle, Tensor};

/// A residual block: `y = relu(main(x) + skip(x))`.
///
/// `skip` is the identity when the main path preserves shape, or a
/// projection (typically a strided 1×1 convolution + batch norm) when it
/// does not. The paper attributes part of ensemble diversity to exactly
/// this structural difference between ResNet and the plain-stack families
/// (Section IV-B).
#[derive(Clone)]
pub struct ResidualBlock {
    main: Sequential,
    skip: Option<Sequential>,
    sum_cache: Option<Tensor>,
    scratch: ScratchHandle,
}

impl ResidualBlock {
    /// Creates a block with an identity skip connection.
    pub fn identity(main: Sequential) -> Self {
        Self {
            main,
            skip: None,
            sum_cache: None,
            scratch: Scratch::shared().clone(),
        }
    }

    /// Creates a block with a projection skip path.
    pub fn projected(main: Sequential, skip: Sequential) -> Self {
        Self {
            main,
            skip: Some(skip),
            sum_cache: None,
            scratch: Scratch::shared().clone(),
        }
    }
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResidualBlock {{ main: {:?}, skip: {} }}",
            self.main,
            if self.skip.is_some() {
                "projection"
            } else {
                "identity"
            }
        )
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let main_out = self.main.forward(input, mode);
        let skip_out = self.skip.as_mut().map(|proj| proj.forward(input, mode));
        let skip_data = skip_out.as_ref().unwrap_or(input);
        assert_eq!(
            main_out.shape(),
            skip_data.shape(),
            "residual paths must produce identical shapes"
        );
        let mut sum = self.scratch.tensor_uninit(main_out.shape().dims());
        for ((s, &a), &b) in sum
            .data_mut()
            .iter_mut()
            .zip(main_out.data())
            .zip(skip_data.data())
        {
            *s = a + b;
        }
        let mut out = self.scratch.tensor_uninit(sum.shape().dims());
        // The standalone layer's NaN-propagating ReLU kernel.
        simd::relu_forward(sum.data(), out.data_mut(), None);
        self.scratch.recycle(main_out);
        if let Some(t) = skip_out {
            self.scratch.recycle(t);
        }
        if let Some(old) = self.sum_cache.take() {
            self.scratch.recycle(old);
        }
        self.sum_cache = Some(sum);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let sum = self.sum_cache.as_ref().expect("forward before backward");
        // ReLU gradient on the summed pre-activation.
        let mut g = self.scratch.tensor_uninit(grad_output.shape().dims());
        for ((o, &gy), &s) in g
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(sum.data())
        {
            *o = if s > 0.0 { gy } else { 0.0 };
        }
        let g_main = self.main.backward(&g);
        let g_skip = match &mut self.skip {
            Some(proj) => {
                let gs = proj.backward(&g);
                self.scratch.recycle(g);
                gs
            }
            None => g,
        };
        let mut out = g_main;
        for (o, &b) in out.data_mut().iter_mut().zip(g_skip.data()) {
            *o += b;
        }
        self.scratch.recycle(g_skip);
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.main.params_mut();
        if let Some(proj) = &mut self.skip {
            params.extend(proj.params_mut());
        }
        params
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        let mut state = self.main.state_mut();
        if let Some(proj) = &mut self.skip {
            state.extend(proj.state_mut());
        }
        state
    }

    fn bind_scratch(&mut self, scratch: &ScratchHandle) {
        self.scratch = scratch.clone();
        self.main.bind_scratch(scratch);
        if let Some(proj) = &mut self.skip {
            proj.bind_scratch(scratch);
        }
    }

    fn name(&self) -> &'static str {
        "ResidualBlock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense};
    use tdfm_tensor::ops::Conv2dSpec;
    use tdfm_tensor::rng::Rng;

    #[test]
    fn identity_skip_adds_input() {
        let mut rng = Rng::seed_from(0);
        // Main path that outputs all zeros -> block is relu(x).
        let mut zero = Dense::new(3, 3, &mut rng);
        for p in zero.params_mut() {
            p.value.fill(0.0);
        }
        let mut block = ResidualBlock::identity(Sequential::new().push(zero));
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]);
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[1.0, 0.0, 3.0]);
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        let mut rng = Rng::seed_from(1);
        let main = Sequential::new().push(Conv2d::new(2, 2, 3, Conv2dSpec::same(3), &mut rng));
        let mut block = ResidualBlock::identity(main);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        let gx = block.backward(&Tensor::ones(y.shape().dims()));
        let eps = 1e-2;
        for i in [0usize, 9, 22, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (block.forward(&xp, Mode::Train).sum()
                - block.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!((num - gx.data()[i]).abs() < 3e-2, "x[{i}]");
        }
    }

    #[test]
    fn projection_skip_changes_shape() {
        let mut rng = Rng::seed_from(2);
        let main = Sequential::new().push(Conv2d::new(
            2,
            4,
            3,
            Conv2dSpec {
                stride: 2,
                pad: 1,
                groups: 1,
            },
            &mut rng,
        ));
        let skip = Sequential::new().push(Conv2d::new(
            2,
            4,
            1,
            Conv2dSpec {
                stride: 2,
                pad: 0,
                groups: 1,
            },
            &mut rng,
        ));
        let mut block = ResidualBlock::projected(main, skip);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[1, 4, 2, 2]);
        let gx = block.backward(&Tensor::ones(y.shape().dims()));
        assert_eq!(gx.shape().dims(), x.shape().dims());
    }
}
