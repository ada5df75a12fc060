//! Model specifications and GPU-resident model instances.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use portus_mem::{GpuDevice, MemResult};
use portus_sim::hash::combine_digests;

use crate::{DType, GpuTensor, TensorMeta};

/// The static description of a model: an ordered list of named tensors.
/// Fixed for the lifetime of a training job — the property Portus
/// exploits to pre-build the checkpoint structure on PMem (§III-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name (the ModelTable key).
    pub name: String,
    /// Ordered tensors ("layers" in the paper's terminology).
    pub tensors: Vec<TensorMeta>,
}

impl ModelSpec {
    /// Creates a spec from a name and tensor list.
    pub fn new(name: impl Into<String>, tensors: Vec<TensorMeta>) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            tensors,
        }
    }

    /// Number of tensors.
    pub fn layer_count(&self) -> usize {
        self.tensors.len()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> u64 {
        self.tensors.iter().map(TensorMeta::numel).sum()
    }

    /// Total checkpoint payload in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tensors.iter().map(TensorMeta::size_bytes).sum()
    }
}

/// How an instance's tensor bytes are backed on the simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialization {
    /// Real, writable bytes — required by correctness tests and by
    /// [`ModelInstance::train_step`].
    Owned,
    /// Deterministic synthetic content, O(1) host memory — used to stand
    /// in for models too large to hold (read-only).
    Synthetic,
}

/// A model whose tensors live in (simulated) GPU memory.
///
/// # Examples
///
/// ```
/// use portus_dnn::{zoo, Materialization, ModelInstance};
/// use portus_mem::GpuDevice;
/// use portus_sim::SimContext;
///
/// let gpu = GpuDevice::new(SimContext::icdcs24(), 0, 8 << 30);
/// let spec = zoo::resnet50();
/// let model = ModelInstance::materialize(&spec, &gpu, 42, Materialization::Synthetic)?;
/// assert_eq!(model.tensors().len(), spec.layer_count());
/// # Ok::<(), portus_mem::MemError>(())
/// ```
#[derive(Debug)]
pub struct ModelInstance {
    spec: ModelSpec,
    tensors: Vec<GpuTensor>,
    materialization: Materialization,
    step: u64,
    dirty: Vec<bool>,
}

impl ModelInstance {
    /// Allocates every tensor of `spec` on `gpu`. With
    /// [`Materialization::Synthetic`], tensor `i` gets deterministic
    /// content derived from `seed` and `i`; with
    /// [`Materialization::Owned`], tensors are zero-initialized and then
    /// deterministically filled.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (GPU out of memory).
    pub fn materialize(
        spec: &ModelSpec,
        gpu: &Arc<GpuDevice>,
        seed: u64,
        materialization: Materialization,
    ) -> MemResult<ModelInstance> {
        let mut tensors = Vec::with_capacity(spec.tensors.len());
        for (i, meta) in spec.tensors.iter().enumerate() {
            let tensor_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let buffer = match materialization {
                Materialization::Synthetic => {
                    gpu.alloc_synthetic(meta.size_bytes(), tensor_seed)?
                }
                Materialization::Owned => {
                    let buf = gpu.alloc(meta.size_bytes())?;
                    // Deterministic fill so checkpoints are verifiable.
                    fill_deterministic(&buf, tensor_seed);
                    buf
                }
            };
            tensors.push(GpuTensor::new(meta.clone(), buffer));
        }
        let dirty = vec![true; spec.tensors.len()];
        Ok(ModelInstance {
            spec: spec.clone(),
            tensors,
            materialization,
            step: 0,
            dirty,
        })
    }

    /// The static spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The GPU tensors, in spec order.
    pub fn tensors(&self) -> &[GpuTensor] {
        &self.tensors
    }

    /// How the bytes are backed.
    pub fn materialization(&self) -> Materialization {
        self.materialization
    }

    /// Training steps applied so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Simulates one parameter update (phase **U** of Fig. 8): mutates a
    /// deterministic slice of every tensor so successive checkpoints
    /// differ verifiably.
    ///
    /// # Panics
    ///
    /// Panics on synthetic instances (their content is read-only).
    pub fn train_step(&mut self) {
        let all: Vec<usize> = (0..self.tensors.len()).collect();
        self.train_step_sparse(&all);
    }

    /// Simulates a *sparse* parameter update touching only the listed
    /// tensors — the access pattern of embedding-heavy recommendation
    /// models, and what makes incremental (delta) checkpointing pay
    /// off. Out-of-range indices are ignored.
    ///
    /// # Panics
    ///
    /// Panics on synthetic instances (their content is read-only).
    pub fn train_step_sparse(&mut self, touched: &[usize]) {
        assert_eq!(
            self.materialization,
            Materialization::Owned,
            "cannot update a synthetic (read-only) model instance"
        );
        self.step += 1;
        for &i in touched.iter().filter(|&&i| i < self.tensors.len()) {
            self.dirty[i] = true;
            let t = &self.tensors[i];
            // Touch up to 64 bytes at a step-dependent offset.
            let len = t.buffer.len();
            if len == 0 {
                continue;
            }
            let window = 64.min(len);
            let offset =
                (self.step.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (i as u64)) % (len - window + 1);
            let mut patch = [0u8; 64];
            for (j, b) in patch[..window as usize].iter_mut().enumerate() {
                *b = (self.step as u8)
                    .wrapping_add(i as u8)
                    .wrapping_add(j as u8);
            }
            t.buffer
                .write_at(offset, &patch[..window as usize])
                .expect("owned tensor is writable");
        }
    }

    /// Which tensors have been updated since the last
    /// [`ModelInstance::take_dirty`] (all `true` after materialization).
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Returns the dirty mask and clears it — call when a checkpoint of
    /// the current state has been taken.
    pub fn take_dirty(&mut self) -> Vec<bool> {
        std::mem::replace(&mut self.dirty, vec![false; self.tensors.len()])
    }

    /// Checksums of every tensor, in spec order.
    pub fn tensor_checksums(&self) -> Vec<u64> {
        self.tensors.iter().map(GpuTensor::checksum).collect()
    }

    /// Positional digest of all tensors laid end to end in layer order
    /// — the layout of a checkpoint slot, so this equals the digest the
    /// slot holding this state is sealed with.
    pub fn model_checksum(&self) -> u64 {
        let mut base = 0;
        self.tensors.iter().fold(0, |acc, t| {
            let d = t.buffer.digest(base);
            base += t.meta.size_bytes();
            combine_digests(acc, d)
        })
    }

    /// Releases the GPU memory accounting for this instance's tensors.
    pub fn release(&self, gpu: &GpuDevice) {
        for t in &self.tensors {
            gpu.free(&t.buffer);
        }
    }
}

fn fill_deterministic(buf: &portus_mem::Buffer, seed: u64) {
    let mut chunk = [0u8; 4096];
    let mut pos = 0u64;
    let len = buf.len();
    while pos < len {
        let n = ((len - pos) as usize).min(chunk.len());
        for (j, b) in chunk[..n].iter_mut().enumerate() {
            let abs = pos + j as u64;
            *b = ((seed.wrapping_add(abs).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as u8;
        }
        buf.write_at(pos, &chunk[..n]).expect("in bounds");
        pos += n as u64;
    }
}

/// Creates a small synthetic spec for tests: `layers` tensors of
/// `bytes_per_layer` bytes each (F32, 1-D).
pub fn test_spec(name: &str, layers: usize, bytes_per_layer: u64) -> ModelSpec {
    assert_eq!(bytes_per_layer % 4, 0, "layer bytes must be f32-aligned");
    let tensors = (0..layers)
        .map(|i| {
            TensorMeta::new(
                format!("{name}.layer{i}.weight"),
                DType::F32,
                vec![bytes_per_layer / 4],
            )
        })
        .collect();
    ModelSpec::new(name, tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_sim::SimContext;

    fn gpu() -> Arc<GpuDevice> {
        GpuDevice::new(SimContext::icdcs24(), 0, 4 << 30)
    }

    #[test]
    fn spec_accounting() {
        let spec = test_spec("m", 10, 4096);
        assert_eq!(spec.layer_count(), 10);
        assert_eq!(spec.total_bytes(), 40960);
        assert_eq!(spec.param_count(), 10240);
    }

    #[test]
    fn owned_instance_is_deterministic() {
        let gpu = gpu();
        let spec = test_spec("m", 4, 1024);
        let a = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
        let b = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
        assert_eq!(a.model_checksum(), b.model_checksum());
        let c = ModelInstance::materialize(&spec, &gpu, 8, Materialization::Owned).unwrap();
        assert_ne!(a.model_checksum(), c.model_checksum());
    }

    #[test]
    fn train_step_changes_content() {
        let gpu = gpu();
        let spec = test_spec("m", 3, 512);
        let mut m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        let before = m.model_checksum();
        m.train_step();
        assert_ne!(m.model_checksum(), before);
        assert_eq!(m.step(), 1);
    }

    #[test]
    #[should_panic(expected = "synthetic")]
    fn train_step_on_synthetic_panics() {
        let gpu = gpu();
        let spec = test_spec("m", 1, 64);
        let mut m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Synthetic).unwrap();
        m.train_step();
    }

    #[test]
    fn release_returns_memory() {
        let gpu = gpu();
        let spec = test_spec("m", 2, 2048);
        let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        assert_eq!(gpu.allocated(), 4096);
        m.release(&gpu);
        assert_eq!(gpu.allocated(), 0);
    }
}
