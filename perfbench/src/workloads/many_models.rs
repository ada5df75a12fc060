//! `many_models`: one connection to a daemon with the paged on-PMem
//! catalog (`DaemonConfig::catalog = Some(default)`, a 64-page cache).
//! [`MODELS`] tiny models (a weight and a bias of 1–6 KiB each, sizes
//! drawn from the seed) carry path-like names that share long prefixes.
//! Each round picks one model with a Zipf skew over the whole
//! population, whose catalog pages are several times what the cache
//! holds, and checkpoints it or restores and verifies it; every
//! [`CHURN_EVERY`]-th round instead churns: drops a model and registers
//! a new one under a fresh name. Name resolution, the model table,
//! allocator metadata and register/drop dominate at ~8 KiB of data per
//! operation.

use portus::{CatalogConfig, DaemonConfig};
use portus_dnn::{DType, ModelSpec, TensorMeta};
use portus_sim::SimRng;

use super::{Workload, Zipf};
use crate::world::{BenchResult, Ledger, World};

/// Live model population.
const MODELS: usize = 8_000;
/// Tensor sizes are drawn uniformly from this range, in whole F32s.
const MIN_TENSOR_BYTES: u64 = 1 << 10;
const MAX_TENSOR_BYTES: u64 = 6 << 10;
const ZIPF_S: f64 = 0.9;
/// A drop + register costs ~40 lookups' worth of host time, so churn
/// runs on a fixed schedule: a random one would make the host rate
/// follow how many churns a window happened to draw.
const CHURN_EVERY: u64 = 40;
/// Coprime with [`MODELS`]: consecutive Zipf ranks land far apart in
/// the name order.
const STRIDE: u64 = 4999;
const MIB: u64 = 1 << 20;

pub struct ManyModels {
    world: World,
    rng: SimRng,
    zipf: Zipf,
    /// Population slots, hottest first: a Zipf rank maps to a slot, and
    /// churn replaces the slot's model with a freshly named one.
    slots: Vec<String>,
    /// Names resolved so far, in order (replayed through the catalog).
    stream: Vec<String>,
    next_id: u64,
    round: u64,
}

/// A path-like name: long shared prefixes, distinct leaves.
fn model_name(id: u64) -> String {
    format!(
        "fleet/tenants/org-{:02}/projects/vision-{:02}/experiments/run-{:07}/model",
        id % 7,
        (id / 7) % 13,
        id
    )
}

fn tiny_spec(name: &str, rng: &mut SimRng) -> ModelSpec {
    let metas = ["weight", "bias"]
        .iter()
        .map(|t| {
            let elems =
                MIN_TENSOR_BYTES / 4 + rng.gen_range((MAX_TENSOR_BYTES - MIN_TENSOR_BYTES) / 4 + 1);
            TensorMeta::new(format!("{name}.{t}"), DType::F32, vec![elems])
        })
        .collect();
    ModelSpec::new(name, metas)
}

impl ManyModels {
    pub fn setup(seed: u64, l: &mut Ledger) -> BenchResult<ManyModels> {
        let mut rng = SimRng::new(seed).fork(3);
        let cfg = DaemonConfig {
            catalog: Some(CatalogConfig::default()),
            table_capacity: (MODELS + 1024) as u32,
            alloc_slots: (4 * MODELS + 8192) as u32,
            ..DaemonConfig::default()
        };
        let per_model = 2 * MAX_TENSOR_BYTES;
        let mut world = World::new(
            4 * MODELS as u64 * per_model + 256 * MIB,
            2 * MODELS as u64 * per_model + 64 * MIB,
            cfg,
            &["many"],
        )?;
        // The population's names are the same for every seed, and so is
        // the catalog they build. The seed decides which of them is hot:
        // Zipf rank r is the model with id (offset + r * STRIDE) mod
        // MODELS, so every seed spreads its hot set over the key space
        // (and the catalog's pages) the same way.
        for id in 0..MODELS as u64 {
            let name = model_name(id);
            let spec = tiny_spec(&name, &mut rng);
            let inst = world.materialize(&spec, rng.next_u64())?;
            world.register(0, inst, None, l);
        }
        let offset = rng.gen_range(MODELS as u64);
        let slots = (0..MODELS as u64)
            .map(|r| model_name((offset + r * STRIDE) % MODELS as u64))
            .collect();
        let next_id = MODELS as u64;
        let mut s = ManyModels {
            world,
            rng,
            zipf: Zipf::new(MODELS, ZIPF_S),
            slots,
            stream: Vec::new(),
            next_id,
            round: 0,
        };
        // Warm-up: enough rounds that the hot set is checkpointed and
        // the catalog cache holds its steady-state pages.
        for _ in 0..2000 {
            s.round(l);
        }
        s.stream.clear();
        Ok(s)
    }

    fn churn(&mut self, l: &mut Ledger) {
        let slot = self.rng.gen_range(self.slots.len() as u64) as usize;
        let old = self.slots[slot].clone();
        self.world.drop_model(&old, l);
        let name = model_name(self.next_id);
        self.next_id += 1;
        let spec = tiny_spec(&name, &mut self.rng);
        match self.world.materialize(&spec, self.rng.next_u64()) {
            Ok(inst) => {
                self.world.register(0, inst, None, l);
            }
            Err(e) => {
                l.attempted += 1;
                l.fail(format!("materialize {name}: {e}"));
            }
        }
        self.slots[slot] = name;
    }
}

impl Workload for ManyModels {
    fn round(&mut self, l: &mut Ledger) {
        self.round += 1;
        if self.round.is_multiple_of(CHURN_EVERY) {
            self.churn(l);
            return;
        }
        let name = self.slots[self.zipf.sample(&mut self.rng)].clone();
        if !self.world.models.contains_key(&name) {
            return;
        }
        self.stream.push(name.clone());
        let acked = self.world.models[&name].acked.is_some();
        if self.rng.gen_range(2) == 0 || !acked {
            self.world.train(&name, l);
            self.world.checkpoint(&name, l);
        } else {
            self.world.restore(&name, l);
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn into_world(self: Box<Self>) -> World {
        self.world
    }

    /// The tensors of the 64 hottest population slots.
    fn layout(&self) -> Vec<u64> {
        self.slots
            .iter()
            .take(64)
            .filter_map(|n| self.world.models.get(n))
            .flat_map(|m| m.inst.spec().tensors.iter().map(TensorMeta::size_bytes))
            .collect()
    }

    fn name_stream(&self) -> Vec<String> {
        self.stream.clone()
    }
}
