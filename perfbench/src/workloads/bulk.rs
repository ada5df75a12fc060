//! `bulk`: one tenant, one connection, the default daemon (single QP,
//! DRAM model map, no dedup). The model is Table II's ResNet-50 with its
//! zoo layer shapes plus a fine-tuning classification head whose class
//! count the seed picks (900..=1100), so checkpoints are ~105 MiB.
//! Each round is `train_step` → checkpoint → restore into a second
//! instance → verify. Bytes dominate: the fabric copy, the PMem persist
//! and the slot checksum carry nearly all the time.

use portus::DaemonConfig;
use portus_dnn::{zoo, DType, ModelSpec, TensorMeta};
use portus_sim::SimRng;

use super::Workload;
use crate::world::{BenchResult, Ledger, World};

const NAME: &str = "bulk/resnet50-ft";
const MIB: u64 = 1 << 20;

pub struct Bulk {
    world: World,
    spec: ModelSpec,
}

/// ResNet-50 plus a `classes × 2048` F32 head.
fn spec(classes: u64) -> ModelSpec {
    let mut tensors = zoo::resnet50().tensors;
    tensors.push(TensorMeta::new(
        "resnet50.head.weight",
        DType::F32,
        vec![classes, 2048],
    ));
    ModelSpec::new(NAME, tensors)
}

impl Bulk {
    pub fn setup(seed: u64, l: &mut Ledger) -> BenchResult<Bulk> {
        let mut rng = SimRng::new(seed).fork(1);
        let spec = spec(900 + rng.gen_range(201));
        let bytes = spec.total_bytes();
        // Two slots of the model plus index metadata.
        let mut world = World::new(
            2 * bytes + 64 * MIB,
            4 * bytes,
            DaemonConfig::default(),
            &["bulk"],
        )?;
        let inst = world.materialize(&spec, rng.next_u64())?;
        let target = world.materialize(&spec, rng.next_u64())?;
        world.register(0, inst, Some(target), l);
        // Warm-up: give both slots their regions and touch the restore
        // path once, so the timed phase sees the steady state.
        for _ in 0..2 {
            world.train(NAME, l);
            world.checkpoint(NAME, l);
        }
        world.restore(NAME, l);
        Ok(Bulk { world, spec })
    }
}

impl Workload for Bulk {
    fn round(&mut self, l: &mut Ledger) {
        self.world.train(NAME, l);
        if self.world.checkpoint(NAME, l) {
            self.world.restore(NAME, l);
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn into_world(self: Box<Self>) -> World {
        self.world
    }

    fn layout(&self) -> Vec<u64> {
        self.spec
            .tensors
            .iter()
            .map(TensorMeta::size_bytes)
            .collect()
    }

    fn name_stream(&self) -> Vec<String> {
        Vec::new()
    }
}
