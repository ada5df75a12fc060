//! `finetune`: one connection to a daemon with content-addressed dedup
//! and inline low-watermark repack, on a namespace small enough that
//! space pressure recurs. A base model and [`TUNES`] fine-tunes are
//! materialized from the same seed, so they start byte-identical and
//! share extents. Every round each model takes a sparse training step
//! (`train_step_sparse` on seed-picked tensors) and an incremental
//! checkpoint of its dirty tensors — the `TrainPolicy::Delta` protocol —
//! with a full checkpoint every [`FULL_EVERY`] steps, and one model is
//! restored and verified. A fine-tune that has run [`TUNE_STEPS`] steps
//! is marked complete (its old version becomes reclaimable), then
//! dropped and replaced by a fresh one; the first fine-tunes get
//! seed-staggered shorter lives, so replacements spread out in time.

use portus::{DaemonConfig, DedupConfig};
use portus_dnn::{DType, ModelSpec, TensorMeta};
use portus_sim::SimRng;

use super::{pick_distinct, Workload};
use crate::world::{BenchResult, Ledger, World};

const TUNES: usize = 4;
const TENSORS: usize = 48;
/// Tensor size before the seed's jitter of -2..=+2 KiB.
const TENSOR_BYTES: u64 = 256 << 10;
const TOUCHED_PER_STEP: usize = 4;
const FULL_EVERY: u64 = 8;
const TUNE_STEPS: u64 = 16;
/// Rounds a finished fine-tune stays registered before it is dropped.
const LINGER: u64 = 4;
const MIB: u64 = 1 << 20;

/// Where one fine-tune is in its life.
struct Tune {
    name: String,
    /// Round it was registered in.
    born: u64,
    /// Steps it trains before it is marked complete.
    steps: u64,
    /// Round it was marked complete, once it has been.
    completed: Option<u64>,
}

pub struct Finetune {
    world: World,
    rng: SimRng,
    content_seed: u64,
    tensor_bytes: u64,
    base: String,
    tunes: Vec<Tune>,
    round: u64,
    next_tune: u64,
}

fn spec(name: &str, tensor_bytes: u64) -> ModelSpec {
    let metas = (0..TENSORS)
        .map(|i| {
            TensorMeta::new(
                format!("{name}.block{i}.weight"),
                DType::F32,
                vec![tensor_bytes / 4],
            )
        })
        .collect();
    ModelSpec::new(name, metas)
}

impl Finetune {
    pub fn setup(seed: u64, l: &mut Ledger) -> BenchResult<Finetune> {
        let mut rng = SimRng::new(seed).fork(4);
        // The architecture every model of the run shares.
        let tensor_bytes = TENSOR_BYTES - (2 << 10) + (rng.gen_range(5) << 10);
        let model_bytes = TENSORS as u64 * tensor_bytes;
        let cfg = DaemonConfig {
            dedup: Some(DedupConfig::default()),
            space_low_watermark: 36 * MIB,
            space_high_watermark: 36 * MIB + 1,
            ..DaemonConfig::default()
        };
        let world = World::new(
            72 * MIB,
            4 * (TUNES as u64 + 1) * model_bytes,
            cfg,
            &["finetune"],
        )?;
        let content_seed = rng.next_u64();
        let mut s = Finetune {
            world,
            rng,
            content_seed,
            tensor_bytes,
            base: "ft/base".to_string(),
            tunes: Vec::new(),
            round: 0,
            next_tune: 0,
        };
        let base = s.base.clone();
        s.register(&base, l)?;
        for j in 0..TUNES as u64 {
            let steps = TUNE_STEPS / TUNES as u64 * (j + 1) - s.rng.gen_range(3);
            s.spawn_tune(steps, l)?;
        }
        for _ in 0..FULL_EVERY {
            s.round(l);
        }
        Ok(s)
    }

    /// Registers `name` with base-identical content and a restore
    /// target, and checkpoints it in full into both slots, so the two
    /// plain regions registration allocated become shared extents.
    fn register(&mut self, name: &str, l: &mut Ledger) -> BenchResult<()> {
        let spec = spec(name, self.tensor_bytes);
        let inst = self.world.materialize(&spec, self.content_seed)?;
        let target = self.world.materialize(&spec, self.content_seed ^ 1)?;
        if !self.world.register(0, inst, Some(target), l) {
            return Err(format!("register {name}: {:?}", l.errors.last()).into());
        }
        self.world.checkpoint(name, l);
        self.world.checkpoint(name, l);
        Ok(())
    }

    fn spawn_tune(&mut self, steps: u64, l: &mut Ledger) -> BenchResult<()> {
        let name = format!("ft/tune-{:05}", self.next_tune);
        self.next_tune += 1;
        self.register(&name, l)?;
        self.tunes.push(Tune {
            name,
            born: self.round,
            steps,
            completed: None,
        });
        Ok(())
    }

    fn step(&mut self, name: &str, age: u64, l: &mut Ledger) {
        let touched = pick_distinct(&mut self.rng, TENSORS, TOUCHED_PER_STEP);
        self.world.train_sparse(name, &touched, l);
        if age.is_multiple_of(FULL_EVERY) {
            self.world.checkpoint(name, l);
        } else {
            self.world.delta(name, l);
        }
    }
}

impl Workload for Finetune {
    fn round(&mut self, l: &mut Ledger) {
        self.round += 1;
        let base = self.base.clone();
        self.step(&base, self.round, l);
        let mut i = 0;
        while i < self.tunes.len() {
            let age = self.round - self.tunes[i].born;
            let name = self.tunes[i].name.clone();
            match self.tunes[i].completed {
                // Registered (and fully checkpointed) this round.
                None if age == 0 => {}
                None if age <= self.tunes[i].steps => self.step(&name, age, l),
                None => {
                    l.attempted += 1;
                    match self.world.conns[0].client.mark_complete(&name) {
                        Ok(()) => self.tunes[i].completed = Some(self.round),
                        Err(e) => l.fail(format!("mark_complete {name}: {e}")),
                    }
                }
                Some(done) if self.round - done >= LINGER => {
                    self.world.drop_model(&name, l);
                    self.tunes.remove(i);
                    if let Err(e) = self.spawn_tune(TUNE_STEPS, l) {
                        l.attempted += 1;
                        l.fail(format!("spawn fine-tune: {e}"));
                    }
                    continue;
                }
                Some(_) => {}
            }
            i += 1;
        }
        // One verified restore per round, round-robin over the models.
        let names: Vec<String> = self.world.models.keys().cloned().collect();
        let pick = &names[(self.round as usize) % names.len()];
        self.world.restore(pick, l);
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn into_world(self: Box<Self>) -> World {
        self.world
    }

    fn layout(&self) -> Vec<u64> {
        vec![self.tensor_bytes; TENSORS]
    }

    fn name_stream(&self) -> Vec<String> {
        Vec::new()
    }
}
