//! `storm`: two tenants on one daemon with four QPs per connection
//! (the striped datapath), priority restore, one dispatch worker, and a
//! token bucket on the storm tenant.
//!
//! Tenant `storm` keeps [`STORM_MODELS`] models of about
//! [`STORM_TENSORS`] 2 KiB tensors (each model's count is seed-picked
//! within ±64) checkpointing through `checkpoint_async` /
//! `wait_checkpoint`. Each round queues one checkpoint per storm model,
//! waits until the dispatch queue holds the storm, then tenant `victim`
//! restores its 16 MiB model [`RESTORES`] times, verifying each, and
//! finally the storm is drained. Per-tensor and per-WQE work dominates
//! while bytes are small, and the restores wait behind whichever
//! checkpoint the single worker is running.

use std::time::{Duration, Instant};

use portus::{DaemonConfig, TenantQos};
use portus_dnn::{DType, ModelSpec, TensorMeta};
use portus_sim::SimRng;

use super::Workload;
use crate::world::{BenchResult, Ledger, World};

/// Odd, so the median checkpoint sits in the middle of the queue
/// rather than on the edge between two queue positions.
const STORM_MODELS: usize = 5;
const STORM_TENSORS: usize = 4096;
const STORM_TENSOR_BYTES: u64 = 2048;
const RESTORES: usize = 3;
const VICTIM: &str = "victim/resnet-mid";
const MIB: u64 = 1 << 20;
/// Synchronous re-sends allowed to a throttled storm checkpoint.
const THROTTLE_RETRIES: u64 = 8;

pub struct Storm {
    world: World,
    storm: Vec<String>,
    storm_spec: ModelSpec,
}

fn flat_spec(name: &str, tensors: usize, bytes: u64) -> ModelSpec {
    let metas = (0..tensors)
        .map(|i| TensorMeta::new(format!("{name}.t{i}"), DType::F32, vec![bytes / 4]))
        .collect();
    ModelSpec::new(name, metas)
}

impl Storm {
    pub fn setup(seed: u64, l: &mut Ledger) -> BenchResult<Storm> {
        let mut rng = SimRng::new(seed).fork(2);
        let mut cfg = DaemonConfig {
            dispatch_workers: 1,
            qps_per_connection: 4,
            priority_restore: true,
            ..DaemonConfig::default()
        };
        // The storm's offered load runs well above this budget for part
        // of each round, so the bucket throttles and retries show up.
        cfg.qos.tenants.insert(
            "storm".to_string(),
            TenantQos {
                bytes_per_sec: 480 * MIB,
                burst_bytes: 48 * MIB,
                ..TenantQos::default()
            },
        );
        let storm_bytes = STORM_TENSORS as u64 * STORM_TENSOR_BYTES;
        let victim_spec = flat_spec(VICTIM, 64, 256 << 10);
        let dev = 2 * (STORM_MODELS as u64 * storm_bytes + victim_spec.total_bytes()) + 64 * MIB;
        let mut world = World::new(dev, 1 << 30, cfg, &["storm", "victim"])?;
        world.conns[0].client.set_throttle_retries(THROTTLE_RETRIES);

        let mut storm = Vec::new();
        let mut storm_spec = None;
        for i in 0..STORM_MODELS {
            let name = format!("storm/shard-{i}");
            let tensors = STORM_TENSORS - 64 + rng.gen_range(129) as usize;
            let spec = flat_spec(&name, tensors, STORM_TENSOR_BYTES);
            let inst = world.materialize(&spec, rng.next_u64())?;
            world.register(0, inst, None, l);
            storm.push(name);
            storm_spec.get_or_insert(spec);
        }
        let inst = world.materialize(&victim_spec, rng.next_u64())?;
        let target = world.materialize(&victim_spec, rng.next_u64())?;
        world.register(1, inst, Some(target), l);
        world.checkpoint(VICTIM, l);
        let mut s = Storm {
            world,
            storm,
            storm_spec: storm_spec.expect("at least one storm model"),
        };
        // Warm-up: two storm rounds fill both slots of every model.
        s.round(l);
        s.round(l);
        Ok(s)
    }
}

impl Workload for Storm {
    fn round(&mut self, l: &mut Ledger) {
        let w = &mut self.world;
        let throttled = |w: &World| {
            w.ctx
                .metrics
                .snapshot()
                .tenant("storm")
                .map_or(0, |t| t.throttled_ops)
        };
        let throttled0 = throttled(w);
        let mut sent = Vec::with_capacity(self.storm.len());
        for name in &self.storm {
            w.train(name, l);
            if let Some(p) = w.checkpoint_async(name, l) {
                sent.push((name.clone(), p));
            }
        }
        // Restores must meet a loaded queue: wait (bounded, in host
        // time) until the connection thread has queued or throttled the
        // storm behind the checkpoint the single worker runs. Reading
        // the shared metrics charges no virtual time, unlike a stats
        // request would.
        let gate = sent.len().saturating_sub(2) as u64;
        let deadline = Instant::now() + Duration::from_millis(200);
        while w.ctx.metrics.snapshot().dispatch_queue_depth + throttled(w) - throttled0 < gate
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        for _ in 0..RESTORES {
            w.restore(VICTIM, l);
        }
        for (name, p) in sent {
            w.wait_checkpoint(&name, p, l);
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn into_world(self: Box<Self>) -> World {
        self.world
    }

    fn layout(&self) -> Vec<u64> {
        self.storm_spec
            .tensors
            .iter()
            .map(TensorMeta::size_bytes)
            .collect()
    }

    fn name_stream(&self) -> Vec<String> {
        Vec::new()
    }
}
