//! The benchmark's fixture: one daemon on a simulated fabric, its client
//! connections and the models they drive, plus the ledger every timed
//! client call writes into.
//!
//! All program calls go through public APIs. Each client call is timed
//! on both clocks: the shared virtual clock (what the cost model says
//! the call costs) and the host clock (what simulating it costs).

use std::collections::BTreeMap;
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

use portus::{DaemonConfig, PendingCheckpoint, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{Materialization, ModelInstance, ModelSpec};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, Nic, NodeId};
use portus_sim::{SimContext, SimDuration};

/// Boxed error for set-up paths (a set-up failure aborts the run).
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// The node the daemon runs on; clients take the other node ids.
pub const DAEMON_NODE: NodeId = NodeId(1);

/// What a version was acknowledged with: restores of that version must
/// reproduce this checksum bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Version number the daemon returned.
    pub version: u64,
    /// [`ModelInstance::model_checksum`] of the state it captured.
    pub checksum: u64,
}

/// An asynchronous checkpoint on the wire.
pub struct InFlight {
    pending: PendingCheckpoint,
    /// Checksum of the state it captures.
    checksum: u64,
    /// Virtual instant it was sent.
    sent_vns: u64,
}

/// A model the generator drives.
pub struct Model {
    /// Index into [`World::conns`].
    pub conn: usize,
    /// The training instance (checkpoint source).
    pub inst: ModelInstance,
    /// A second instance of the same spec that restores land in; `None`
    /// restores into `inst` itself.
    pub target: Option<ModelInstance>,
    /// The latest acknowledged version.
    pub acked: Option<Ack>,
}

/// One client connection and the tenant it speaks for.
pub struct Conn {
    /// The compute node's NIC.
    pub nic: Arc<Nic>,
    /// Tenant identity.
    pub tenant: String,
    /// The connection.
    pub client: PortusClient,
}

/// Host time and call count of one benchmark-side span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostAcc {
    /// Summed host time.
    pub total: Duration,
    /// Calls.
    pub calls: u64,
}

impl HostAcc {
    /// Mean host time per call in `unit` seconds (1e3 = ms, 1e6 = µs).
    pub fn mean(&self, unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * unit / self.calls as f64
        }
    }
}

/// Everything one timed phase records.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Client-visible virtual ns of each checkpoint (full or delta).
    pub ckpt_vns: Vec<u64>,
    /// Client-visible virtual ns of each restore, MR registration
    /// included.
    pub restore_vns: Vec<u64>,
    /// Logical bytes of the versions checkpointed.
    pub ckpt_bytes: u64,
    /// Bytes restored.
    pub restore_bytes: u64,
    /// Completed client operations (checkpoint, delta, restore,
    /// register, drop).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Errors and sheds surfaced after retries, plus verification
    /// mismatches.
    pub failed: u64,
    /// Asynchronous checkpoints the daemon throttled (each is then
    /// retried synchronously).
    pub throttle_retries: u64,
    /// Benchmark-side host spans by name.
    pub host: BTreeMap<&'static str, HostAcc>,
    /// While set, every host span is also kept individually, as
    /// `(name, start, end)` in ns since this instant.
    pub span_epoch: Option<Instant>,
    /// The individually kept host spans.
    pub host_spans: Vec<(&'static str, u64, u64)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Adds one host span that began at `start` and ends now.
    pub fn host(&mut self, name: &'static str, start: Instant) {
        let end = Instant::now();
        let acc = self.host.entry(name).or_default();
        acc.total += end - start;
        acc.calls += 1;
        if let Some(epoch) = self.span_epoch {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            self.host_spans.push((name, ns(start), ns(end)));
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// A daemon, its device, the clients and their models.
pub struct World {
    /// The shared simulation context.
    pub ctx: SimContext,
    /// The fabric every NIC hangs off.
    pub fabric: Fabric,
    /// The daemon's PMem namespace.
    pub dev: Arc<PmemDevice>,
    /// The daemon's configuration (reused on recovery).
    pub cfg: DaemonConfig,
    /// The daemon.
    pub daemon: Arc<PortusDaemon>,
    /// The compute node's GPU.
    pub gpu: Arc<GpuDevice>,
    /// Client connections.
    pub conns: Vec<Conn>,
    /// Models by name (ordered, so iteration is reproducible).
    pub models: BTreeMap<String, Model>,
}

impl World {
    /// Starts a daemon over a fresh `dev_bytes` namespace and connects
    /// one client per tenant, each from its own compute node.
    pub fn new(
        dev_bytes: u64,
        gpu_bytes: u64,
        cfg: DaemonConfig,
        tenants: &[&str],
    ) -> BenchResult<World> {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        fabric.add_nic(DAEMON_NODE);
        let dev = PmemDevice::new(ctx.clone(), PmemMode::DevDax, dev_bytes);
        let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, Arc::clone(&dev), cfg.clone())?;
        let gpu = GpuDevice::new(ctx.clone(), 0, gpu_bytes);
        let conns = tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| {
                // Node 1 is the daemon's; clients take 0, 2, 3, ...
                let node = if i == 0 { 0 } else { i as u32 + 1 };
                let nic = fabric.add_nic(NodeId(node));
                let client = PortusClient::connect_as(&daemon, Arc::clone(&nic), tenant);
                Conn {
                    nic,
                    tenant: tenant.to_string(),
                    client,
                }
            })
            .collect();
        Ok(World {
            ctx,
            fabric,
            dev,
            cfg,
            daemon,
            gpu,
            conns,
            models: BTreeMap::new(),
        })
    }

    /// Current virtual instant in ns.
    pub fn vnow(&self) -> u64 {
        self.ctx.clock.now().as_nanos()
    }

    /// Materializes an owned instance of `spec` from `seed`.
    pub fn materialize(&self, spec: &ModelSpec, seed: u64) -> BenchResult<ModelInstance> {
        Ok(ModelInstance::materialize(
            spec,
            &self.gpu,
            seed,
            Materialization::Owned,
        )?)
    }

    fn model(&self, name: &str) -> &Model {
        self.models
            .get(name)
            .expect("the generator only names live models")
    }

    fn client_of(&self, name: &str) -> &PortusClient {
        &self.conns[self.model(name).conn].client
    }

    /// Registers `inst` on connection `conn` and starts tracking it.
    /// Returns whether the daemon accepted it.
    pub fn register(
        &mut self,
        conn: usize,
        inst: ModelInstance,
        target: Option<ModelInstance>,
        l: &mut Ledger,
    ) -> bool {
        let name = inst.spec().name.clone();
        l.attempted += 1;
        let h = Instant::now();
        let r = self.conns[conn].client.register_model(&inst);
        l.host("client.register", h);
        match r {
            Ok(()) => {
                l.ops += 1;
                self.models.insert(
                    name,
                    Model {
                        conn,
                        inst,
                        target,
                        acked: None,
                    },
                );
                true
            }
            Err(e) => {
                l.fail(format!("register {name}: {e}"));
                false
            }
        }
    }

    /// Drops `name` from the daemon and stops tracking it. Its GPU
    /// memory is released.
    pub fn drop_model(&mut self, name: &str, l: &mut Ledger) {
        l.attempted += 1;
        let h = Instant::now();
        let r = self.client_of(name).drop_model(name);
        l.host("client.drop", h);
        match r {
            Ok(()) => {
                l.ops += 1;
                if let Some(m) = self.models.remove(name) {
                    m.inst.release(&self.gpu);
                    if let Some(t) = &m.target {
                        t.release(&self.gpu);
                    }
                }
            }
            Err(e) => l.fail(format!("drop {name}: {e}")),
        }
    }

    /// One dense training step of `name`.
    pub fn train(&mut self, name: &str, l: &mut Ledger) {
        let h = Instant::now();
        self.models
            .get_mut(name)
            .expect("live model")
            .inst
            .train_step();
        l.host("dnn.train_step", h);
    }

    /// One sparse training step of `name` touching `touched`.
    pub fn train_sparse(&mut self, name: &str, touched: &[usize], l: &mut Ledger) {
        let h = Instant::now();
        self.models
            .get_mut(name)
            .expect("live model")
            .inst
            .train_step_sparse(touched);
        l.host("dnn.train_step", h);
    }

    /// Checksum of `name`'s training instance (the state a checkpoint
    /// sent now would capture).
    fn source_checksum(&self, name: &str, l: &mut Ledger) -> u64 {
        let h = Instant::now();
        let sum = self.model(name).inst.model_checksum();
        l.host("dnn.verify", h);
        sum
    }

    fn acked(&mut self, name: &str, version: u64, checksum: u64) {
        let m = self.models.get_mut(name).expect("live model");
        m.acked = Some(Ack { version, checksum });
        m.inst.take_dirty();
    }

    /// Synchronous full checkpoint of `name`. Returns whether it was
    /// acknowledged.
    pub fn checkpoint(&mut self, name: &str, l: &mut Ledger) -> bool {
        let checksum = self.source_checksum(name, l);
        l.attempted += 1;
        let v0 = self.vnow();
        let h = Instant::now();
        let r = self.client_of(name).checkpoint(name);
        l.host("client.ckpt", h);
        let v1 = self.vnow();
        match r {
            Ok(rep) => {
                l.ops += 1;
                l.ckpt_vns.push(v1 - v0);
                l.ckpt_bytes += rep.bytes;
                self.acked(name, rep.version, checksum);
                true
            }
            Err(e) => {
                l.fail(format!("checkpoint {name}: {e}"));
                false
            }
        }
    }

    /// Incremental checkpoint of `name` with its current dirty mask.
    pub fn delta(&mut self, name: &str, l: &mut Ledger) -> bool {
        let checksum = self.source_checksum(name, l);
        let (dirty, logical) = {
            let m = self.model(name);
            (m.inst.dirty().to_vec(), m.inst.spec().total_bytes())
        };
        l.attempted += 1;
        let v0 = self.vnow();
        let h = Instant::now();
        let r = self.client_of(name).checkpoint_delta(name, &dirty);
        l.host("client.delta", h);
        let v1 = self.vnow();
        match r {
            Ok(rep) => {
                l.ops += 1;
                l.ckpt_vns.push(v1 - v0);
                l.ckpt_bytes += logical;
                self.acked(name, rep.version, checksum);
                true
            }
            Err(e) => {
                l.fail(format!("delta {name}: {e}"));
                false
            }
        }
    }

    /// Sends an asynchronous checkpoint of `name`.
    pub fn checkpoint_async(&mut self, name: &str, l: &mut Ledger) -> Option<InFlight> {
        let checksum = self.source_checksum(name, l);
        let v0 = self.vnow();
        let h = Instant::now();
        let r = self.client_of(name).checkpoint_async(name);
        l.host("client.ckpt", h);
        match r {
            Ok(pending) => Some(InFlight {
                pending,
                checksum,
                sent_vns: v0,
            }),
            Err(e) => {
                l.attempted += 1;
                l.fail(format!("checkpoint_async {name}: {e}"));
                None
            }
        }
    }

    /// Waits for an asynchronous checkpoint. A throttled one is retried
    /// with a synchronous checkpoint after waiting out the hint, the
    /// client honouring as many further hints as its
    /// `set_throttle_retries` budget allows; only a shed that outlasts
    /// them counts as a failure.
    pub fn wait_checkpoint(&mut self, name: &str, sent: InFlight, l: &mut Ledger) {
        let InFlight {
            pending,
            checksum,
            sent_vns: v0,
        } = sent;
        l.attempted += 1;
        let h = Instant::now();
        let client = self.client_of(name);
        let r = match client.wait_checkpoint(name, pending) {
            Err(PortusError::Throttled { retry_after_ns }) => {
                l.throttle_retries += 1;
                client
                    .ctx()
                    .clock
                    .advance_by(SimDuration::from_nanos(retry_after_ns));
                client.checkpoint(name)
            }
            other => other,
        };
        l.host("client.ckpt", h);
        let v1 = self.vnow();
        match r {
            Ok(rep) => {
                l.ops += 1;
                l.ckpt_vns.push(v1 - v0);
                l.ckpt_bytes += rep.bytes;
                self.acked(name, rep.version, checksum);
            }
            Err(e) => l.fail(format!("checkpoint {name}: {e}")),
        }
    }

    /// Restores the latest version of `name` and verifies it against
    /// the acknowledged checksum and version.
    pub fn restore(&mut self, name: &str, l: &mut Ledger) {
        let Some(ack) = self.model(name).acked else {
            return;
        };
        // Perturb the destination first, so a restore that moved no
        // bytes cannot pass verification.
        let h = Instant::now();
        let m = self.models.get_mut(name).expect("live model");
        m.target
            .as_mut()
            .unwrap_or(&mut m.inst)
            .train_step_sparse(&[0]);
        l.host("dnn.train_step", h);
        l.attempted += 1;
        let v0 = self.vnow();
        let h = Instant::now();
        let m = self.model(name);
        let into = m.target.as_ref().unwrap_or(&m.inst);
        let r = self.conns[m.conn].client.restore(into);
        l.host("client.restore", h);
        let v1 = self.vnow();
        match r {
            Ok(rep) => {
                l.ops += 1;
                l.restore_vns.push(v1 - v0);
                l.restore_bytes += rep.bytes;
                let h = Instant::now();
                let m = self.model(name);
                let got = m.target.as_ref().unwrap_or(&m.inst).model_checksum();
                l.host("dnn.verify", h);
                if got != ack.checksum || rep.version != ack.version {
                    l.fail(format!(
                        "restore {name}: v{} checksum {got:#x}, acknowledged v{} {:#x}",
                        rep.version, ack.version, ack.checksum
                    ));
                }
            }
            Err(e) => l.fail(format!("restore {name}: {e}")),
        }
    }

    /// PMem bytes the daemon's allocator holds per logical byte of
    /// every model's latest acknowledged version. Reads the allocator
    /// directly, which charges no virtual time.
    pub fn stored_per_logical(&self) -> f64 {
        let logical: u64 = self
            .models
            .values()
            .filter(|m| m.acked.is_some())
            .map(|m| m.inst.spec().total_bytes())
            .sum();
        let used = self.daemon.index().allocator().used_bytes();
        if logical == 0 {
            0.0
        } else {
            used as f64 / logical as f64
        }
    }

    /// Disconnects every client and stops the daemon, keeping models.
    fn stop_daemon(&mut self) {
        for c in self.conns.drain(..) {
            drop(c.client);
        }
        self.daemon.shutdown();
    }

    /// Stops the daemon and its clients for good.
    pub fn shutdown(mut self) {
        self.stop_daemon();
    }
}

/// Outcome of the post-crash durability check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Durability {
    /// Host seconds [`PortusDaemon::recover`] took.
    pub recover_host_s: f64,
    /// Models restored and compared.
    pub checked: u64,
    /// Restores that failed or did not reproduce the acknowledged
    /// state.
    pub failed: u64,
}

/// Power-fails the device with [`CrashSpec::LoseAll`], recovers the
/// daemon from PMem alone, and restores every model's latest
/// acknowledged version, comparing it bit for bit. Each restore first
/// perturbs its target so a restore that moves no bytes cannot pass.
pub fn durability_gate(mut w: World, l: &mut Ledger) -> BenchResult<Durability> {
    let tenants: Vec<(Arc<Nic>, String)> = w
        .conns
        .iter()
        .map(|c| (Arc::clone(&c.nic), c.tenant.clone()))
        .collect();
    w.stop_daemon();
    w.dev.crash(CrashSpec::LoseAll);
    let h = Instant::now();
    w.daemon = PortusDaemon::recover(&w.fabric, DAEMON_NODE, Arc::clone(&w.dev), w.cfg.clone())?;
    let recover_host_s = h.elapsed().as_secs_f64();
    for (nic, tenant) in tenants {
        let client = PortusClient::connect_as(&w.daemon, Arc::clone(&nic), &tenant);
        w.conns.push(Conn {
            nic,
            tenant,
            client,
        });
    }
    let mut out = Durability {
        recover_host_s,
        ..Durability::default()
    };
    let names: Vec<String> = w
        .models
        .iter()
        .filter(|(_, m)| m.acked.is_some())
        .map(|(n, _)| n.clone())
        .collect();
    for name in names {
        let m = w.models.get_mut(&name).expect("listed above");
        let ack = m.acked.expect("filtered on acked");
        m.target
            .as_mut()
            .unwrap_or(&mut m.inst)
            .train_step_sparse(&[0]);
        let into = m.target.as_ref().unwrap_or(&m.inst);
        out.checked += 1;
        l.attempted += 1;
        match w.conns[m.conn].client.restore(into) {
            Ok(rep) if rep.version == ack.version && into.model_checksum() == ack.checksum => {}
            Ok(rep) => {
                out.failed += 1;
                l.fail(format!(
                    "post-crash restore {name}: got v{}, acknowledged v{}",
                    rep.version, ack.version
                ));
            }
            Err(e) => {
                out.failed += 1;
                l.fail(format!("post-crash restore {name}: {e}"));
            }
        }
    }
    w.shutdown();
    Ok(out)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
