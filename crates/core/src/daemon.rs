//! Portus Daemon: the user-space storage server.
//!
//! Owns a devdax PMem namespace, maintains the three-level index, and
//! serves client connections. Each accepted connection gets a
//! receive-and-dispatch thread; the actual request handling runs on a
//! bounded shared worker pool (the paper's ThreadPool serves
//! *requests*, not connections), so one client's in-flight checkpoint
//! of model A no longer serializes behind its checkpoint of model B.
//! Replies carry the request id and the client demultiplexes them, so
//! out-of-order completion is fine.
//!
//! The datapath itself is **posted**, not blocking: the daemon builds
//! one work-queue entry per run of up to [`portus_rdma::MAX_SGE`]
//! tensors that are contiguous in the slot's TensorData region
//! (`rel_off`-adjacent), posts every WQE of the operation in one
//! doorbell batch through a [`portus_rdma::PostedQueuePair`], then
//! drains the completion queue, mapping any error back to the tensors
//! of its run:
//!
//! * checkpoint — the daemon **reads** every dirty tensor out of the
//!   client's GPU memory straight into the slot's TensorData region on
//!   PMem (a full checkpoint marks every tensor dirty; an incremental
//!   one carries the clean ones over on device), then flushes,
//!   checksums, and flips the slot to `Done`;
//! * restore — the daemon **writes** the latest `Done` version back into
//!   freshly registered GPU regions.
//!
//! The remote CPU never participates in the data movement and no kernel
//! boundary is crossed — the structural claim the integration tests
//! assert via the datapath counters.
//!
//! Datapath errors are recovered per-WQE: failed work requests are
//! re-posted for up to [`DaemonConfig::verb_retries`] rounds (each
//! round charging an exponentially growing backoff to the virtual
//! clock); if any stay failed, the target slot is rolled back to its
//! pre-call header — or collapsed to `Empty` when partial data
//! clobbered a previously complete version — and the client receives a
//! typed [`PortusError::DatapathFailed`] with per-tensor attribution.
//! The model's previous `Done` version is never touched, so restore
//! keeps working after any failed checkpoint.
//!
//! Multi-tenant QoS (see [`crate::qos`]) sits in front of all of this:
//! each connection carries a tenant identity
//! ([`PortusDaemon::accept_as`]), checkpoint traffic passes per-tenant
//! token buckets before it may queue (over budget → typed
//! [`Reply::Throttled`] with a `retry_after` hint), the dispatch pool
//! runs two classes so restores overtake queued checkpoints, and the
//! striped datapath confines concurrent tenants to weighted-fair lane
//! shares.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use portus_pmem::{PmemDevice, PmemError};
use portus_rdma::{
    CompletionQueue, ControlChannel, Fabric, Nic, NodeId, PostedQueuePair, QueuePair, RdmaError,
    RegionTarget, SgEntry, WrId, MAX_SGE,
};
use portus_sim::{Metrics, Resource, SimContext, SimDuration, SimTime, SpanRecord, Stage, TraceOp};

use crate::proto::{ModelSummary, Reply, Request, TensorDesc};
use crate::qos::{QosConfig, QosState, TenantCtx};
use crate::{
    Index, MIndex, PortusError, PortusResult, SlotHeader, SlotState, TensorRecord, VerbFailure,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// ModelTable capacity (max concurrent models/shards).
    pub table_capacity: u32,
    /// AllocTable slots.
    pub alloc_slots: u32,
    /// DRAM-fallback mode (paper §IV-a): "upon the absence of PMEM ...
    /// Portus can use DRAM as alternatives". Persistence calls are
    /// skipped; a power failure loses everything, as DRAM would.
    pub dram_fallback: bool,
    /// Size of the shared request-dispatch worker pool. Requests from
    /// all connections are handled by this pool, so up to
    /// `dispatch_workers` requests make progress concurrently.
    pub dispatch_workers: usize,
    /// Bound of the dispatch queue's **normal class** (checkpoint
    /// traffic): at most this many requests wait for a worker. Once
    /// full, a further checkpoint dispatch waits up to 500 ms of host
    /// time (`SHED_WAIT`) for space and is then **shed** with
    /// a typed [`Reply::Throttled`] — overload is surfaced to the
    /// client instead of silently blocking the connection thread.
    /// Restores and control-plane requests ride the urgent class and
    /// are never shed. Current depth, high-water mark, and this
    /// capacity are exported as gauges on [`portus_sim::Metrics`].
    pub dispatch_queue_depth: usize,
    /// How many rounds a failed datapath WQE is re-posted before the
    /// operation is declared failed and the target slot rolled back.
    /// Each round charges an exponentially growing backoff to the
    /// virtual clock ([`portus_sim::CostModel::verb_retry_backoff`]).
    /// `0` means a single error is immediately terminal.
    pub verb_retries: u32,
    /// Low free-byte watermark: when free PMem drops below this after a
    /// request, the dispatch worker runs a repack pass *inline* before
    /// picking up more work (synchronous backpressure). `0` disables.
    pub space_low_watermark: u64,
    /// High free-byte watermark: when free PMem drops below this after
    /// a request (but stays above the low watermark), the background
    /// repacker thread is woken to compact concurrently with traffic.
    /// `0` disables background compaction entirely.
    pub space_high_watermark: u64,
    /// Queue pairs opened per client connection (clamped to at least
    /// one). With more than one, each datapath operation **stripes**
    /// its doorbell batch across the pool — every QP is pinned to its
    /// own NIC DMA-engine lane ([`portus_rdma::QueuePair::connect_lane`]),
    /// so runs on different QPs transfer in parallel up to the NICs'
    /// engine counts, and completed runs flow into a pipelined
    /// persist+checksum stage while later WQEs are still in flight.
    /// `1` keeps the classic single-QP posting path, and the seal takes
    /// the whole region as one piece: bit-for-bit the pre-striping
    /// virtual times.
    pub qps_per_connection: usize,
    /// Multi-tenant QoS policy: per-tenant token buckets (admission)
    /// and lane weights (weighted-fair striping). The default is
    /// policy-free — unlimited buckets, equal weights — and leaves the
    /// daemon's behaviour exactly as it was before QoS existed.
    pub qos: QosConfig,
    /// Route restores onto the dispatch pool's **urgent class**: they
    /// bypass the token buckets and jump ahead of every queued
    /// checkpoint, keeping restore latency flat through a checkpoint
    /// storm. Disabled, restores queue behind checkpoints in the
    /// bounded normal class (but are still never shed).
    pub priority_restore: bool,
    /// Content-addressed deduplication (ROADMAP item 5). `None` (the
    /// default) keeps every checkpoint a plain contiguous region —
    /// bit-for-bit the pre-dedup daemon. `Some` formats (or recovers)
    /// an extent table on the namespace and converts each sealed
    /// checkpoint into an extent map of content-addressed chunks, so
    /// fine-tunes sharing a base model share physical extents.
    pub dedup: Option<crate::DedupConfig>,
    /// Paged on-PMem model catalog with a learned root (ROADMAP item
    /// 3). `None` (the default) keeps name resolution on the unbounded
    /// DRAM name map — bit-for-bit the pre-catalog daemon.
    /// `Some` formats (or recovers) the catalog on the namespace,
    /// routes every name lookup through it (one bounded page probe
    /// under a clamped DRAM page cache), and leaves the name map
    /// empty, so daemon DRAM stays O(cache) no matter how many models
    /// the namespace holds.
    pub catalog: Option<crate::CatalogConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            table_capacity: 1024,
            alloc_slots: 8192,
            dram_fallback: false,
            dispatch_workers: 4,
            dispatch_queue_depth: 64,
            verb_retries: 3,
            space_low_watermark: 0,
            space_high_watermark: 0,
            qps_per_connection: 1,
            qos: QosConfig::default(),
            priority_restore: true,
            dedup: None,
            catalog: None,
        }
    }
}

/// How long (host wall clock — queueing charges no virtual time) a
/// checkpoint dispatch may wait for space on a full normal queue before
/// it is shed with [`Reply::Throttled`]. Generous, so a briefly-full
/// queue still backpressures rather than shedding.
const SHED_WAIT: Duration = Duration::from_millis(500);

/// The `retry_after` hint carried by a queue-shed [`Reply::Throttled`]
/// (virtual time; admission sheds compute the token bucket's exact
/// deficit instead).
const SHED_RETRY_AFTER: SimDuration = SimDuration::from_millis(1);

/// A unit of work handed to the dispatch pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Which of the dispatch pool's two classes a job rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobClass {
    /// Restores (when [`DaemonConfig::priority_restore`] is on) and all
    /// control-plane requests: unbounded, drained before any normal
    /// job, never shed.
    Urgent,
    /// Checkpoint traffic (and restores with priority disabled):
    /// bounded by [`DaemonConfig::dispatch_queue_depth`].
    Normal,
}

/// What became of a dispatched job. The shed and closed variants hand
/// the job back so the caller can reply `Throttled` or run it inline.
enum DispatchOutcome {
    /// Queued; a worker will run it.
    Queued,
    /// The normal queue stayed full past the shed wait.
    Shed(Job),
    /// The pool is draining (shutdown raced a late request).
    Closed(Job),
}

/// The two-class dispatch queue, guarded by one mutex.
struct QueueInner {
    urgent: VecDeque<Job>,
    normal: VecDeque<Job>,
    capacity: usize,
    closed: bool,
}

/// Bounded worker pool executing per-request jobs for all connections.
///
/// Two classes share the pool: an **urgent** queue (restores and
/// control plane — unbounded, drained first, never shed) and a
/// **normal** queue (checkpoints) holding at most `queue_depth` waiting
/// jobs. A full normal queue backpressures the dispatching connection
/// thread for a bounded wait, then **sheds** the job back to the caller
/// ([`DispatchOutcome::Shed`]) so overload turns into a typed
/// [`Reply::Throttled`] instead of an indefinitely blocked connection.
/// Queue depth and its high-water mark are exported as gauges on the
/// shared [`Metrics`].
struct Dispatcher {
    // std sync primitives here, not parking_lot: the producers need
    // condvar waits (with timeout) that the workspace's parking_lot
    // build does not provide.
    inner: StdMutex<QueueInner>,
    /// Signalled when a job is queued (workers wait on it).
    jobs_ready: StdCondvar,
    /// Signalled when a normal job is drained (producers wait on it).
    space_ready: StdCondvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Metrics,
}

impl Dispatcher {
    fn new(workers: usize, queue_depth: usize, metrics: Metrics) -> Arc<Dispatcher> {
        let depth = queue_depth.max(1);
        metrics.set_queue_capacity(depth as u64);
        let dispatcher = Arc::new(Dispatcher {
            inner: StdMutex::new(QueueInner {
                urgent: VecDeque::new(),
                normal: VecDeque::new(),
                capacity: depth,
                closed: false,
            }),
            jobs_ready: StdCondvar::new(),
            space_ready: StdCondvar::new(),
            handles: Mutex::new(Vec::new()),
            metrics,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let d = Arc::clone(&dispatcher);
                std::thread::spawn(move || d.worker_loop())
            })
            .collect();
        *dispatcher.handles.lock() = handles;
        dispatcher
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.lock_queue();
                loop {
                    // Urgent first — a queued restore overtakes every
                    // waiting checkpoint.
                    if let Some(job) = q.urgent.pop_front() {
                        break Some(job);
                    }
                    if let Some(job) = q.normal.pop_front() {
                        self.space_ready.notify_one();
                        break Some(job);
                    }
                    if q.closed {
                        break None;
                    }
                    q = self
                        .jobs_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => {
                    self.metrics.queue_exit();
                    job();
                }
                None => return,
            }
        }
    }

    /// Queues `job` on its class. Normal-class jobs wait for space on a
    /// full queue: up to `shed_wait` host-clock time when given (then
    /// [`DispatchOutcome::Shed`]), indefinitely when `None` (restores
    /// demoted to the normal class must never be shed). Queueing
    /// charges no virtual time either way.
    fn dispatch(&self, job: Job, class: JobClass, shed_wait: Option<Duration>) -> DispatchOutcome {
        let mut q = self.lock_queue();
        if class == JobClass::Normal {
            match shed_wait {
                Some(wait) => {
                    let deadline = Instant::now() + wait;
                    while q.normal.len() >= q.capacity && !q.closed {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return DispatchOutcome::Shed(job);
                        }
                        q = self
                            .space_ready
                            .wait_timeout(q, remaining)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
                None => {
                    while q.normal.len() >= q.capacity && !q.closed {
                        q = self
                            .space_ready
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        if q.closed {
            return DispatchOutcome::Closed(job);
        }
        match class {
            JobClass::Urgent => q.urgent.push_back(job),
            JobClass::Normal => q.normal.push_back(job),
        }
        self.metrics.queue_enter();
        self.jobs_ready.notify_one();
        DispatchOutcome::Queued
    }

    fn shutdown(&self) {
        {
            let mut q = self.lock_queue();
            q.closed = true;
        }
        // Workers drain whatever is already queued, then exit; blocked
        // producers wake and fall back to inline execution.
        self.jobs_ready.notify_all();
        self.space_ready.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The endpoints handed to a connecting client.
#[derive(Debug)]
pub struct ClientEndpoints {
    /// Request channel (client end).
    pub requests: ControlChannel<Request>,
    /// Reply channel (client end).
    pub replies: ControlChannel<Reply>,
    /// The client's queue pair (its NIC is the local end).
    pub qp: QueuePair,
    /// Client ends of the extra striped queue pairs (lanes `1..N` when
    /// [`DaemonConfig::qps_per_connection`] is above one). The client
    /// never initiates verbs on them — the daemon's one-sided datapath
    /// does — but dropping an end disconnects the pair, so the client
    /// keeps them alive for the life of the connection.
    pub extra_qps: Vec<QueuePair>,
}

/// The daemon-side queue pairs of one connection: one lane-pinned QP
/// per configured stripe. A pool of one is the classic datapath.
pub(crate) struct QpPool {
    qps: Vec<Arc<QueuePair>>,
}

impl QpPool {
    fn len(&self) -> usize {
        self.qps.len()
    }

    /// The lane-0 QP — the only one a single-QP connection has.
    fn primary(&self) -> &Arc<QueuePair> {
        &self.qps[0]
    }
}

pub(crate) struct DaemonState {
    pub(crate) ctx: SimContext,
    pub(crate) index: Index,
    /// The DRAM name map (model name → MIndex offset), empty when the
    /// catalog owns name resolution.
    pub(crate) map: Mutex<BTreeMap<String, u64>>,
    pub(crate) sessions: Mutex<HashMap<String, Vec<TensorDesc>>>,
    model_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    pub(crate) cfg: DaemonConfig,
    /// Admission buckets and the lane arbiter (built from `cfg.qos`).
    qos: QosState,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    /// The recovery-epoch gate for `Active`-slot reclaim: the
    /// `(mindex_offset, slot, version)` keys of every slot that was
    /// already `Active` when this daemon instance recovered its index.
    /// Those are crash debris — no thread of *this* process can be
    /// mid-pull into them — so an aggressive repack pass may reclaim
    /// them. An `Active` slot not in this set belongs to a live (or
    /// live-ish) checkpoint and is never touched, regardless of what
    /// the caller asked for.
    pub(crate) stale_active: Mutex<HashSet<(u64, usize, u64)>>,
    /// Monotonic repack-pass counter (span `req_id`s for
    /// [`TraceOp::Repack`]).
    repack_seq: AtomicU64,
    /// Wake-up channel of the background repacker thread (present only
    /// when `space_high_watermark > 0`); dropped on shutdown so the
    /// thread exits.
    repack_tx: Mutex<Option<Sender<()>>>,
}

/// The Portus storage daemon.
///
/// # Examples
///
/// See the crate-level documentation for an end-to-end
/// register → checkpoint → restore walkthrough.
pub struct PortusDaemon {
    state: Arc<DaemonState>,
    nic: Arc<Nic>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    dispatcher: Arc<Dispatcher>,
    repacker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for PortusDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortusDaemon")
            .field("node", &self.nic.node())
            .field("models", &self.model_count())
            .finish()
    }
}

impl PortusDaemon {
    /// Starts a daemon on `node` over a **freshly formatted** namespace.
    ///
    /// # Errors
    ///
    /// Formatting failures; [`PortusError::Rdma`] if `node` has no NIC.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        dev: Arc<PmemDevice>,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let index = Index::format(dev, cfg.table_capacity, cfg.alloc_slots)?;
        Self::with_index(fabric, node, index, BTreeMap::new(), cfg)
    }

    /// Starts a daemon over an **existing** namespace, rebuilding the
    /// name map from the persistent ModelTable (restart-after-crash).
    ///
    /// # Errors
    ///
    /// Recovery failures (bad superblock, corrupt structures).
    pub fn recover(
        fabric: &Fabric,
        node: NodeId,
        dev: Arc<PmemDevice>,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let (index, map) = Index::recover(dev)?;
        Self::with_index(fabric, node, index, map, cfg)
    }

    fn with_index(
        fabric: &Fabric,
        node: NodeId,
        index: Index,
        map: BTreeMap<String, u64>,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let nic = fabric.nic(node)?;
        // Dedup-configured daemons need the extent table on the
        // namespace before any request lands: format one on a fresh
        // device, recover the existing one after a restart.
        if let Some(d) = &cfg.dedup {
            index.enable_dedup(d.max_extents)?;
        }
        let dispatcher = Dispatcher::new(
            cfg.dispatch_workers,
            cfg.dispatch_queue_depth,
            fabric.ctx().metrics.clone(),
        );
        // The recovery epoch: any slot already `Active` at daemon start
        // is crash debris from a previous incarnation — no thread of
        // this process can be pulling into it. Only these slots are
        // eligible for aggressive (`reclaim_active`) repacking.
        let mut stale_active = HashSet::new();
        for &off in map.values() {
            let mi = index.load_mindex(off)?;
            for (s, hdr) in mi.slots.iter().enumerate() {
                if hdr.state == SlotState::Active {
                    stale_active.insert((mi.offset, s, hdr.version));
                }
            }
        }
        // Catalog-configured daemons resolve names on PMem: mount (or
        // format) the paged catalog, seed it from the recovered map if
        // the namespace predates it, then drop the DRAM mirror — the
        // whole point is that daemon DRAM no longer scales with the
        // model population. `stale_active` was already computed from
        // the map above, so crash debris is still fenced.
        let map = if let Some(c) = &cfg.catalog {
            index.enable_catalog(c)?;
            let cat = index.catalog().expect("enable_catalog mounts the catalog");
            if cat.is_empty() && !map.is_empty() {
                let live: Vec<(String, u64)> = map.into_iter().collect();
                cat.bulk_replace(index.allocator(), &live)?;
            }
            BTreeMap::new()
        } else {
            map
        };
        let high_watermark = cfg.space_high_watermark;
        let qos = QosState::new(cfg.qos.clone());
        let state = Arc::new(DaemonState {
            ctx: fabric.ctx().clone(),
            index,
            map: Mutex::new(map),
            sessions: Mutex::new(HashMap::new()),
            model_locks: Mutex::new(HashMap::new()),
            cfg,
            qos,
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            stale_active: Mutex::new(stale_active),
            repack_seq: AtomicU64::new(0),
            repack_tx: Mutex::new(None),
        });
        state.refresh_space_gauges();
        let repacker = if high_watermark > 0 {
            // A `bounded(1)` wake-up channel: while a pass runs, at most
            // one further wake-up is parked; extra triggers coalesce.
            let (tx, rx) = bounded::<()>(1);
            *state.repack_tx.lock() = Some(tx);
            let st = Arc::clone(&state);
            Some(std::thread::spawn(move || {
                while rx.recv().is_ok() {
                    let _ = crate::repack::repack_pass(&st, false, Some(high_watermark));
                }
            }))
        } else {
            None
        };
        Ok(Arc::new(PortusDaemon {
            state,
            nic,
            workers: Mutex::new(Vec::new()),
            dispatcher,
            repacker: Mutex::new(repacker),
        }))
    }

    /// Accepts a connection from `client_nic`: spawns a
    /// receive-and-dispatch thread and returns the client's endpoints.
    /// Request handling itself runs on the shared dispatch pool.
    /// [`DaemonConfig::qps_per_connection`] queue pairs are opened, one
    /// per DMA-engine lane; datapath operations stripe across them.
    ///
    /// The connection is attributed to the `"default"` tenant; use
    /// [`PortusDaemon::accept_as`] to name one.
    pub fn accept(&self, client_nic: Arc<Nic>) -> ClientEndpoints {
        self.accept_as(client_nic, "default")
    }

    /// [`PortusDaemon::accept`] with an explicit tenant identity: every
    /// request on the connection is charged to `tenant`'s token buckets
    /// ([`crate::TenantQos`] via [`DaemonConfig::qos`]), confined to its
    /// weighted-fair share of the striped QP lanes, and attributed to
    /// its per-tenant metrics breakdown.
    pub fn accept_as(&self, client_nic: Arc<Nic>, tenant: &str) -> ClientEndpoints {
        let ctx = self.state.ctx.clone();
        let (req_client, req_daemon) = ControlChannel::pair(ctx.clone());
        let (rep_daemon, rep_client) = ControlChannel::pair(ctx);
        let lanes = self.state.cfg.qps_per_connection.max(1);
        let mut daemon_qps = Vec::with_capacity(lanes);
        let mut client_qps = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (qp_daemon, qp_client) =
                QueuePair::connect_lane(Arc::clone(&self.nic), Arc::clone(&client_nic), lane);
            daemon_qps.push(Arc::new(qp_daemon));
            client_qps.push(qp_client);
        }
        let pool = Arc::new(QpPool { qps: daemon_qps });
        let state = Arc::clone(&self.state);
        let dispatcher = Arc::clone(&self.dispatcher);
        let tenant = self.state.qos.tenant_ctx(tenant);
        let handle = std::thread::spawn(move || {
            serve(state, dispatcher, pool, tenant, req_daemon, rep_daemon)
        });
        self.workers.lock().push(handle);
        let qp_client = client_qps.remove(0);
        ClientEndpoints {
            requests: req_client,
            replies: rep_client,
            qp: qp_client,
            extra_qps: client_qps,
        }
    }

    /// Waits for all connection threads to exit (they exit when their
    /// client disconnects), then drains and joins the dispatch pool and
    /// the background repacker.
    pub fn shutdown(&self) {
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        self.dispatcher.shutdown();
        // Dropping the sender ends the repacker's recv loop.
        *self.state.repack_tx.lock() = None;
        if let Some(handle) = self.repacker.lock().take() {
            let _ = handle.join();
        }
    }

    /// High-water mark of requests in flight on the dispatch pool
    /// (diagnostic; lets tests assert that requests actually overlap).
    pub fn peak_in_flight(&self) -> u64 {
        self.state.peak_in_flight.load(Ordering::Relaxed)
    }

    /// Summaries of all stored models (daemon-side view).
    ///
    /// # Errors
    ///
    /// Device errors while reading MIndex records.
    pub fn summaries(&self) -> PortusResult<Vec<ModelSummary>> {
        self.state.list_models()
    }

    /// The persistent index (for the repacker and tooling).
    pub fn index(&self) -> &Index {
        &self.state.index
    }

    /// Stored-model count (diagnostic): the catalog's entry count when
    /// one owns name resolution, the DRAM name map's size otherwise.
    pub fn model_count(&self) -> usize {
        match self.state.catalog() {
            Some(cat) => cat.len() as usize,
            None => self.state.map.lock().len(),
        }
    }

    /// The daemon's simulation context.
    pub fn ctx(&self) -> &SimContext {
        &self.state.ctx
    }

    /// The shared daemon state (for the repacker).
    pub(crate) fn state(&self) -> &Arc<DaemonState> {
        &self.state
    }
}

/// Records one request's stage timings into the shared tracer (a full
/// span, when enabled) and metrics histograms. All instants come off
/// the virtual clock — never the host wall clock — so deterministic
/// runs record identical spans.
struct SpanCtx<'a> {
    ctx: &'a SimContext,
    req_id: u64,
    op: TraceOp,
    /// The model name for span records — captured only while the tracer
    /// is recording, so the disabled-tracer fast path never allocates.
    model: Option<String>,
}

impl<'a> SpanCtx<'a> {
    fn new(ctx: &'a SimContext, req_id: u64, op: TraceOp, model: &str) -> SpanCtx<'a> {
        let model = ctx.tracer.is_enabled().then(|| model.to_string());
        SpanCtx {
            ctx,
            req_id,
            op,
            model,
        }
    }

    fn record(&self, stage: Stage, start: SimTime, end: SimTime, round: u32) {
        self.record_lane(stage, start, end, round, 0);
    }

    fn record_lane(&self, stage: Stage, start: SimTime, end: SimTime, round: u32, lane: u32) {
        self.ctx
            .metrics
            .record_stage(self.op, stage, end.saturating_since(start));
        if let Some(model) = &self.model {
            self.ctx.tracer.record(SpanRecord {
                req_id: self.req_id,
                op: self.op,
                stage,
                model: model.clone(),
                start,
                end,
                round,
                lane,
            });
        }
    }

    /// Records `stage` from `start` to the current virtual instant.
    fn record_now(&self, stage: Stage, start: SimTime) {
        self.record(stage, start, self.ctx.clock.now(), 0);
    }
}

/// Span identity of a datapath request: `(req_id, op, model)` for the
/// three traced operations, `None` for control-plane requests.
fn span_meta(req: &Request) -> Option<(u64, TraceOp, String)> {
    match req {
        Request::Checkpoint { req_id, model } => {
            Some((*req_id, TraceOp::Checkpoint, model.clone()))
        }
        Request::DeltaCheckpoint { req_id, model, .. } => {
            Some((*req_id, TraceOp::DeltaCheckpoint, model.clone()))
        }
        Request::Restore { req_id, model, .. } => Some((*req_id, TraceOp::Restore, model.clone())),
        _ => None,
    }
}

/// Checkpoint payload bytes `req` will pull, for admission accounting
/// (`None` for anything that is not checkpoint traffic). A model with
/// no registered session costs 0 — the handler rejects it with the
/// proper error, and charging nothing keeps the shed path honest. A
/// delta's cost is its dirty-masked byte sum (the carry-over bytes
/// never cross the fabric; a first delta with no previous version pulls
/// everything, but the mask is the client's own declared intent).
fn checkpoint_cost(state: &DaemonState, req: &Request) -> Option<u64> {
    match req {
        Request::Checkpoint { model, .. } => Some(session_bytes(state, model, None)),
        Request::DeltaCheckpoint { model, dirty, .. } => {
            Some(session_bytes(state, model, Some(dirty)))
        }
        _ => None,
    }
}

/// Approximate DRAM footprint of the name map for the `model_map_bytes`
/// gauge: one `(String, u64)` entry per model plus each key's heap
/// capacity. It ignores the B-tree's node overhead. It shows the map
/// growing with the model population, or pinned at zero when the
/// catalog owns name resolution.
fn map_bytes(map: &BTreeMap<String, u64>) -> u64 {
    let entries = map.len() * std::mem::size_of::<(String, u64)>();
    let keys: usize = map.keys().map(String::capacity).sum();
    (entries + keys) as u64
}

fn session_bytes(state: &DaemonState, model: &str, dirty: Option<&[bool]>) -> u64 {
    let sessions = state.sessions.lock();
    let Some(descs) = sessions.get(model) else {
        return 0;
    };
    match dirty {
        None => descs.iter().map(TensorDesc::size_bytes).sum(),
        Some(mask) => descs
            .iter()
            .zip(mask)
            .filter(|&(_, &is_dirty)| is_dirty)
            .map(|(d, _)| d.size_bytes())
            .sum(),
    }
}

fn serve(
    state: Arc<DaemonState>,
    dispatcher: Arc<Dispatcher>,
    pool: Arc<QpPool>,
    tenant: TenantCtx,
    requests: ControlChannel<Request>,
    replies: ControlChannel<Reply>,
) {
    let replies = Arc::new(replies);
    // Exits when the client disconnects (recv error) or says goodbye.
    // Each request becomes one pool job; replies are sent as each job
    // finishes, in completion order — the client demultiplexes by
    // req_id.
    while let Ok(req) = requests.recv() {
        if matches!(req, Request::Disconnect) {
            break;
        }
        let metrics = &state.ctx.metrics;
        // Token-bucket admission: checkpoint traffic only. Restores are
        // latency-critical recovery traffic and bypass the buckets; the
        // control plane is too cheap to meter.
        if let Some(bytes) = checkpoint_cost(&state, &req) {
            let now = state.ctx.clock.now();
            if let Err(wait) = state.qos.admit(&tenant, bytes, now) {
                metrics.tenant_throttled(&tenant.name);
                let _ = replies.send(Reply::Throttled {
                    req_id: req.req_id().unwrap_or(0),
                    retry_after_ns: wait.as_nanos(),
                });
                continue;
            }
            metrics.tenant_admitted(&tenant.name, bytes);
        } else if let Request::Restore { tensors, .. } = &req {
            let bytes = tensors.iter().map(TensorDesc::size_bytes).sum();
            metrics.tenant_admitted(&tenant.name, bytes);
        }
        let is_checkpoint = matches!(
            req,
            Request::Checkpoint { .. } | Request::DeltaCheckpoint { .. }
        );
        let class = match &req {
            Request::Checkpoint { .. } | Request::DeltaCheckpoint { .. } => JobClass::Normal,
            Request::Restore { .. } if !state.cfg.priority_restore => JobClass::Normal,
            _ => JobClass::Urgent,
        };
        let req_id = req.req_id().unwrap_or(0);
        let meta = span_meta(&req);
        let enqueued = state.ctx.clock.now();
        let job: Job = Box::new({
            let state = Arc::clone(&state);
            let pool = Arc::clone(&pool);
            let replies = Arc::clone(&replies);
            let tenant = tenant.clone();
            move || {
                let n = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                state.peak_in_flight.fetch_max(n, Ordering::Relaxed);
                // Virtual time that passed between enqueue and pickup is
                // the dispatch-queue wait (zero for an idle pool: queueing
                // itself charges no virtual time).
                let op = meta.as_ref().map(|(_, op, _)| *op);
                if let Some((req_id, op, model)) = &meta {
                    let sc = SpanCtx::new(&state.ctx, *req_id, *op, model);
                    sc.record_now(Stage::DispatchWait, enqueued);
                }
                let reply = handle_request(&state, &pool, &tenant, req);
                state.in_flight.fetch_sub(1, Ordering::Relaxed);
                // Per-tenant end-to-end latency (dispatch wait included
                // — exactly what a tenant experiences).
                if let Some(op) = op {
                    state.ctx.metrics.record_tenant_op(
                        &tenant.name,
                        op,
                        state.ctx.clock.now().saturating_since(enqueued),
                    );
                }
                // The client may already be gone; nothing to do then.
                let _ = replies.send(reply);
                // Watermark check after the reply is on the wire: a request
                // that dipped free space below a watermark triggers
                // compaction (inline below low, background below high)
                // without adding latency to its own reply.
                state.maybe_trigger_repack();
            }
        });
        // Checkpoints shed after the bounded wait; a restore demoted to
        // the normal class (priority disabled) waits forever — restores
        // are never shed.
        match dispatcher.dispatch(job, class, is_checkpoint.then_some(SHED_WAIT)) {
            DispatchOutcome::Queued => {}
            DispatchOutcome::Shed(job) => {
                drop(job);
                state.ctx.metrics.tenant_shed(&tenant.name);
                let _ = replies.send(Reply::Throttled {
                    req_id,
                    retry_after_ns: SHED_RETRY_AFTER.as_nanos(),
                });
            }
            // The pool is draining (shutdown raced a late request); run
            // the job inline so the client still gets its reply.
            DispatchOutcome::Closed(job) => job(),
        }
    }
}

/// Maps a handler error onto the wire. Datapath failures keep their
/// structure (model, op, per-WQE tensor attribution and retry counts)
/// so the client can rebuild the typed
/// [`PortusError::DatapathFailed`]; out-of-space, a full catalog and an
/// integrity mismatch keep theirs too; everything else is rendered into
/// [`Reply::Error`].
fn error_reply(req_id: u64, e: PortusError) -> Reply {
    match e {
        PortusError::DatapathFailed {
            model,
            op,
            failures,
        } => Reply::DatapathFailed {
            req_id,
            model,
            op,
            failures,
        },
        PortusError::OutOfSpace {
            needed,
            free,
            largest_extent,
        } => Reply::OutOfSpace {
            req_id,
            needed,
            free,
            largest_extent,
        },
        PortusError::CatalogFull { capacity } => Reply::CatalogFull { req_id, capacity },
        PortusError::ChecksumMismatch { model, version } => Reply::ChecksumMismatch {
            req_id,
            model,
            version,
        },
        other => Reply::Error {
            req_id,
            message: other.to_string(),
        },
    }
}

/// Executes one request against the daemon state and builds its reply.
fn handle_request(state: &DaemonState, pool: &QpPool, tenant: &TenantCtx, req: Request) -> Reply {
    match req {
        // The connection thread consumes Disconnect; answer defensively
        // if one is ever routed here.
        Request::Disconnect => Reply::Error {
            req_id: 0,
            message: "disconnect is handled by the connection thread".to_string(),
        },
        Request::Register {
            req_id,
            model,
            tensors,
        } => match state.register(&model, tensors) {
            Ok(()) => Reply::Registered {
                req_id,
                slots: crate::SLOT_COUNT as u8,
            },
            Err(e) => error_reply(req_id, e),
        },
        Request::DeltaCheckpoint {
            req_id,
            model,
            dirty,
        } => match state.write_version(pool, tenant, &model, Some(&dirty), req_id) {
            Ok(w) => Reply::DeltaDone {
                req_id,
                version: w.version,
                pulled_bytes: w.pulled,
                copied_bytes: w.copied,
                elapsed: w.elapsed,
            },
            Err(e) => error_reply(req_id, e),
        },
        // The paper's `DO_CHECKPOINT`: the all-dirty case of the same
        // write, so everything it pulls is the whole model.
        Request::Checkpoint { req_id, model } => {
            match state.write_version(pool, tenant, &model, None, req_id) {
                Ok(w) => Reply::CheckpointDone {
                    req_id,
                    version: w.version,
                    bytes: w.pulled,
                    elapsed: w.elapsed,
                },
                Err(e) => error_reply(req_id, e),
            }
        }
        Request::Restore {
            req_id,
            model,
            tensors,
            version,
        } => match state.restore(pool, tenant, &model, &tensors, version, req_id) {
            Ok((version, bytes, elapsed)) => Reply::RestoreDone {
                req_id,
                version,
                bytes,
                elapsed,
            },
            Err(e) => error_reply(req_id, e),
        },
        Request::MarkComplete { req_id, model } => match state.mark_complete(&model) {
            Ok(()) => Reply::Completed { req_id },
            Err(e) => error_reply(req_id, e),
        },
        Request::Drop { req_id, model } => match state.drop_model(&model) {
            Ok(()) => Reply::Dropped { req_id },
            Err(e) => error_reply(req_id, e),
        },
        Request::List { req_id } => match state.list_models() {
            Ok(models) => Reply::Models { req_id, models },
            Err(e) => error_reply(req_id, e),
        },
        Request::Stats { req_id } => {
            // Space gauges are refreshed lazily; a stats query must
            // report the allocator's current view, not the last
            // repack's.
            state.refresh_space_gauges();
            Reply::Stats {
                req_id,
                metrics: Box::new(state.ctx.metrics.snapshot()),
            }
        }
    }
}

/// One tensor's contribution to a posted datapath operation.
struct TensorVerb {
    rel_off: u64,
    len: u64,
    rkey: u64,
    name: String,
}

impl TensorVerb {
    /// The verb moving the session tensor `desc` to or from its
    /// persistent record `rec`.
    fn new(rec: &TensorRecord, desc: &TensorDesc) -> TensorVerb {
        TensorVerb {
            rel_off: rec.rel_off,
            len: rec.meta.size_bytes(),
            rkey: desc.rkey,
            name: desc.name.clone(),
        }
    }
}

/// Checks a session's tensor descriptors against the model's
/// persistent records — the same count, and each descriptor's metadata
/// equal to its record's — or fails with
/// [`PortusError::StructureMismatch`].
fn check_structure(model: &str, descs: &[TensorDesc], mi: &MIndex) -> PortusResult<()> {
    if descs.len() != mi.tensors.len() {
        return Err(PortusError::StructureMismatch(format!(
            "{model}: session has {} tensors, index has {}",
            descs.len(),
            mi.tensors.len()
        )));
    }
    match mi
        .tensors
        .iter()
        .zip(descs)
        .find(|(rec, desc)| desc.meta() != rec.meta)
    {
        Some((_, desc)) => Err(PortusError::StructureMismatch(format!(
            "{model}: session tensor {} does not match index",
            desc.name
        ))),
        None => Ok(()),
    }
}

/// What [`DaemonState::write_version`] reports about the version it
/// sealed.
pub(crate) struct Written {
    /// The new version number.
    version: u64,
    /// Bytes pulled over the fabric: the whole model when every tensor
    /// was dirty.
    pulled: u64,
    /// Bytes carried over device-locally from the previous version.
    copied: u64,
    /// Daemon-side virtual time from the first carry or pull to the
    /// sealed (and, on a dedup namespace, ingested) version.
    elapsed: SimDuration,
}

/// One work-queue entry: a run of tensors contiguous in the slot's
/// TensorData region, moved by a single gather/scatter verb.
struct VerbRun {
    segs: Vec<SgEntry>,
    names: Vec<String>,
    base_rel: u64,
    len: u64,
}

/// Groups tensors into runs that are contiguous by `rel_off` in the
/// slot's TensorData region, capped at [`MAX_SGE`] segments per run.
/// Each run becomes one WQE; a gap in the selected tensors (e.g. clean
/// tensors skipped by a delta checkpoint) breaks the run.
fn coalesce_runs(verbs: &[TensorVerb]) -> Vec<VerbRun> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < verbs.len() {
        let base = verbs[i].rel_off;
        let mut expected = base;
        let mut segs = Vec::new();
        let mut names = Vec::new();
        while i < verbs.len() && segs.len() < MAX_SGE && verbs[i].rel_off == expected {
            segs.push(SgEntry {
                rkey: verbs[i].rkey,
                offset: 0,
                len: verbs[i].len,
            });
            names.push(verbs[i].name.clone());
            expected += verbs[i].len;
            i += 1;
        }
        runs.push(VerbRun {
            segs,
            names,
            base_rel: base,
            len: expected - base,
        });
    }
    runs
}

/// Where a delta checkpoint's carry-over reads its bytes from.
#[derive(Debug, Clone, Copy)]
enum CarrySrc {
    /// Absolute device offset within the previous version's plain
    /// contiguous region.
    Plain(u64),
    /// The previous version is extent-mapped: its map's offset. The
    /// carry decompresses/copies the touched chunks out of the store.
    Extents(u64),
}

/// Which way a posted datapath operation moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Gather-READ, GPU → PMem (checkpoint pull).
    Pull,
    /// Scatter-WRITE, PMem → GPU (restore push).
    Push,
}

/// A datapath operation whose WQEs exhausted their retries.
struct DatapathFailure {
    /// The terminally failed work requests, with tensor attribution.
    failures: Vec<VerbFailure>,
    /// Whether any WQE of the operation completed — i.e. whether bytes
    /// landed in the target region before the operation was declared
    /// failed. Decides revert-vs-collapse on rollback.
    any_succeeded: bool,
}

impl DatapathFailure {
    fn into_error(self, model: &str, op: &str) -> PortusError {
        PortusError::DatapathFailed {
            model: model.to_string(),
            op: op.to_string(),
            failures: self.failures,
        }
    }
}

/// What a successful posted operation leaves behind: each run's fabric
/// `(start, end)` completion window, indexed like the input runs. Only
/// the striped datapath fills this in (a one-QP seal is one
/// whole-region piece and needs no per-run times).
struct RunOutcome {
    completions: Vec<Option<(SimTime, SimTime)>>,
}

/// One extent of a checkpoint whose bytes are already in the slot's
/// data region, queued for the seal pipe's persist+digest stage
/// ([`DaemonState::seal`]). A one-QP seal hands the pipe the whole
/// region as one piece; a striped seal hands it one piece per pulled
/// run plus one per carry-over.
struct SealPiece {
    /// Slot-relative offset of the extent.
    rel_off: u64,
    /// Extent length in bytes.
    len: u64,
    /// Virtual instant the bytes were in place: the fabric completion
    /// end for pulled runs, the copy completion for carry-overs.
    arrival: SimTime,
    /// Digest already computed from in-flight bytes (striped
    /// carry-overs hash the bounce buffer they stage through); `None`
    /// means the pipe reads the extent back from PMem
    /// ([`Index::range_digest`]), charging the DAX read.
    digest: Option<u64>,
}

/// Drains **every** posted completion off `cq` and returns the run
/// indices that failed, with their errors, the fabric-side
/// `(earliest start, latest end)` envelope over the successful
/// transfers, and each successful run's own `(start, end)` window. One
/// bad WQE no longer masks the outcome of the others — the retry loop
/// needs the full failed set, and a terminal error must attribute
/// every failed run. The per-run windows feed the striped seal stage,
/// which starts persisting an extent the instant its transfer
/// completed. The envelope times the completion phase: the drain
/// itself charges no virtual time (the in-process fabric completes
/// eagerly at post), so the transfers' own instants are the honest
/// span.
#[allow(clippy::type_complexity)]
fn drain_cq(
    cq: &CompletionQueue,
    posted: &[(WrId, usize)],
) -> (
    Vec<(usize, RdmaError)>,
    Option<(SimTime, SimTime)>,
    Vec<(usize, SimTime, SimTime)>,
) {
    let mut failed = Vec::new();
    let mut span: Option<(SimTime, SimTime)> = None;
    let mut succeeded = Vec::new();
    let mut polled = 0;
    while polled < posted.len() {
        let batch = cq.poll(posted.len() - polled);
        if batch.is_empty() {
            // Defensive: the in-process fabric completes eagerly, so
            // every post already has a completion. Bail rather than
            // spin if that invariant ever breaks.
            break;
        }
        for wc in &batch {
            let run = posted
                .iter()
                .find(|(id, _)| *id == wc.wr_id)
                .map(|&(_, r)| r);
            match &wc.result {
                Err(e) => {
                    if let Some(run) = run {
                        failed.push((run, e.clone()));
                    }
                }
                Ok(_) => {
                    if let Some((start, end)) = wc.fabric_span() {
                        if let Some(run) = run {
                            succeeded.push((run, start, end));
                        }
                        span = Some(match span {
                            Some((s, e)) => (s.min(start), e.max(end)),
                            None => (start, end),
                        });
                    }
                }
            }
        }
        polled += batch.len();
    }
    (failed, span, succeeded)
}

/// Chunked device-local copy within one PMem namespace (the carry-over
/// path of incremental checkpoints). With `with_digest` it also
/// returns the positional digest of the copied bytes keyed at
/// slot-relative `rel_off` — computed from the bounce buffer the copy
/// already staged through, so a striped seal gets the extent's digest
/// without a second read pass. A one-QP seal digests the whole region
/// as one piece afterwards and does not ask.
fn copy_on_device(
    dev: &PmemDevice,
    src_off: u64,
    dst_off: u64,
    len: u64,
    rel_off: u64,
    with_digest: bool,
) -> PortusResult<Option<u64>> {
    crate::index::with_io_buf(|buf| {
        let mut done = 0u64;
        let mut digest = with_digest.then_some(0u64);
        while done < len {
            let chunk = ((len - done) as usize).min(buf.len());
            dev.read(src_off + done, &mut buf[..chunk])?;
            dev.write(dst_off + done, &buf[..chunk])?;
            if let Some(acc) = digest.as_mut() {
                *acc = crate::combine_digests(
                    *acc,
                    crate::region_digest(&buf[..chunk], rel_off + done),
                );
            }
            done += chunk as u64;
        }
        Ok(digest)
    })
}

impl DaemonState {
    pub(crate) fn model_lock(&self, model: &str) -> Arc<Mutex<()>> {
        Arc::clone(
            self.model_locks
                .lock()
                .entry(model.to_string())
                .or_default(),
        )
    }

    /// The next repack-pass id (span `req_id`s for [`TraceOp::Repack`]).
    pub(crate) fn next_repack_id(&self) -> u64 {
        self.repack_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Pushes the allocator's current free/used/largest-extent view
    /// into the shared metrics gauges, and the extent store's dedup
    /// gauges when one is mounted.
    pub(crate) fn refresh_space_gauges(&self) {
        let alloc = self.index.allocator();
        self.ctx.metrics.set_space(
            alloc.free_bytes(),
            alloc.used_bytes(),
            alloc.largest_free_extent(),
        );
        if let Some(store) = self.index.extent_store() {
            let Ok(s) = store.stats() else { return };
            self.ctx.metrics.set_dedup(
                s.live,
                s.shared,
                s.compressed,
                s.referenced_logical,
                s.stored_bytes,
            );
        }
        self.ctx
            .metrics
            .set_model_map_bytes(map_bytes(&self.map.lock()));
        if let Some(cat) = self.catalog() {
            let s = cat.stats();
            self.ctx.metrics.set_catalog(
                s.pages,
                s.entries,
                s.cache_hits,
                s.cache_misses,
                s.cache_bytes,
            );
        }
    }

    /// Post-seal dedup conversion: chunks the freshly sealed plain
    /// region into content-addressed extents, publishes the extent map
    /// under an atomic header flip, and frees the staging region. The
    /// checkpoint is already durable when this runs, so failure is
    /// non-fatal — the slot simply keeps its plain region and only the
    /// space win is lost. Charges the DAX traffic the conversion
    /// performs (chunk read-back, new-extent writes, the map write).
    fn ingest_phase(
        &self,
        mi: &mut MIndex,
        slot: usize,
        dcfg: &crate::DedupConfig,
        sc: &SpanCtx<'_>,
    ) {
        let t0 = self.ctx.clock.now();
        match crate::dedup::ingest_slot(&self.index, mi, slot, dcfg) {
            Ok(report) => {
                self.ctx.charge(
                    self.ctx.model.dax_read(report.read_bytes)
                        + self
                            .ctx
                            .model
                            .dax_write(report.new_bytes + report.map_bytes),
                );
                self.ctx
                    .metrics
                    .record_dedup_ingest(report.chunks as u64, report.shared_chunks as u64);
                sc.record_now(Stage::Dedup, t0);
            }
            Err(_) => self.ctx.metrics.record_dedup_ingest_failure(),
        }
    }

    /// Watermark-driven compaction hook, run by dispatch workers after
    /// each reply. Below the low watermark the pass runs inline
    /// (synchronous backpressure: this worker reclaims before taking
    /// more work); between the watermarks the background repacker is
    /// woken. Disabled watermarks (`0`) cost one atomic-free field read.
    fn maybe_trigger_repack(&self) {
        let high = self.cfg.space_high_watermark;
        if high == 0 {
            return;
        }
        let free = self.index.allocator().free_bytes();
        if free >= high {
            return;
        }
        if self.cfg.space_low_watermark > 0 && free < self.cfg.space_low_watermark {
            let _ = crate::repack::repack_pass(self, true, Some(high));
        } else if let Some(tx) = self.repack_tx.lock().as_ref() {
            // A parked wake-up already covers us; drop extras.
            let _ = tx.try_send(());
        }
    }

    /// [`Index::ensure_slot_region`] with the `OutOfSpace` recovery
    /// loop: on an allocator `OutOfSpace`, run one aggressive (but
    /// epoch-gated, so still safe) repack pass and retry the allocation
    /// once. If the device genuinely cannot hold the region, surface
    /// the typed [`PortusError::OutOfSpace`] carrying the allocator's
    /// final view. The caller holds this model's lock; the pass
    /// `try_lock`s and simply skips the busy model.
    fn ensure_region_or_reclaim(&self, mi: &mut MIndex, slot: usize) -> PortusResult<SlotHeader> {
        match self.index.ensure_slot_region(mi, slot) {
            Err(PortusError::Pmem(PmemError::OutOfSpace { .. })) => {
                let _ = crate::repack::repack_pass(self, true, None);
                match self.index.ensure_slot_region(mi, slot) {
                    Ok(hdr) => {
                        self.ctx.stats.record_oos_recovery();
                        Ok(hdr)
                    }
                    Err(PortusError::Pmem(PmemError::OutOfSpace { requested, .. })) => {
                        let alloc = self.index.allocator();
                        Err(PortusError::OutOfSpace {
                            needed: requested,
                            free: alloc.free_bytes(),
                            largest_extent: alloc.largest_free_extent(),
                        })
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// The mounted catalog, when this daemon is configured to use it.
    /// A recovered namespace may carry a catalog the operator chose not
    /// to enable; the config gate keeps such a daemon byte-for-byte on
    /// the name-map path.
    pub(crate) fn catalog(&self) -> Option<&crate::Catalog> {
        if self.cfg.catalog.is_some() {
            self.index.catalog()
        } else {
            None
        }
    }

    /// Resolves a model name to its MIndex offset through whichever
    /// structure owns name resolution: the paged on-PMem catalog when
    /// enabled, the DRAM name map otherwise.
    pub(crate) fn resolve_model(&self, model: &str) -> PortusResult<Option<u64>> {
        match self.catalog() {
            Some(cat) => cat.lookup(model),
            None => Ok(self.map.lock().get(model).copied()),
        }
    }

    /// [`DaemonState::resolve_model`] + MIndex load. Datapath callers
    /// pass their span so catalog-enabled daemons attribute the paged
    /// probe to [`Stage::CatalogLookup`]; the name-map path records
    /// nothing (a DRAM map lookup charges no virtual time).
    fn lookup(&self, model: &str, sc: Option<&SpanCtx<'_>>) -> PortusResult<MIndex> {
        let t0 = self.ctx.clock.now();
        let off = self.resolve_model(model)?;
        if let (Some(sc), Some(_)) = (sc, self.catalog()) {
            sc.record_now(Stage::CatalogLookup, t0);
        }
        let off = off.ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
        self.index.load_mindex(off)
    }

    /// Verifies a `Done` slot before serving a restore with
    /// [`Index::slot_intact`]: every seal writes the positional digest,
    /// which is recomputed here (split across cores for large slots).
    /// FNV is read-only legacy: a header an earlier build sealed with
    /// [`crate::CKSUM_KIND_FNV`] is checked with the sequential
    /// checksum. Both charge the same full-region DAX read, recorded on
    /// the stats and as a `Checksum` span on `sc`.
    fn verify_slot(
        &self,
        mi: &MIndex,
        slot: usize,
        model: &str,
        sc: &SpanCtx<'_>,
    ) -> PortusResult<()> {
        let t0 = self.ctx.clock.now();
        let intact = self.index.slot_intact(mi, slot)?;
        self.ctx.charge(self.ctx.model.dax_read(mi.total_bytes));
        self.ctx
            .stats
            .record_checksum_ns(self.ctx.clock.now().saturating_since(t0).as_nanos());
        sc.record_now(Stage::Checksum, t0);
        if !intact {
            return Err(PortusError::ChecksumMismatch {
                model: model.to_string(),
                version: mi.slots[slot].version,
            });
        }
        Ok(())
    }

    /// Posts one WQE per run (gather-READs for [`Direction::Pull`],
    /// scatter-WRITEs for [`Direction::Push`], with the PMem side at
    /// `data_off`), drains the completion queue(s), and re-posts failed
    /// WQEs for up to [`DaemonConfig::verb_retries`] rounds. Each round
    /// charges an exponentially growing backoff to the virtual clock
    /// before the fresh doorbell batch. Runs that stay failed after the
    /// last round come back as a [`DatapathFailure`] with per-run
    /// tensor attribution and retry counts.
    ///
    /// A single-QP pool posts everything in one doorbell batch on the
    /// classic eager path — bit-for-bit the pre-striping datapath. With
    /// more QPs, runs are sharded largest-first across the pool's
    /// lane-pinned QPs and posted deferred, so transfers overlap on
    /// independent NIC engines and each run's completion window comes
    /// back in [`RunOutcome`] for the pipelined seal.
    fn execute_runs(
        &self,
        pool: &QpPool,
        tenant: &TenantCtx,
        runs: &[VerbRun],
        data_off: u64,
        dir: Direction,
        sc: &SpanCtx<'_>,
    ) -> Result<RunOutcome, DatapathFailure> {
        if runs.is_empty() {
            return Ok(RunOutcome {
                completions: Vec::new(),
            });
        }
        if pool.len() > 1 {
            return self.execute_runs_striped(pool, tenant, runs, data_off, dir, sc);
        }
        self.execute_runs_single(pool.primary(), runs, data_off, dir, sc)
    }

    /// The classic single-QP datapath: one eager doorbell batch, one
    /// completion queue, whole-batch retry rounds.
    fn execute_runs_single(
        &self,
        qp: &Arc<QueuePair>,
        runs: &[VerbRun],
        data_off: u64,
        dir: Direction,
        sc: &SpanCtx<'_>,
    ) -> Result<RunOutcome, DatapathFailure> {
        let cq = CompletionQueue::new();
        let pqp = PostedQueuePair::from_shared(Arc::clone(qp), cq.clone());
        let post = |run: &VerbRun| -> WrId {
            let region = RegionTarget::Pmem {
                dev: Arc::clone(self.index.device()),
                base: data_off + run.base_rel,
                len: run.len,
            };
            match dir {
                Direction::Pull => pqp.post_read_gather(&run.segs, &region, 0),
                Direction::Push => pqp.post_write_scatter(&run.segs, &region, 0),
            }
        };

        let t_post = self.ctx.clock.now();
        pqp.begin_batch();
        let posted: Vec<(WrId, usize)> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| (post(run), i))
            .collect();
        sc.record(Stage::DoorbellPost, t_post, self.ctx.clock.now(), 0);
        let (mut failed, drain_span, _) = drain_cq(&cq, &posted);
        if let Some((s, e)) = drain_span {
            sc.record(Stage::CqDrain, s, e, 0);
        }
        let mut any_succeeded = failed.len() < runs.len();
        let mut retries = vec![0u32; runs.len()];
        let mut round = 0u32;
        while !failed.is_empty() && round < self.cfg.verb_retries {
            round += 1;
            let t_backoff = self.ctx.clock.now();
            self.ctx.charge(self.ctx.model.verb_retry_backoff(round));
            sc.record(Stage::RetryBackoff, t_backoff, self.ctx.clock.now(), round);
            let t_post = self.ctx.clock.now();
            pqp.begin_batch();
            let reposted: Vec<(WrId, usize)> = failed
                .iter()
                .map(|&(i, _)| {
                    retries[i] += 1;
                    self.ctx.stats.record_retried_verb();
                    (post(&runs[i]), i)
                })
                .collect();
            sc.record(Stage::DoorbellPost, t_post, self.ctx.clock.now(), round);
            let (still_failed, drain_span, _) = drain_cq(&cq, &reposted);
            if let Some((s, e)) = drain_span {
                sc.record(Stage::CqDrain, s, e, round);
            }
            if still_failed.len() < failed.len() {
                any_succeeded = true;
            }
            failed = still_failed;
        }
        if failed.is_empty() {
            return Ok(RunOutcome {
                completions: Vec::new(),
            });
        }
        Err(DatapathFailure {
            failures: failed
                .into_iter()
                .map(|(i, e)| VerbFailure {
                    tensors: runs[i].names.clone(),
                    retries: retries[i],
                    error: e.to_string(),
                })
                .collect(),
            any_succeeded,
        })
    }

    /// The striped datapath: runs are sharded **largest-first onto the
    /// least-loaded lane** (deterministic: ties break on run index and
    /// lane number) and posted *deferred* on each lane's own
    /// [`PostedQueuePair`], so one posting instant fans out across the
    /// NICs' DMA engines and equal-size shards finish together instead
    /// of serializing. Every lane gets its own doorbell/drain spans
    /// (tagged with the lane), and the shared clock advances once per
    /// round, to the slowest lane's last completion.
    ///
    /// Retries keep **lane affinity**: a failed run is re-posted on the
    /// QP it originally rode — its connection state, not a random
    /// stripe, is what the retry exercises — while the other lanes'
    /// completed runs are never touched again.
    ///
    /// Lane selection is **weighted-fair**: the tenant may only stripe
    /// across the lanes its [`crate::qos::LaneArbiter`] share allows
    /// right now. A lone tenant is allowed every lane, which keeps the
    /// pre-QoS sharding bit-for-bit; concurrent tenants are confined to
    /// their weighted quota and steered toward the lanes they have
    /// charged the least.
    fn execute_runs_striped(
        &self,
        pool: &QpPool,
        tenant: &TenantCtx,
        runs: &[VerbRun],
        data_off: u64,
        dir: Direction,
        sc: &SpanCtx<'_>,
    ) -> Result<RunOutcome, DatapathFailure> {
        let lanes = pool.len();
        let allowed = self.qos.arbiter.allowed_lanes(tenant, lanes);
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(runs[i].len), i));
        let mut lane_bytes = vec![0u64; lanes];
        let mut lane_of = vec![0usize; runs.len()];
        for &i in &order {
            let lane = allowed
                .iter()
                .copied()
                .min_by_key(|&l| (lane_bytes[l], l))
                .expect("allowed lane set is non-empty");
            lane_of[i] = lane;
            lane_bytes[lane] += runs[i].len;
            self.qos.arbiter.charge(tenant, lane, runs[i].len);
        }
        let endpoints: Vec<(PostedQueuePair, CompletionQueue)> = pool
            .qps
            .iter()
            .map(|qp| {
                let cq = CompletionQueue::new();
                let pqp = PostedQueuePair::from_shared_deferred(Arc::clone(qp), cq.clone());
                (pqp, cq)
            })
            .collect();
        let post = |lane: usize, run: &VerbRun| -> WrId {
            let region = RegionTarget::Pmem {
                dev: Arc::clone(self.index.device()),
                base: data_off + run.base_rel,
                len: run.len,
            };
            match dir {
                Direction::Pull => endpoints[lane].0.post_read_gather(&run.segs, &region, 0),
                Direction::Push => endpoints[lane].0.post_write_scatter(&run.segs, &region, 0),
            }
        };

        let mut completions: Vec<Option<(SimTime, SimTime)>> = vec![None; runs.len()];
        let mut retries = vec![0u32; runs.len()];
        let mut any_succeeded = false;
        let mut pending: Vec<usize> = (0..runs.len()).collect();
        let mut round = 0u32;
        loop {
            let t_post = self.ctx.clock.now();
            let mut posted: Vec<Vec<(WrId, usize)>> = vec![Vec::new(); lanes];
            for lane in 0..lanes {
                let mine: Vec<usize> = pending
                    .iter()
                    .copied()
                    .filter(|&i| lane_of[i] == lane)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                endpoints[lane].0.begin_batch();
                for i in mine {
                    posted[lane].push((post(lane, &runs[i]), i));
                }
            }
            let mut failed: Vec<(usize, RdmaError)> = Vec::new();
            let mut round_end: Option<SimTime> = None;
            for lane in 0..lanes {
                if posted[lane].is_empty() {
                    continue;
                }
                let (lane_failed, envelope, succeeded) =
                    drain_cq(&endpoints[lane].1, &posted[lane]);
                // Doorbell ring → the lane's first byte is the queueing
                // window; the envelope is the lane's drain. A lane whose
                // every WQE failed still rang its doorbell (zero-width).
                let first = envelope.map_or(t_post, |(s, _)| s);
                sc.record_lane(Stage::DoorbellPost, t_post, first, round, lane as u32);
                if let Some((s, e)) = envelope {
                    sc.record_lane(Stage::CqDrain, s, e, round, lane as u32);
                    round_end = Some(round_end.map_or(e, |r| r.max(e)));
                }
                for (i, s, e) in succeeded {
                    completions[i] = Some((s, e));
                    any_succeeded = true;
                }
                failed.extend(lane_failed);
            }
            // Deferred posts left the clock at the doorbell instant; the
            // round is over when its slowest lane drains.
            if let Some(e) = round_end {
                self.ctx.clock.advance_to(e);
            }
            if failed.is_empty() {
                return Ok(RunOutcome { completions });
            }
            failed.sort_by_key(|&(i, _)| i);
            if round >= self.cfg.verb_retries {
                return Err(DatapathFailure {
                    failures: failed
                        .into_iter()
                        .map(|(i, e)| VerbFailure {
                            tensors: runs[i].names.clone(),
                            retries: retries[i],
                            error: e.to_string(),
                        })
                        .collect(),
                    any_succeeded,
                });
            }
            round += 1;
            let t_backoff = self.ctx.clock.now();
            self.ctx.charge(self.ctx.model.verb_retry_backoff(round));
            sc.record(Stage::RetryBackoff, t_backoff, self.ctx.clock.now(), round);
            pending = failed
                .into_iter()
                .map(|(i, _)| {
                    retries[i] += 1;
                    self.ctx.stats.record_retried_verb();
                    i
                })
                .collect();
        }
    }

    /// Rolls the target slot back after a failed checkpoint, so a
    /// datapath error never strands the slot `Active`. When bytes
    /// landed in a previously-`Done` slot, the old data is clobbered
    /// and its checksum would falsely validate — the slot collapses to
    /// `Empty`; otherwise the exact pre-call header is restored.
    /// `latest_done` and restore are untouched either way.
    fn rollback_slot(
        &self,
        mi: &MIndex,
        slot: usize,
        pre: SlotHeader,
        data_landed: bool,
    ) -> PortusResult<()> {
        if data_landed && pre.state == SlotState::Done {
            self.index.collapse_slot(mi, slot)?;
        } else {
            self.index.revert_slot(mi, slot, &pre)?;
        }
        self.ctx.stats.record_rolled_back_slot();
        Ok(())
    }

    /// [`Self::rollback_slot`], best-effort: a rollback that itself
    /// fails must never mask the datapath error the caller is about to
    /// return — it is only counted. (The slot is then stranded `Active`
    /// until the next recovery epoch reclaims it.)
    fn rollback_best_effort(&self, mi: &MIndex, slot: usize, pre: SlotHeader, data_landed: bool) {
        if self.rollback_slot(mi, slot, pre, data_landed).is_err() {
            self.ctx.stats.record_rollback_failure();
            self.ctx.metrics.record_rollback_failure();
        }
    }

    /// The one seal: each extent of a new version rides a FIFO
    /// persist+digest pipe **as its bytes arrive**, and once the pipe
    /// drains the slot flips to `Done` with the combined positional
    /// digest ([`Index::mark_slot_done`]). A one-QP pool hands the pipe
    /// the whole region as one piece arriving when the pull completes:
    /// one persist pass, then one digest pass split across cores. A
    /// striped pool hands it one piece per run, arriving at the run's
    /// own fabric completion, so work for early runs overlaps, in
    /// virtual time, with later runs still in flight on the NIC
    /// engines. Per-extent digests ([`crate::region_digest`]) combine
    /// order-independently, so restore recomputes the same value from
    /// the region however the extents were cut. A DRAM-fallback daemon
    /// persists nothing; neither does an empty extent.
    fn seal(
        &self,
        mi: &MIndex,
        slot: usize,
        hdr: SlotHeader,
        mut pieces: Vec<SealPiece>,
        sc: &SpanCtx<'_>,
    ) -> PortusResult<()> {
        let ctx = &self.ctx;
        // The stage's own FIFO: extents enter in arrival order, so an
        // extent whose transfer finished first is durable first.
        let pipe = Resource::new("seal-pipe");
        pieces.sort_by_key(|p| (p.arrival, p.rel_off));
        let fabric_end = pieces
            .iter()
            .map(|p| p.arrival)
            .max()
            .unwrap_or_else(|| ctx.clock.now());
        let dev = self.index.device();
        let mut digest = 0u64;
        // Overlap accounting for the pipeline gauge: stage work granted
        // before the last fabric completion ran in the transfer's
        // shadow.
        let mut stage_busy = SimDuration::ZERO;
        let mut stage_overlapped = SimDuration::ZERO;
        let mut track = |start: SimTime, end: SimTime, service: SimDuration| {
            stage_busy += service;
            stage_overlapped += end.min(fabric_end).saturating_since(start.min(fabric_end));
        };
        for piece in &pieces {
            if piece.len > 0 && !self.cfg.dram_fallback {
                let cost = dev.persist_deferred(hdr.data_off + piece.rel_off, piece.len)?;
                let g = pipe.schedule(piece.arrival, cost);
                ctx.stats.record_persist_ns(cost.as_nanos());
                sc.record(Stage::Persist, g.start, g.end, 0);
                track(g.start, g.end, cost);
            }
            let d = match piece.digest {
                Some(d) => d,
                None => {
                    let d = self
                        .index
                        .range_digest(hdr.data_off, piece.rel_off..piece.rel_off + piece.len)?;
                    let cost = ctx.model.dax_read(piece.len);
                    let g = pipe.schedule(piece.arrival, cost);
                    ctx.stats.record_checksum_ns(cost.as_nanos());
                    sc.record(Stage::Checksum, g.start, g.end, 0);
                    track(g.start, g.end, cost);
                    d
                }
            };
            digest = crate::combine_digests(digest, d);
        }
        // The request completes when the pipeline drains (advance_to is
        // monotonic, so an already-later clock is left alone).
        ctx.clock.advance_to(pipe.busy_until());
        ctx.metrics
            .set_pipeline_overlap(stage_overlapped, stage_busy);
        let t0 = ctx.clock.now();
        let done = self.index.mark_slot_done(mi, slot, digest);
        sc.record_now(Stage::HeaderFlip, t0);
        done
    }

    pub(crate) fn register(&self, model: &str, tensors: Vec<TensorDesc>) -> PortusResult<()> {
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        match self.resolve_model(model)? {
            // Re-registration (e.g. after client restart): the structure
            // must match the persistent index.
            Some(off) => check_structure(model, &tensors, &self.index.load_mindex(off)?)?,
            None => {
                let metas: Vec<_> = tensors.iter().map(TensorDesc::meta).collect();
                let mi = self.index.create_model(model, &metas)?;
                match self.catalog() {
                    Some(cat) => {
                        cat.insert(self.index.allocator(), model, mi.offset)?;
                    }
                    None => {
                        self.map.lock().insert(model.to_string(), mi.offset);
                    }
                }
            }
        }
        self.sessions.lock().insert(model.to_string(), tensors);
        Ok(())
    }

    /// Writes a new version of `model` into its target slot: the one
    /// path behind both `DO_CHECKPOINT` and the incremental checkpoint.
    /// Tensors flagged in `dirty` are pulled from GPU memory; clean ones
    /// are carried over from the previous complete version with a
    /// device-local PMem copy (charged at DAX read + write rates).
    /// `None` marks every tensor dirty — a full checkpoint, traced as
    /// [`TraceOp::Checkpoint`] — and so does a model with no complete
    /// version yet. The result is a *complete* version whatever the
    /// mask: crash consistency never depends on how it was written.
    pub(crate) fn write_version(
        &self,
        pool: &QpPool,
        tenant: &TenantCtx,
        model: &str,
        dirty: Option<&[bool]>,
        req_id: u64,
    ) -> PortusResult<Written> {
        let (trace_op, op) = match dirty {
            None => (TraceOp::Checkpoint, "checkpoint"),
            Some(_) => (TraceOp::DeltaCheckpoint, "delta-checkpoint"),
        };
        let sc = SpanCtx::new(&self.ctx, req_id, trace_op, model);
        let _active = self.qos.arbiter.op_guard(tenant);
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let t_op = self.ctx.clock.now();
        let mut mi = self.lookup(model, Some(&sc))?;
        let descs = self
            .sessions
            .lock()
            .get(model)
            .cloned()
            .ok_or_else(|| PortusError::Daemon(format!("no registered session for {model}")))?;
        // Validate the session (and the mask) against the index BEFORE
        // the slot is touched: a rejected request must leave both slot
        // headers exactly as they were, and a failed WQE must mean a
        // fabric problem, not a structure mismatch found mid-pull.
        check_structure(model, &descs, &mi)?;
        if let Some(mask) = dirty.filter(|m| m.len() != mi.tensors.len()) {
            return Err(PortusError::StructureMismatch(format!(
                "{model}: dirty mask has {} entries, index has {} tensors",
                mask.len(),
                mi.tensors.len()
            )));
        }
        let prev_hdr = mi.latest_done().map(|(_, h)| h);

        // Split the mask into work lists. Clean tensors become
        // device-local carry-overs from the previous `Done` slot (plain
        // or extent-mapped) as (src, rel_off, len); dirty ones become
        // posted pull runs. Gaps left by clean tensors break runs, so
        // only genuinely adjacent pulls coalesce.
        let (mut pulled, mut copied) = (0u64, 0u64);
        let mut verbs = Vec::with_capacity(mi.tensors.len());
        let mut carries: Vec<(CarrySrc, u64, u64)> = Vec::new();
        for (i, (rec, desc)) in mi.tensors.iter().zip(&descs).enumerate() {
            let len = rec.meta.size_bytes();
            match prev_hdr {
                Some(ph) if dirty.is_some_and(|mask| !mask[i]) => {
                    let src = if ph.ext_map != 0 {
                        CarrySrc::Extents(ph.ext_map)
                    } else {
                        CarrySrc::Plain(ph.data_off + rec.rel_off)
                    };
                    carries.push((src, rec.rel_off, len));
                    copied += len;
                }
                _ => {
                    verbs.push(TensorVerb::new(rec, desc));
                    pulled += len;
                }
            }
        }
        sc.record_now(Stage::Validate, t_op);

        let t_build = self.ctx.clock.now();
        let runs = coalesce_runs(&verbs);
        sc.record_now(Stage::WqeBuild, t_build);

        let target = mi.target_slot();
        // On a dedup namespace the target slot may hold the older
        // version as an extent map; drop those references *before* the
        // slot is activated, so the rollback target (`hdr`) never
        // carries an extent map and a failed write cannot strand one.
        if mi.slots[target].ext_map != 0 {
            crate::dedup::release_slot_extents(&self.index, &mut mi, target)?;
        }
        // Max over *both* headers, not `latest_done`: a collapsed or
        // reverted slot keeps its issued version as a high-water mark,
        // so a number handed to a failed checkpoint is never reused.
        let version = mi.next_version();
        // Re-attach a data region if the repacker reclaimed this slot.
        // The returned header doubles as the rollback target: captured
        // after region attachment (a fresh region is kept on failure)
        // but before activation.
        let hdr = self.ensure_region_or_reclaim(&mut mi, target)?;
        self.index.mark_slot_active(&mi, target, version)?;

        let dev = Arc::clone(self.index.device());
        let ctx = &self.ctx;
        let striped = pool.len() > 1;
        let t0 = ctx.clock.now();
        // Carry-overs first (device-local), then the posted pulls. A
        // striped seal reuses the digest each copy computed from its
        // bounce buffer, so carried bytes are never read a second time;
        // a one-QP seal digests the whole region, so its copies skip
        // the hashing.
        let mut carried = 0u64;
        let mut pieces: Vec<SealPiece> = Vec::new();
        let carry_result: PortusResult<()> = carries.iter().try_for_each(|&(src, rel, len)| {
            let (digest, read_bytes) = match src {
                CarrySrc::Plain(s) => (
                    copy_on_device(&dev, s, hdr.data_off + rel, len, rel, striped)?,
                    len,
                ),
                CarrySrc::Extents(map_off) => {
                    let rc = crate::dedup::copy_range_from_extents(
                        &self.index,
                        map_off,
                        hdr.data_off,
                        rel,
                        len,
                        striped,
                    )?;
                    (rc.digest, rc.read_bytes)
                }
            };
            ctx.charge(ctx.model.dax_read(read_bytes) + ctx.model.dax_write(len));
            ctx.stats.record_copy(len);
            carried += len;
            if striped {
                pieces.push(SealPiece {
                    rel_off: rel,
                    len,
                    arrival: ctx.clock.now(),
                    digest,
                });
            }
            Ok(())
        });
        if let Err(e) = carry_result {
            self.rollback_best_effort(&mi, target, hdr, carried > 0);
            return Err(e);
        }
        // Only a carry loop that ran to completion gets a span — a
        // midway error must not be attributed as a finished stage.
        if !carries.is_empty() {
            sc.record_now(Stage::CarryCopy, t0);
        }
        // The zero-copy pulls, GPU → PMem: coalesced gather WQEs posted
        // under one doorbell per QP stripe, completions drained off the
        // CQs, failed WQEs retried per-run on their own lane.
        let outcome =
            match self.execute_runs(pool, tenant, &runs, hdr.data_off, Direction::Pull, &sc) {
                Ok(outcome) => outcome,
                Err(fail) => {
                    // Bytes landed if any pull WQE succeeded — or if any
                    // carry-over copy already wrote into the slot.
                    self.rollback_best_effort(&mi, target, hdr, fail.any_succeeded || carried > 0);
                    return Err(fail.into_error(model, op));
                }
            };
        // RDMA landed in the DDIO domain; make it durable (Wei et al.),
        // digest it, and flip the slot to `Done` through the seal pipe.
        let now = ctx.clock.now();
        if striped {
            pieces.extend(
                runs.iter()
                    .zip(&outcome.completions)
                    .map(|(run, c)| SealPiece {
                        rel_off: run.base_rel,
                        len: run.len,
                        arrival: c.map_or(now, |(_, end)| end),
                        digest: None,
                    }),
            );
        } else {
            pieces.push(SealPiece {
                rel_off: 0,
                len: hdr.data_len,
                arrival: now,
                digest: None,
            });
        }
        if let Err(e) = self.seal(&mi, target, hdr, pieces, &sc) {
            // Best-effort: the original error is what the client sees.
            self.rollback_best_effort(&mi, target, hdr, true);
            return Err(e);
        }
        // Dedup tier: the sealed plain region becomes an extent map of
        // content-addressed chunks (failure keeps the plain region).
        if let Some(dcfg) = &self.cfg.dedup {
            mi.slots[target].state = SlotState::Done;
            mi.slots[target].version = version;
            self.ingest_phase(&mut mi, target, dcfg, &sc);
        }
        let elapsed = ctx.clock.now().saturating_since(t0);
        sc.record_now(Stage::Total, t_op);
        Ok(Written {
            version,
            pulled,
            copied,
            elapsed,
        })
    }

    pub(crate) fn restore(
        &self,
        pool: &QpPool,
        tenant: &TenantCtx,
        model: &str,
        descs: &[TensorDesc],
        version: Option<u64>,
        req_id: u64,
    ) -> PortusResult<(u64, u64, SimDuration)> {
        let sc = SpanCtx::new(&self.ctx, req_id, TraceOp::Restore, model);
        let _active = self.qos.arbiter.op_guard(tenant);
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let t_op = self.ctx.clock.now();
        let mi = self.lookup(model, Some(&sc))?;
        // Version-pinned restores let a replicated or sharded client
        // settle every participant on one common checkpoint even when
        // some daemons hold a newer version in their other slot.
        let (slot, hdr) = match version {
            None => mi.latest_done(),
            Some(v) => mi.done_version(v),
        }
        .ok_or_else(|| PortusError::NoValidCheckpoint(model.to_string()))?;
        check_structure(model, descs, &mi)?;
        let verbs: Vec<TensorVerb> = mi
            .tensors
            .iter()
            .zip(descs)
            .map(|(rec, desc)| TensorVerb::new(rec, desc))
            .collect();
        // Validate covers the index/descriptor reconciliation only; it
        // is recorded before the (separately staged) checksum pass so
        // the two spans do not overlap in the trace.
        sc.record_now(Stage::Validate, t_op);

        // An extent-mapped version is materialized into a scratch
        // region first, so the plain restore datapath (verify + pushes)
        // runs unchanged against it. This is where the compression
        // trade-off is paid: stored bytes come off media at DAX-read
        // cost (fewer when compressed), logical bytes land in the
        // scratch region at DAX-write cost. A crash mid-restore leaves
        // the scratch region unreachable and recovery GCs it.
        let mut scratch = None;
        let (mi, hdr) = if hdr.ext_map != 0 {
            let t_mat = self.ctx.clock.now();
            let m = crate::dedup::materialize_slot(&self.index, &mi, slot)?;
            self.ctx.charge(
                self.ctx.model.dax_read(m.stored_read) + self.ctx.model.dax_write(m.logical),
            );
            sc.record_now(Stage::Dedup, t_mat);
            let mut mi = mi;
            mi.slots[slot].data_off = m.region.offset;
            let mut hdr = hdr;
            hdr.data_off = m.region.offset;
            scratch = Some(m.region);
            (mi, hdr)
        } else {
            (mi, hdr)
        };

        let pushed = (|| -> PortusResult<SimDuration> {
            self.verify_slot(&mi, slot, model, &sc)?;

            let t_build = self.ctx.clock.now();
            let runs = coalesce_runs(&verbs);
            sc.record_now(Stage::WqeBuild, t_build);

            let t0 = self.ctx.clock.now();
            // One-sided WRITEs, PMem → GPU: coalesced scatter WQEs under
            // one doorbell, no client CPU involvement. A terminal push
            // failure touches no slot state — the stored version stays
            // `Done` and a later restore can try again.
            self.execute_runs(pool, tenant, &runs, hdr.data_off, Direction::Push, &sc)
                .map_err(|fail| fail.into_error(model, "restore"))?;
            Ok(self.ctx.clock.now().saturating_since(t0))
        })();
        if let Some(region) = scratch {
            // Best-effort: freeing the scratch region must not mask the
            // restore's own outcome (a leak is reclaimed at recovery).
            let _ = self.index.allocator().free(&region);
        }
        let elapsed = pushed?;
        sc.record_now(Stage::Total, t_op);
        Ok((hdr.version, mi.total_bytes, elapsed))
    }

    pub(crate) fn mark_complete(&self, model: &str) -> PortusResult<()> {
        // Slot flags may not change under a concurrent checkpoint of
        // the same model: take the model lock like every other mutator.
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let mi = self.lookup(model, None)?;
        self.index.set_job_complete(&mi)
    }

    pub(crate) fn drop_model(&self, model: &str) -> PortusResult<()> {
        {
            let lock = self.model_lock(model);
            let _guard = lock.lock();
            let off = self
                .resolve_model(model)?
                .ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
            self.index.remove_model_at(model, off)?;
            match self.catalog() {
                Some(cat) => {
                    cat.remove(self.index.allocator(), model)?;
                }
                None => {
                    self.map.lock().remove(model);
                }
            }
            self.sessions.lock().remove(model);
        }
        // Reap the per-model lock entry, or a long-lived multi-tenant
        // daemon grows `model_locks` without bound. Holding the
        // `model_locks` mutex means nobody can clone the Arc
        // concurrently, so a strong count of 1 (the map's own
        // reference) proves no waiter holds it; leave it for a
        // contending thread to observe `ModelNotFound` otherwise.
        let mut locks = self.model_locks.lock();
        if let Some(l) = locks.get(model) {
            if Arc::strong_count(l) == 1 {
                locks.remove(model);
            }
        }
        Ok(())
    }

    pub(crate) fn list_models(&self) -> PortusResult<Vec<ModelSummary>> {
        let offsets: Vec<u64> = match self.catalog() {
            Some(cat) => cat.scan()?.into_iter().map(|(_, off)| off).collect(),
            None => self.map.lock().values().copied().collect(),
        };
        ModelSummary::load_all(&self.index, offsets)
    }
}
