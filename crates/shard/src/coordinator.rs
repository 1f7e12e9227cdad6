//! The scatter-gather coordinator: one [`WhyNotEngine`] per shard
//! (plus optional read replicas), a full-corpus mirror dataset for
//! penalty bookkeeping, and merge logic proven bit-identical to the
//! single-shard engine.
//!
//! # Bit-identity argument
//!
//! Scoring is corpus-free — `ST(o, q)` depends only on the object, the
//! query, and the *world bounds* — so a shard-local SetR-tree built
//! over its slice with the shared world bounds produces exactly the
//! float bits the global tree would for the same object. Three facts
//! follow:
//!
//! * **top-k**: any member of the global top-k is within its own
//!   shard's local top-k (fewer than `k` objects precede it in the
//!   total order `(score desc, id asc)` globally, hence also within the
//!   shard), so merging per-shard top-k lists under the same total
//!   order and truncating to `k` reproduces the global list bit for
//!   bit.
//! * **ranks**: dominator counts are additive over a disjoint
//!   partition, so `R(M, q) = 1 + Σ_s |{o ∈ shard_s : ST(o,q) >
//!   min_m ST(m,q)}|` equals the single-engine rank scan.
//! * **why-not**: the coordinator runs the core library's one
//!   Algorithm-4 driver over the mirror (same enumeration, same penalty
//!   model, same sequence-numbered merge) with AdvancedBS's serial
//!   verifier, Opt1 and Opt2 on and Opt3 off
//!   ([`wnsk_core::answer_counted`]); the only sharded part is the rank:
//!   each candidate's rank, and `R(M, q)` itself, is a scatter of
//!   shard-local [`WhyNotEngine::count_dominators`] scans under the
//!   *full* tie-permissive rank limit. A shard aborting at limit `l`
//!   implies the global scan would abort; all shards exact with
//!   `Σ + 1 ≤ l` implies the global scan completes with the same rank —
//!   so prune/accept decisions, the answer and every work counter match
//!   the one-shard solver exactly, for every scatter thread count.
//!
//! The driver's shared penalty bound is the cross-shard bound: every
//! improvement a candidate streams back tightens the rank limit later
//! candidates scatter with, and the tightening count is exported as
//! `shard.bound_tightenings`.
//!
//! # Durability
//!
//! [`Coordinator::attach_wal_dir`] gives each shard primary its own
//! WAL (`shard-<i>.wal`) plus a coordinator-level *route log*
//! (`route.wal`) recording `(shard, global id, mutation)` for every
//! accepted mutation — appended and committed *before* the shard
//! ingest, so the route log is always a superset of every shard WAL.
//! Recovery replays each shard WAL independently, then walks the route
//! log in order: records a shard already applied (its recovered epoch
//! covers them) only rebuild the mirror and id maps; records a crashed
//! shard lost are re-ingested through its WAL. Losing one shard's WAL
//! file therefore loses nothing: the route log re-drives that shard
//! back to the exact global state.

use crate::partition::ShardManifest;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wnsk_core::{
    answer_counted, Mutation, WhyNotAnswer, WhyNotEngine, WhyNotError, WhyNotQuestion,
};
use wnsk_exec::{ExecMetrics, Executor};
use wnsk_index::{Dataset, ObjectId, SpatialKeywordQuery, SpatialObject};
use wnsk_obs::{names, Counter, Hist, JsonValue, Registry};
use wnsk_storage::{BufferPool, FileBackend, RecoveryReport, Wal};
use wnsk_text::Vocabulary;

/// Errors surfaced by the coordinator.
#[derive(Debug)]
pub enum ShardError {
    /// An underlying engine error (solver, index, storage).
    Engine(WhyNotError),
    /// A mutation was shed by the target shard's admission control.
    Shed {
        /// The shard that refused the mutation.
        shard: usize,
    },
    /// Configuration or manifest inconsistency.
    Config(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Engine(e) => write!(f, "{e}"),
            ShardError::Shed { shard } => write!(f, "shard {shard} admission: over capacity"),
            ShardError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<WhyNotError> for ShardError {
    fn from(e: WhyNotError) -> Self {
        ShardError::Engine(e)
    }
}

impl From<wnsk_storage::StorageError> for ShardError {
    fn from(e: wnsk_storage::StorageError) -> Self {
        ShardError::Engine(e.into())
    }
}

/// Coordinator result type.
pub type Result<T> = std::result::Result<T, ShardError>;

/// Construction knobs for [`Coordinator::new`].
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Copies of every shard, including the primary (1 = no replicas).
    /// Replicas are read-only fan-out targets behind the same
    /// epoch-stamped invalidation; writes go to every copy.
    pub replicas: usize,
    /// Threads used to scatter queries across shards (1 = sequential).
    /// Purely a wall-time knob: merged answers are bit-identical for
    /// every value.
    pub threads: usize,
    /// Per-shard in-flight mutation cap; a routed mutation arriving
    /// while the target shard already holds `cap` in flight is shed
    /// (`ShardError::Shed`). `None` disables shedding.
    pub admission_cap: Option<u64>,
    /// Index fanout for the per-shard trees.
    pub fanout: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            replicas: 1,
            threads: 1,
            admission_cap: None,
            fanout: wnsk_core::DEFAULT_FANOUT,
        }
    }
}

/// One shard: a primary engine, optional read replicas, the local→
/// global id map, and admission state.
struct Shard {
    primary: WhyNotEngine,
    replicas: Vec<WhyNotEngine>,
    /// Local slot id → global slot id (dense, includes tombstones).
    global_of_local: Vec<ObjectId>,
    /// Read fan-out cursor (primary + replicas, round-robin).
    rr: AtomicUsize,
    /// Mutations currently in flight against this shard.
    inflight: AtomicU64,
    /// Mutations shed by this shard's admission control.
    shed: AtomicU64,
}

/// A point-in-time view of one shard, for `/healthz` and `wnsk top`.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Total copies (primary + read replicas).
    pub replicas: usize,
    /// Live objects on the shard.
    pub objects: usize,
    /// The shard primary's dataset epoch (mutations applied).
    pub epoch: u64,
    /// Mutations currently in flight (the per-shard queue depth).
    pub inflight: u64,
    /// The admission cap, when shedding is enabled.
    pub admission_cap: Option<u64>,
    /// Mutations shed by admission control.
    pub shed: u64,
    /// Last LSN of the shard's WAL (0 when none is attached).
    pub wal_lsn: u64,
}

impl ShardStatus {
    /// Renders as a JSON object (one `/healthz` "shards" row).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("shard", JsonValue::from(self.shard)),
            ("replicas", JsonValue::from(self.replicas)),
            ("objects", JsonValue::from(self.objects)),
            ("epoch", JsonValue::from(self.epoch)),
            ("inflight", JsonValue::from(self.inflight)),
            (
                "admission_cap",
                match self.admission_cap {
                    Some(cap) => JsonValue::from(cap),
                    None => JsonValue::Null,
                },
            ),
            ("shed", JsonValue::from(self.shed)),
            ("wal_lsn", JsonValue::from(self.wal_lsn)),
        ])
    }
}

/// What [`Coordinator::attach_wal_dir`] recovered.
#[derive(Debug, Default)]
pub struct ShardRecovery {
    /// Per-shard WAL recovery reports, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// Committed records found in the route log.
    pub route_records: u64,
    /// Route records re-ingested into shards whose own WAL had lost
    /// them (nonzero after a shard-level crash).
    pub redone: u64,
}

/// The scatter-gather coordinator over a keyword-aware partition.
pub struct Coordinator {
    manifest: ShardManifest,
    term_routes: BTreeMap<u32, usize>,
    shards: Vec<Shard>,
    /// Full-corpus mirror (no indexes): drives enumeration benefits,
    /// penalty normalisers and liveness checks with exactly the state a
    /// single engine would hold.
    mirror: Dataset,
    /// Global slot id → (shard, local slot id).
    locate: Vec<(u32, u32)>,
    threads: usize,
    admission_cap: Option<u64>,
    epoch: u64,
    route_wal: Option<Wal>,
    wal_dir: Option<PathBuf>,
    vocabulary: Option<Vocabulary>,
    registry: Registry,
    scatter_count: Counter,
    merge_ns: Hist,
    tightenings: Counter,
    replica_hits: Counter,
}

impl Coordinator {
    /// Builds one engine (plus replicas) per manifest shard over the
    /// partition of `dataset`. Every shard dataset shares the global
    /// world bounds, so shard-local scores are bit-identical to global
    /// ones; `dataset` itself is retained as the coordinator's mirror.
    pub fn new(
        dataset: Dataset,
        manifest: ShardManifest,
        config: CoordinatorConfig,
    ) -> Result<Self> {
        if manifest.shard_count() == 0 {
            return Err(ShardError::Config("manifest has no shards".into()));
        }
        let covered: usize = manifest.shards.iter().map(|s| s.object_count()).sum();
        if covered != dataset.len() {
            return Err(ShardError::Config(format!(
                "manifest covers {covered} objects, dataset has {}",
                dataset.len()
            )));
        }
        let world = *dataset.world();
        let mut locate = vec![(u32::MAX, u32::MAX); dataset.len()];
        let mut shards = Vec::with_capacity(manifest.shard_count());
        for (s, spec) in manifest.shards.iter().enumerate() {
            let mut global_of_local = Vec::with_capacity(spec.object_count());
            let mut objects: Vec<SpatialObject> = Vec::with_capacity(spec.object_count());
            for gid in spec.ids() {
                if (gid as usize) >= dataset.len() || locate[gid as usize].0 != u32::MAX {
                    return Err(ShardError::Config(format!(
                        "manifest assigns object {gid} out of range or twice"
                    )));
                }
                locate[gid as usize] = (s as u32, global_of_local.len() as u32);
                global_of_local.push(ObjectId(gid));
                objects.push(dataset.object(ObjectId(gid)).clone());
            }
            let local = Dataset::new(objects, world);
            let primary = WhyNotEngine::build_with(
                local.clone(),
                config.fanout,
                wnsk_storage::BufferPoolConfig::default(),
            )?;
            let replicas = (1..config.replicas.max(1))
                .map(|_| {
                    WhyNotEngine::build_with(
                        local.clone(),
                        config.fanout,
                        wnsk_storage::BufferPoolConfig::default(),
                    )
                })
                .collect::<std::result::Result<Vec<_>, _>>()?;
            shards.push(Shard {
                primary,
                replicas,
                global_of_local,
                rr: AtomicUsize::new(0),
                inflight: AtomicU64::new(0),
                shed: AtomicU64::new(0),
            });
        }
        let registry = Registry::new();
        let scatter_count = registry.counter(names::SHARD_SCATTER);
        let merge_ns = registry.hist(names::SHARD_MERGE_NS);
        let tightenings = registry.counter(names::SHARD_BOUND_TIGHTENINGS);
        let replica_hits = registry.counter(names::SHARD_REPLICA_HITS);
        Ok(Coordinator {
            term_routes: manifest.term_routes(),
            manifest,
            shards,
            mirror: dataset,
            locate,
            threads: config.threads.max(1),
            admission_cap: config.admission_cap,
            epoch: 0,
            route_wal: None,
            wal_dir: None,
            vocabulary: None,
            registry,
            scatter_count,
            merge_ns,
            tightenings,
            replica_hits,
        })
    }

    /// Attaches a vocabulary for keyword rendering/resolution.
    pub fn with_vocabulary(mut self, vocabulary: Vocabulary) -> Self {
        self.vocabulary = Some(vocabulary);
        self
    }

    /// The attached vocabulary, if any.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocabulary.as_ref()
    }

    /// The partition plan this coordinator serves.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The coordinator's view of the full corpus (the mirror dataset).
    pub fn dataset(&self) -> &Dataset {
        &self.mirror
    }

    /// The coordinator metrics registry (`shard.*`; the serving layer
    /// adds its `serve.*` handles here too).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Shard `s`'s primary engine (per-shard admin planes scrape its
    /// registry; tests inspect it).
    pub fn shard_engine(&self, s: usize) -> &WhyNotEngine {
        &self.shards[s].primary
    }

    /// A clone (shared handles) of shard `s`'s primary registry.
    pub fn shard_registry(&self, s: usize) -> Registry {
        self.shards[s].primary.registry().clone()
    }

    /// Global dataset epoch: mutations applied through the coordinator
    /// (equals the sum of shard epochs and the epoch a single engine
    /// fed the same stream would report).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the durable plane (route log + shard WALs) is attached.
    pub fn wal_attached(&self) -> bool {
        self.route_wal.is_some()
    }

    /// The WAL directory, when attached.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// Point-in-time per-shard status rows.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| ShardStatus {
                shard: s,
                replicas: 1 + shard.replicas.len(),
                objects: shard.primary.dataset().live_len(),
                epoch: shard.primary.epoch(),
                inflight: shard.inflight.load(Ordering::Relaxed),
                admission_cap: self.admission_cap,
                shed: shard.shed.load(Ordering::Relaxed),
                wal_lsn: shard.primary.wal().map(Wal::last_lsn).unwrap_or(0),
            })
            .collect()
    }

    /// The `/healthz` "shards" array.
    pub fn statuses_json(&self) -> JsonValue {
        JsonValue::Array(
            self.shard_statuses()
                .iter()
                .map(ShardStatus::to_json)
                .collect(),
        )
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attaches the durable plane under `dir`: one `shard-<i>.wal` per
    /// shard primary plus the coordinator `route.wal`, replaying all of
    /// them (see the module docs for the recovery protocol). Call on a
    /// freshly built coordinator, before any ingest.
    pub fn attach_wal_dir(&mut self, dir: &Path) -> Result<ShardRecovery> {
        if self.route_wal.is_some() {
            return Err(ShardError::Config(
                "a WAL directory is already attached".into(),
            ));
        }
        if self.epoch != 0 {
            return Err(ShardError::Config(
                "attach_wal_dir must run before any ingest".into(),
            ));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| ShardError::Config(format!("{}: {e}", dir.display())))?;
        let mut recovery = ShardRecovery::default();
        // Phase 1: every shard recovers its own WAL independently.
        let mut shard_epochs = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let path = dir.join(format!("shard-{s}.wal"));
            let pool = open_pool(&path)?;
            let report = shard.primary.attach_wal(pool)?;
            shard_epochs.push(shard.primary.epoch());
            recovery.shards.push(report);
        }
        // Phase 2: read the route log.
        let route_path = dir.join("route.wal");
        let route_pool = open_pool(&route_path)?;
        let mut records: Vec<(usize, u32, Mutation)> = Vec::new();
        let (wal, _report) = Wal::recover(route_pool, |_lsn, kind, payload| {
            let (shard, gid, m) = decode_route(kind, payload)?;
            records.push((shard, gid, m));
            Ok(())
        })?;
        recovery.route_records = records.len() as u64;
        // Phase 3: replay the route log in order. `applied[s]` counts
        // route records targeting shard s; the first `shard_epochs[s]`
        // of them were already re-applied by the shard's own WAL.
        let mut applied = vec![0u64; self.shards.len()];
        for (s, gid, m) in records {
            if s >= self.shards.len() {
                return Err(ShardError::Config(format!(
                    "route log references shard {s} of {}",
                    self.shards.len()
                )));
            }
            let local_m = self.localize(s, gid, &m)?;
            applied[s] += 1;
            let redo = applied[s] > shard_epochs[s];
            if redo {
                recovery.redone += 1;
                self.shards[s].primary.ingest(&local_m)?;
            }
            for replica in &mut self.shards[s].replicas {
                replica.apply(&local_m)?;
            }
            self.apply_to_mirror(s, gid, &m)?;
        }
        for (s, shard_epoch) in shard_epochs.iter().enumerate() {
            if *shard_epoch > applied[s] {
                return Err(ShardError::Config(format!(
                    "shard {s} WAL holds {shard_epoch} mutations but the route log only {} — \
                     route log must be committed first",
                    applied[s]
                )));
            }
        }
        self.route_wal = Some(wal);
        self.wal_dir = Some(dir.to_path_buf());
        Ok(recovery)
    }

    /// Rewrites a global-form mutation into shard `s`'s local id space.
    fn localize(&self, s: usize, gid: u32, m: &Mutation) -> Result<Mutation> {
        Ok(match m {
            Mutation::Insert { loc, doc } => Mutation::Insert {
                loc: *loc,
                doc: doc.clone(),
            },
            Mutation::Remove { .. } => Mutation::Remove {
                id: self.local_id(s, gid)?,
            },
            Mutation::UpdateDoc { doc, .. } => Mutation::UpdateDoc {
                id: self.local_id(s, gid)?,
                doc: doc.clone(),
            },
        })
    }

    fn local_id(&self, s: usize, gid: u32) -> Result<ObjectId> {
        let &(shard, local) = self
            .locate
            .get(gid as usize)
            .ok_or_else(|| ShardError::Config(format!("unknown global id {gid}")))?;
        if shard as usize != s {
            return Err(ShardError::Config(format!(
                "global id {gid} lives on shard {shard}, not {s}"
            )));
        }
        Ok(ObjectId(local))
    }

    /// Applies a global-form mutation to the mirror and maintains the
    /// id maps. The local slot for an insert is the shard's current
    /// slot count: `global_of_local` is dense over every slot the shard
    /// ever assigned (tombstones included), so its length *is* the next
    /// local id — during live ingest and route-log replay alike (the
    /// shard's own WAL replay may run ahead of the route walk, but it
    /// never touches `global_of_local`).
    fn apply_to_mirror(&mut self, s: usize, gid: u32, m: &Mutation) -> Result<()> {
        match m {
            Mutation::Insert { loc, doc } => {
                let assigned = self.mirror.insert(*loc, doc.clone())?;
                if assigned.0 != gid {
                    return Err(ShardError::Config(format!(
                        "route log expects global id {gid}, mirror assigned {}",
                        assigned.0
                    )));
                }
                let local = self.shards[s].global_of_local.len() as u32;
                self.shards[s].global_of_local.push(ObjectId(gid));
                self.locate.push((s as u32, local));
            }
            Mutation::Remove { .. } => {
                self.mirror.remove(ObjectId(gid))?;
            }
            Mutation::UpdateDoc { doc, .. } => {
                self.mirror.update_doc(ObjectId(gid), doc.clone())?;
            }
        }
        self.epoch += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Routes one mutation to its shard and applies it everywhere:
    /// route log first (when attached), then the shard primary (and its
    /// WAL), then every replica, then the mirror. Returns the *global*
    /// id of the affected object.
    pub fn ingest(&mut self, m: &Mutation) -> Result<ObjectId> {
        // Resolve the target shard and global id up front, so nothing
        // is partially applied on a routing error.
        let (s, gid) = match m {
            Mutation::Insert { loc, doc } => {
                if !self.mirror.world().rect().contains_point(loc) {
                    return Err(ShardError::Engine(
                        wnsk_storage::StorageError::invalid_argument(
                            "ingest",
                            format!("location {loc:?} lies outside the world bounds"),
                        )
                        .into(),
                    ));
                }
                let s =
                    self.manifest
                        .route_insert(doc, loc, self.mirror.world(), &self.term_routes);
                (s, self.mirror.len() as u32)
            }
            Mutation::Remove { id } | Mutation::UpdateDoc { id, .. } => {
                if !self.mirror.is_live(*id) {
                    return Err(ShardError::Engine(
                        wnsk_storage::StorageError::invalid_argument(
                            "ingest",
                            format!("{id:?} is not live"),
                        )
                        .into(),
                    ));
                }
                (self.locate[id.0 as usize].0 as usize, id.0)
            }
        };
        // Per-shard admission: an instantaneous in-flight gauge against
        // the cap. Queries are never shed (that would break
        // bit-identity); only routed mutations are.
        let inflight = self.shards[s].inflight.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.admission_cap {
            if inflight >= cap {
                self.shards[s].inflight.fetch_sub(1, Ordering::Relaxed);
                self.shards[s].shed.fetch_add(1, Ordering::Relaxed);
                return Err(ShardError::Shed { shard: s });
            }
        }
        let result = self.ingest_routed(s, gid, m);
        self.shards[s].inflight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn ingest_routed(&mut self, s: usize, gid: u32, m: &Mutation) -> Result<ObjectId> {
        // Route log strictly before the shard ingest: recovery relies on
        // the route log covering every shard WAL record.
        if let Some(wal) = self.route_wal.as_mut() {
            wal.append(m.kind(), &encode_route(s, gid, m))?;
            wal.commit()?;
        }
        let local_m = self.localize(s, gid, m)?;
        let local_id = self.shards[s].primary.ingest(&local_m)?;
        for replica in &mut self.shards[s].replicas {
            replica.apply(&local_m)?;
        }
        self.apply_to_mirror(s, gid, m)?;
        if matches!(m, Mutation::Insert { .. }) {
            debug_assert_eq!(
                self.locate[gid as usize],
                (s as u32, local_id.0),
                "local slot reconstruction must match the shard's dense assignment"
            );
        }
        Ok(ObjectId(gid))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Picks the read engine for shard `s`: primary when unreplicated,
    /// round-robin over primary + replicas otherwise (replica reads
    /// count into `shard.replica_hits`).
    fn read_engine(&self, s: usize) -> &WhyNotEngine {
        let shard = &self.shards[s];
        let copies = 1 + shard.replicas.len();
        if copies == 1 {
            return &shard.primary;
        }
        let i = shard.rr.fetch_add(1, Ordering::Relaxed) % copies;
        if i == 0 {
            &shard.primary
        } else {
            self.replica_hits.inc();
            &shard.replicas[i - 1]
        }
    }

    /// Scatters `f` to every shard on the coordinator's thread pool and
    /// gathers the results in shard order (a sequence barrier: results
    /// are merged only after every shard answered, so the merge is
    /// deterministic for every thread count).
    fn scatter<R, F>(&self, f: F) -> wnsk_core::Result<Vec<R>>
    where
        R: Send,
        F: Fn(usize, &WhyNotEngine) -> wnsk_core::Result<R> + Sync,
    {
        self.scatter_count.inc();
        let n = self.shards.len();
        if self.threads <= 1 || n == 1 {
            return (0..n).map(|s| f(s, self.read_engine(s))).collect();
        }
        let exec = Executor::new(self.threads.min(n));
        let metrics = ExecMetrics::new(exec.threads());
        let states = exec.run(
            (0..n).collect(),
            &metrics,
            || false,
            |_| Vec::new(),
            |state: &mut Vec<(usize, R)>, s, _h| -> wnsk_core::Result<()> {
                state.push((s, f(s, self.read_engine(s))?));
                Ok(())
            },
        )?;
        // Never cancelled and no task failed: every shard answered.
        let mut merged: Vec<(usize, R)> = states.into_iter().flatten().collect();
        assert_eq!(merged.len(), n, "scatter lost a shard result");
        merged.sort_by_key(|&(s, _)| s);
        Ok(merged.into_iter().map(|(_, r)| r).collect())
    }

    /// Scatter-gather top-k: per-shard top-k lists (local ids mapped
    /// back to global), merged under the engine's total order
    /// `(score desc, id asc)` and truncated to `k`. Bit-identical to
    /// the single-engine list.
    pub fn top_k(&self, query: &SpatialKeywordQuery) -> Result<Vec<(ObjectId, f64)>> {
        let per_shard = self.scatter(|s, engine| {
            let hits = engine.top_k(query)?;
            let map = &self.shards[s].global_of_local;
            Ok(hits
                .into_iter()
                .map(|(local, score)| (map[local.0 as usize], score))
                .collect::<Vec<(ObjectId, f64)>>())
        })?;
        let merge_start = Instant::now();
        let mut all: Vec<(ObjectId, f64)> = per_shard.into_iter().flatten().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        all.truncate(query.k);
        self.merge_ns.record_duration(merge_start.elapsed());
        Ok(all)
    }

    /// Answers a why-not question with the scatter-gather solver: the
    /// shared Algorithm-4 driver over the mirror, verifying candidates
    /// with AdvancedBS's serial path (Opt1 and Opt2 on, Opt3 off) where
    /// every rank — `R(M, q)` included — is the sum of scattered
    /// shard-local dominator counts ([`answer_counted`]). Always exact (no
    /// budget ladder); bit-identical to the single-engine solvers.
    pub fn whynot(&self, question: &WhyNotQuestion) -> Result<WhyNotAnswer> {
        let answer = answer_counted(&self.mirror, question, |query, min_score, limit| {
            // Full-limit scatter: every shard counts under the same
            // tie-permissive limit; the summed counts reproduce the single
            // scan's abort/complete decision.
            let counts =
                self.scatter(|_s, engine| engine.count_dominators(query, min_score, limit))?;
            Ok(counts.into_iter().sum())
        })?;
        self.tightenings.add(answer.stats.bound_refreshes);
        Ok(answer)
    }
}

fn open_pool(path: &Path) -> Result<std::sync::Arc<BufferPool>> {
    let backend = if path.exists() {
        FileBackend::open(path)
    } else {
        FileBackend::create(path)
    }
    .map_err(|e| ShardError::Config(format!("{}: {e}", path.display())))?;
    Ok(std::sync::Arc::new(BufferPool::with_default_config(
        std::sync::Arc::new(backend),
    )))
}

/// Route-log payload: `[shard u32 LE][global id u32 LE][mutation]`.
fn encode_route(shard: usize, gid: u32, m: &Mutation) -> Vec<u8> {
    let body = m.encode();
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(shard as u32).to_le_bytes());
    out.extend_from_slice(&gid.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_route(kind: u8, payload: &[u8]) -> wnsk_storage::Result<(usize, u32, Mutation)> {
    if payload.len() < 8 {
        return Err(wnsk_storage::StorageError::corrupt(
            "route log",
            "record shorter than its header",
        ));
    }
    let shard = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let gid = u32::from_le_bytes(payload[4..8].try_into().unwrap());
    let m = Mutation::decode(kind, &payload[8..])
        .map_err(|e| wnsk_storage::StorageError::corrupt("route log", e.to_string()))?;
    Ok((shard, gid, m))
}
