use std::collections::HashSet;

use rand::rngs::StdRng;

use rwbc_graph::{Graph, NodeId};

use crate::config::ViolationPolicy;
use crate::fault::{CorruptionKind, FaultPlan};
use crate::metrics::EngineMetrics;
use crate::node::{Context, Incoming};
use crate::rng::node_rng;
use crate::stats::ordered;
use crate::trace::{DropReason, TraceEvent, Tracer};
use crate::wire::{crc32, BitReader, BitWriter, WireState};
use crate::{Message, NodeProgram, RunStats, SimConfig, SimError};

/// Per-node outgoing `(destination, message)` buffers for one round.
type Outboxes<M> = Vec<Vec<(NodeId, M)>>;

/// One destination group of a prepared outbox: `(destination, messages,
/// bits)`, the unit the per-edge-direction budgets are charged on.
type Group = (NodeId, usize, usize);

/// Magic word opening every checkpoint image.
const CHECKPOINT_MAGIC: u64 = 0xC4EC_5A7E;
/// Bumped whenever the checkpoint layout changes incompatibly; only this
/// version restores. Version 2 added [`RunStats::peak_edge`]; version 3
/// added the corruption counters and reframed the body into CRC-guarded
/// sections (see [`Simulator::checkpoint`]).
const CHECKPOINT_VERSION: u64 = 3;

/// Renders a worker panic payload for [`SimError::WorkerPanic`]. Panics
/// raised via `panic!("..")` carry `&str` or `String`; anything else is
/// opaque and rendered as a placeholder.
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// The synchronous CONGEST round engine.
///
/// Owns one [`NodeProgram`] per node and drives them in lockstep. See the
/// crate docs for the model and an example.
///
/// The engine is deterministic: a fixed `(graph, config.seed, program)`
/// triple replays the identical execution, bit for bit, regardless of the
/// configured thread count.
#[derive(Debug)]
pub struct Simulator<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: SimConfig,
    programs: Vec<P>,
    rngs: Vec<StdRng>,
    /// Messages to be delivered at the start of the next round.
    pending: Vec<Vec<Incoming<P::Msg>>>,
    /// Messages held back one round by fault-injected delay; they join
    /// `pending` at the next step and are delivered the round after.
    delayed: Vec<Vec<Incoming<P::Msg>>>,
    /// Double buffer for `pending`: each step swaps the two, delivers
    /// from this side, and clears it (keeping capacity), so steady-state
    /// rounds allocate no inbox storage at all. Always empty between
    /// steps — checkpoints never see it.
    inboxes: Vec<Vec<Incoming<P::Msg>>>,
    /// Persistent per-node outgoing buffers, drained by the commit spine
    /// each round and reused. Always empty between steps.
    outboxes: Outboxes<P::Msg>,
    /// The worker count the round loop actually uses:
    /// [`SimConfig::effective_threads`] evaluated once for this graph.
    /// 1 means every round runs on the calling thread.
    effective_threads: usize,
    /// Destination groups of prepared outboxes, in the slots
    /// [`group_slots`] allocates. Persistent scratch — refilled each
    /// round, never checkpointed.
    sender_groups: Vec<Vec<Group>>,
    /// Per-worker scatter arenas (`workers × n` destination columns):
    /// wave 1 moves each worker's outgoing messages into its own arena,
    /// and the merge wave splices column `to` of every arena into
    /// `pending[to]` in worker order — ascending worker index is
    /// ascending sender range, so delivery order is bit-identical to a
    /// one-worker round. Only used when the fault plan consumes no
    /// per-message randomness; persistent scratch, empty between
    /// rounds.
    worker_inboxes: Vec<Vec<Vec<Incoming<P::Msg>>>>,
    /// Commit through the reference implementation (testing only; see
    /// [`Simulator::with_reference_delivery`]).
    reference_delivery: bool,
    in_flight: usize,
    stats: RunStats,
    round: usize,
    started: bool,
    cut_set: HashSet<(NodeId, NodeId)>,
    /// Dedicated RNG for fault injection, independent of node coins. Only
    /// consulted when a probabilistic fault is enabled, so an empty
    /// [`FaultPlan`] replays fault-free traces exactly.
    fault_rng: StdRng,
    /// Optional event sink. `None` (the default) keeps every tracing
    /// hook behind a single branch, so untraced runs construct no
    /// events at all and stay bit-identical to pre-tracing builds.
    tracer: Option<&'g mut dyn Tracer>,
    /// Optional live-metrics handles, updated once per committed round
    /// on the single-threaded commit spine — so metric *content* is
    /// thread-count-invariant exactly like the trace stream. `None`
    /// keeps the hot path branch-free apart from a single check.
    metrics: Option<EngineMetrics>,
    /// Per-node buffers for program-emitted events; drained in node
    /// order each round so traces are thread-count independent. Empty
    /// unless a tracer is attached.
    node_trace: Vec<Vec<TraceEvent>>,
    /// Last observed crash state per node, for emitting
    /// [`TraceEvent::NodeDown`]/[`TraceEvent::NodeUp`] transitions.
    /// Populated lazily and only when traced.
    crashed_prev: Vec<bool>,
}

impl<'g, P> Simulator<'g, P>
where
    P: NodeProgram + Send,
    P::Msg: Message,
{
    /// Creates a simulator, instantiating one program per node via
    /// `factory(node_id)`.
    pub fn new(graph: &'g Graph, config: SimConfig, mut factory: impl FnMut(NodeId) -> P) -> Self {
        let n = graph.node_count();
        let programs: Vec<P> = (0..n).map(&mut factory).collect();
        let rngs: Vec<StdRng> = (0..n).map(|v| node_rng(config.seed, v)).collect();
        let cut_set: HashSet<(NodeId, NodeId)> =
            config.cut.iter().map(|&(u, v)| ordered(u, v)).collect();
        let effective_threads = config.effective_threads(n);
        let stats = RunStats {
            budget_bits: config.budget_bits(n),
            effective_threads,
            granularity: config.granularity.max(1),
            ..RunStats::default()
        };
        let fault_rng = node_rng(config.seed ^ 0xFA_17, usize::MAX / 2);
        Simulator {
            graph,
            config,
            programs,
            rngs,
            pending: (0..n).map(|_| Vec::new()).collect(),
            delayed: (0..n).map(|_| Vec::new()).collect(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            outboxes: (0..n).map(|_| Vec::new()).collect(),
            effective_threads,
            sender_groups: group_slots(n, effective_threads),
            worker_inboxes: Vec::new(),
            reference_delivery: false,
            in_flight: 0,
            stats,
            round: 0,
            started: false,
            cut_set,
            fault_rng,
            tracer: None,
            metrics: None,
            node_trace: Vec::new(),
            crashed_prev: Vec::new(),
        }
    }

    /// Commits every round through the reference implementation
    /// (per-group allocation, a `has_edge` lookup per group, no buffer
    /// reuse) instead of the prepare → book spine; the node callbacks
    /// run exactly as they otherwise would, at any thread count. The
    /// observable execution — stats, traces, checkpoints, RNG streams —
    /// is identical to the normal path. Exists so the test suite can
    /// check the commit against an oracle; not useful otherwise.
    #[doc(hidden)]
    pub fn with_reference_delivery(mut self, reference: bool) -> Self {
        self.reference_delivery = reference;
        self
    }

    /// Attaches a [`Tracer`] that will receive the run's event stream.
    /// The event sequence is deterministic at any thread count (see the
    /// [`trace`](crate::trace) module docs); only wall-clock fields in
    /// driver-emitted spans vary between replays. Tracing never alters
    /// the simulation: statistics and checkpoints are bit-identical
    /// with or without a tracer attached.
    pub fn with_tracer(mut self, tracer: &'g mut dyn Tracer) -> Self {
        self.node_trace = (0..self.graph.node_count()).map(|_| Vec::new()).collect();
        self.tracer = Some(tracer);
        self
    }

    /// Detaches the tracer and hands it back, so a driver that runs
    /// several simulators in turn can lend each one the same sink. The
    /// simulator is untraced afterwards.
    pub fn take_tracer(&mut self) -> Option<&'g mut dyn Tracer> {
        self.node_trace = Vec::new();
        self.tracer.take()
    }

    /// Attaches live-metrics handles (see [`EngineMetrics`]). Updates
    /// happen once per committed round on the commit spine: the rounds
    /// counter advances per round, message/bit counters by that round's
    /// committed totals, and the inbox-depth gauge is set to the number
    /// of messages in flight into the next round. Like tracing, metrics
    /// never alter the simulation.
    pub fn with_metrics(mut self, metrics: EngineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches (or replaces) live-metrics handles in place — the
    /// post-[`restore`](Simulator::restore) form of
    /// [`Simulator::with_metrics`].
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// The simulated graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Read access to node `v`'s program (e.g. to harvest results).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn program(&self, v: NodeId) -> &P {
        &self.programs[v]
    }

    /// All node programs, indexed by node id.
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Mutable access to every node program, e.g. to re-apply settings a
    /// checkpoint image does not carry after [`Simulator::restore`].
    pub fn programs_mut(&mut self) -> &mut [P] {
        &mut self.programs
    }

    /// Every message sent but not yet delivered, delayed ones included —
    /// e.g. to check a restored image against the network.
    pub fn in_flight(&self) -> impl Iterator<Item = &Incoming<P::Msg>> + '_ {
        self.pending.iter().chain(&self.delayed).flatten()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether every program has terminated and no messages are in flight.
    /// Nodes that are crashed with no scheduled recovery can never report
    /// termination themselves and are treated as terminated.
    pub fn is_finished(&self) -> bool {
        self.in_flight == 0
            && self.programs.iter().enumerate().all(|(v, p)| {
                p.is_terminated() || self.config.faults.node_permanently_down(v, self.round)
            })
    }

    /// Executes a single round (running `on_start` first if needed).
    /// Returns `true` when the system has globally terminated; that step
    /// also folds the delivery-layer counters into [`Simulator::stats`],
    /// so a stepped run reports exactly what [`Simulator::run`] does.
    ///
    /// # Errors
    ///
    /// Propagates CONGEST violations under the strict policy, sends to
    /// non-neighbors, and the round cap.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let done = self.step_round()?;
        if done {
            self.fold_reliability_stats();
        }
        Ok(done)
    }

    fn step_round(&mut self) -> Result<bool, SimError> {
        if !self.started {
            self.started = true;
            self.trace_crash_transitions(0);
            self.run_wave(true)?;
            if self.is_finished() {
                return Ok(true);
            }
        }
        if self.round >= self.config.max_rounds {
            return Err(SimError::RoundBudgetExceeded {
                limit: self.config.max_rounds,
            });
        }
        self.round += 1;
        self.stats.rounds = self.round;
        self.trace_crash_transitions(self.round);

        // Swap in the double buffer: this round delivers out of
        // `inboxes` (last round's `pending`), while `pending` becomes
        // the emptied buffers from two rounds ago — capacity intact, so
        // a steady-state round allocates no inbox storage.
        std::mem::swap(&mut self.pending, &mut self.inboxes);
        // Delayed traffic joins the next delivery wave; everything still
        // undelivered after this swap is exactly the delayed backlog.
        self.in_flight = 0;
        for (pending, delayed) in self.pending.iter_mut().zip(&mut self.delayed) {
            self.in_flight += delayed.len();
            pending.append(delayed);
        }
        // A crashed receiver loses everything delivered while it is down.
        if !self.config.faults.crashes.is_empty() {
            for (v, inbox) in self.inboxes.iter_mut().enumerate() {
                if self.config.faults.node_crashed(v, self.round) && !inbox.is_empty() {
                    self.stats.dropped += inbox.len() as u64;
                    if let Some(tr) = self.tracer.as_deref_mut() {
                        for m in inbox.iter() {
                            tr.record(&TraceEvent::Dropped {
                                round: self.round,
                                from: m.from,
                                to: v,
                                reason: DropReason::ReceiverCrashed,
                            });
                        }
                    }
                    inbox.clear();
                }
            }
        }
        for inbox in &mut self.inboxes {
            // Delivery order must be by ascending sender. Clean commits
            // already fill inboxes in that order (senders are committed
            // 0..n); only delayed arrivals break it, so the (allocating,
            // stable) sort usually short-circuits here.
            if !inbox.windows(2).all(|w| w[0].from <= w[1].from) {
                inbox.sort_by_key(|m| m.from);
            }
        }
        self.run_wave(false)?;
        Ok(self.is_finished())
    }

    /// Forwards buffered program-emitted events to the tracer in
    /// ascending node order — the step that makes node-originated
    /// events independent of the worker-thread layout.
    fn drain_node_trace(&mut self) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            for buf in &mut self.node_trace {
                for ev in buf.drain(..) {
                    tr.record(&ev);
                }
            }
        }
    }

    /// Emits crash-state transitions for round `round`. Cheap no-op for
    /// untraced runs and crash-free fault plans.
    fn trace_crash_transitions(&mut self, round: usize) {
        if self.tracer.is_none() || self.config.faults.crashes.is_empty() {
            return;
        }
        let n = self.graph.node_count();
        if self.crashed_prev.len() != n {
            self.crashed_prev = vec![false; n];
        }
        for v in 0..n {
            let now = self.config.faults.node_crashed(v, round);
            if now != self.crashed_prev[v] {
                self.crashed_prev[v] = now;
                let event = if now {
                    TraceEvent::NodeDown { round, node: v }
                } else {
                    TraceEvent::NodeUp { round, node: v }
                };
                if let Some(tr) = self.tracer.as_deref_mut() {
                    tr.record(&event);
                }
            }
        }
    }

    /// Runs rounds until global termination.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::step`].
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        while !self.step()? {}
        // The engine's only stats clone: once per *run*, at termination.
        // All per-round paths mutate `self.stats` in place.
        Ok(self.stats.clone())
    }

    /// Folds per-node delivery-layer counters (if the programs report any)
    /// into the run statistics. `delivery_overhead_rounds` is only
    /// meaningful when every node runs behind a delivery layer: it is the
    /// tail of the run after the last application-level activity anywhere
    /// in the network — rounds spent purely on acks and retransmissions.
    fn fold_reliability_stats(&mut self) {
        self.stats.retransmissions = 0;
        self.stats.duplicates_suppressed = 0;
        self.stats.dead_links_declared = 0;
        self.stats.undeliverable_messages = 0;
        self.stats.corrupt_frames_detected = 0;
        let mut last_active = 0usize;
        let mut all_reported = true;
        for p in &self.programs {
            match p.reliability_stats() {
                Some(rs) => {
                    self.stats.retransmissions += rs.retransmissions;
                    self.stats.duplicates_suppressed += rs.duplicates_suppressed;
                    self.stats.dead_links_declared += rs.dead_links_declared;
                    self.stats.undeliverable_messages += rs.undeliverable_messages;
                    self.stats.corrupt_frames_detected += rs.corrupt_frames_detected;
                    last_active = last_active.max(rs.inner_last_active_round.unwrap_or(0));
                }
                None => all_reported = false,
            }
        }
        if all_reported {
            self.stats.delivery_overhead_rounds = self.round.saturating_sub(last_active) as u64;
        }
    }

    /// Runs one wave of node callbacks — `on_start` when `start`, else
    /// `on_round` — and commits what they sent. Every round, the
    /// `on_start` wave included, takes this one path.
    ///
    /// **Wave 1** ([`Simulator::run_callbacks`]) runs the callbacks over
    /// sender chunks, inline with one worker and on scoped workers
    /// otherwise. With several workers it also prepares every outbox
    /// ([`prepare_outbox`]) and, when the fault plan draws no
    /// per-message randomness, scatters the messages into per-worker
    /// arenas ([`scatter_outbox`]).
    ///
    /// **Spine** ([`Simulator::commit_spine`], single-threaded) books
    /// every sender in ascending order. With one worker it prepares each
    /// outbox right before booking it, while the outbox is still in
    /// cache.
    ///
    /// **Wave 2** (scatter only): merge workers chunked by destination
    /// splice the arena columns into `pending` in worker order —
    /// ascending sender — overlapped with the spine, which touches only
    /// stats, trace and metrics.
    ///
    /// Under [`Simulator::with_reference_delivery`], wave 1 only runs the
    /// callbacks and [`Simulator::commit_reference`] commits.
    ///
    /// A failed round clears all scratch, so a caller that keeps the
    /// simulator alive can never re-commit stale sends. Side effects an
    /// aborted round already applied (partial stats, partially merged
    /// inboxes) may differ between thread counts; completed rounds never
    /// differ.
    fn run_wave(&mut self, start: bool) -> Result<(), SimError> {
        let n = self.graph.node_count();
        if !self.config.faults.crashes.is_empty() {
            for v in 0..n {
                if self.config.faults.node_crashed(v, self.round) {
                    self.stats.crashed_node_rounds += 1;
                }
            }
        }
        let workers = self.effective_threads;
        let prepared = workers > 1 && !self.reference_delivery;
        // Per-message fault randomness (drops, duplicates, delays,
        // corruption) must be drawn on the spine in deterministic
        // order. Without it, delivery is a pure function of the outage
        // schedule, and wave 1 can scatter messages straight into
        // per-worker arenas.
        let scatter = prepared && !self.config.faults.uses_rng();
        if scatter {
            if self.worker_inboxes.len() != workers {
                self.worker_inboxes.resize_with(workers, Vec::new);
            }
            for arena in &mut self.worker_inboxes {
                if arena.len() != n {
                    arena.resize_with(n, Vec::new);
                }
            }
        }

        // Both buffer sets are moved out for the duration of the wave
        // (the borrow checker cannot see that `programs`/`stats` and the
        // buffers are disjoint fields) and moved back — empty but with
        // their capacity — before returning, so every round reuses them.
        let inboxes = std::mem::take(&mut self.inboxes);
        let mut outboxes = std::mem::take(&mut self.outboxes);
        let wave1 = self.run_callbacks(&inboxes, &mut outboxes, start, prepared, scatter);
        self.drain_node_trace();
        let result = if self.reference_delivery {
            wave1.and_then(|()| self.commit_reference(&mut outboxes))
        } else {
            let mut groups = std::mem::take(&mut self.sender_groups);
            let result = if scatter && wave1.is_ok() {
                self.merge_while_booking(&mut outboxes, &mut groups)
            } else {
                self.commit_spine(&mut outboxes, &mut groups, wave1, prepared, !scatter)
            };
            self.sender_groups = groups;
            result
        };
        if result.is_err() {
            self.clear_scratch(&mut outboxes);
        }
        self.inboxes = inboxes;
        for inbox in &mut self.inboxes {
            let used = inbox.len();
            inbox.clear();
            shrink_after_burst(inbox, used);
        }
        self.outboxes = outboxes;
        result
    }

    /// Wave 1: runs every live node's callback over sender chunks,
    /// inline with one worker and on scoped workers otherwise, each on
    /// its own slices of programs, RNGs, outboxes and trace buffers.
    /// With `prepared`, each worker then prepares its senders' outboxes
    /// into their group slots, and with `scatter` moves the messages
    /// into its own arena.
    ///
    /// A worker stops at its first failure and workers are joined in
    /// chunk order, so the error returned is the lowest failing sender's.
    /// A panic on a scoped worker comes back as [`SimError::WorkerPanic`].
    fn run_callbacks(
        &mut self,
        inboxes: &[Vec<Incoming<P::Msg>>],
        outboxes: &mut Outboxes<P::Msg>,
        start: bool,
        prepared: bool,
        scatter: bool,
    ) -> Result<(), SimError> {
        let graph = self.graph;
        let round = self.round;
        let faults = &self.config.faults;
        let work = move |base: usize,
                         progs: &mut [P],
                         rngs: &mut [StdRng],
                         outs: &mut [Vec<(NodeId, P::Msg)>],
                         ins: &[Vec<Incoming<P::Msg>>],
                         groups: &mut [Vec<Group>],
                         traces: &mut [Vec<TraceEvent>],
                         arena: &mut [Vec<Incoming<P::Msg>>]|
              -> Result<(), SimError> {
            for (offset, prog) in progs.iter_mut().enumerate() {
                let v = base + offset;
                if !faults.node_crashed(v, round) {
                    let mut ctx =
                        Context::new(v, graph, &mut rngs[offset], round, &mut outs[offset])
                            .with_trace(traces.get_mut(offset));
                    if start {
                        prog.on_start(&mut ctx);
                    } else {
                        prog.on_round(&mut ctx, &ins[offset]);
                    }
                }
                if prepared {
                    // Even a crashed node's (empty) outbox is prepared:
                    // that clears its slot of an earlier round's groups.
                    prepare_outbox(graph, v, &mut outs[offset], &mut groups[offset])?;
                    if scatter {
                        scatter_outbox(faults, round, v, &mut outs[offset], &groups[offset], arena);
                    }
                }
            }
            Ok(())
        };

        let workers = self.effective_threads;
        if workers <= 1 {
            return work(
                0,
                &mut self.programs,
                &mut self.rngs,
                outboxes,
                inboxes,
                &mut self.sender_groups,
                &mut self.node_trace,
                &mut [],
            );
        }
        let chunk = graph.node_count().div_ceil(workers);
        // Workers buffer events per node; the engine drains the buffers
        // in node order afterwards, so the trace never observes the
        // thread layout. A worker gets `&mut []` (promoted to 'static)
        // for every per-node slice the wave does not use: trace buffers
        // when untraced, group slots unless prepared, an arena unless
        // scattering.
        let traced = !self.node_trace.is_empty();
        let mut trace_chunks = self.node_trace.chunks_mut(chunk);
        let mut group_chunks = self.sender_groups.chunks_mut(chunk);
        let mut arenas = self.worker_inboxes.iter_mut();
        let programs = &mut self.programs;
        let rngs = &mut self.rngs;
        let scoped = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (idx, (((progs, rngs), outs), ins)) in programs
                .chunks_mut(chunk)
                .zip(rngs.chunks_mut(chunk))
                .zip(outboxes.chunks_mut(chunk))
                .zip(inboxes.chunks(chunk))
                .enumerate()
            {
                let traces: &mut [Vec<TraceEvent>] = if traced {
                    trace_chunks
                        .next()
                        .expect("trace chunks align with program chunks")
                } else {
                    &mut []
                };
                let groups: &mut [Vec<Group>] = if prepared {
                    group_chunks
                        .next()
                        .expect("group chunks align with program chunks")
                } else {
                    &mut []
                };
                let arena: &mut [Vec<Incoming<P::Msg>>] = if scatter {
                    arenas.next().expect("one arena per worker")
                } else {
                    &mut []
                };
                handles.push(scope.spawn(move |_| {
                    work(idx * chunk, progs, rngs, outs, ins, groups, traces, arena)
                }));
            }
            // Every handle is joined, in chunk order, so the whole pool
            // drains even when a worker panics, and the first error
            // reported is the lowest sender's.
            let mut first: Option<SimError> = None;
            for handle in handles {
                let joined = handle.join().unwrap_or_else(|payload| {
                    // `&*payload` reborrows the boxed payload itself; a
                    // plain `&payload` would unsize the `Box` into a
                    // fresh trait object and every downcast would miss.
                    Err(SimError::WorkerPanic {
                        round,
                        payload: panic_payload_string(&*payload),
                    })
                });
                if let Err(e) = joined {
                    first.get_or_insert(e);
                }
            }
            first.map_or(Ok(()), Err)
        });
        scoped.unwrap_or_else(|payload| {
            Err(SimError::WorkerPanic {
                round,
                payload: panic_payload_string(&*payload),
            })
        })
    }

    /// Wave 2 of a scattering round, overlapped with the spine: merge
    /// workers own destination chunks and append every arena's column
    /// for each destination to `pending`, arena 0 first, while the spine
    /// books the groups wave 1 prepared. The merge touches only
    /// `pending` and the arenas, the spine only stats, trace and
    /// metrics.
    fn merge_while_booking(
        &mut self,
        outboxes: &mut Outboxes<P::Msg>,
        groups: &mut [Vec<Group>],
    ) -> Result<(), SimError> {
        let round = self.round;
        let chunk = self.graph.node_count().div_ceil(self.effective_threads);
        let mut pending = std::mem::take(&mut self.pending);
        let mut arenas = std::mem::take(&mut self.worker_inboxes);
        let scoped = crossbeam::thread::scope(|scope| {
            // Transpose the arenas: merge worker `i` owns destination
            // slice `i` of *every* arena, so each `pending[to]` column is
            // appended from arena 0, 1, … in order — ascending sender,
            // the delivery order the next round's inbox sort expects to
            // already hold.
            let mut slices: Vec<ArenaSlices<'_, P::Msg>> = (0..self.effective_threads)
                .map(|_| Vec::with_capacity(arenas.len()))
                .collect();
            for arena in arenas.iter_mut() {
                for (i, cols) in arena.chunks_mut(chunk).enumerate() {
                    slices[i].push(cols);
                }
            }
            let mut handles = Vec::new();
            for (pend, mut cols) in pending.chunks_mut(chunk).zip(slices) {
                handles.push(scope.spawn(move |_| {
                    for (rel, dst) in pend.iter_mut().enumerate() {
                        for arena_cols in cols.iter_mut() {
                            let col = &mut arena_cols[rel];
                            let used = col.len();
                            dst.append(col);
                            shrink_after_burst(col, used);
                        }
                    }
                }));
            }
            let spine = self.commit_spine(outboxes, groups, Ok(()), true, false);
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic.get_or_insert(payload);
                }
            }
            (spine, panic)
        });
        self.pending = pending;
        self.worker_inboxes = arenas;
        match scoped {
            Ok((spine, None)) => spine,
            Ok((spine, Some(payload))) => spine.and(Err(SimError::WorkerPanic {
                round,
                payload: panic_payload_string(&*payload),
            })),
            Err(payload) => Err(SimError::WorkerPanic {
                round,
                payload: panic_payload_string(&*payload),
            }),
        }
    }

    /// Discards everything a failed round left behind — undrained
    /// outboxes, destination groups, scattered arena columns — so a
    /// caller that keeps the simulator alive can never re-commit stale
    /// sends.
    fn clear_scratch(&mut self, outboxes: &mut Outboxes<P::Msg>) {
        for outbox in outboxes.iter_mut() {
            outbox.clear();
        }
        for groups in &mut self.sender_groups {
            groups.clear();
        }
        for arena in &mut self.worker_inboxes {
            for col in arena.iter_mut() {
                col.clear();
            }
        }
    }

    /// The commit spine: books every sender in ascending order through
    /// [`Simulator::book_sender`], then emits the round's summary. It
    /// runs single-threaded and makes every fault decision in
    /// deterministic `(from, to, send order)` order, so the thread count
    /// never changes stats, trace, metrics or which messages a fault
    /// plan affects.
    ///
    /// With `prepared`, wave 1 already grouped and checked each outbox
    /// into `groups[from]`; otherwise the spine prepares each outbox into
    /// the one slot `groups[0]` just before booking it. With `route`, the
    /// spine also routes the messages; otherwise wave 1 scattered them.
    ///
    /// A send to a non-neighbor — `wave1`'s error or this pass's — fails
    /// the round only after every group the sequential order meets
    /// before it is booked: the earlier senders', and the groups its own
    /// sender addressed to lower destinations. So the error is the first
    /// one in sequential order at every thread count.
    fn commit_spine(
        &mut self,
        outboxes: &mut Outboxes<P::Msg>,
        groups: &mut [Vec<Group>],
        wave1: Result<(), SimError>,
        prepared: bool,
        route: bool,
    ) -> Result<(), SimError> {
        let (senders, failure) = match wave1 {
            Ok(()) => (outboxes.len(), Ok(())),
            Err(e @ SimError::NotNeighbor { from, .. }) => (from + 1, Err(e)),
            Err(e) => return Err(e),
        };
        let edge_detail = self
            .tracer
            .as_deref()
            .is_some_and(|t| t.wants_edge_traffic());
        let mut counters = RoundCounters::default();
        for (from, outbox) in outboxes.iter_mut().enumerate().take(senders) {
            let (slot, checked) = if prepared {
                (from, Ok(()))
            } else {
                (0, prepare_outbox(self.graph, from, outbox, &mut groups[0]))
            };
            self.book_sender(
                from,
                outbox,
                &groups[slot],
                route,
                edge_detail,
                &mut counters,
            )?;
            checked?;
        }
        failure?;
        self.emit_round_event(self.round, &counters);
        Ok(())
    }

    /// Books one sender's destination groups in ascending destination
    /// order: each group's checks and bookkeeping
    /// ([`Simulator::account_group`]), then, with `route`, its messages
    /// in send order through [`Simulator::route_one`], which keeps the
    /// fault RNG's draw order. Without `route`, wave 1 has already
    /// scattered the messages and only `in_flight` advances. The only
    /// booking loop besides [`Simulator::commit_reference`].
    fn book_sender(
        &mut self,
        from: NodeId,
        outbox: &mut Vec<(NodeId, P::Msg)>,
        groups: &[Group],
        route: bool,
        edge_detail: bool,
        counters: &mut RoundCounters,
    ) -> Result<(), SimError> {
        let send_round = self.round;
        // A sender with nothing to book keeps its outbox's capacity.
        if groups.is_empty() {
            return Ok(());
        }
        if !route {
            for &(to, count, bits) in groups {
                if self.account_group(from, to, count, bits, send_round, edge_detail, counters)? {
                    self.in_flight += count;
                }
            }
            return Ok(());
        }
        let used = outbox.len();
        let mut queue = outbox.drain(..);
        for &(to, count, bits) in groups {
            let deliver =
                self.account_group(from, to, count, bits, send_round, edge_detail, counters)?;
            for _ in 0..count {
                let (_, msg) = queue.next().expect("group sizes cover the outbox");
                // A downed link loses the whole group (already booked).
                if deliver {
                    self.route_one(from, to, send_round, msg);
                }
            }
        }
        drop(queue);
        shrink_after_burst(outbox, used);
        Ok(())
    }

    /// Serializes the complete simulation state at the current round
    /// boundary: round counter, statistics, every node's program and RNG,
    /// the fault RNG, and all in-flight traffic (pending and delayed).
    ///
    /// The image is host-side — it is never charged against the CONGEST
    /// budget — and [`Simulator::restore`] resumes it bit-identically:
    /// checkpoint → kill → restore → run produces exactly the trace of the
    /// uninterrupted run, at any thread count.
    ///
    /// Layout (version 3): an unframed header (magic, version, node count,
    /// seed, round, started flag) followed by five CRC-guarded sections —
    /// `stats`, `rngs`, `programs`, `pending`, `delayed` — each framed as
    /// `u64 byte length + u32 CRC-32 + payload bytes`. A flipped bit
    /// anywhere in a section fails that section's checksum on restore
    /// with a [`SimError::CorruptCheckpoint`] naming the section, instead
    /// of silently resuming from mangled state.
    pub fn checkpoint(&self) -> bytes::Bytes
    where
        P: WireState,
        P::Msg: WireState,
    {
        let mut w = BitWriter::new();
        w.write_bits(CHECKPOINT_MAGIC, 64);
        w.write_bits(CHECKPOINT_VERSION, 64);
        self.graph.node_count().encode_state(&mut w);
        self.config.seed.encode_state(&mut w);
        self.round.encode_state(&mut w);
        self.started.encode_state(&mut w);
        write_section(&mut w, |sw| self.stats.encode_state(sw));
        write_section(&mut w, |sw| {
            for rng in &self.rngs {
                for word in rng.state() {
                    word.encode_state(sw);
                }
            }
            for word in self.fault_rng.state() {
                word.encode_state(sw);
            }
        });
        write_section(&mut w, |sw| {
            for prog in &self.programs {
                prog.encode_state(sw);
            }
        });
        write_section(&mut w, |sw| {
            for inbox in &self.pending {
                inbox.encode_state(sw);
            }
        });
        write_section(&mut w, |sw| {
            for inbox in &self.delayed {
                inbox.encode_state(sw);
            }
        });
        w.finish()
    }

    /// Reconstructs a simulator from a [`Simulator::checkpoint`] image.
    ///
    /// `graph` and `config` must describe the same run that produced the
    /// image (the node count and seed are validated against it); the cut
    /// set and budget are rebuilt from `config`, so policy knobs that don't
    /// alter the trace (e.g. `threads`) may differ.
    ///
    /// # Errors
    ///
    /// [`SimError::CorruptCheckpoint`] when the image is truncated, has the
    /// wrong magic/version, fails a section checksum, or disagrees with
    /// `graph`/`config`. The reason names the offending section, so a
    /// flipped bit in (say) the RNG block reports `rngs section failed
    /// its checksum` rather than a downstream decode artifact.
    pub fn restore(graph: &'g Graph, config: SimConfig, data: &[u8]) -> Result<Self, SimError>
    where
        P: WireState,
        P::Msg: WireState,
    {
        fn corrupt(reason: &str) -> SimError {
            SimError::CorruptCheckpoint {
                reason: reason.to_string(),
            }
        }
        let mut r = BitReader::new(data);
        if r.read_bits(64) != Some(CHECKPOINT_MAGIC) {
            return Err(corrupt("bad magic word"));
        }
        let version = r.read_bits(64).ok_or_else(|| corrupt("truncated header"))?;
        if version != CHECKPOINT_VERSION {
            return Err(corrupt(&format!(
                "unsupported checkpoint version {version} (this build reads version \
                 {CHECKPOINT_VERSION})"
            )));
        }
        let n = usize::decode_state(&mut r).ok_or_else(|| corrupt("truncated header"))?;
        if n != graph.node_count() {
            return Err(corrupt("node count disagrees with the provided graph"));
        }
        let seed = u64::decode_state(&mut r).ok_or_else(|| corrupt("truncated header"))?;
        if seed != config.seed {
            return Err(corrupt("seed disagrees with the provided config"));
        }
        let round = usize::decode_state(&mut r).ok_or_else(|| corrupt("truncated header"))?;
        let started = bool::decode_state(&mut r).ok_or_else(|| corrupt("truncated header"))?;
        // Each section is length-framed and CRC-guarded; the checksum is
        // verified before any decoding touches the payload, so a flipped
        // bit is caught at its section.
        let read_section = |r: &mut BitReader<'_>, what: &str| -> Result<Vec<u8>, SimError> {
            let len = r
                .read_bits(64)
                .ok_or_else(|| corrupt(&format!("truncated {what} section header")))?;
            let len = usize::try_from(len)
                .map_err(|_| corrupt(&format!("oversized {what} section length")))?;
            let sum = r
                .read_bits(32)
                .ok_or_else(|| corrupt(&format!("truncated {what} section header")))?
                as u32;
            let bytes = r
                .read_bytes(len)
                .ok_or_else(|| corrupt(&format!("truncated {what} section")))?;
            if crc32(&bytes) != sum {
                return Err(corrupt(&format!("{what} section failed its checksum")));
            }
            Ok(bytes)
        };
        let read_rng = |r: &mut BitReader<'_>| -> Option<StdRng> {
            let mut words = [0u64; 4];
            for w in &mut words {
                *w = u64::decode_state(r)?;
            }
            Some(StdRng::from_state(words))
        };
        let read_boxes =
            |r: &mut BitReader<'_>, what: &str| -> Result<Vec<Vec<Incoming<P::Msg>>>, SimError> {
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    boxes.push(
                        Vec::<Incoming<P::Msg>>::decode_state(r)
                            .ok_or_else(|| corrupt(&format!("truncated {what} traffic")))?,
                    );
                }
                Ok(boxes)
            };

        let stats_bytes = read_section(&mut r, "stats")?;
        let stats = RunStats::decode_state(&mut BitReader::new(&stats_bytes))
            .ok_or_else(|| corrupt("truncated stats"))?;
        let rng_bytes = read_section(&mut r, "rngs")?;
        let mut rr = BitReader::new(&rng_bytes);
        let mut rngs = Vec::with_capacity(n);
        for _ in 0..n {
            rngs.push(read_rng(&mut rr).ok_or_else(|| corrupt("truncated rng state"))?);
        }
        let fault_rng = read_rng(&mut rr).ok_or_else(|| corrupt("truncated fault rng state"))?;
        let prog_bytes = read_section(&mut r, "programs")?;
        let mut pr = BitReader::new(&prog_bytes);
        let mut programs = Vec::with_capacity(n);
        for _ in 0..n {
            programs.push(P::decode_state(&mut pr).ok_or_else(|| corrupt("truncated program"))?);
        }
        let pending_bytes = read_section(&mut r, "pending")?;
        let pending = read_boxes(&mut BitReader::new(&pending_bytes), "pending")?;
        let delayed_bytes = read_section(&mut r, "delayed")?;
        let delayed = read_boxes(&mut BitReader::new(&delayed_bytes), "delayed")?;
        let in_flight = pending.iter().map(Vec::len).sum::<usize>()
            + delayed.iter().map(Vec::len).sum::<usize>();
        let cut_set: HashSet<(NodeId, NodeId)> =
            config.cut.iter().map(|&(u, v)| ordered(u, v)).collect();
        // The execution-environment echoes are never checkpointed (the
        // image is thread-count-invariant); re-derive them from the
        // *restoring* config, which may legitimately differ from the
        // one that wrote the image.
        let effective_threads = config.effective_threads(n);
        let mut stats = stats;
        stats.effective_threads = effective_threads;
        stats.granularity = config.granularity.max(1);
        Ok(Simulator {
            graph,
            config,
            programs,
            rngs,
            pending,
            delayed,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            outboxes: (0..n).map(|_| Vec::new()).collect(),
            effective_threads,
            sender_groups: group_slots(n, effective_threads),
            worker_inboxes: Vec::new(),
            reference_delivery: false,
            in_flight,
            stats,
            round,
            started,
            cut_set,
            fault_rng,
            tracer: None,
            metrics: None,
            node_trace: Vec::new(),
            crashed_prev: Vec::new(),
        })
    }

    /// The reference commit: rebuilds each sender's outbox by value and
    /// allocates a fresh `Vec` per destination group, as the engine did
    /// before the prepare → book spine landed. Kept (in release builds
    /// too) purely as the oracle the test suite compares the spine
    /// against — see [`Simulator::with_reference_delivery`].
    fn commit_reference(&mut self, outboxes: &mut Outboxes<P::Msg>) -> Result<(), SimError> {
        let n = self.graph.node_count();
        let send_round = self.round;
        let edge_detail = self
            .tracer
            .as_deref()
            .is_some_and(|t| t.wants_edge_traffic());
        let mut counters = RoundCounters::default();
        for (from, outbox) in outboxes.iter_mut().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let mut drained = std::mem::take(outbox);
            drained.sort_by_key(|(to, _)| *to);
            let mut queue = drained.into_iter().peekable();
            while let Some((to, first)) = queue.next() {
                let mut msgs = vec![first];
                while queue.peek().is_some_and(|(d, _)| *d == to) {
                    msgs.push(queue.next().expect("peeked element exists").1);
                }
                let count = msgs.len();
                let bits: usize = msgs.iter().map(|m| m.bit_size(n)).sum();
                if !self.graph.has_edge(from, to) {
                    return Err(SimError::NotNeighbor { from, to });
                }
                let deliver = self.account_group(
                    from,
                    to,
                    count,
                    bits,
                    send_round,
                    edge_detail,
                    &mut counters,
                )?;
                if deliver {
                    for msg in msgs {
                        self.route_one(from, to, send_round, msg);
                    }
                }
            }
        }
        self.emit_round_event(send_round, &counters);
        Ok(())
    }

    /// Books one `(from → to)` message group: the message-count and
    /// bit-budget checks, statistics, cut metering, and the
    /// `EdgeTraffic`/link-down events. Returns whether the group's
    /// messages should be routed (`false`: the link is out and the whole
    /// group was dropped, with no randomness consumed).
    ///
    /// The caller has already validated that `(from, to)` is an edge —
    /// the reference commit with a per-group `has_edge`, everything else
    /// through [`prepare_outbox`].
    #[allow(clippy::too_many_arguments)]
    fn account_group(
        &mut self,
        from: NodeId,
        to: NodeId,
        count: usize,
        bits: usize,
        send_round: usize,
        edge_detail: bool,
        counters: &mut RoundCounters,
    ) -> Result<bool, SimError> {
        let budget = self.stats.budget_bits;
        let mut violated = false;
        if count > self.config.messages_per_edge {
            match self.config.violation_policy {
                ViolationPolicy::Strict => {
                    return Err(SimError::TooManyMessages {
                        from,
                        to,
                        round: self.round,
                        count,
                        limit: self.config.messages_per_edge,
                    })
                }
                ViolationPolicy::Record => violated = true,
            }
        }
        if bits > budget {
            match self.config.violation_policy {
                ViolationPolicy::Strict => {
                    return Err(SimError::BandwidthExceeded {
                        from,
                        to,
                        round: self.round,
                        bits,
                        budget,
                    })
                }
                ViolationPolicy::Record => violated = true,
            }
        }
        if violated {
            self.stats.violations += 1;
        }
        self.stats.total_messages += count as u64;
        self.stats.total_bits += bits as u64;
        // Strictly-greater keeps the *first* edge-round that set
        // the record, so the peak location is deterministic.
        if bits > self.stats.max_bits_edge_round {
            self.stats.max_bits_edge_round = bits;
            self.stats.peak_edge = Some((from, to, send_round));
        }
        self.stats.max_messages_edge_round = self.stats.max_messages_edge_round.max(count);
        // Gating on emptiness skips the hash-and-probe per group in the
        // (typical) meterless configuration; the result is unchanged.
        let crosses_cut = !self.cut_set.is_empty() && self.cut_set.contains(&ordered(from, to));
        if crosses_cut {
            self.stats.cut.messages += count as u64;
            self.stats.cut.bits += bits as u64;
        }
        counters.messages += count as u64;
        counters.bits += bits as u64;
        if crosses_cut {
            counters.cut_messages += count as u64;
            counters.cut_bits += bits as u64;
        }
        if edge_detail {
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(&TraceEvent::EdgeTraffic {
                    round: send_round,
                    from,
                    to,
                    messages: count,
                    bits,
                    cut: crosses_cut,
                });
            }
        }
        if self.config.faults.link_down(from, to, send_round) {
            // The edge is out: everything sent over it this round
            // is lost, with no randomness consumed.
            self.stats.dropped += count as u64;
            if let Some(tr) = self.tracer.as_deref_mut() {
                for _ in 0..count {
                    tr.record(&TraceEvent::Dropped {
                        round: send_round,
                        from,
                        to,
                        reason: DropReason::LinkDown,
                    });
                }
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Routes one already-accounted message through fault injection into
    /// `pending` or `delayed`. Each probabilistic fault draws from the
    /// dedicated fault RNG only when enabled, in a fixed order per
    /// message (drop, then corrupt, then delay, then duplicate), so a
    /// given plan replays identically.
    fn route_one(&mut self, from: NodeId, to: NodeId, send_round: usize, msg: P::Msg) {
        let faults = &self.config.faults;
        if faults.drop_probability > 0.0
            && rand::Rng::gen_bool(&mut self.fault_rng, faults.drop_probability)
        {
            self.stats.dropped += 1;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(&TraceEvent::Dropped {
                    round: send_round,
                    from,
                    to,
                    reason: DropReason::Fault,
                });
            }
            return;
        }
        // Corruption: a probabilistic hit or a scheduled corrupting link
        // mangles the message in flight. The *whether* may come from the
        // deterministic link schedule, but the *how* (kind and mutation)
        // always draws from the fault RNG — the one documented case where
        // a schedule-driven fault consumes randomness (see
        // [`FaultPlan::uses_rng`](crate::FaultPlan::uses_rng)).
        let corrupt_p = self.config.faults.corrupt_probability;
        let hit = (corrupt_p > 0.0 && rand::Rng::gen_bool(&mut self.fault_rng, corrupt_p))
            || self.config.faults.link_corrupts(from, to, send_round);
        let msg = if hit {
            let idx = rand::Rng::gen_range(&mut self.fault_rng, 0..CorruptionKind::ALL.len());
            let kind = CorruptionKind::ALL[idx];
            let n = self.graph.node_count();
            self.stats.corrupted += 1;
            match msg.corrupted(kind, n, &mut self.fault_rng) {
                Some(mangled) => {
                    if let Some(tr) = self.tracer.as_deref_mut() {
                        tr.record(&TraceEvent::Corrupted {
                            round: send_round,
                            from,
                            to,
                            kind,
                        });
                    }
                    mangled
                }
                // Nothing parseable remains: to the receiver an
                // undecodable frame and a lost frame are the same event,
                // so it is booked as corrupted *and* dropped.
                None => {
                    self.stats.dropped += 1;
                    if let Some(tr) = self.tracer.as_deref_mut() {
                        tr.record(&TraceEvent::Dropped {
                            round: send_round,
                            from,
                            to,
                            reason: DropReason::Corrupt,
                        });
                    }
                    return;
                }
            }
        } else {
            msg
        };
        let faults = &self.config.faults;
        let late = faults.delay_probability > 0.0
            && rand::Rng::gen_bool(&mut self.fault_rng, faults.delay_probability);
        let duplicated = faults.duplicate_probability > 0.0
            && rand::Rng::gen_bool(&mut self.fault_rng, faults.duplicate_probability);
        if duplicated {
            // The extra copy always takes the fast path; if the
            // original is simultaneously delayed, the pair
            // arrives reordered across rounds. This clone is the one
            // delivery-path clone left: two independent copies genuinely
            // enter the network, and the branch is fault-only and rare,
            // so it never taxes the clean path.
            self.stats.duplicated += 1;
            self.in_flight += 1;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(&TraceEvent::Duplicated {
                    round: send_round,
                    from,
                    to,
                });
            }
            self.pending[to].push(Incoming {
                from,
                msg: msg.clone(),
            });
        }
        self.in_flight += 1;
        if late {
            self.stats.delayed += 1;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record(&TraceEvent::Delayed {
                    round: send_round,
                    from,
                    to,
                });
            }
            self.delayed[to].push(Incoming { from, msg });
        } else {
            self.pending[to].push(Incoming { from, msg });
        }
    }

    /// Emits the per-round summary trace event and applies the round's
    /// live-metrics updates. Runs on the single-threaded commit spine,
    /// once per commit, so metric content cannot depend on the worker
    /// layout. The `on_start` wave commits as round 0 and advances no
    /// round counter; its traffic still counts.
    fn emit_round_event(&mut self, send_round: usize, counters: &RoundCounters) {
        if let Some(m) = &self.metrics {
            if send_round > 0 {
                m.rounds.inc();
            }
            m.messages.add(counters.messages);
            m.bits.add(counters.bits);
            m.inbox_depth.set(self.in_flight as u64);
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(&TraceEvent::Round {
                round: send_round,
                messages: counters.messages,
                bits: counters.bits,
                cut_messages: counters.cut_messages,
                cut_bits: counters.cut_bits,
            });
        }
    }
}

/// Frames one checkpoint section: the body is encoded into its own
/// [`BitWriter`], then embedded as `u64 byte length + u32 CRC-32 +
/// payload bytes`. Restore verifies the checksum before decoding.
fn write_section(w: &mut BitWriter, body: impl FnOnce(&mut BitWriter)) {
    let mut sw = BitWriter::new();
    body(&mut sw);
    let bytes = sw.finish();
    w.write_bits(bytes.len() as u64, 64);
    w.write_bits(u64::from(crc32(&bytes)), 32);
    w.write_bytes(&bytes);
}

/// The destination-group slots for a graph of `n` nodes: one per sender
/// when several workers prepare outboxes in wave 1, else one slot the
/// spine reuses for every sender. Allocated with the simulator, not at
/// the first wave: allocating this small block after the programs' first
/// allocations raised the peak RSS of a reliable BA n = 512 solve from
/// 80 to 83 MiB under glibc malloc (heap placement, not size).
fn group_slots(n: usize, workers: usize) -> Vec<Vec<Group>> {
    let slots = if workers > 1 { n } else { 1 };
    (0..slots).map(|_| Vec::new()).collect()
}

/// One merge worker's view of every wave-1 scatter arena: for each
/// arena (ascending sender chunk), the slice of destination columns
/// this worker owns.
type ArenaSlices<'a, M> = Vec<&'a mut [Vec<Incoming<M>>]>;

/// Prepares one sender's outbox for booking — the only code that sorts,
/// groups and neighbor-checks sends. Sorts the outbox by destination
/// when needed (stable, so each destination's send order is kept — and
/// skipped when the program already sent in ascending order, since a
/// stable sort allocates), records one `(to, count, bits)` group per
/// destination into `groups`, and merge-walks the sorted neighbor slice
/// against the groups: O(deg + groups) per sender instead of a
/// `has_edge` search per group. On a send to a non-neighbor, `groups`
/// keeps only the groups ahead of it, which the spine books before it
/// reports the error.
fn prepare_outbox<M: Message>(
    graph: &Graph,
    from: NodeId,
    outbox: &mut [(NodeId, M)],
    groups: &mut Vec<Group>,
) -> Result<(), SimError> {
    groups.clear();
    if outbox.is_empty() {
        return Ok(());
    }
    let n = graph.node_count();
    if !outbox.windows(2).all(|w| w[0].0 <= w[1].0) {
        outbox.sort_by_key(|(to, _)| *to);
    }
    let mut i = 0;
    while i < outbox.len() {
        let to = outbox[i].0;
        let start = i;
        let mut bits = 0usize;
        while i < outbox.len() && outbox[i].0 == to {
            bits += outbox[i].1.bit_size(n);
            i += 1;
        }
        groups.push((to, i - start, bits));
    }
    let neigh: &[NodeId] = graph.neighbor_slice(from);
    let mut ni = 0usize;
    let bad = groups.iter().position(|&(to, _, _)| {
        while ni < neigh.len() && neigh[ni] < to {
            ni += 1;
        }
        ni >= neigh.len() || neigh[ni] != to
    });
    match bad {
        None => Ok(()),
        Some(k) => {
            let to = groups[k].0;
            groups.truncate(k);
            Err(SimError::NotNeighbor { from, to })
        }
    }
}

/// Drains one prepared outbox into a worker's scratch arena (wave 1,
/// fault-transparent mode only): messages land in `arena[to]` in send
/// order, and groups addressed to a downed link are consumed and
/// skipped — a pure schedule lookup, so no fault randomness is
/// involved; the spine books that drop (and all other accounting)
/// from the groups afterwards.
fn scatter_outbox<M: Message>(
    faults: &FaultPlan,
    round: usize,
    from: NodeId,
    outbox: &mut Vec<(NodeId, M)>,
    groups: &[Group],
    arena: &mut [Vec<Incoming<M>>],
) {
    let used = outbox.len();
    let mut queue = outbox.drain(..);
    for &(to, count, _) in groups {
        if faults.link_down(from, to, round) {
            for _ in 0..count {
                queue.next();
            }
        } else {
            for _ in 0..count {
                let (_, msg) = queue.next().expect("group sizes cover the outbox");
                arena[to].push(Incoming { from, msg });
            }
        }
    }
    drop(queue);
    shrink_after_burst(outbox, used);
}

/// Whole-round traffic totals for the `Round` trace event.
#[derive(Debug, Default)]
struct RoundCounters {
    messages: u64,
    bits: u64,
    cut_messages: u64,
    cut_bits: u64,
}

/// Reclaims burst growth in a reused buffer: once a round used less than
/// a quarter of the buffer's capacity, halve the capacity. Repeated
/// quiet rounds decay a chaos-inflated buffer geometrically instead of
/// pinning its high-water mark forever; the floor leaves steady-state
/// buffers alone.
fn shrink_after_burst<T>(buf: &mut Vec<T>, used: usize) {
    let cap = buf.capacity();
    if cap > 64 && used < cap / 4 {
        buf.shrink_to(cap / 2);
    }
}
