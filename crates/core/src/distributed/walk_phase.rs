//! Phase 1 — the paper's **Algorithm 1**: every node launches `K` truncated
//! absorbing random walks and every node counts the visits it receives,
//! per source.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use congest_sim::{splitmix64, Context, Incoming, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

use crate::distributed::messages::{WalkBatch, WalkToken};
use crate::distributed::CongestionDiscipline;

/// Node program for the counting phase.
///
/// Faithful to Algorithm 1 with one documented deviation: a walk's visit to
/// its *birth* node is counted (`ξ_s^s` starts at `K`), because the matrix
/// the estimator targets, `(I − M_t)^{-1}`, includes the `r = 0` term —
/// see `DESIGN.md` §5. Line 6's congestion rule ("if more than one random
/// walk needs the same edge, send one") is implemented as hold-and-resend:
/// losers stay queued and keep their rolled neighbor for the next round.
/// The batched variant (ablation D3) instead packs as many tokens per
/// message as the bit budget allows.
///
/// The state is proportional to the tokens the node handles, not to `n`:
/// only the nonzero visit counts and deaths are kept (DESIGN §14).
///
/// # Schedule-invariant randomness
///
/// Next-hop draws do **not** come from the engine's per-node RNG stream
/// (which is consumed in arrival order and therefore sensitive to message
/// *timing*). Instead, every draw is taken from a stream keyed by the walk
/// state `(node, source, remaining)` plus a per-state ticket counter, and a
/// token held back by congestion keeps its drawn neighbor, so each token
/// consumes exactly one draw per state it visits. Tokens at the same state
/// are exchangeable — their futures depend only on the state and the
/// draw streams — so the multiset of visit counts `ξ_v^s` is a function of
/// the seed alone, invariant under delivery timing. Consequences:
///
/// * the final fingerprint is identical across thread counts **and**
///   across any fault schedule the reliable layer fully repairs (drops,
///   duplicates, delays, detected corruption) — the acceptance property
///   behind the chaos tests;
/// * recovery sub-phases salt the stream with the attempt number (via
///   [`WalkProgram::with_draw_seed`]), so replacement walks are
///   independent of the originals rather than retracing them.
///
/// The invariance claim is void once links are *quarantined* mid-phase
/// (dead-neighbor re-sampling changes the walk distribution itself);
/// [`DegradationReport`](crate::distributed::DegradationReport) reports
/// such runs as not clean.
#[derive(Debug, Clone)]
pub struct WalkProgram {
    me: NodeId,
    n: usize,
    target: NodeId,
    k: usize,
    len_bits: u8,
    discipline: CongestionDiscipline,
    /// Tokens one message may carry under `Batched`; see
    /// [`WalkProgram::with_batch_limit`].
    batch_limit: usize,
    /// Seed of the schedule-invariant draw streams (see [`Self::roll`]).
    draw_seed: u64,
    /// Tickets issued per walk state, keyed by [`state_key`].
    tickets: StateMap<u64, u32>,
    /// Tokens currently parked at this node, waiting to move.
    queue: Vec<Queued>,
    /// The nonzero `ξ_me^s`, by source `s`.
    counts: StateMap<NodeId, u64>,
    /// The nonzero walk completions observed *at this node*, by source:
    /// absorptions (when this node is the target) and truncations
    /// (remaining hit 0 here). Summed across nodes by the driver,
    /// `K − Σ deaths[s]` is the number of source-`s` tokens lost to faults
    /// — the signal behind the relaunch recovery loop.
    deaths: StateMap<NodeId, u64>,
    /// Neighbors declared permanently dead (sorted). Tokens are re-sampled
    /// among the survivors; with no survivors left, queued tokens are
    /// truncated in place.
    dead_neighbors: Vec<NodeId>,
    started: bool,
    /// Node-owned forwarding buffers, reused round over round.
    scratch: ForwardScratch,
}

/// Hashes the walk state's integer keys with one SplitMix64 round. Every
/// visit and every draw pays for a hash, and the keys are node ids and
/// walk states the protocol derives itself, so SipHash's defence against
/// crafted collisions would buy nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type StateMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// The ticket key of walk state `(source, remaining)`: both in one word.
/// Node ids fit 32 bits (asserted at construction, checked on decode).
fn state_key(source: NodeId, remaining: u32) -> u64 {
    (source as u64) << 32 | u64::from(remaining)
}

/// A map's entries as `(source, value)` by ascending source.
fn sorted(map: &StateMap<NodeId, u64>) -> Vec<(NodeId, u64)> {
    let mut row: Vec<(NodeId, u64)> = map.iter().map(|(&s, &c)| (s, c)).collect();
    row.sort_unstable();
    row
}

/// A parked token plus the neighbor index it has already rolled. The
/// choice survives congestion hold-back rounds so each token consumes
/// exactly one draw per state — the invariance hinge; see the
/// [`WalkProgram`] docs.
#[derive(Debug, Clone)]
struct Queued {
    token: WalkToken,
    choice: Option<u32>,
}

impl Queued {
    fn fresh(token: WalkToken) -> Queued {
        Queued {
            token,
            choice: None,
        }
    }
}

/// Reusable buffers for [`WalkProgram::forward`], so the per-round
/// distribution step allocates nothing in steady state. Never part of
/// the protocol state: empty between rounds, excluded from equality.
#[derive(Debug, Clone, Default)]
struct ForwardScratch {
    /// One batch per neighbor index, copied into the outgoing message and
    /// reset to empty.
    per_neighbor: Vec<WalkBatch>,
    /// Tokens held back by the congestion discipline this round; swapped
    /// with `queue` at the end of the distribution, so both buffers keep
    /// their capacity.
    keep: Vec<Queued>,
    /// Live-neighbor indices when some neighbors are dead.
    live: Vec<usize>,
}

impl WalkProgram {
    /// Program for node `me`. `walk_length` is `l`, `walks_per_node` is `K`.
    pub fn new(
        me: NodeId,
        n: usize,
        target: NodeId,
        walks_per_node: usize,
        walk_length: usize,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        WalkProgram::with_token_lengths(
            me,
            n,
            target,
            vec![walk_length as u32; walks_per_node],
            len_bits,
            discipline,
        )
    }

    /// Program whose `K = lengths.len()` tokens carry individual length
    /// budgets. Used by the α-current-flow variant, where token lifetimes
    /// are geometric with mean `1 / (1 − α)` instead of a fixed `l`.
    pub fn with_token_lengths(
        me: NodeId,
        n: usize,
        target: NodeId,
        lengths: Vec<u32>,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        let k = lengths.len();
        let mut program = WalkProgram::resume(me, n, target, lengths, len_bits, discipline);
        program.k = k;
        if me != target && k > 0 {
            // Birth visits: the r = 0 term of the visit expectation.
            program.counts.insert(me, k as u64);
        }
        program
    }

    /// Program for a *recovery sub-phase*: node `me` relaunches
    /// `lengths.len()` replacement tokens for walks of its own that were
    /// lost to faults in an earlier sub-phase. No birth visits are counted
    /// (the lost originals already counted theirs) and `launched()` reports
    /// zero — the driver accumulates visit counts across sub-phases.
    pub fn resume(
        me: NodeId,
        n: usize,
        target: NodeId,
        lengths: Vec<u32>,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        assert!(
            u32::try_from(n).is_ok(),
            "ticket keys pack a node id into 32 bits"
        );
        let mut deaths = StateMap::default();
        let mut queue = Vec::new();
        if me != target {
            for l in lengths {
                if l > 0 {
                    queue.push(Queued::fresh(WalkToken {
                        source: me,
                        remaining: l,
                    }));
                } else {
                    // A zero-length walk completes at birth.
                    *deaths.entry(me).or_insert(0) += 1;
                }
            }
        }
        WalkProgram {
            me,
            n,
            target,
            k: 0,
            len_bits,
            discipline,
            batch_limit: 1,
            draw_seed: 0,
            tickets: StateMap::default(),
            queue,
            counts: StateMap::default(),
            deaths,
            dead_neighbors: Vec::new(),
            started: false,
            scratch: ForwardScratch::default(),
        }
    }

    /// Seeds the schedule-invariant draw streams. Every run (and every
    /// recovery sub-phase) should use a distinct value — the driver passes
    /// its per-sub-phase simulator seed — so that draws are independent
    /// across phases while staying a pure function of `(seed, node,
    /// source, remaining, ticket)` within one.
    #[must_use]
    pub fn with_draw_seed(mut self, seed: u64) -> WalkProgram {
        self.draw_seed = seed;
        self
    }

    /// Sets how many tokens one message may carry under
    /// [`CongestionDiscipline::Batched`], clamped to
    /// `1..=`[`WalkBatch::CAPACITY`]; the driver passes
    /// [`WalkBatch::fit`] of the run's budget net of the transport header.
    /// Defaults to 1. A checkpoint image does not carry it, so a restored
    /// program needs it set again.
    #[must_use]
    pub fn with_batch_limit(mut self, tokens: usize) -> WalkProgram {
        self.set_batch_limit(tokens);
        self
    }

    /// [`WalkProgram::with_batch_limit`] on a program in place.
    pub(crate) fn set_batch_limit(&mut self, tokens: usize) {
        self.batch_limit = tokens.clamp(1, WalkBatch::CAPACITY);
    }

    /// Pre-seeds the set of permanently dead neighbors (e.g. links declared
    /// dead in an earlier sub-phase): tokens are never routed toward them.
    /// More deaths may arrive at runtime via
    /// [`NodeProgram::on_neighbor_down`].
    #[must_use]
    pub fn with_dead_neighbors(mut self, mut peers: Vec<NodeId>) -> WalkProgram {
        peers.sort_unstable();
        peers.dedup();
        self.dead_neighbors = peers;
        self
    }

    /// Neighbors this program considers permanently dead (sorted).
    pub fn dead_neighbors(&self) -> &[NodeId] {
        &self.dead_neighbors
    }

    /// The nonzero visit counts `ξ_me^s` harvested after the phase
    /// completes, as `(s, ξ_me^s)` by ascending source.
    pub fn counts(&self) -> Vec<(NodeId, u64)> {
        sorted(&self.counts)
    }

    /// The nonzero walk completions observed at this node (absorptions
    /// here if this node is the target, truncations otherwise), as
    /// `(source, completions)` by ascending source.
    pub fn deaths(&self) -> Vec<(NodeId, u64)> {
        sorted(&self.deaths)
    }

    /// Tokens still parked here (0 after a completed run).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Walks this node launched.
    pub fn launched(&self) -> usize {
        if self.me == self.target {
            0
        } else {
            self.k
        }
    }

    /// One draw from the stream keyed by the walk state `(me, source,
    /// remaining)`: the `i`-th token processed at that state gets ticket
    /// `i`, and the value is a pure function of `(draw_seed, me, source,
    /// remaining, i)`. Tokens at the same state are exchangeable, so which
    /// of them gets which ticket never changes the visit-count multiset —
    /// the schedule-invariance property in the type docs.
    fn roll(&mut self, source: NodeId, remaining: u32, bound: usize) -> usize {
        let t = self
            .tickets
            .entry(state_key(source, remaining))
            .or_insert(0);
        let ticket = *t;
        *t += 1;
        let mut h = self.draw_seed;
        for w in [
            self.me as u64,
            source as u64,
            u64::from(remaining),
            u64::from(ticket),
        ] {
            h = splitmix64(h ^ w);
        }
        // Multiply-shift maps the 64-bit hash uniformly onto `0..bound`
        // (bias ≤ bound/2^64 — unmeasurable at graph degrees) without
        // paying an RNG key setup per draw on the hot path.
        ((u128::from(h) * bound as u128) >> 64) as usize
    }

    /// Rolls a neighbor for every queued token and ships what the
    /// congestion discipline allows; the rest stay queued.
    fn forward(&mut self, ctx: &mut Context<'_, WalkBatch>) {
        if self.queue.is_empty() {
            return;
        }
        let deg = ctx.degree();
        debug_assert!(deg > 0, "connected graphs have no isolated nodes");
        // With dead neighbors the walk re-samples uniformly among the
        // survivors — the walk distribution of the *surviving* graph.
        if !self.dead_neighbors.is_empty() {
            let live = &mut self.scratch.live;
            live.clear();
            live.extend(
                (0..deg).filter(|&i| self.dead_neighbors.binary_search(&ctx.neighbor(i)).is_err()),
            );
            if live.is_empty() {
                // Every neighbor is gone: the node is stranded and its
                // walks can never move again. Truncate them in place so
                // the death tally (and with it termination) stays exact.
                for q in self.queue.drain(..) {
                    *self.deaths.entry(q.token.source).or_insert(0) += 1;
                }
                return;
            }
        }
        let live_len = self.scratch.live.len();
        let max_per_edge = match self.discipline {
            CongestionDiscipline::HoldAndResend => 1,
            CongestionDiscipline::Batched => self.batch_limit,
        };
        if self.scratch.per_neighbor.len() < deg {
            self.scratch
                .per_neighbor
                .resize(deg, WalkBatch::empty(self.len_bits));
        }
        debug_assert!(self
            .scratch
            .per_neighbor
            .iter()
            .all(|b| b.tokens().is_empty()));
        debug_assert!(self.scratch.keep.is_empty());
        // Roll a neighbor for each token that doesn't have one yet (paper
        // line 6, first half: "choose a random neighbor v") and bucket it,
        // taking up to `max_per_edge` per neighbor; the rest wait (line 6,
        // second half) and keep their roll, so congestion never costs a
        // state a second draw.
        let mut queue = std::mem::take(&mut self.queue);
        for q in queue.drain(..) {
            let choice = match q.choice {
                Some(c) => c as usize,
                None if self.dead_neighbors.is_empty() => {
                    self.roll(q.token.source, q.token.remaining, deg)
                }
                None => {
                    let j = self.roll(q.token.source, q.token.remaining, live_len);
                    self.scratch.live[j]
                }
            };
            let bucket = &mut self.scratch.per_neighbor[choice];
            if bucket.tokens().len() < max_per_edge {
                bucket.push(q.token);
            } else {
                self.scratch.keep.push(Queued {
                    token: q.token,
                    choice: Some(choice as u32),
                });
            }
        }
        // `queue` was fully drained; after the swap it holds the kept
        // tokens and `scratch.keep` is the (empty) old queue buffer.
        std::mem::swap(&mut queue, &mut self.scratch.keep);
        self.queue = queue;
        for i in 0..deg {
            if self.scratch.per_neighbor[i].tokens().is_empty() {
                continue;
            }
            let batch = std::mem::replace(
                &mut self.scratch.per_neighbor[i],
                WalkBatch::empty(self.len_bits),
            );
            ctx.send(ctx.neighbor(i), batch);
        }
    }
}

// Checkpoint encoding (see `congest_sim::wire::WireState`): everything
// but `scratch`, which is empty at every round boundary by construction,
// and `batch_limit`, which the driver sets again on restore. Tickets are
// sorted by `(source, remaining)`, and `counts` and `deaths` written as
// their sorted nonzero rows after `n`, so two equal programs always
// produce identical bytes — the hinge of the daemon's checkpoint-resume
// bit-identity guarantee.
impl congest_sim::wire::WireState for WalkProgram {
    fn encode_state(&self, w: &mut congest_sim::wire::BitWriter) {
        self.me.encode_state(w);
        self.target.encode_state(w);
        self.k.encode_state(w);
        self.len_bits.encode_state(w);
        matches!(self.discipline, CongestionDiscipline::Batched).encode_state(w);
        self.draw_seed.encode_state(w);
        let mut tickets: Vec<((NodeId, u32), u32)> = self
            .tickets
            .iter()
            .map(|(&key, &t)| (((key >> 32) as NodeId, key as u32), t))
            .collect();
        tickets.sort_unstable();
        tickets.encode_state(w);
        let queue: Vec<(WalkToken, Option<u32>)> =
            self.queue.iter().map(|q| (q.token, q.choice)).collect();
        queue.encode_state(w);
        self.n.encode_state(w);
        self.counts().encode_state(w);
        self.deaths().encode_state(w);
        self.dead_neighbors.encode_state(w);
        self.started.encode_state(w);
    }

    fn decode_state(r: &mut congest_sim::wire::BitReader<'_>) -> Option<WalkProgram> {
        let me = usize::decode_state(r)?;
        let target = usize::decode_state(r)?;
        let k = usize::decode_state(r)?;
        let len_bits = u8::decode_state(r)?;
        let discipline = if bool::decode_state(r)? {
            CongestionDiscipline::Batched
        } else {
            CongestionDiscipline::HoldAndResend
        };
        let draw_seed = u64::decode_state(r)?;
        let tickets: Vec<((NodeId, u32), u32)> = Vec::decode_state(r)?;
        let queue: Vec<(WalkToken, Option<u32>)> = Vec::decode_state(r)?;
        let n = usize::decode_state(r)?;
        let counts: Vec<(NodeId, u64)> = Vec::decode_state(r)?;
        let deaths: Vec<(NodeId, u64)> = Vec::decode_state(r)?;
        // Every node id the state holds must name a node of the network,
        // and a row holds nonzero tallies by strictly ascending source;
        // anything else is a corrupt image.
        let row_ok = |row: &[(NodeId, u64)]| {
            row.windows(2).all(|w| w[0].0 < w[1].0) && row.iter().all(|&(s, c)| c != 0 && s < n)
        };
        let consistent = u32::try_from(n).is_ok()
            && me < n
            && target < n
            && queue.iter().all(|(token, _)| token.source < n)
            && tickets.iter().all(|&((source, _), _)| source < n)
            && row_ok(&counts)
            && row_ok(&deaths);
        if !consistent {
            return None;
        }
        Some(WalkProgram {
            me,
            n,
            target,
            k,
            len_bits,
            discipline,
            batch_limit: 1,
            draw_seed,
            tickets: tickets
                .into_iter()
                .map(|((source, remaining), t)| (state_key(source, remaining), t))
                .collect(),
            queue: queue
                .into_iter()
                .map(|(token, choice)| Queued { token, choice })
                .collect(),
            counts: counts.into_iter().collect(),
            deaths: deaths.into_iter().collect(),
            dead_neighbors: Vec::decode_state(r)?,
            started: bool::decode_state(r)?,
            scratch: ForwardScratch::default(),
        })
    }
}

impl NodeProgram for WalkProgram {
    type Msg = WalkBatch;

    fn on_start(&mut self, ctx: &mut Context<'_, WalkBatch>) {
        self.started = true;
        self.forward(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, WalkBatch>, inbox: &[Incoming<WalkBatch>]) {
        let mut absorbed = 0u64;
        let mut truncated = 0u64;
        for batch in inbox {
            for token in batch.msg.tokens() {
                // Paper lines 7-16: absorb at the target, otherwise count
                // the visit, decrement, and keep the walk if it has hops
                // left.
                if self.me == self.target {
                    *self.deaths.entry(token.source).or_insert(0) += 1;
                    absorbed += 1;
                    continue; // absorbed
                }
                *self.counts.entry(token.source).or_insert(0) += 1;
                if token.remaining > 1 {
                    self.queue.push(Queued::fresh(WalkToken {
                        source: token.source,
                        remaining: token.remaining - 1,
                    }));
                } else {
                    // Truncated here: this walk has completed its budget.
                    *self.deaths.entry(token.source).or_insert(0) += 1;
                    truncated += 1;
                }
            }
        }
        if ctx.tracing() {
            if absorbed > 0 {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "absorbed".to_string(),
                    value: absorbed,
                });
            }
            if truncated > 0 {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "truncated".to_string(),
                    value: truncated,
                });
            }
        }
        self.forward(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.queue.is_empty()
    }

    fn on_neighbor_down(&mut self, peer: NodeId) {
        if let Err(pos) = self.dead_neighbors.binary_search(&peer) {
            self.dead_neighbors.insert(pos, peer);
            // Stored rolls may point at the dead neighbor (and the
            // live-index mapping just changed); force a re-draw among the
            // survivors for everything still parked here.
            for q in &mut self.queue {
                q.choice = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::wire::{BitReader, BitWriter, WireState};
    use congest_sim::{SimConfig, Simulator};
    use rwbc_graph::generators::{complete, cycle, path, star};

    fn run_phase(
        g: &rwbc_graph::Graph,
        target: NodeId,
        k: usize,
        l: usize,
        discipline: CongestionDiscipline,
        seed: u64,
    ) -> (Vec<Vec<u64>>, congest_sim::RunStats) {
        let n = g.node_count();
        let len_bits = crate::distributed::messages::len_field_bits(l);
        let cfg = SimConfig::default().with_seed(seed);
        let batch = WalkBatch::fit(cfg.budget_bits(n), n, len_bits);
        let mut sim = Simulator::new(g, cfg, |v| {
            WalkProgram::new(v, n, target, k, l, len_bits, discipline)
                .with_draw_seed(seed)
                .with_batch_limit(batch)
        });
        let stats = sim.run().unwrap();
        let counts = (0..n)
            .map(|v| {
                let mut row = vec![0; n];
                for (s, c) in sim.program(v).counts() {
                    row[s] = c;
                }
                row
            })
            .collect();
        (counts, stats)
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // column-indexed scans of the count matrix
    fn walk_conservation_on_cycle() {
        // Each walk makes visits: birth + one per completed hop. Total
        // visits across all nodes from source s equals K (birth) + hops
        // taken; hops <= K * l. Just sanity-check bounds and that the
        // target row stays zero.
        let g = cycle(6).unwrap();
        let (counts, stats) = run_phase(&g, 0, 5, 20, CongestionDiscipline::HoldAndResend, 1);
        assert!(stats.congest_compliant());
        for s in 1..6 {
            let total: u64 = (0..6).map(|v| counts[v][s]).sum();
            assert!(total >= 5, "source {s} total {total}");
            assert!(total <= 5 * 21, "source {s} total {total}");
        }
        // The absorbing target never counts visits.
        assert!(counts[0].iter().all(|&c| c == 0));
        // And no walks start at the target: column 0 of every node is 0.
        for v in 1..6 {
            assert_eq!(counts[v][0], 0);
        }
    }

    #[test]
    fn birth_visits_counted() {
        let g = path(4).unwrap();
        let (counts, _) = run_phase(&g, 3, 7, 1, CongestionDiscipline::HoldAndResend, 2);
        // With l = 1 every walk makes exactly one hop; the birth visit must
        // still be there.
        for (s, row) in counts.iter().enumerate().take(3) {
            assert!(row[s] >= 7, "node {s} birth visits {}", row[s]);
        }
    }

    #[test]
    fn all_walks_drain_and_queues_empty() {
        let g = complete(8).unwrap();
        let n = g.node_count();
        let len_bits = crate::distributed::messages::len_field_bits(30);
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(3), |v| {
            WalkProgram::new(
                v,
                n,
                2,
                10,
                30,
                len_bits,
                CongestionDiscipline::HoldAndResend,
            )
            .with_draw_seed(3)
        });
        sim.run().unwrap();
        for v in 0..n {
            assert_eq!(sim.program(v).queued(), 0);
        }
    }

    #[test]
    fn expected_visits_approach_fundamental_matrix() {
        // Path 0-1-2 absorbed at 2: E[visits to 0 from 0] = 2 (see the
        // Monte-Carlo test of the same quantity). Distributed must agree.
        let g = path(3).unwrap();
        let k = 8000;
        let (counts, _) = run_phase(&g, 2, k, 200, CongestionDiscipline::HoldAndResend, 4);
        let est = counts[0][0] as f64 / k as f64;
        assert!((est - 2.0).abs() < 0.15, "visits(0<-0) = {est}");
    }

    #[test]
    fn batched_discipline_matches_hold_and_resend_statistically() {
        let g = star(6).unwrap();
        let k = 2000;
        let (a, stats_a) = run_phase(&g, 6, k, 60, CongestionDiscipline::HoldAndResend, 5);
        let (b, stats_b) = run_phase(&g, 6, k, 60, CongestionDiscipline::Batched, 5);
        assert!(stats_a.congest_compliant());
        assert!(stats_b.congest_compliant());
        // Batched drains the K-token backlog faster.
        assert!(stats_b.rounds <= stats_a.rounds);
        // Same estimator: per-node totals agree within Monte-Carlo noise.
        for v in 0..6 {
            let ta: u64 = a[v].iter().sum();
            let tb: u64 = b[v].iter().sum();
            if ta + tb > 1000 {
                let ratio = ta as f64 / tb as f64;
                assert!((0.9..1.1).contains(&ratio), "node {v}: {ta} vs {tb}");
            }
        }
    }

    /// The image of `p` with its `counts` and `deaths` rows replaced, in
    /// `encode_state`'s field order.
    fn image_with_rows(
        p: &WalkProgram,
        counts: &[(NodeId, u64)],
        deaths: &[(NodeId, u64)],
    ) -> Vec<u8> {
        let mut tickets: Vec<((NodeId, u32), u32)> = p
            .tickets
            .iter()
            .map(|(&key, &t)| (((key >> 32) as NodeId, key as u32), t))
            .collect();
        tickets.sort_unstable();
        let queue: Vec<(WalkToken, Option<u32>)> =
            p.queue.iter().map(|q| (q.token, q.choice)).collect();
        let mut w = BitWriter::new();
        p.me.encode_state(&mut w);
        p.target.encode_state(&mut w);
        p.k.encode_state(&mut w);
        p.len_bits.encode_state(&mut w);
        matches!(p.discipline, CongestionDiscipline::Batched).encode_state(&mut w);
        p.draw_seed.encode_state(&mut w);
        tickets.encode_state(&mut w);
        queue.encode_state(&mut w);
        p.n.encode_state(&mut w);
        counts.to_vec().encode_state(&mut w);
        deaths.to_vec().encode_state(&mut w);
        p.dead_neighbors.encode_state(&mut w);
        p.started.encode_state(&mut w);
        w.finish()
    }

    #[test]
    fn decode_rejects_inconsistent_walk_state() {
        // Node 1 of a 5-node network with target 4: three births, two
        // tickets issued at the birth state, a visit from source 3 and a
        // death of source 0.
        let n = 5;
        let mut p = WalkProgram::new(1, n, 4, 3, 6, 3, CongestionDiscipline::HoldAndResend);
        p.roll(1, 6, 2);
        p.roll(1, 6, 2);
        p.counts.insert(3, 2);
        p.deaths.insert(0, 1);
        let (counts, deaths) = ([(1, 3), (3, 2)], [(0, 1)]);
        let encode = |p: &WalkProgram| {
            let mut w = BitWriter::new();
            p.encode_state(&mut w);
            w.finish()
        };
        let decode = |bytes: &[u8]| WalkProgram::decode_state(&mut BitReader::new(bytes));
        // The hand-built image is the real one, and it round-trips.
        assert_eq!(image_with_rows(&p, &counts, &deaths), encode(&p));
        let back = decode(&encode(&p)).expect("valid image");
        assert_eq!(encode(&back), encode(&p));
        // A row out of order, repeating a source, holding a zero or
        // naming a source outside the network.
        let bad_rows: [&[(NodeId, u64)]; 4] = [
            &[(3, 2), (1, 3)],
            &[(1, 3), (1, 2)],
            &[(1, 3), (3, 0)],
            &[(1, 3), (5, 2)],
        ];
        for bad in bad_rows {
            assert!(decode(&image_with_rows(&p, bad, &deaths)).is_none());
            assert!(decode(&image_with_rows(&p, &counts, bad)).is_none());
        }
        // A node id outside the network: this node, the target, a parked
        // token's source, a ticket's source.
        let edits: [fn(&mut WalkProgram); 4] = [
            |p| p.me = 5,
            |p| p.target = 5,
            |p| {
                p.queue.push(Queued::fresh(WalkToken {
                    source: 5,
                    remaining: 2,
                }))
            },
            |p| {
                p.tickets.insert(state_key(5, 2), 1);
            },
        ];
        for edit in edits {
            let mut bad = p.clone();
            edit(&mut bad);
            assert!(decode(&encode(&bad)).is_none());
        }
    }

    #[test]
    fn congestion_delays_but_preserves_hop_budget() {
        // Many walks from one node of a path: degree-1 endpoint can emit
        // only one token per round, so draining K tokens takes >= K rounds.
        let g = path(2).unwrap();
        let (_, stats) = run_phase(&g, 1, 50, 3, CongestionDiscipline::HoldAndResend, 6);
        assert!(stats.rounds >= 50, "rounds {}", stats.rounds);
    }
}
