//! Reliable in-order delivery over lossy CONGEST links.
//!
//! [`Reliable<P>`] wraps any [`NodeProgram`] and gives it exactly-once,
//! in-order per-neighbor delivery on top of a faulty network (see
//! [`FaultPlan`](crate::FaultPlan)): a sliding-window ARQ with small
//! sequence numbers, cumulative acknowledgments piggybacked on every
//! message, and timeout-driven retransmission with capped exponential
//! backoff.
//!
//! # Staying inside the CONGEST budget
//!
//! The adapter never sends more than **one** frame per neighbor per round,
//! so the per-edge message limit is respected. A frame adds
//! [`Reliable::<P>::HEADER_BITS`] to the payload it carries (2 tag bits +
//! 4-bit cumulative ack + 4-bit sequence number) — a constant, so a
//! protocol that fit `O(log n)` bits still fits after reserving the header
//! (callers shave the header off the budget they size payloads against).
//! A pure ack is the 2 tag bits and the ack. Retransmissions do not widen
//! any frame; they consume a later round's slot on the same edge.
//!
//! # Time dilation
//!
//! The wrapped program still executes once per engine round, but its
//! messages may take several rounds to arrive (retransmissions, queueing
//! behind the one-frame-per-round limit). The adapter therefore suits
//! *self-clocking* protocols — ones driven by message arrival order, not
//! by the global round number. The RWBC walk phase and the
//! strict-delivery count phase are of this kind; a protocol that infers
//! sender state from `ctx.round()` is not.
//!
//! # Determinism
//!
//! The adapter holds no randomness of its own; all its decisions are
//! functions of arrival order, which the engine keeps deterministic.
//!
//! # Failure detection: permanently dead links
//!
//! ARQ alone cannot distinguish a dead link from a slow one: under a
//! *permanent* [`LinkOutage`](crate::LinkOutage) (or a never-recovering
//! crash of a neighbor) a plain [`Reliable::new`] adapter retransmits with
//! capped backoff until the engine's hard round budget fires, and the run
//! ends in `SimError::RoundBudgetExceeded` — a typed error rather than a
//! silent hang, but no recovery.
//!
//! [`Reliable::with_failure_detection`] adds the missing detector. Every
//! data frame already doubles as a heartbeat (it demands a cumulative-ack
//! response), so the detector piggybacks on the existing traffic: it costs
//! **zero extra rounds and zero extra bits** when the network is healthy,
//! and only constant per-channel state (a strike counter) otherwise. A
//! channel accrues one *strike* per timeout-driven retransmission that
//! happens with no ack progress in between; any progress resets the
//! count. When the strikes reach the configured threshold the channel is
//! **declared dead**: retransmission stops, buffered payloads are
//! abandoned (counted in
//! [`RunStats::undeliverable_messages`](crate::RunStats::undeliverable_messages)),
//! the wrapped program is told via [`NodeProgram::on_neighbor_down`],
//! and the channel counts as quiescent for termination. Declarations are
//! irrevocable — frames later arriving from a declared-dead peer are
//! ignored.
//!
//! The guarantees are those of an eventually-perfect detector *under the
//! permanence assumption*:
//!
//! * **Completeness** — a channel with outstanding traffic toward a
//!   permanently dead link is declared within a bounded number of rounds
//!   (at most `threshold` retransmission timeouts, each capped at
//!   [`MAX_TIMEOUT`](self) rounds), so the run always terminates.
//! * **Accuracy** — only channels with outstanding unacknowledged traffic
//!   can accrue strikes; a healthy-but-silent neighbor is never suspected.
//!   Against *probabilistic* loss the detector can still false-positive
//!   (`threshold` consecutive loss events); pick the threshold so
//!   `p_loss^threshold` is negligible, or keep [`Reliable::new`], which
//!   never declares.
//!
//! Bounded outages and crash–recover schedules shorter than the declaration
//! window are still repaired transparently, exactly as without detection.
//!
//! # Integrity: checksummed frames
//!
//! Loss is not the only way a link misbehaves —
//! [`FaultPlan`](crate::FaultPlan) can also *corrupt* frames in flight
//! (bit flips, truncation, garbage). A plain adapter has no way to tell a
//! mangled frame from a genuine one: a flipped payload bit is delivered
//! as data, a flipped sequence number desynchronizes the window.
//! [`Reliable::with_checksums`] closes the gap: every outgoing frame is
//! sealed with a CRC-32 over its content. `ReliableMsg`'s
//! [`Message::write`] puts the frame as
//!
//! ```text
//! | 1b payload? | 4b seq | payload | 4b ack | 1b sealed? | 32-bit CRC |
//! ```
//!
//! where the sequence number and payload are present only in a payload
//! frame and the CRC only in a sealed one; the seal covers the bits
//! before the `sealed?` flag. The two flag bits are the header's 2 tag
//! bits.
//!
//! and every incoming frame is verified before *any* of it is trusted —
//! a frame that fails its checksum is discarded whole (no ack
//! processing, no delivery, no window movement), counted in
//! [`RunStats::corrupt_frames_detected`](crate::RunStats::corrupt_frames_detected),
//! and repaired by the ordinary timeout/retransmission machinery exactly
//! as if it had been dropped. The seal costs a constant
//! [`FRAME_CHECKSUM_BITS`] per frame, so an `O(log n)`-bit protocol
//! stays `O(log n)` (callers reserve `HEADER_BITS + CHECKSUM_BITS` off
//! the budget they size payloads against).
//!
//! A link that corrupts *persistently* would otherwise retransmit
//! forever; when the failure detector is armed
//! ([`Reliable::with_failure_detection`]), consecutive corrupt frames
//! from a peer accrue strikes just like no-progress retransmissions, and
//! reaching the threshold **quarantines** the channel through the same
//! dead-link declaration path — bounded damage instead of an unbounded
//! retry loop. Any valid frame from the peer resets its strikes.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use crate::fault::CorruptionKind;
use crate::node::{Context, Incoming};
use crate::stats::ReliabilityStats;
use crate::trace::TraceEvent;
use crate::wire::{BitSink, Crc32};
use crate::{Message, NodeProgram};

use rwbc_graph::NodeId;

/// Sequence-number width in bits. The window must stay at or below half
/// the sequence space for old-duplicate and in-window detection to stay
/// unambiguous.
const SEQ_BITS: usize = 4;
/// Sequence-number modulus.
const SEQ_MOD: u8 = 1 << SEQ_BITS;
/// Sliding-window size: frames a sender may have outstanding per neighbor.
const WINDOW: u8 = 4;
/// Rounds a sender waits for ack progress before retransmitting. The
/// fault-free round trip is 2 rounds (frame out, ack back); the base adds
/// slack for the ack's own queueing.
const BASE_TIMEOUT: usize = 4;
/// Backoff cap: retransmission intervals double up to this many rounds.
pub(crate) const MAX_TIMEOUT: usize = 32;

/// Default declaration threshold for
/// [`Reliable::with_failure_detection`]: strikes (consecutive
/// no-progress retransmissions) before a channel is declared dead. At a
/// 5% loss rate the false-positive odds per window are below 1e-8.
pub const DEFAULT_DEATH_THRESHOLD: usize = 8;

/// Bits a [`Reliable::with_checksums`] seal adds to every frame: one
/// CRC-32 word.
pub const FRAME_CHECKSUM_BITS: usize = 32;

/// A delivery-layer frame: an optional sequenced payload plus a cumulative
/// acknowledgment. Every frame acks; payload-free frames are "pure acks".
/// Under [`Reliable::with_checksums`] the frame additionally carries a
/// CRC-32 seal over its content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableMsg<M> {
    /// Sequenced payload, absent for a pure ack.
    payload: Option<(u8, M)>,
    /// Cumulative ack: the next sequence number this node expects from the
    /// destination (everything before it has been delivered in order).
    ack: u8,
    /// CRC-32 seal over the frame content; `None` in plain (unsealed)
    /// mode, which keeps the wire accounting bit-identical to the
    /// pre-checksum adapter.
    crc: Option<u32>,
}

impl<M: Message> ReliableMsg<M> {
    /// CRC-32 over the frame's content bits: everything [`Message::write`]
    /// puts before the seal flag.
    fn content_crc(&self, n: usize) -> u32 {
        let mut crc = Crc32::new();
        self.write_content(n, &mut crc);
        crc.finish()
    }

    /// The content part of the frame: payload-presence flag, sequence
    /// number and payload (when present), cumulative ack.
    fn write_content(&self, n: usize, out: &mut impl BitSink) {
        match &self.payload {
            Some((seq, m)) => {
                out.put(1, 1);
                out.put(u64::from(*seq), SEQ_BITS);
                m.write(n, out);
            }
            None => out.put(0, 1),
        }
        out.put(u64::from(self.ack), SEQ_BITS);
    }
}

impl<M: Message> Message for ReliableMsg<M> {
    /// The frame as the module docs draw it: the content, then the seal
    /// flag and, when sealed, the seal. A nested checksummed layer thus
    /// covers every bit, the seal included.
    fn write(&self, n: usize, out: &mut impl BitSink) {
        self.write_content(n, out);
        match self.crc {
            Some(seal) => {
                out.put(1, 1);
                out.put(u64::from(seal), FRAME_CHECKSUM_BITS);
            }
            None => out.put(0, 1),
        }
    }

    /// Structure-aware corruption: the damage lands on one of the frame's
    /// fields (ack, sequence number, or the payload via `M::corrupted`).
    /// The seal is deliberately *not* recomputed — a mangled sealed frame
    /// carries a stale CRC, which is exactly what a checksummed receiver
    /// detects.
    fn corrupted(&self, kind: CorruptionKind, n: usize, rng: &mut StdRng) -> Option<Self> {
        fn mangle_seq(v: u8, kind: CorruptionKind, rng: &mut StdRng) -> u8 {
            match kind {
                CorruptionKind::BitFlip => v ^ (1 << rng.gen_range(0..SEQ_BITS)),
                _ => rng.gen_range(0..u64::from(SEQ_MOD)) as u8,
            }
        }
        let mut m = self.clone();
        match kind {
            // Truncation chops the frame's tail — the payload. A pure ack
            // loses its only content and becomes unparseable.
            CorruptionKind::Truncate => match m.payload.take() {
                Some((seq, p)) => match p.corrupted(CorruptionKind::Truncate, n, rng) {
                    Some(tp) => m.payload = Some((seq, tp)),
                    None => return None,
                },
                None => return None,
            },
            CorruptionKind::BitFlip | CorruptionKind::Garbage => {
                // Pick a field, weighted over the frame layout; header
                // damage falls back to the ack when there is no payload.
                match rng.gen_range(0..3usize) {
                    0 => m.ack = mangle_seq(m.ack, kind, rng),
                    1 => match &mut m.payload {
                        Some((seq, _)) => *seq = mangle_seq(*seq, kind, rng),
                        None => m.ack = mangle_seq(m.ack, kind, rng),
                    },
                    _ => match m.payload.take() {
                        Some((seq, p)) => match p.corrupted(kind, n, rng) {
                            Some(mp) => m.payload = Some((seq, mp)),
                            None => return None,
                        },
                        None => m.ack = mangle_seq(m.ack, kind, rng),
                    },
                }
            }
        }
        Some(m)
    }
}

/// Circular distance `b - a (mod 2^SEQ_BITS)`.
fn seq_dist(a: u8, b: u8) -> u8 {
    b.wrapping_sub(a) & (SEQ_MOD - 1)
}

/// Per-neighbor ARQ state.
#[derive(Debug, Clone)]
struct Channel {
    /// The neighbor's node id.
    peer: NodeId,
    /// Application messages accepted from the inner program but not yet
    /// put on the wire.
    backlog: VecDeque<ReliableBuffered>,
    /// Frames on the wire (or lost) awaiting acknowledgment, oldest first.
    unacked: VecDeque<(u8, ReliableBuffered)>,
    /// Sequence number of the next fresh frame.
    next_seq: u8,
    /// Next in-order sequence number expected from the peer.
    expected: u8,
    /// Whether the peer is owed an ack not yet carried by any frame.
    owes_ack: bool,
    /// Rounds since the last transmission or ack progress on this channel.
    idle_rounds: usize,
    /// Current retransmission timeout (backs off exponentially).
    timeout: usize,
    /// Timeout-driven retransmissions since the last ack progress; feeds
    /// the failure detector when one is enabled.
    strikes: usize,
    /// Consecutive checksum failures from this peer; any valid frame
    /// resets it. Feeds the quarantine escalation when the failure
    /// detector is armed under [`Reliable::with_checksums`].
    corrupt_strikes: usize,
    /// Whether this channel has been declared permanently dead. Dead
    /// channels send nothing, accept nothing, and count as quiescent.
    dead: bool,
}

/// Index of a buffered payload in [`Reliable`]'s `slots`: channels queue
/// slot indices, and the payload itself is stored once until acked.
type ReliableBuffered = usize;

impl Channel {
    fn new(peer: NodeId) -> Channel {
        Channel {
            peer,
            backlog: VecDeque::new(),
            unacked: VecDeque::new(),
            next_seq: 0,
            expected: 0,
            owes_ack: false,
            idle_rounds: 0,
            timeout: BASE_TIMEOUT,
            strikes: 0,
            corrupt_strikes: 0,
            dead: false,
        }
    }

    fn quiescent(&self) -> bool {
        self.dead || (self.backlog.is_empty() && self.unacked.is_empty() && !self.owes_ack)
    }
}

/// Reliable-delivery adapter; see the module docs.
///
/// Wrap the per-node program when constructing the simulator and unwrap
/// results through [`Reliable::inner`]:
///
/// ```
/// use congest_sim::{algorithms::Flood, FaultPlan, Reliable, SimConfig, Simulator};
/// use rwbc_graph::generators::cycle;
///
/// # fn main() -> Result<(), congest_sim::SimError> {
/// let g = cycle(8).unwrap();
/// let faults = FaultPlan::default().with_drop_probability(0.3);
/// let cfg = SimConfig::default().with_faults(faults).with_seed(11);
/// let mut sim = Simulator::new(&g, cfg, |v| Reliable::new(Flood::new(v, 0)));
/// let stats = sim.run()?;
/// assert!(sim.programs().iter().all(|p| p.inner().informed()));
/// assert!(stats.dropped > 0); // faults fired…
/// assert_eq!(stats.retransmissions > 0, true); // …and were repaired
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reliable<P: NodeProgram> {
    inner: P,
    /// Buffered payloads, indexed by the `ReliableBuffered` handles stored
    /// in channels. Slots are freed on ack.
    slots: Vec<Option<P::Msg>>,
    free_slots: Vec<usize>,
    channels: Vec<Channel>,
    retransmissions: u64,
    duplicates_suppressed: u64,
    inner_last_active_round: Option<usize>,
    /// Whether outgoing frames are sealed with a CRC-32 and incoming
    /// frames verified against theirs (see the module docs).
    checksums: bool,
    /// Incoming frames discarded because they failed their checksum.
    corrupt_frames_detected: u64,
    /// Strike threshold of the failure detector; `None` disables
    /// detection entirely (the original retransmit-forever behavior).
    detect_after: Option<usize>,
    /// Peers known dead before the run starts (survivor-side restarts);
    /// their channels are declared at channel setup, before any traffic.
    preseed_dead: Vec<NodeId>,
    dead_links_declared: u64,
    undeliverable: u64,
    /// Reused buffer for the inner program's outbox, taken/restored around
    /// each [`Reliable::step_inner`] call so steady-state rounds allocate
    /// nothing. Always empty between rounds.
    outbox_scratch: Vec<(NodeId, P::Msg)>,
    /// Reused buffer for in-order deliveries, taken in
    /// [`Reliable::absorb`] and restored after the inner program consumed
    /// the slice. Always empty between rounds.
    delivered_scratch: Vec<Incoming<P::Msg>>,
}

impl<P: NodeProgram> Reliable<P> {
    /// Bits a frame adds on top of the payload it carries.
    pub const HEADER_BITS: usize = 2 + SEQ_BITS + SEQ_BITS;
    /// Extra bits per frame under [`Reliable::with_checksums`].
    pub const CHECKSUM_BITS: usize = FRAME_CHECKSUM_BITS;

    /// Wraps `inner` in the reliable-delivery layer (no failure detection:
    /// a permanently dead link retransmits until the round budget fires).
    pub fn new(inner: P) -> Reliable<P> {
        Reliable {
            inner,
            slots: Vec::new(),
            free_slots: Vec::new(),
            channels: Vec::new(),
            retransmissions: 0,
            duplicates_suppressed: 0,
            inner_last_active_round: None,
            checksums: false,
            corrupt_frames_detected: 0,
            detect_after: None,
            preseed_dead: Vec::new(),
            dead_links_declared: 0,
            undeliverable: 0,
            outbox_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
        }
    }

    /// Enables the piggybacked failure detector (see the module docs):
    /// after `threshold` consecutive no-progress retransmissions a channel
    /// is declared permanently dead instead of retried forever. Clamped to
    /// at least 1. Use [`DEFAULT_DEATH_THRESHOLD`] unless the fault plan's
    /// loss rate calls for more slack.
    #[must_use]
    pub fn with_failure_detection(mut self, threshold: usize) -> Reliable<P> {
        self.detect_after = Some(threshold.max(1));
        self
    }

    /// Seals every outgoing frame with a CRC-32 and verifies every
    /// incoming one (see the module docs). A frame that fails its
    /// checksum is discarded whole and repaired by retransmission; with
    /// [`Reliable::with_failure_detection`] also armed, a peer whose
    /// frames fail persistently is quarantined through the dead-link
    /// path. Costs [`Reliable::CHECKSUM_BITS`] extra bits per frame.
    #[must_use]
    pub fn with_checksums(mut self) -> Reliable<P> {
        self.checksums = true;
        self
    }

    /// Declares `peers` dead before the first round (they are *not*
    /// counted as detections). Survivor-side recovery uses this to carry
    /// knowledge of a partition into restarted sub-phases; the wrapped
    /// program still receives `on_neighbor_down` for each, at startup.
    #[must_use]
    pub fn with_dead_peers(mut self, peers: Vec<NodeId>) -> Reliable<P> {
        self.preseed_dead = peers;
        self
    }

    /// The wrapped application program.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped program.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Payload retransmissions performed so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Duplicate deliveries suppressed so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Peers whose channels this node has declared dead (detected or
    /// pre-seeded), in ascending id order.
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.channels
            .iter()
            .filter(|c| c.dead)
            .map(|c| c.peer)
            .collect()
    }

    /// Channel-death declarations this node made (pre-seeded deaths are
    /// prior knowledge and not counted).
    pub fn dead_links_declared(&self) -> u64 {
        self.dead_links_declared
    }

    /// Payloads abandoned because their channel died.
    pub fn undeliverable(&self) -> u64 {
        self.undeliverable
    }

    /// Incoming frames discarded because they failed their checksum
    /// (always 0 without [`Reliable::with_checksums`]).
    pub fn corrupt_frames_detected(&self) -> u64 {
        self.corrupt_frames_detected
    }

    /// Applies the CRC-32 seal to an outgoing frame when checksums are
    /// enabled; the identity otherwise.
    fn sealed(&self, mut frame: ReliableMsg<P::Msg>, n: usize) -> ReliableMsg<P::Msg> {
        if self.checksums {
            frame.crc = Some(frame.content_crc(n));
        }
        frame
    }

    /// Kills channel `ch`: abandons its buffered traffic, marks it
    /// quiescent-forever, and notifies the wrapped program. Idempotent by
    /// construction (callers check `dead` first). `ctx` is only used to
    /// emit the trace event; the engine-driven `on_neighbor_down` path
    /// has no context and passes `None`.
    fn declare_dead(
        &mut self,
        ch: usize,
        detected: bool,
        ctx: Option<&mut Context<'_, ReliableMsg<P::Msg>>>,
    ) {
        let mut drained: Vec<ReliableBuffered> = self.channels[ch]
            .unacked
            .drain(..)
            .map(|(_, slot)| slot)
            .collect();
        drained.extend(self.channels[ch].backlog.drain(..));
        self.undeliverable += drained.len() as u64;
        for slot in drained {
            self.release(slot);
        }
        let c = &mut self.channels[ch];
        c.dead = true;
        c.owes_ack = false;
        c.idle_rounds = 0;
        if detected {
            self.dead_links_declared += 1;
        }
        let peer = self.channels[ch].peer;
        if let Some(ctx) = ctx {
            if ctx.tracing() {
                let (round, node) = (ctx.round(), ctx.id());
                ctx.trace(TraceEvent::DeadLinkDeclared {
                    round,
                    node,
                    peer,
                    detected,
                });
            }
        }
        self.inner.on_neighbor_down(peer);
    }

    fn store(&mut self, msg: P::Msg) -> ReliableBuffered {
        if let Some(i) = self.free_slots.pop() {
            self.slots[i] = Some(msg);
            i
        } else {
            self.slots.push(Some(msg));
            self.slots.len() - 1
        }
    }

    fn release(&mut self, slot: ReliableBuffered) {
        self.slots[slot] = None;
        self.free_slots.push(slot);
    }

    fn channel_index(&self, peer: NodeId) -> usize {
        self.channels
            .binary_search_by_key(&peer, |c| c.peer)
            .expect("message from a non-neighbor")
    }

    /// Lazily builds per-neighbor channels (sorted by peer id), declaring
    /// any pre-seeded dead peers before the first frame moves.
    fn ensure_channels(&mut self, ctx: &mut Context<'_, ReliableMsg<P::Msg>>) {
        if self.channels.is_empty() {
            self.channels = ctx.neighbors().map(Channel::new).collect();
            for peer in std::mem::take(&mut self.preseed_dead) {
                if let Ok(ch) = self.channels.binary_search_by_key(&peer, |c| c.peer) {
                    if !self.channels[ch].dead {
                        self.declare_dead(ch, false, Some(&mut *ctx));
                    }
                }
            }
        }
    }

    /// Runs the inner program for one round and queues what it sent.
    fn step_inner(
        &mut self,
        ctx: &mut Context<'_, ReliableMsg<P::Msg>>,
        inbox: &[Incoming<P::Msg>],
        start: bool,
    ) {
        let mut inner_outbox = std::mem::take(&mut self.outbox_scratch);
        debug_assert!(inner_outbox.is_empty());
        let round = ctx.round();
        let id = ctx.id();
        let graph = ctx.graph_ref();
        {
            // The inner program shares the node's RNG *and* its trace
            // buffer, so application-level events flow through the
            // delivery layer unchanged.
            let (rng, trace) = ctx.rng_and_trace();
            let mut inner_ctx =
                Context::new(id, graph, rng, round, &mut inner_outbox).with_trace(trace);
            if start {
                self.inner.on_start(&mut inner_ctx);
            } else {
                self.inner.on_round(&mut inner_ctx, inbox);
            }
        }
        if !inbox.is_empty() || !inner_outbox.is_empty() {
            self.inner_last_active_round = Some(round);
        }
        for (to, msg) in inner_outbox.drain(..) {
            let ch = self.channel_index(to);
            if self.channels[ch].dead {
                // The inner program addressed a declared-dead peer; the
                // payload can never be delivered.
                self.undeliverable += 1;
                continue;
            }
            let slot = self.store(msg);
            self.channels[ch].backlog.push_back(slot);
        }
        self.outbox_scratch = inner_outbox;
    }

    /// Processes one round's frames: acks advance the window, in-order
    /// payloads are collected for the inner program, everything else is
    /// suppressed. Returns the inner inbox (the caller hands the buffer
    /// back to `delivered_scratch` once the inner program has run).
    fn absorb(
        &mut self,
        ctx: &mut Context<'_, ReliableMsg<P::Msg>>,
        frames: &[Incoming<ReliableMsg<P::Msg>>],
    ) -> Vec<Incoming<P::Msg>> {
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        debug_assert!(delivered.is_empty());
        let n = ctx.graph_ref().node_count();
        for frame in frames {
            let ch = self.channel_index(frame.from);
            if self.channels[ch].dead {
                // Irrevocable declaration: late frames from a declared-dead
                // peer are dropped without acknowledgment.
                continue;
            }
            // Integrity gate: a sealed frame is verified before *any* of
            // it is trusted. A mismatch (or a missing seal) discards the
            // whole frame — no ack processing, no delivery, no window
            // movement — and the ordinary retransmission machinery
            // repairs the loss. Persistent failures accrue strikes
            // toward quarantine when the detector is armed.
            if self.checksums {
                if frame.msg.crc != Some(frame.msg.content_crc(n)) {
                    self.corrupt_frames_detected += 1;
                    if ctx.tracing() {
                        let (round, node) = (ctx.round(), ctx.id());
                        ctx.trace(TraceEvent::CorruptFrameDetected {
                            round,
                            node,
                            peer: frame.from,
                        });
                    }
                    self.channels[ch].corrupt_strikes += 1;
                    if let Some(threshold) = self.detect_after {
                        if self.channels[ch].corrupt_strikes >= threshold {
                            self.declare_dead(ch, true, Some(&mut *ctx));
                        }
                    }
                    continue;
                }
                self.channels[ch].corrupt_strikes = 0;
            }
            // Cumulative ack: release every frame it covers.
            let mut progressed = false;
            while let Some(&(seq, slot)) = self.channels[ch].unacked.front() {
                if seq_dist(seq, frame.msg.ack) == 0 || seq_dist(seq, frame.msg.ack) > WINDOW {
                    break;
                }
                self.channels[ch].unacked.pop_front();
                self.release(slot);
                progressed = true;
            }
            if progressed {
                self.channels[ch].timeout = BASE_TIMEOUT;
                self.channels[ch].idle_rounds = 0;
                self.channels[ch].strikes = 0;
            }
            if let Some((seq, payload)) = &frame.msg.payload {
                let expected = self.channels[ch].expected;
                let d = seq_dist(expected, *seq);
                if d == 0 {
                    // In order: deliver and advance.
                    self.channels[ch].expected = expected.wrapping_add(1) & (SEQ_MOD - 1);
                    self.channels[ch].owes_ack = true;
                    delivered.push(Incoming {
                        from: frame.from,
                        msg: payload.clone(),
                    });
                } else if d < WINDOW {
                    // A gap: an earlier frame was lost. Go-back-N discards
                    // and re-acks so the sender rewinds.
                    self.channels[ch].owes_ack = true;
                } else {
                    // Behind the window: a retransmission of something
                    // already delivered (or a fault-injected duplicate).
                    self.duplicates_suppressed += 1;
                    if ctx.tracing() {
                        let (round, node) = (ctx.round(), ctx.id());
                        ctx.trace(TraceEvent::DuplicateSuppressed {
                            round,
                            node,
                            peer: frame.from,
                        });
                    }
                    self.channels[ch].owes_ack = true;
                }
            }
        }
        delivered
    }

    /// Emits at most one frame per neighbor: a timed-out retransmission,
    /// else the next fresh payload, else a pure ack if one is owed.
    /// Every frame is sealed on its way out when checksums are enabled.
    fn transmit(&mut self, ctx: &mut Context<'_, ReliableMsg<P::Msg>>) {
        let n = ctx.graph_ref().node_count();
        for ch in 0..self.channels.len() {
            if self.channels[ch].dead {
                continue;
            }
            let peer = self.channels[ch].peer;
            let ack = self.channels[ch].expected;
            if !self.channels[ch].unacked.is_empty() {
                self.channels[ch].idle_rounds += 1;
            }
            if self.channels[ch].idle_rounds >= self.channels[ch].timeout
                && !self.channels[ch].unacked.is_empty()
            {
                // A retransmission timeout fired with no ack progress since
                // the last one: a strike. When the detector is armed and the
                // strikes hit the threshold, the channel is declared dead
                // instead of retried — retransmission is bounded.
                if let Some(threshold) = self.detect_after {
                    if self.channels[ch].strikes >= threshold {
                        self.declare_dead(ch, true, Some(&mut *ctx));
                        continue;
                    }
                    self.channels[ch].strikes += 1;
                }
                // Retransmit the oldest outstanding frame and back off.
                let (seq, slot) = *self.channels[ch].unacked.front().expect("checked nonempty");
                let msg = self.slots[slot].clone().expect("slot held by unacked");
                self.retransmissions += 1;
                if ctx.tracing() {
                    let (round, node) = (ctx.round(), ctx.id());
                    ctx.trace(TraceEvent::Retransmission {
                        round,
                        node,
                        peer,
                        seq,
                    });
                }
                self.channels[ch].idle_rounds = 0;
                self.channels[ch].timeout = (self.channels[ch].timeout * 2).min(MAX_TIMEOUT);
                self.channels[ch].owes_ack = false;
                let frame = self.sealed(
                    ReliableMsg {
                        payload: Some((seq, msg)),
                        ack,
                        crc: None,
                    },
                    n,
                );
                ctx.send(peer, frame);
            } else if !self.channels[ch].backlog.is_empty()
                && (self.channels[ch].unacked.len() as u8) < WINDOW
            {
                let slot = self.channels[ch]
                    .backlog
                    .pop_front()
                    .expect("checked nonempty");
                let seq = self.channels[ch].next_seq;
                self.channels[ch].next_seq = seq.wrapping_add(1) & (SEQ_MOD - 1);
                self.channels[ch].unacked.push_back((seq, slot));
                self.channels[ch].idle_rounds = 0;
                self.channels[ch].owes_ack = false;
                let msg = self.slots[slot].clone().expect("slot held by backlog");
                let frame = self.sealed(
                    ReliableMsg {
                        payload: Some((seq, msg)),
                        ack,
                        crc: None,
                    },
                    n,
                );
                ctx.send(peer, frame);
            } else if self.channels[ch].owes_ack {
                self.channels[ch].owes_ack = false;
                let frame = self.sealed(
                    ReliableMsg {
                        payload: None,
                        ack,
                        crc: None,
                    },
                    n,
                );
                ctx.send(peer, frame);
            }
        }
    }
}

impl<P> NodeProgram for Reliable<P>
where
    P: NodeProgram,
    P::Msg: Message,
{
    type Msg = ReliableMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.ensure_channels(ctx);
        self.step_inner(ctx, &[], true);
        self.transmit(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[Incoming<Self::Msg>]) {
        self.ensure_channels(ctx);
        let mut delivered = self.absorb(ctx, inbox);
        self.step_inner(ctx, &delivered, false);
        delivered.clear();
        self.delivered_scratch = delivered;
        self.transmit(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated() && self.channels.iter().all(Channel::quiescent)
    }

    fn reliability_stats(&self) -> Option<ReliabilityStats> {
        Some(ReliabilityStats {
            retransmissions: self.retransmissions,
            duplicates_suppressed: self.duplicates_suppressed,
            corrupt_frames_detected: self.corrupt_frames_detected,
            dead_links_declared: self.dead_links_declared,
            undeliverable_messages: self.undeliverable,
            inner_last_active_round: self.inner_last_active_round,
        })
    }

    fn on_neighbor_down(&mut self, peer: NodeId) {
        // An outer layer (or a test harness) declared the peer dead for
        // us: kill the channel if it exists, else pre-seed for setup.
        match self.channels.binary_search_by_key(&peer, |c| c.peer) {
            Ok(ch) if !self.channels[ch].dead => self.declare_dead(ch, false, None),
            Ok(_) => {}
            Err(_) if self.channels.is_empty() => self.preseed_dead.push(peer),
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_distance_wraps() {
        assert_eq!(seq_dist(0, 0), 0);
        assert_eq!(seq_dist(0, 1), 1);
        assert_eq!(seq_dist(15, 0), 1);
        assert_eq!(seq_dist(15, 3), 4);
        assert_eq!(seq_dist(3, 15), 12);
    }

    #[test]
    fn frame_sizes_account_for_header() {
        let with_payload: ReliableMsg<u64> = ReliableMsg {
            payload: Some((3, 5u64)),
            ack: 1,
            crc: None,
        };
        let pure_ack: ReliableMsg<u64> = ReliableMsg {
            payload: None,
            ack: 1,
            crc: None,
        };
        // u64's bit_size of 5 is 3 bits.
        assert_eq!(with_payload.bit_size(64), 2 + 4 + 4 + 3);
        assert_eq!(pure_ack.bit_size(64), 2 + 4);
        // A seal adds exactly the checksum word and nothing else.
        let sealed = ReliableMsg {
            crc: Some(with_payload.content_crc(64)),
            ..with_payload.clone()
        };
        assert_eq!(sealed.bit_size(64), with_payload.bit_size(64) + 32);
    }

    #[test]
    fn seal_verifies_and_catches_field_damage() {
        let frame: ReliableMsg<u64> = ReliableMsg {
            payload: Some((3, 5u64)),
            ack: 1,
            crc: None,
        };
        let seal = frame.content_crc(64);
        // Any single-field change invalidates the seal.
        let ack_flip = ReliableMsg {
            ack: 2,
            ..frame.clone()
        };
        let seq_flip = ReliableMsg {
            payload: Some((4, 5u64)),
            ..frame.clone()
        };
        let payload_flip = ReliableMsg {
            payload: Some((3, 7u64)),
            ..frame.clone()
        };
        assert_eq!(frame.content_crc(64), seal);
        assert_ne!(ack_flip.content_crc(64), seal);
        assert_ne!(seq_flip.content_crc(64), seal);
        assert_ne!(payload_flip.content_crc(64), seal);
    }

    #[test]
    fn corruption_leaves_a_stale_seal_behind() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let frame: ReliableMsg<u64> = ReliableMsg {
            payload: Some((3, 42u64)),
            ack: 1,
            crc: Some(0),
        };
        let sealed = ReliableMsg {
            crc: Some(frame.content_crc(64)),
            ..frame
        };
        let mut survived = 0usize;
        for _ in 0..100 {
            for kind in CorruptionKind::ALL {
                if let Some(mangled) = sealed.corrupted(kind, 64, &mut rng) {
                    if mangled == sealed {
                        // A garbage draw can redraw the original value;
                        // an unchanged frame rightly still verifies.
                        continue;
                    }
                    survived += 1;
                    // The mangled frame never passes verification: its
                    // content changed but its seal did not.
                    assert_ne!(
                        mangled.crc,
                        Some(mangled.content_crc(64)),
                        "{kind:?} slipped past the seal: {mangled:?}"
                    );
                }
            }
        }
        assert!(survived > 0, "every corruption destroyed the frame");
    }
}
