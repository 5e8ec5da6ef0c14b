use rwbc_graph::NodeId;

/// Accumulated traffic across a designated edge cut.
///
/// The lower-bound proof (paper Theorems 6–7) hinges on the total number of
/// bits that must cross a small cut; this meter measures exactly that for a
/// concrete run, giving the empirical side of experiment E6.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CutMeter {
    /// Messages that crossed the cut (either direction).
    pub messages: u64,
    /// Bits that crossed the cut (either direction).
    pub bits: u64,
}

/// The traffic summary of one pipeline phase — the unit of the
/// per-phase (walk vs count vs collect) breakdown the bench artifacts
/// attribute compression wins with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Rounds the phase executed.
    pub rounds: usize,
    /// Messages the phase delivered.
    pub messages: u64,
    /// Bits the phase delivered.
    pub bits: u64,
}

/// Statistics of a completed (or aborted) simulation run.
///
/// # Equality
///
/// `PartialEq` compares the *protocol-observable* content only: the
/// execution-environment echoes ([`RunStats::effective_threads`] and
/// [`RunStats::granularity`]) are excluded, so a t1 run and a t8 run of
/// the same protocol compare equal — exactly the determinism contract
/// the engine's thread-count-invariance tests assert. The echoes are
/// likewise excluded from checkpoint images (checkpoint bytes are
/// bit-identical at any thread count) and are re-derived from the
/// config on restore.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Rounds executed until global termination.
    pub rounds: usize,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total bits delivered.
    pub total_bits: u64,
    /// Maximum bits observed on a single edge direction in a single round.
    pub max_bits_edge_round: usize,
    /// Where [`RunStats::max_bits_edge_round`] was achieved, as
    /// `(from, to, round)` for the first edge direction that reached the
    /// maximum. `None` when nothing was sent.
    pub peak_edge: Option<(NodeId, NodeId, usize)>,
    /// Maximum messages observed on a single edge direction in a single
    /// round.
    pub max_messages_edge_round: usize,
    /// The per-edge bit budget `B(n)` the run was charged against.
    pub budget_bits: usize,
    /// Budget violations (only non-zero under
    /// [`ViolationPolicy::Record`]).
    ///
    /// [`ViolationPolicy::Record`]: crate::ViolationPolicy::Record
    pub violations: u64,
    /// Messages lost to fault injection: Bernoulli drops, link outages,
    /// and deliveries discarded because the receiver was crashed.
    pub dropped: u64,
    /// Extra copies delivered by fault-injected duplication.
    pub duplicated: u64,
    /// Messages that arrived one round late due to fault-injected delay.
    pub delayed: u64,
    /// Messages mangled in flight by corruption fault injection. Counts
    /// every corruption event; the subset destroyed beyond parsing is
    /// *also* counted in [`RunStats::dropped`] (with trace reason
    /// `corrupt`), since the receiver never sees it.
    pub corrupted: u64,
    /// Corrupt frames detected and discarded by a checksummed delivery
    /// layer (folded from [`NodeProgram::reliability_stats`]); each one is
    /// repaired by retransmission.
    ///
    /// [`NodeProgram::reliability_stats`]: crate::NodeProgram::reliability_stats
    pub corrupt_frames_detected: u64,
    /// Retransmissions performed by the reliable-delivery layer (folded
    /// from [`NodeProgram::reliability_stats`] at the end of a run).
    ///
    /// [`NodeProgram::reliability_stats`]: crate::NodeProgram::reliability_stats
    pub retransmissions: u64,
    /// Duplicate deliveries suppressed by the reliable-delivery layer.
    pub duplicates_suppressed: u64,
    /// Channel-death declarations made by the failure detector (each
    /// directed channel that gave up counts once; a mutually declared edge
    /// counts twice). Zero unless
    /// [`Reliable::with_failure_detection`](crate::Reliable::with_failure_detection)
    /// is in use.
    pub dead_links_declared: u64,
    /// Application payloads abandoned because their channel was declared
    /// dead: in-flight frames whose retransmission was cancelled plus
    /// later sends addressed to an already-dead peer.
    pub undeliverable_messages: u64,
    /// Total (node, round) pairs in which a node was crashed and therefore
    /// not stepped.
    pub crashed_node_rounds: u64,
    /// Rounds spent purely on delivery recovery: rounds executed after
    /// every node's *application* program had terminated, while the
    /// reliable layer was still retransmitting or draining acks.
    pub delivery_overhead_rounds: u64,
    /// Traffic across the configured cut.
    pub cut: CutMeter,
    /// The worker count the engine *actually* used for the round loop
    /// (see [`SimConfig::effective_threads`]): the configured thread
    /// count clamped by the granularity knob. A run configured `t=4`
    /// on a graph too small to split records 1 here — it can no longer
    /// masquerade as a parallel data point. Excluded from equality and
    /// from checkpoint images (see the struct docs); 0 only in
    /// hand-built or legacy-decoded values that never saw an engine.
    ///
    /// [`SimConfig::effective_threads`]: crate::SimConfig::effective_threads
    pub effective_threads: usize,
    /// The granularity knob ([`SimConfig::granularity`]) the run was
    /// configured with. Excluded from equality and checkpoints like
    /// [`RunStats::effective_threads`].
    ///
    /// [`SimConfig::granularity`]: crate::SimConfig::granularity
    pub granularity: usize,
}

/// Protocol-observable equality: every counter and meter, but not the
/// execution-environment echoes (`effective_threads`, `granularity`) —
/// see the struct docs.
impl PartialEq for RunStats {
    fn eq(&self, other: &RunStats) -> bool {
        self.rounds == other.rounds
            && self.total_messages == other.total_messages
            && self.total_bits == other.total_bits
            && self.max_bits_edge_round == other.max_bits_edge_round
            && self.peak_edge == other.peak_edge
            && self.max_messages_edge_round == other.max_messages_edge_round
            && self.budget_bits == other.budget_bits
            && self.violations == other.violations
            && self.dropped == other.dropped
            && self.duplicated == other.duplicated
            && self.delayed == other.delayed
            && self.corrupted == other.corrupted
            && self.corrupt_frames_detected == other.corrupt_frames_detected
            && self.retransmissions == other.retransmissions
            && self.duplicates_suppressed == other.duplicates_suppressed
            && self.dead_links_declared == other.dead_links_declared
            && self.undeliverable_messages == other.undeliverable_messages
            && self.crashed_node_rounds == other.crashed_node_rounds
            && self.delivery_overhead_rounds == other.delivery_overhead_rounds
            && self.cut == other.cut
    }
}

impl RunStats {
    /// Whether the run stayed within the CONGEST budget everywhere
    /// (the mechanical check of the paper's Theorem 4).
    pub fn congest_compliant(&self) -> bool {
        self.violations == 0 && self.max_bits_edge_round <= self.budget_bits
    }

    /// The phase-breakdown projection of this run: rounds, messages,
    /// and bits, the three axes the bench artifacts attribute per phase.
    pub fn traffic(&self) -> PhaseTraffic {
        PhaseTraffic {
            rounds: self.rounds,
            messages: self.total_messages,
            bits: self.total_bits,
        }
    }

    /// Accumulates another run's statistics into this one: additive
    /// counters add, per-round maxima take the max, and the peak-edge
    /// location travels with the maximum it belongs to (strictly greater:
    /// on a tie the earlier run keeps the record). `budget_bits` is left
    /// untouched — callers accumulate runs charged against the same
    /// budget. Used by multi-sub-phase drivers (e.g. fault recovery) to
    /// report one total.
    pub fn absorb(&mut self, s: &RunStats) {
        self.rounds += s.rounds;
        self.total_messages += s.total_messages;
        self.total_bits += s.total_bits;
        if s.max_bits_edge_round > self.max_bits_edge_round {
            self.max_bits_edge_round = s.max_bits_edge_round;
            self.peak_edge = s.peak_edge;
        }
        self.max_messages_edge_round = self.max_messages_edge_round.max(s.max_messages_edge_round);
        self.violations += s.violations;
        self.dropped += s.dropped;
        self.duplicated += s.duplicated;
        self.delayed += s.delayed;
        self.corrupted += s.corrupted;
        self.corrupt_frames_detected += s.corrupt_frames_detected;
        self.retransmissions += s.retransmissions;
        self.duplicates_suppressed += s.duplicates_suppressed;
        self.dead_links_declared += s.dead_links_declared;
        self.undeliverable_messages += s.undeliverable_messages;
        self.crashed_node_rounds += s.crashed_node_rounds;
        self.delivery_overhead_rounds += s.delivery_overhead_rounds;
        self.cut.messages += s.cut.messages;
        self.cut.bits += s.cut.bits;
        // Sub-phases share one config; the max covers an accumulator
        // that started from `RunStats::default()` (echoes of 0).
        self.effective_threads = self.effective_threads.max(s.effective_threads);
        self.granularity = self.granularity.max(s.granularity);
    }

    /// Average bits per delivered message, or 0 when nothing was sent.
    pub fn mean_bits_per_message(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.total_messages as f64
        }
    }

    /// Retransmissions as a fraction of total messages (0 when nothing
    /// was sent). Retransmitted frames are themselves counted in
    /// `total_messages`, so the ratio is bounded by 1.
    pub fn retransmission_ratio(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.total_messages as f64
        }
    }

    /// Delivery-overhead rounds as a fraction of all rounds (0 for an
    /// empty run).
    pub fn overhead_round_fraction(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.delivery_overhead_rounds as f64 / self.rounds as f64
        }
    }

    /// A human-readable, aligned multi-line summary of the run with the
    /// derived rates spelled out. Intended for CLI/experiment output;
    /// the exact layout is not a stable API.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut line = |label: &str, value: String| {
            out.push_str(&format!("  {label:<26} {value}\n"));
        };
        line("rounds", format!("{}", self.rounds));
        let per_round = if self.rounds == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.rounds as f64
        };
        line(
            "messages",
            format!("{:<12} ({per_round:.1} / round)", self.total_messages),
        );
        line(
            "bits",
            format!(
                "{:<12} ({:.1} / message)",
                self.total_bits,
                self.mean_bits_per_message()
            ),
        );
        let peak_at = match self.peak_edge {
            Some((from, to, round)) => format!(" (edge {from} -> {to}, round {round})"),
            None => String::new(),
        };
        line(
            "peak edge-round bits",
            format!(
                "{} of {} budget{peak_at}",
                self.max_bits_edge_round, self.budget_bits
            ),
        );
        line(
            "peak edge-round messages",
            format!("{}", self.max_messages_edge_round),
        );
        line(
            "congest compliant",
            format!(
                "{} ({} violations)",
                if self.congest_compliant() {
                    "yes"
                } else {
                    "no"
                },
                self.violations
            ),
        );
        line(
            "dropped / dup / delayed",
            format!("{} / {} / {}", self.dropped, self.duplicated, self.delayed),
        );
        line(
            "corrupted (detected)",
            format!("{} ({})", self.corrupted, self.corrupt_frames_detected),
        );
        line(
            "retransmissions",
            format!(
                "{:<12} ({:.4} of messages)",
                self.retransmissions,
                self.retransmission_ratio()
            ),
        );
        line(
            "duplicates suppressed",
            format!("{}", self.duplicates_suppressed),
        );
        line(
            "dead links declared",
            format!("{}", self.dead_links_declared),
        );
        line(
            "undeliverable messages",
            format!("{}", self.undeliverable_messages),
        );
        line(
            "crashed node-rounds",
            format!("{}", self.crashed_node_rounds),
        );
        line(
            "delivery overhead rounds",
            format!(
                "{:<12} ({:.4} of rounds)",
                self.delivery_overhead_rounds,
                self.overhead_round_fraction()
            ),
        );
        line(
            "cut traffic",
            format!("{} msgs / {} bits", self.cut.messages, self.cut.bits),
        );
        // Only engine-produced stats carry the execution echo;
        // hand-built values (echoes of 0) skip the line.
        if self.effective_threads > 0 {
            line(
                "worker threads (effective)",
                format!(
                    "{} (granularity {})",
                    self.effective_threads, self.granularity
                ),
            );
        }
        out
    }
}

impl crate::wire::WireState for CutMeter {
    fn encode_state(&self, w: &mut crate::wire::BitWriter) {
        self.messages.encode_state(w);
        self.bits.encode_state(w);
    }
    fn decode_state(r: &mut crate::wire::BitReader<'_>) -> Option<CutMeter> {
        Some(CutMeter {
            messages: u64::decode_state(r)?,
            bits: u64::decode_state(r)?,
        })
    }
}

impl crate::wire::WireState for RunStats {
    fn encode_state(&self, w: &mut crate::wire::BitWriter) {
        self.rounds.encode_state(w);
        self.total_messages.encode_state(w);
        self.total_bits.encode_state(w);
        self.max_bits_edge_round.encode_state(w);
        self.peak_edge.encode_state(w);
        self.max_messages_edge_round.encode_state(w);
        self.budget_bits.encode_state(w);
        self.violations.encode_state(w);
        self.dropped.encode_state(w);
        self.duplicated.encode_state(w);
        self.delayed.encode_state(w);
        self.corrupted.encode_state(w);
        self.corrupt_frames_detected.encode_state(w);
        self.retransmissions.encode_state(w);
        self.duplicates_suppressed.encode_state(w);
        self.dead_links_declared.encode_state(w);
        self.undeliverable_messages.encode_state(w);
        self.crashed_node_rounds.encode_state(w);
        self.delivery_overhead_rounds.encode_state(w);
        self.cut.encode_state(w);
    }
    fn decode_state(r: &mut crate::wire::BitReader<'_>) -> Option<RunStats> {
        Some(RunStats {
            rounds: usize::decode_state(r)?,
            total_messages: u64::decode_state(r)?,
            total_bits: u64::decode_state(r)?,
            max_bits_edge_round: usize::decode_state(r)?,
            peak_edge: Option::<(NodeId, NodeId, usize)>::decode_state(r)?,
            max_messages_edge_round: usize::decode_state(r)?,
            budget_bits: usize::decode_state(r)?,
            violations: u64::decode_state(r)?,
            dropped: u64::decode_state(r)?,
            duplicated: u64::decode_state(r)?,
            delayed: u64::decode_state(r)?,
            corrupted: u64::decode_state(r)?,
            corrupt_frames_detected: u64::decode_state(r)?,
            retransmissions: u64::decode_state(r)?,
            duplicates_suppressed: u64::decode_state(r)?,
            dead_links_declared: u64::decode_state(r)?,
            undeliverable_messages: u64::decode_state(r)?,
            crashed_node_rounds: u64::decode_state(r)?,
            delivery_overhead_rounds: u64::decode_state(r)?,
            cut: CutMeter::decode_state(r)?,
            effective_threads: 0,
            granularity: 0,
        })
    }
}

/// Per-node counters reported by a reliable-delivery adapter through
/// [`NodeProgram::reliability_stats`].
///
/// [`NodeProgram::reliability_stats`]: crate::NodeProgram::reliability_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Payload retransmissions this node performed.
    pub retransmissions: u64,
    /// Duplicate deliveries this node suppressed.
    pub duplicates_suppressed: u64,
    /// Corrupt frames this node detected (checksum mismatch) and
    /// discarded for retransmission to repair.
    pub corrupt_frames_detected: u64,
    /// Channels this node declared dead (failure detection only).
    pub dead_links_declared: u64,
    /// Payloads this node abandoned on dead channels.
    pub undeliverable_messages: u64,
    /// Last round in which the wrapped application program was *active* —
    /// received or produced an application message (`None` if it never
    /// was). Rounds after the network-wide maximum of this value are pure
    /// delivery overhead: ack draining and retransmissions.
    pub inner_last_active_round: Option<usize>,
}

/// Normalizes an undirected pair for cut membership checks.
pub(crate) fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compliance_logic() {
        let mut s = RunStats {
            budget_bits: 32,
            max_bits_edge_round: 32,
            ..RunStats::default()
        };
        assert!(s.congest_compliant());
        s.max_bits_edge_round = 33;
        assert!(!s.congest_compliant());
        s.max_bits_edge_round = 10;
        s.violations = 1;
        assert!(!s.congest_compliant());
    }

    #[test]
    fn mean_bits() {
        let s = RunStats {
            total_messages: 4,
            total_bits: 10,
            ..RunStats::default()
        };
        assert!((s.mean_bits_per_message() - 2.5).abs() < 1e-12);
        assert_eq!(RunStats::default().mean_bits_per_message(), 0.0);
    }

    #[test]
    fn ordered_normalizes() {
        assert_eq!(ordered(3, 1), (1, 3));
        assert_eq!(ordered(1, 3), (1, 3));
        assert_eq!(ordered(2, 2), (2, 2));
    }

    #[test]
    fn summary_reports_peak_edge_and_rates() {
        let s = RunStats {
            rounds: 100,
            total_messages: 400,
            total_bits: 9600,
            max_bits_edge_round: 48,
            peak_edge: Some((3, 7, 12)),
            budget_bits: 64,
            retransmissions: 4,
            delivery_overhead_rounds: 10,
            ..RunStats::default()
        };
        let text = s.summary();
        assert!(text.contains("edge 3 -> 7, round 12"), "{text}");
        assert!(text.contains("48 of 64 budget"), "{text}");
        assert!(text.contains("0.0100 of messages"), "{text}");
        assert!(text.contains("0.1000 of rounds"), "{text}");
        assert!(text.contains("congest compliant"), "{text}");
        // No peak location line when nothing was sent.
        let empty = RunStats::default().summary();
        assert!(!empty.contains("edge "), "{empty}");
    }

    #[test]
    fn equality_ignores_execution_environment_echoes() {
        let a = RunStats {
            rounds: 5,
            total_messages: 10,
            effective_threads: 1,
            granularity: 16,
            ..RunStats::default()
        };
        let b = RunStats {
            effective_threads: 8,
            granularity: 4,
            ..a.clone()
        };
        // Same protocol content at different worker layouts: equal.
        assert_eq!(a, b);
        let c = RunStats {
            total_messages: 11,
            ..a.clone()
        };
        assert_ne!(a, c);
        // The echoes survive a summary render but never a checkpoint.
        assert!(a.summary().contains("1 (granularity 16)"));
        use crate::wire::{BitReader, BitWriter, WireState};
        let mut w = BitWriter::new();
        a.encode_state(&mut w);
        let bytes = w.finish();
        let decoded = RunStats::decode_state(&mut BitReader::new(&bytes)).unwrap();
        assert_eq!(decoded.effective_threads, 0);
        assert_eq!(decoded.granularity, 0);
        assert_eq!(decoded, a);
    }
}
