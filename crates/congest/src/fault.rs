//! Declarative fault injection for the simulator.
//!
//! A [`FaultPlan`] describes every deviation from the reliable CONGEST
//! model that a run should experience:
//!
//! * **Bernoulli drops** — each committed message is independently lost
//!   with [`FaultPlan::drop_probability`];
//! * **duplication** — each delivered message is independently delivered
//!   twice with [`FaultPlan::duplicate_probability`];
//! * **delay** — each delivered message is independently held back one
//!   round with [`FaultPlan::delay_probability`];
//! * **corruption** — each delivered message is independently mangled in
//!   flight with [`FaultPlan::corrupt_probability`]: a bit flip, a
//!   truncation, or wholesale garbage substitution ([`CorruptionKind`]),
//!   drawn uniformly per event;
//! * **link outages** — scheduled intervals during which an edge silently
//!   discards everything sent over it ([`LinkOutage`]);
//! * **persistent link corruption** — scheduled intervals during which an
//!   edge mangles *every* message crossing it ([`LinkCorruption`]) — the
//!   fault a checksummed transport escalates to quarantine;
//! * **node crashes** — scheduled intervals during which a node's program
//!   is not stepped and all traffic addressed to it is discarded
//!   ([`NodeCrash`]).
//!
//! All random decisions are drawn from the simulator's dedicated fault RNG
//! inside the single-threaded commit step, in deterministic message order,
//! so a `(graph, seed, plan)` triple replays bit-identically at any thread
//! count. A plan whose probabilities are all zero draws nothing from that
//! RNG, which is why an empty plan reproduces a fault-free trace exactly.
//!
//! Schedule-driven faults (outages, crashes) consume no randomness at all.
//! The one exception is [`LinkCorruption`]: the schedule decides *whether*
//! a message is mangled, but the mangling itself (which kind, which bit)
//! still draws from the fault RNG — corruption without randomness would
//! always flip the same bit.

use rwbc_graph::NodeId;

use crate::stats::ordered;

/// A scheduled bidirectional link failure.
///
/// Messages sent over the edge `{u, v}` in any round of
/// `[from_round, until_round)` are discarded (in both directions). Rounds
/// are the simulator's send rounds: `on_start` sends happen in round 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkOutage {
    /// One endpoint of the failed edge.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// First send round of the outage (inclusive).
    pub from_round: usize,
    /// End of the outage (exclusive). Use `usize::MAX` for a permanent cut.
    pub until_round: usize,
}

impl LinkOutage {
    /// Whether this outage covers edge `{a, b}` at `round`.
    pub fn covers(&self, a: NodeId, b: NodeId, round: usize) -> bool {
        ordered(self.u, self.v) == ordered(a, b)
            && round >= self.from_round
            && round < self.until_round
    }
}

/// How a corruption event mangles a message in flight.
///
/// The kind is drawn uniformly from the fault RNG per corruption event;
/// what each kind does to a concrete payload is decided by the message
/// type's [`Message::corrupted`](crate::Message::corrupted) hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// One bit of the encoded frame is inverted.
    BitFlip,
    /// The tail of the encoded frame is cut off.
    Truncate,
    /// The frame content is replaced with random bytes.
    Garbage,
}

impl CorruptionKind {
    /// All kinds, in draw order (index 0, 1, 2).
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::BitFlip,
        CorruptionKind::Truncate,
        CorruptionKind::Garbage,
    ];

    /// Stable schema name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            CorruptionKind::BitFlip => "bit_flip",
            CorruptionKind::Truncate => "truncate",
            CorruptionKind::Garbage => "garbage",
        }
    }

    /// Parses a schema name back into a kind.
    pub fn from_str_opt(s: &str) -> Option<CorruptionKind> {
        match s {
            "bit_flip" => Some(CorruptionKind::BitFlip),
            "truncate" => Some(CorruptionKind::Truncate),
            "garbage" => Some(CorruptionKind::Garbage),
            _ => None,
        }
    }
}

/// A scheduled interval of persistent corruption on one edge.
///
/// Every message sent over `{u, v}` (either direction) in a round of
/// `[from_round, until_round)` is mangled with a [`CorruptionKind`] drawn
/// from the fault RNG. Unlike an outage the bits still flow — which is
/// worse: an unprotected receiver decodes garbage silently, and only a
/// checksummed transport can detect the pattern and quarantine the link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkCorruption {
    /// One endpoint of the corrupting edge.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// First send round of the corruption window (inclusive).
    pub from_round: usize,
    /// End of the window (exclusive). Use `usize::MAX` for a permanently
    /// corrupting link.
    pub until_round: usize,
}

impl LinkCorruption {
    /// Whether this window covers edge `{a, b}` at `round`.
    pub fn covers(&self, a: NodeId, b: NodeId, round: usize) -> bool {
        ordered(self.u, self.v) == ordered(a, b)
            && round >= self.from_round
            && round < self.until_round
    }

    /// Whether this window never closes.
    pub fn is_permanent(&self) -> bool {
        self.until_round == usize::MAX
    }
}

/// A scheduled node crash, optionally followed by recovery.
///
/// While crashed (rounds in `[crash_round, recover_round)`), the node's
/// program is not stepped, it sends nothing, and every message addressed
/// to it is discarded on delivery. A recovered node resumes from its
/// pre-crash local state (crash-recover semantics with stable storage);
/// messages that arrived while it was down stay lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCrash {
    /// The crashing node.
    pub node: NodeId,
    /// First round the node is down (inclusive). A value of 0 suppresses
    /// the node's `on_start` as well.
    pub crash_round: usize,
    /// Round the node comes back (exclusive end of the outage), or `None`
    /// for a permanent crash.
    pub recover_round: Option<usize>,
}

impl NodeCrash {
    /// Whether `node` is down at `round` under this schedule.
    pub fn covers(&self, node: NodeId, round: usize) -> bool {
        self.node == node
            && round >= self.crash_round
            && self.recover_round.is_none_or(|r| round < r)
    }

    /// Whether this crash never recovers.
    pub fn is_permanent(&self) -> bool {
        self.recover_round.is_none()
    }
}

/// The complete fault schedule of one simulation run.
///
/// The default plan is empty: no drops, no duplication, no delay, no
/// outages, no crashes — byte-for-byte the reliable CONGEST model.
///
/// # Example
///
/// ```
/// use congest_sim::{FaultPlan, LinkOutage};
///
/// let plan = FaultPlan::default()
///     .with_drop_probability(0.05)
///     .with_link_outage(LinkOutage { u: 0, v: 1, from_round: 10, until_round: 20 });
/// assert!(!plan.is_empty());
/// assert!(plan.link_down(1, 0, 15));
/// assert!(!plan.link_down(1, 0, 20));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Independent per-message loss probability (0 disables, NaN is
    /// treated as 0).
    pub drop_probability: f64,
    /// Independent per-message probability of being delivered twice in the
    /// same round (0 disables, NaN is treated as 0). Duplicates are fault
    /// artifacts: they are not charged against the sender's budget.
    pub duplicate_probability: f64,
    /// Independent per-message probability of arriving one round late
    /// (0 disables, NaN is treated as 0).
    pub delay_probability: f64,
    /// Independent per-message probability of being mangled in flight
    /// (0 disables, NaN is treated as 0). The [`CorruptionKind`] is drawn
    /// uniformly per event.
    pub corrupt_probability: f64,
    /// Scheduled link failures.
    pub outages: Vec<LinkOutage>,
    /// Scheduled persistent-corruption windows.
    pub corruptions: Vec<LinkCorruption>,
    /// Scheduled node crashes.
    pub crashes: Vec<NodeCrash>,
}

/// Clamps a probability to `[0, 1]`, mapping NaN to 0 (NaN would otherwise
/// survive `f64::clamp` and panic inside the Bernoulli draw).
pub(crate) fn sanitize_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

impl FaultPlan {
    /// Sets the per-message drop probability (builder style). Clamped to
    /// `[0, 1]`; NaN becomes 0.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> FaultPlan {
        self.drop_probability = sanitize_probability(p);
        self
    }

    /// Sets the per-message duplication probability (builder style).
    /// Clamped to `[0, 1]`; NaN becomes 0.
    #[must_use]
    pub fn with_duplicate_probability(mut self, p: f64) -> FaultPlan {
        self.duplicate_probability = sanitize_probability(p);
        self
    }

    /// Sets the per-message one-round-delay probability (builder style).
    /// Clamped to `[0, 1]`; NaN becomes 0.
    #[must_use]
    pub fn with_delay_probability(mut self, p: f64) -> FaultPlan {
        self.delay_probability = sanitize_probability(p);
        self
    }

    /// Sets the per-message corruption probability (builder style).
    /// Clamped to `[0, 1]`; NaN becomes 0.
    #[must_use]
    pub fn with_corrupt_probability(mut self, p: f64) -> FaultPlan {
        self.corrupt_probability = sanitize_probability(p);
        self
    }

    /// Adds a scheduled link outage (builder style).
    #[must_use]
    pub fn with_link_outage(mut self, outage: LinkOutage) -> FaultPlan {
        self.outages.push(outage);
        self
    }

    /// Adds a scheduled persistent-corruption window (builder style).
    #[must_use]
    pub fn with_link_corruption(mut self, corruption: LinkCorruption) -> FaultPlan {
        self.corruptions.push(corruption);
        self
    }

    /// Adds a scheduled node crash (builder style).
    #[must_use]
    pub fn with_node_crash(mut self, crash: NodeCrash) -> FaultPlan {
        self.crashes.push(crash);
        self
    }

    /// Whether this plan injects nothing (the reliable model).
    pub fn is_empty(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.delay_probability <= 0.0
            && self.corrupt_probability <= 0.0
            && self.outages.is_empty()
            && self.corruptions.is_empty()
            && self.crashes.is_empty()
    }

    /// Whether any probabilistic fault is enabled (and hence the fault RNG
    /// will be consulted). Persistent link corruption counts: its schedule
    /// decides whether a message is mangled, but the mangling itself draws
    /// from the RNG.
    pub fn uses_rng(&self) -> bool {
        self.drop_probability > 0.0
            || self.duplicate_probability > 0.0
            || self.delay_probability > 0.0
            || self.corrupt_probability > 0.0
            || !self.corruptions.is_empty()
    }

    /// Whether edge `{u, v}` is down at send round `round`.
    pub fn link_down(&self, u: NodeId, v: NodeId, round: usize) -> bool {
        self.outages.iter().any(|o| o.covers(u, v, round))
    }

    /// Whether edge `{u, v}` persistently corrupts at send round `round`.
    pub fn link_corrupts(&self, u: NodeId, v: NodeId, round: usize) -> bool {
        self.corruptions.iter().any(|c| c.covers(u, v, round))
    }

    /// Whether `node` is down at `round`.
    pub fn node_crashed(&self, node: NodeId, round: usize) -> bool {
        self.crashes.iter().any(|c| c.covers(node, round))
    }

    /// Projects the plan onto a *recovery sub-phase*: permanent faults
    /// (outages with `until_round == usize::MAX`, crashes that never
    /// recover) are shifted to fire from round 0 — they are facts of the
    /// topology now, not scheduled events — while transient scheduled
    /// faults are dropped (their windows belong to the original run's
    /// clock). Probabilistic faults carry over unchanged.
    #[must_use]
    pub fn collapse_permanent(&self) -> FaultPlan {
        FaultPlan {
            drop_probability: self.drop_probability,
            duplicate_probability: self.duplicate_probability,
            delay_probability: self.delay_probability,
            corrupt_probability: self.corrupt_probability,
            outages: self
                .outages
                .iter()
                .filter(|o| o.until_round == usize::MAX)
                .map(|o| LinkOutage {
                    u: o.u,
                    v: o.v,
                    from_round: 0,
                    until_round: usize::MAX,
                })
                .collect(),
            corruptions: self
                .corruptions
                .iter()
                .filter(|c| c.is_permanent())
                .map(|c| LinkCorruption {
                    u: c.u,
                    v: c.v,
                    from_round: 0,
                    until_round: usize::MAX,
                })
                .collect(),
            crashes: self
                .crashes
                .iter()
                .filter(|c| c.is_permanent())
                .map(|c| NodeCrash {
                    node: c.node,
                    crash_round: 0,
                    recover_round: None,
                })
                .collect(),
        }
    }

    /// Whether `node` is down at `round` with no scheduled recovery.
    /// Permanently-down nodes are exempt from the global termination
    /// condition (they will never report termination themselves).
    pub fn node_permanently_down(&self, node: NodeId, round: usize) -> bool {
        self.crashes
            .iter()
            .any(|c| c.covers(node, round) && c.is_permanent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.uses_rng());
        assert!(!plan.link_down(0, 1, 5));
        assert!(!plan.node_crashed(0, 5));
    }

    #[test]
    fn probabilities_are_sanitized() {
        let plan = FaultPlan::default()
            .with_drop_probability(7.5)
            .with_duplicate_probability(-2.0)
            .with_delay_probability(f64::NAN)
            .with_corrupt_probability(f64::INFINITY);
        assert_eq!(plan.drop_probability, 1.0);
        assert_eq!(plan.duplicate_probability, 0.0);
        assert_eq!(plan.delay_probability, 0.0);
        assert_eq!(plan.corrupt_probability, 1.0);
        let nan_drop = FaultPlan::default().with_drop_probability(f64::NAN);
        assert_eq!(nan_drop.drop_probability, 0.0);
        assert!(nan_drop.is_empty());
    }

    #[test]
    fn every_setter_rejects_every_garbage_edge() {
        // NaN, ±∞, and out-of-range values must all land back in [0, 1]
        // (a NaN fed to `Rng::gen_bool` would panic mid-run).
        let edges = [
            (f64::NAN, 0.0),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 0.0),
            (-0.5, 0.0),
            (1.5, 1.0),
            (0.25, 0.25),
            (0.0, 0.0),
            (1.0, 1.0),
        ];
        for (input, want) in edges {
            let plan = FaultPlan::default()
                .with_drop_probability(input)
                .with_duplicate_probability(input)
                .with_delay_probability(input)
                .with_corrupt_probability(input);
            assert_eq!(plan.drop_probability, want, "drop({input})");
            assert_eq!(plan.duplicate_probability, want, "dup({input})");
            assert_eq!(plan.delay_probability, want, "delay({input})");
            assert_eq!(plan.corrupt_probability, want, "corrupt({input})");
        }
    }

    #[test]
    fn corruption_windows_cover_and_count_as_rng_users() {
        let plan = FaultPlan::default().with_link_corruption(LinkCorruption {
            u: 4,
            v: 2,
            from_round: 3,
            until_round: 8,
        });
        assert!(!plan.is_empty());
        // Schedule-driven corruption still draws the mangling from the RNG.
        assert!(plan.uses_rng());
        assert!(plan.link_corrupts(2, 4, 3));
        assert!(plan.link_corrupts(4, 2, 7));
        assert!(!plan.link_corrupts(2, 4, 8));
        assert!(!plan.link_corrupts(2, 4, 2));
        assert!(!plan.link_corrupts(2, 3, 5));
        assert!(!plan.link_down(2, 4, 5), "corruption is not an outage");

        let p = FaultPlan::default().with_corrupt_probability(0.3);
        assert!(!p.is_empty());
        assert!(p.uses_rng());
    }

    #[test]
    fn corruption_kind_names_round_trip() {
        for kind in CorruptionKind::ALL {
            assert_eq!(CorruptionKind::from_str_opt(kind.as_str()), Some(kind));
        }
        assert_eq!(CorruptionKind::from_str_opt("melted"), None);
    }

    #[test]
    fn collapse_permanent_keeps_standing_corruption() {
        let plan = FaultPlan::default()
            .with_corrupt_probability(0.05)
            .with_link_corruption(LinkCorruption {
                u: 0,
                v: 1,
                from_round: 9,
                until_round: usize::MAX,
            })
            .with_link_corruption(LinkCorruption {
                u: 2,
                v: 3,
                from_round: 1,
                until_round: 4,
            });
        let sub = plan.collapse_permanent();
        assert_eq!(sub.corrupt_probability, 0.05);
        assert!(sub.link_corrupts(0, 1, 0));
        assert!(!sub.link_corrupts(2, 3, 2), "transient window dropped");
    }

    #[test]
    fn outage_covers_unordered_interval() {
        let o = LinkOutage {
            u: 3,
            v: 1,
            from_round: 2,
            until_round: 4,
        };
        assert!(o.covers(1, 3, 2));
        assert!(o.covers(3, 1, 3));
        assert!(!o.covers(1, 3, 4));
        assert!(!o.covers(1, 3, 1));
        assert!(!o.covers(1, 2, 3));
    }

    #[test]
    fn collapse_permanent_keeps_only_standing_faults() {
        let plan = FaultPlan::default()
            .with_drop_probability(0.1)
            .with_link_outage(LinkOutage {
                u: 0,
                v: 1,
                from_round: 5,
                until_round: usize::MAX,
            })
            .with_link_outage(LinkOutage {
                u: 2,
                v: 3,
                from_round: 5,
                until_round: 9,
            })
            .with_node_crash(NodeCrash {
                node: 4,
                crash_round: 7,
                recover_round: None,
            })
            .with_node_crash(NodeCrash {
                node: 5,
                crash_round: 1,
                recover_round: Some(3),
            });
        let sub = plan.collapse_permanent();
        assert_eq!(sub.drop_probability, 0.1);
        // The permanent outage now covers round 0; the transient one is
        // gone entirely.
        assert!(sub.link_down(0, 1, 0));
        assert!(!sub.link_down(2, 3, 6));
        assert!(sub.node_permanently_down(4, 0));
        assert!(!sub.node_crashed(5, 2));
    }

    #[test]
    fn crash_windows_and_permanence() {
        let temp = NodeCrash {
            node: 5,
            crash_round: 3,
            recover_round: Some(6),
        };
        let perm = NodeCrash {
            node: 7,
            crash_round: 1,
            recover_round: None,
        };
        let plan = FaultPlan::default()
            .with_node_crash(temp)
            .with_node_crash(perm);
        assert!(!plan.node_crashed(5, 2));
        assert!(plan.node_crashed(5, 3));
        assert!(plan.node_crashed(5, 5));
        assert!(!plan.node_crashed(5, 6));
        assert!(!plan.node_permanently_down(5, 4));
        assert!(plan.node_crashed(7, 100));
        assert!(plan.node_permanently_down(7, 100));
        assert!(!plan.node_permanently_down(7, 0));
        assert!(!plan.is_empty());
        assert!(!plan.uses_rng());
    }
}
