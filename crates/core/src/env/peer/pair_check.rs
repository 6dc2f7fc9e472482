//! Exhaustive small-scope check of the reliability protocol: a sending
//! [`Peer`], a receiving [`Peer`] and a channel that may reorder, damage or
//! drop anything, with *every* interleaving of their moves enumerated to a
//! fixed depth. One of the frames is a credit grant, which rides the same
//! sequenced path as data. No simulator, no clock: the moves are the protocol's own
//! transitions, the glue between them is what `recv.rs` does with their
//! answers, and the invariants are the ones the layer exists for —
//! at-most-once delivery, nothing lost once acknowledged, nothing damaged
//! ever consumed, and recovery that completes as soon as the wire lets it.
//!
//! `Peer` is not `Clone`, so a state is its path: each node is rebuilt by
//! replaying its moves from the start, and a visited-set on a small digest
//! of the pair keeps the search to the distinct states.

use super::super::FrameState;
use super::*;
use crate::addr::MsgClass;
use bytes::Bytes;
use std::collections::{BTreeSet, VecDeque};

/// Frames the sender may send, and moves per interleaving.
const FRAMES: u32 = 3;
const DEPTH: usize = 10;
/// Retry budget: small enough that the give-up is inside the depth.
const BUDGET: u32 = 2;
/// What a header hit makes of a sequence number: one never allocated.
const GARBAGE: u32 = 0x4000_0000;
/// The frame that is a one-credit grant rather than data.
const GRANT: u32 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Move {
    /// The application sends the next frame.
    Send,
    /// Data copy `i` in flight arrives intact.
    Deliver(usize),
    /// Data copy `i` arrives with its reception status set (`garbage`: the
    /// damage hit the header, and the sequence number it claims is noise).
    DeliverDamaged { i: usize, garbage: bool },
    /// Data copy `i` is lost without a trace.
    Drop(usize),
    /// Control frame `j` in flight (an ACK or a NACK) reaches the sender.
    CtrlDeliver(usize),
    /// Control frame `j` is lost.
    CtrlDrop(usize),
    /// The sender's loss-recovery timer expires.
    Timeout,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ctrl {
    Ack(u32),
    Nack(u32),
}

/// What the receive path does with a delivery marked damaged.
#[derive(Clone, Copy)]
enum Glue {
    /// `recv.rs`: NACK the claimed sequence number, consume nothing.
    Correct,
    /// The planted bug: the reception status is ignored and the bytes go
    /// through the duplicate filter and up to the application.
    DamagedAcceptedAsData,
}

/// What the visited-set keys on: frames sent, data and control in flight
/// (sorted), each unacknowledged frame's `(seq, retries, retransmitted)`,
/// deliveries per frame, and whether the sender gave the peer up.
type Digest = (
    u32,
    Vec<u32>,
    Vec<Ctrl>,
    Vec<(u32, u32, bool)>,
    [u32; 3],
    bool,
);

/// The pair and the wire between them.
struct World {
    sender: Peer,
    receiver: Peer,
    errs: ErrorStats,
    sent: u32,
    /// Data copies in flight, by sequence number (unordered: any may land
    /// next).
    data: Vec<u32>,
    ctrl: Vec<Ctrl>,
    /// Per frame: copies handed to the application, intact and damaged.
    delivered: [u32; FRAMES as usize],
    consumed_damaged: u32,
    /// Frames whose ACK reached the sender.
    acked: BTreeSet<u32>,
    /// Frames the sender gave up on (all but the grant reported as
    /// delivery failures).
    failed: BTreeSet<u32>,
}

impl World {
    fn new() -> World {
        World {
            sender: Peer::new(0),
            receiver: Peer::new(0),
            errs: ErrorStats::default(),
            sent: 0,
            data: Vec::new(),
            ctrl: Vec::new(),
            delivered: [0; FRAMES as usize],
            consumed_damaged: 0,
            acked: BTreeSet::new(),
            failed: BTreeSet::new(),
        }
    }

    fn moves(&self) -> Vec<Move> {
        let mut m = Vec::new();
        if self.sent < FRAMES && !self.sender.dead {
            m.push(Move::Send);
        }
        for i in 0..self.data.len() {
            // Copies of one frame are interchangeable: move the first.
            if self.data[..i].contains(&self.data[i]) {
                continue;
            }
            m.push(Move::Deliver(i));
            m.push(Move::DeliverDamaged { i, garbage: false });
            m.push(Move::DeliverDamaged { i, garbage: true });
            m.push(Move::Drop(i));
        }
        for j in 0..self.ctrl.len() {
            if self.ctrl[..j].contains(&self.ctrl[j]) {
                continue;
            }
            m.push(Move::CtrlDeliver(j));
            m.push(Move::CtrlDrop(j));
        }
        if !self.sender.unacked.is_empty() {
            m.push(Move::Timeout);
        }
        m
    }

    /// The receive path on an intact frame: filter duplicates, acknowledge
    /// either way, deliver the first copy.
    fn accept(&mut self, seq: u32, intact: bool) {
        let duplicate = self.receiver.observe_seq(seq);
        self.ctrl.push(Ctrl::Ack(seq));
        if !duplicate {
            self.delivered[seq as usize] += 1;
            self.consumed_damaged += u32::from(!intact);
            if seq == GRANT {
                self.receiver.grant(1);
            }
        }
    }

    fn apply(&mut self, mv: Move, glue: Glue) -> Result<(), String> {
        match mv {
            Move::Send => {
                let seq = self.sender.alloc_seq();
                let to = ThreadAddr::new(1, 0);
                let class = if seq == GRANT {
                    MsgClass::Credit
                } else {
                    MsgClass::Data
                };
                let mut frame = SendReq::new(0, to, class, seq, Bytes::new(), 0);
                frame.state = FrameState::Retransmit;
                if !self.sender.register(seq, frame) {
                    return Err(format!("seq {seq} registered twice"));
                }
                self.sender.stamp_sent(seq, SimTime::ZERO);
                self.sent += 1;
                self.data.push(seq);
            }
            Move::Deliver(i) => {
                let seq = self.data.remove(i);
                self.accept(seq, true);
            }
            Move::DeliverDamaged { i, garbage } => {
                let seq = self.data.remove(i);
                match glue {
                    Glue::Correct => {
                        let claimed = if garbage { seq | GARBAGE } else { seq };
                        self.ctrl.push(Ctrl::Nack(claimed));
                    }
                    // With a garbage header there is no frame to mistake it
                    // for; the bug needs a readable one.
                    Glue::DamagedAcceptedAsData if garbage => {}
                    Glue::DamagedAcceptedAsData => self.accept(seq, false),
                }
            }
            Move::Drop(i) => {
                self.data.remove(i);
            }
            Move::CtrlDrop(j) => {
                self.ctrl.remove(j);
            }
            Move::CtrlDeliver(j) => match self.ctrl.remove(j) {
                Ctrl::Ack(seq) => {
                    if self
                        .sender
                        .on_ack(seq, SimTime::ZERO, &mut self.errs)
                        .is_some()
                    {
                        self.acked.insert(seq);
                    }
                }
                Ctrl::Nack(seq) => {
                    let before = (self.digest(), self.errs.clone());
                    match self.sender.on_nack(seq, BUDGET, false, &mut self.errs) {
                        NackAction::Retransmit(frame) => self.data.push(frame.user_tag),
                        NackAction::Ignored | NackAction::Exhausted | NackAction::Deferred => {}
                    }
                    let known = self.sender.unacked.contains_key(&seq);
                    if !known && before != (self.digest(), self.errs.clone()) {
                        return Err(format!("NACK of unknown seq {seq:#x} changed the sender"));
                    }
                }
            },
            Move::Timeout => {
                let outstanding: Vec<u32> = self.sender.unacked.keys().copied().collect();
                match self
                    .sender
                    .on_timeout(|_| false, BUDGET, false, &mut self.errs)
                {
                    TimeoutAction::Retransmit { seq, retries, .. } => {
                        if retries > BUDGET {
                            return Err(format!("seq {seq} at {retries} retries"));
                        }
                        self.data.push(seq);
                    }
                    TimeoutAction::Failed(failed) => {
                        if !self.sender.dead {
                            return Err("partition verdict on a route that is up".into());
                        }
                        let raised: Vec<u32> = failed.iter().map(|&(_, tag)| tag).collect();
                        let users = outstanding.iter().filter(|&&s| s != GRANT);
                        if !raised.iter().eq(users) {
                            return Err(format!("give-up of {outstanding:?} raised {raised:?}"));
                        }
                        self.failed.extend(outstanding);
                    }
                    TimeoutAction::Idle | TimeoutAction::Deferred => {}
                }
            }
        }
        self.check()
    }

    /// The safety invariants, after every move.
    fn check(&self) -> Result<(), String> {
        if self.consumed_damaged > 0 {
            return Err("damaged bytes were consumed as data".into());
        }
        for seq in 0..FRAMES {
            let n = self.delivered[seq as usize];
            if n > 1 {
                return Err(format!("seq {seq} delivered {n} times"));
            }
            if seq == GRANT && self.receiver.credits != n {
                return Err(format!(
                    "grant delivered {n} times, banked {}",
                    self.receiver.credits
                ));
            }
            if self.acked.contains(&seq) && n != 1 {
                return Err(format!("seq {seq} acknowledged but never delivered"));
            }
            if self.acked.contains(&seq) && self.failed.contains(&seq) {
                return Err(format!("seq {seq} both acknowledged and failed"));
            }
        }
        let e = &self.errs;
        if e.retransmits != e.nack_retransmits + e.timer_retransmits {
            return Err(format!("retransmit counters disagree: {e:?}"));
        }
        if e.retransmits > u64::from(FRAMES * BUDGET) {
            return Err(format!("{} resends exceed the budget", e.retransmits));
        }
        Ok(())
    }

    /// Liveness under fair loss: from here on the wire behaves — everything
    /// in flight arrives intact, the timer fires when nothing else can
    /// happen. Every frame sent must end up delivered exactly once and
    /// retired, or (the budget already spent) reported failed.
    fn drains(mut self) -> Result<(), String> {
        for _ in 0..8 * FRAMES {
            let mv = if !self.data.is_empty() {
                Move::Deliver(0)
            } else if !self.ctrl.is_empty() {
                Move::CtrlDeliver(0)
            } else if !self.sender.unacked.is_empty() {
                Move::Timeout
            } else {
                break;
            };
            self.apply(mv, Glue::Correct)?;
        }
        if !self.sender.unacked.is_empty() {
            return Err(format!(
                "{} frames never retired",
                self.sender.unacked.len()
            ));
        }
        for seq in 0..self.sent {
            let done = self.delivered[seq as usize] == 1 && self.acked.contains(&seq);
            if !done && !self.failed.contains(&seq) {
                return Err(format!("seq {seq} neither delivered-and-acked nor failed"));
            }
        }
        Ok(())
    }

    /// Everything that decides the pair's future, and nothing else.
    fn digest(&self) -> Digest {
        let (mut data, mut ctrl) = (self.data.clone(), self.ctrl.clone());
        data.sort_unstable();
        ctrl.sort_unstable();
        let unacked = self.sender.unacked.iter();
        (
            self.sent,
            data,
            ctrl,
            unacked
                .map(|(&s, u)| (s, u.retries, u.retransmitted))
                .collect(),
            self.delivered,
            self.sender.dead,
        )
    }
}

fn replay(path: &[Move], glue: Glue) -> Result<World, String> {
    let mut w = World::new();
    for &mv in path {
        w.apply(mv, glue)?;
    }
    Ok(w)
}

/// Breadth-first over every interleaving up to [`DEPTH`] moves. `Ok`: the
/// number of distinct states visited. `Err`: the first violation, with the
/// (shortest) interleaving that reaches it.
fn explore(glue: Glue) -> Result<usize, String> {
    let mut seen = BTreeSet::new();
    let mut frontier = VecDeque::from([Vec::new()]);
    while let Some(path) = frontier.pop_front() {
        let here = replay(&path, glue).expect("a queued path replays cleanly");
        for mv in here.moves() {
            let mut next = path.clone();
            next.push(mv);
            let world = replay(&next, glue).map_err(|why| format!("{why}\n  after {next:?}"))?;
            if !seen.insert((world.digest(), world.acked.clone(), world.failed.clone())) {
                continue;
            }
            world
                .drains()
                .map_err(|why| format!("under fair loss: {why}\n  after {next:?}"))?;
            if next.len() < DEPTH {
                frontier.push_back(next);
            }
        }
    }
    Ok(seen.len())
}

#[test]
fn every_interleaving_keeps_the_reliability_invariants() {
    let states = explore(Glue::Correct).unwrap_or_else(|why| panic!("{why}"));
    // The scope is only worth something if it is not trivially small.
    assert!(states > 9_000, "only {states} states explored");
}

#[test]
fn a_planted_bug_is_found_with_its_interleaving() {
    let why = explore(Glue::DamagedAcceptedAsData).expect_err("the bug must be caught");
    println!("planted bug, as the checker reports it:\n{why}");
    assert!(
        why.starts_with("damaged bytes were consumed as data"),
        "{why}"
    );
    // Breadth-first: the counterexample is the shortest one.
    assert!(
        why.ends_with("after [Send, DeliverDamaged { i: 0, garbage: false }]"),
        "{why}"
    );
}
