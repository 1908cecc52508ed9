//! Lease/epoch membership: the one implementation of the protocol that
//! both membership planes run — the failover controller over workers
//! and the tier controller over gateway shards.
//!
//! A controller grants each member a bounded lease per round
//! ([`GrantLease`]) carrying the member's fencing token (its **epoch**).
//! A member serves only while its lease is live; the controller fences
//! a silent member only once the last lease it granted has *provably*
//! expired; a healed member rejoins through a handshake that bumps its
//! epoch. This module holds everything in that protocol that is not
//! policy:
//!
//! - [`ControllerView`] / [`WorkerView`] — the pure algebra of one
//!   member, as the controller and as the member itself see it. Every
//!   worker (the NIC, the host backend, a gateway shard) holds a
//!   `WorkerView` and keeps only its reaction to an [`Adoption`].
//! - [`Membership`] — the controller-side core: per-member views and
//!   silent-round tallies, crash state, timer generations, the
//!   snapshot sequence and the owed restore report. The controllers
//!   keep only what a fence or a rejoin does to routing.
//!
//! The algebra is property-tested over arbitrary interleavings of
//! grants, message loss, replayed grants, clock advance, worker
//! crashes, fencing and rejoin:
//!
//! - **Expiry is monotone under clock advance** — once a lease has
//!   lapsed it never un-lapses.
//! - **Fencing tokens never regress** — neither side ever adopts a
//!   smaller epoch, including across rejoin and controller restart.
//! - **At most one unfenced owner** — there is no instant at which the
//!   controller considers a member fenced while that member still
//!   believes its lease is live.
//!
//! The invariants hold because of two structural facts: the controller
//! records `lease_until` *before* the grant leaves (so its record
//! upper-bounds the member's view even if the grant is lost), and a
//! member only adopts a grant whose epoch is at least its own. An
//! adopted grant extends the member's expiry to `max(held, granted)`,
//! so a grant replayed late from a stalled member's backlog can never
//! shorten it; a rejoin grant instead *resets* it, because it carries
//! no serving time.

use crate::engine::{ComponentId, Ctx};
use crate::fault::{
    Crash, EpochQuery, EpochReport, GrantLease, LeaseAck, NetCutFrom, PartitionCut, Restart,
};
use crate::message::AnyMessage;
use crate::time::{SimDuration, SimTime};

/// Validity of every lease grant: three 50 ms rounds. It does not scale
/// with a controller's round interval — a controller beating every
/// 10 ms still grants 150 ms leases, so a suspected member is fenced no
/// sooner than 150 ms after its last renewal.
pub const LEASE: SimDuration = SimDuration::from_millis(150);

/// Whether a lease that runs out at `until` has provably expired at
/// `now` — the only condition under which fencing is safe.
pub fn provably_expired(now: SimTime, until: SimTime) -> bool {
    now >= until
}

/// A bounded lease: the right to serve requests at `epoch` until
/// `until`, and not a nanosecond longer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The fencing token this lease was granted under.
    pub epoch: u64,
    /// The instant the right to serve lapses.
    pub until: SimTime,
}

impl Lease {
    /// Whether the lease still authorizes serving at `now`.
    pub fn live(&self, now: SimTime) -> bool {
        !provably_expired(now, self.until)
    }
}

/// A lease grant in flight from controller to worker (the algebra's
/// view of a [`GrantLease`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The epoch the grant carries (a rejoin grant bumps it).
    pub epoch: u64,
    /// The instant the granted lease runs out.
    pub until: SimTime,
    /// Whether this is a rejoin probe for a fenced worker.
    pub rejoin: bool,
}

impl From<GrantLease> for Grant {
    fn from(g: GrantLease) -> Self {
        Grant {
            epoch: g.epoch,
            until: SimTime::from_nanos(g.until_ns),
            rejoin: g.rejoin,
        }
    }
}

/// The controller's bookkeeping for one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerView {
    /// The member's current fencing token, as the controller knows it.
    pub epoch: u64,
    /// Upper bound on when any lease the controller ever granted to
    /// this member runs out.
    pub lease_until: SimTime,
    /// Whether the member is fenced (work at its old epoch is dead).
    pub fenced: bool,
}

impl ControllerView {
    /// A fresh member at the initial epoch, holding no lease.
    pub fn new(epoch: u64) -> Self {
        ControllerView {
            epoch,
            lease_until: SimTime::ZERO,
            fenced: false,
        }
    }

    /// Rebuilds a member view from restored (snapshot) state, with the
    /// lease horizon conservatively re-bounded to `now + duration`.
    ///
    /// A snapshot's `lease_until` may be stale by the time the restore
    /// runs, but the restoring controller cannot know how much serving
    /// time it promised after the snapshot was taken; the only safe
    /// assumption is that a grant left the instant before the crash, so
    /// the restored horizon is the *maximum* of the recorded bound and
    /// `now + duration`. This keeps [`ControllerView::try_fence`]'s
    /// precondition sound across a restore: fencing stays blocked until
    /// every lease the pre-crash controller *could* have granted has
    /// provably expired.
    pub fn restore(
        epoch: u64,
        fenced: bool,
        recorded_until: SimTime,
        now: SimTime,
        duration: SimDuration,
    ) -> Self {
        ControllerView {
            epoch,
            lease_until: recorded_until.max(now + duration),
            fenced,
        }
    }

    /// Issues a lease grant (or, for a fenced member, a rejoin probe).
    /// The controller extends its own `lease_until` record first, so the
    /// record upper-bounds the member's view even if the grant is lost.
    ///
    /// A rejoin probe carries the bumped epoch but **zero serving
    /// time**: if it granted a lease, a member whose acks are being
    /// blackholed (asymmetric cut) would resume serving while the
    /// controller still considers it fenced — exactly the split brain
    /// fencing exists to prevent. The member earns a real lease only
    /// after its ack round-trips and the controller un-fences it.
    pub fn grant(&mut self, now: SimTime, duration: SimDuration) -> Grant {
        if self.fenced {
            Grant {
                epoch: self.epoch + 1,
                until: now,
                rejoin: true,
            }
        } else {
            let until = now + duration;
            self.lease_until = self.lease_until.max(until);
            Grant {
                epoch: self.epoch,
                until,
                rejoin: false,
            }
        }
    }

    /// Attempts to fence the member; succeeds only once the last lease
    /// the controller ever granted has provably expired.
    pub fn try_fence(&mut self, now: SimTime) -> bool {
        if self.fenced || !provably_expired(now, self.lease_until) {
            return false;
        }
        self.fenced = true;
        true
    }

    /// Processes a member's ack at `ack_epoch`: a fenced member acking
    /// a strictly fresher token completes the rejoin handshake.
    pub fn on_ack(&mut self, now: SimTime, ack_epoch: u64, duration: SimDuration) {
        if self.fenced && ack_epoch > self.epoch {
            self.epoch = ack_epoch;
            self.fenced = false;
            self.lease_until = self.lease_until.max(now + duration);
        } else if ack_epoch > self.epoch {
            self.epoch = ack_epoch;
        }
    }
}

/// What a worker adopted from a grant (see [`WorkerView::deliver`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adoption {
    /// The epoch the worker now holds, and acks.
    pub epoch: u64,
    /// The grant raised the worker's epoch.
    pub epoch_rose: bool,
    /// A rejoin grant raised the epoch: everything the worker queued
    /// under its old epoch is fenced work and must be dropped.
    pub rejoined: bool,
}

impl Adoption {
    /// Acks the adopted grant to the controller that issued it.
    /// `incarnation` is the worker's restart count.
    pub fn ack(self, ctx: &mut Ctx<'_>, controller: ComponentId, incarnation: u64) {
        let from = ctx.self_id();
        ctx.send(
            controller,
            SimDuration::ZERO,
            LeaseAck {
                from,
                epoch: self.epoch,
                incarnation,
            },
        );
    }
}

/// The worker's side of the protocol: the lease it currently holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerView {
    /// The lease the worker last adopted, if any.
    pub lease: Option<Lease>,
}

impl WorkerView {
    /// A worker that has never been granted a lease (serves unfenced,
    /// like a testbed without failover).
    pub fn new() -> Self {
        WorkerView { lease: None }
    }

    /// The worker's current epoch (0 before any grant).
    pub fn epoch(&self) -> u64 {
        self.lease.map_or(0, |l| l.epoch)
    }

    /// Whether the worker believes it may serve at `now`. A worker that
    /// has never held a lease serves unconditionally; one that has
    /// self-fences the moment its lease lapses.
    pub fn live(&self, now: SimTime) -> bool {
        self.lease.is_none_or(|l| l.live(now))
    }

    /// Delivers a grant. It is adopted only when its token is at least
    /// as fresh as the worker's own (tokens never regress); a stale
    /// grant is dropped and returns `None`, and the worker does not ack
    /// it.
    ///
    /// The grant's expiry is absolute, so a grant replayed late from a
    /// stalled worker's backlog cannot stretch the lease past what the
    /// controller recorded when it issued the grant, and the worker
    /// keeps `max(held, granted)` so such a replay cannot shorten it
    /// either. A rejoin grant that raises the epoch resets the expiry
    /// to the grant's (already past) instant instead: the worker serves
    /// again only under the regular grant that follows its ack.
    pub fn deliver(&mut self, grant: Grant) -> Option<Adoption> {
        let held = self.epoch();
        if grant.epoch < held {
            return None;
        }
        let epoch_rose = grant.epoch > held;
        let rejoined = grant.rejoin && epoch_rose;
        let until = match self.lease {
            Some(l) if !rejoined => l.until.max(grant.until),
            _ => grant.until,
        };
        self.lease = Some(Lease {
            epoch: grant.epoch,
            until,
        });
        Some(Adoption {
            epoch: grant.epoch,
            epoch_rose,
            rejoined,
        })
    }

    /// The worker crashed: its lease lapses (it serves nothing until
    /// the controller renews it), but its epoch persists, as a
    /// production epoch on stable storage would.
    pub fn lapse(&mut self) {
        if let Some(l) = &mut self.lease {
            l.until = SimTime::ZERO;
        }
    }

    /// The worker lost its whole lease state, epoch included, but stays
    /// enrolled: it refuses work until the next grant, whatever that
    /// grant's epoch.
    pub fn forget(&mut self) {
        if self.lease.is_some() {
            self.lease = Some(Lease {
                epoch: 0,
                until: SimTime::ZERO,
            });
        }
    }

    /// The epoch to refuse work stamped `work_epoch` with at `now`, if
    /// the work must be refused: the lease lapsed (the worker
    /// self-fences until it rejoins), or the work carries a token older
    /// than the held one. Epoch 0 marks unfenced work (worker-to-worker
    /// RPCs, testbeds without a lease regime) and bypasses the
    /// staleness comparison; it is still refused once the lease lapses.
    /// A worker that never held a lease refuses nothing.
    pub fn fence_check(&self, work_epoch: u64, now: SimTime) -> Option<u64> {
        let lease = self.lease?;
        (!lease.live(now) || (work_epoch != 0 && work_epoch < lease.epoch)).then_some(lease.epoch)
    }

    /// Whether a deploy stamped `epoch` predates the held epoch: the
    /// placement decision behind it has been fenced.
    pub fn is_stale(&self, epoch: u64) -> bool {
        self.lease.is_some_and(|l| epoch < l.epoch)
    }

    /// The worker's answer to an [`EpochQuery`].
    pub fn report(&self, from: ComponentId) -> EpochReport {
        EpochReport {
            from,
            epoch: self.epoch(),
            lease_until_ns: self.lease.map_or(0, |l| l.until.as_nanos()),
        }
    }
}

/// How a restored controller folds a member's [`EpochReport`] into its
/// record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reconcile {
    /// A report ahead of the record proves a rejoin the snapshot
    /// missed: adopt its epoch and un-fence the member. Only reports
    /// ahead of the record count as reconciled.
    Rejoin,
    /// Max-merge the epoch without un-fencing (a fenced member still
    /// rejoins through the handshake). Every report counts as
    /// reconciled.
    Merge,
}

/// Self-timer: the next membership round. Timers carry the generation
/// they were armed in; a restart bumps it, so timers armed before a
/// crash never double the loops the restart re-arms.
#[derive(Debug)]
struct Round {
    gen: u64,
}

/// Self-timer: the next periodic snapshot.
#[derive(Debug)]
struct SnapTick {
    gen: u64,
}

/// What a controller must act on after its [`Membership`] filtered a
/// message (see [`Membership::filter`]).
#[derive(Debug)]
pub enum Signal {
    /// The controller just crashed.
    Crashed,
    /// The controller just restarted. If it had started, it must
    /// restore and re-arm its timers.
    Restarted,
    /// A live round timer fired.
    Round,
    /// A live snapshot timer fired.
    Snapshot,
    /// Any other message, for the controller's policy.
    Message(AnyMessage),
}

/// One member as the controller tracks it.
#[derive(Clone, Copy, Debug)]
struct Member {
    component: ComponentId,
    view: ControllerView,
    /// Consecutive rounds without an answer.
    missed: u32,
    /// Answered (lease ack or pong) during the current round.
    answered: bool,
}

/// The controller-side membership core: one [`ControllerView`] and one
/// silent-round tally per member, plus the state a crash-restartable
/// controller needs around them — the crash flag, the timer
/// generation, the snapshot sequence and the owed restore report.
/// Grants, fencing on provable expiry, ack → rejoin and the
/// restore-time epoch reconcile happen here; the owning controller
/// decides what they mean for routing.
#[derive(Debug)]
pub struct Membership {
    members: Vec<Member>,
    reconcile: Reconcile,
    cut: PartitionCut,
    crashed: bool,
    started: bool,
    gen: u64,
    snap_seq: u64,
    /// A restore ran and its report is owed at the next round, after
    /// the zero-delay epoch reports have landed: `(snapshot seq,
    /// reports reconciled)`.
    restore_owed: Option<(u64, u64)>,
}

impl Membership {
    /// A membership over `components`, every one at `epoch`, folding
    /// restore-time epoch reports by `reconcile`.
    pub fn new(
        components: impl IntoIterator<Item = ComponentId>,
        epoch: u64,
        reconcile: Reconcile,
    ) -> Self {
        Membership {
            members: components
                .into_iter()
                .map(|component| Member {
                    component,
                    view: ControllerView::new(epoch),
                    missed: 0,
                    answered: false,
                })
                .collect(),
            reconcile,
            cut: PartitionCut::default(),
            crashed: false,
            started: false,
            gen: 0,
            snap_seq: 0,
            restore_owed: None,
        }
    }

    /// Member `i`'s component.
    pub fn component(&self, i: usize) -> ComponentId {
        self.members[i].component
    }

    /// The controller's view of member `i`.
    pub fn view(&self, i: usize) -> &ControllerView {
        &self.members[i].view
    }

    /// Mutable access to the controller's view of member `i` (epoch
    /// regime start, administrative fences).
    pub fn view_mut(&mut self, i: usize) -> &mut ControllerView {
        &mut self.members[i].view
    }

    /// Consecutive rounds member `i` has been silent.
    pub fn missed(&self, i: usize) -> u32 {
        self.members[i].missed
    }

    /// Whether the controller is crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the controller has started its round loop.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Marks the round loop started; `false` if it already was.
    pub fn start(&mut self) -> bool {
        !std::mem::replace(&mut self.started, true)
    }

    /// Whether direct messages from `peer` are inside a partition cut.
    pub fn is_cut(&self, peer: ComponentId, now: SimTime) -> bool {
        self.cut.blocks(peer, now)
    }

    /// Handles what every membership controller treats alike: crash and
    /// restart (which act even while the process is down), partition
    /// cuts, messages to a crashed process (dropped), and timers armed
    /// before the last restart (dropped). Returns what the controller
    /// must still act on, if anything.
    pub fn filter(&mut self, now: SimTime, msg: AnyMessage) -> Option<Signal> {
        if msg.is::<Crash>() {
            return (!std::mem::replace(&mut self.crashed, true)).then_some(Signal::Crashed);
        }
        if msg.is::<Restart>() {
            if !std::mem::replace(&mut self.crashed, false) {
                return None;
            }
            self.gen += 1;
            return Some(Signal::Restarted);
        }
        let msg = match msg.downcast::<NetCutFrom>() {
            Ok(cut) => {
                self.cut.apply(now, &cut);
                return None;
            }
            Err(other) => other,
        };
        if self.crashed {
            return None;
        }
        let msg = match msg.downcast::<Round>() {
            Ok(r) => return (r.gen == self.gen).then_some(Signal::Round),
            Err(other) => other,
        };
        match msg.downcast::<SnapTick>() {
            Ok(t) => (t.gen == self.gen).then_some(Signal::Snapshot),
            Err(other) => Some(Signal::Message(other)),
        }
    }

    /// Arms the next round timer.
    pub fn arm_round(&self, ctx: &mut Ctx<'_>, after: SimDuration) {
        ctx.send_self(after, Round { gen: self.gen });
    }

    /// Arms the next snapshot timer.
    pub fn arm_snapshot(&self, ctx: &mut Ctx<'_>, after: SimDuration) {
        ctx.send_self(after, SnapTick { gen: self.gen });
    }

    /// Closes a round: a member that answered has missed nothing, one
    /// that stayed silent has missed one more round.
    pub fn tally(&mut self) {
        for m in &mut self.members {
            m.missed = if m.answered {
                0
            } else {
                m.missed.saturating_add(1)
            };
            m.answered = false;
        }
    }

    /// Grants member `i` a [`LEASE`] (or, when it is fenced, a rejoin
    /// probe) and sends it as a [`GrantLease`].
    pub fn grant(&mut self, ctx: &mut Ctx<'_>, i: usize) -> Grant {
        let m = &mut self.members[i];
        let grant = m.view.grant(ctx.now(), LEASE);
        let reply_to = ctx.self_id();
        ctx.send(
            m.component,
            SimDuration::ZERO,
            GrantLease {
                epoch: grant.epoch,
                until_ns: grant.until.as_nanos(),
                rejoin: grant.rejoin,
                reply_to,
            },
        );
        grant
    }

    /// Fences member `i` if the last lease granted to it has provably
    /// expired at `now`.
    pub fn try_fence(&mut self, i: usize, now: SimTime) -> bool {
        self.members[i].view.try_fence(now)
    }

    /// Records an answer (ack or pong) from `from` for this round,
    /// unless a partition cut swallows it. Returns the member's index.
    pub fn answered(&mut self, from: ComponentId, now: SimTime) -> Option<usize> {
        if self.cut.blocks(from, now) {
            return None;
        }
        let i = self.members.iter().position(|m| m.component == from)?;
        let m = &mut self.members[i];
        m.answered = true;
        m.missed = 0;
        Some(i)
    }

    /// Processes a [`LeaseAck`]. Returns the member's index and whether
    /// the ack completed a rejoin handshake (the member is un-fenced at
    /// its bumped epoch).
    pub fn on_ack(&mut self, ack: &LeaseAck, now: SimTime) -> Option<(usize, bool)> {
        let i = self.answered(ack.from, now)?;
        let view = &mut self.members[i].view;
        let was_fenced = view.fenced;
        view.on_ack(now, ack.epoch, LEASE);
        Some((i, was_fenced && !view.fenced))
    }

    /// Asks member `i` which epoch it holds (restore-time reconcile).
    pub fn query_epoch(&self, ctx: &mut Ctx<'_>, i: usize) {
        let reply_to = ctx.self_id();
        ctx.send(
            self.members[i].component,
            SimDuration::ZERO,
            EpochQuery { reply_to },
        );
    }

    /// Folds a member's [`EpochReport`] into its record by the
    /// [`Reconcile`] rule, and raises the lease bound to what the member
    /// reports holding. Returns the member's index and whether the
    /// report was ahead of the record.
    pub fn on_report(&mut self, report: &EpochReport, now: SimTime) -> Option<(usize, bool)> {
        if self.cut.blocks(report.from, now) {
            return None;
        }
        let i = self
            .members
            .iter()
            .position(|m| m.component == report.from)?;
        let view = &mut self.members[i].view;
        let ahead = report.epoch > view.epoch;
        let reconciled = match self.reconcile {
            Reconcile::Rejoin => {
                if ahead {
                    view.epoch = report.epoch;
                    view.fenced = false;
                }
                ahead
            }
            Reconcile::Merge => {
                view.epoch = view.epoch.max(report.epoch);
                true
            }
        };
        view.lease_until = view
            .lease_until
            .max(SimTime::from_nanos(report.lease_until_ns));
        if let Some((_, n)) = self.restore_owed.as_mut().filter(|_| reconciled) {
            *n += 1;
        }
        Some((i, ahead))
    }

    /// Restores member `i` from recorded state (see
    /// [`ControllerView::restore`]) with a clean round tally.
    pub fn restore(&mut self, i: usize, epoch: u64, fenced: bool, recorded: SimTime, now: SimTime) {
        let m = &mut self.members[i];
        m.view = ControllerView::restore(epoch, fenced, recorded, now, LEASE);
        m.missed = 0;
        m.answered = false;
    }

    /// Records that a restore from snapshot `seq` ran; its report is
    /// owed once the epoch reports have landed.
    pub fn owe_restore(&mut self, seq: u64) {
        self.restore_owed = Some((seq, 0));
    }

    /// The owed restore report, if any: `(snapshot seq, reports
    /// reconciled)`.
    pub fn take_restore(&mut self) -> Option<(u64, u64)> {
        self.restore_owed.take()
    }

    /// Allocates the next snapshot sequence number.
    pub fn next_snapshot(&mut self) -> u64 {
        self.snap_seq += 1;
        self.snap_seq
    }

    /// Sequence number of the last snapshot taken (0 = none).
    pub fn snapshot_seq(&self) -> u64 {
        self.snap_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TICK: SimDuration = SimDuration::from_micros(10);
    const LEASE: SimDuration = SimDuration::from_micros(35);

    /// One step of an adversarial schedule.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Clock advances one tick.
        Advance,
        /// Controller grants; the grant is delivered iff `delivered`
        /// (a lost grant models a partition).
        Grant { delivered: bool },
        /// Controller grants and the worker's ack also comes back.
        GrantAcked,
        /// Controller attempts to fence.
        TryFence,
        /// The worker crashes and restarts: its expiry lapses, its
        /// epoch is kept.
        WorkerCrash,
        /// An earlier grant (picked by index) reaches the worker late —
        /// a stale grant, or one backlogged in a stalled worker — and
        /// the ack comes back iff `acked`.
        Replay { pick: usize, acked: bool },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Advance),
            any::<bool>().prop_map(|delivered| Op::Grant { delivered }),
            Just(Op::GrantAcked),
            Just(Op::TryFence),
            Just(Op::WorkerCrash),
            (any::<usize>(), any::<bool>()).prop_map(|(pick, acked)| Op::Replay { pick, acked }),
        ]
    }

    /// Runs `ops` against one controller view and the [`WorkerView`]
    /// every worker runs, calling `check` after each step with the
    /// clock, both sides, and whether the step fenced (`Some(false)`)
    /// or completed a rejoin (`Some(true)`).
    fn run(
        ops: &[Op],
        mut check: impl FnMut(
            SimTime,
            &ControllerView,
            &WorkerView,
            Option<bool>,
        ) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        let mut now = SimTime::ZERO;
        let mut ctrl = ControllerView::new(1);
        let mut worker = WorkerView::new();
        let mut sent: Vec<Grant> = Vec::new();
        for &op in ops {
            let was_fenced = ctrl.fenced;
            let mut deliver = |ctrl: &mut ControllerView, grant: Grant, acked: bool| {
                if let Some(a) = worker.deliver(grant) {
                    if acked {
                        ctrl.on_ack(now, a.epoch, LEASE);
                    }
                }
            };
            match op {
                Op::Advance => now += TICK,
                Op::Grant { delivered } => {
                    let grant = ctrl.grant(now, LEASE);
                    sent.push(grant);
                    if delivered {
                        // The ack is lost: the worst case for the
                        // controller on plain grants.
                        deliver(&mut ctrl, grant, false);
                    }
                }
                Op::GrantAcked => {
                    let grant = ctrl.grant(now, LEASE);
                    sent.push(grant);
                    deliver(&mut ctrl, grant, true);
                }
                Op::TryFence => {
                    if ctrl.try_fence(now) {
                        prop_assert!(provably_expired(now, ctrl.lease_until));
                    }
                }
                Op::WorkerCrash => {
                    let epoch = worker.epoch();
                    worker.lapse();
                    prop_assert_eq!(worker.epoch(), epoch, "a crash must keep the epoch");
                    prop_assert!(
                        worker.lease.is_none() || !worker.live(now),
                        "a crash must lapse the lease"
                    );
                }
                Op::Replay { pick, acked } => {
                    if !sent.is_empty() {
                        let grant = sent[pick % sent.len()];
                        deliver(&mut ctrl, grant, acked);
                    }
                }
            }
            let transition = match (was_fenced, ctrl.fenced) {
                (false, true) => Some(false),
                (true, false) => Some(true),
                _ => None,
            };
            check(now, &ctrl, &worker, transition)?;
        }
        Ok(())
    }

    proptest! {
        /// Once lapsed, a lease never un-lapses as the clock advances.
        #[test]
        fn expiry_is_monotone_under_clock_advance(
            until_ns in 0u64..1_000_000,
            t0_ns in 0u64..1_000_000,
            dt_ns in 0u64..1_000_000,
        ) {
            let lease = Lease { epoch: 1, until: SimTime::from_nanos(until_ns) };
            let t0 = SimTime::from_nanos(t0_ns);
            let t1 = SimTime::from_nanos(t0_ns + dt_ns);
            if !lease.live(t0) {
                prop_assert!(!lease.live(t1), "lease un-lapsed between {t0:?} and {t1:?}");
            }
        }

        /// Over arbitrary schedules of grants, losses, replays, worker
        /// crashes, clock advances, fences, and rejoins: epochs never
        /// regress on either side, and there is never an instant at
        /// which the controller has fenced the worker while the worker
        /// still believes its lease is live (the "two unfenced owners"
        /// precondition — the controller re-places a fenced worker's
        /// lambdas, so a live stale owner would be a split brain).
        #[test]
        fn never_two_unfenced_owners(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut max_ctrl_epoch = 0;
            let mut max_worker_epoch = 0;
            run(&ops, |now, ctrl, worker, _| {
                prop_assert!(ctrl.epoch >= max_ctrl_epoch, "controller epoch regressed");
                prop_assert!(worker.epoch() >= max_worker_epoch, "worker epoch regressed");
                max_ctrl_epoch = ctrl.epoch;
                max_worker_epoch = worker.epoch();
                if worker.lease.is_some() {
                    prop_assert!(
                        !(ctrl.fenced && worker.live(now)),
                        "controller fenced worker at {now:?} while its lease was live \
                         (ctrl: {ctrl:?}, worker: {worker:?})"
                    );
                }
                Ok(())
            })?;
        }

        /// A fence only ever succeeds after every granted lease has
        /// provably expired, and a successful rejoin strictly bumps the
        /// epoch past the fenced one.
        #[test]
        fn rejoin_strictly_bumps(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut fenced_epoch = None;
            run(&ops, |_, ctrl, _, transition| {
                match transition {
                    Some(false) => fenced_epoch = Some(ctrl.epoch),
                    Some(true) => {
                        let fenced_at = fenced_epoch.take().expect("fence recorded");
                        prop_assert!(ctrl.epoch > fenced_at, "rejoin did not bump past fenced epoch");
                    }
                    None => {}
                }
                Ok(())
            })?;
        }
    }

    #[test]
    fn fence_blocked_while_lease_outstanding() {
        let mut ctrl = ControllerView::new(1);
        let now = SimTime::from_nanos(1000);
        let _ = ctrl.grant(now, LEASE);
        assert!(!ctrl.try_fence(now), "fenced inside the granted window");
        assert!(ctrl.try_fence(now + LEASE), "lease provably expired");
    }

    #[test]
    fn restore_rebounds_lease_conservatively() {
        let now = SimTime::from_nanos(10_000);
        // Recorded bound already past: restore pushes it to now + lease,
        // so fencing is blocked for a full lease after the restore.
        let v = ControllerView::restore(7, false, SimTime::from_nanos(100), now, LEASE);
        assert_eq!(v.epoch, 7);
        assert!(!v.fenced);
        assert_eq!(v.lease_until, now + LEASE);
        let mut v2 = v;
        assert!(!v2.try_fence(now), "fenced inside the restored window");
        assert!(v2.try_fence(now + LEASE));
        // Recorded bound beyond now + lease: the larger bound wins.
        let far = now + LEASE + LEASE;
        let v3 = ControllerView::restore(7, true, far, now, LEASE);
        assert_eq!(v3.lease_until, far);
        assert!(v3.fenced);
    }

    fn grant(epoch: u64, until_ns: u64, rejoin: bool) -> Grant {
        Grant {
            epoch,
            until: SimTime::from_nanos(until_ns),
            rejoin,
        }
    }

    #[test]
    fn stale_grant_is_dropped_by_worker() {
        let mut worker = WorkerView::new();
        let a = worker.deliver(grant(3, 100, false)).expect("fresh grant");
        assert_eq!((a.epoch, a.epoch_rose, a.rejoined), (3, true, false));
        assert_eq!(
            worker.deliver(grant(2, 200, false)),
            None,
            "a stale token must not be adopted"
        );
        assert_eq!(worker.epoch(), 3);
    }

    #[test]
    fn grants_extend_expiry_and_rejoin_resets_it() {
        let mut worker = WorkerView::new();
        worker.deliver(grant(1, 500, false));
        // A backlogged grant replayed late cannot shorten the lease.
        let a = worker.deliver(grant(1, 300, false)).expect("same epoch");
        assert!(!a.epoch_rose && !a.rejoined);
        assert_eq!(worker.lease.unwrap().until, SimTime::from_nanos(500));
        // A rejoin grant at a bumped epoch carries no serving time.
        let a = worker.deliver(grant(2, 400, true)).expect("rejoin");
        assert!(a.epoch_rose && a.rejoined);
        assert!(!worker.live(SimTime::from_nanos(400)));
        // A repeated probe at the held epoch is no second rejoin.
        let a = worker.deliver(grant(2, 450, true)).expect("repeat probe");
        assert!(!a.rejoined);
        assert_eq!(worker.lease.unwrap().until, SimTime::from_nanos(450));
    }

    #[test]
    fn crash_keeps_the_epoch_and_forget_drops_it() {
        let mut worker = WorkerView::new();
        worker.lapse();
        worker.forget();
        assert_eq!(worker.lease, None, "an unleased worker stays unfenced");
        assert_eq!(worker.fence_check(5, SimTime::ZERO), None);

        worker.deliver(grant(4, 1_000, false));
        worker.lapse();
        assert_eq!(worker.epoch(), 4);
        assert_eq!(worker.fence_check(4, SimTime::ZERO), Some(4));
        assert!(worker.is_stale(3) && !worker.is_stale(4));

        worker.forget();
        assert_eq!(worker.epoch(), 0);
        assert!(
            !worker.live(SimTime::ZERO),
            "a forgetful worker stays fenced"
        );
        let a = worker.deliver(grant(2, 1_000, false)).expect("any epoch");
        assert!(a.epoch_rose);
        assert_eq!(worker.report(ComponentId::from_index_for_tests(0)).epoch, 2);
    }
}
