//! The service's commit protocol as a pure state machine: leader/follower
//! group commit with bounded admission, deadlines, refusals and drain on
//! shutdown, with no threads, clocks, I/O or checker. `CheckerService`
//! feeds [`Protocol::step`] events under one lock and performs the actions
//! (DESIGN.md tabulates both); the tests explore it with `()` payloads.

use std::collections::VecDeque;

/// Names an admitted submission, in arrival order.
pub(crate) type Ticket = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event<P> {
    /// A parsed statement, with a deadline or not, asks to queue.
    Submit { payload: P, deadline: bool },
    /// `t`, handed the lead, holds the commit lock: it takes up to `cap`
    /// pending statements, only its own if it has a deadline.
    Start(Ticket),
    /// `t`'s deadline passed as it waited or as its batch started.
    Expired(Ticket),
    /// The running batch's path returned: did it append a record, did its
    /// fsync succeed, did a panic the checker contained poison it?
    Returned { appended: bool, synced: bool, poisoned: bool },
    /// The publish of a batch that appended and synced is done.
    Published,
    /// A panic the checker did not contain, in the batch or its publish.
    Panicked,
    Shutdown,
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Action<P> {
    Queued(Ticket),
    /// Refuse the submission (`Draining`, `Degraded` or `Overloaded`).
    Refuse(Reply),
    /// Run these statements as one batch, the leader's first.
    Run(Vec<(Ticket, P)>),
    Publish,
    Degrade,
    Answer(Ticket, P, Reply),
    /// Wake `t`: it leads the next batch.
    Hand(Ticket, P),
    /// No one leads and nothing is pending.
    Lapse,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Reply {
    /// With its result from a batch that synced or appended nothing.
    Ran,
    /// With its result from a batch whose fsync failed, where the batch
    /// path made an applied statement `SyncFailed`: not acknowledged.
    Unsynced,
    TimedOut,
    /// Refused without running.
    Draining,
    Degraded,
    Overloaded,
    Poisoned,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Lead {
    Idle,
    /// Handed to `t`, `pending`'s front, which has not started.
    Handed(Ticket),
    Running(Ticket),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Protocol<P> {
    /// The most statements a batch takes. A statement drained into a
    /// batch of more than one stops counting against `depth`; in batches
    /// of one it counts until it is answered.
    cap: usize,
    depth: usize,
    tickets: Ticket,
    /// Admitted and not drained: ticket, has a deadline, payload.
    pub(crate) pending: VecDeque<(Ticket, bool, P)>,
    pub(crate) lead: Lead,
    /// The running batch's statements not answered yet.
    batch: Vec<(Ticket, P)>,
    pub(crate) draining: bool,
    pub(crate) poisoned: bool,
    pub(crate) degraded: bool,
}

impl<P: Clone> Protocol<P> {
    pub(crate) fn new(cap: usize, depth: usize) -> Protocol<P> {
        Protocol {
            cap,
            depth,
            tickets: 0,
            pending: VecDeque::new(),
            lead: Lead::Idle,
            batch: Vec::new(),
            draining: false,
            poisoned: false,
            degraded: false,
        }
    }

    /// Takes one event; the actions, in the order they are to be done.
    pub(crate) fn step(&mut self, event: Event<P>) -> Vec<Action<P>> {
        let mut out = Vec::new();
        match event {
            Event::Submit { payload, deadline } => {
                let admitted = self.pending.len() + if self.cap == 1 { self.batch.len() } else { 0 };
                let refusals = [
                    (self.draining, Reply::Draining),
                    (self.degraded, Reply::Degraded),
                    (admitted >= self.depth, Reply::Overloaded),
                ];
                if let Some(&(_, refusal)) = refusals.iter().find(|(refused, _)| *refused) {
                    return vec![Action::Refuse(refusal)];
                }
                self.tickets += 1;
                self.pending.push_back((self.tickets, deadline, payload));
                out.push(Action::Queued(self.tickets));
                if self.lead == Lead::Idle {
                    self.hand(&mut out);
                }
            }
            Event::Start(leader) => {
                let own = self.pending.front().is_some_and(|(_, deadline, _)| *deadline);
                let n = self.pending.len().min(if own { 1 } else { self.cap });
                self.batch = self.pending.drain(..n).map(|(t, _, payload)| (t, payload)).collect();
                if self.degraded || self.poisoned {
                    self.finish(if self.degraded { Reply::Degraded } else { Reply::Poisoned }, &mut out);
                } else {
                    self.lead = Lead::Running(leader);
                    out.push(Action::Run(self.batch.clone()));
                }
            }
            Event::Expired(t) => {
                if let Some(at) = self.pending.iter().position(|e| e.0 == t) {
                    let (_, _, payload) = self.pending.remove(at).expect("a position in the queue");
                    out.push(Action::Answer(t, payload, Reply::TimedOut));
                    if self.lead == Lead::Handed(t) {
                        self.hand(&mut out);
                    }
                } else if let Some(at) = self.batch.iter().position(|e| e.0 == t) {
                    // The batch may still commit it: the verdict is unknown.
                    out.push(Action::Answer(t, self.batch.remove(at).1, Reply::TimedOut));
                }
            }
            Event::Returned { appended, synced, poisoned } => {
                self.poisoned |= poisoned;
                if !synced && !self.degraded {
                    self.degraded = true;
                    out.push(Action::Degrade);
                }
                if appended && synced {
                    out.push(Action::Publish);
                } else {
                    self.finish(if synced { Reply::Ran } else { Reply::Unsynced }, &mut out);
                }
            }
            Event::Published => self.finish(Reply::Ran, &mut out),
            Event::Panicked => {
                self.poisoned = true;
                self.finish(Reply::Poisoned, &mut out);
            }
            Event::Shutdown => self.draining = true,
        }
        out
    }

    /// Answers what is left of the batch and hands the lead on.
    fn finish(&mut self, reply: Reply, out: &mut Vec<Action<P>>) {
        out.extend(self.batch.drain(..).map(|(t, payload)| Action::Answer(t, payload, reply)));
        self.hand(out);
    }

    /// Hands the lead to the front of the queue, or lets it lapse.
    fn hand(&mut self, out: &mut Vec<Action<P>>) {
        let next = self.pending.front().map(|(t, _, payload)| (*t, payload.clone()));
        self.lead = next.as_ref().map_or(Lead::Idle, |(t, _)| Lead::Handed(*t));
        out.push(next.map_or(Action::Lapse, |(t, payload)| Action::Hand(t, payload)));
    }
}

#[cfg(test)]
mod tests {
    //! The explorer: every interleaving of three submitters with two
    //! statements each — any of them with a deadline — one panicking batch,
    //! one failed fsync and a shutdown, breadth first with state hashing,
    //! so the first violation found comes with a shortest trace.

    use super::*;
    use std::collections::HashMap;
    use std::fmt;

    const SUBMITTERS: usize = 3;
    const STATEMENTS: u8 = 2;

    /// One submitter thread, as the service drives it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sub {
        /// Between statements, `k` of them done.
        Ready(u8),
        /// Waiting on `ticket`, its `k`th statement: for its answer, its
        /// deadline or the lead.
        Waiting { k: u8, ticket: Ticket, deadline: bool },
        /// Leading the batch it started; `returned`: the batch path has,
        /// and the publish it asked for is due.
        Leading { k: u8, ticket: Ticket, deadline: bool, returned: bool },
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct World {
        model: Protocol<()>,
        subs: [Sub; SUBMITTERS],
        /// Tickets answered, and tickets drained into a batch: bit `t - 1`.
        answered: u8,
        drained: u8,
        /// The running batch's `(appended, synced)`, once it returned.
        outcome: Option<(bool, bool)>,
        /// The running batch was published.
        published: bool,
        panicked: bool,
        fsync_failed: bool,
        shut: bool,
    }

    /// One move of one thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Move {
        Submit { sub: usize, deadline: bool },
        Expire { sub: usize },
        Start { sub: usize },
        /// `Returned`, `Published` or `Panicked`.
        Batch { sub: usize, ran: Event<()> },
        Shutdown,
    }

    impl fmt::Display for Move {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match *self {
                Move::Submit { sub, deadline: false } => write!(f, "s{sub} submits"),
                Move::Submit { sub, deadline: true } => write!(f, "s{sub} submits with a deadline"),
                Move::Expire { sub } => write!(f, "s{sub}'s deadline passes"),
                Move::Start { sub } => write!(f, "s{sub} starts its batch"),
                Move::Batch { sub, ran: Event::Returned { appended, synced, poisoned } } => write!(
                    f,
                    "s{sub}'s batch returns ({}, {}{})",
                    if appended { "appended" } else { "appended nothing" },
                    if synced { "synced" } else { "fsync failed" },
                    if poisoned { ", checker poisoned" } else { "" },
                ),
                Move::Batch { sub, ran: Event::Published } => write!(f, "s{sub} publishes"),
                Move::Batch { sub, .. } => write!(f, "s{sub}'s batch panics"),
                Move::Shutdown => f.write_str("shutdown"),
            }
        }
    }

    fn bit(t: Ticket) -> u8 {
        1 << (t - 1)
    }

    /// The start, with `submitters` of the three to run and the rest done.
    fn initial(cap: usize, depth: usize, submitters: usize) -> World {
        let mut subs = [Sub::Ready(STATEMENTS); SUBMITTERS];
        subs[..submitters].fill(Sub::Ready(0));
        World {
            model: Protocol::new(cap, depth),
            subs,
            answered: 0,
            drained: 0,
            outcome: None,
            published: false,
            panicked: false,
            fsync_failed: false,
            shut: false,
        }
    }

    impl World {
        fn answered(&self, t: Ticket) -> bool {
            self.answered & bit(t) != 0
        }

        fn drained(&self, t: Ticket) -> bool {
            self.drained & bit(t) != 0
        }

        /// Every move some thread can make here.
        fn moves(&self) -> Vec<Move> {
            let mut moves = Vec::new();
            for (sub, state) in self.subs.iter().enumerate() {
                match *state {
                    Sub::Ready(k) if k < STATEMENTS => {
                        moves.push(Move::Submit { sub, deadline: false });
                        moves.push(Move::Submit { sub, deadline: true });
                    }
                    Sub::Ready(_) => {}
                    Sub::Waiting { ticket, deadline, .. } => {
                        if deadline {
                            moves.push(Move::Expire { sub });
                        }
                        if self.model.lead == Lead::Handed(ticket) {
                            moves.push(Move::Start { sub });
                        }
                    }
                    Sub::Leading { ticket, deadline, returned, .. } => {
                        if returned {
                            moves.push(Move::Batch { sub, ran: Event::Published });
                        } else {
                            // Its own deadline can pass as the batch starts.
                            if deadline && !self.answered(ticket) {
                                moves.push(Move::Expire { sub });
                            }
                            // Appended nothing, committed, a failed fsync, a
                            // panic the checker contained.
                            for (appended, synced, poisoned) in [
                                (false, true, false),
                                (true, true, false),
                                (true, false, false),
                                (false, true, true),
                            ] {
                                if (synced || !self.fsync_failed) && (!poisoned || !self.panicked) {
                                    let ran = Event::Returned { appended, synced, poisoned };
                                    moves.push(Move::Batch { sub, ran });
                                }
                            }
                        }
                        if !self.panicked {
                            moves.push(Move::Batch { sub, ran: Event::Panicked });
                        }
                    }
                }
            }
            if !self.shut {
                moves.push(Move::Shutdown);
            }
            moves
        }

        /// Makes `mv`, checking every action the protocol answers with and
        /// the invariants of the state it leaves. The actions, or what was
        /// violated.
        fn apply(&mut self, mv: Move) -> Result<Vec<Action<()>>, String> {
            let event = match mv {
                Move::Submit { deadline, .. } => Event::Submit { payload: (), deadline },
                Move::Expire { sub } | Move::Start { sub } => {
                    let (Sub::Waiting { ticket, .. } | Sub::Leading { ticket, .. }) = self.subs[sub]
                    else {
                        unreachable!("only a waiting or leading submitter moves so")
                    };
                    if matches!(mv, Move::Start { .. }) {
                        Event::Start(ticket)
                    } else {
                        Event::Expired(ticket)
                    }
                }
                Move::Batch { ran, .. } => {
                    if let Event::Returned { appended, synced, poisoned } = ran {
                        self.outcome = Some((appended, synced));
                        self.fsync_failed |= !synced;
                        self.panicked |= poisoned;
                    }
                    self.panicked |= ran == Event::Panicked;
                    ran
                }
                Move::Shutdown => {
                    self.shut = true;
                    Event::Shutdown
                }
            };
            let actions = self.model.step(event);
            for action in &actions {
                self.check(mv, action)?;
            }
            self.settle(mv);
            self.invariants()?;
            Ok(actions)
        }

        /// Holds one action of `mv` to the invariants and records it.
        fn check(&mut self, mv: Move, action: &Action<()>) -> Result<(), String> {
            match (action, mv) {
                (Action::Queued(t), Move::Submit { sub, deadline }) => {
                    if self.shut {
                        return Err("a submission was queued after shutdown".into());
                    }
                    let Sub::Ready(k) = self.subs[sub] else { unreachable!() };
                    self.subs[sub] = Sub::Waiting { k, ticket: *t, deadline };
                }
                (Action::Refuse(_), Move::Submit { sub, .. }) => {
                    let Sub::Ready(k) = self.subs[sub] else { unreachable!() };
                    self.subs[sub] = Sub::Ready(k + 1);
                }
                (Action::Run(batch), Move::Start { sub }) => {
                    let Sub::Waiting { k, ticket, deadline } = self.subs[sub] else { unreachable!() };
                    if batch.first().map(|(t, _)| *t) != Some(ticket) {
                        return Err("a batch does not start with its leader's statement".into());
                    }
                    if batch.len() > if deadline { 1 } else { self.model.cap } {
                        return Err(format!("a batch of {} is over its cap", batch.len()));
                    }
                    for (t, ()) in batch {
                        if self.answered(*t) || self.drained(*t) {
                            return Err(format!("t{t} runs after it was answered or run"));
                        }
                        self.drained |= bit(*t);
                    }
                    self.subs[sub] = Sub::Leading { k, ticket, deadline, returned: false };
                    self.outcome = None;
                    self.published = false;
                }
                (Action::Publish, Move::Batch { sub, .. }) => {
                    if self.outcome != Some((true, true)) {
                        return Err("a publish not after a synced batch".into());
                    }
                    if self.published {
                        return Err("a batch published twice".into());
                    }
                    self.published = true;
                    if let Sub::Leading { returned, .. } = &mut self.subs[sub] {
                        *returned = true;
                    }
                }
                (Action::Degrade, Move::Batch { .. }) => {
                    if self.outcome.is_some_and(|(_, synced)| synced) {
                        return Err("degraded after a synced batch".into());
                    }
                }
                (Action::Answer(t, (), reply), _) => {
                    if self.answered(*t) {
                        return Err(format!("t{t} answered twice"));
                    }
                    self.answered |= bit(*t);
                    let acked = match reply {
                        Reply::Ran | Reply::Unsynced => {
                            if !self.drained(*t) {
                                return Err(format!("t{t} answered with a result it never ran"));
                            }
                            *reply == Reply::Ran
                        }
                        _ => false,
                    };
                    match self.outcome {
                        Some((true, false)) if acked => {
                            return Err(format!("t{t} acknowledged although its batch's fsync failed"));
                        }
                        Some((true, true)) if acked && !self.published => {
                            return Err(format!("t{t} acknowledged before its batch was published"));
                        }
                        _ => {}
                    }
                }
                (Action::Hand(t, ()), _) => {
                    if self.answered(*t) || self.model.pending.front().map(|e| e.0) != Some(*t) {
                        return Err(format!("the lead handed to t{t}, not the queue's front"));
                    }
                }
                (Action::Lapse, _) => {}
                (action, mv) => return Err(format!("{action:?} in answer to {mv}")),
            }
            Ok(())
        }

        /// A leader whose batch is over — it panicked, published, or
        /// returned with nothing to publish — stops leading, as the
        /// service's does, whatever the protocol says; then every submitter
        /// whose answer has come moves on.
        fn settle(&mut self, mv: Move) {
            if let Move::Batch { sub, ran } = mv {
                if let Sub::Leading { k, ticket, deadline, returned } = self.subs[sub] {
                    if !returned || !matches!(ran, Event::Returned { .. }) {
                        self.subs[sub] = Sub::Waiting { k, ticket, deadline };
                    }
                }
            }
            for sub in 0..SUBMITTERS {
                if let Sub::Waiting { k, ticket, .. } = self.subs[sub] {
                    if self.answered(ticket) {
                        self.subs[sub] = Sub::Ready(k + 1);
                    }
                }
            }
        }

        /// What must hold in every state.
        fn invariants(&self) -> Result<(), String> {
            let leaders: Vec<Ticket> = self
                .subs
                .iter()
                .filter_map(|s| match s {
                    Sub::Leading { ticket, .. } => Some(*ticket),
                    _ => None,
                })
                .collect();
            match (self.model.lead, leaders.as_slice()) {
                (Lead::Running(t), [l]) if t == *l => {}
                (Lead::Idle | Lead::Handed(_), []) => {}
                (lead, leaders) => {
                    return Err(format!("the protocol's lead is {lead:?}, batches run by {leaders:?}"))
                }
            }
            if let Lead::Handed(t) = self.model.lead {
                let waits = |s: &Sub| matches!(s, Sub::Waiting { ticket, .. } if *ticket == t);
                if !self.subs.iter().any(waits) {
                    return Err(format!("the lead is handed to t{t}, whom nobody waits on"));
                }
            }
            if !self.model.pending.is_empty() && self.model.lead == Lead::Idle {
                return Err("a request is stranded: pending, and no one leads".into());
            }
            let held = if self.model.cap == 1 { self.model.batch.len() } else { 0 };
            if self.model.pending.len() + held > self.model.depth {
                return Err("more admitted than the bound".into());
            }
            Ok(())
        }

        /// What must hold where no thread can move: everyone is done.
        fn quiescent(&self) -> Result<(), String> {
            if let Some(t) = (1..=self.model.tickets).find(|t| !self.answered(*t)) {
                return Err(format!("t{t} is never answered"));
            }
            if self.subs.iter().any(|s| *s != Sub::Ready(STATEMENTS)) {
                return Err(format!("a submitter is stuck: {:?}", self.subs));
            }
            if !self.model.draining || self.model.lead != Lead::Idle {
                return Err("shutdown left the protocol leading or admitting".into());
            }
            Ok(())
        }
    }

    fn render(trace: &[Move]) -> String {
        trace.iter().map(Move::to_string).collect::<Vec<_>>().join("; ")
    }

    /// Explores every state reachable with `submitters` of the three, each
    /// state once: the states and transitions explored, or the first
    /// invariant violated and a shortest trace to it.
    fn explore(cap: usize, depth: usize, submitters: usize) -> Result<(usize, usize), String> {
        let start = initial(cap, depth, submitters);
        // Each state reached, with the state it was first reached from and
        // the move that did.
        let mut seen = HashMap::from([(start.clone(), 0)]);
        let mut parents: Vec<Option<(usize, Move)>> = vec![None];
        let trace = |mut at: usize, parents: &[Option<(usize, Move)>]| {
            let mut trace = Vec::new();
            while let Some((parent, mv)) = parents[at] {
                trace.push(mv);
                at = parent;
            }
            trace.reverse();
            render(&trace)
        };
        let mut transitions = 0;
        let mut frontier = std::collections::VecDeque::from([(start, 0)]);
        while let Some((world, at)) = frontier.pop_front() {
            let moves = world.moves();
            if moves.is_empty() {
                world.quiescent().map_err(|e| format!("{e}\n  after: {}", trace(at, &parents)))?;
            }
            for mv in moves {
                transitions += 1;
                let mut next = world.clone();
                if let Err(e) = next.apply(mv) {
                    return Err(format!("{e}\n  after: {}; {mv}", trace(at, &parents)));
                }
                if !seen.contains_key(&next) {
                    seen.insert(next.clone(), parents.len());
                    frontier.push_back((next, parents.len()));
                    parents.push(Some((at, mv)));
                }
            }
        }
        Ok((seen.len(), transitions))
    }

    /// Every interleaving of three submitters, two statements each, with
    /// batches of one (`Executor::Sync`) and of two, the admission bound at
    /// two (the third submitter can be shed) and at three. A debug build
    /// explores two submitters, which keeps the unoptimized suite quick;
    /// ci.sh runs this in release, over all three.
    #[test]
    fn every_interleaving_keeps_the_invariants() {
        let submitters = if cfg!(debug_assertions) { 2 } else { SUBMITTERS };
        for (cap, depth) in [(1, 2), (2, 2), (2, 3)] {
            let (states, transitions) = explore(cap, depth, submitters)
                .unwrap_or_else(|e| panic!("cap {cap}, depth {depth}: {e}"));
            println!(
                "commit protocol, {submitters} submitters x {STATEMENTS} statements, \
                 cap {cap}, depth {depth}: {states} states, {transitions} transitions explored"
            );
        }
    }

    /// Replays `trace` with batches of two and three admitted. Each move
    /// must be one [`World::moves`] offers, so the explorer, which makes
    /// every move from every state it reaches, reaches each state of the
    /// trace too. The final state and every action on the way.
    fn replay(trace: &[Move]) -> (World, Vec<Action<()>>) {
        let mut world = initial(2, 3, SUBMITTERS);
        let mut actions = Vec::new();
        for (i, &mv) in trace.iter().enumerate() {
            assert!(world.moves().contains(&mv), "move {i} ({mv}) cannot be made");
            actions.extend(world.apply(mv).unwrap_or_else(|e| panic!("move {i} ({mv}): {e}")));
        }
        (world, actions)
    }

    fn answer(t: Ticket, reply: Reply) -> Action<()> {
        Action::Answer(t, (), reply)
    }

    const SYNCED: Event<()> = Event::Returned { appended: true, synced: true, poisoned: false };

    /// `service.rs`'s `a_leader_whose_statement_panics_answers_every_follower`:
    /// the checker contains the panic; the leader's batch gets its results,
    /// the next leader refuses its batch as poisoned.
    #[test]
    fn trace_a_leader_whose_statement_panics_answers_every_follower() {
        use Move::*;
        let poisoned = Event::Returned { appended: false, synced: true, poisoned: true };
        let (world, actions) = replay(&[
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: false },
            Submit { sub: 2, deadline: false },
            Start { sub: 0 },
            Batch { sub: 0, ran: poisoned },
            Start { sub: 2 },
        ]);
        for reply in [answer(1, Reply::Ran), answer(2, Reply::Ran), answer(3, Reply::Poisoned)] {
            assert!(actions.contains(&reply), "{reply:?}");
        }
        assert!(world.model.poisoned && world.model.lead == Lead::Idle);
    }

    /// `service.rs`'s `a_panic_outside_the_checker_poisons_the_service_and_answers_everyone`:
    /// the publish panics; everyone is answered poisoned, and nothing is
    /// left queued or leading.
    #[test]
    fn trace_a_panic_outside_the_checker_poisons_the_service_and_answers_everyone() {
        use Move::*;
        let (world, actions) = replay(&[
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: false },
            Submit { sub: 2, deadline: false },
            Start { sub: 0 },
            Batch { sub: 0, ran: SYNCED },
            Batch { sub: 0, ran: Event::Panicked },
            Start { sub: 2 },
        ]);
        for t in 1..=3 {
            assert!(actions.contains(&answer(t, Reply::Poisoned)), "t{t}");
        }
        assert!(world.model.poisoned);
        assert!(world.model.pending.is_empty() && world.model.lead == Lead::Idle);
    }

    /// `service.rs`'s `a_follower_times_out_by_its_deadline_and_never_runs`.
    #[test]
    fn trace_a_follower_times_out_by_its_deadline_and_never_runs() {
        use Move::*;
        let (world, actions) = replay(&[
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: true },
            Expire { sub: 1 },
        ]);
        assert_eq!(actions.last(), Some(&answer(2, Reply::TimedOut)));
        assert_eq!(world.model.pending.len(), 1, "the follower left the queue");
        let (_, actions) = replay(&[
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: true },
            Expire { sub: 1 },
            Start { sub: 0 },
            Batch { sub: 0, ran: SYNCED },
            Batch { sub: 0, ran: Event::Published },
        ]);
        assert!(actions.contains(&Action::Run(vec![(1, ())])));
        assert!(actions.contains(&answer(1, Reply::Ran)));
    }

    /// `service.rs`'s `a_promoted_follower_with_a_deadline_leads_only_its_own_statement`.
    #[test]
    fn trace_a_promoted_follower_with_a_deadline_leads_only_its_own_statement() {
        use Move::*;
        let (_, actions) = replay(&[
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: false },
            Submit { sub: 2, deadline: true },
            Start { sub: 0 },
            Batch { sub: 0, ran: SYNCED },
            Batch { sub: 0, ran: Event::Published },
            Submit { sub: 0, deadline: false },
            Submit { sub: 1, deadline: false },
            Start { sub: 2 },
            Batch { sub: 2, ran: SYNCED },
            Batch { sub: 2, ran: Event::Published },
            Start { sub: 0 },
        ]);
        let runs: Vec<Vec<Ticket>> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Run(batch) => Some(batch.iter().map(|(t, ())| *t).collect()),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [vec![1, 2], vec![3], vec![4, 5]]);
    }
}
