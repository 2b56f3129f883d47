//! Readiness coordination: agreeing on a total order of all-reduces.
//!
//! Each TensorFlow process schedules its graph independently, so gradient
//! tensors become ready in different orders on different ranks; executing
//! collectives in mismatched orders deadlocks (§V-A3). Horovod's solution
//! is a coordinator that collects *readiness* messages and broadcasts an
//! agreed order. This module implements both the original centralized
//! protocol and the paper's hierarchical aggregation tree, over the real
//! point-to-point channels of `exaclim-comm`, so message counts are
//! *measured*, not estimated.

use exaclim_comm::{CommError, Communicator};
use std::time::Instant;

const TAG_READY: u64 = 0xC0_0001;
const TAG_BEGIN: u64 = 0xC0_0002;

/// Membership-protocol tags (elastic training). Members send upward on
/// [`TAG_MS_UP`], the leader replies on [`TAG_MS_CTRL`]; both are
/// disjoint from the readiness tags and from the data-plane's
/// `op_seq << 32` tags, so a membership round can never be confused with
/// a coordination round.
pub(crate) const TAG_MS_UP: u64 = 0xE5_0001;
pub(crate) const TAG_MS_CTRL: u64 = 0xE5_0002;

/// Leader → member message of the elastic membership protocol. One step
/// boundary is one round: every member reports status, the leader either
/// declares [`ViewMsg::NoChange`] or runs a propose/ack/commit handshake
/// for a new world view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ViewMsg {
    /// Membership is unchanged; proceed with the step.
    NoChange,
    /// The leader proposes that `members` form `generation`.
    Propose {
        /// The new generation number (strictly increasing).
        generation: u64,
        /// Sorted member ids of the proposed world.
        members: Vec<usize>,
    },
    /// All survivors acked; transition to the proposed view now.
    Commit,
    /// The round failed (a peer died mid-handshake); run recovery.
    Abort,
}

impl ViewMsg {
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            ViewMsg::NoChange => vec![0],
            ViewMsg::Propose { generation, members } => {
                let mut out = vec![1];
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&(members.len() as u32).to_le_bytes());
                for &m in members {
                    out.extend_from_slice(&(m as u32).to_le_bytes());
                }
                out
            }
            ViewMsg::Commit => vec![2],
            ViewMsg::Abort => vec![3],
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<ViewMsg, String> {
        match bytes.first() {
            Some(0) => Ok(ViewMsg::NoChange),
            Some(1) => {
                if bytes.len() < 13 {
                    return Err(format!("truncated Propose: {} bytes", bytes.len()));
                }
                let generation = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
                let n = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
                if bytes.len() != 13 + 4 * n {
                    return Err(format!("Propose of {n} members but {} bytes", bytes.len()));
                }
                let members = bytes[13..]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize)
                    .collect();
                Ok(ViewMsg::Propose { generation, members })
            }
            Some(2) => Ok(ViewMsg::Commit),
            Some(3) => Ok(ViewMsg::Abort),
            other => Err(format!("unknown ViewMsg kind {other:?}")),
        }
    }
}

/// Member → leader message of the elastic membership protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemberMsg {
    /// Boundary status report: does this member want to leave now?
    Status {
        /// True when the member gracefully departs at this boundary.
        wants_leave: bool,
    },
    /// Acknowledgement of a [`ViewMsg::Propose`].
    Ack,
}

impl MemberMsg {
    pub(crate) fn encode(&self) -> Vec<u8> {
        match self {
            MemberMsg::Status { wants_leave } => vec![0, u8::from(*wants_leave)],
            MemberMsg::Ack => vec![1],
        }
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<MemberMsg, String> {
        match bytes {
            [0, w] => Ok(MemberMsg::Status { wants_leave: *w != 0 }),
            [1] => Ok(MemberMsg::Ack),
            other => Err(format!("unknown MemberMsg bytes {other:?}")),
        }
    }
}

/// Control-plane variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlane {
    /// Original Horovod: every rank reports readiness directly to rank 0,
    /// which replies to every rank with ordered begin-batches.
    Centralized,
    /// §V-A3: ranks form a radix-`r` tree; readiness aggregates upward
    /// (a parent reports a tensor only when its whole subtree is ready)
    /// and begin-batches relay downward. No rank exchanges more than
    /// `r + 1` messages per tensor.
    Hierarchical {
        /// Tree radix (the paper saw no difference for r ∈ [2, 8]).
        radix: usize,
    },
}

/// A per-step coordinator for `n_tensors` named gradient tensors.
#[derive(Debug, Clone)]
pub struct Coordinator {
    plane: ControlPlane,
    n_tensors: usize,
}

fn encode_ids(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() * 4);
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Sends `ids` to a tree neighbour. A send fails only when `dst`'s
/// communicator has dropped, so the failure is reported as that dead edge:
/// the culprit named is the same whether the death is first seen on a
/// send or on a drain.
fn send_ids(comm: &mut Communicator, dst: usize, tag: u64, ids: &[u32]) -> Result<(), CommError> {
    let rank = comm.rank();
    comm.try_send_bytes(dst, tag, encode_ids(ids))
        .map_err(|_| CommError::PeerDead { rank, src: dst })
}

fn decode_ids(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

impl Coordinator {
    /// A coordinator for a fixed tensor universe.
    pub fn new(plane: ControlPlane, n_tensors: usize) -> Coordinator {
        Coordinator { plane, n_tensors }
    }

    /// Runs one coordination round.
    ///
    /// `ready_order` is the order in which *this* rank's tensors became
    /// ready (a permutation of `0..n_tensors`). Returns the agreed global
    /// order — identical on every rank.
    pub fn coordinate(&self, comm: &mut Communicator, ready_order: &[u32]) -> Vec<u32> {
        self.try_coordinate(comm, ready_order)
            .unwrap_or_else(|e| panic!("coordinate: {e}"))
    }

    /// Fallible [`Coordinator::coordinate`]: a peer that dies (its
    /// communicator drops) or a round that makes no progress within the
    /// communicator's receive deadline comes back as a [`CommError`]
    /// instead of spinning forever — the hook the checkpoint-restart
    /// trainer uses to detect a lost rank.
    pub fn try_coordinate(&self, comm: &mut Communicator, ready_order: &[u32]) -> Result<Vec<u32>, CommError> {
        assert_eq!(ready_order.len(), self.n_tensors, "must report every tensor");
        match self.plane {
            ControlPlane::Centralized => self.coordinate_tree(comm, ready_order, comm.size().max(1)),
            ControlPlane::Hierarchical { radix } => {
                assert!(radix >= 1, "radix must be positive");
                self.coordinate_tree(comm, ready_order, radix)
            }
        }
    }

    /// Shared tree implementation: the centralized protocol is simply the
    /// degenerate tree with radix = world size (rank 0 is every rank's
    /// parent), which is exactly how the paper describes its change —
    /// "rank 0 ... operates as if there were only r+1 ranks to coordinate".
    fn coordinate_tree(
        &self,
        comm: &mut Communicator,
        ready_order: &[u32],
        radix: usize,
    ) -> Result<Vec<u32>, CommError> {
        let rank = comm.rank();
        let size = comm.size();
        let parent = if rank == 0 { None } else { Some((rank - 1) / radix) };
        let children: Vec<usize> = (1..=radix)
            .map(|i| rank * radix + i)
            .filter(|&c| c < size)
            .collect();
        let n_children = children.len();

        // Subtree readiness: tensor t is subtree-ready when this rank has
        // seen its own readiness plus a ready message from every child.
        let mut own_reported = vec![false; self.n_tensors];
        let mut child_counts = vec![0usize; self.n_tensors];
        let mut sent_up = vec![false; self.n_tensors];
        // Root bookkeeping.
        let mut begun = vec![false; self.n_tensors];
        let mut order: Vec<u32> = Vec::with_capacity(self.n_tensors);
        let mut next_own = 0usize;
        let mut last_progress = Instant::now();

        loop {
            // Feed our own readiness progressively (models the dynamic
            // scheduler handing tensors over one by one).
            if next_own < ready_order.len() {
                let t = ready_order[next_own] as usize;
                own_reported[t] = true;
                next_own += 1;
            }

            // Drain incoming control messages.
            while let Some((src, tag, payload)) = comm.try_recv_bytes_any() {
                last_progress = Instant::now();
                match tag {
                    TAG_READY => {
                        debug_assert!(children.contains(&src), "ready from non-child {src}");
                        for t in decode_ids(&payload) {
                            child_counts[t as usize] += 1;
                        }
                    }
                    TAG_BEGIN => {
                        debug_assert_eq!(Some(src), parent, "begin from non-parent {src}");
                        let batch = decode_ids(&payload);
                        // Relay downward first (§V-A3), then adopt.
                        if !batch.is_empty() {
                            for &c in &children {
                                send_ids(comm, c, TAG_BEGIN, &batch)?;
                            }
                            order.extend_from_slice(&batch);
                        }
                    }
                    other => {
                        return Err(CommError::TagMismatch {
                            rank,
                            src,
                            expected: TAG_READY,
                            got: other,
                        })
                    }
                }
            }


            // Report subtree-complete tensors upward (or begin them, at
            // the root).
            let mut newly_ready = Vec::new();
            for t in 0..self.n_tensors {
                if !sent_up[t] && own_reported[t] && child_counts[t] == n_children {
                    sent_up[t] = true;
                    newly_ready.push(t as u32);
                }
            }
            if !newly_ready.is_empty() {
                match parent {
                    Some(p) => send_ids(comm, p, TAG_READY, &newly_ready)?,
                    None => {
                        // Root: a subtree-complete tensor is globally
                        // complete. Emit a begin batch.
                        let batch: Vec<u32> = newly_ready
                            .into_iter()
                            .filter(|&t| !begun[t as usize])
                            .collect();
                        for &t in &batch {
                            begun[t as usize] = true;
                        }
                        if !batch.is_empty() {
                            for &c in &children {
                                send_ids(comm, c, TAG_BEGIN, &batch)?;
                            }
                            order.extend_from_slice(&batch);
                        }
                    }
                }
            }

            if order.len() == self.n_tensors {
                return Ok(order);
            }
            // Still incomplete: a parent or child whose communicator
            // dropped can never report or relay, so the round cannot
            // finish. Surface the death. Only *tree edges* count: an
            // off-edge peer (e.g. the root, seen from a leaf) legitimately
            // completes and drops early — its channel to us never carries
            // protocol traffic, so its exit is not a failure. An on-edge
            // peer cannot finish while we are incomplete (begins are
            // relayed downward before being adopted), so a dead edge is
            // always a genuine loss.
            if let Some(dead) = comm
                .dead_peers()
                .into_iter()
                .find(|&d| Some(d) == parent || children.contains(&d))
            {
                return Err(CommError::PeerDead { rank, src: dead });
            }
            // No message and no completion within the deadline: name the
            // edge we are most plausibly stuck on (parent for interior
            // ranks, first child for the root).
            if last_progress.elapsed() > comm.recv_deadline() {
                let waiting_on = parent.or_else(|| children.first().copied()).unwrap_or(rank);
                return Err(CommError::Timeout {
                    rank,
                    src: waiting_on,
                    tag: if parent.is_some() { TAG_BEGIN } else { TAG_READY },
                    waited: comm.recv_deadline(),
                });
            }
            // Single-core friendliness: let peer rank threads run.
            std::thread::yield_now();
        }
    }

    /// Upper bound on messages a single rank exchanges per tensor under
    /// this plane — `2·(r+1)` for the hierarchical tree vs `2·N` at rank 0
    /// under the centralized protocol.
    pub fn max_messages_per_tensor(&self, world: usize) -> usize {
        match self.plane {
            ControlPlane::Centralized => 2 * world,
            ControlPlane::Hierarchical { radix } => 2 * (radix + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_comm::CommWorld;
    use std::thread;

    fn run_coordination(n: usize, plane: ControlPlane, n_tensors: usize, shuffle: bool) -> (Vec<Vec<u32>>, u64, u64) {
        let comms = CommWorld::new(n);
        let stats = comms[0].stats();
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, mut comm)| {
                thread::spawn(move || {
                    let coord = Coordinator::new(plane, n_tensors);
                    let mut ready: Vec<u32> = (0..n_tensors as u32).collect();
                    if shuffle {
                        // Deterministic per-rank permutation: rotate by rank
                        // and reverse on odd ranks, so orders genuinely differ.
                        ready.rotate_left(rank % n_tensors.max(1));
                        if rank % 2 == 1 {
                            ready.reverse();
                        }
                    }
                    coord.coordinate(&mut comm, &ready)
                })
            })
            .collect();
        let orders: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().expect("rank")).collect();
        let rank0_msgs = stats.messages_sent(0) + stats.messages_received(0);
        let max_other = (1..n)
            .map(|r| stats.messages_sent(r) + stats.messages_received(r))
            .max()
            .unwrap_or(0);
        (orders, rank0_msgs, max_other)
    }

    #[test]
    fn all_ranks_agree_on_total_order() {
        for plane in [ControlPlane::Centralized, ControlPlane::Hierarchical { radix: 2 }] {
            let (orders, _, _) = run_coordination(6, plane, 9, true);
            let mut sorted = orders[0].clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<u32>>(), "order is a permutation");
            for o in &orders[1..] {
                assert_eq!(o, &orders[0], "{plane:?} must produce one total order");
            }
        }
    }

    #[test]
    fn works_with_identical_orders_too() {
        let (orders, _, _) = run_coordination(4, ControlPlane::Hierarchical { radix: 3 }, 5, false);
        for o in &orders {
            assert_eq!(o.len(), 5);
        }
    }

    #[test]
    fn hierarchical_offloads_rank0() {
        let n = 12;
        let tensors = 24;
        let (_, central_rank0, _) = run_coordination(n, ControlPlane::Centralized, tensors, true);
        let (_, hier_rank0, _) = run_coordination(n, ControlPlane::Hierarchical { radix: 2 }, tensors, true);
        assert!(
            hier_rank0 * 2 < central_rank0,
            "hierarchical rank-0 traffic {hier_rank0} vs centralized {central_rank0}"
        );
    }

    #[test]
    fn radix_choice_does_not_change_agreement() {
        // §V-A3: "no measurable performance difference for r between 2 and
        // 8" — and certainly no *semantic* difference.
        let mut reference: Option<usize> = None;
        for radix in [2, 3, 4, 8] {
            let (orders, _, max_other) = run_coordination(9, ControlPlane::Hierarchical { radix }, 7, true);
            assert_eq!(orders[0].len(), 7);
            // Non-root ranks stay under the (r+1) per-tensor bound with
            // batching slack.
            let bound = 2 * (radix + 1) * 7;
            assert!(max_other as usize <= bound, "radix {radix}: {max_other} > {bound}");
            reference.get_or_insert(orders[0].len());
        }
    }

    #[test]
    fn single_rank_is_trivial() {
        let (orders, _, _) = run_coordination(1, ControlPlane::Hierarchical { radix: 4 }, 3, false);
        assert_eq!(orders[0], vec![0, 1, 2]);
    }

    #[test]
    fn dead_rank_aborts_coordination_with_typed_error() {
        use std::time::Duration;
        // Rank 2 dies before coordinating; survivors must detect it (not
        // spin) and name a failed edge.
        let comms = CommWorld::with_deadline(3, Duration::from_millis(200));
        let mut it = comms.into_iter();
        let c0 = it.next().expect("rank 0");
        let c1 = it.next().expect("rank 1");
        drop(it.next()); // rank 2 crashes
        let spawn = |mut c: Communicator| {
            thread::spawn(move || {
                let coord = Coordinator::new(ControlPlane::Hierarchical { radix: 2 }, 4);
                coord.try_coordinate(&mut c, &[0, 1, 2, 3]).err()
            })
        };
        let (h0, h1) = (spawn(c0), spawn(c1));
        for (rank, h) in [(0, h0), (1, h1)] {
            let err = h.join().expect("join").expect("survivor must error");
            assert!(err.is_peer_failure(), "rank {rank}: {err}");
        }
    }

    #[test]
    fn silent_rank_times_out_with_diagnostics() {
        use exaclim_comm::CommError;
        use std::time::Duration;
        // Rank 1 exists but never coordinates: rank 0 must time out and
        // report who it waited on.
        let comms = CommWorld::with_deadline(2, Duration::from_millis(100));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let _c1 = it.next().expect("rank 1 silent");
        let coord = Coordinator::new(ControlPlane::Centralized, 2);
        match coord.try_coordinate(&mut c0, &[0, 1]) {
            Err(CommError::Timeout { rank: 0, src: 1, .. }) => {}
            other => panic!("expected root timeout on rank 1, got {other:?}"),
        }
    }

    #[test]
    fn dead_peer_mid_coordination_is_detected_after_partial_progress() {
        use std::time::Duration;
        // Rank 2 reports readiness for *one* tensor, then crashes. The
        // root has made real progress with it (so this is not the
        // never-showed-up case) but must still detect the death instead
        // of waiting for the remaining reports forever.
        let comms = CommWorld::with_deadline(3, Duration::from_secs(5));
        let mut it = comms.into_iter();
        let c0 = it.next().expect("rank 0");
        let c1 = it.next().expect("rank 1");
        let mut c2 = it.next().expect("rank 2");
        c2.try_send_bytes(0, TAG_READY, encode_ids(&[0])).expect("partial readiness");
        drop(c2); // crash after the partial report
        let spawn = |mut c: Communicator| {
            thread::spawn(move || {
                let coord = Coordinator::new(ControlPlane::Hierarchical { radix: 2 }, 3);
                coord.try_coordinate(&mut c, &[0, 1, 2]).err()
            })
        };
        let (h0, h1) = (spawn(c0), spawn(c1));
        let root_err = h0.join().expect("join").expect("root must error");
        match root_err {
            CommError::PeerDead { rank: 0, src: 2 } => {}
            other => panic!("root expected PeerDead on rank 2, got {other}"),
        }
        let child_err = h1.join().expect("join").expect("rank 1 must error");
        assert!(child_err.is_peer_failure(), "rank 1 sees its dead parent edge: {child_err}");
    }

    #[test]
    fn deadline_expiry_mid_coordination_names_the_stuck_edge() {
        use std::time::Duration;
        // Rank 1 stays *alive* but reports only one of two tensors: no
        // dead peer to blame, so the root must convert the stall into a
        // Timeout naming the readiness edge it is stuck on.
        let comms = CommWorld::with_deadline(2, Duration::from_millis(150));
        let mut it = comms.into_iter();
        let mut c0 = it.next().expect("rank 0");
        let mut c1 = it.next().expect("rank 1 holds its endpoint");
        c1.try_send_bytes(0, TAG_READY, encode_ids(&[0])).expect("partial readiness");
        let coord = Coordinator::new(ControlPlane::Centralized, 2);
        match coord.try_coordinate(&mut c0, &[0, 1]) {
            Err(CommError::Timeout { rank: 0, src: 1, tag, .. }) => {
                assert_eq!(tag, TAG_READY, "the root stalls waiting for readiness");
            }
            other => panic!("expected mid-round timeout, got {other:?}"),
        }
        drop(c1);
    }

    #[test]
    fn membership_messages_roundtrip() {
        let views = [
            ViewMsg::NoChange,
            ViewMsg::Propose { generation: 7, members: vec![0, 2, 5] },
            ViewMsg::Propose { generation: u64::MAX, members: vec![] },
            ViewMsg::Commit,
            ViewMsg::Abort,
        ];
        for v in views {
            assert_eq!(ViewMsg::decode(&v.encode()), Ok(v.clone()), "{v:?}");
        }
        for m in [MemberMsg::Status { wants_leave: false }, MemberMsg::Status { wants_leave: true }, MemberMsg::Ack] {
            assert_eq!(MemberMsg::decode(&m.encode()), Ok(m), "{m:?}");
        }
    }

    #[test]
    fn malformed_membership_messages_are_rejected() {
        assert!(ViewMsg::decode(&[]).is_err());
        assert!(ViewMsg::decode(&[9]).is_err());
        assert!(ViewMsg::decode(&[1, 0, 0]).is_err(), "truncated Propose header");
        let mut propose = ViewMsg::Propose { generation: 1, members: vec![3, 4] }.encode();
        propose.truncate(propose.len() - 1);
        assert!(ViewMsg::decode(&propose).is_err(), "member list shorter than its count");
        assert!(MemberMsg::decode(&[]).is_err());
        assert!(MemberMsg::decode(&[2]).is_err());
        assert!(MemberMsg::decode(&[0]).is_err(), "Status without its flag byte");
    }

    #[test]
    fn message_bound_formula() {
        let c = Coordinator::new(ControlPlane::Centralized, 10);
        assert_eq!(c.max_messages_per_tensor(27360), 54720);
        let h = Coordinator::new(ControlPlane::Hierarchical { radix: 4 }, 10);
        assert_eq!(h.max_messages_per_tensor(27360), 10);
    }
}
