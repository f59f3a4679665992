//! [`DecisionMemo`]: GP-LCB proposals memoized on the exact probe
//! history.
//!
//! At a proposal point the search's decision — probe candidate `i`, or
//! stop — is a pure function of the ordered probe history, given the
//! tuner's candidates, γ and noise:
//!
//! * the GP reads the feasible observations in probe order, and the
//!   standardizer's sums are order-sensitive, so the order is part of
//!   the key;
//! * the tried and infeasible masks, the incumbent, the exploit
//!   check's observation count and βₙ's `n` (probes + 1: seeds are
//!   distinct and proposals always untried) all follow from the
//!   history.
//!
//! The memo is a trie over that history stored in a fixed open-addressed
//! table. A node is `(parent node, candidate index, outcome)`, where the
//! outcome is either "infeasible" or the observation's `f64` bits; the
//! search steps the trie after every evaluation and, at a proposal
//! point, reads the decision stored at its node.
//!
//! * **Full keys.** A hash picks a slot, never an answer: every probe
//!   compares the parent, the candidate, the feasibility flag and the
//!   outcome bits.
//! * **No eviction.** Node ids are slot indices that children refer to,
//!   so a reused slot could alias another path. The table stops
//!   inserting at half full; a search that meets a full table finishes
//!   without the memo.
//! * **One tuner.** The memo records the tuner it was filled for
//!   (candidate bits, γ, noise) and clears itself when a search from
//!   another tuner starts.
//!
//! A search may also only read a memo ([`Memos::Read`]): a memo filled
//! by one phase of a run answers the searches of another phase without
//! a lock, since nothing writes it meanwhile.

/// Counts of the search traffic through one [`DecisionMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Searches run through the memo.
    pub searches: u64,
    /// GP-LCB proposal points reached.
    pub proposals: u64,
    /// Proposal points answered from the memo.
    pub hits: u64,
    /// GP fits computed (on a miss whose fit was stale).
    pub refits: u64,
    /// Searches that found no room to record their history and
    /// finished without the memo.
    pub full: u64,
}

impl SearchCounts {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &SearchCounts) {
        self.searches += other.searches;
        self.proposals += other.proposals;
        self.hits += other.hits;
        self.refits += other.refits;
        self.full += other.full;
    }

    /// Share of proposal points answered from the memo (0 with none).
    pub fn hit_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.hits as f64 / self.proposals as f64
        }
    }
}

/// What the search does at a proposal point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Proposal {
    /// Evaluate this candidate index next.
    Probe(usize),
    /// Stop: converged, or every feasible candidate was tried.
    Stop,
}

/// The proposal memo one search uses, and how. A decision found in it
/// is the one the search would compute.
#[derive(Debug)]
pub enum Memos<'a> {
    /// The search reads the memo, records the decisions it computes
    /// into it, and counts its traffic in it.
    Record(&'a mut DecisionMemo),
    /// The search only reads `memo` (ignored if filled for another
    /// tuner) and counts its traffic in `counts`. It records nothing,
    /// so it never counts a full memo.
    Read {
        memo: &'a DecisionMemo,
        counts: &'a mut SearchCounts,
    },
}

impl<'a> From<&'a mut DecisionMemo> for Memos<'a> {
    /// A search that records into `memo`.
    fn from(memo: &'a mut DecisionMemo) -> Self {
        Memos::Record(memo)
    }
}

impl Memos<'_> {
    /// Starts a search by the tuner over `candidates` with `gamma` and
    /// `noise`: the root node, or `None` when the memo cannot serve it
    /// (no slots, too many candidates, or, read only, filled for another
    /// tuner). A recording search clears a memo filled for another tuner.
    pub(super) fn start(&mut self, candidates: &[f64], gamma: f64, noise: f64) -> Option<u32> {
        self.counts().searches += 1;
        let memo = match self {
            Memos::Record(memo) => memo,
            Memos::Read { memo, .. } => {
                return memo.serves(candidates, gamma, noise).then_some(ROOT)
            }
        };
        if memo.slots.is_empty() || candidates.len() > MAX_CANDIDATES {
            memo.counts.full += 1;
            return None;
        }
        if !memo.serves(candidates, gamma, noise) {
            if memo.len > 0 {
                memo.slots.fill([0; 2]);
                memo.len = 0;
            }
            memo.tuner.clear();
            memo.tuner.extend(
                candidates
                    .iter()
                    .chain(&[gamma, noise])
                    .map(|x| x.to_bits()),
            );
        }
        Some(ROOT)
    }

    /// The counts the search's traffic goes to.
    pub(super) fn counts(&mut self) -> &mut SearchCounts {
        match self {
            Memos::Record(memo) => &mut memo.counts,
            Memos::Read { counts, .. } => counts,
        }
    }

    /// The decision stored at `node`, if one was recorded ([`ROOT`]
    /// lies past every table, so it has none).
    pub(super) fn decision(&self, node: u32) -> Option<Proposal> {
        let memo = match self {
            Memos::Record(memo) => &**memo,
            Memos::Read { memo, .. } => memo,
        };
        match memo.slots.get(node as usize)?[1] >> 48 {
            0 => None,
            1 => Some(Proposal::Stop),
            d => Some(Proposal::Probe(d as usize - 2)),
        }
    }

    /// Records the decision computed at `node`; a read-only search
    /// records nothing.
    pub(super) fn record(&mut self, node: u32, proposal: Proposal) {
        let Memos::Record(memo) = self else { return };
        let d = match proposal {
            Proposal::Stop => 1,
            Proposal::Probe(i) => i as u64 + 2,
        };
        if let Some([_, meta]) = memo.slots.get_mut(node as usize) {
            *meta = (*meta & KEY_MASK) | d << 48;
        }
    }

    /// The node reached from `parent` by probing candidate `index` with
    /// `outcome`. A recording search inserts it if new, or gets `None`
    /// when the table is half full and goes on without the memo; a
    /// read-only search gets `None` if it is not stored.
    pub(super) fn step(&mut self, parent: u32, index: usize, outcome: Option<f64>) -> Option<u32> {
        let node = node(parent, index, outcome);
        let slot = match self {
            Memos::Read { memo, .. } => memo.locate(node).ok(),
            Memos::Record(memo) => match memo.locate(node) {
                Ok(i) => Some(i),
                Err(_) if 2 * (memo.len + 1) > memo.slots.len() => {
                    memo.counts.full += 1;
                    None
                }
                Err(i) => {
                    memo.slots[i] = node;
                    memo.len += 1;
                    Some(i)
                }
            },
        };
        slot.map(|i| i as u32)
    }
}

/// The root node: the empty history.
const ROOT: u32 = u32::MAX;
/// The largest candidate set a memo serves: a probe tag
/// `(index << 1 | infeasible) + 1` must fit in 16 bits.
const MAX_CANDIDATES: usize = (u16::MAX as usize - 1) / 2;
/// The largest table: node ids are `u32` slot indices below [`ROOT`].
const MAX_SLOTS: usize = 1 << 30;
/// The key bits of a slot's second word: the parent and the probe tag.
const KEY_MASK: u64 = (1 << 48) - 1;
/// Multiplier of the slot hash (odd, well-spread bits).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fixed-capacity trie of GP-LCB proposals keyed on the exact probe
/// history; see the module docs. Pass one to
/// [`super::GpLcbTuner::run_with`]: a search whose history is already
/// in the memo skips the GP refit, the posteriors and the LCB argmin at
/// every proposal point it reaches, and proposes exactly what it would
/// have computed.
///
/// Each slot is 16 bytes: the outcome bits, and a word packing the
/// parent node (bits 0–31), the probe tag (32–47, 0 = empty slot) and
/// the stored decision (48–63: 0 = none yet, 1 = stop, `i + 2` = probe
/// candidate `i`). The table is allocated once, zeroed, at
/// construction; [`DecisionMemo::default`] has no slots and memoizes
/// nothing.
#[derive(Clone, Default)]
pub struct DecisionMemo {
    slots: Vec<[u64; 2]>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots)`: the slot index is the hash's top bits.
    shift: u32,
    /// The tuner the memo was filled for: the candidates' bits, then
    /// γ's and the noise's.
    tuner: Vec<u64>,
    counts: SearchCounts,
}

impl std::fmt::Debug for DecisionMemo {
    /// The table's size and fill, and the counts — not the slots.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionMemo")
            .field("slots", &self.slots.len())
            .field("len", &self.len)
            .field("counts", &self.counts)
            .finish()
    }
}

impl DecisionMemo {
    /// A memo of `slots` slots, rounded up to a power of two (and capped
    /// at 2³⁰). Fewer than two slots memoize nothing.
    pub fn with_slots(slots: usize) -> Self {
        if slots < 2 {
            return DecisionMemo::default();
        }
        let slots = slots.min(MAX_SLOTS).next_power_of_two();
        DecisionMemo {
            slots: vec![[0; 2]; slots],
            shift: 64 - slots.trailing_zeros(),
            ..DecisionMemo::default()
        }
    }

    /// The table's slot count.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Trie nodes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The search traffic this memo has seen.
    pub fn counts(&self) -> SearchCounts {
        self.counts
    }

    /// Whether the memo has slots and was filled for the tuner over
    /// `candidates` with `gamma` and `noise`.
    fn serves(&self, candidates: &[f64], gamma: f64, noise: f64) -> bool {
        let tail = [gamma, noise];
        let words = candidates.iter().chain(&tail).map(|x| x.to_bits());
        !self.slots.is_empty() && self.tuner.iter().copied().eq(words)
    }

    /// The slot holding `node`'s key (`Ok`), or the empty slot it would
    /// take (`Err`).
    fn locate(&self, [bits, key]: [u64; 2]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i =
            ((bits.wrapping_mul(K).rotate_left(29) ^ key).wrapping_mul(K) >> self.shift) as usize;
        loop {
            let [b, meta] = self.slots[i];
            if meta == 0 {
                return Err(i);
            }
            if meta & KEY_MASK == key && b == bits {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }
}

/// The slot words of node `(parent, index, outcome)`, no decision yet.
fn node(parent: u32, index: usize, outcome: Option<f64>) -> [u64; 2] {
    let tag = ((index as u64) << 1 | u64::from(outcome.is_none())) + 1;
    [
        outcome.map_or(0, f64::to_bits),
        u64::from(parent) | tag << 32,
    ]
}
