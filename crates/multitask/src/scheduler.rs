//! Core-time schedulers: which runnable tenant gets the core next.
//!
//! Functional blocks are the scheduling quanta — a trigger instruction
//! hands the core to the run-time system and the block runs to completion,
//! so preemption happens only at block boundaries (the same granularity at
//! which the paper's mRTS itself takes decisions). All three schedulers
//! are pure integer machines: given the same pick/charge sequence they
//! reproduce the same schedule bit-for-bit, which keeps multi-tenant runs
//! deterministic across hosts and thread counts.

use crate::slo::SloSnapshot;
use mrts_arch::Cycles;
use std::fmt;
use std::str::FromStr;

/// A core-time scheduling discipline.
///
/// The runner calls [`Scheduler::pick`] before every block activation and
/// [`Scheduler::charge`] after it with the cycles the block actually
/// consumed. Implementations must be deterministic: equal inputs must
/// produce equal picks (ties break towards the lowest tenant index).
///
/// # The live-list contract
///
/// Every method that looks at the tenant population takes `live`: the
/// indices of the runnable tenants (admitted, not rejected, blocks left),
/// strictly ascending. The runner keeps that list up to date as sessions
/// are admitted, finish and leave the admission queue, so a pick costs
/// O(live tenants) however many sessions a long-running shard has seen
/// come and go. A tenant missing from `live` must never be picked; an
/// empty `live` picks `None`.
pub trait Scheduler: fmt::Debug {
    /// Short diagnostic name (`rr`, `prio`, `wfq`, `edf`, `llf`).
    fn name(&self) -> &'static str;

    /// Chooses the next tenant among the runnable ones (`live`, ascending
    /// tenant indices). Returns `None` iff `live` is empty.
    fn pick(&mut self, live: &[usize]) -> Option<usize>;

    /// Deadline-aware pick: like [`Scheduler::pick`], but with the
    /// tenants' current SLO state available; the snapshot's slices run
    /// parallel to `live` (entry `j` describes tenant `live[j]`). The
    /// deadline-blind disciplines ignore the snapshot (this default); EDF
    /// and LLF are *defined* by it.
    fn pick_slo(&mut self, live: &[usize], _slo: &SloSnapshot<'_>) -> Option<usize> {
        self.pick(live)
    }

    /// Accounts `consumed` core cycles to `tenant` after it ran a block.
    fn charge(&mut self, tenant: usize, consumed: Cycles);

    /// Registers a late-arriving tenant, appended after the highest index
    /// seen so far (the fleet's churn path; the batch path sizes every
    /// scheduler at build time and never calls this). `weight` is the
    /// newcomer's share/priority and `live` the runnable *existing*
    /// tenants at admission time, letting fairness disciplines start the
    /// newcomer at the virtual clock of the currently backlogged tenants —
    /// it neither monopolises the core catching up from zero nor pays for
    /// history it did not have. Stateless disciplines ignore both (this
    /// default).
    fn register(&mut self, _weight: u64, _live: &[usize]) {}
}

/// Round-robin with a time quantum: a tenant keeps the core for
/// consecutive blocks until it has consumed at least `quantum` cycles,
/// then the core rotates to the next runnable tenant. A quantum of zero
/// rotates after every single block.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    quantum: Cycles,
    current: Option<usize>,
    used: Cycles,
}

impl RoundRobin {
    /// Creates the scheduler with the given time quantum.
    #[must_use]
    pub fn new(quantum: Cycles) -> Self {
        RoundRobin {
            quantum,
            current: None,
            used: Cycles::ZERO,
        }
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn pick(&mut self, live: &[usize]) -> Option<usize> {
        if let Some(cur) = self.current {
            if self.quantum > Cycles::ZERO
                && self.used < self.quantum
                && live.binary_search(&cur).is_ok()
            {
                return Some(cur);
            }
        }
        // Rotate: the first live tenant after the current one, wrapping
        // around to the lowest index.
        let start = self.current.map_or(0, |c| c + 1);
        let next = live
            .get(live.partition_point(|&i| i < start))
            .or(live.first())
            .copied()?;
        self.current = Some(next);
        self.used = Cycles::ZERO;
        Some(next)
    }

    fn charge(&mut self, tenant: usize, consumed: Cycles) {
        if self.current == Some(tenant) {
            self.used += consumed;
        }
    }
}

/// Strict priority: always the runnable tenant with the highest weight
/// (ties break towards the lowest index). Lower-priority tenants run only
/// when every higher-priority one has finished — the discipline that
/// maximally *violates* fairness, kept as the Jain-index floor.
#[derive(Debug, Clone)]
pub struct StrictPriority {
    weights: Vec<u64>,
}

impl StrictPriority {
    /// Creates the scheduler; `weights[i]` is tenant `i`'s priority.
    #[must_use]
    pub fn new(weights: &[u64]) -> Self {
        StrictPriority {
            weights: weights.to_vec(),
        }
    }
}

impl Scheduler for StrictPriority {
    fn name(&self) -> &'static str {
        "prio"
    }

    fn pick(&mut self, live: &[usize]) -> Option<usize> {
        live.iter().copied().max_by_key(|&i| {
            (
                self.weights.get(i).copied().unwrap_or(0),
                usize::MAX - i, // tie → lowest index
            )
        })
    }

    fn charge(&mut self, _tenant: usize, _consumed: Cycles) {}

    fn register(&mut self, weight: u64, _live: &[usize]) {
        self.weights.push(weight);
    }
}

/// Fixed-point scale of the weighted-fair virtual clock (integer
/// arithmetic keeps the schedule exactly reproducible).
const WFQ_SCALE: u128 = 1 << 20;

/// Weighted-fair queuing over virtual time: each tenant accumulates
/// `consumed × SCALE / weight` virtual cycles and the runnable tenant with
/// the smallest virtual clock runs next (ties break towards the lowest
/// index). Long-run core shares converge to the weight ratios, and no
/// runnable tenant starves: its virtual clock stands still while it
/// waits, so it overtakes any tenant that keeps running.
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: Vec<u64>,
    vtime: Vec<u128>,
}

impl WeightedFair {
    /// Creates the scheduler; `weights[i]` is tenant `i`'s share (zero is
    /// treated as one).
    #[must_use]
    pub fn new(weights: &[u64]) -> Self {
        WeightedFair {
            vtime: vec![0; weights.len()],
            weights: weights.to_vec(),
        }
    }
}

impl Scheduler for WeightedFair {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn pick(&mut self, live: &[usize]) -> Option<usize> {
        live.iter()
            .copied()
            .min_by_key(|&i| (self.vtime.get(i).copied().unwrap_or(0), i))
    }

    fn charge(&mut self, tenant: usize, consumed: Cycles) {
        if let (Some(v), Some(&w)) = (self.vtime.get_mut(tenant), self.weights.get(tenant)) {
            *v += u128::from(consumed.get()) * WFQ_SCALE / u128::from(w.max(1));
        }
    }

    fn register(&mut self, weight: u64, live: &[usize]) {
        // Start at the virtual clock of the currently backlogged tenants
        // (the standard WFQ virtual start time), so a newcomer competes
        // fairly from now on instead of replaying the whole past.
        let vstart = live
            .iter()
            .filter_map(|&i| self.vtime.get(i))
            .min()
            .copied()
            .unwrap_or(0);
        self.weights.push(weight);
        self.vtime.push(vstart);
    }
}

/// Earliest-deadline-first: the runnable tenant whose next block deadline
/// is soonest runs next. Tenants without a deadline sort last (they run
/// in the slack), ties break towards the lowest index. Optimal for
/// feasible mixes on one core; under overload it starves the latest
/// deadlines — which is exactly the regime the admission controller and
/// the degradation ladder exist for.
#[derive(Debug, Clone, Default)]
pub struct EarliestDeadline;

impl Scheduler for EarliestDeadline {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn pick(&mut self, live: &[usize]) -> Option<usize> {
        // Without deadline information every tenant ranks equally:
        // degenerate to lowest-index-first.
        live.first().copied()
    }

    fn pick_slo(&mut self, live: &[usize], slo: &SloSnapshot<'_>) -> Option<usize> {
        let j = (0..live.len()).min_by_key(|&j| {
            let d = slo
                .deadlines
                .get(j)
                .copied()
                .flatten()
                .map_or(u64::MAX, Cycles::get);
            (d, live[j])
        })?;
        Some(live[j])
    }

    fn charge(&mut self, _tenant: usize, _consumed: Cycles) {}
}

/// Least-laxity-first: the runnable tenant with the smallest slack
/// (deadline − now − estimated remaining service) runs next. More
/// reactive than EDF when service estimates are meaningful — a tenant
/// with a far deadline but a mountain of remaining work preempts one
/// with a near deadline and almost nothing left. Tenants without laxity
/// information sort last; ties break towards the lowest index.
#[derive(Debug, Clone, Default)]
pub struct LeastLaxity;

impl Scheduler for LeastLaxity {
    fn name(&self) -> &'static str {
        "llf"
    }

    fn pick(&mut self, live: &[usize]) -> Option<usize> {
        live.first().copied()
    }

    fn pick_slo(&mut self, live: &[usize], slo: &SloSnapshot<'_>) -> Option<usize> {
        let j = (0..live.len()).min_by_key(|&j| {
            let l = slo.laxities.get(j).copied().flatten().unwrap_or(i128::MAX);
            (l, live[j])
        })?;
        Some(live[j])
    }

    fn charge(&mut self, _tenant: usize, _consumed: Cycles) {}
}

/// Selector for the scheduling discipline a multi-tenant run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// [`RoundRobin`] with the given quantum.
    RoundRobin(Cycles),
    /// [`StrictPriority`] over the tenant weights.
    StrictPriority,
    /// [`WeightedFair`] over the tenant weights.
    WeightedFair,
    /// [`EarliestDeadline`] over the tenants' SLO deadlines.
    EarliestDeadline,
    /// [`LeastLaxity`] over the tenants' SLO laxities.
    LeastLaxity,
}

impl SchedulerKind {
    /// Default round-robin quantum (≈ a few H.264 macroblock rows at the
    /// paper's 400 MHz core).
    pub const DEFAULT_QUANTUM: Cycles = Cycles::new(200_000);

    /// Builds the scheduler for `weights.len()` tenants.
    #[must_use]
    pub fn build(&self, weights: &[u64]) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin(q) => Box::new(RoundRobin::new(*q)),
            SchedulerKind::StrictPriority => Box::new(StrictPriority::new(weights)),
            SchedulerKind::WeightedFair => Box::new(WeightedFair::new(weights)),
            SchedulerKind::EarliestDeadline => Box::new(EarliestDeadline),
            SchedulerKind::LeastLaxity => Box::new(LeastLaxity),
        }
    }
}

impl FromStr for SchedulerKind {
    type Err = String;

    /// Parses `rr` (default quantum), `prio`, `wfq`, `edf` or `llf`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" => Ok(SchedulerKind::RoundRobin(Self::DEFAULT_QUANTUM)),
            "prio" => Ok(SchedulerKind::StrictPriority),
            "wfq" => Ok(SchedulerKind::WeightedFair),
            "edf" => Ok(SchedulerKind::EarliestDeadline),
            "llf" => Ok(SchedulerKind::LeastLaxity),
            other => Err(format!("unknown scheduler '{other}' (rr|prio|wfq|edf|llf)")),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerKind::RoundRobin(_) => write!(f, "rr"),
            SchedulerKind::StrictPriority => write!(f, "prio"),
            SchedulerKind::WeightedFair => write!(f, "wfq"),
            SchedulerKind::EarliestDeadline => write!(f, "edf"),
            SchedulerKind::LeastLaxity => write!(f, "llf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_each_block_with_zero_quantum() {
        let mut rr = RoundRobin::new(Cycles::ZERO);
        let live = [0, 1, 2];
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                let t = rr.pick(&live).unwrap();
                rr.charge(t, Cycles::new(10));
                t
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_honours_quantum_and_skips_finished() {
        let mut rr = RoundRobin::new(Cycles::new(100));
        let mut live = vec![0, 1, 2];
        assert_eq!(rr.pick(&live), Some(0));
        rr.charge(0, Cycles::new(60));
        assert_eq!(rr.pick(&live), Some(0), "quantum not yet used up");
        rr.charge(0, Cycles::new(60));
        assert_eq!(rr.pick(&live), Some(1), "quantum exceeded");
        rr.charge(1, Cycles::new(200));
        live.retain(|&i| i != 2); // tenant 2 finished
        assert_eq!(rr.pick(&live), Some(0), "rotation skips finished");
    }

    #[test]
    fn strict_priority_prefers_heavy_then_low_index() {
        let mut p = StrictPriority::new(&[1, 5, 5]);
        assert_eq!(p.pick(&[0, 1, 2]), Some(1), "tie → lowest index");
        assert_eq!(p.pick(&[0, 2]), Some(2));
        assert_eq!(p.pick(&[0]), Some(0));
        assert_eq!(p.pick(&[]), None);
    }

    #[test]
    fn weighted_fair_converges_to_weight_ratio() {
        let mut w = WeightedFair::new(&[1, 3]);
        let live = [0, 1];
        let mut served = [0u64, 0u64];
        for _ in 0..400 {
            let t = w.pick(&live).unwrap();
            served[t] += 100;
            w.charge(t, Cycles::new(100));
        }
        let share = served[1] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (share - 0.75).abs() < 0.02,
            "weight-3 tenant got {share} of the core"
        );
    }

    #[test]
    fn weighted_fair_never_starves_a_runnable_tenant() {
        let mut w = WeightedFair::new(&[1, 1000]);
        let live = [0, 1];
        let mut gap = 0u32;
        let mut worst = 0u32;
        for _ in 0..2_000 {
            let t = w.pick(&live).unwrap();
            w.charge(t, Cycles::new(50));
            if t == 0 {
                worst = worst.max(gap);
                gap = 0;
            } else {
                gap += 1;
            }
        }
        assert!(worst < 1_500, "light tenant waited {worst} picks");
    }

    #[test]
    fn register_appends_without_catchup_monopoly() {
        let mut w = WeightedFair::new(&[1]);
        w.charge(0, Cycles::new(1_000));
        w.register(1, &[0]);
        // The newcomer starts at the incumbent's virtual clock, so the
        // tie breaks to the incumbent instead of a zero-vtime monopoly.
        assert_eq!(w.pick(&[0, 1]), Some(0));
        w.charge(0, Cycles::new(10));
        assert_eq!(w.pick(&[0, 1]), Some(1));
        // Strict priority just learns the newcomer's weight.
        let mut p = StrictPriority::new(&[1]);
        p.register(9, &[0]);
        assert_eq!(p.pick(&[0, 1]), Some(1));
        // Stateless disciplines ignore registration.
        let mut edf = EarliestDeadline;
        edf.register(1, &[0]);
        assert_eq!(edf.pick(&[0, 1]), Some(0));
    }

    #[test]
    fn kind_parses_and_builds() {
        for (s, name) in [
            ("rr", "rr"),
            ("prio", "prio"),
            ("wfq", "wfq"),
            ("edf", "edf"),
            ("llf", "llf"),
        ] {
            let kind: SchedulerKind = s.parse().unwrap();
            assert_eq!(kind.to_string(), name);
            assert_eq!(kind.build(&[1, 1]).name(), name);
        }
        assert!("lottery".parse::<SchedulerKind>().is_err());
    }

    /// The snapshot entries of `live`, gathered from per-tenant arrays —
    /// the runner fills its snapshot the same way.
    fn gather<T: Copy>(by_tenant: &[T], live: &[usize]) -> Vec<T> {
        live.iter().map(|&i| by_tenant[i]).collect()
    }

    #[test]
    fn edf_picks_earliest_deadline_and_parks_unconstrained_last() {
        let mut edf = EarliestDeadline;
        let deadlines = [
            Some(Cycles::new(900)),
            Some(Cycles::new(400)),
            None,
            Some(Cycles::new(400)),
        ];
        let mut pick = |live: &[usize]| {
            let d = gather(&deadlines, live);
            let l = vec![None; live.len()];
            let snap = SloSnapshot {
                deadlines: &d,
                laxities: &l,
            };
            edf.pick_slo(live, &snap)
        };
        // Soonest deadline wins; the 400-cycle tie breaks to index 1.
        assert_eq!(pick(&[0, 1, 2, 3]), Some(1));
        // With the urgent pair done, 900 beats "no deadline".
        assert_eq!(pick(&[0, 2]), Some(0));
        // Only the unconstrained tenant left: it still runs.
        assert_eq!(pick(&[2]), Some(2));
        assert_eq!(pick(&[]), None);
        // Deadline-blind fallback degenerates to lowest index.
        assert_eq!(edf.pick(&[1, 2]), Some(1));
    }

    #[test]
    fn llf_picks_smallest_laxity_including_negative() {
        let mut llf = LeastLaxity;
        let laxities = [Some(500i128), Some(-200), None, Some(-200)];
        let mut pick = |live: &[usize]| {
            let d = vec![None; live.len()];
            let l = gather(&laxities, live);
            let snap = SloSnapshot {
                deadlines: &d,
                laxities: &l,
            };
            llf.pick_slo(live, &snap)
        };
        // Most negative laxity is most urgent; tie breaks to index 1.
        assert_eq!(pick(&[0, 1, 2, 3]), Some(1));
        assert_eq!(pick(&[0, 2]), Some(0));
        assert_eq!(pick(&[2]), Some(2));
    }

    #[test]
    fn deadline_blind_schedulers_ignore_the_snapshot() {
        let deadlines = [Some(Cycles::new(1)), Some(Cycles::new(2))];
        let snap = SloSnapshot {
            deadlines: &deadlines,
            laxities: &[None; 2],
        };
        let mut wfq = WeightedFair::new(&[1, 1]);
        wfq.charge(0, Cycles::new(1_000));
        // WFQ's virtual time, not the deadline, decides.
        assert_eq!(wfq.pick_slo(&[0, 1], &snap), Some(1));
    }
}
