//! The assembled multi-grained machine: parameters, both fabrics and the
//! reconfiguration controller behind one facade.

use crate::cg::CgFabric;
use crate::clock::Cycles;
use crate::error::ArchError;
use crate::fault::{FaultKind, FaultModel, LoadFault};
use crate::fg::{FgFabric, LoadedId};
use crate::params::ArchParams;
use crate::reconfig::{FabricKind, LoadRequest, LoadTicket, ReconfigurationController};
use crate::resources::Resources;
use serde::{Deserialize, Serialize};

/// A complete multi-grained reconfigurable processor instance (Fig. 3 of
/// the paper): core + FG fabric (PRCs) + CG fabric (EDPEs) + reconfiguration
/// controller.
///
/// `Machine` owns all mutable hardware state; the simulator and the run-time
/// system interact exclusively through it, which keeps the policies
/// hardware-agnostic and lets the evaluation sweep fabric combinations.
///
/// # Example
///
/// ```
/// use mrts_arch::{ArchParams, Cycles, FabricKind, Machine, Resources};
///
/// # fn main() -> Result<(), mrts_arch::ArchError> {
/// // 1 physical CG-EDPE (3 context slots by default) and 2 PRCs.
/// let mut m = Machine::new(ArchParams::default(), Resources::new(1, 2))?;
/// assert_eq!(m.capacity(), Resources::new(3, 2));
/// let ticket = m.load_fg(Cycles::ZERO, 7, 81_100)?;
/// assert!(ticket.ready_at > Cycles::ZERO);
/// assert_eq!(m.free_resources(), Resources::new(3, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    params: ArchParams,
    budget: Resources,
    fg: FgFabric,
    cg: CgFabric,
    controller: ReconfigurationController,
    /// Injected-fault source; [`FaultModel::none`] by default, in which
    /// case the machine behaves bit-identically to the fault-free model.
    #[serde(default)]
    fault_model: FaultModel,
}

impl Machine {
    /// Builds a machine with the given fabric budget.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParams`] if `params` is inconsistent.
    pub fn new(params: ArchParams, budget: Resources) -> Result<Self, ArchError> {
        params.validate()?;
        Ok(Machine {
            fg: FgFabric::new(budget.prc()),
            cg: CgFabric::new(budget.cg(), &params),
            budget,
            params,
            controller: ReconfigurationController::new(),
            fault_model: FaultModel::none(),
        })
    }

    /// Builds a machine with an injected-fault source.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParams`] if `params` is inconsistent.
    pub fn with_fault_model(
        params: ArchParams,
        budget: Resources,
        fault_model: FaultModel,
    ) -> Result<Self, ArchError> {
        let mut m = Machine::new(params, budget)?;
        m.fault_model = fault_model;
        Ok(m)
    }

    /// The fault model.
    #[must_use]
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// Replaces the fault model (e.g. to arm faults on an existing machine).
    pub fn set_fault_model(&mut self, fault_model: FaultModel) {
        self.fault_model = fault_model;
    }

    /// Samples the index of the first transiently-faulted execution in a
    /// batch of `n` accelerated executions (see
    /// [`FaultModel::first_exec_fault`]).
    pub fn exec_fault_in_batch(&mut self, n: u64) -> Option<u64> {
        self.fault_model.first_exec_fault(n)
    }

    /// The architecture parameters.
    #[must_use]
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// The configured fabric budget: **physical** CG-EDPEs and PRCs (the
    /// axes of the paper's Fig. 8 sweep).
    #[must_use]
    pub fn budget(&self) -> Resources {
        self.budget
    }

    /// Total allocatable capacity in *slot* units: CG **context slots**
    /// (EDPEs × contexts per EDPE) and PRCs. This is the denomination every
    /// policy-facing `Resources` value uses. Permanently failed containers
    /// are excluded — capacity shrinks as the hardware degrades.
    #[must_use]
    pub fn capacity(&self) -> Resources {
        Resources::new(
            (self.cg.len() as u16).saturating_sub(self.cg.failed_count()),
            (self.fg.len() as u16).saturating_sub(self.fg.failed_count()),
        )
    }

    /// Containers lost to permanent faults, in slot units.
    #[must_use]
    pub fn failed_resources(&self) -> Resources {
        Resources::new(self.cg.failed_count(), self.fg.failed_count())
    }

    /// Currently free fabric in slot units, the `N_CG` / `N_PRC` inputs of
    /// the ISE selector.
    #[must_use]
    pub fn free_resources(&self) -> Resources {
        Resources::new(self.cg.free_count(), self.fg.free_count())
    }

    /// Read access to the FG fabric.
    #[must_use]
    pub fn fg(&self) -> &FgFabric {
        &self.fg
    }

    /// Read access to the CG fabric.
    #[must_use]
    pub fn cg(&self) -> &CgFabric {
        &self.cg
    }

    /// Read access to the reconfiguration controller (for completion-time
    /// prediction).
    #[must_use]
    pub fn controller(&self) -> &ReconfigurationController {
        &self.controller
    }

    /// Charges a faulted load to the configuration port, optionally killing
    /// the target container, and builds the resulting error.
    fn faulted_load(
        &mut self,
        now: Cycles,
        id: LoadedId,
        fabric: FabricKind,
        duration: Cycles,
        kind: FaultKind,
    ) -> ArchError {
        let ticket = self.controller.request_wasted(
            now,
            LoadRequest {
                id,
                fabric,
                duration,
            },
        );
        if kind == FaultKind::PermanentContainer {
            match fabric {
                FabricKind::FineGrained => {
                    self.fg
                        .fail_one_empty()
                        .expect("free PRC checked by caller");
                }
                FabricKind::CoarseGrained => {
                    self.cg
                        .fail_one_empty()
                        .expect("free EDPE checked by caller");
                }
            }
        }
        ArchError::LoadFault(LoadFault {
            kind,
            fabric,
            wasted: ticket.ready_at - ticket.starts_at,
            retry_at: ticket.ready_at,
        })
    }

    /// Starts loading an FG data path (bitstream of `bitstream_bytes`) into a
    /// free PRC at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InsufficientResources`] if no PRC is free, or
    /// [`ArchError::LoadFault`] if the fault model injects a CRC or
    /// permanent-container fault into this attempt.
    pub fn load_fg(
        &mut self,
        now: Cycles,
        id: LoadedId,
        bitstream_bytes: u64,
    ) -> Result<LoadTicket, ArchError> {
        if self.fg.free_count() == 0 {
            return Err(ArchError::InsufficientResources {
                requested: Resources::prc_only(1),
                available: self.free_resources(),
            });
        }
        let duration = self.params.fg_reconfig_time(bitstream_bytes);
        if let Some(kind) = self.fault_model.next_load_fault() {
            return Err(self.faulted_load(now, id, FabricKind::FineGrained, duration, kind));
        }
        let ticket = self.controller.request(
            now,
            LoadRequest {
                id,
                fabric: FabricKind::FineGrained,
                duration,
            },
        );
        self.fg
            .begin_load(id, ticket.ready_at)
            .expect("free PRC checked above");
        Ok(ticket)
    }

    /// Starts loading a CG context program of `instrs` instructions into a
    /// free EDPE at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InsufficientResources`] if no EDPE is free, or
    /// [`ArchError::LoadFault`] on an injected fault.
    pub fn load_cg(
        &mut self,
        now: Cycles,
        id: LoadedId,
        instrs: u16,
    ) -> Result<LoadTicket, ArchError> {
        if self.cg.free_count() == 0 {
            return Err(ArchError::InsufficientResources {
                requested: Resources::cg_only(1),
                available: self.free_resources(),
            });
        }
        let duration = self.params.cg_reconfig_time(instrs);
        if let Some(kind) = self.fault_model.next_load_fault() {
            return Err(self.faulted_load(now, id, FabricKind::CoarseGrained, duration, kind));
        }
        let ticket = self.controller.request(
            now,
            LoadRequest {
                id,
                fabric: FabricKind::CoarseGrained,
                duration,
            },
        );
        self.cg
            .begin_load(id, ticket.ready_at)
            .expect("free EDPE checked above");
        Ok(ticket)
    }

    /// Loads a monoCG-Extension context program onto a free EDPE. Same
    /// transport as [`Machine::load_cg`] but the EDPE is marked as monoCG so
    /// the ECU can distinguish (and preferentially evict) it.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InsufficientResources`] if no EDPE is free, or
    /// [`ArchError::LoadFault`] on an injected fault.
    pub fn load_mono_cg(
        &mut self,
        now: Cycles,
        id: LoadedId,
        instrs: u16,
    ) -> Result<LoadTicket, ArchError> {
        if self.cg.free_count() == 0 {
            return Err(ArchError::InsufficientResources {
                requested: Resources::cg_only(1),
                available: self.free_resources(),
            });
        }
        let duration = self.params.cg_reconfig_time(instrs);
        if let Some(kind) = self.fault_model.next_load_fault() {
            return Err(self.faulted_load(now, id, FabricKind::CoarseGrained, duration, kind));
        }
        let ticket = self.controller.request(
            now,
            LoadRequest {
                id,
                fabric: FabricKind::CoarseGrained,
                duration,
            },
        );
        self.cg
            .install_mono_cg(id)
            .expect("free EDPE checked above");
        Ok(ticket)
    }

    /// Whether artefact `id` is resident and usable anywhere at `now`.
    #[must_use]
    pub fn is_resident(&self, id: LoadedId, now: Cycles) -> bool {
        self.fg.is_resident(id, now) || self.cg.is_resident(id, now)
    }

    /// Evicts artefact `id` from whichever fabric holds it.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidState`] if nothing holds `id`.
    pub fn evict(&mut self, id: LoadedId) -> Result<(), ArchError> {
        if self.fg.evict(id).is_ok() {
            return Ok(());
        }
        self.cg.evict(id).map(|_| ())
    }

    /// Cancels every load that has not started streaming yet and frees the
    /// fabric slots reserved for them. Used by run-time systems when a new
    /// trigger instruction obsoletes the previous selection. Returns the
    /// artefact ids whose loads were cancelled.
    pub fn cancel_pending(&mut self, now: Cycles) -> Vec<LoadedId> {
        let cancelled = self.controller.cancel_pending(now);
        let mut ids = Vec::with_capacity(cancelled.len());
        for t in cancelled {
            // The slot was reserved when the load was admitted; release it.
            let _ = self.evict(t.id);
            ids.push(t.id);
        }
        ids
    }

    /// Clears both fabrics and forgets queued loads (end of application /
    /// fabric reclaimed by the OS for another task).
    pub fn reset(&mut self) {
        self.fg.evict_all();
        self.cg.evict_all();
        self.controller = ReconfigurationController::new();
    }

    /// Folds completed loads into fabric state; call when time advances.
    pub fn settle(&mut self, now: Cycles) {
        self.fg.settle(now);
        self.cg.settle(now);
        self.controller.settle(now);
    }

    /// Re-partitions the machine to a new capacity `target`, expressed in
    /// **slot** units like [`Machine::capacity`] (CG context slots, PRCs).
    /// This is the fabric arbiter's lever for moving containers between
    /// tenant partitions at run time.
    ///
    /// Growing appends fresh empty containers; shrinking removes empty
    /// containers first and evicts resident artefacts only when it must.
    /// Permanently failed containers stay pinned to this machine (hardware
    /// damage does not migrate between partitions), so after the call
    /// `capacity() == target` regardless of the fault history. The physical
    /// [`Machine::budget`] is recomputed from the new container counts.
    ///
    /// Call between functional blocks, on a settled machine: in-flight
    /// transfers of evicted artefacts are *not* cancelled. Returns the
    /// evicted artefact ids from both fabrics, ascending.
    pub fn resize_capacity(&mut self, target: Resources) -> Vec<LoadedId> {
        let mut evicted = self.cg.resize_slots(target.cg(), &self.params);
        evicted.extend(self.fg.resize(target.prc()));
        evicted.sort_unstable();
        self.budget = Resources::new(self.cg.edpe_count(), self.fg.working_count());
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cg: u16, prc: u16) -> Machine {
        // One context slot per EDPE for simple arithmetic in these tests.
        let params = ArchParams::builder()
            .cg_contexts_per_edpe(1)
            .build()
            .expect("valid");
        Machine::new(params, Resources::new(cg, prc)).expect("valid")
    }

    #[test]
    fn capacity_scales_with_contexts() {
        let m = Machine::new(ArchParams::default(), Resources::new(2, 3)).expect("valid");
        assert_eq!(m.budget(), Resources::new(2, 3));
        assert_eq!(m.capacity(), Resources::new(6, 3));
        assert_eq!(m.free_resources(), m.capacity());
    }

    #[test]
    fn budget_and_free_resources() {
        let mut m = machine(2, 3);
        assert_eq!(m.budget(), Resources::new(2, 3));
        assert_eq!(m.free_resources(), m.capacity());
        assert_eq!(m.capacity(), Resources::new(2, 3));
        m.load_cg(Cycles::ZERO, 1, 32).unwrap();
        m.load_fg(Cycles::ZERO, 2, 81_100).unwrap();
        assert_eq!(m.free_resources(), Resources::new(1, 2));
    }

    #[test]
    fn fg_loads_serialize_cg_loads_do_not_block_them() {
        let mut m = machine(2, 2);
        let a = m.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        let b = m.load_fg(Cycles::ZERO, 2, 81_100).unwrap();
        assert_eq!(b.starts_at, a.ready_at);
        let c = m.load_cg(Cycles::ZERO, 3, 32).unwrap();
        assert!(c.ready_at < a.ready_at);
    }

    #[test]
    fn insufficient_resources_reported() {
        let mut m = machine(0, 1);
        let err = m.load_cg(Cycles::ZERO, 1, 32).unwrap_err();
        assert!(matches!(err, ArchError::InsufficientResources { .. }));
        m.load_fg(Cycles::ZERO, 2, 10_000).unwrap();
        assert!(m.load_fg(Cycles::ZERO, 3, 10_000).is_err());
    }

    #[test]
    fn eviction_across_fabrics() {
        let mut m = machine(1, 1);
        m.load_fg(Cycles::ZERO, 1, 10_000).unwrap();
        m.load_mono_cg(Cycles::ZERO, 2, 16).unwrap();
        assert!(m.evict(1).is_ok());
        assert!(m.evict(2).is_ok());
        assert!(m.evict(3).is_err());
        assert_eq!(m.free_resources(), m.budget());
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut m = machine(1, 1);
        m.load_fg(Cycles::ZERO, 1, 10_000).unwrap();
        m.load_cg(Cycles::ZERO, 2, 32).unwrap();
        m.reset();
        assert_eq!(m.free_resources(), m.budget());
        assert_eq!(
            m.controller().port_free_at(FabricKind::FineGrained),
            Cycles::ZERO
        );
    }

    #[test]
    fn cancel_pending_rolls_back_queued_loads() {
        let mut m = machine(0, 2);
        // Two FG loads: the first streams, the second queues behind it.
        let a = m.load_fg(Cycles::ZERO, 1, 83_050).unwrap();
        let b = m.load_fg(Cycles::ZERO, 2, 83_050).unwrap();
        assert!(b.starts_at >= a.ready_at);
        assert_eq!(m.free_resources().prc(), 0);
        // Cancel mid-stream of the first: only the queued one rolls back.
        let cancelled = m.cancel_pending(Cycles::new(1_000));
        assert_eq!(cancelled, vec![2]);
        assert_eq!(m.free_resources().prc(), 1);
        // The streaming load still completes on schedule.
        assert!(m.is_resident(1, a.ready_at));
        assert!(!m.is_resident(2, Cycles::MAX));
    }

    #[test]
    fn crc_fault_wastes_port_time_but_leaves_prc_empty() {
        let mut m = machine(1, 1);
        m.set_fault_model(FaultModel::with_rates(1.0, 0.0, 0.0, 3));
        let err = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        let ArchError::LoadFault(fault) = err else {
            panic!("expected LoadFault, got {err:?}");
        };
        assert_eq!(fault.kind, FaultKind::BitstreamCrc);
        assert_eq!(fault.fabric, FabricKind::FineGrained);
        assert!(fault.wasted > Cycles::ZERO);
        // The PRC is still free, but the port is busy until retry_at.
        assert_eq!(m.free_resources(), Resources::new(1, 1));
        assert_eq!(
            m.controller().port_free_at(FabricKind::FineGrained),
            fault.retry_at
        );
        // A retry queues behind the wasted transfer.
        m.set_fault_model(FaultModel::none());
        let t = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap();
        assert_eq!(t.starts_at, fault.retry_at);
    }

    #[test]
    fn permanent_fault_kills_the_container() {
        let mut m = machine(1, 2);
        m.set_fault_model(FaultModel::with_rates(0.0, 0.0, 1.0, 3));
        let err = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        assert!(matches!(
            err,
            ArchError::LoadFault(LoadFault {
                kind: FaultKind::PermanentContainer,
                ..
            })
        ));
        assert_eq!(m.capacity(), Resources::new(1, 1));
        assert_eq!(m.free_resources(), Resources::new(1, 1));
        assert_eq!(m.failed_resources(), Resources::new(0, 1));
        // Damage survives a reset.
        m.reset();
        assert_eq!(m.capacity(), Resources::new(1, 1));
    }

    #[test]
    fn zero_rate_model_changes_nothing() {
        let mut plain = machine(2, 2);
        let mut armed = machine(2, 2);
        armed.set_fault_model(FaultModel::new(0.0, 42));
        let a = plain.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        let b = armed.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        assert_eq!(a, b);
        assert_eq!(armed.fault_model().draws(), 0);
    }

    #[test]
    fn resize_capacity_moves_containers_and_updates_budget() {
        let mut m = machine(2, 3);
        assert!(m.resize_capacity(Resources::new(1, 1)).is_empty());
        assert_eq!(m.capacity(), Resources::new(1, 1));
        assert_eq!(m.budget(), Resources::new(1, 1));
        m.resize_capacity(Resources::new(3, 4));
        assert_eq!(m.capacity(), Resources::new(3, 4));
        assert_eq!(m.free_resources(), Resources::new(3, 4));
    }

    #[test]
    fn resize_capacity_evicts_only_when_it_must() {
        let mut m = machine(2, 2);
        m.load_cg(Cycles::ZERO, 1, 32).unwrap();
        m.load_fg(Cycles::ZERO, 2, 10_000).unwrap();
        // One free slot per fabric: shrinking to (1, 1) removes the empties.
        assert!(m.resize_capacity(Resources::new(1, 1)).is_empty());
        // Shrinking to nothing evicts the residents.
        assert_eq!(m.resize_capacity(Resources::NONE), vec![1, 2]);
        assert_eq!(m.capacity(), Resources::NONE);
    }

    #[test]
    fn resize_capacity_keeps_fault_damage_pinned() {
        let mut m = machine(1, 2);
        m.set_fault_model(FaultModel::with_rates(0.0, 0.0, 1.0, 3));
        let _ = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        m.set_fault_model(FaultModel::none());
        assert_eq!(m.capacity(), Resources::new(1, 1));
        // The arbiter hands this partition 2 working PRCs again: capacity
        // reaches the target but the failed container stays on the books.
        m.resize_capacity(Resources::new(1, 2));
        assert_eq!(m.capacity(), Resources::new(1, 2));
        assert_eq!(m.failed_resources(), Resources::new(0, 1));
    }

    #[test]
    fn residency_follows_tickets() {
        let mut m = machine(1, 1);
        let t = m.load_fg(Cycles::ZERO, 9, 81_100).unwrap();
        assert!(!m.is_resident(9, t.ready_at - Cycles::new(1)));
        assert!(m.is_resident(9, t.ready_at));
        m.settle(t.ready_at);
        assert!(m.is_resident(9, t.ready_at));
    }
}
