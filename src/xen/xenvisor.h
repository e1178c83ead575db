// XenVisor: the simulated type-I hypervisor.
//
// Runs on the bare (simulated) machine: the Xen core plus a dom0 Linux own a
// slice of RAM as HV State; guests are XenDomain records whose platform state
// lives in Xen's native formats (src/xen/xen_formats.h). Guest memory is
// allocated through a chunked policy that interleaves NPT allocations, so a
// domain's frames are scattered — which is what makes PRAM's scatter-gather
// description necessary (paper §4.2.2).

#ifndef HYPERTP_SRC_XEN_XENVISOR_H_
#define HYPERTP_SRC_XEN_XENVISOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hv/hypervisor.h"
#include "src/xen/credit_scheduler.h"
#include "src/xen/xen_domain.h"

namespace hypertp {

class XenVisor : public Hypervisor {
 public:
  // Boots XenVisor on `machine`: allocates the Xen heap and dom0 memory.
  explicit XenVisor(Machine& machine);
  ~XenVisor() override;

  XenVisor(const XenVisor&) = delete;
  XenVisor& operator=(const XenVisor&) = delete;

  std::string_view name() const override { return "xenvisor-4.12"; }
  HypervisorKind kind() const override { return HypervisorKind::kXen; }
  HypervisorType type() const override { return HypervisorType::kType1; }
  Machine& machine() override { return *machine_; }
  const Machine& machine() const override { return *machine_; }

  Result<VmId> CreateVm(const VmConfig& config) override;
  Result<void> DestroyVm(VmId id) override;
  Result<void> PauseVm(VmId id) override;
  Result<void> ResumeVm(VmId id) override;
  Result<VmInfo> GetVmInfo(VmId id) const override;
  std::vector<VmId> ListVms() const override;

  Result<std::vector<GuestMapping>> GuestMemoryMap(VmId id) const override;
  Result<uint64_t> ReadGuestPage(VmId id, Gfn gfn) const override;
  Result<void> WriteGuestPage(VmId id, Gfn gfn, uint64_t content) override;

  Result<void> AdvanceGuestClocks(VmId id, SimDuration delta) override;

  Result<uint64_t> StateGeneration(VmId id) const override;
  Result<void> InjectGuestEvent(VmId id, GuestEventKind kind) override;

  Result<void> EnableDirtyLogging(VmId id) override;
  Result<std::vector<Gfn>> FetchAndClearDirtyLog(VmId id) override;
  Result<void> DisableDirtyLogging(VmId id) override;

  Result<UisrVm> SaveVmToUisr(VmId id, FixupLog* log) override;
  Result<VmId> RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                 FixupLog* log) override;

  uint64_t HypervisorFrames() const override;

  Result<std::vector<std::pair<Gfn, uint64_t>>> DumpGuestContent(VmId id) const override;

  // Guest-cooperative preparation (paper §4.2.3, Azure Scheduled Events
  // style): quiesces emulated block devices, pauses pass-through devices,
  // unplugs unplug-mode devices. Must run before PauseVm + SaveVmToUisr.
  Result<void> PrepareVmForTransplant(VmId id) override;

  void DetachForMicroReboot() override;

  MigrationTraits migration_traits() const override {
    // xl/libxl restore path: sequential receive, heavyweight resume.
    return MigrationTraits{1, MillisF(125.0), MillisF(14.0)};
  }

  // --- Xen-specific introspection (tests, libxl-equivalent tooling) --------
  Result<const XenDomain*> FindDomain(VmId id) const;
  Result<VmId> FindVmByUid(uint64_t uid) const;
  const CreditScheduler& scheduler() const { return scheduler_; }
  // Drops and rebuilds the scheduler from domain records; used after restore
  // to demonstrate that VM Management State is reconstructable (§3.1).
  void RebuildScheduler();

 private:
  Result<XenDomain*> MutableDomain(VmId id);
  // Allocates guest memory for `domain` with the chunked+interleaved policy.
  Result<void> AllocateGuestMemory(XenDomain& domain);
  // NPT + context frames for a domain (owner kVmState).
  Result<void> AllocateVmStateFrames(XenDomain& domain);
  void SetupPvInfrastructure(XenDomain& domain);

  Machine* machine_;
  CreditScheduler scheduler_;
  std::map<uint32_t, XenDomain> domains_;  // Keyed by domid.
  uint32_t next_domid_ = 1;                // dom0 is domid 0.
  uint64_t hv_frames_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_XEN_XENVISOR_H_
