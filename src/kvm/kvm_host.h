// KVMish: the simulated type-II hypervisor (Linux host kernel + kvm module +
// one kvmtool VMM process per VM).
//
// The host Linux owns a slice of RAM as HV State. Each VM is a KvmVm record:
// kernel-side state in KVM's UAPI-shaped formats plus a kvmtool process that
// owns the device models and the guest memory mapping (memslots backed by
// anonymous huge-page allocations — a deliberately different allocation
// policy from XenVisor's chunked/interleaved one).

#ifndef HYPERTP_SRC_KVM_KVM_HOST_H_
#define HYPERTP_SRC_KVM_KVM_HOST_H_

#include <map>
#include <string>
#include <vector>

#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"
#include "src/kvm/cfs_scheduler.h"
#include "src/kvm/kvm_formats.h"

namespace hypertp {

// The user-space VMM attached to one VM.
struct KvmtoolProcess {
  uint32_t pid = 0;
  std::vector<UisrDeviceState> devices;
  uint64_t working_frames = 0;  // kVmm-owned frames.
};

struct KvmVm {
  int vm_fd = 0;  // KVM-local identity; changes across save/restore.
  uint64_t uid = 0;
  std::string name;
  VmRunState run_state = VmRunState::kRunning;
  uint64_t memory_bytes = 0;
  bool huge_pages = false;

  GuestAddressSpace memslots;
  std::vector<KvmVcpuState> vcpus;
  KvmIoapicState ioapic;  // KVM_IRQCHIP state, 24 pins.
  KvmPitState2 pit;
  KvmtoolProcess vmm;
  uint64_t vm_state_frames = 0;  // NPT/EPT + kernel VM structures.

  // Monotonic platform-state generation (Hypervisor::StateGeneration): bumps
  // on guest-visible state changes, never on pause/resume/save.
  uint64_t state_generation = 1;
};

class KvmHost : public Hypervisor {
 public:
  explicit KvmHost(Machine& machine);
  ~KvmHost() override;

  KvmHost(const KvmHost&) = delete;
  KvmHost& operator=(const KvmHost&) = delete;

  std::string_view name() const override { return "kvmish-5.3+kvmtool"; }
  HypervisorKind kind() const override { return HypervisorKind::kKvm; }
  HypervisorType type() const override { return HypervisorType::kType2; }
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

  Result<void> PrepareVmForTransplant(VmId id) override;

  void DetachForMicroReboot() override;

  MigrationTraits migration_traits() const override {
    // kvmtool's restore path is lightweight and receives concurrently —
    // the source of MigrationTP's 4.96 ms downtime (Table 4).
    return MigrationTraits{8, MillisF(2.5), MillisF(1.2)};
  }

  // --- KVM-specific introspection -----------------------------------------
  Result<const KvmVm*> FindVm(VmId id) const;
  Result<VmId> FindVmByUid(uint64_t uid) const;
  const CfsScheduler& scheduler() const { return scheduler_; }
  void RebuildScheduler();

 private:
  Result<KvmVm*> MutableVm(VmId id);
  Result<void> AllocateVmStateFrames(KvmVm& vm);

  Machine* machine_;
  CfsScheduler scheduler_;
  std::map<int, KvmVm> vms_;  // Keyed by vm_fd.
  int next_fd_ = 3;           // 0/1/2 are stdio, as tradition demands.
  uint32_t next_pid_ = 1000;
  uint64_t hv_frames_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_KVM_KVM_HOST_H_
