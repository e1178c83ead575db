// BhyveVisor: the simulated FreeBSD bhyve-style hypervisor (type-II).
//
// A FreeBSD host kernel with the vmm.ko module; each VM is driven by a
// user-space bhyve process. Guest memory comes from wired superpage chunks.
// The scheduler model is ULE-flavoured: a simple per-CPU round-robin with
// interactivity scoring omitted (VM Management State — rebuilt, never
// translated, like the other two).

#ifndef HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
#define HYPERTP_SRC_BHYVE_BHYVE_HOST_H_

#include <map>
#include <string>
#include <vector>

#include "src/bhyve/bhyve_formats.h"
#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"

namespace hypertp {

// Minimal ULE-ish run queue: vCPU threads round-robin per CPU.
class UleRunQueue {
 public:
  explicit UleRunQueue(int cpus);

  void AddThread(uint64_t vm_uid, uint32_t vcpu);
  void RemoveVm(uint64_t vm_uid);
  size_t total_threads() const;
  int cpus() const { return static_cast<int>(queues_.size()); }
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& queues() const {
    return queues_;
  }

 private:
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> queues_;
};

struct BhyveVm {
  int vm_handle = 0;  // /dev/vmm/<name> handle; changes across save/restore.
  uint64_t uid = 0;
  std::string name;
  VmRunState run_state = VmRunState::kRunning;
  uint64_t memory_bytes = 0;
  bool huge_pages = false;

  GuestAddressSpace memmap;  // vm_mmap_memseg-style mapping.
  BhyvePlatform platform;
  std::vector<UisrDeviceState> devices;  // The bhyve process's device models.
  uint32_t bhyve_pid = 0;
  uint64_t vm_state_frames = 0;

  // Monotonic platform-state generation (Hypervisor::StateGeneration): bumps
  // on guest-visible state changes, never on pause/resume/save.
  uint64_t state_generation = 1;
};

class BhyveVisor : public Hypervisor {
 public:
  explicit BhyveVisor(Machine& machine);
  ~BhyveVisor() override;

  BhyveVisor(const BhyveVisor&) = delete;
  BhyveVisor& operator=(const BhyveVisor&) = delete;

  std::string_view name() const override { return "bhyvish-13.1"; }
  HypervisorKind kind() const override { return HypervisorKind::kBhyve; }
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
    // The bhyve process restore path sits between xl and kvmtool.
    return MigrationTraits{4, MillisF(8.0), MillisF(3.0)};
  }

  // --- bhyve-specific introspection ----------------------------------------
  Result<const BhyveVm*> FindVm(VmId id) const;
  Result<VmId> FindVmByUid(uint64_t uid) const;
  const UleRunQueue& scheduler() const { return scheduler_; }
  void RebuildScheduler();

 private:
  Result<BhyveVm*> MutableVm(VmId id);
  Result<void> AllocateVmStateFrames(BhyveVm& vm);

  Machine* machine_;
  UleRunQueue scheduler_;
  std::map<int, BhyveVm> vms_;  // Keyed by vm handle.
  int next_handle_ = 1;
  uint32_t next_pid_ = 700;
  uint64_t hv_frames_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
