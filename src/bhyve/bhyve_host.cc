#include "src/bhyve/bhyve_host.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/bhyve/bhyve_uisr.h"
#include "src/hv/devices.h"

namespace hypertp {
namespace {

// FreeBSD host kernel + userland (HV State).
constexpr uint64_t kFreebsdBytes = 1536ull << 20;
// Guest memory comes in wired superpage chunks.
constexpr uint64_t kSuperpageChunkFrames = 131072;  // 512 MiB.
// The bhyve process's working set per VM.
constexpr uint64_t kBhyveProcFrames = 8192;  // 32 MiB.

}  // namespace

UleRunQueue::UleRunQueue(int cpus) { queues_.resize(static_cast<size_t>(std::max(cpus, 1))); }

void UleRunQueue::AddThread(uint64_t vm_uid, uint32_t vcpu) {
  auto it = std::min_element(queues_.begin(), queues_.end(),
                             [](const auto& a, const auto& b) { return a.size() < b.size(); });
  it->emplace_back(vm_uid, vcpu);
}

void UleRunQueue::RemoveVm(uint64_t vm_uid) {
  for (auto& queue : queues_) {
    std::erase_if(queue, [vm_uid](const auto& t) { return t.first == vm_uid; });
  }
}

size_t UleRunQueue::total_threads() const {
  size_t n = 0;
  for (const auto& queue : queues_) {
    n += queue.size();
  }
  return n;
}

BhyveVisor::BhyveVisor(Machine& machine)
    : machine_(&machine), scheduler_(machine.profile().threads) {
  const uint64_t wanted = kFreebsdBytes / kPageSize;
  hv_frames_ = ClaimHypervisorFrames(machine_->memory(), wanted, kSuperpageChunkFrames);
  if (hv_frames_ < wanted) {
    HYPERTP_LOG(kError, "bhyve") << "boot: machine too small for FreeBSD";
  }
  HYPERTP_LOG(kInfo, "bhyve") << "bhyvish-13.1 booted on " << machine_->hostname();
}

BhyveVisor::~BhyveVisor() {
  for (auto& [handle, vm] : vms_) {
    FreeVmFrames(machine_->memory(), vm.uid);
  }
  if (hv_frames_ > 0) {
    machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kHypervisor, 0});
  }
}

Result<BhyveVm*> BhyveVisor::MutableVm(VmId id) {
  auto it = vms_.find(static_cast<int>(id));
  if (it == vms_.end()) {
    return NotFoundError("bhyve: no vm handle " + std::to_string(id));
  }
  return &it->second;
}

Result<const BhyveVm*> BhyveVisor::FindVm(VmId id) const {
  auto it = vms_.find(static_cast<int>(id));
  if (it == vms_.end()) {
    return NotFoundError("bhyve: no vm handle " + std::to_string(id));
  }
  return &it->second;
}

Result<VmId> BhyveVisor::FindVmByUid(uint64_t uid) const {
  for (const auto& [handle, vm] : vms_) {
    if (vm.uid == uid) {
      return static_cast<VmId>(handle);
    }
  }
  return NotFoundError("bhyve: no vm with uid " + std::to_string(uid));
}

Result<void> BhyveVisor::AllocateVmStateFrames(BhyveVm& vm) {
  const FrameOwner state_owner{FrameOwnerKind::kVmState, vm.uid};
  const FrameOwner vmm_owner{FrameOwnerKind::kVmm, vm.uid};
  const uint64_t ept_frames = vm.memory_bytes / kHugePageSize + 8;
  HYPERTP_ASSIGN_OR_RETURN(Mfn ept, machine_->memory().Alloc(ept_frames, 1, state_owner));
  (void)ept;
  vm.vm_state_frames = ept_frames;
  HYPERTP_ASSIGN_OR_RETURN(Mfn proc, machine_->memory().Alloc(kBhyveProcFrames, 1, vmm_owner));
  (void)proc;
  return OkResult();
}

Result<VmId> BhyveVisor::CreateVm(const VmConfig& config) {
  HYPERTP_RETURN_IF_ERROR(ValidateVmConfig(config, 128));

  BhyveVm vm;
  vm.vm_handle = next_handle_++;
  vm.uid = config.uid != 0 ? config.uid : AllocateVmUid();
  vm.name = config.name;
  vm.memory_bytes = config.memory_bytes;
  vm.huge_pages = config.huge_pages;
  vm.bhyve_pid = next_pid_++;
  for (const auto& [handle, existing] : vms_) {
    if (existing.uid == vm.uid) {
      return AlreadyExistsError("bhyve: uid " + std::to_string(vm.uid) + " already hosted");
    }
  }

  FixupLog seed_log;
  for (uint32_t i = 0; i < config.vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(BhyveVcpu vcpu,
                             BhyveVcpuFromUisr(MakeSyntheticVcpu(vm.uid, i), vm.uid, &seed_log));
    vm.platform.vcpus.push_back(std::move(vcpu));
  }

  // bhyve wires its virtio slots to pins 24..31 (within its 32-pin IOAPIC,
  // above KVM's 24 — so a bhyve->KVM transplant exercises the pin fixup).
  vm.platform.ioapic.id = 0;
  vm.platform.ioapic.redirtbl[4] = 0x10004;  // COM1.
  uint32_t instance = 0;
  for (const DeviceConfig& dev_config : config.devices) {
    HYPERTP_ASSIGN_OR_RETURN(
        UisrDeviceState dev,
        MakeDefaultDeviceState(dev_config.model, instance, vm.uid, dev_config.mode));
    if (dev_config.model.starts_with("virtio")) {
      vm.platform.ioapic.redirtbl[24 + instance % 8] = 0x10050 + instance;
    }
    vm.devices.push_back(std::move(dev));
    ++instance;
  }

  HYPERTP_RETURN_IF_ERROR(AllocateGuestFrames(machine_->memory(), vm.uid, vm.memory_bytes,
                                                  vm.huge_pages, kSuperpageChunkFrames, vm.memmap));
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(vm));

  for (uint32_t i = 0; i < config.vcpus; ++i) {
    scheduler_.AddThread(vm.uid, i);
  }

  const VmId id = vm.vm_handle;
  vms_.emplace(vm.vm_handle, std::move(vm));
  HYPERTP_LOG(kInfo, "bhyve") << "created vm " << id << " '" << config.name << "' ("
                              << config.vcpus << " vCPU, " << (config.memory_bytes >> 20)
                              << " MiB)";
  return id;
}

Result<void> BhyveVisor::DestroyVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  FreeVmFrames(machine_->memory(), vm->uid);
  scheduler_.RemoveVm(vm->uid);
  vms_.erase(static_cast<int>(id));
  return OkResult();
}

Result<void> BhyveVisor::PauseVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  vm->run_state = VmRunState::kPaused;
  return OkResult();
}

Result<void> BhyveVisor::ResumeVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  vm->run_state = VmRunState::kRunning;
  return OkResult();
}

Result<VmInfo> BhyveVisor::GetVmInfo(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  VmInfo info;
  info.id = id;
  info.uid = vm->uid;
  info.name = vm->name;
  info.vcpus = static_cast<uint32_t>(vm->platform.vcpus.size());
  info.memory_bytes = vm->memory_bytes;
  info.huge_pages = vm->huge_pages;
  for (const UisrDeviceState& dev : vm->devices) {
    info.has_passthrough |= dev.mode == DeviceAttachMode::kPassthrough;
  }
  info.run_state = vm->run_state;
  return info;
}

std::vector<VmId> BhyveVisor::ListVms() const {
  std::vector<VmId> ids;
  ids.reserve(vms_.size());
  for (const auto& [handle, vm] : vms_) {
    ids.push_back(handle);
  }
  return ids;
}

Result<std::vector<GuestMapping>> BhyveVisor::GuestMemoryMap(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  return vm->memmap.mappings();
}

Result<uint64_t> BhyveVisor::ReadGuestPage(VmId id, Gfn gfn) const {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  return vm->memmap.Read(machine_->memory(), gfn);
}

Result<void> BhyveVisor::WriteGuestPage(VmId id, Gfn gfn, uint64_t content) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  ++vm->state_generation;
  return vm->memmap.Write(machine_->memory(), gfn, content);
}

Result<void> BhyveVisor::AdvanceGuestClocks(VmId id, SimDuration delta) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  for (BhyveVcpu& vcpu : vm->platform.vcpus) {
    vcpu.tsc += static_cast<uint64_t>(delta);
    if (vcpu.tsc_deadline != 0) {
      vcpu.tsc_deadline += static_cast<uint64_t>(delta);
    }
  }
  vm->platform.hpet_counter += static_cast<uint64_t>(delta / 100);  // 10 MHz HPET.
  ++vm->state_generation;
  return OkResult();
}

Result<uint64_t> BhyveVisor::StateGeneration(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  return vm->state_generation;
}

Result<void> BhyveVisor::InjectGuestEvent(VmId id, GuestEventKind kind) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  if (vm->run_state != VmRunState::kRunning) {
    return FailedPreconditionError("bhyve: cannot inject guest events into a paused vm");
  }
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC; the HPET main
      // counter (10 MHz) advances alongside.
      for (BhyveVcpu& vcpu : vm->platform.vcpus) {
        vcpu.tsc += 1'000'000;
        vcpu.tsc_deadline = vcpu.tsc + 1'000'000;
      }
      vm->platform.hpet_counter += 10'000;
      break;
    case GuestEventKind::kEventChannel:
      // Interrupt-controller activity: the HPET ticks while the interrupt
      // is delivered and acknowledged.
      vm->platform.hpet_counter += 1;
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      for (BhyveVcpu& vcpu : vm->platform.vcpus) {
        vcpu.tsc += 10'000'000;
        vcpu.rip += 0x40;
        vcpu.gpr[0] += 1;
      }
      break;
  }
  ++vm->state_generation;
  return OkResult();
}

Result<void> BhyveVisor::EnableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  vm->memmap.EnableDirtyLog();
  return OkResult();
}

Result<std::vector<Gfn>> BhyveVisor::FetchAndClearDirtyLog(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  if (!vm->memmap.dirty_log_enabled()) {
    return FailedPreconditionError("bhyve: dirty logging not enabled");
  }
  return vm->memmap.FetchAndClearDirty();
}

Result<void> BhyveVisor::DisableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  vm->memmap.DisableDirtyLog();
  return OkResult();
}

Result<std::vector<std::pair<Gfn, uint64_t>>> BhyveVisor::DumpGuestContent(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  return vm->memmap.DumpNonZero(machine_->memory());
}

Result<void> BhyveVisor::PrepareVmForTransplant(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(BhyveVm * vm, MutableVm(id));
  // Quiescing/unplugging changes translated device state.
  ++vm->state_generation;
  return PrepareDevicesForTransplant(vm->devices);
}

void BhyveVisor::DetachForMicroReboot() {
  vms_.clear();
  scheduler_ = UleRunQueue(machine_->profile().threads);
  hv_frames_ = 0;
}

Result<UisrVm> BhyveVisor::SaveVmToUisr(VmId id, FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(const BhyveVm* vm, FindVm(id));
  if (vm->run_state != VmRunState::kPaused) {
    return FailedPreconditionError("bhyve: vm must be paused before UISR translation");
  }
  UisrVm out;
  out.vm_uid = vm->uid;
  out.name = vm->name;
  out.source_hypervisor = std::string(name());
  out.memory.memory_bytes = vm->memory_bytes;
  out.memory.uses_huge_pages = vm->huge_pages;
  HYPERTP_RETURN_IF_ERROR(BhyvePlatformToUisr(vm->platform, out, log));
  for (const UisrDeviceState& dev : vm->devices) {
    HYPERTP_RETURN_IF_ERROR(ValidateDeviceForTransplant(dev));
    out.devices.push_back(dev);
    if (dev.mode == DeviceAttachMode::kUnplugged && log != nullptr) {
      log->push_back({vm->uid, dev.model, "unplugged before transplant; will rescan"});
    }
  }
  return out;
}

Result<VmId> BhyveVisor::RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                           FixupLog* log) {
  for (const auto& [handle, existing] : vms_) {
    if (existing.uid == uisr.vm_uid) {
      return AlreadyExistsError("bhyve: uid " + std::to_string(uisr.vm_uid) + " already hosted");
    }
  }
  BhyveVm vm;
  vm.vm_handle = next_handle_++;
  vm.uid = uisr.vm_uid;
  vm.name = uisr.name;
  vm.memory_bytes = uisr.memory.memory_bytes;
  vm.huge_pages = uisr.memory.uses_huge_pages;
  vm.run_state = VmRunState::kPaused;
  vm.bhyve_pid = next_pid_++;

  HYPERTP_ASSIGN_OR_RETURN(vm.platform,
                           BhyvePlatformFromUisr(uisr, log, binding.remap_high_ioapic_pins));
  vm.devices = uisr.devices;

  switch (binding.mode) {
    case GuestMemoryBinding::Mode::kAdoptInPlace:
      HYPERTP_RETURN_IF_ERROR(AdoptGuestFrames("bhyve", machine_->memory(), vm.uid,
                                               vm.memory_bytes, binding.entries, vm.memmap));
      break;
    case GuestMemoryBinding::Mode::kAllocate:
      HYPERTP_RETURN_IF_ERROR(AllocateGuestFrames(machine_->memory(), vm.uid, vm.memory_bytes,
                                                  vm.huge_pages, kSuperpageChunkFrames, vm.memmap));
      break;
  }
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(vm));

  for (uint32_t i = 0; i < vm.platform.vcpus.size(); ++i) {
    scheduler_.AddThread(vm.uid, i);
  }

  const VmId id = vm.vm_handle;
  vms_.emplace(vm.vm_handle, std::move(vm));
  HYPERTP_LOG(kInfo, "bhyve") << "restored vm " << id << " (uid " << uisr.vm_uid << ")";
  return id;
}

uint64_t BhyveVisor::HypervisorFrames() const { return hv_frames_; }

void BhyveVisor::RebuildScheduler() {
  scheduler_ = UleRunQueue(machine_->profile().threads);
  for (const auto& [handle, vm] : vms_) {
    for (uint32_t i = 0; i < vm.platform.vcpus.size(); ++i) {
      scheduler_.AddThread(vm.uid, i);
    }
  }
}

}  // namespace hypertp
