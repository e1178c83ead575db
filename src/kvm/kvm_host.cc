#include "src/kvm/kvm_host.h"

#include "src/base/logging.h"
#include "src/hv/devices.h"
#include "src/kvm/kvm_uisr.h"

namespace hypertp {
namespace {

// Host Linux kernel + userspace services (HV State).
constexpr uint64_t kHostLinuxBytes = 2048ull << 20;
// kvmtool maps guest memory as anonymous THP-backed regions; the host mm
// hands them out in large contiguous chunks.
constexpr uint64_t kMmapChunkFrames = 65536;  // 256 MiB.
// kvmtool's own working set (text, heap, virtio rings) per VM.
constexpr uint64_t kVmmWorkingFrames = 16384;  // 64 MiB.

}  // namespace

KvmHost::KvmHost(Machine& machine)
    : machine_(&machine), scheduler_(machine.profile().threads) {
  const uint64_t wanted = kHostLinuxBytes / kPageSize;
  hv_frames_ = ClaimHypervisorFrames(machine_->memory(), wanted, kMmapChunkFrames);
  if (hv_frames_ < wanted) {
    HYPERTP_LOG(kError, "kvm") << "boot: machine too small for host Linux";
  }
  HYPERTP_LOG(kInfo, "kvm") << "kvmish-5.3 booted on " << machine_->hostname();
}

KvmHost::~KvmHost() {
  for (auto& [fd, vm] : vms_) {
    FreeVmFrames(machine_->memory(), vm.uid);
  }
  if (hv_frames_ > 0) {
    machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kHypervisor, 0});
  }
}

Result<KvmVm*> KvmHost::MutableVm(VmId id) {
  auto it = vms_.find(static_cast<int>(id));
  if (it == vms_.end()) {
    return NotFoundError("kvm: no vm fd " + std::to_string(id));
  }
  return &it->second;
}

Result<const KvmVm*> KvmHost::FindVm(VmId id) const {
  auto it = vms_.find(static_cast<int>(id));
  if (it == vms_.end()) {
    return NotFoundError("kvm: no vm fd " + std::to_string(id));
  }
  return &it->second;
}

Result<VmId> KvmHost::FindVmByUid(uint64_t uid) const {
  for (const auto& [fd, vm] : vms_) {
    if (vm.uid == uid) {
      return static_cast<VmId>(fd);
    }
  }
  return NotFoundError("kvm: no vm with uid " + std::to_string(uid));
}

Result<void> KvmHost::AllocateVmStateFrames(KvmVm& vm) {
  const FrameOwner state_owner{FrameOwnerKind::kVmState, vm.uid};
  const FrameOwner vmm_owner{FrameOwnerKind::kVmm, vm.uid};
  // EPT tables: ~1 frame per 2 MiB of guest memory plus roots.
  const uint64_t ept_frames = vm.memory_bytes / kHugePageSize + 8;
  HYPERTP_ASSIGN_OR_RETURN(Mfn ept, machine_->memory().Alloc(ept_frames, 1, state_owner));
  (void)ept;
  vm.vm_state_frames = ept_frames;
  HYPERTP_ASSIGN_OR_RETURN(Mfn vmm, machine_->memory().Alloc(kVmmWorkingFrames, 1, vmm_owner));
  (void)vmm;
  vm.vmm.working_frames = kVmmWorkingFrames;
  return OkResult();
}

Result<VmId> KvmHost::CreateVm(const VmConfig& config) {
  HYPERTP_RETURN_IF_ERROR(ValidateVmConfig(config, 240));

  KvmVm vm;
  vm.vm_fd = next_fd_++;
  vm.uid = config.uid != 0 ? config.uid : AllocateVmUid();
  vm.name = config.name;
  vm.memory_bytes = config.memory_bytes;
  vm.huge_pages = config.huge_pages;
  vm.vmm.pid = next_pid_++;
  for (const auto& [fd, existing] : vms_) {
    if (existing.uid == vm.uid) {
      return AlreadyExistsError("kvm: uid " + std::to_string(vm.uid) + " already hosted");
    }
  }

  for (uint32_t i = 0; i < config.vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(KvmVcpuState vcpu, KvmVcpuFromUisr(MakeSyntheticVcpu(vm.uid, i)));
    vm.vcpus.push_back(std::move(vcpu));
  }

  // kvmtool wires devices to low IOAPIC pins (< 24).
  vm.ioapic.id = 0;
  vm.ioapic.redirtbl[4] = 0x10004;  // COM1.
  uint32_t instance = 0;
  for (const DeviceConfig& dev_config : config.devices) {
    HYPERTP_ASSIGN_OR_RETURN(
        UisrDeviceState dev,
        MakeDefaultDeviceState(dev_config.model, instance, vm.uid, dev_config.mode));
    if (dev_config.model.starts_with("virtio")) {
      vm.ioapic.redirtbl[10 + instance] = 0x10040 + instance;
    }
    vm.vmm.devices.push_back(std::move(dev));
    ++instance;
  }
  vm.pit.channels[0].count = 0x4A9;
  vm.pit.channels[0].mode = 2;
  vm.pit.channels[0].gate = 1;

  HYPERTP_RETURN_IF_ERROR(AllocateGuestFrames(machine_->memory(), vm.uid, vm.memory_bytes,
                                                  vm.huge_pages, kMmapChunkFrames, vm.memslots));
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(vm));

  for (uint32_t i = 0; i < config.vcpus; ++i) {
    scheduler_.AddTask(vm.uid, i);
  }

  const VmId id = vm.vm_fd;
  vms_.emplace(vm.vm_fd, std::move(vm));
  HYPERTP_LOG(kInfo, "kvm") << "created vm fd " << id << " '" << config.name << "' ("
                            << config.vcpus << " vCPU, " << (config.memory_bytes >> 20)
                            << " MiB)";
  return id;
}

Result<void> KvmHost::DestroyVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  FreeVmFrames(machine_->memory(), vm->uid);
  scheduler_.RemoveVm(vm->uid);
  vms_.erase(static_cast<int>(id));
  return OkResult();
}

Result<void> KvmHost::PauseVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  vm->run_state = VmRunState::kPaused;
  return OkResult();
}

Result<void> KvmHost::ResumeVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  vm->run_state = VmRunState::kRunning;
  return OkResult();
}

Result<VmInfo> KvmHost::GetVmInfo(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  VmInfo info;
  info.id = id;
  info.uid = vm->uid;
  info.name = vm->name;
  info.vcpus = static_cast<uint32_t>(vm->vcpus.size());
  info.memory_bytes = vm->memory_bytes;
  info.huge_pages = vm->huge_pages;
  for (const UisrDeviceState& dev : vm->vmm.devices) {
    info.has_passthrough |= dev.mode == DeviceAttachMode::kPassthrough;
  }
  info.run_state = vm->run_state;
  return info;
}

std::vector<VmId> KvmHost::ListVms() const {
  std::vector<VmId> ids;
  ids.reserve(vms_.size());
  for (const auto& [fd, vm] : vms_) {
    ids.push_back(fd);
  }
  return ids;
}

Result<std::vector<GuestMapping>> KvmHost::GuestMemoryMap(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  return vm->memslots.mappings();
}

Result<uint64_t> KvmHost::ReadGuestPage(VmId id, Gfn gfn) const {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  return vm->memslots.Read(machine_->memory(), gfn);
}

Result<void> KvmHost::WriteGuestPage(VmId id, Gfn gfn, uint64_t content) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  ++vm->state_generation;
  return vm->memslots.Write(machine_->memory(), gfn, content);
}

Result<void> KvmHost::AdvanceGuestClocks(VmId id, SimDuration delta) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  for (KvmVcpuState& vcpu : vm->vcpus) {
    for (KvmMsrEntry& msr : vcpu.msrs) {
      if (msr.index == 0x10) {  // IA32_TIME_STAMP_COUNTER.
        msr.data += static_cast<uint64_t>(delta);
      } else if (msr.index == kMsrTscDeadline && msr.data != 0) {
        msr.data += static_cast<uint64_t>(delta);
      }
    }
  }
  ++vm->state_generation;
  return OkResult();
}

Result<uint64_t> KvmHost::StateGeneration(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  return vm->state_generation;
}

Result<void> KvmHost::InjectGuestEvent(VmId id, GuestEventKind kind) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  if (vm->run_state != VmRunState::kRunning) {
    return FailedPreconditionError("kvm: cannot inject guest events into a paused vm");
  }
  auto bump_tsc = [&vm](uint64_t ticks, bool rearm_deadline) {
    for (KvmVcpuState& vcpu : vm->vcpus) {
      for (KvmMsrEntry& msr : vcpu.msrs) {
        if (msr.index == 0x10) {  // IA32_TIME_STAMP_COUNTER.
          msr.data += ticks;
        }
      }
      if (rearm_deadline) {
        uint64_t tsc = 0;
        for (const KvmMsrEntry& msr : vcpu.msrs) {
          if (msr.index == 0x10) {
            tsc = msr.data;
          }
        }
        for (KvmMsrEntry& msr : vcpu.msrs) {
          if (msr.index == kMsrTscDeadline) {
            msr.data = tsc + 1'000'000;
          }
        }
      }
    }
  };
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC.
      bump_tsc(1'000'000, /*rearm_deadline=*/true);
      break;
    case GuestEventKind::kEventChannel:
      // Kernel irqchip activity: an IOAPIC redirection entry latches its
      // remote-IRR bit (bit 14) while the interrupt is in service.
      vm->ioapic.redirtbl[2] ^= 1ull << 14;
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      bump_tsc(10'000'000, /*rearm_deadline=*/false);
      for (KvmVcpuState& vcpu : vm->vcpus) {
        vcpu.regs.rip += 0x40;
        vcpu.regs.rax += 1;
      }
      break;
  }
  ++vm->state_generation;
  return OkResult();
}

Result<void> KvmHost::EnableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  vm->memslots.EnableDirtyLog();
  return OkResult();
}

Result<std::vector<Gfn>> KvmHost::FetchAndClearDirtyLog(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  if (!vm->memslots.dirty_log_enabled()) {
    return FailedPreconditionError("kvm: dirty logging not enabled");
  }
  return vm->memslots.FetchAndClearDirty();
}

Result<void> KvmHost::DisableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  vm->memslots.DisableDirtyLog();
  return OkResult();
}

Result<void> KvmHost::PrepareVmForTransplant(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(KvmVm * vm, MutableVm(id));
  // Quiescing/unplugging changes translated device state.
  ++vm->state_generation;
  return PrepareDevicesForTransplant(vm->vmm.devices);
}

Result<UisrVm> KvmHost::SaveVmToUisr(VmId id, FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  if (vm->run_state != VmRunState::kPaused) {
    return FailedPreconditionError("kvm: vm must be paused before UISR translation");
  }

  UisrVm out;
  out.vm_uid = vm->uid;
  out.name = vm->name;
  out.source_hypervisor = std::string(name());
  out.memory.memory_bytes = vm->memory_bytes;
  out.memory.uses_huge_pages = vm->huge_pages;

  HYPERTP_RETURN_IF_ERROR(KvmPlatformToUisr(vm->vcpus, vm->ioapic, vm->pit, out));

  for (const UisrDeviceState& dev : vm->vmm.devices) {
    HYPERTP_RETURN_IF_ERROR(ValidateDeviceForTransplant(dev));
    out.devices.push_back(dev);
    if (dev.mode == DeviceAttachMode::kUnplugged && log != nullptr) {
      log->push_back({vm->uid, dev.model, "unplugged before transplant; will rescan"});
    }
  }
  return out;
}

Result<VmId> KvmHost::RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                        FixupLog* log) {
  for (const auto& [fd, existing] : vms_) {
    if (existing.uid == uisr.vm_uid) {
      return AlreadyExistsError("kvm: uid " + std::to_string(uisr.vm_uid) + " already hosted");
    }
  }

  KvmVm vm;
  vm.vm_fd = next_fd_++;
  vm.uid = uisr.vm_uid;
  vm.name = uisr.name;
  vm.memory_bytes = uisr.memory.memory_bytes;
  vm.huge_pages = uisr.memory.uses_huge_pages;
  vm.run_state = VmRunState::kPaused;
  vm.vmm.pid = next_pid_++;

  HYPERTP_ASSIGN_OR_RETURN(KvmPlatform platform,
                           KvmPlatformFromUisr(uisr, log, binding.remap_high_ioapic_pins));
  vm.vcpus = std::move(platform.vcpus);
  vm.ioapic = platform.ioapic;
  vm.pit = platform.pit;
  vm.vmm.devices = uisr.devices;

  switch (binding.mode) {
    case GuestMemoryBinding::Mode::kAdoptInPlace:
      HYPERTP_RETURN_IF_ERROR(AdoptGuestFrames("kvm", machine_->memory(), vm.uid,
                                               vm.memory_bytes, binding.entries, vm.memslots));
      break;
    case GuestMemoryBinding::Mode::kAllocate:
      HYPERTP_RETURN_IF_ERROR(AllocateGuestFrames(machine_->memory(), vm.uid, vm.memory_bytes,
                                                  vm.huge_pages, kMmapChunkFrames, vm.memslots));
      break;
  }
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(vm));

  for (uint32_t i = 0; i < vm.vcpus.size(); ++i) {
    scheduler_.AddTask(vm.uid, i);
  }

  const VmId id = vm.vm_fd;
  vms_.emplace(vm.vm_fd, std::move(vm));
  HYPERTP_LOG(kInfo, "kvm") << "restored vm fd " << id << " (uid " << uisr.vm_uid
                            << ") from UISR via "
                            << (binding.mode == GuestMemoryBinding::Mode::kAdoptInPlace
                                    ? "mmap of in-place frames"
                                    : "fresh allocation");
  return id;
}

uint64_t KvmHost::HypervisorFrames() const { return hv_frames_; }

Result<std::vector<std::pair<Gfn, uint64_t>>> KvmHost::DumpGuestContent(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const KvmVm* vm, FindVm(id));
  return vm->memslots.DumpNonZero(machine_->memory());
}

void KvmHost::DetachForMicroReboot() {
  vms_.clear();
  scheduler_ = CfsScheduler(machine_->profile().threads);
  hv_frames_ = 0;
}

void KvmHost::RebuildScheduler() {
  scheduler_ = CfsScheduler(machine_->profile().threads);
  for (const auto& [fd, vm] : vms_) {
    for (uint32_t i = 0; i < vm.vcpus.size(); ++i) {
      scheduler_.AddTask(vm.uid, i);
    }
  }
}

}  // namespace hypertp
