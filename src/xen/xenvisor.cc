#include "src/xen/xenvisor.h"

#include "src/base/logging.h"
#include "src/hv/devices.h"
#include "src/xen/xen_uisr.h"

namespace hypertp {
namespace {

// Xen core (text, heap, frametable) and dom0 memory, as HV State.
constexpr uint64_t kXenHeapBytes = 192ull << 20;
constexpr uint64_t kDom0Bytes = 1536ull << 20;
// Guest memory is allocated in chunks of this many frames (128 MiB), with
// NPT allocations interleaved between chunks — the realistic scatter that
// PRAM exists to describe.
constexpr uint64_t kGuestChunkFrames = 32768;

}  // namespace

XenVisor::XenVisor(Machine& machine)
    : machine_(&machine), scheduler_(machine.profile().threads) {
  // Boot: the Xen core and dom0 claim their RAM (HV State).
  const uint64_t wanted = (kXenHeapBytes + kDom0Bytes) / kPageSize;
  hv_frames_ = ClaimHypervisorFrames(machine_->memory(), wanted, kGuestChunkFrames);
  if (hv_frames_ < wanted) {
    HYPERTP_LOG(kError, "xen") << "boot: machine too small for Xen + dom0";
  }
  HYPERTP_LOG(kInfo, "xen") << "xenvisor-4.12 booted on " << machine_->hostname();
}

XenVisor::~XenVisor() {
  // A cleanly shut down hypervisor releases everything it owns. After
  // DetachForMicroReboot() there is nothing left to release — the scrubber
  // owns the machine's fate.
  for (auto& [domid, domain] : domains_) {
    FreeVmFrames(machine_->memory(), domain.uid);
  }
  if (hv_frames_ > 0) {
    machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kHypervisor, 0});
  }
}

Result<XenDomain*> XenVisor::MutableDomain(VmId id) {
  auto it = domains_.find(static_cast<uint32_t>(id));
  if (it == domains_.end()) {
    return NotFoundError("xen: no domain " + std::to_string(id));
  }
  return &it->second;
}

Result<const XenDomain*> XenVisor::FindDomain(VmId id) const {
  auto it = domains_.find(static_cast<uint32_t>(id));
  if (it == domains_.end()) {
    return NotFoundError("xen: no domain " + std::to_string(id));
  }
  return &it->second;
}

Result<VmId> XenVisor::FindVmByUid(uint64_t uid) const {
  for (const auto& [domid, domain] : domains_) {
    if (domain.uid == uid) {
      return static_cast<VmId>(domid);
    }
  }
  return NotFoundError("xen: no domain with uid " + std::to_string(uid));
}

Result<void> XenVisor::AllocateGuestMemory(XenDomain& domain) {
  const FrameOwner state_owner{FrameOwnerKind::kVmState, domain.uid};
  // Interleave a small NPT allocation before each chunk: this is what
  // scatters guest memory across the machine.
  return AllocateGuestFrames(machine_->memory(), domain.uid, domain.memory_bytes,
                             domain.huge_pages, kGuestChunkFrames, domain.p2m,
                             [&](uint64_t chunk) -> Result<void> {
                               const uint64_t npt_piece = chunk / 512 + 1;
                               HYPERTP_RETURN_IF_ERROR(
                                   machine_->memory().Alloc(npt_piece, 1, state_owner));
                               domain.npt_frames += npt_piece;
                               return OkResult();
                             });
}

Result<void> XenVisor::AllocateVmStateFrames(XenDomain& domain) {
  const FrameOwner state_owner{FrameOwnerKind::kVmState, domain.uid};
  // vCPU contexts, LAPIC pages, shared info.
  const uint64_t context_frames = domain.hvm.vcpus.size() + 2;
  HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, machine_->memory().Alloc(context_frames, 1, state_owner));
  (void)mfn;
  domain.npt_frames += context_frames;
  return OkResult();
}

void XenVisor::SetupPvInfrastructure(XenDomain& domain) {
  domain.event_channels.clear();
  uint32_t port = 1;
  // xenstore + console channels.
  domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
  domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
  // Two channels per virtio-style PV device.
  for (const UisrDeviceState& dev : domain.devices) {
    if (dev.model.starts_with("virtio")) {
      domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
      domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
    }
  }
  // Grant table: two ring pages per PV device, granted to dom0's backends.
  // The GFNs land in the guest's low memory (where PV frontends place rings).
  domain.grant_table.clear();
  uint32_t ref = 8;  // Refs 0-7 are reserved in real Xen.
  Gfn ring_gfn = 256;
  for (const UisrDeviceState& dev : domain.devices) {
    if (dev.model.starts_with("virtio")) {
      domain.grant_table.push_back({ref++, ring_gfn++, 0x1, 0});
      domain.grant_table.push_back({ref++, ring_gfn++, 0x1, 0});
    }
  }
  domain.xenstore.clear();
  domain.xenstore["name"] = domain.name;
  domain.xenstore["memory/target"] = std::to_string(domain.memory_bytes >> 10);
  domain.xenstore["vm"] = "/vm/" + std::to_string(domain.uid);
}

Result<VmId> XenVisor::CreateVm(const VmConfig& config) {
  HYPERTP_RETURN_IF_ERROR(ValidateVmConfig(config, 128));

  XenDomain domain;
  domain.domid = next_domid_++;
  domain.uid = config.uid != 0 ? config.uid : AllocateVmUid();
  domain.name = config.name;
  domain.memory_bytes = config.memory_bytes;
  domain.huge_pages = config.huge_pages;
  for (const auto& [domid, existing] : domains_) {
    if (existing.uid == domain.uid) {
      return AlreadyExistsError("xen: uid " + std::to_string(domain.uid) + " already hosted");
    }
  }

  // Seed the platform state in Xen-native format from the canonical
  // post-boot architectural state.
  FixupLog seed_log;
  for (uint32_t i = 0; i < config.vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(XenVcpuContext ctx,
                             XenVcpuFromUisr(MakeSyntheticVcpu(domain.uid, i), domain.uid,
                                             &seed_log));
    domain.hvm.vcpus.push_back(std::move(ctx));
  }
  // Xen wires devices to high IOAPIC pins (>= 24) — the exact situation that
  // forces the pin fixup when transplanting to KVM's 24-pin IOAPIC (§4.2.1).
  domain.hvm.ioapic.id = 0;
  domain.hvm.ioapic.redirtbl[4] = 0x10004;  // COM1 -> vector 0x34-ish pattern.
  uint32_t instance = 0;
  for (const DeviceConfig& dev_config : config.devices) {
    HYPERTP_ASSIGN_OR_RETURN(
        UisrDeviceState dev,
        MakeDefaultDeviceState(dev_config.model, instance, domain.uid, dev_config.mode));
    if (dev_config.model.starts_with("virtio")) {
      domain.hvm.ioapic.redirtbl[24 + instance] = 0x10020 + instance;
    }
    domain.devices.push_back(std::move(dev));
    ++instance;
  }
  domain.hvm.pit.channels[0].count = 0x4A9;  // ~100 Hz timer tick.
  domain.hvm.pit.channels[0].mode = 2;
  domain.hvm.pit.channels[0].gate = 1;

  HYPERTP_RETURN_IF_ERROR(AllocateGuestMemory(domain));
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(domain));
  SetupPvInfrastructure(domain);

  for (uint32_t i = 0; i < config.vcpus; ++i) {
    scheduler_.AddVcpu(domain.domid, i, domain.sched_weight);
  }

  const VmId id = domain.domid;
  domains_.emplace(domain.domid, std::move(domain));
  HYPERTP_LOG(kInfo, "xen") << "created domain " << id << " '" << config.name << "' ("
                            << config.vcpus << " vCPU, " << (config.memory_bytes >> 20)
                            << " MiB)";
  return id;
}

Result<void> XenVisor::DestroyVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  FreeVmFrames(machine_->memory(), domain->uid);
  scheduler_.RemoveDomain(domain->domid);
  domains_.erase(static_cast<uint32_t>(id));
  return OkResult();
}

Result<void> XenVisor::PauseVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  domain->run_state = VmRunState::kPaused;
  return OkResult();
}

Result<void> XenVisor::ResumeVm(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  domain->run_state = VmRunState::kRunning;
  return OkResult();
}

Result<VmInfo> XenVisor::GetVmInfo(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  VmInfo info;
  info.id = id;
  info.uid = domain->uid;
  info.name = domain->name;
  info.vcpus = static_cast<uint32_t>(domain->hvm.vcpus.size());
  info.memory_bytes = domain->memory_bytes;
  info.huge_pages = domain->huge_pages;
  for (const UisrDeviceState& dev : domain->devices) {
    info.has_passthrough |= dev.mode == DeviceAttachMode::kPassthrough;
  }
  info.run_state = domain->run_state;
  return info;
}

std::vector<VmId> XenVisor::ListVms() const {
  std::vector<VmId> ids;
  ids.reserve(domains_.size());
  for (const auto& [domid, domain] : domains_) {
    ids.push_back(domid);
  }
  return ids;
}

Result<std::vector<GuestMapping>> XenVisor::GuestMemoryMap(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  return domain->p2m.mappings();
}

Result<uint64_t> XenVisor::ReadGuestPage(VmId id, Gfn gfn) const {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  return domain->p2m.Read(machine_->memory(), gfn);
}

Result<void> XenVisor::WriteGuestPage(VmId id, Gfn gfn, uint64_t content) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  ++domain->state_generation;
  return domain->p2m.Write(machine_->memory(), gfn, content);
}

Result<void> XenVisor::AdvanceGuestClocks(VmId id, SimDuration delta) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  for (XenVcpuContext& vcpu : domain->hvm.vcpus) {
    vcpu.cpu.tsc += static_cast<uint64_t>(delta);
    if (vcpu.lapic.tsc_deadline != 0) {
      vcpu.lapic.tsc_deadline += static_cast<uint64_t>(delta);
    }
  }
  ++domain->state_generation;
  return OkResult();
}

Result<uint64_t> XenVisor::StateGeneration(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  return domain->state_generation;
}

Result<void> XenVisor::InjectGuestEvent(VmId id, GuestEventKind kind) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  if (domain->run_state != VmRunState::kRunning) {
    return FailedPreconditionError("xen: cannot inject guest events into a paused domain");
  }
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC; the deadline
      // re-arms, so the translated LAPIC record changes too.
      for (XenVcpuContext& vcpu : domain->hvm.vcpus) {
        vcpu.cpu.tsc += 1'000'000;
        vcpu.lapic.tsc_deadline = vcpu.cpu.tsc + 1'000'000;
      }
      break;
    case GuestEventKind::kEventChannel:
      // PV notification activity. Event channels are rebuilt, never
      // translated, so this dirties the domain without changing its UISR —
      // the pre-translation cache must treat it as an invalidation anyway.
      if (!domain->event_channels.empty()) {
        domain->event_channels.front().pending = !domain->event_channels.front().pending;
      }
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      for (XenVcpuContext& vcpu : domain->hvm.vcpus) {
        vcpu.cpu.tsc += 10'000'000;
        vcpu.cpu.rip += 0x40;
        vcpu.cpu.rax += 1;
      }
      break;
  }
  ++domain->state_generation;
  return OkResult();
}

Result<void> XenVisor::EnableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  domain->p2m.EnableDirtyLog();
  return OkResult();
}

Result<std::vector<Gfn>> XenVisor::FetchAndClearDirtyLog(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  if (!domain->p2m.dirty_log_enabled()) {
    return FailedPreconditionError("xen: dirty logging not enabled");
  }
  return domain->p2m.FetchAndClearDirty();
}

Result<void> XenVisor::DisableDirtyLogging(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  domain->p2m.DisableDirtyLog();
  return OkResult();
}

Result<void> XenVisor::PrepareVmForTransplant(VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(XenDomain * domain, MutableDomain(id));
  // Quiescing/unplugging changes translated device state.
  ++domain->state_generation;
  return PrepareDevicesForTransplant(domain->devices);
}

Result<UisrVm> XenVisor::SaveVmToUisr(VmId id, FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  if (domain->run_state != VmRunState::kPaused) {
    return FailedPreconditionError("xen: domain must be paused before UISR translation");
  }

  UisrVm vm;
  vm.vm_uid = domain->uid;
  vm.name = domain->name;
  vm.source_hypervisor = std::string(name());
  vm.memory.memory_bytes = domain->memory_bytes;
  vm.memory.uses_huge_pages = domain->huge_pages;

  HYPERTP_RETURN_IF_ERROR(XenPlatformToUisr(domain->hvm, vm));

  for (const UisrDeviceState& dev : domain->devices) {
    HYPERTP_RETURN_IF_ERROR(ValidateDeviceForTransplant(dev));
    vm.devices.push_back(dev);
    if (dev.mode == DeviceAttachMode::kUnplugged && log != nullptr) {
      log->push_back({domain->uid, dev.model, "unplugged before transplant; will rescan"});
    }
  }
  return vm;
}

Result<VmId> XenVisor::RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                         FixupLog* log) {
  for (const auto& [domid, existing] : domains_) {
    if (existing.uid == uisr.vm_uid) {
      return AlreadyExistsError("xen: uid " + std::to_string(uisr.vm_uid) + " already hosted");
    }
  }

  XenDomain domain;
  domain.domid = next_domid_++;
  domain.uid = uisr.vm_uid;
  domain.name = uisr.name;
  domain.memory_bytes = uisr.memory.memory_bytes;
  domain.huge_pages = uisr.memory.uses_huge_pages;
  domain.run_state = VmRunState::kPaused;

  // from_uisr: translate the platform into Xen's native formats.
  HYPERTP_ASSIGN_OR_RETURN(domain.hvm, XenPlatformFromUisr(uisr, log));
  domain.devices = uisr.devices;

  switch (binding.mode) {
    case GuestMemoryBinding::Mode::kAdoptInPlace:
      HYPERTP_RETURN_IF_ERROR(AdoptGuestFrames("xen", machine_->memory(), domain.uid,
                                               domain.memory_bytes, binding.entries, domain.p2m));
      break;
    case GuestMemoryBinding::Mode::kAllocate:
      HYPERTP_RETURN_IF_ERROR(AllocateGuestMemory(domain));
      break;
  }
  HYPERTP_RETURN_IF_ERROR(AllocateVmStateFrames(domain));

  // Rebuild VM Management State: PV infrastructure and scheduler membership.
  SetupPvInfrastructure(domain);
  for (uint32_t i = 0; i < domain.hvm.vcpus.size(); ++i) {
    scheduler_.AddVcpu(domain.domid, i, domain.sched_weight);
  }

  const VmId id = domain.domid;
  domains_.emplace(domain.domid, std::move(domain));
  HYPERTP_LOG(kInfo, "xen") << "restored domain " << id << " (uid " << uisr.vm_uid
                            << ") from UISR via "
                            << (binding.mode == GuestMemoryBinding::Mode::kAdoptInPlace
                                    ? "in-place adoption"
                                    : "fresh allocation");
  return id;
}

uint64_t XenVisor::HypervisorFrames() const { return hv_frames_; }

Result<std::vector<std::pair<Gfn, uint64_t>>> XenVisor::DumpGuestContent(VmId id) const {
  HYPERTP_ASSIGN_OR_RETURN(const XenDomain* domain, FindDomain(id));
  return domain->p2m.DumpNonZero(machine_->memory());
}

void XenVisor::DetachForMicroReboot() {
  // The kexec jump is imminent: forget every domain and all ownership
  // without freeing a single frame — the early-boot scrubber decides what
  // survives based on the PRAM reservation, not on us.
  domains_.clear();
  scheduler_ = CreditScheduler(machine_->profile().threads);
  hv_frames_ = 0;
}

void XenVisor::RebuildScheduler() {
  scheduler_ = CreditScheduler(machine_->profile().threads);
  for (const auto& [domid, domain] : domains_) {
    for (uint32_t i = 0; i < domain.hvm.vcpus.size(); ++i) {
      scheduler_.AddVcpu(domid, i, domain.sched_weight);
    }
  }
}

}  // namespace hypertp
