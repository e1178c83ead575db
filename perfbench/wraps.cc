// Link-time wrappers for the traced binary.
//
// perfbench_traced links with -Wl,--wrap=<symbol> for every mangled name
// quoted below (CMakeLists.txt collects them; keep each on one line). The linker then routes each call to <symbol> made from
// *another object file* to __wrap_<symbol> below, and __real_<symbol> names the
// original. Each wrapper opens a Span for its layer and records the counts
// visible at that boundary, then calls through. Calls inside one object file,
// inlined functions and virtual calls are not routed here: their time stays
// in the nearest wrapped caller's self time (README.md lists what that hides).
//
// The wrappers rely on the Itanium C++ ABI, under which a member function is
// called like a free function taking `this` first; both names of a pair are
// declared with the member's exact return and parameter types.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/probe.h"
#include "src/base/bytes.h"
#include "src/bhyve/bhyve_uisr.h"
#include "src/fleet/fleet_controller.h"
#include "src/fleet/fleet_trace.h"
#include "src/hv/guest_memory.h"
#include "src/kexec/kexec.h"
#include "src/kvm/kvm_uisr.h"
#include "src/migrate/migrate.h"
#include "src/pipeline/conversion.h"
#include "src/pipeline/pretranslate.h"
#include "src/policy/policy.h"
#include "src/pram/ledger.h"
#include "src/pram/pram.h"
#include "src/sim/executor.h"
#include "src/uisr/codec.h"
#include "src/vulndb/exposure_stream.h"
#include "src/xen/xen_uisr.h"

namespace perfbench {
namespace {

using namespace hypertp;  // NOLINT: wrappers mirror the simulator's signatures.

using GuestPages = std::vector<std::pair<Gfn, uint64_t>>;
using ExtentList = std::vector<FrameExtent>;
using DecodedVms = std::vector<Result<UisrVm>>;
using BlobViews = std::vector<std::span<const uint8_t>>;

}  // namespace

// Declares __real_SYM and defines __wrap_SYM as a span around it.
#define PB_DECLARE(RET, NAME, SYM, PARAMS) \
  RET Real_##NAME PARAMS asm("__real_" SYM); \
  RET Wrap_##NAME PARAMS asm("__wrap_" SYM);
#define PB_WRAP(LAYER, RET, NAME, SYM, PARAMS, ARGS) \
  PB_DECLARE(RET, NAME, SYM, PARAMS)                 \
  RET Wrap_##NAME PARAMS {                           \
    Span span(Layer::LAYER, #NAME);                  \
    return Real_##NAME ARGS;                         \
  }

// --- hw ----------------------------------------------------------------------
PB_DECLARE(Result<FrameOwner>, OwnerOf, "_ZNK7hypertp14PhysicalMemory7OwnerOfEm",
           (const PhysicalMemory* self, Mfn mfn))
Result<FrameOwner> Wrap_OwnerOf(const PhysicalMemory* self, Mfn mfn) {
  Span span(Layer::kHw, "PhysicalMemory::OwnerOf");
  Count(Counter::kOwnerLookups);
  return Real_OwnerOf(self, mfn);
}
PB_WRAP(kHw, bool, IsAllocated, "_ZNK7hypertp14PhysicalMemory11IsAllocatedEm",
        (const PhysicalMemory* self, Mfn mfn), (self, mfn))
PB_WRAP(kHw, Result<Mfn>, Alloc, "_ZN7hypertp14PhysicalMemory5AllocEmmNS_10FrameOwnerE",
        (PhysicalMemory* self, uint64_t count, uint64_t align, FrameOwner owner),
        (self, count, align, owner))
PB_WRAP(kHw, Result<void>, Free, "_ZN7hypertp14PhysicalMemory4FreeEmm",
        (PhysicalMemory* self, Mfn base, uint64_t count), (self, base, count))
PB_WRAP(kHw, uint64_t, FreeAllOwnedBy, "_ZN7hypertp14PhysicalMemory14FreeAllOwnedByENS_10FrameOwnerE",
        (PhysicalMemory* self, FrameOwner owner), (self, owner))
PB_WRAP(kHw, uint64_t, ScrubExcept,
        "_ZN7hypertp14PhysicalMemory11ScrubExceptERKSt6vectorINS_11FrameExtentESaIS2_EE",
        (PhysicalMemory* self, const ExtentList& preserved), (self, preserved))
PB_WRAP(kHw, Result<uint64_t>, ReadWord, "_ZNK7hypertp14PhysicalMemory8ReadWordEm",
        (const PhysicalMemory* self, Mfn mfn), (self, mfn))
PB_WRAP(kHw, Result<void>, WriteWord, "_ZN7hypertp14PhysicalMemory9WriteWordEmm",
        (PhysicalMemory* self, Mfn mfn, uint64_t content), (self, mfn, content))
PB_WRAP(kHw, Result<std::vector<uint8_t>>, ReadPage, "_ZNK7hypertp14PhysicalMemory8ReadPageEm",
        (const PhysicalMemory* self, Mfn mfn), (self, mfn))
PB_WRAP(kHw, Result<void>, WritePage, "_ZN7hypertp14PhysicalMemory9WritePageEmSt6vectorIhSaIhEE",
        (PhysicalMemory* self, Mfn mfn, std::vector<uint8_t> bytes), (self, mfn, std::move(bytes)))
PB_WRAP(kHw, Result<std::span<uint8_t>>, BackExtent,
        "_ZN7hypertp14PhysicalMemory10BackExtentEmmm",
        (PhysicalMemory* self, Mfn base, uint64_t frames, uint64_t skip),
        (self, base, frames, skip))
PB_WRAP(kHw, Result<std::span<const uint8_t>>, BackedExtent,
        "_ZNK7hypertp14PhysicalMemory12BackedExtentEmm",
        (const PhysicalMemory* self, Mfn base, uint64_t frames), (self, base, frames))
PB_WRAP(kHw, ExtentList, ExtentsOfKind,
        "_ZNK7hypertp14PhysicalMemory13ExtentsOfKindENS_14FrameOwnerKindE",
        (const PhysicalMemory* self, FrameOwnerKind kind), (self, kind))

// --- pram --------------------------------------------------------------------
PB_WRAP(kPram, Result<uint64_t>, AddFile,
        "_ZN7hypertp11PramBuilder7AddFileENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmbSt6vectorINS_13PramPageEntryESaIS8_EE",
        (PramBuilder* self, std::string name, uint64_t bytes, bool huge,
         std::vector<PramPageEntry> entries),
        (self, std::move(name), bytes, huge, std::move(entries)))
PB_DECLARE(Result<PramHandle>, Finalize, "_ZN7hypertp11PramBuilder8FinalizeEv", (PramBuilder* self))
Result<PramHandle> Wrap_Finalize(PramBuilder* self) {
  Span span(Layer::kPram, "PramBuilder::Finalize");
  Result<PramHandle> handle = Real_Finalize(self);
  if (handle.ok()) {
    Count(Counter::kPramMetadataBytes, static_cast<int64_t>(handle->metadata_bytes()));
  }
  return handle;
}
PB_DECLARE(Result<PramImage>, ParsePram, "_ZN7hypertp9ParsePramERKNS_14PhysicalMemoryEm",
           (const PhysicalMemory& ram, Mfn root))
Result<PramImage> Wrap_ParsePram(const PhysicalMemory& ram, Mfn root) {
  Span span(Layer::kPram, "ParsePram");
  Result<PramImage> image = Real_ParsePram(ram, root);
  if (image.ok()) {
    for (const PramFile& file : image->files) {
      Count(Counter::kPramEntries, static_cast<int64_t>(file.entries.size()));
    }
  }
  return image;
}
PB_WRAP(kPram, Result<ExtentList>, PramPreservationList,
        "_ZN7hypertp20PramPreservationListERKNS_14PhysicalMemoryEmRKNS_9PramImageE",
        (const PhysicalMemory& ram, Mfn root, const PramImage& image), (ram, root, image))
PB_WRAP(kPram, void, BuildEntriesForRange,
        "_ZN7hypertp20BuildEntriesForRangeEmmmbRSt6vectorINS_13PramPageEntryESaIS1_EE",
        (Gfn gfn, Mfn mfn, uint64_t frames, bool huge, std::vector<PramPageEntry>& out),
        (gfn, mfn, frames, huge, out))
PB_WRAP(kPram, Result<TransplantLedger>, LedgerCreate,
        "_ZN7hypertp16TransplantLedger6CreateERNS_14PhysicalMemoryENS_12LedgerRecordE",
        (PhysicalMemory& ram, LedgerRecord initial), (ram, initial))
PB_WRAP(kPram, Result<void>, LedgerCommit,
        "_ZN7hypertp16TransplantLedger6CommitENS_12LedgerRecordE",
        (TransplantLedger* self, LedgerRecord record), (self, record))

// --- kexec -------------------------------------------------------------------
PB_WRAP(kKexec, Result<void>, LoadImage,
        "_ZN7hypertp15KexecController9LoadImageERKNS_11KernelImageE",
        (KexecController* self, const KernelImage& image), (self, image))
PB_DECLARE(Result<KexecBootResult>, Reboot,
           "_ZN7hypertp15KexecController6RebootERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
           (KexecController* self, const std::string& cmdline))
Result<KexecBootResult> Wrap_Reboot(KexecController* self, const std::string& cmdline) {
  Span span(Layer::kKexec, "KexecController::Reboot");
  Result<KexecBootResult> boot = Real_Reboot(self, cmdline);
  if (boot.ok()) {
    Count(Counter::kFramesScrubbed, static_cast<int64_t>(boot->frames_scrubbed));
  }
  return boot;
}

// --- hv (guest address spaces and the hypervisors' native-state converters) ----
PB_DECLARE(Result<uint64_t>, GuestRead, "_ZNK7hypertp17GuestAddressSpace4ReadERKNS_14PhysicalMemoryEm",
           (const GuestAddressSpace* self, const PhysicalMemory& ram, Gfn gfn))
Result<uint64_t> Wrap_GuestRead(const GuestAddressSpace* self, const PhysicalMemory& ram, Gfn gfn) {
  Span span(Layer::kHv, "GuestAddressSpace::Read");
  Count(Counter::kGuestPageOps);
  return Real_GuestRead(self, ram, gfn);
}
PB_DECLARE(Result<void>, GuestWrite, "_ZN7hypertp17GuestAddressSpace5WriteERNS_14PhysicalMemoryEmm",
           (GuestAddressSpace* self, PhysicalMemory& ram, Gfn gfn, uint64_t content))
Result<void> Wrap_GuestWrite(GuestAddressSpace* self, PhysicalMemory& ram, Gfn gfn,
                             uint64_t content) {
  Span span(Layer::kHv, "GuestAddressSpace::Write");
  Count(Counter::kGuestPageOps);
  return Real_GuestWrite(self, ram, gfn, content);
}
PB_DECLARE(GuestPages, DumpNonZero,
           "_ZNK7hypertp17GuestAddressSpace11DumpNonZeroERKNS_14PhysicalMemoryE",
           (const GuestAddressSpace* self, const PhysicalMemory& ram))
GuestPages Wrap_DumpNonZero(const GuestAddressSpace* self, const PhysicalMemory& ram) {
  Span span(Layer::kHv, "GuestAddressSpace::DumpNonZero");
  GuestPages pages = Real_DumpNonZero(self, ram);
  Count(Counter::kGuestPageOps, static_cast<int64_t>(pages.size()));
  return pages;
}
PB_WRAP(kHv, Result<void>, MapExtent, "_ZN7hypertp17GuestAddressSpace9MapExtentEmmm",
        (GuestAddressSpace* self, Gfn gfn, Mfn mfn, uint64_t frames), (self, gfn, mfn, frames))
PB_WRAP(kHv, std::vector<Gfn>, FetchAndClearDirty,
        "_ZN7hypertp17GuestAddressSpace18FetchAndClearDirtyEv", (GuestAddressSpace* self), (self))
PB_WRAP(kHv, Result<void>, XenPlatformToUisr,
        "_ZN7hypertp17XenPlatformToUisrERKNS_13XenHvmContextERNS_6UisrVmE",
        (const XenHvmContext& ctx, UisrVm& out), (ctx, out))
PB_WRAP(kHv, Result<XenHvmContext>, XenPlatformFromUisr,
        "_ZN7hypertp19XenPlatformFromUisrERKNS_6UisrVmEPSt6vectorINS_10StateFixupESaIS4_EE",
        (const UisrVm& vm, FixupLog* log), (vm, log))
PB_WRAP(kHv, Result<XenVcpuContext>, XenVcpuFromUisr,
        "_ZN7hypertp15XenVcpuFromUisrERKNS_8UisrVcpuEmPSt6vectorINS_10StateFixupESaIS4_EE",
        (const UisrVcpu& vcpu, uint64_t uid, FixupLog* log), (vcpu, uid, log))
PB_WRAP(kHv, Result<void>, KvmPlatformToUisr,
        "_ZN7hypertp17KvmPlatformToUisrERKSt6vectorINS_12KvmVcpuStateESaIS1_EERKNS_14KvmIoapicStateERKNS_12KvmPitState2ERNS_6UisrVmE",
        (const std::vector<KvmVcpuState>& vcpus, const KvmIoapicState& ioapic,
         const KvmPitState2& pit, UisrVm& out),
        (vcpus, ioapic, pit, out))
PB_WRAP(kHv, Result<KvmPlatform>, KvmPlatformFromUisr,
        "_ZN7hypertp19KvmPlatformFromUisrERKNS_6UisrVmEPSt6vectorINS_10StateFixupESaIS4_EEb",
        (const UisrVm& vm, FixupLog* log, bool remap), (vm, log, remap))
PB_WRAP(kHv, Result<KvmVcpuState>, KvmVcpuFromUisr, "_ZN7hypertp15KvmVcpuFromUisrERKNS_8UisrVcpuE",
        (const UisrVcpu& vcpu), (vcpu))
PB_WRAP(kHv, Result<void>, BhyvePlatformToUisr,
        "_ZN7hypertp19BhyvePlatformToUisrERKNS_13BhyvePlatformERNS_6UisrVmEPSt6vectorINS_10StateFixupESaIS6_EE",
        (const BhyvePlatform& platform, UisrVm& out, FixupLog* log), (platform, out, log))
PB_WRAP(kHv, Result<BhyvePlatform>, BhyvePlatformFromUisr,
        "_ZN7hypertp21BhyvePlatformFromUisrERKNS_6UisrVmEPSt6vectorINS_10StateFixupESaIS4_EEb",
        (const UisrVm& vm, FixupLog* log, bool remap), (vm, log, remap))
PB_WRAP(kHv, Result<BhyveVcpu>, BhyveVcpuFromUisr,
        "_ZN7hypertp17BhyveVcpuFromUisrERKNS_8UisrVcpuEmPSt6vectorINS_10StateFixupESaIS4_EE",
        (const UisrVcpu& vcpu, uint64_t uid, FixupLog* log), (vcpu, uid, log))

// --- uisr --------------------------------------------------------------------
PB_DECLARE(Result<UisrVm>, DecodeUisrVm, "_ZN7hypertp12DecodeUisrVmESt4spanIKhLm18446744073709551615EE",
           (std::span<const uint8_t> data))
Result<UisrVm> Wrap_DecodeUisrVm(std::span<const uint8_t> data) {
  Span span(Layer::kUisr, "DecodeUisrVm");
  Count(Counter::kUisrBytes, static_cast<int64_t>(data.size()));
  return Real_DecodeUisrVm(data);
}
PB_DECLARE(std::vector<uint8_t>, EncodeUisrVm, "_ZN7hypertp12EncodeUisrVmERKNS_6UisrVmE",
           (const UisrVm& vm))
std::vector<uint8_t> Wrap_EncodeUisrVm(const UisrVm& vm) {
  Span span(Layer::kUisr, "EncodeUisrVm");
  std::vector<uint8_t> blob = Real_EncodeUisrVm(vm);
  Count(Counter::kUisrBytes, static_cast<int64_t>(blob.size()));
  return blob;
}
PB_DECLARE(std::vector<uint8_t>, EncodeUisrVmLayout,
           "_ZN7hypertp12EncodeUisrVmERKNS_6UisrVmEPNS_17UisrSectionLayoutE",
           (const UisrVm& vm, UisrSectionLayout* layout))
std::vector<uint8_t> Wrap_EncodeUisrVmLayout(const UisrVm& vm, UisrSectionLayout* layout) {
  Span span(Layer::kUisr, "EncodeUisrVm");
  std::vector<uint8_t> blob = Real_EncodeUisrVmLayout(vm, layout);
  Count(Counter::kUisrBytes, static_cast<int64_t>(blob.size()));
  return blob;
}
PB_DECLARE(void, EncodeUisrVmSpan, "_ZN7hypertp12EncodeUisrVmINS_10SpanWriterEEEvRKNS_6UisrVmERT_",
           (const UisrVm& vm, SpanWriter& w))
void Wrap_EncodeUisrVmSpan(const UisrVm& vm, SpanWriter& w) {
  Span span(Layer::kUisr, "EncodeUisrVm<SpanWriter>");
  const size_t before = w.size();
  Real_EncodeUisrVmSpan(vm, w);
  Count(Counter::kUisrBytes, static_cast<int64_t>(w.size() - before));
}
PB_DECLARE(void, EncodeUisrVmBytes, "_ZN7hypertp12EncodeUisrVmINS_10ByteWriterEEEvRKNS_6UisrVmERT_",
           (const UisrVm& vm, ByteWriter& w))
void Wrap_EncodeUisrVmBytes(const UisrVm& vm, ByteWriter& w) {
  Span span(Layer::kUisr, "EncodeUisrVm<ByteWriter>");
  const size_t before = w.size();
  Real_EncodeUisrVmBytes(vm, w);
  Count(Counter::kUisrBytes, static_cast<int64_t>(w.size() - before));
}
PB_WRAP(kUisr, size_t, EncodedUisrSize, "_ZN7hypertp15EncodedUisrSizeERKNS_6UisrVmE",
        (const UisrVm& vm), (vm))
PB_WRAP(kUisr, Result<void>, PatchUisrSectionPayload,
        "_ZN7hypertp23PatchUisrSectionPayloadESt4spanIhLm18446744073709551615EERKNS_15UisrSectionSpanES0_IKhLm18446744073709551615EE",
        (std::span<uint8_t> blob, const UisrSectionSpan& section, std::span<const uint8_t> payload),
        (blob, section, payload))
PB_WRAP(kUisr, Result<void>, ResealUisrBlob,
        "_ZN7hypertp14ResealUisrBlobESt4spanIhLm18446744073709551615EE", (std::span<uint8_t> blob),
        (blob))
PB_WRAP(kUisr, size_t, UisrSectionPayloadSize,
        "_ZN7hypertp22UisrSectionPayloadSizeERKNS_6UisrVmENS_15UisrSectionTypeEm",
        (const UisrVm& vm, UisrSectionType type, size_t ordinal), (vm, type, ordinal))
PB_WRAP(kUisr, void, EncodeUisrSectionPayloadTo,
        "_ZN7hypertp26EncodeUisrSectionPayloadToINS_10SpanWriterEEEvRKNS_6UisrVmENS_15UisrSectionTypeEmRT_",
        (const UisrVm& vm, UisrSectionType type, size_t ordinal, SpanWriter& w),
        (vm, type, ordinal, w))

// --- pipeline ----------------------------------------------------------------
PB_WRAP(kPipeline, Result<UisrVm>, ExtractVmState,
        "_ZN7hypertp8pipeline14ExtractVmStateERNS_10HypervisorEmPSt6vectorINS_10StateFixupESaIS4_EE",
        (Hypervisor& hv, VmId id, FixupLog* log), (hv, id, log))
PB_WRAP(kPipeline, Result<pipeline::StoredUisrBlob>, EncodeUisrVmIntoPram,
        "_ZN7hypertp8pipeline20EncodeUisrVmIntoPramERNS_14PhysicalMemoryERNS_11PramBuilderERKNS_6UisrVmE",
        (PhysicalMemory& memory, PramBuilder& builder, const UisrVm& vm), (memory, builder, vm))
PB_WRAP(kPipeline, Result<std::vector<pipeline::StoredUisrBlob>>, EncodeVmStatesIntoPram,
        "_ZN7hypertp8pipeline22EncodeVmStatesIntoPramERNS_14PhysicalMemoryERNS_11PramBuilderERKSt6vectorINS_6UisrVmESaIS6_EEi",
        (PhysicalMemory& memory, PramBuilder& builder, const std::vector<UisrVm>& vms, int threads),
        (memory, builder, vms, threads))
PB_WRAP(kPipeline, DecodedVms, DecodeVmStates,
        "_ZN7hypertp8pipeline14DecodeVmStatesERKSt6vectorISt4spanIKhLm18446744073709551615EESaIS4_EEi",
        (const BlobViews& blobs, int threads), (blobs, threads))
PB_WRAP(kPipeline, Result<std::vector<uint8_t>>, LoadUisrBlob,
        "_ZN7hypertp8pipeline12LoadUisrBlobERKNS_14PhysicalMemoryERKNS_8PramFileE",
        (const PhysicalMemory& memory, const PramFile& file), (memory, file))
PB_WRAP(kPipeline, Result<WorkSchedule>, PreTranslateVms,
        "_ZN7hypertp8pipeline15PreTranslateVmsERNS_10HypervisorERKNS_15HostCostProfileERKSt6vectorINS0_19PreTranslateRequestESaIS7_EEiiPNS0_19PreTranslationCacheEPNS_14PhysicalMemoryE",
        (Hypervisor& source, const HostCostProfile& costs,
         const std::vector<pipeline::PreTranslateRequest>& requests, int workers, int threads,
         pipeline::PreTranslationCache* cache, PhysicalMemory* park),
        (source, costs, requests, workers, threads, cache, park))
PB_WRAP(kPipeline, Result<pipeline::ReconcileResult>, ReconcilePreTranslated,
        "_ZN7hypertp8pipeline22ReconcilePreTranslatedERKNS0_15PreTranslatedVmERKNS_6UisrVmEPNS_5ArenaE",
        (const pipeline::PreTranslatedVm& cached, const UisrVm& fresh, Arena* scratch),
        (cached, fresh, scratch))
PB_WRAP(kPipeline, Result<pipeline::StoredUisrBlob>, RegisterParkedBlob,
        "_ZN7hypertp8pipeline18RegisterParkedBlobERNS_11PramBuilderEmRKNS_11FrameExtentEm",
        (PramBuilder& builder, uint64_t uid, const FrameExtent& parked, uint64_t bytes),
        (builder, uid, parked, bytes))
PB_WRAP(kPipeline, Result<void>, RewriteParkedBlob,
        "_ZN7hypertp8pipeline17RewriteParkedBlobERNS_14PhysicalMemoryERKNS_11FrameExtentESt4spanIKhLm18446744073709551615EE",
        (PhysicalMemory& memory, const FrameExtent& parked, std::span<const uint8_t> blob),
        (memory, parked, blob))
PB_WRAP(kPipeline, Result<VmId>, RestoreVmState,
        "_ZN7hypertp8pipeline14RestoreVmStateERNS_10HypervisorERKNS_6UisrVmERKNS_18GuestMemoryBindingEPSt6vectorINS_10StateFixupESaISA_EE",
        (Hypervisor& hv, const UisrVm& uisr, const GuestMemoryBinding& binding, FixupLog* log),
        (hv, uisr, binding, log))
PB_WRAP(kPipeline, Result<UisrVm>, RoundTripVmState,
        "_ZN7hypertp8pipeline16RoundTripVmStateERKNS_6UisrVmEPm",
        (const UisrVm& uisr, uint64_t* encoded_bytes), (uisr, encoded_bytes))
PB_WRAP(kPipeline, Result<FrameExtent>, ParkUisrBlob,
        "_ZN7hypertp8pipeline12ParkUisrBlobERNS_14PhysicalMemoryEmSt4spanIKhLm18446744073709551615EE",
        (PhysicalMemory& memory, uint64_t uid, std::span<const uint8_t> blob), (memory, uid, blob))

// --- migrate -----------------------------------------------------------------
PB_DECLARE(Result<MigrationBatchResult>, MigrateMany,
           "_ZN7hypertp15MigrationEngine11MigrateManyERNS_10HypervisorERKSt6vectorImSaImEES2_RKNS_15MigrationConfigE",
           (MigrationEngine* self, Hypervisor& src, const std::vector<VmId>& ids, Hypervisor& dst,
            const MigrationConfig& config))
Result<MigrationBatchResult> Wrap_MigrateMany(MigrationEngine* self, Hypervisor& src,
                                              const std::vector<VmId>& ids, Hypervisor& dst,
                                              const MigrationConfig& config) {
  Span span(Layer::kMigrate, "MigrationEngine::MigrateMany");
  std::vector<uint64_t> guest_bytes;
  if (Enabled()) {
    for (VmId id : ids) {
      auto info = src.GetVmInfo(id);
      guest_bytes.push_back(info.ok() ? info->memory_bytes : 0);
    }
  }
  Result<MigrationBatchResult> batch = Real_MigrateMany(self, src, ids, dst, config);
  if (batch.ok() && Enabled()) {
    const uint64_t page_wire = static_cast<uint64_t>(
        (kPageSize + config.per_page_overhead_bytes) / std::max(config.compression_ratio, 1.0));
    for (size_t i = 0; i < batch->outcomes.size() && i < guest_bytes.size(); ++i) {
      const VmMigrationOutcome& outcome = batch->outcomes[i];
      if (!outcome.migrated || !outcome.result) {
        continue;
      }
      const uint64_t sent = outcome.result->bytes_transferred;
      Count(Counter::kMigrateBytesSent, static_cast<int64_t>(sent));
      Count(Counter::kMigrateGuestBytes, static_cast<int64_t>(guest_bytes[i]));
      Count(Counter::kMigratePagesCopied,
            static_cast<int64_t>((sent - std::min(sent, outcome.result->uisr_bytes)) / page_wire));
    }
  }
  return batch;
}

// --- fleet (the per-shard controllers and the event loop that drives them) -----
PB_DECLARE(void, FleetRecord, "_ZN7hypertp10FleetTrace6RecordENS_10FleetEventE",
           (FleetTrace* self, FleetEvent event))
void Wrap_FleetRecord(FleetTrace* self, FleetEvent event) {
  // Counted only: one call per host state transition.
  Count(Counter::kFleetEvents);
  Real_FleetRecord(self, event);
}
PB_WRAP(kFleet, void, FleetControllerCtor,
        "_ZN7hypertp15FleetControllerC1ERNS_11SimExecutorENS_11FleetConfigE",
        (FleetController* self, SimExecutor& executor, FleetConfig config),
        (self, executor, std::move(config)))
PB_WRAP(kFleet, void, FleetControllerDtor, "_ZN7hypertp15FleetControllerD1Ev",
        (FleetController* self), (self))
PB_WRAP(kFleet, void, FleetStart, "_ZN7hypertp15FleetController5StartEv", (FleetController* self),
        (self))
PB_WRAP(kFleet, void, FleetFinalizeDrained, "_ZN7hypertp15FleetController15FinalizeDrainedEv",
        (FleetController* self), (self))
PB_WRAP(kFleet, DetachedRack, FleetDetachDomain, "_ZN7hypertp15FleetController12DetachDomainEi",
        (FleetController* self, int domain), (self, domain))
PB_WRAP(kFleet, void, FleetAdoptHosts,
        "_ZN7hypertp15FleetController10AdoptHostsERKNS_12DetachedRackE",
        (FleetController* self, const DetachedRack& rack), (self, rack))
PB_WRAP(kFleet, void, ExecutorRunUntil, "_ZN7hypertp11SimExecutor8RunUntilEl",
        (SimExecutor* self, SimTime t), (self, t))
PB_WRAP(kFleet, void, ExecutorAdvanceTo, "_ZN7hypertp11SimExecutor9AdvanceToEl",
        (SimExecutor* self, SimTime t), (self, t))

// --- vulndb ------------------------------------------------------------------
PB_WRAP(kVulndb, void, StreamCtor, "_ZN7hypertp14ExposureStreamC1ElllNS_21ExposureStreamOptionsE",
        (ExposureStream* self, int64_t hosts, int64_t vms, SimTime start,
         ExposureStreamOptions options),
        (self, hosts, vms, start, std::move(options)))
PB_WRAP(kVulndb, void, OnHostsSafe, "_ZN7hypertp14ExposureStream11OnHostsSafeElll",
        (ExposureStream* self, SimTime t, int64_t hosts, int64_t vms), (self, t, hosts, vms))
PB_WRAP(kVulndb, void, OnHostsExposed, "_ZN7hypertp14ExposureStream14OnHostsExposedElll",
        (ExposureStream* self, SimTime t, int64_t hosts, int64_t vms), (self, t, hosts, vms))
PB_WRAP(kVulndb, void, OnHostsRehomed, "_ZN7hypertp14ExposureStream14OnHostsRehomedElll",
        (ExposureStream* self, SimTime t, int64_t hosts, int64_t vms), (self, t, hosts, vms))
PB_WRAP(kVulndb, void, StreamAdvanceTo, "_ZN7hypertp14ExposureStream9AdvanceToEl",
        (ExposureStream* self, SimTime t), (self, t))
PB_WRAP(kVulndb, void, StreamSeal, "_ZN7hypertp14ExposureStream4SealEl",
        (ExposureStream* self, SimTime t), (self, t))

// --- policy ------------------------------------------------------------------
PB_DECLARE(policy::HostPolicyPlan, PlanHost,
           "_ZNK7hypertp6policy15MechanismPolicy8PlanHostElRKNS0_10EnvSignalsElliNS_14HypervisorKindE",
           (const policy::MechanismPolicy* self, int64_t host, const policy::EnvSignals& env,
            int64_t vm_base, int64_t rng, int vms, HypervisorKind target))
policy::HostPolicyPlan Wrap_PlanHost(const policy::MechanismPolicy* self, int64_t host,
                                     const policy::EnvSignals& env, int64_t vm_base, int64_t rng,
                                     int vms, HypervisorKind target) {
  Span span(Layer::kPolicy, "MechanismPolicy::PlanHost");
  policy::HostPolicyPlan plan = Real_PlanHost(self, host, env, vm_base, rng, vms, target);
  Count(Counter::kPolicyDecisions, plan.inplace_vms + plan.migrate_vms + plan.refused_vms);
  return plan;
}
PB_WRAP(kPolicy, SimDuration, ScaledTransplant,
        "_ZN7hypertp6policy19TransplantCostModel16ScaledTransplantElRKNS0_13DcTimingModelE",
        (SimDuration base, const policy::DcTimingModel& timing), (base, timing))
PB_WRAP(kPolicy, SimDuration, ScaledDrain,
        "_ZN7hypertp6policy19TransplantCostModel11ScaledDrainElRKNS0_13DcTimingModelE",
        (SimDuration base, const policy::DcTimingModel& timing), (base, timing))
PB_WRAP(kPolicy, SimDuration, RemainingEstimate,
        "_ZN7hypertp6policy19TransplantCostModel17RemainingEstimateEli",
        (SimDuration pending, int parallel), (pending, parallel))

}  // namespace perfbench
