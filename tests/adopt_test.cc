// The in-place adopt path shared by Xen, KVM and bhyve (src/hv/guest_memory):
// a restore that adopts PRAM-described frames must refuse every binding whose
// frames did not survive as this VM's own extents, naming the hypervisor, the
// frames and the uid.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/factory.h"
#include "src/hv/hypervisor.h"

namespace hypertp {
namespace {

constexpr uint64_t kUid = 4242;
constexpr uint64_t kVmFrames = 16;
constexpr FrameOwner kOwner{FrameOwnerKind::kGuest, kUid};

// A frame range as the adopt errors print it: "[base, +count)".
std::string Range(Mfn base, uint64_t count) {
  std::string out = "[";
  out += std::to_string(base);
  out += ", +";
  out += std::to_string(count);
  out += ")";
  return out;
}

class AdoptRefusalTest : public ::testing::TestWithParam<HypervisorKind> {
 protected:
  void SetUp() override {
    hv_ = MakeHypervisor(GetParam(), machine_);
    VmConfig config = VmConfig::Small("adoptee");
    config.uid = kUid;
    config.memory_bytes = kVmFrames * kPageSize;
    config.huge_pages = false;
    const VmId id = hv_->CreateVm(config).value();
    ASSERT_TRUE(hv_->PrepareVmForTransplant(id).ok());
    ASSERT_TRUE(hv_->PauseVm(id).ok());
    uisr_ = hv_->SaveVmToUisr(id, nullptr).value();
    ASSERT_TRUE(hv_->DestroyVm(id).ok());
  }

  PhysicalMemory& ram() { return machine_.memory(); }

  // Adopts `entries` for the saved VM and expects a kDataLoss naming the
  // hypervisor, the uid and every needle.
  void ExpectRefused(const std::vector<PramPageEntry>& entries,
                     std::initializer_list<std::string> needles) {
    GuestMemoryBinding binding;
    binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
    binding.entries = entries;
    auto restored = hv_->RestoreVmFromUisr(uisr_, binding, nullptr);
    ASSERT_FALSE(restored.ok());
    const std::string message = restored.error().ToString();
    EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss) << message;
    const std::string prefix = std::string(HypervisorKindName(GetParam())) + ": ";
    EXPECT_NE(message.find(prefix), std::string::npos) << message;
    EXPECT_NE(message.find("uid " + std::to_string(kUid)), std::string::npos) << message;
    for (const std::string& needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos) << message << " lacks " << needle;
    }
    EXPECT_TRUE(hv_->ListVms().empty());  // Nothing half-restored stays hosted.
  }

  Machine machine_{MachineProfile::M1(), 1};
  std::unique_ptr<Hypervisor> hv_;
  UisrVm uisr_;
};

TEST_P(AdoptRefusalTest, EntryNamingAFreeFrame) {
  const Mfn base = ram().Alloc(kVmFrames, 1, kOwner).value();
  ASSERT_TRUE(ram().Free(base, kVmFrames).ok());
  std::vector<PramPageEntry> entries;
  BuildEntriesForRange(0, base, kVmFrames, false, entries);
  ExpectRefused(entries, {Range(base, 1)});
}

TEST_P(AdoptRefusalTest, FrameOwnedByAnotherUid) {
  const Mfn mine = ram().Alloc(kVmFrames - 1, 1, kOwner).value();
  const Mfn theirs = ram().AllocFrame(FrameOwner{FrameOwnerKind::kGuest, kUid + 1}).value();
  std::vector<PramPageEntry> entries;
  BuildEntriesForRange(0, mine, kVmFrames - 1, false, entries);
  entries.push_back(PramPageEntry{kVmFrames - 1, theirs, 0});
  ExpectRefused(entries, {Range(theirs, 1)});
}

TEST_P(AdoptRefusalTest, EntryStraddlingTwoExtents) {
  // Two adjacent one-frame extents of this VM, the first 2-aligned, so one
  // order-1 entry can cover both although neither extent holds it.
  Mfn first = ram().AllocFrame(kOwner).value();
  Mfn second = ram().AllocFrame(kOwner).value();
  while (second != first + 1 || first % 2 != 0) {
    first = second;
    second = ram().AllocFrame(kOwner).value();
  }
  const Mfn rest = ram().Alloc(kVmFrames - 2, 1, kOwner).value();
  std::vector<PramPageEntry> entries = {PramPageEntry{0, first, 1}};
  BuildEntriesForRange(2, rest, kVmFrames - 2, false, entries);
  ExpectRefused(entries, {Range(first, 2)});
}

TEST_P(AdoptRefusalTest, EntriesCoveringFewerFramesThanDeclared) {
  const Mfn base = ram().Alloc(kVmFrames, 1, kOwner).value();
  std::vector<PramPageEntry> entries;
  BuildEntriesForRange(0, base, kVmFrames / 2, false, entries);
  ExpectRefused(entries, {"covers " + std::to_string(kVmFrames / 2) + " frames",
                          "declares " + std::to_string(kVmFrames)});
}

TEST_P(AdoptRefusalTest, ExactBindingIsAdopted) {
  // The control: the same VM with its own frames restores in place.
  const Mfn base = ram().Alloc(kVmFrames, 1, kOwner).value();
  ASSERT_TRUE(ram().WriteWord(base + 5, 0xFEED).ok());
  GuestMemoryBinding binding;
  binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
  BuildEntriesForRange(0, base, kVmFrames, false, binding.entries);
  auto restored = hv_->RestoreVmFromUisr(uisr_, binding, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  EXPECT_EQ(hv_->ReadGuestPage(*restored, 5).value(), 0xFEEDu);
  EXPECT_EQ(hv_->GuestMemoryMap(*restored).value(),
            (std::vector<GuestMapping>{GuestMapping{0, base, kVmFrames}}));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AdoptRefusalTest,
                         ::testing::Values(HypervisorKind::kXen, HypervisorKind::kKvm,
                                           HypervisorKind::kBhyve),
                         [](const auto& info) {
                           return std::string(HypervisorKindName(info.param));
                         });

}  // namespace
}  // namespace hypertp
