// Unit tests for src/hw: frame allocator, content words, scrubbing, machines.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/hw/machine.h"
#include "src/hw/physical_memory.h"

namespace hypertp {
namespace {

constexpr FrameOwner kGuest1{FrameOwnerKind::kGuest, 1};
constexpr FrameOwner kGuest2{FrameOwnerKind::kGuest, 2};
constexpr FrameOwner kHv{FrameOwnerKind::kHypervisor, 0};
constexpr FrameOwner kPram{FrameOwnerKind::kPramMeta, 0};

TEST(PhysicalMemoryTest, FreshRamIsAllFree) {
  PhysicalMemory ram(1 << 20);  // 1 MiB = 256 frames.
  EXPECT_EQ(ram.total_frames(), 256u);
  EXPECT_EQ(ram.free_frames(), 255u);  // Frame 0 is reserved.
  EXPECT_EQ(ram.allocated_frames(), 1u);
}

TEST(PhysicalMemoryTest, AllocThenFreeRestoresState) {
  PhysicalMemory ram(1 << 20);
  auto mfn = ram.Alloc(16, 1, kGuest1);
  ASSERT_TRUE(mfn.ok());
  EXPECT_EQ(ram.free_frames(), 239u);
  EXPECT_TRUE(ram.IsAllocated(*mfn));
  EXPECT_TRUE(ram.Free(*mfn, 16).ok());
  EXPECT_EQ(ram.free_frames(), 255u);
  EXPECT_FALSE(ram.IsAllocated(*mfn));
}

TEST(PhysicalMemoryTest, AlignmentRespected) {
  PhysicalMemory ram(16 << 20);
  // Misalign the heap with a single frame first.
  ASSERT_TRUE(ram.AllocFrame(kHv).ok());
  auto huge = ram.AllocHugePage(kGuest1);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(*huge % kFramesPerHugePage, 0u);
}

TEST(PhysicalMemoryTest, ExhaustionIsReported) {
  PhysicalMemory ram(64 * kPageSize);
  auto big = ram.Alloc(64, 1, kGuest1);  // Frame 0 is reserved, only 63 free.
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error().code(), ErrorCode::kResourceExhausted);
  // Fragmentation: allocate all, free every other frame, then ask for 2.
  std::vector<Mfn> frames;
  for (int i = 0; i < 63; ++i) {
    frames.push_back(ram.AllocFrame(kHv).value());
  }
  for (size_t i = 0; i < frames.size(); i += 2) {
    ASSERT_TRUE(ram.Free(frames[i], 1).ok());
  }
  EXPECT_EQ(ram.free_frames(), 32u);
  EXPECT_FALSE(ram.Alloc(2, 1, kGuest1).ok());
}

TEST(PhysicalMemoryTest, FreeCoalescesNeighbors) {
  PhysicalMemory ram(64 * kPageSize);
  Mfn a = ram.Alloc(8, 1, kHv).value();
  Mfn b = ram.Alloc(8, 1, kHv).value();
  Mfn c = ram.Alloc(8, 1, kHv).value();
  ASSERT_TRUE(ram.Free(a, 8).ok());
  ASSERT_TRUE(ram.Free(c, 8).ok());
  ASSERT_TRUE(ram.Free(b, 8).ok());
  // After coalescing we can allocate all usable RAM contiguously again.
  EXPECT_TRUE(ram.Alloc(63, 1, kGuest1).ok());
}

TEST(PhysicalMemoryTest, DoubleFreeRejected) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.Free(m, 4).ok());
  EXPECT_FALSE(ram.Free(m, 4).ok());
}

TEST(PhysicalMemoryTest, PartialFreeRejected) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  EXPECT_FALSE(ram.Free(m, 2).ok());
  EXPECT_FALSE(ram.Free(m + 1, 3).ok());
}

TEST(PhysicalMemoryTest, ContentWordsRoundTrip) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(2, 1, kGuest1).value();
  EXPECT_EQ(ram.ReadWord(m).value(), 0u);  // Fresh frame reads zero.
  ASSERT_TRUE(ram.WriteWord(m, 0xDEADBEEF).ok());
  EXPECT_EQ(ram.ReadWord(m).value(), 0xDEADBEEFu);
  EXPECT_EQ(ram.ReadWord(m + 1).value(), 0u);
}

TEST(PhysicalMemoryTest, WriteToFreeFrameRejected) {
  PhysicalMemory ram(1 << 20);
  EXPECT_FALSE(ram.WriteWord(10, 1).ok());
}

TEST(PhysicalMemoryTest, FreeErasesContent) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(1, 1, kGuest1).value();
  ASSERT_TRUE(ram.WriteWord(m, 77).ok());
  ASSERT_TRUE(ram.Free(m, 1).ok());
  Mfn m2 = ram.Alloc(1, 1, kGuest2).value();
  ASSERT_EQ(m, m2);  // First fit reuses the hole.
  EXPECT_EQ(ram.ReadWord(m2).value(), 0u);
}

// Every way of releasing an extent destroys exactly that extent's words,
// page payloads and backing; the neighbours on both sides keep theirs.
class ReleaseTest : public ::testing::TestWithParam<int> {};

TEST_P(ReleaseTest, DestroysOnlyTheReleasedExtentsContents) {
  PhysicalMemory ram(1 << 20);
  // [left | victim | right], adjacent, each with a word, a page and (for
  // the backed ones) a contiguous backing.
  const Mfn left = ram.Alloc(4, 1, kGuest2).value();
  const Mfn victim = ram.Alloc(4, 1, kGuest1).value();
  const Mfn right = ram.Alloc(4, 1, kPram).value();
  ASSERT_EQ(victim, left + 4);
  ASSERT_EQ(right, victim + 4);
  const Mfn backed = ram.Alloc(2, 1, kGuest1).value();  // Victim too (same owner).
  for (Mfn base : {left, victim, right}) {
    ASSERT_TRUE(ram.WriteWord(base + 3, 0x1000 + base).ok());
    ASSERT_TRUE(ram.WritePage(base + 1, {1, 2, 3}).ok());
  }
  ASSERT_TRUE(ram.BackExtent(backed, 2).ok());
  ASSERT_TRUE(ram.WritePage(backed, {9}).ok());
  ASSERT_TRUE(ram.WriteWord(backed + 1, 0xBB).ok());

  uint64_t released = 0;
  switch (GetParam()) {
    case 0:
      ASSERT_TRUE(ram.Free(victim, 4).ok());
      ASSERT_TRUE(ram.Free(backed, 2).ok());
      released = 6;
      break;
    case 1:
      released = ram.FreeAllOwnedBy(kGuest1);
      break;
    case 2:
      released = ram.ScrubExcept({FrameExtent{left, 4, kGuest2}, FrameExtent{right, 4, kPram}});
      break;
  }
  EXPECT_EQ(released, 6u);
  EXPECT_FALSE(ram.IsAllocated(victim));
  EXPECT_FALSE(ram.IsAllocated(backed));
  EXPECT_EQ(ram.allocated_frames(), 1u + 8u);

  // Re-allocating the released frames shows nothing of the old contents.
  const Mfn again = ram.Alloc(4, 1, kGuest2).value();
  ASSERT_EQ(again, victim);
  EXPECT_EQ(ram.ReadWord(victim + 3).value(), 0u);
  EXPECT_TRUE(ram.ReadPage(victim + 1).value().empty());
  const Mfn again_backed = ram.Alloc(2, 1, kGuest2).value();
  ASSERT_EQ(again_backed, backed);
  EXPECT_FALSE(ram.BackedExtent(backed, 2).ok());
  EXPECT_TRUE(ram.ReadPage(backed).value().empty());
  EXPECT_EQ(ram.ReadWord(backed + 1).value(), 0u);

  // Neighbours are intact.
  for (Mfn base : {left, right}) {
    EXPECT_EQ(ram.ReadWord(base + 3).value(), 0x1000 + base);
    EXPECT_EQ(ram.ReadPage(base + 1).value(), (std::vector<uint8_t>{1, 2, 3}));
  }
  EXPECT_EQ(ram.OwnerOf(left).value(), kGuest2);
  EXPECT_EQ(ram.OwnerOf(right).value(), kPram);
}

INSTANTIATE_TEST_SUITE_P(FreeFreeAllScrub, ReleaseTest, ::testing::Values(0, 1, 2));

TEST(PhysicalMemoryTest, OwnsRangeIsOneExtentOfOneOwner) {
  PhysicalMemory ram(1 << 20);  // 256 frames.
  const Mfn a = ram.Alloc(8, 1, kGuest1).value();
  const Mfn b = ram.Alloc(8, 1, kGuest1).value();  // Same owner, adjacent.
  ASSERT_EQ(b, a + 8);
  const Mfn c = ram.Alloc(4, 1, kGuest2).value();

  EXPECT_TRUE(ram.OwnsRange(a, 8, kGuest1));
  EXPECT_TRUE(ram.OwnsRange(a + 2, 3, kGuest1));
  EXPECT_TRUE(ram.OwnsRange(b + 7, 1, kGuest1));
  // Partial overlap: runs past the extent, or straddles two extents even
  // though both have this owner.
  EXPECT_FALSE(ram.OwnsRange(a + 4, 8, kGuest1));
  EXPECT_FALSE(ram.OwnsRange(b + 4, 5, kGuest1));
  // Foreign owner, same kind and other kind.
  EXPECT_FALSE(ram.OwnsRange(c, 4, kGuest1));
  EXPECT_FALSE(ram.OwnsRange(a, 8, kGuest2));
  EXPECT_FALSE(ram.OwnsRange(a, 8, kHv));
  // Free frames, the reserved frame 0, a range starting free and ending
  // allocated.
  EXPECT_FALSE(ram.OwnsRange(c + 4, 1, kGuest2));
  EXPECT_FALSE(ram.OwnsRange(0, 1, kHv));
  EXPECT_FALSE(ram.OwnsRange(a - 1, 2, kGuest1));
  // Out-of-range input: empty, beyond RAM, wrapping around.
  EXPECT_FALSE(ram.OwnsRange(a, 0, kGuest1));
  EXPECT_FALSE(ram.OwnsRange(ram.total_frames(), 1, kGuest1));
  EXPECT_FALSE(ram.OwnsRange(a, ~0ull, kGuest1));
  EXPECT_FALSE(ram.OwnsRange(~0ull, 2, kGuest1));
  // Ownership follows Reassign and dies with the extent.
  ASSERT_TRUE(ram.Reassign(c, 4, kGuest1).ok());
  EXPECT_TRUE(ram.OwnsRange(c, 4, kGuest1));
  EXPECT_EQ(ram.FreeAllOwnedBy(kGuest2), 0u);
  EXPECT_EQ(ram.FreeAllOwnedBy(kGuest1), 20u);
  EXPECT_FALSE(ram.OwnsRange(a, 1, kGuest1));
}

TEST(PhysicalMemoryTest, ForEachNonZeroWordWalksARangeInMfnOrder) {
  PhysicalMemory ram(4 << 20);  // 1024 frames.
  const Mfn a = ram.Alloc(200, 1, kGuest1).value();
  const Mfn b = ram.Alloc(100, 1, kGuest2).value();
  ASSERT_EQ(b, a + 200);
  std::vector<std::pair<Mfn, uint64_t>> want;
  for (Mfn m : {a + 1, a + 63, a + 64, a + 199, b, b + 99}) {
    ASSERT_TRUE(ram.WriteWord(m, m * 3).ok());
    want.emplace_back(m, m * 3);
  }
  ASSERT_TRUE(ram.WriteWord(a + 150, 5).ok());
  ASSERT_TRUE(ram.WriteWord(a + 150, 0).ok());  // Zeroed words are skipped.

  std::vector<std::pair<Mfn, uint64_t>> got;
  ram.ForEachNonZeroWord(a, 300, [&](Mfn m, uint64_t w) { got.emplace_back(m, w); });
  EXPECT_EQ(got, want);
  // A sub-range straddling the extents, and one over free frames.
  got.clear();
  ram.ForEachNonZeroWord(a + 64, 137, [&](Mfn m, uint64_t w) { got.emplace_back(m, w); });
  EXPECT_EQ(got, (std::vector<std::pair<Mfn, uint64_t>>{{a + 64, (a + 64) * 3},
                                                        {a + 199, (a + 199) * 3},
                                                        {b, b * 3}}));
  got.clear();
  ram.ForEachNonZeroWord(b + 100, 500, [&](Mfn m, uint64_t w) { got.emplace_back(m, w); });
  EXPECT_TRUE(got.empty());
}

TEST(PhysicalMemoryTest, OwnerTracking) {
  PhysicalMemory ram(1 << 20);
  Mfn g = ram.Alloc(8, 1, kGuest1).value();
  ram.Alloc(8, 1, kHv).value();
  EXPECT_EQ(ram.OwnerOf(g + 3).value(), kGuest1);
  EXPECT_EQ(ram.ExtentsOfKind(FrameOwnerKind::kGuest).size(), 1u);
  EXPECT_EQ(ram.FreeAllOwnedBy(kGuest1), 8u);
  EXPECT_FALSE(ram.OwnerOf(g).ok());
}

TEST(PhysicalMemoryTest, ScrubPreservesOnlyListedExtents) {
  PhysicalMemory ram(1 << 20);
  Mfn guest = ram.Alloc(8, 1, kGuest1).value();
  Mfn hv = ram.Alloc(8, 1, kHv).value();
  Mfn pram = ram.Alloc(2, 1, kPram).value();
  ASSERT_TRUE(ram.WriteWord(guest, 0x1111).ok());
  ASSERT_TRUE(ram.WriteWord(hv, 0x2222).ok());

  uint64_t scrubbed = ram.ScrubExcept({FrameExtent{guest, 8, kGuest1}, FrameExtent{pram, 2, kPram}});
  EXPECT_EQ(scrubbed, 8u);  // Only the hypervisor extent.
  EXPECT_EQ(ram.ReadWord(guest).value(), 0x1111u);  // Guest memory kept in place.
  EXPECT_EQ(ram.ReadWord(hv).value(), 0u);          // HV state destroyed.
  EXPECT_FALSE(ram.IsAllocated(hv));
  EXPECT_TRUE(ram.IsAllocated(pram));
}

TEST(PhysicalMemoryTest, ScrubWithoutReservationDestroysGuest) {
  // The negative test from DESIGN.md: forgetting the PRAM reservation loses
  // guest memory, as it would on real hardware.
  PhysicalMemory ram(1 << 20);
  Mfn guest = ram.Alloc(8, 1, kGuest1).value();
  ASSERT_TRUE(ram.WriteWord(guest, 0xAAAA).ok());
  ram.ScrubExcept({});
  EXPECT_EQ(ram.ReadWord(guest).value(), 0u);
  EXPECT_FALSE(ram.IsAllocated(guest));
}

TEST(PhysicalMemoryTest, ReassignChangesOwner) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.Reassign(m, 4, kGuest2).ok());
  EXPECT_EQ(ram.OwnerOf(m).value(), kGuest2);
  EXPECT_FALSE(ram.Reassign(m, 3, kGuest1).ok());
}

TEST(PhysicalMemoryTest, BackExtentProvidesZeroedContiguousStorage) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  auto backing = ram.BackExtent(base, 4);
  ASSERT_TRUE(backing.ok()) << backing.error().ToString();
  ASSERT_EQ(backing->size(), 4 * kPageSize);
  for (uint8_t b : *backing) {
    ASSERT_EQ(b, 0);
  }

  // Bytes written through the span are visible to page reads at the right
  // frame offset, and page writes land back in the span.
  (*backing)[kPageSize + 5] = 0xAB;
  auto page = ram.ReadPage(base + 1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[5], 0xAB);
  ASSERT_TRUE(ram.WritePage(base + 2, {0x11, 0x22}).ok());
  EXPECT_EQ((*backing)[2 * kPageSize], 0x11);
  EXPECT_EQ((*backing)[2 * kPageSize + 1], 0x22);
}

TEST(PhysicalMemoryTest, BackExtentRejectsInvalidRanges) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  EXPECT_FALSE(ram.BackExtent(base, 0).ok());
  EXPECT_FALSE(ram.BackExtent(base, 5).ok());       // Runs past the extent.
  EXPECT_FALSE(ram.BackExtent(base + 100, 1).ok()); // Unallocated.
  // A range straddling two separately allocated extents is rejected even if
  // the frames happen to be adjacent.
  Mfn second = ram.Alloc(4, 1, kGuest1).value();
  if (second == base + 4) {
    EXPECT_FALSE(ram.BackExtent(base, 8).ok());
  }
}

TEST(PhysicalMemoryTest, BackedExtentRequiresExactKey) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.BackExtent(base, 4).ok());
  EXPECT_TRUE(ram.BackedExtent(base, 4).ok());
  EXPECT_FALSE(ram.BackedExtent(base, 2).ok());      // Size mismatch.
  EXPECT_FALSE(ram.BackedExtent(base + 1, 3).ok());  // Interior start.
  EXPECT_FALSE(ram.BackedExtent(base + 4, 1).ok());  // Never backed.
}

TEST(PhysicalMemoryTest, FreeDropsBacking) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  auto backing = ram.BackExtent(base, 4);
  ASSERT_TRUE(backing.ok());
  (*backing)[0] = 0xEE;
  ASSERT_TRUE(ram.Free(base, 4).ok());
  EXPECT_FALSE(ram.BackedExtent(base, 4).ok());
  // Re-allocating and re-backing the same frames yields fresh zeroed storage.
  Mfn again = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_EQ(again, base);  // First-fit returns the same hole.
  auto fresh = ram.BackExtent(again, 4);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)[0], 0);
}

TEST(PhysicalMemoryTest, BackExtentSkipZeroPrefixStillZeroesTheTail) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(2, 1, kGuest1).value();
  const size_t prefix = kPageSize + 100;
  auto backing = ram.BackExtent(base, 2, prefix);
  ASSERT_TRUE(backing.ok());
  // The prefix is the caller's to fill; everything past it must be zero.
  for (size_t i = prefix; i < backing->size(); ++i) {
    ASSERT_EQ((*backing)[i], 0) << "offset " << i;
  }
  std::fill(backing->begin(), backing->begin() + static_cast<ptrdiff_t>(prefix), 0x77);
  auto page = ram.ReadPage(base + 1);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[99], 0x77);
  EXPECT_EQ((*page)[100], 0x00);
  // A skip larger than the backing is clamped, not an error.
  Mfn other = ram.Alloc(1, 1, kGuest1).value();
  EXPECT_TRUE(ram.BackExtent(other, 1, 10 * kPageSize).ok());
}

TEST(PhysicalMemoryTest, ReBackingResetsContents) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(2, 1, kGuest1).value();
  auto first = ram.BackExtent(base, 2);
  ASSERT_TRUE(first.ok());
  std::fill(first->begin(), first->end(), 0x5A);
  auto second = ram.BackExtent(base, 2);
  ASSERT_TRUE(second.ok());
  for (uint8_t b : *second) {
    ASSERT_EQ(b, 0);
  }
}

TEST(MachineTest, ProfilesMatchTable3) {
  MachineProfile m1 = MachineProfile::M1();
  EXPECT_EQ(m1.threads, 8);
  EXPECT_EQ(m1.ram_bytes, 16ull << 30);
  EXPECT_DOUBLE_EQ(m1.network_gbps, 1.0);

  MachineProfile m2 = MachineProfile::M2();
  EXPECT_EQ(m2.threads, 28);
  EXPECT_EQ(m2.ram_bytes, 64ull << 30);

  MachineProfile c1 = MachineProfile::C1();
  EXPECT_EQ(c1.ram_bytes, 96ull << 30);
  EXPECT_DOUBLE_EQ(c1.network_gbps, 10.0);
}

TEST(MachineTest, WorkerThreadsExcludeAdminReservation) {
  Machine m1(MachineProfile::M1(), 1);
  EXPECT_EQ(m1.worker_threads(), 6);  // 8 threads - 2 reserved.
  Machine m2(MachineProfile::M2(), 2);
  EXPECT_EQ(m2.worker_threads(), 26);
}

TEST(MachineTest, MemoryMatchesProfile) {
  Machine m(MachineProfile::M1(), 7);
  EXPECT_EQ(m.memory().total_bytes(), 16ull << 30);
  EXPECT_EQ(m.hostname(), "M1-7");
}

}  // namespace
}  // namespace hypertp
