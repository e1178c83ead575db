// Property/fuzz tests for PRAM: randomized guest layouts round-trip through
// build -> finalize -> parse -> preserve -> scrub, seeded and parameterized;
// hostile-chain probes must fail closed instead of hanging.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/base/crc32.h"
#include "src/pram/pram.h"
#include "src/sim/rng.h"

namespace hypertp {
namespace {

class PramFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PramFuzzTest, RandomLayoutsSurviveTheFullCycle) {
  Rng rng(GetParam());
  PhysicalMemory ram(512ull << 20);  // 128k frames.

  // Random number of VMs with random scattered allocations.
  const int vm_count = static_cast<int>(rng.NextInRange(1, 6));
  PramBuilder builder(ram);
  struct VmLayout {
    uint64_t file_id;
    std::vector<PramPageEntry> entries;
    std::map<Mfn, uint64_t> probes;  // mfn -> expected word (last write wins).
  };
  std::vector<VmLayout> layouts;

  for (int v = 0; v < vm_count; ++v) {
    VmLayout layout;
    std::vector<std::pair<Gfn, Mfn>> map;
    Gfn gfn = 0;
    const int chunks = static_cast<int>(rng.NextInRange(1, 8));
    for (int c = 0; c < chunks; ++c) {
      const uint64_t frames = static_cast<uint64_t>(rng.NextInRange(1, 2048));
      auto mfn = ram.Alloc(frames, 1, FrameOwner{FrameOwnerKind::kGuest, 100 + static_cast<uint64_t>(v)});
      if (!mfn.ok()) {
        break;  // RAM full: use what we have.
      }
      // Random GFN hole before this chunk.
      gfn += static_cast<Gfn>(rng.NextInRange(0, 512));
      for (uint64_t i = 0; i < frames; ++i) {
        map.emplace_back(gfn + i, *mfn + i);
      }
      // Probe a few random frames with content.
      for (int p = 0; p < 3; ++p) {
        const Mfn probe = *mfn + static_cast<uint64_t>(rng.NextBelow(frames));
        const uint64_t word = rng.NextU64() | 1;
        EXPECT_TRUE(ram.WriteWord(probe, word).ok());
        layout.probes[probe] = word;
      }
      gfn += frames;
    }
    if (map.empty()) {
      continue;
    }
    layout.entries = BuildPageEntries(map, rng.NextBool(0.5));
    auto id = builder.AddFile("fuzz-vm-" + std::to_string(v), map.size() * kPageSize, false,
                              layout.entries);
    ASSERT_TRUE(id.ok()) << id.error().ToString();
    layout.file_id = *id;
    layouts.push_back(std::move(layout));
  }

  // Interleave hostile allocations that must be scrubbed.
  std::vector<Mfn> hostiles;
  for (int i = 0; i < 10; ++i) {
    auto mfn = ram.Alloc(static_cast<uint64_t>(rng.NextInRange(1, 256)), 1,
                         FrameOwner{FrameOwnerKind::kHypervisor, 0});
    if (mfn.ok()) {
      hostiles.push_back(*mfn);
    }
  }

  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_TRUE(image.ok()) << image.error().ToString();
  ASSERT_EQ(image->files.size(), layouts.size());
  for (size_t v = 0; v < layouts.size(); ++v) {
    EXPECT_EQ(image->files[v].entries, layouts[v].entries) << "vm " << v;
  }

  auto preserve = PramPreservationList(ram, handle->root_mfn, *image);
  ASSERT_TRUE(preserve.ok());
  ram.ScrubExcept(*preserve);

  // Every probed guest word survived; every hostile frame did not.
  for (const VmLayout& layout : layouts) {
    for (const auto& [mfn, word] : layout.probes) {
      EXPECT_EQ(ram.ReadWord(mfn).value(), word);
    }
  }
  for (Mfn hostile : hostiles) {
    EXPECT_FALSE(ram.IsAllocated(hostile));
  }
  // And PRAM still parses post-scrub.
  EXPECT_TRUE(ParsePram(ram, handle->root_mfn).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PramFuzzTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull,
                                           55ull, 89ull));

// Hostile PRAM chains. The source side of a transplant may be compromised
// and writes the structures the target parses at early boot, so each probe
// rewrites a metadata page *and re-seals its CRC*, reaching the walk's
// semantic checks. Every probe must fail closed with a named kDataLoss; a
// regression hangs or exhausts memory, which the ctest TIMEOUT turns into a
// failure.
class PramHostileChainTest : public ::testing::Test {
 protected:
  // Two files of one node page each; the walk record locates every page:
  // root, then per file its info page followed by its node pages.
  void SetUp() override {
    PramBuilder builder(ram_);
    for (const char* name : {"vm-a", "vm-b"}) {
      const Mfn base = ram_.Alloc(8, 1, FrameOwner{FrameOwnerKind::kGuest, 1}).value();
      std::vector<PramPageEntry> entries;
      BuildEntriesForRange(0, base, 8, false, entries);
      ASSERT_TRUE(builder.AddFile(name, 8 * kPageSize, false, entries).ok());
    }
    root_ = builder.Finalize().value().root_mfn;
    const PramImage image = ParsePram(ram_, root_).value();
    ASSERT_EQ(image.metadata_mfns.size(), 5u);
    ASSERT_EQ(image.metadata_mfns.front(), root_);
    info_a_ = image.metadata_mfns[1];
    node_a_ = image.metadata_mfns[2];
    info_b_ = image.metadata_mfns[3];
  }

  // Applies `edit` to the page at `mfn` and re-seals its CRC.
  void Reseal(Mfn mfn, const std::function<void(std::vector<uint8_t>&)>& edit) {
    std::vector<uint8_t> page = ram_.ReadPage(mfn).value();
    edit(page);
    std::fill(page.begin() + 4, page.begin() + 8, 0);
    const uint32_t crc = Crc32(page);
    for (int i = 0; i < 4; ++i) {
      page[4 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
    }
    ASSERT_TRUE(ram_.WritePage(mfn, std::move(page)).ok());
  }
  static void PutU64(std::vector<uint8_t>& page, size_t offset, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      page[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  // Offsets inside the pages: root/node `next` follows the 8-byte header and
  // the node word count follows `next`; a file info page holds id, name
  // (u32 length + bytes), size and the huge flag before its node pointer
  // and entry count.
  static constexpr size_t kNextOffset = 8;
  static constexpr size_t kCountOffset = 16;
  static constexpr size_t kInfoNodeOffset = 8 + 8 + 4 + 4 + 8 + 1;  // 4-byte names.
  static constexpr size_t kInfoEntryCountOffset = kInfoNodeOffset + 8;

  // Parses and expects a kDataLoss whose message contains every `needle`.
  void ExpectRejected(std::initializer_list<std::string> needles) {
    auto image = ParsePram(ram_, root_);
    ASSERT_FALSE(image.ok());
    EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss) << image.error().ToString();
    for (const std::string& needle : needles) {
      EXPECT_NE(image.error().ToString().find(needle), std::string::npos)
          << image.error().ToString() << " lacks '" << needle << "'";
    }
  }

  PhysicalMemory ram_{64ull << 20};
  Mfn root_ = 0;
  Mfn info_a_ = 0;
  Mfn node_a_ = 0;
  Mfn info_b_ = 0;
};

TEST_F(PramHostileChainTest, SelfLinkedRootPage) {
  Reseal(root_, [&](std::vector<uint8_t>& page) { PutU64(page, kNextOffset, root_); });
  ExpectRejected({"root chain", std::to_string(root_)});
}

TEST_F(PramHostileChainTest, SelfLinkedNodePageWithWords) {
  Reseal(node_a_, [&](std::vector<uint8_t>& page) { PutU64(page, kNextOffset, node_a_); });
  ExpectRejected({"node chain", "'vm-a'", std::to_string(node_a_)});
}

TEST_F(PramHostileChainTest, SelfLinkedNodePageWithZeroWords) {
  Reseal(node_a_, [&](std::vector<uint8_t>& page) {
    PutU64(page, kNextOffset, node_a_);
    std::fill(page.begin() + kCountOffset, page.begin() + kCountOffset + 4, 0);
  });
  ExpectRejected({"node chain", "'vm-a'", std::to_string(node_a_)});
}

TEST_F(PramHostileChainTest, NodePageSharedByTwoFiles) {
  Reseal(info_b_, [&](std::vector<uint8_t>& page) { PutU64(page, kInfoNodeOffset, node_a_); });
  ExpectRejected({"node chain", "'vm-b'", std::to_string(node_a_)});
}

TEST_F(PramHostileChainTest, NodeChainLongerThanDeclared) {
  Reseal(info_a_, [&](std::vector<uint8_t>& page) { PutU64(page, kInfoEntryCountOffset, 3); });
  ExpectRejected({"'vm-a'", "more than the 3 entries"});
}

TEST_F(PramHostileChainTest, PreservationListNeedsTheWalkRecord) {
  const PramImage image = ParsePram(ram_, root_).value();
  EXPECT_TRUE(PramPreservationList(ram_, root_, image).ok());
  PramImage builder_side;
  builder_side.files = image.files;
  EXPECT_EQ(builder_side, image);  // Equality compares files only.
  EXPECT_FALSE(PramPreservationList(ram_, root_, builder_side).ok());
  EXPECT_FALSE(PramPreservationList(ram_, info_a_, image).ok());
}

// Differential fuzz of the CRC32 implementations against the bitwise
// reference: the dispatched hot path (carry-less multiply on hardware that
// has it, else sliced), the portable slice-by-8 path, random lengths (biased
// toward the word/fold boundaries where the head/body/tail logic lives),
// random content, random streaming splits. PRAM metadata integrity rides
// entirely on this CRC, hence the fuzz here.
class Crc32FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Crc32FuzzTest, AllImplementationsMatchBitwiseReference) {
  Rng rng(GetParam() ^ 0xC7C32ull);
  for (int iter = 0; iter < 200; ++iter) {
    const bool near_boundary = rng.NextBool(0.5);
    // 0..80 straddles the 8-byte sliced group and the 64-byte fold entry;
    // the long lengths exercise the bulk loops and their 16-byte tails.
    const size_t len = near_boundary
                           ? static_cast<size_t>(rng.NextInRange(0, 80))
                           : static_cast<size_t>(rng.NextInRange(0, 8192));
    std::vector<uint8_t> data(len);
    for (size_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(rng.NextU64());
    }

    const uint32_t bitwise = Crc32UpdateBitwise(0, data);
    ASSERT_EQ(Crc32(data), bitwise) << "len " << len;
    ASSERT_EQ(Crc32UpdateSliced(0, data), bitwise) << "len " << len;

    // Streaming composition at a random split must agree for every path.
    const size_t split = static_cast<size_t>(rng.NextBelow(len + 1));
    const auto head = std::span<const uint8_t>(data).first(split);
    const auto tail = std::span<const uint8_t>(data).subspan(split);
    ASSERT_EQ(Crc32Update(Crc32(head), tail), bitwise) << "len " << len << " split " << split;
    ASSERT_EQ(Crc32UpdateSliced(Crc32UpdateSliced(0, head), tail), bitwise)
        << "len " << len << " split " << split;
    ASSERT_EQ(Crc32UpdateBitwise(Crc32UpdateBitwise(0, head), tail), bitwise)
        << "len " << len << " split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Crc32FuzzTest, ::testing::Values(7ull, 11ull, 23ull, 47ull));

}  // namespace
}  // namespace hypertp
