#include "src/pram/pram.h"

#include <algorithm>
#include <unordered_set>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/base/logging.h"

namespace hypertp {
namespace {

constexpr uint32_t kRootMagic = 0x4D415250;  // "PRAM"
constexpr uint32_t kFileMagic = 0x49465250;  // "PRFI"
constexpr uint32_t kNodeMagic = 0x444E5250;  // "PRND"

// Page header: magic u32 + crc u32.
constexpr size_t kPageHeaderSize = 8;
// Root page: header + next u64 + count u32.
constexpr size_t kRootHeaderSize = kPageHeaderSize + 8 + 4;
constexpr size_t kRootCapacity = (kPageSize - kRootHeaderSize) / 8;
// Node page: header + next u64 + count u32.
constexpr size_t kNodeHeaderSize = kPageHeaderSize + 8 + 4;
constexpr size_t kNodeCapacity = (kPageSize - kNodeHeaderSize) / 8;

// 8-byte packed page entry:
//   bits 63..60  type: 0 = map, 1 = skip
//   map:  bits 51..48 order, bits 47..0 mfn
//   skip: bits 47..0 gfn delta (pages)
constexpr uint64_t kEntryTypeShift = 60;
constexpr uint64_t kEntryTypeMap = 0;
constexpr uint64_t kEntryTypeSkip = 1;
constexpr uint64_t kEntryOrderShift = 48;
constexpr uint64_t kEntryOrderMask = 0xF;
constexpr uint64_t kEntryValueMask = 0xFFFFFFFFFFFFull;  // Low 48 bits.

uint64_t PackMapEntry(Mfn mfn, uint8_t order) {
  return (kEntryTypeMap << kEntryTypeShift) |
         ((static_cast<uint64_t>(order) & kEntryOrderMask) << kEntryOrderShift) |
         (mfn & kEntryValueMask);
}

uint64_t PackSkipEntry(uint64_t delta_pages) {
  return (kEntryTypeSkip << kEntryTypeShift) | (delta_pages & kEntryValueMask);
}

// Finishes a metadata page: computes the CRC over the payload (with the CRC
// field still zero), patches it in, and writes the page to RAM.
Result<void> CommitPage(PhysicalMemory& ram, Mfn mfn, ByteWriter&& w) {
  std::vector<uint8_t> bytes = w.TakeBytes();
  const uint32_t crc = Crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return ram.WritePage(mfn, std::move(bytes));
}

// Reads a metadata page and validates magic + CRC.
Result<std::vector<uint8_t>> LoadPage(const PhysicalMemory& ram, Mfn mfn,
                                      uint32_t expected_magic) {
  HYPERTP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ram.ReadPage(mfn));
  if (bytes.size() < kPageHeaderSize) {
    return DataLossError("pram: metadata page at mfn " + std::to_string(mfn) +
                         " is empty or scrubbed");
  }
  ByteReader r(bytes);
  HYPERTP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != expected_magic) {
    return DataLossError("pram: bad magic at mfn " + std::to_string(mfn));
  }
  HYPERTP_ASSIGN_OR_RETURN(uint32_t stored_crc, r.ReadU32());
  std::vector<uint8_t> zeroed = bytes;
  for (size_t i = 4; i < 8; ++i) {
    zeroed[i] = 0;
  }
  if (Crc32(zeroed) != stored_crc) {
    return DataLossError("pram: CRC mismatch at mfn " + std::to_string(mfn));
  }
  return bytes;
}

uint64_t NodePagesFor(const PramFile& file) {
  // One packed word per entry, plus one skip word per GFN discontinuity.
  uint64_t words = 0;
  Gfn cursor = 0;
  for (const PramPageEntry& e : file.entries) {
    if (e.gfn != cursor) {
      ++words;
    }
    ++words;
    cursor = e.gfn + e.frame_count();
  }
  return (words + kNodeCapacity - 1) / kNodeCapacity;
}

}  // namespace

const PramFile* PramImage::FindFile(uint64_t file_id) const {
  for (const PramFile& f : files) {
    if (f.file_id == file_id) {
      return &f;
    }
  }
  return nullptr;
}

Result<uint64_t> PramBuilder::AddFile(std::string name, uint64_t size_bytes, bool huge_pages,
                                      std::vector<PramPageEntry> entries) {
  if (finalized_) {
    return FailedPreconditionError("pram builder already finalized");
  }
  if (name.size() > kPramMaxNameLength) {
    return InvalidArgumentError("pram file name too long: " + name);
  }
  Gfn prev_end = 0;
  bool first = true;
  for (const PramPageEntry& e : entries) {
    if (e.order > 12) {
      return InvalidArgumentError("pram entry order " + std::to_string(e.order) + " implausible");
    }
    if (e.gfn % e.frame_count() != 0 || e.mfn % e.frame_count() != 0) {
      return InvalidArgumentError("pram entry gfn/mfn not aligned to its order");
    }
    if (!first && e.gfn < prev_end) {
      return InvalidArgumentError("pram entries overlap or are not sorted by gfn");
    }
    prev_end = e.gfn + e.frame_count();
    first = false;
  }
  PramFile file;
  file.file_id = next_file_id_++;
  file.name = std::move(name);
  file.size_bytes = size_bytes;
  file.huge_pages = huge_pages;
  file.entries = std::move(entries);
  image_.files.push_back(std::move(file));
  return image_.files.back().file_id;
}

uint64_t PramBuilder::MetadataPagesNeeded() const {
  // One file-info page per file, node pages per file, and root pages holding
  // one pointer per file.
  uint64_t pages = 0;
  for (const PramFile& f : image_.files) {
    pages += 1 + NodePagesFor(f);
  }
  const uint64_t roots =
      image_.files.empty() ? 1 : (image_.files.size() + kRootCapacity - 1) / kRootCapacity;
  return pages + roots;
}

Result<PramHandle> PramBuilder::Finalize() {
  if (finalized_) {
    return FailedPreconditionError("pram builder already finalized");
  }
  finalized_ = true;

  PramHandle handle;
  const FrameOwner owner{FrameOwnerKind::kPramMeta, 0};
  auto alloc_page = [&]() -> Result<Mfn> {
    HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, ram_->AllocFrame(owner));
    ++handle.metadata_pages;
    return mfn;
  };

  // Lay out per-file node chains and file-info pages first, then the roots.
  std::vector<Mfn> file_info_mfns;
  for (const PramFile& file : image_.files) {
    // Pack entries into words.
    std::vector<uint64_t> words;
    Gfn cursor = 0;
    for (const PramPageEntry& e : file.entries) {
      if (e.gfn != cursor) {
        words.push_back(PackSkipEntry(e.gfn - cursor));
      }
      words.push_back(PackMapEntry(e.mfn, e.order));
      cursor = e.gfn + e.frame_count();
    }

    // Node chain, written back-to-front so each page knows its successor.
    Mfn next_node = 0;
    const size_t node_count = (words.size() + kNodeCapacity - 1) / kNodeCapacity;
    for (size_t page = node_count; page-- > 0;) {
      const size_t begin = page * kNodeCapacity;
      const size_t end = std::min(begin + kNodeCapacity, words.size());
      HYPERTP_ASSIGN_OR_RETURN(Mfn node_mfn, alloc_page());
      ByteWriter w;
      w.PutU32(kNodeMagic);
      w.PutU32(0);  // CRC placeholder.
      w.PutU64(next_node);
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        w.PutU64(words[i]);
      }
      HYPERTP_RETURN_IF_ERROR(CommitPage(*ram_, node_mfn, std::move(w)));
      next_node = node_mfn;
    }

    HYPERTP_ASSIGN_OR_RETURN(Mfn info_mfn, alloc_page());
    ByteWriter w;
    w.PutU32(kFileMagic);
    w.PutU32(0);
    w.PutU64(file.file_id);
    w.PutString(file.name);
    w.PutU64(file.size_bytes);
    w.PutU8(file.huge_pages ? 1 : 0);
    w.PutU64(next_node);
    w.PutU64(file.entries.size());
    HYPERTP_RETURN_IF_ERROR(CommitPage(*ram_, info_mfn, std::move(w)));
    file_info_mfns.push_back(info_mfn);
  }

  // Root directory chain, also written back-to-front.
  Mfn next_root = 0;
  const size_t root_count =
      file_info_mfns.empty() ? 1 : (file_info_mfns.size() + kRootCapacity - 1) / kRootCapacity;
  for (size_t page = root_count; page-- > 0;) {
    const size_t begin = page * kRootCapacity;
    const size_t end = std::min(begin + kRootCapacity, file_info_mfns.size());
    HYPERTP_ASSIGN_OR_RETURN(Mfn root_mfn, alloc_page());
    ByteWriter w;
    w.PutU32(kRootMagic);
    w.PutU32(0);
    w.PutU64(next_root);
    w.PutU32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      w.PutU64(file_info_mfns[i]);
    }
    HYPERTP_RETURN_IF_ERROR(CommitPage(*ram_, root_mfn, std::move(w)));
    next_root = root_mfn;
  }
  handle.root_mfn = next_root;

  HYPERTP_LOG(kInfo, "pram") << "finalized " << image_.files.size() << " files, "
                             << handle.metadata_pages << " metadata pages, root mfn "
                             << handle.root_mfn;
  return handle;
}

Result<PramImage> ParsePram(const PhysicalMemory& ram, Mfn root_mfn) {
  PramImage image;
  std::unordered_set<Mfn> visited;
  // Records `mfn` in the walk; false when the walk already reached it.
  auto visit = [&](Mfn mfn) {
    image.metadata_mfns.push_back(mfn);
    return visited.insert(mfn).second;
  };
  for (Mfn root = root_mfn; root != 0;) {
    if (!visit(root)) {
      return DataLossError("pram: root chain revisits mfn " + std::to_string(root));
    }
    HYPERTP_ASSIGN_OR_RETURN(auto root_bytes, LoadPage(ram, root, kRootMagic));
    ByteReader r(root_bytes);
    HYPERTP_RETURN_IF_ERROR(r.Skip(kPageHeaderSize));
    HYPERTP_ASSIGN_OR_RETURN(Mfn next_root, r.ReadU64());
    HYPERTP_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    if (count > kRootCapacity) {
      return DataLossError("pram: root page entry count out of range");
    }
    for (uint32_t i = 0; i < count; ++i) {
      HYPERTP_ASSIGN_OR_RETURN(Mfn info_mfn, r.ReadU64());
      if (!visit(info_mfn)) {
        return DataLossError("pram: root chain reaches file info page at mfn " +
                             std::to_string(info_mfn) + " twice");
      }
      HYPERTP_ASSIGN_OR_RETURN(auto info_bytes, LoadPage(ram, info_mfn, kFileMagic));
      ByteReader fr(info_bytes);
      HYPERTP_RETURN_IF_ERROR(fr.Skip(kPageHeaderSize));
      PramFile file;
      HYPERTP_ASSIGN_OR_RETURN(file.file_id, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(file.name, fr.ReadString());
      HYPERTP_ASSIGN_OR_RETURN(file.size_bytes, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(uint8_t huge, fr.ReadU8());
      file.huge_pages = huge != 0;
      HYPERTP_ASSIGN_OR_RETURN(Mfn node_mfn, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(uint64_t entry_count, fr.ReadU64());

      Gfn cursor = 0;
      while (node_mfn != 0) {
        if (!visit(node_mfn)) {
          return DataLossError("pram: node chain of file '" + file.name + "' revisits mfn " +
                               std::to_string(node_mfn));
        }
        HYPERTP_ASSIGN_OR_RETURN(auto node_bytes, LoadPage(ram, node_mfn, kNodeMagic));
        ByteReader nr(node_bytes);
        HYPERTP_RETURN_IF_ERROR(nr.Skip(kPageHeaderSize));
        HYPERTP_ASSIGN_OR_RETURN(Mfn next_node, nr.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(uint32_t word_count, nr.ReadU32());
        if (word_count > kNodeCapacity) {
          return DataLossError("pram: node page word count out of range");
        }
        for (uint32_t j = 0; j < word_count; ++j) {
          HYPERTP_ASSIGN_OR_RETURN(uint64_t word, nr.ReadU64());
          const uint64_t type = word >> kEntryTypeShift;
          if (type == kEntryTypeSkip) {
            cursor += word & kEntryValueMask;
          } else if (type == kEntryTypeMap) {
            if (file.entries.size() == entry_count) {
              return DataLossError("pram: node chain of file '" + file.name +
                                   "' yields more than the " + std::to_string(entry_count) +
                                   " entries its file info page declares");
            }
            PramPageEntry e;
            e.mfn = word & kEntryValueMask;
            e.order = static_cast<uint8_t>((word >> kEntryOrderShift) & kEntryOrderMask);
            e.gfn = cursor;
            cursor += e.frame_count();
            file.entries.push_back(e);
          } else {
            return DataLossError("pram: unknown entry type " + std::to_string(type));
          }
        }
        node_mfn = next_node;
      }
      if (file.entries.size() != entry_count) {
        return DataLossError("pram: file '" + file.name + "' declares " +
                             std::to_string(entry_count) + " entries, found " +
                             std::to_string(file.entries.size()));
      }
      image.files.push_back(std::move(file));
    }
    root = next_root;
  }
  return image;
}

Result<std::vector<FrameExtent>> PramPreservationList(const PhysicalMemory& /*ram*/,
                                                      Mfn root_mfn, const PramImage& image) {
  if (image.metadata_mfns.empty() || image.metadata_mfns.front() != root_mfn) {
    return InvalidArgumentError("pram: preservation list needs the image ParsePram walked from "
                                "root mfn " + std::to_string(root_mfn));
  }
  const FrameOwner meta{FrameOwnerKind::kPramMeta, 0};
  std::vector<FrameExtent> runs;
  runs.reserve(image.metadata_mfns.size());
  for (Mfn mfn : image.metadata_mfns) {
    runs.push_back(FrameExtent{mfn, 1, meta});
  }
  // Guest frames named by page entries, merged into MFN-adjacent runs while
  // walking each file in gfn order.
  for (const PramFile& file : image.files) {
    const FrameOwner owner{FrameOwnerKind::kGuest, file.file_id};
    const size_t first = runs.size();
    for (const PramPageEntry& e : file.entries) {
      if (runs.size() > first && runs.back().end() == e.mfn) {
        runs.back().count += e.frame_count();
      } else {
        runs.push_back(FrameExtent{e.mfn, e.frame_count(), owner});
      }
    }
  }

  // Sort and coalesce adjacent/overlapping runs so a guest allocation that
  // spans many PRAM entries is covered by one preserved extent.
  std::sort(runs.begin(), runs.end(),
            [](const FrameExtent& a, const FrameExtent& b) { return a.base < b.base; });
  std::vector<FrameExtent> merged;
  for (const FrameExtent& e : runs) {
    if (!merged.empty() && e.base <= merged.back().end()) {
      merged.back().count = std::max(merged.back().end(), e.end()) - merged.back().base;
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

void BuildEntriesForRange(Gfn gfn, Mfn mfn, uint64_t frames, bool huge_pages,
                          std::vector<PramPageEntry>& out) {
  // Huge entries need gfn and mfn 512-aligned at the same spot. Advancing
  // moves both by the same amount, so the alignment gap (gfn - mfn) mod 512
  // is invariant across the run: either some boundary aligns both, or none
  // ever will and the whole run is order-0.
  const bool alignable =
      huge_pages && (gfn % kFramesPerHugePage) == (mfn % kFramesPerHugePage);
  if (!alignable) {
    out.reserve(out.size() + frames);
    for (uint64_t i = 0; i < frames; ++i) {
      out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
    }
    return;
  }

  // Head singles up to the first huge boundary.
  uint64_t head = (kFramesPerHugePage - gfn % kFramesPerHugePage) % kFramesPerHugePage;
  head = std::min(head, frames);
  const uint64_t huge_count = (frames - head) / kFramesPerHugePage;
  const uint64_t tail = frames - head - huge_count * kFramesPerHugePage;
  out.reserve(out.size() + head + huge_count + tail);
  for (uint64_t i = 0; i < head; ++i) {
    out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
  }
  gfn += head;
  mfn += head;
  for (uint64_t i = 0; i < huge_count; ++i) {
    out.push_back(PramPageEntry{gfn, mfn, kHugePageOrder});
    gfn += kFramesPerHugePage;
    mfn += kFramesPerHugePage;
  }
  for (uint64_t i = 0; i < tail; ++i) {
    out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
  }
}

std::vector<PramPageEntry> BuildPageEntries(const std::vector<std::pair<Gfn, Mfn>>& map,
                                            bool huge_pages) {
  std::vector<PramPageEntry> entries;
  // One pass: find each maximal run contiguous in both address spaces, then
  // let BuildEntriesForRange carve it. The old code re-scanned 512 pairs at
  // every candidate boundary, quadratic on fragmented maps.
  size_t i = 0;
  while (i < map.size()) {
    size_t end = i + 1;
    while (end < map.size() && map[end].first == map[i].first + (end - i) &&
           map[end].second == map[i].second + (end - i)) {
      ++end;
    }
    BuildEntriesForRange(map[i].first, map[i].second, end - i, huge_pages, entries);
    i = end;
  }
  return entries;
}

}  // namespace hypertp
